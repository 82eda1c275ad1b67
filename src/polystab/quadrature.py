"""Exact quadrature over polytopes and their boundaries.

Every 2D interior rule comes from one kernel, map_triangles, which maps a
cached collapsed-tensor reference rule onto a whole (T, 3, 2) batch of
triangles in a few broadcast operations.  The scheme builders only produce
triangle batches (and per-triangle tags) and call it once:

* standard_scheme    -- fan decomposition with rules exact for polynomials up
  to the requested degree (both interior and boundary);
* graded_scheme      -- geometric refinement toward every facet (ratio 1/2)
  for integrands with logarithmic boundary singularities; carries per-point
  layer indices so truncation can be estimated by comparing layer depths;
* split_scheme       -- standard scheme whose cells are pre-split along given
  lines, making piecewise-linear integrands piecewise-polynomial per cell;
* mesh_graded_scheme -- rules subordinate to the cells of a mesh, graded
  toward the boundary; each point records its parent mesh cell in
  interior_cells (-1 in the schemes above), so mesh data can be interpolated
  there without locating the point again.

Boundary integrals use the facet-weighted measure dsigma = dS / |h_k|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._geom import clip_polygon_halfplane, fan_triangles, polygon_area
from .polytope import Polytope

DEFAULT_DEGREE = 6


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_rule(npts):
    """Gauss-Legendre nodes/weights on [0, 1] (cached, read-only)."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _segment_rule(a, b, npts):
    t, w = gauss_rule(npts)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    return pts, w * np.linalg.norm(b - a)


@lru_cache(maxsize=None)
def _reference_triangle(degree):
    """Collapsed-tensor rule (U, V, W) on the unit triangle, exact to `degree`."""
    xa, wa = gauss_rule((degree + 3) // 2)  # handles the extra (1-a) Jacobian factor
    xb, wb = gauss_rule((degree + 2) // 2)
    A, B = np.meshgrid(xa, xb, indexing="ij")
    U = A.ravel()
    V = (B * (1.0 - A)).ravel()
    W = (wa[:, None] * wb[None, :]).ravel() * (1.0 - A.ravel())
    return _frozen(U, V, W)


def map_triangles(tris, degree):
    """Rule exact for total degree <= `degree` on every triangle of a batch.

    tris has shape (T, 3, 2); returns (T*q, 2) points and (T*q,) weights,
    triangle by triangle, each point v0 + U e1 + V e2 with weight W |det|.
    """
    U, V, W = _reference_triangle(degree)
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = v0[:, None, :] + U[:, None] * e1[:, None, :] + V[:, None] * e2[:, None, :]
    return pts.reshape(-1, 2), (W * jac[:, None]).ravel()


def triangle_rule(v0, v1, v2, degree):
    """Rule exact for total degree <= `degree` on one triangle (collapsed tensor)."""
    return map_triangles([[v0, v1, v2]], degree)


def _tagged_rule(tris, tags, degree):
    """map_triangles on the non-degenerate triangles; each tag repeated per point."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    keep = np.abs(polygon_area(tris)) > 1e-300
    pts, wts = map_triangles(tris[keep], degree)
    per = len(_reference_triangle(degree)[2])
    return (pts, wts) + tuple(np.repeat(np.asarray(t).ravel()[keep], per) for t in tags)


@dataclass(frozen=True)
class QuadratureScheme:
    """Interior + per-facet boundary rules for one polytope."""

    dimension: int
    degree: int
    interior_points: np.ndarray          # (N, n)
    interior_weights: np.ndarray         # (N,)
    interior_layers: np.ndarray          # (N,) int; -1 when the scheme is not graded
    boundary_points: tuple               # per facet: (M_k, n)
    boundary_weights: tuple              # per facet: (M_k,), sigma weight included
    kind: str = "standard"
    meta: dict = field(default_factory=dict)
    interior_cells: np.ndarray = None    # (N,) int parent mesh cell; -1 off a mesh

    def __post_init__(self):
        if self.interior_cells is None:
            object.__setattr__(self, "interior_cells",
                               np.full(len(self.interior_weights), -1, dtype=int))

    def restricted_to_layers(self, max_layer):
        """Interior sub-rule using only points with layer < max_layer."""
        m = self.interior_layers < max_layer
        return self.interior_points[m], self.interior_weights[m]


def _interior_1d(P, degree, breakpoints):
    lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
    xs = np.unique(np.clip(np.asarray(breakpoints, dtype=float), lo, hi))
    xs = np.union1d(xs, [lo, hi])
    npts = (degree + 2) // 2
    pts, wts = [], []
    for a, b in zip(xs[:-1], xs[1:]):
        if b - a <= 0:
            continue
        p, w = _segment_rule([a], [b], npts)
        pts.append(p)
        wts.append(w)
    return np.vstack(pts), np.concatenate(wts)


def _boundary_1d(P):
    bp, bw = [], []
    for k in range(P.num_facets):
        v = P.facet_segment(k).reshape(1, 1)
        bp.append(v)
        bw.append(np.array([P.boundary_weights[k]]))
    return tuple(bp), tuple(bw)


def _facet_segments(P):
    return np.array([P.facet_segment(k) for k in range(P.num_facets)])


def standard_scheme(P: Polytope, degree: int = DEFAULT_DEGREE) -> QuadratureScheme:
    """Fan decomposition with per-cell rules exact to `degree`."""
    if P.dimension == 1:
        ipts, iwts = _interior_1d(P, degree, [])
        bp, bw = _boundary_1d(P)
        nsimp = len(iwts) // ((degree + 2) // 2)
    else:
        segs = _facet_segments(P)
        center = np.broadcast_to(P.vertex_centroid(), (len(segs), 1, 2))
        ipts, iwts = map_triangles(np.concatenate([center, segs], axis=1), degree)
        nsimp = len(segs)
        bp, bw = _boundary_2d(P, degree, [[]] * P.num_facets)
    layers = np.full(len(iwts), -1, dtype=int)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, layers, bp, bw,
                            kind="standard", meta={"num_simplices": nsimp})


def _boundary_2d(P, degree, s_breaks):
    """Per-facet Gauss rules split at the relative positions s_breaks[k] in [0, 1]."""
    npts = (degree + 2) // 2
    bp, bw = [], []
    for k in range(P.num_facets):
        a, b = P.facet_segment(k)
        ss = np.unique(np.concatenate([[0.0, 1.0], np.asarray(s_breaks[k], dtype=float)]))
        ss = ss[(ss >= 0.0) & (ss <= 1.0)]
        pts, wts = [], []
        for s0, s1 in zip(ss[:-1], ss[1:]):
            if s1 - s0 <= 0:
                continue
            p, w = _segment_rule(a + s0 * (b - a), a + s1 * (b - a), npts)
            pts.append(p)
            wts.append(w * P.boundary_weights[k])
        bp.append(np.vstack(pts))
        bw.append(np.concatenate(wts))
    return tuple(bp), tuple(bw)


def _geometric_breaks(nlayers):
    """0 < 2^-nlayers < ... < 1/2 < ... < 1 - 2^-nlayers < 1, graded to both ends."""
    half = [2.0 ** (-j) for j in range(nlayers, 0, -1)]
    return np.array([0.0] + half[:-1] + [0.5] + [1.0 - v for v in reversed(half[:-1])] + [1.0])


def _strip_triangles(lo, hi):
    """Fan triangles of the quads [lo_i, lo_i+1, hi_i+1, hi_i] between point rows.

    lo and hi have shape (..., m, 2); the result has shape (..., m-1, 2, 3, 2).
    """
    q0, q1, q2, q3 = lo[..., :-1, :], lo[..., 1:, :], hi[..., 1:, :], hi[..., :-1, :]
    return np.stack([np.stack([q0, q1, q2], axis=-2),
                     np.stack([q0, q2, q3], axis=-2)], axis=-3)


def graded_scheme(P: Polytope, degree: int = DEFAULT_DEGREE, layers: int = 40,
                  tangential_layers: int = 16) -> QuadratureScheme:
    """Geometric refinement (ratio 1/2) toward every facet.

    Radial layer j occupies relative distances [1 - 2^-j, 1 - 2^-(j+1)] from
    the fan center toward the facet; the sliver beyond layer `layers` is
    dropped, and per-point layer indices let callers compare truncation depths.
    Boundary rules get the same two-sided tangential grading (corners carry the
    boundary singularities of Guillemin-type integrands).
    """
    t = 1.0 - 2.0 ** (-np.arange(layers + 1, dtype=float))
    npts = (degree + 2) // 2
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        c = 0.5 * (lo + hi)
        pts, wts, lay = [], [], []
        for e in (lo, hi):
            for j in range(layers):
                a = c + (e - c) * t[j]
                b = c + (e - c) * t[j + 1]
                p, w = _segment_rule([min(a, b)], [max(a, b)], npts)
                pts.append(p)
                wts.append(w)
                lay.append(np.full(len(w), j))
        ipts = np.vstack(pts)
        iwts = np.concatenate(wts)
        ilay = np.concatenate(lay)
        bp, bw = _boundary_1d(P)
    else:
        center = P.vertex_centroid()
        ss = _geometric_breaks(tangential_layers)
        segs = _facet_segments(P)
        a, b = segs[:, None, 0], segs[:, None, 1]
        edge = a + ss[:, None] * (b - a)                                  # (K, S, 2)
        ring = center + t[:, None, None] * (edge[:, None] - center)      # (K, L+1, S, 2)
        tris = _strip_triangles(ring[:, :-1], ring[:, 1:])                # (K, L, S-1, 2, 3, 2)
        tags = np.broadcast_to(np.arange(layers)[:, None, None], tris.shape[:4])
        ipts, iwts, ilay = _tagged_rule(tris, [tags], degree)
        bp, bw = _boundary_2d(P, degree, [_geometric_breaks(tangential_layers)] * P.num_facets)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, ilay, bp, bw,
                            kind="graded",
                            meta={"layers": layers, "tangential_layers": tangential_layers})


def split_scheme(P: Polytope, lines, degree: int = DEFAULT_DEGREE) -> QuadratureScheme:
    """Standard scheme pre-split along lines {eta.x = c}, given as (eta, c) pairs.

    Piecewise-linear functions with kinks on those lines are polynomial on
    every cell, so the rule integrates (PL x polynomial) data exactly.
    """
    if P.dimension == 1:
        breaks = [c / eta[0] for eta, c in lines if eta[0] != 0.0]
        ipts, iwts = _interior_1d(P, degree, breaks)
        bp, bw = _boundary_1d(P)
    else:
        center = P.vertex_centroid()
        polys = [np.array([center, a, b]) for a, b in _facet_segments(P)]
        for eta, c in lines:
            eta = np.asarray(eta, dtype=float)
            nxt = []
            for poly in polys:
                for sgn in (1.0, -1.0):
                    clipped = clip_polygon_halfplane(poly, sgn * eta, sgn * c)
                    if len(clipped) >= 3 and abs(polygon_area(clipped)) > 1e-300:
                        nxt.append(clipped)
            polys = nxt
        ipts, iwts = map_triangles([tri for poly in polys for tri in fan_triangles(poly)],
                                   degree)
        # boundary: split each facet segment where a line crosses it
        crossings = [[] for _ in range(P.num_facets)]
        for k, (a, b) in enumerate(_facet_segments(P)):
            for eta, c in lines:
                eta = np.asarray(eta, dtype=float)
                ga = eta @ a - c
                gb = eta @ b - c
                if (ga > 0) != (gb > 0) and ga != gb:
                    crossings[k].append(ga / (ga - gb))
        bp, bw = _boundary_2d(P, degree, crossings)
    layers = np.full(len(iwts), -1, dtype=int)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, layers, bp, bw,
                            kind="split", meta={"num_lines": len(lines)})


def mesh_graded_scheme(mesh, degree: int = DEFAULT_DEGREE, layers: int = 30,
                       tangential_layers: int = 16) -> QuadratureScheme:
    """Quadrature subordinate to mesh cells, graded toward the boundary.

    Every quadrature cell lies inside a single mesh cell, recorded per point
    in interior_cells, so piecewise data attached to the mesh has no kinks
    inside any cell.  Cells with an edge on the polytope boundary get
    geometric layers (ratio 1/2) toward that edge, tangentially refined
    toward endpoints sitting on two facets; cells touching the boundary only
    at a vertex get a geometric point grading.  The slivers beyond `layers`
    are dropped and carry the layer bookkeeping for truncation estimates.
    """
    P = mesh.polytope
    tol = 1e-9 * max(1.0, P._scale)

    if mesh.dimension == 1:
        pts, wts, lay, cel = [], [], [], []

        def emit_seg(a, b, level, cell):
            p, w = _segment_rule([a], [b], (degree + 2) // 2)
            pts.append(p)
            wts.append(w)
            lay.append(np.full(len(w), level))
            cel.append(np.full(len(w), cell))

        for ci, cell in enumerate(mesh.cells):
            a, b = float(mesh.vertices[cell[0], 0]), float(mesh.vertices[cell[1], 0])
            on_a = P.boundary_distance([[a]]) <= tol
            on_b = P.boundary_distance([[b]]) <= tol
            if not on_a and not on_b:
                emit_seg(a, b, 0, ci)
                continue
            mid = 0.5 * (a + b) if (on_a and on_b) else (b if on_a else a)
            for e, far, touch in (((a), mid, on_a), ((b), mid, on_b)):
                if not touch:
                    continue
                for j in range(layers):
                    hi = e + (far - e) * 2.0 ** (-j)
                    lo = e + (far - e) * 2.0 ** (-(j + 1))
                    emit_seg(min(lo, hi), max(lo, hi), j, ci)
        ipts, iwts = np.vstack(pts), np.concatenate(wts)
        ilay, icell = np.concatenate(lay), np.concatenate(cel)
        bp, bw = _boundary_1d(P)
    else:
        norm_h = np.linalg.norm(P.normals, axis=1)
        tris, levels = [], []

        def emit(block, level):
            """Queue a (..., 3, 2) block of triangles; level broadcasts to (...)."""
            tris.append(block.reshape(-1, 3, 2))
            levels.append(np.broadcast_to(level, block.shape[:-2]).ravel())

        def facets_of(p):
            g = np.abs(P.gaps(p)) / norm_h
            return frozenset(np.where(g <= tol)[0].tolist())

        def handle(tri, base_level):
            tri = np.asarray(tri, dtype=float)
            fsets = [facets_of(v) for v in tri]
            bedges = [i for i in range(3)
                      if fsets[i] & fsets[(i + 1) % 3]
                      and facets_of(0.5 * (tri[i] + tri[(i + 1) % 3]))]
            bverts = [i for i in range(3) if fsets[i]]
            if not bedges:
                if not bverts:
                    emit(tri, base_level)
                    return
                # point contact: geometric quadtree, only corner children recurse
                stack = [(tri, base_level)]
                while stack:
                    t, lv = stack.pop()
                    if lv >= layers:
                        continue
                    mids = [0.5 * (t[i] + t[(i + 1) % 3]) for i in range(3)]
                    children = [np.array([t[0], mids[0], mids[2]]),
                                np.array([mids[0], t[1], mids[1]]),
                                np.array([mids[2], mids[1], t[2]]),
                                np.array([mids[0], mids[1], mids[2]])]
                    for ch in children:
                        if any(facets_of(v) for v in ch):
                            stack.append((ch, lv + 1))
                        else:
                            emit(ch, lv + 1)
                return
            if len(bedges) > 1 or fsets[(bedges[0] + 2) % 3]:
                # corner cell or boundary-opposite vertex: split at the centroid
                g = tri.mean(axis=0)
                for i in range(3):
                    handle(np.array([tri[i], tri[(i + 1) % 3], g]), base_level)
                return
            i = bedges[0]
            e0, e1, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            # tangential grading toward endpoints on two facets (polytope corners)
            tau = [0.0, 1.0]
            if len(fsets[i]) >= 2:
                tau.extend(2.0 ** (-j) for j in range(1, tangential_layers))
            if len(fsets[(i + 1) % 3]) >= 2:
                tau.extend(1.0 - 2.0 ** (-j) for j in range(1, tangential_layers))
            tau = np.unique(tau)[:, None]
            s = 2.0 ** (-np.arange(layers + 1, dtype=float))[:, None, None]  # 1, 1/2, ...
            # grid[j, m] = (1 - s_j) ((1 - tau_m) e0 + tau_m e1) + s_j c; layer j
            # lies between rows j + 1 (nearer the edge) and j
            grid = (1.0 - s) * ((1.0 - tau) * e0 + tau * e1) + s * c
            emit(_strip_triangles(grid[1:], grid[:-1]),
                 (base_level + np.arange(layers))[:, None, None])

        counts = []
        for cell in mesh.cells:
            before = len(tris)
            handle(mesh.vertices[cell], 0)
            counts.append(sum(len(b) for b in tris[before:]))
        owner = np.repeat(np.arange(len(mesh.cells)), counts)
        ipts, iwts, ilay, icell = _tagged_rule(np.concatenate(tris),
                                               [np.concatenate(levels), owner], degree)
        bp, bw = _boundary_2d(P, degree, [_geometric_breaks(tangential_layers)] * P.num_facets)
    return QuadratureScheme(mesh.dimension, degree, ipts, iwts, ilay, bp, bw,
                            kind="mesh-graded", meta={"layers": layers},
                            interior_cells=icell)


def integrate_interior(f, P: Polytope, Q: QuadratureScheme | None = None) -> float:
    """Integral of f over the polytope with respect to Lebesgue measure."""
    if Q is None:
        Q = standard_scheme(P)
    vals = np.asarray(f(Q.interior_points), dtype=float)
    return float(np.dot(Q.interior_weights, vals))


def integrate_boundary(f, P: Polytope, Q: QuadratureScheme | None = None) -> float:
    """Integral of f over the boundary with respect to dsigma = dS / |h_k|."""
    if Q is None:
        Q = standard_scheme(P)
    total = 0.0
    for pts, wts in zip(Q.boundary_points, Q.boundary_weights):
        total += float(np.dot(wts, np.asarray(f(pts), dtype=float)))
    return total
