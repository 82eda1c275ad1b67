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
  graded_blocks yields its interior rule a few layers of one facet fan at a
  time;
* split_scheme       -- standard scheme whose cells are pre-split along given
  lines, one batched clip of every cell per line, making piecewise-linear
  integrands piecewise-polynomial per cell;
* mesh_graded_scheme -- rules subordinate to the cells of a mesh, graded
  toward the boundary; each point records its parent mesh cell in
  interior_cells (-1 in the schemes above), so mesh data can be interpolated
  there without locating the point again; mesh_graded_triangles gives its
  triangles unmapped, for callers that map them a block at a time.

Boundary integrals use the facet-weighted measure dsigma = dS / |h_k|.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._geom import clip_halfplanes, fans, polygon_area, sorted_unique
from ._records import Frozen
from .polytope import Polytope

DEFAULT_DEGREE = 6
_BLOCK_TRIANGLES = 512  # triangles mapped at once where a rule is streamed


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_rule(npts):
    """Gauss-Legendre nodes/weights on [0, 1] (cached, read-only): numpy's
    leggauss step for step, without importing numpy.polynomial.  The nodes are
    the eigenvalues of the Legendre Jacobi matrix (Golub-Welsch) after one
    Newton step on P_n; the weights 1 / (P_{n-1} P_n'), scaled to sum to 1."""
    k = np.arange(npts)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros((npts + 1, 3, 1))  # Legendre coefficients of P_n, P_n', P_{n-1}
    c[npts, 0] = c[npts - 1, 2] = 1.0
    c[:npts, 1, 0] = np.where((npts - 1 - k) % 2 == 0, 2 * k + 1, 0)

    def clenshaw(x):  # in the operation order of numpy's legval
        c0, c1 = c[-2], c[-1]
        for nd in range(npts, 1, -1):
            c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
        return c0 + c1 * x

    p_n, dp_n, _ = clenshaw(x)
    x = x - p_n / dp_n
    p_m = clenshaw(x)[2]
    w = 1 / ((p_m / np.abs(p_m).max()) * (dp_n / np.abs(dp_n).max()))
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    return _frozen(0.5 * ((x - x[::-1]) / 2 + 1.0), 0.5 * w)


def _segments(ab, degree):
    """Rule exact to `degree` on every interval ab[i] = (a_i, b_i) of a batch.

    Returns (S*q, 1) points and (S*q,) weights, interval by interval.
    """
    t, w = gauss_rule((degree + 2) // 2)
    a, b = ab[:, :1], ab[:, 1:]
    return (a + t * (b - a)).reshape(-1, 1), (w * np.abs(b - a)).ravel()


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
    e1, e2 = tris[:, 1] - v0, tris[:, 2] - v0
    jac = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    x0, x1, x2 = (np.ascontiguousarray(a.T)[:, :, None] for a in (v0, e1, e2))  # (2, T, 1)
    pts = x0 + U * x1 + V * x2  # coordinate-major, so the broadcasts run along rows
    return pts.reshape(2, -1).T.copy(), (W * jac[:, None]).ravel()


def map_triangle_blocks(tris, degree):
    """map_triangles on runs of at most _BLOCK_TRIANGLES triangles of a
    batch, in order: one (points, weights) pair per run."""
    for start in range(0, len(tris), _BLOCK_TRIANGLES):
        yield map_triangles(tris[start:start + _BLOCK_TRIANGLES], degree)


def triangle_points(degree):
    """Number of points map_triangles puts in each triangle at `degree`."""
    return len(_reference_triangle(degree)[2])


def triangle_rule(v0, v1, v2, degree):
    """Rule exact for total degree <= `degree` on one triangle (collapsed tensor)."""
    return map_triangles([[v0, v1, v2]], degree)


def _tagged_rule(tris, tags, degree):
    """map_triangles on the triangles of nonzero Jacobian; each tag repeated per point."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    keep = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) > 0.0
    pts, wts = map_triangles(tris[keep], degree)
    per = triangle_points(degree)
    return (pts, wts) + tuple(np.repeat(np.asarray(t).ravel()[keep], per) for t in tags)


class QuadratureScheme(Frozen):
    """Interior + per-facet boundary rules for one polytope (hashed by identity).

    interior_points (N, n), interior_weights (N,), interior_layers (N,) int,
    -1 when the scheme is not graded; boundary_points and boundary_weights
    hold one (M_k, n) and one (M_k,) array per facet, sigma weight included;
    interior_cells (N,) int is the parent mesh cell, -1 off a mesh.
    """

    def __init__(self, dimension: int, degree: int, interior_points, interior_weights,
                 interior_layers, boundary_points: tuple, boundary_weights: tuple,
                 kind: str = "standard", meta: dict | None = None, interior_cells=None):
        if interior_cells is None:
            interior_cells = np.full(len(interior_weights), -1, dtype=int)
        vars(self).update(dimension=dimension, degree=degree, interior_points=interior_points,
                          interior_weights=interior_weights, interior_layers=interior_layers,
                          boundary_points=boundary_points, boundary_weights=boundary_weights,
                          kind=kind, meta={} if meta is None else meta,
                          interior_cells=interior_cells)


def _interior_1d(P, degree, breakpoints):
    ends = P.vertices[:, 0]
    xs = sorted_unique(np.concatenate([np.clip(np.asarray(breakpoints, dtype=float), *ends), ends]))
    return _segments(np.column_stack([xs[:-1], xs[1:]]), degree)


def _boundary_1d(P):
    return (tuple(P.facet_segment(k).reshape(1, 1) for k in range(P.num_facets)),
            tuple(np.array([w]) for w in P.boundary_weights))


def standard_scheme(P: Polytope, degree: int = DEFAULT_DEGREE) -> QuadratureScheme:
    """Fan decomposition with per-cell rules exact to `degree`."""
    if P.dimension == 1:
        ipts, iwts = _interior_1d(P, degree, [])
        bp, bw = _boundary_1d(P)
        nsimp = len(iwts) // ((degree + 2) // 2)
    else:
        segs = P.vertices[np.array(P.facet_vertices)]
        center = np.broadcast_to(P.vertex_centroid(), (len(segs), 1, 2))
        ipts, iwts = map_triangles(np.concatenate([center, segs], axis=1), degree)
        nsimp = len(segs)
        bp, bw = _boundary_2d(P, degree, [[]] * P.num_facets)
    layers = np.full(len(iwts), -1, dtype=int)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, layers, bp, bw,
                            kind="standard", meta={"num_simplices": nsimp})


def _boundary_2d(P, degree, s_breaks):
    """Per-facet Gauss rules split at the relative positions s_breaks[k] in [0, 1]."""
    t, w = gauss_rule((degree + 2) // 2)
    bp, bw = [], []
    for k in range(P.num_facets):
        a, b = P.facet_segment(k)
        ss = sorted_unique(np.concatenate([[0.0, 1.0], np.asarray(s_breaks[k], dtype=float)]))
        ss = ss[(ss >= 0.0) & (ss <= 1.0)]
        p, q = a + ss[:-1, None] * (b - a), a + ss[1:, None] * (b - a)  # (S, 2) segment ends
        d = (q - p)[:, None]
        length = np.sqrt(np.matmul(d, d.transpose(0, 2, 1)))[:, 0]  # np.linalg.norm's d.d
        bp.append((p[:, None] + t[:, None] * d).reshape(-1, 2))
        bw.append(((w * length) * P.boundary_weights[k]).ravel())
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


def graded_blocks(P: Polytope, degree: int = DEFAULT_DEGREE, layers: int = 40,
                  tangential_layers: int = 16):
    """graded_scheme's interior rule as (points, weights, layers) blocks: facet
    fan by facet fan in facet order, each fan in runs of whole layers of at
    most _BLOCK_TRIANGLES triangles (1D: one block per end, left first)."""
    t = 1.0 - 2.0 ** (-np.arange(layers + 1, dtype=float))
    if P.dimension == 1:
        c = 0.5 * (P.vertices[0, 0] + P.vertices[1, 0])
        for x in c + (P.vertices - c) * t:                                # (L+1,) per end
            pts, wts = _segments(np.sort(np.stack([x[:-1], x[1:]], axis=-1), axis=-1), degree)
            yield pts, wts, np.repeat(np.arange(layers), len(wts) // layers)
        return
    center = P.vertex_centroid()
    ss = _geometric_breaks(tangential_layers)
    tags = np.broadcast_to(np.arange(layers)[:, None, None], (layers, len(ss) - 1, 2))
    step = max(1, _BLOCK_TRIANGLES // tags[0].size)                      # layers per block
    for a, b in P.vertices[np.array(P.facet_vertices)]:
        ring = center + t[:, None, None] * (a + ss[:, None] * (b - a) - center)  # (L+1, S, 2)
        for j in range(0, layers, step):
            k = min(j + step, layers)
            yield _tagged_rule(_strip_triangles(ring[j:k], ring[j + 1:k + 1]), [tags[j:k]], degree)


def graded_boundary(P: Polytope, degree: int = DEFAULT_DEGREE, tangential_layers: int = 16):
    """Boundary rules of graded_scheme: two-sided tangential grading on every facet."""
    if P.dimension == 1:
        return _boundary_1d(P)
    return _boundary_2d(P, degree, [_geometric_breaks(tangential_layers)] * P.num_facets)


def graded_scheme(P: Polytope, degree: int = DEFAULT_DEGREE, layers: int = 40,
                  tangential_layers: int = 16) -> QuadratureScheme:
    """Geometric refinement (ratio 1/2) toward every facet.

    Radial layer j occupies relative distances [1 - 2^-j, 1 - 2^-(j+1)] from
    the fan center toward the facet; the sliver beyond layer `layers` is
    dropped, and per-point layer indices let callers compare truncation depths.
    Boundary rules get the same two-sided tangential grading (corners carry the
    boundary singularities of Guillemin-type integrands).  The interior rule
    concatenates graded_blocks; meta["block_ends"] holds where each block ends."""
    blocks = list(graded_blocks(P, degree, layers, tangential_layers))
    ipts, iwts, ilay = map(np.concatenate, zip(*blocks))
    bp, bw = graded_boundary(P, degree, tangential_layers)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, ilay, bp, bw, kind="graded",
                            meta={"layers": layers, "tangential_layers": tangential_layers,
                                  "block_ends": np.cumsum([len(w) for _, w, _ in blocks])})


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
        segs = P.vertices[np.array(P.facet_vertices)]
        polys = np.concatenate([np.broadcast_to(P.vertex_centroid(), (len(segs), 1, 2)), segs], 1)
        count = np.full(len(polys), 3)
        for eta, c in lines:
            # every polygon's + side, then its - side, as one batch
            sgn = np.tile([1.0, -1.0], len(polys))
            polys, count, _ = clip_halfplanes(np.repeat(polys, 2, axis=0), np.repeat(count, 2),
                                              sgn[:, None] * np.asarray(eta, dtype=float), sgn * c)
            keep = (count >= 3) & (np.abs(polygon_area(polys)) > 1e-300)
            polys, count = polys[keep], count[keep]
        ipts, iwts = _tagged_rule(fans(polys), [], degree)  # drops the zero-area padding
        # boundary: split each facet segment where a line crosses it
        eta = np.array([e for e, _ in lines], dtype=float).reshape(-1, 2)
        off = np.array([c for _, c in lines], dtype=float)
        ga, gb = (end[:, None, 0] * eta[:, 0] + end[:, None, 1] * eta[:, 1] - off
                  for end in (segs[:, 0], segs[:, 1]))                       # (K, lines)
        hit = ((ga > 0) != (gb > 0)) & (ga != gb)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = [f[k] for f, k in zip(ga / (ga - gb), hit)]
        bp, bw = _boundary_2d(P, degree, crossings)
    layers = np.full(len(iwts), -1, dtype=int)
    return QuadratureScheme(P.dimension, degree, ipts, iwts, layers, bp, bw,
                            kind="split", meta={"num_lines": len(lines)})


# the quadtree children of [t0, t1, t2] as indices into [t0, t1, t2, m0, m1, m2],
# m_i the midpoint of edge (t_i, t_i+1): corner child k keeps t_k in slot k
_QUADTREE = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def _facet_counts(mesh):
    """(V,) how many facets each mesh vertex lies on, from the mesh's names."""
    count = np.zeros(mesh.num_vertices, dtype=int)
    count[list(mesh.boundary_facets)] = [len(f) for f in mesh.boundary_facets.values()]
    return count


def mesh_graded_triangles(mesh, layers: int = 30, tangential_layers: int = 16):
    """The mesh-graded rule before mapping: triangles (T, 3, 2) in rule
    order with their (T,) layers and parent cells.

    map_triangles on them, or on any run of them, gives the rule's points
    and weights triangle by triangle, so a caller can map some triangles
    and stream the rest in blocks.
    """
    V, tris = mesh.num_vertices, mesh.vertices[mesh.cells]                 # (M, 3, 2)
    # how many facets each vertex lies on, and which edges (t_i, t_i+1) are boundary edges
    nf, nxt = _facet_counts(mesh)[mesh.cells], np.roll(mesh.cells, -1, axis=1)  # (M, 3)
    edge = np.minimum(mesh.cells, nxt) * V + np.maximum(mesh.cells, nxt)
    bkey = mesh.boundary_edges[:, 0] * V + mesh.boundary_edges[:, 1]      # ascending
    bedge = bkey[np.minimum(np.searchsorted(bkey, edge), len(bkey) - 1)] == edge
    cell = np.arange(len(tris))
    # corner cells and cells with a boundary-opposite vertex: the centroid
    # pieces [t_i, t_i+1, g] keep edge i, and g lies inside P
    split = (bedge.sum(axis=1) > 1) | (bedge & np.roll(nf > 0, -2, axis=1)).any(axis=1)
    cut = np.flatnonzero(split)
    g = np.broadcast_to(tris[cut].mean(axis=1, keepdims=True), tris[cut].shape)
    no = np.zeros_like(bedge[cut])
    tris = np.concatenate([tris[~split], np.stack([tris[cut], np.roll(tris[cut], -1, axis=1), g],
                                                  axis=2).reshape(-1, 3, 2)])
    nf = np.concatenate([nf[~split], np.stack([nf[cut], np.roll(nf[cut], -1, axis=1),
                                               np.zeros_like(nf[cut])], axis=2).reshape(-1, 3)])
    bedge = np.concatenate([bedge[~split], np.stack([bedge[cut], no, no], axis=2).reshape(-1, 3)])
    cell = np.concatenate([cell[~split], np.repeat(cut, 3)])
    nb, bvert = bedge.sum(axis=1), nf > 0

    out = []

    def emit(block, level, owner):
        """Queue a (..., 3, 2) block; level and owner broadcast to (...)."""
        shape = block.shape[:-2]
        out.append((block.reshape(-1, 3, 2), np.broadcast_to(level, shape).ravel(),
                    np.broadcast_to(owner, shape).ravel()))

    inner = (nb == 0) & ~bvert.any(axis=1)
    emit(tris[inner], 0, cell[inner])

    # edge cells: layers (ratio 1/2) toward the boundary edge, tangentially
    # graded toward its endpoints on two facets (polytope corners)
    e = np.flatnonzero(nb == 1)
    turn = (np.argmax(bedge[e], axis=1)[:, None] + np.arange(3)) % 3     # boundary edge first
    t = np.take_along_axis(tris[e], turn[:, :, None], axis=1)
    corner = np.take_along_axis(nf[e], turn, axis=1) >= 2
    s = 2.0 ** (-np.arange(layers + 1, dtype=float))[:, None, None]      # 1, 1/2, ...
    half = 2.0 ** -np.arange(1.0, tangential_layers)
    for c0 in (False, True):
        for c1 in (False, True):
            sel = (corner[:, 0] == c0) & (corner[:, 1] == c1)
            tau = sorted_unique(np.concatenate([[0.0, 1.0], half if c0 else [],
                                                1.0 - half if c1 else []]))[:, None]
            e0, e1, c = (t[sel, k, None, None] for k in range(3))
            # grid[:, j, m] = (1 - s_j) ((1 - tau_m) e0 + tau_m e1) + s_j c; layer j
            # lies between rows j + 1 (nearer the edge) and j
            grid = (1.0 - s) * ((1.0 - tau) * e0 + tau * e1) + s * c
            strips = _strip_triangles(grid[:, 1:], grid[:, :-1])         # (n, L, m-1, 2, 3, 2)
            owner = cell[e[sel]]
            # row 0 is c itself, so layer 0 is a fan of the quads' first triangles
            emit(strips[:, 0, :, 0], 0, owner[:, None])
            emit(strips[:, 1:], np.arange(1, layers)[:, None, None], owner[:, None, None, None])

    # point contact: a quadtree run level by level; each boundary vertex's
    # corner child passes down, the other children are emitted, and the
    # corner children left after `layers` levels are dropped
    p = np.flatnonzero((nb == 0) & bvert.any(axis=1))
    t, down, owner = tris[p], bvert[p], cell[p]
    for level in range(1, layers + 1):
        kids = np.concatenate([t, 0.5 * (t + np.roll(t, -1, axis=1))], axis=1)[:, _QUADTREE]
        down = np.pad(down, ((0, 0), (0, 1)))
        owner = np.broadcast_to(owner[:, None], down.shape)
        emit(kids[~down], level, owner[~down])
        t, owner = kids[down], owner[down]
        down = np.eye(3, dtype=bool)[np.nonzero(down)[1]]
    return tuple(np.concatenate(z) for z in zip(*out))


def mesh_graded_scheme(mesh, degree: int = DEFAULT_DEGREE, layers: int = 30,
                       tangential_layers: int = 16) -> QuadratureScheme:
    """Quadrature subordinate to mesh cells, graded toward the boundary.

    Every quadrature cell lies inside a single mesh cell, recorded per point
    in interior_cells, so piecewise data attached to the mesh has no kinks
    inside any cell.  Which vertices lie on which facets, and which cell edges
    are boundary edges, is read from the mesh (boundary_facets,
    boundary_edges), so no tolerance is involved.  Cells with an edge on the
    boundary get geometric layers (ratio 1/2) toward that edge, tangentially
    refined toward endpoints on two facets; corner cells and cells with a
    boundary-opposite vertex are first split at the centroid.  Cells touching
    the boundary only at vertices get a quadtree whose levels are built one
    batch at a time: each boundary vertex's corner child passes down and the
    other children are emitted, so levels 2 to layers - 1 hold equal counts.
    No loop runs over cells.  The slivers beyond `layers` are dropped and
    carry the layer bookkeeping for truncation estimates.
    """
    tris, lay, cell = mesh_graded_triangles(mesh, layers, tangential_layers)
    ipts, iwts = map_triangles(tris, degree)
    ilay, icell = (np.repeat(tag, triangle_points(degree)) for tag in (lay, cell))
    bp, bw = graded_boundary(mesh.polytope, degree, tangential_layers)
    return QuadratureScheme(mesh.dimension, degree, ipts, iwts, ilay, bp, bw,
                            kind="mesh-graded",
                            meta={"layers": layers, "tangential_layers": tangential_layers},
                            interior_cells=icell)


def integrate_blocks(f, blocks) -> float:
    """Sum of weights . f(points) over (points, weights, ...) blocks, in block order."""
    total = 0.0
    for pts, wts, *_ in blocks:
        total += float(np.dot(wts, np.asarray(f(pts), dtype=float)))
    return total


def integrate_interior(f, P: Polytope, Q: QuadratureScheme | None = None) -> float:
    """Integral of f over the polytope with respect to Lebesgue measure."""
    if Q is None:
        Q = standard_scheme(P)
    return integrate_blocks(f, [(Q.interior_points, Q.interior_weights)])


def integrate_boundary(f, P: Polytope, Q: QuadratureScheme | None = None) -> float:
    """Integral of f over the boundary with respect to dsigma = dS / |h_k|."""
    if Q is None:
        Q = standard_scheme(P)
    return integrate_blocks(f, zip(Q.boundary_points, Q.boundary_weights))
