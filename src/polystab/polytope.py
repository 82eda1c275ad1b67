"""Bounded convex polytopes in facet form.

A polytope is the set {x : h_k(x) - c_k > 0 for all k} together with the
Donaldson boundary measure: on the facet {h_k = c_k} the measure dsigma is the
Euclidean surface measure divided by |h_k|, so dsigma ^ dh_k = +-dmu.  Only
dimensions 1 and 2 are supported.
"""
from __future__ import annotations

import numpy as np

from ._records import Frozen
from .errors import EmptyInterior, NonIntegerNormals, UnboundedDomain

_FEAS_TOL = 1e-10  # strict-feasibility tolerance for redundancy reduction


class Polytope(Frozen):
    """Facet-form convex polytope with per-facet boundary weights.

    Attributes
    ----------
    dimension : 1 or 2
    normals   : (K, n) facet normals h_k, stored exactly as provided
    offsets   : (K,) offsets c_k; interior is {x : normals @ x - offsets > 0}
    vertices  : (V, n) extreme points (1D: ascending; 2D: counterclockwise)
    boundary_weights : (K,) sigma-density 1/|h_k| relative to Euclidean measure
    facet_vertices : per facet, indices into `vertices` of its supporting
        vertices (1D: one endpoint; 2D: the two edge endpoints, CCW order)
    name : optional label carried through file round-trips

    Compared and hashed by identity.
    """

    def __init__(self, dimension: int, normals: np.ndarray, offsets: np.ndarray,
                 vertices: np.ndarray, boundary_weights: np.ndarray, facet_vertices: tuple,
                 name: str | None = None, _scale: float = 1.0):
        vars(self).update(dimension=dimension, normals=normals, offsets=offsets,
                          vertices=vertices, boundary_weights=boundary_weights,
                          facet_vertices=facet_vertices, name=name, _scale=_scale)

    def gaps(self, points):
        """delta_k(x) = h_k(x) - c_k for every facet, shape (..., K)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.normals.T - self.offsets

    def boundary_distance(self, points):
        """Euclidean distance to the nearest facet plane (min_k delta_k/|h_k|)."""
        g = self.gaps(points)
        return np.min(g * self.boundary_weights, axis=-1)

    @property
    def num_facets(self):
        return self.normals.shape[0]

    def vertex_centroid(self):
        return self.vertices.mean(axis=0)

    def facet_segment(self, k):
        """Endpoints of facet k: shape (2, 2) in 2D, (1,) point in 1D."""
        idx = self.facet_vertices[k]
        return self.vertices[np.asarray(idx)]


def _reduce_1d(normals, offsets):
    lower = upper = None
    lo_k = up_k = None
    for k, (h, c) in enumerate(zip(normals[:, 0], offsets)):
        if h == 0.0:
            if -c <= 0.0:
                raise EmptyInterior("zero normal with non-positive offset gap")
            continue  # 0 > c with c < 0: vacuous inequality, drop
        bound = c / h
        if h > 0.0:
            if lower is None or bound > lower:
                lower, lo_k = bound, k
        else:
            if upper is None or bound < upper:
                upper, up_k = bound, k
    if lower is None or upper is None:
        raise UnboundedDomain("interval needs both a lower and an upper facet")
    if upper - lower <= _FEAS_TOL * max(abs(lower), abs(upper)):
        raise EmptyInterior(f"empty interval: [{lower}, {upper}]")
    keep = [lo_k, up_k]
    vertices = np.array([[lower], [upper]])
    facet_vertices = ((0,), (1,))
    return keep, vertices, facet_vertices


def _recession_direction_2d(normals):
    """Return True if some nonzero d satisfies h_k . d >= 0 for all k."""
    angles = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    # all normals within a closed half-plane <=> a circular gap >= pi
    return np.max(gaps) >= np.pi - 1e-12


def _reduce_2d(normals, offsets):
    zero = np.all(normals == 0.0, axis=1)
    if np.any(zero):
        if np.any(-offsets[zero] <= 0.0):
            raise EmptyInterior("zero normal with non-positive offset gap")
        raise ValueError("vacuous zero-normal facet; drop it before building")
    K = normals.shape[0]
    if K < 3:
        raise UnboundedDomain("a bounded 2D polytope needs at least 3 facets")
    if _recession_direction_2d(normals):
        raise UnboundedDomain("facet normals lie in a half-plane")

    # the largest facet distance from the origin bounds the rounding of the gaps
    reach = float(np.max(np.abs(offsets))
                  / max(np.min(np.linalg.norm(normals, axis=1)), 1e-30)) or 1.0
    cands = []
    for i in range(K):
        for j in range(i + 1, K):
            M = np.array([normals[i], normals[j]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) <= 1e-14 * np.linalg.norm(M[0]) * np.linalg.norm(M[1]):
                continue
            p = np.linalg.solve(M, np.array([offsets[i], offsets[j]]))
            cands.append(p)
    if not cands:
        raise EmptyInterior("no facet intersections")
    cands = np.array(cands)
    g = cands @ normals.T - offsets
    norms = np.linalg.norm(normals, axis=1)
    pts = cands[np.all(g >= -1e-9 * reach * norms, axis=1)]
    if pts.shape[0] == 0:
        raise EmptyInterior("no feasible vertex")
    # tolerances follow the size of P, not its distance from the origin; the
    # reach term covers the rounding of gaps far from the origin
    scale = float(np.max(np.ptp(pts, axis=0))) + 1e-5 * reach
    pts = cands[np.all(g >= -1e-9 * scale * norms, axis=1)]
    # dedupe
    uniq: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-9 * scale for q in uniq):
            uniq.append(p)
    verts = np.array(uniq)
    if verts.shape[0] < 3:
        raise EmptyInterior("fewer than 3 vertices: interior is empty")
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
    verts = verts[order]
    gap_c = normals @ center - offsets
    if np.any(gap_c <= _FEAS_TOL * scale * norms):
        raise EmptyInterior("vertex centroid is not strictly feasible")

    keep = []
    facet_vertices = []
    gv = verts @ normals.T - offsets  # (V, K)
    for k in range(K):
        on_k = np.where(np.abs(gv[:, k]) <= 1e-8 * scale * norms[k])[0]
        if on_k.size >= 2:
            # duplicate facet guard: same vertex pair under an earlier facet
            pair = tuple(sorted(on_k.tolist()))
            if any(tuple(sorted(fv)) == pair for fv in facet_vertices):
                continue
            keep.append(k)
            # CCW order along the boundary
            if on_k.size > 2:
                d = verts[on_k] - center
                on_k = on_k[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
            facet_vertices.append(tuple(int(i) for i in on_k[:2]))
    return keep, verts, facet_vertices


def build_polytope(facets, name=None):
    """Build a bounded polytope from (normal, offset) pairs.

    Vertices come from pairwise facet intersections (1D: per-facet bounds)
    filtered by feasibility; redundant facets are dropped.  Raises
    UnboundedDomain or EmptyInterior when the inequalities do not cut out a
    bounded set with nonempty interior.
    """
    if not facets:
        raise EmptyInterior("facet list is empty")
    normals = np.array([np.atleast_1d(np.asarray(h, dtype=float)) for h, _ in facets])
    offsets = np.array([float(c) for _, c in facets])
    n = normals.shape[1]
    if n not in (1, 2):
        raise ValueError(f"only dimensions 1 and 2 are supported, got {n}")

    keep, vertices, facet_vertices = (_reduce_1d if n == 1 else _reduce_2d)(normals, offsets)
    # the tolerance scale: the size of P plus a reach term for the rounding of
    # coordinates of magnitude max|x| (a few ulps are 1e-15 max|x|)
    scale = float(np.max(np.ptp(vertices, axis=0))) + 1e-3 * float(np.max(np.abs(vertices)))

    normals = normals[keep]
    offsets = offsets[keep]
    weights = 1.0 / np.linalg.norm(normals, axis=1)
    return Polytope(
        dimension=n,
        normals=normals,
        offsets=offsets,
        vertices=vertices,
        boundary_weights=weights,
        facet_vertices=tuple(facet_vertices),
        name=name,
        _scale=scale,
    )


def interval(a=0.0, b=1.0, name=None):
    """Interval [a, b] with unit-weight endpoints."""
    return build_polytope([((1.0,), a), ((-1.0,), -b)], name=name)


def unit_square(name="unit-square"):
    return build_polytope(
        [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -1.0), ((0.0, -1.0), -1.0)],
        name=name,
    )


def standard_simplex(name="standard-simplex"):
    return build_polytope(
        [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, -1.0), -1.0)], name=name
    )


def delzant_check(P: Polytope) -> bool:
    """True iff exactly n facets meet each vertex and their normals have |det| = 1.

    Normals are validated to be integral but are used exactly as stored (no
    primitivization).
    """
    normals = P.normals
    rounded = np.round(normals)
    if np.max(np.abs(normals - rounded)) > 1e-9:
        raise NonIntegerNormals("facet normals must have integer entries")
    rounded = rounded.astype(np.int64)
    n = P.dimension
    gv = P.gaps(P.vertices)  # (V, K)
    tol = 1e-8 * P._scale * np.linalg.norm(normals, axis=1)
    for v in range(P.vertices.shape[0]):
        active = np.where(np.abs(gv[v]) <= tol)[0]
        if active.size != n:
            return False
        M = rounded[active]
        if n == 1:
            det = int(M[0, 0])
        else:
            det = int(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
        if abs(det) != 1:
            return False
    return True


def center_of_mass(P: Polytope):
    """(integral of x dmu) / Vol, computed with exact moment quadrature."""
    from .quadrature import standard_scheme, integrate_interior

    Q = standard_scheme(P, degree=2)
    vol = integrate_interior(lambda x: np.ones(x.shape[0]), P, Q)
    com = np.array(
        [integrate_interior(lambda x, i=i: x[:, i], P, Q) for i in range(P.dimension)]
    )
    return com / vol
