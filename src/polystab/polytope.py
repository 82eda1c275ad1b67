"""Bounded convex polytopes in facet form.

A polytope is the set {x : h_k(x) - c_k > 0 for all k} together with the
Donaldson boundary measure: on the facet {h_k = c_k} the measure dsigma is the
Euclidean surface measure divided by |h_k|, so dsigma ^ dh_k = +-dmu.  Only
dimensions 1 and 2 are supported.

A polygon is cut from a box by its facets in turn with the one half-plane
clipper (de Berg et al., Computational Geometry, 3rd ed., 2008, section 4.2),
which says which facet each edge lies on.  Each vertex is then named by the
two facets of its edges and solved from them; which facets meet at a vertex
(`Polytope.vertex_facets`) is read from these names, never from gaps.  The
one tolerance is the vertex merge, 1e-9 of the tolerance scale `_scale`.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._geom import clip_halfplanes
from ._records import Frozen
from .errors import EmptyInterior, NonIntegerNormals, UnboundedDomain

_FEAS_TOL = 1e-10  # relative margin of a nonempty interior: centroid gaps (1D: the length)


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
        vertices (1D: one endpoint; 2D: the two edge endpoints, ascending)
    name : optional label carried through file round-trips

    `vertex_facets` (derived, cached) inverts facet_vertices.  Compared and
    hashed by identity.
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

    @cached_property
    def vertex_facets(self):
        """(V, n) facets meeting at each vertex, ascending: facet_vertices inverted
        (2D: the two facets of its edges; 1D: the facet of the endpoint)."""
        fv = np.asarray(self.facet_vertices)
        vf = np.argsort(fv.ravel(), kind="stable").reshape(len(self.vertices), -1) // fv.shape[1]
        vf.flags.writeable = False
        return vf

    def facet_segment(self, k):
        """Endpoints of facet k: shape (2, 2) in 2D, (1,) point in 1D."""
        idx = self.facet_vertices[k]
        return self.vertices[np.asarray(idx)]


def _reduce_1d(normals, offsets):
    h = normals[:, 0]
    if np.any((h == 0.0) & (-offsets <= 0.0)):
        raise EmptyInterior("zero normal with non-positive offset gap")
    if not (np.any(h > 0.0) and np.any(h < 0.0)):
        raise UnboundedDomain("interval needs both a lower and an upper facet")
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = offsets / h  # a zero normal with a positive gap bounds nothing
    # the tightest bound on each side; of equal ones the earliest facet
    lo_k = int(np.argmax(np.where(h > 0.0, bound, -np.inf)))
    up_k = int(np.argmin(np.where(h < 0.0, bound, np.inf)))
    lower, upper = float(bound[lo_k]), float(bound[up_k])
    if upper - lower <= _FEAS_TOL * max(abs(lower), abs(upper)):
        raise EmptyInterior(f"empty interval: [{lower}, {upper}]")
    return [lo_k, up_k], np.array([[lower], [upper]]), ((0,), (1,))


def _recession_direction_2d(normals):
    """Return True if some nonzero d satisfies h_k . d >= 0 for all k."""
    angles = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    # all normals within a closed half-plane <=> a circular gap >= pi
    return np.max(gaps) >= np.pi - 1e-12


def _clip_edges(normals, offsets):
    """A box holding every crossing of two facets, clipped by each facet in
    turn (a repeat of an earlier facet is skipped): the corners left, (m, 2),
    and the facet line[e] that edge e, from corner e to e + 1, lies on."""
    pair = np.column_stack(np.triu_indices(len(normals), 1))
    x = (np.linalg.pinv(normals[pair]) @ offsets[pair, None])[..., 0]  # parallel: least squares
    pad = float(np.max(np.ptp(x, axis=0))) or 1.0
    lo, hi = x.min(axis=0) - pad, x.max(axis=0) + pad
    poly = np.array([[lo, (hi[0], lo[1]), hi, (lo[0], hi[1])]])
    count, line = np.array([4]), np.full(4, -1)
    same = np.all(normals[:, None] == normals, axis=2) & (offsets[:, None] == offsets)
    for k in np.flatnonzero(~np.tril(same, -1).any(axis=1)):
        poly, count, src = clip_halfplanes(poly, count, normals[k], offsets[k])
        odd = src[0, :count[0]] % 2 == 1  # a crossing; followed by one, it leaves along k
        line = np.where(odd & np.roll(odd, -1), k, line[src[0, :count[0]] // 2])
    return poly[0, :count[0]], line


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

    pts, line = _clip_edges(normals, offsets)
    if len(line) < 3:
        raise EmptyInterior("the facets cut out no polygon")
    # corners closer than 1e-9 of the tolerance scale merge: the edge between
    # them goes; where the normals then do not turn counterclockwise (a facet
    # meets a multiple of itself) the lesser facet's edge stays
    scale = float(np.max(np.ptp(pts, axis=0))) + 1e-3 * float(np.max(np.abs(pts)))
    line = line[np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1) > 1e-9 * scale]
    n, prev = normals[line], np.roll(line, 1)
    flat = n[:, 0] * normals[prev, 1] >= n[:, 1] * normals[prev, 0]
    line = line[~(flat & (line >= prev) | np.roll(flat, -1) & (line > np.roll(line, -1)))]
    if len(line) < 3:
        raise EmptyInterior("fewer than 3 vertices: interior is empty")
    # vertex e joins edges e - 1 and e, solved from their facets in (min, max)
    # order, and the vertices are sorted by angle about their centroid
    pair = np.sort(np.column_stack([np.roll(line, 1), line]), axis=1)
    verts = np.linalg.solve(normals[pair], offsets[pair][..., None])[..., 0]
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
    if np.any(normals @ center - offsets <= _FEAS_TOL * scale * np.linalg.norm(normals, axis=1)):
        raise EmptyInterior("vertex centroid is not strictly feasible")
    # facets in index order, each with its edge's ends as ascending vertex ids
    rank, keep = np.argsort(order), np.argsort(line)
    ends = np.sort(np.column_stack([rank, np.roll(rank, -1)]), axis=1)[keep]
    return line[keep].tolist(), verts[order], [tuple(e) for e in ends.tolist()]


def build_polytope(facets, name=None):
    """Build a bounded polytope from (normal, offset) pairs.

    2D vertices are the corners of a box clipped by every facet, each solved
    from its two facets; 1D vertices are the tightest per-facet bounds.
    Facets without an edge (redundant ones, repeats of an earlier facet) are
    dropped.  Raises UnboundedDomain or EmptyInterior when the inequalities
    do not cut out a bounded set with nonempty interior.
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
    """True iff the normals of the facets at each vertex have |det| = 1.

    Normals are validated to be integral but are used exactly as stored (no
    primitivization).
    """
    normals = P.normals
    rounded = np.round(normals)
    if np.max(np.abs(normals - rounded)) > 1e-9:
        raise NonIntegerNormals("facet normals must have integer entries")
    M = rounded.astype(np.int64)[P.vertex_facets]  # (V, n, n)
    det = M[:, 0, 0] if P.dimension == 1 else M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    return bool(np.all(np.abs(det) == 1))


def center_of_mass(P: Polytope):
    """(integral of x dmu) / Vol, computed with exact moment quadrature."""
    from .quadrature import standard_scheme, integrate_interior

    Q = standard_scheme(P, degree=2)
    vol = integrate_interior(lambda x: np.ones(x.shape[0]), P, Q)
    com = np.array(
        [integrate_interior(lambda x, i=i: x[:, i], P, Q) for i in range(P.dimension)]
    )
    return com / vol
