"""Boundary-conforming meshes of polygons.

A mesh is a structured grid over the bounding box.  Each vertex is named
by the two lines meeting there, grid lines at a cell corner, a grid line and
a facet at a crossing, two facets at a vertex of P (a crossing within the
clipping tolerance of a corner or a vertex of P takes its key), and gets its
coordinates once, from a (lines, facets) table.  Cells inside P get the "/"
split; cut cells are clipped facet by facet as rows of keys, then fanned.
Vertices are numbered by the first appearance of their keys.  The grid has
ceil(size / h) cells a side (the 9-vertex / 8-triangle unit square at
h = 1/2), plus, given a point, a line of each direction through it unless
a grid line lies within 1e-12 of P's scale, so the point is a vertex,
`point_vertex`, and every spacing stays <= h.  Halving h refines every cell
in place (coarse piecewise-linear functions remain representable) only when
size / h is an integer, the point's lines being in both grids; otherwise the
finer grid is a different one.  An interval has no mesh: the hinges give
its stability constant (`stability.hinge_minimum`), `solver.solve_1d` its
solution.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._geom import clip_halfplanes, fans
from ._records import Frozen
from .errors import MeshTooFine
from .polytope import Polytope

VERTEX_CAP = 200_000


class Mesh(Frozen):
    """Triangulation of a polygon.

    cells are positively oriented index triples; hinges describe the
    convexity stencils, rows (p, q, r, s) per interior edge (p, q) with
    opposite vertices r and s.  boundary_facets maps vertex index -> tuple of
    facet ids it lies on; boundary_edges lists each boundary edge with the
    facet it lies on.  A vertex is named by the two lines that meet there,
    and its facets are read from them.  Arrays derived from the mesh are
    cached on it, read-only; it hashes by identity, so other objects'
    per-mesh caches can key on it.

    vertices (V, 2); cells (M, 3) int; hinges (E, 4); grid_shape (xs, ys)
    the ascending grid lines, for point location; cell_index (nx+2, ny+2, k)
    the ids of the cells cut from each grid square, -1 padded, with a
    one-square halo so neighbour lookups need no bounds checks;
    boundary_edges (B, 3) rows (a, b, facet id) per boundary edge (a, b),
    a < b, sorted; point_vertex the vertex at make_mesh's point.
    """

    def __init__(self, polytope: Polytope, h: float, vertices, cells, hinges,
                 boundary_facets: dict, grid_shape: tuple, cell_index, boundary_edges,
                 point_vertex=None):
        vars(self).update(polytope=polytope, h=h, vertices=vertices, cells=cells, hinges=hinges,
                          boundary_facets=boundary_facets, grid_shape=grid_shape,
                          cell_index=cell_index, boundary_edges=boundary_edges,
                          point_vertex=point_vertex)

    @property
    def dimension(self):
        return self.polytope.dimension

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @cached_property
    def convexity_rows(self):
        """(idx, coef), one row per hinge: sum(coef * u[idx]) >= 0 iff u is convex
        there: u_s - alpha u_p - beta u_q - gamma u_r, with (alpha, beta, gamma)
        the barycentric coordinates of s in triangle (p, q, r)."""
        idx = self.hinges
        vp, vq, vr, vs = (self.vertices[idx[:, k]] for k in range(4))
        e1, e2, rhs = vq - vp, vr - vp, vs - vp
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        beta = (rhs[:, 0] * e2[:, 1] - rhs[:, 1] * e2[:, 0]) / det
        gamma = (-rhs[:, 0] * e1[:, 1] + rhs[:, 1] * e1[:, 0]) / det
        coef = np.column_stack([-(1.0 - beta - gamma), -beta, -gamma, np.ones(len(idx))])
        coef.flags.writeable = False
        return idx, coef

    @cached_property
    def boundary_vertex_weights(self):
        """(V,) weights b with the integral of u dsigma = b . u for PL u (exact)."""
        # each boundary edge puts half its sigma-length on both ends
        a, c, k = self.boundary_edges.T
        w = self.polytope.boundary_weights
        half = 0.5 * np.linalg.norm(self.vertices[c] - self.vertices[a], axis=1) * w[k]
        b = np.bincount(np.column_stack([a, c]).ravel(), weights=np.repeat(half, 2),
                        minlength=self.num_vertices)
        b.flags.writeable = False
        return b

    # -- point location ------------------------------------------------------

    def locate(self, points):
        """Containing cell and barycentric coordinates for each point.

        Returns (cell_ids, bary) with bary shape (m, 3).  Points on the
        boundary resolve to an adjacent cell; points outside get cell -1.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        ids = np.full(m, -1, dtype=int)
        bary = np.zeros((m, 3))
        ix, iy = (np.clip(np.searchsorted(t, pts[:, k], "right") - 1, 0, len(t) - 2) + 1
                  for k, t in enumerate(self.grid_shape))  # + 1: the halo offset
        # first hit in (neighbour square, slot) order; unresolved points stay -1
        todo = np.arange(m)
        for dx, dy in ((0, 0), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)):
            for slot in range(self.cell_index.shape[2]):
                cand = self.cell_index[ix[todo] + dx, iy[todo] + dy, slot]
                sel, cand = todo[cand >= 0], cand[cand >= 0]
                lam = self.barycentric(cand, pts[sel])
                hit = np.all(lam >= -1e-9, axis=1)
                ids[sel[hit]] = cand[hit]
                bary[sel[hit]] = lam[hit]
                todo = todo[ids[todo] < 0]
        return ids, bary

    def barycentric(self, cell_ids, points):
        """(m, 3) barycentric coordinates of points[i] in cell cell_ids[i]."""
        v = self.vertices[self.cells[np.asarray(cell_ids, dtype=int)]]
        pts = np.asarray(points, dtype=float)
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        rhs = pts - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
        l1 = (e2[:, 1] * rhs[:, 0] - e2[:, 0] * rhs[:, 1]) / det
        l2 = (-e1[:, 1] * rhs[:, 0] + e1[:, 0] * rhs[:, 1]) / det
        return np.column_stack([1.0 - l1 - l2, l1, l2])


def _nearest(lines, t):
    """Index of the line of the ascending `lines` nearest each t."""
    k = np.clip(np.searchsorted(lines, t), 1, len(lines) - 1)
    return np.where(t - lines[k - 1] <= lines[k] - t, k - 1, k)


def _through(lines, point, d, tol):
    """(lines, k): the ascending grid lines of axis d with lines[k] at coordinate
    d of the point, inserted unless a line lies within tol; (lines, None) with
    no point."""
    if point is None:
        return lines, None
    k = int(_nearest(lines, point[d]))
    if abs(lines[k] - point[d]) > tol:
        k = int(np.searchsorted(lines, point[d]))
        lines = np.insert(lines, k, point[d])
    return lines, k


def check_mesh_parameter(h: float):
    """ValueError unless the mesh parameter h is finite and positive."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"mesh parameter h must be finite and positive, not {h!r}")


def make_mesh(P: Polytope, h: float, point=None) -> Mesh:
    """Boundary-conforming mesh of the polygon P with grid spacing <= h,
    through `point` if given.  An interval raises ValueError."""
    if P.dimension != 2:
        raise ValueError("make_mesh needs a polygon: on an interval the hinges give lambda "
                         "exactly (hinge_minimum) and solve_1d the solution, with no mesh")
    check_mesh_parameter(h)
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    # the cell counts allow for vertices off by 1e-10 of P._scale (size plus rounding reach)
    shrink = 1.0 - 1e-10 * P._scale / float(np.max(hi - lo))
    stol = 1e-12 * P._scale
    if point is not None and np.any(P.gaps(point) < -stol * np.linalg.norm(P.normals, axis=1)):
        raise ValueError(f"mesh point {np.asarray(point).tolist()} lies outside P")
    (xlo, ylo), (nx, ny) = lo, (int(np.ceil(d / h * shrink)) for d in hi - lo)
    if (nx + 1) * (ny + 1) > VERTEX_CAP:
        raise MeshTooFine(f"{(nx + 1) * (ny + 1)} grid vertices exceed the cap {VERTEX_CAP}")
    sx, sy = (hi[0] - xlo) / nx, (hi[1] - ylo) / ny
    (xs, ip), (ys, jp) = (_through(lines, point, d, stol) for d, lines in
                          enumerate((xlo + sx * np.arange(nx + 1), ylo + sy * np.arange(ny + 1))))
    nx, ny = len(xs) - 1, len(ys) - 1
    n, c, K, F, NC = P.normals, P.offsets, len(P.offsets), nx + ny + 2, (nx + 1) * (ny + 1)
    tol = 1e-12 * P._scale * np.linalg.norm(n, axis=1)

    # keys: corner (i, j) is i (ny + 1) + j; line a meets facet k at key[a, k],
    # first NC + a K + k, for lines x = xs[i] (a = i), y = ys[j] (a = nx + 1 + j)
    # and facets (a = F + k); xy holds every key's coordinates, computed once
    corner = np.arange(NC).reshape(nx + 1, ny + 1)
    gap = xs[:, None, None] * n[:, 0] + ys[:, None] * n[:, 1] - c  # the clipper's sums
    on = np.abs(gap) <= tol                                          # corner on facet
    line = np.concatenate([np.tile([1.0, 0.0], (nx + 1, 1)), np.tile([0.0, 1.0], (ny + 1, 1)), n])
    at = np.concatenate([xs, ys, c])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel lines never meet in a cell
        meet = np.stack([at * n[:, 1] - line[:, 1:] * c, line[:, :1] * c - at * n[:, 0]], -1)
        meet /= (line[:, :1] * n[:, 1] - line[:, 1:] * n[:, 0])[..., None]
    meet[:nx + 1, :, 0], meet[nx + 1:F, :, 1] = xs[:, None], ys[:, None]
    key = NC + np.arange(F + K)[:, None] * K + np.arange(K)
    key[F:] = np.minimum(key[F:], key[F:].T)
    # vertex v of P (facets k1, k2) is a corner on both, and a grid line through v meets both at v
    (k1, k2), (vx, vy) = P.vertex_facets.T, P.vertices.T
    i, j = _nearest(xs, vx), _nearest(ys, vy)
    meet[F + k1, k2] = meet[F + k2, k1] = P.vertices
    pkey = np.where(on[i, j, k1] & on[i, j, k2], corner[i, j], key[F + k1, k2])
    key[F + k1, k2] = key[F + k2, k1] = pkey
    for a, near in ((i, np.abs(xs[i] - vx) <= stol), (nx + 1 + j, np.abs(ys[j] - vy) <= stol)):
        key[a[near], k1[near]] = key[a[near], k2[near]] = pkey[near]
    # a grid line meets a facet at a corner on both
    key[:nx + 1] = np.where(on.any(1), corner[np.arange(nx + 1)[:, None], on.argmax(1)], key[:nx + 1])
    key[nx + 1:F] = np.where(on.any(0), corner[on.argmax(0), np.arange(ny + 1)[:, None]], key[nx + 1:F])
    xy = np.concatenate([np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2),
                         meet.reshape(-1, 2)])

    # grid cells in (i, j) order, corners counter-clockwise from the lower left.
    # A cut cell is clipped by each facet it crosses as a padded row of keys and
    # edge lines: a crossing takes the key where its edge's line meets the facet,
    # and the edge after it runs along the facet if the next vertex crosses too
    gi, gj = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))
    ck = np.stack([corner[gi + di, gj + dj] for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1)
    outside = np.any(gap.reshape(NC, K)[ck] < -tol, axis=1)          # (cells, K)
    cut, w = np.flatnonzero(outside.any(axis=1)), np.flatnonzero(~outside.any(axis=1))
    # edge e from corner e to e + 1 lies on y = ys[j], x = xs[i + 1], y = ys[j + 1], x = xs[i]
    edge = np.column_stack([nx + 1 + gj[cut], gi[cut] + 1, nx + 2 + gj[cut], gi[cut]])
    poly, edge = (np.pad(a, ((0, 0), (0, K)), mode="edge") for a in (ck[cut], edge))
    count = np.full(len(cut), 4)
    for k in np.flatnonzero(outside.any(axis=0)):
        rows = np.flatnonzero(outside[cut, k] & (count >= 3))
        _, count[rows], src = clip_halfplanes(xy[poly[rows]], count[rows], n[k], c[k], tol=tol[k])
        kept, along = (np.take_along_axis(a[rows], src // 2, 1) for a in (poly, edge))
        cross, after = src % 2 == 1, np.arange(1, src.shape[1] + 1)
        exits = cross & np.take_along_axis(cross, np.where(after < count[rows, None], after, 0), 1)
        for a, b in ((poly, np.where(cross, key[along, k], kept)), (edge, np.where(exits, F + k, along))):
            a[rows, :b.shape[1]], a[rows, b.shape[1]:] = b, b[:, -1:]

    # triangles in cell order: a whole cell's "/" split, then a cut one's fan
    # triangles with three distinct keys; vertices numbered by first appearance
    tris = np.concatenate([ck[w][:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3), fans(poly).reshape(-1, 3)])
    tri_cell = np.concatenate([np.repeat(w, 2), np.repeat(cut, poly.shape[1] - 2)])
    distinct = np.all(tris != np.roll(tris, 1, axis=1), axis=1)
    order = np.argsort(tri_cell[distinct], kind="stable")
    tris, tri_cell = tris[distinct][order], tri_cell[distinct][order]
    ukey, first, inv = np.unique(tris.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    vkey, cells, vertices = ukey[order], np.argsort(order)[inv].reshape(-1, 3), xy[ukey[order]]
    slot = np.arange(len(cells)) - np.searchsorted(tri_cell, tri_cell)
    buckets = np.full((nx + 2, ny + 2, slot.max(initial=0) + 1), -1)
    buckets[gi[tri_cell] + 1, gj[tri_cell] + 1, slot] = np.arange(len(cells))

    # orientation fix: make every triangle CCW
    e1, e2 = (vertices[cells[:, k]] - vertices[cells[:, 0]] for k in (1, 2))
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]

    # a vertex lies on the facets among its key's lines, a corner on those near it
    (a, k), eye = np.divmod(vkey - NC, K), np.eye(K + 1, K, dtype=bool)  # eye[K]: no facet
    on = np.where((vkey < NC)[:, None], on.reshape(NC, K)[np.minimum(vkey, NC - 1)],
                  eye[k] | eye[np.where(a >= F, a - F, K)])

    # triangle edges sorted stably by (a, b): an edge of two triangles is a hinge
    # (a, b, opposite in the first, in the second), of one a boundary edge on its ends' facet
    V, nxt = len(vertices), np.roll(cells, -1, axis=1)
    key = (np.minimum(cells, nxt) * V + np.maximum(cells, nxt)).ravel()
    order = np.argsort(key, kind="stable")
    key, opp = key[order], cells[:, [2, 0, 1]].ravel()[order]
    _, run, count = np.unique(key, return_index=True, return_counts=True)
    two, one = run[count == 2], run[count == 1]
    hinges = np.column_stack([key[two] // V, key[two] % V, opp[two], opp[two + 1]])
    ea, eb = key[one] // V, key[one] % V
    bfacets = {v: tuple(np.flatnonzero(on[v]).tolist()) for v in np.flatnonzero(on.any(1)).tolist()}
    at = None if point is None else int(np.flatnonzero(vkey == corner[ip, jp])[0])
    return Mesh(P, h, vertices, cells, hinges, bfacets, grid_shape=(xs, ys), cell_index=buckets,
                boundary_edges=np.column_stack([ea, eb, np.argmax(on[ea] & on[eb], axis=1)]),
                point_vertex=at)
