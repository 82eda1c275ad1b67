"""Boundary-conforming meshes of polytopes.

2D meshes are structured grids over the bounding box.  One gaps call sorts
the grid cells: those inside P get the "/" diagonal split by broadcasting,
and the cells the boundary cuts are clipped facet by facet, each facet in
one `clip_halfplanes` call on the cells with a corner outside it, then
fanned.  Vertices are numbered by the first appearance
of their rounded coordinates, and the hinges, boundary edges and
point-location buckets come from sorted key arrays.  The mesh parameter h is
the grid spacing (maximum edge length in the max-norm), which reproduces the
9-vertex / 8-triangle unit-square mesh at h = 1/2.  Halving h refines every
cell in place, so coarse piecewise-linear functions remain representable.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._geom import clip_halfplanes, fans, polygon_area
from ._records import Frozen
from .errors import MeshTooFine
from .polytope import Polytope

VERTEX_CAP = 200_000


class Mesh(Frozen):
    """Triangulation (1D: partition into segments) of a polytope.

    cells are positively oriented index triples (pairs in 1D); hinges describe
    the convexity stencils: in 1D rows (left, mid, right) per interior vertex,
    in 2D rows (p, q, r, s) per interior edge (p, q) with opposite vertices r
    and s.  boundary_facets maps vertex index -> tuple of facet ids it lies on;
    in 2D, boundary_edges lists each boundary edge with the facet it lies on.
    Arrays derived from the mesh are cached on it, read-only; it hashes by
    identity, so other objects' per-mesh caches can key on it.

    vertices (V, n); cells (M, n+1) int; hinges (E, 3) in 1D, (E, 4) in 2D;
    grid_shape (nx, ny, x0, y0, sx, sy) for 2D point location; cell_index
    (nx+2, ny+2, k) the ids of the cells cut from each grid square, -1 padded,
    with a one-square halo so neighbour lookups need no bounds checks;
    boundary_edges (B, 3) rows (a, b, facet id) per boundary edge (a, b),
    a < b, sorted (2D).
    """

    def __init__(self, polytope: Polytope, h: float, vertices, cells, hinges,
                 boundary_facets: dict, grid_shape: tuple = (), cell_index=None,
                 boundary_edges=None):
        vars(self).update(polytope=polytope, h=h, vertices=vertices, cells=cells, hinges=hinges,
                          boundary_facets=boundary_facets, grid_shape=grid_shape,
                          cell_index=cell_index, boundary_edges=boundary_edges)

    @property
    def dimension(self):
        return self.polytope.dimension

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @cached_property
    def convexity_rows(self):
        """(idx, coef), one row per hinge: sum(coef * u[idx]) >= 0 iff u is convex
        there.  1D: the slope difference at mid; 2D: u_s - alpha u_p - beta u_q
        - gamma u_r, with (alpha, beta, gamma) the barycentric coordinates of s
        in triangle (p, q, r)."""
        idx = self.hinges
        if self.dimension == 1:
            x = self.vertices[idx, 0]
            left, right = 1.0 / (x[:, 1] - x[:, 0]), 1.0 / (x[:, 2] - x[:, 1])
            coef = np.column_stack([left, -(left + right), right])
        else:
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
        w = self.polytope.boundary_weights
        if self.dimension == 1:
            b = np.zeros(self.num_vertices)
            for v, facets in self.boundary_facets.items():
                b[v] = w[list(facets)].sum()
        else:
            # each boundary edge puts half its sigma-length on both ends
            a, c, k = self.boundary_edges.T
            half = 0.5 * np.linalg.norm(self.vertices[c] - self.vertices[a], axis=1) * w[k]
            b = np.bincount(np.column_stack([a, c]).ravel(), weights=np.repeat(half, 2),
                            minlength=self.num_vertices)
        b.flags.writeable = False
        return b

    def nearest_vertex(self, point):
        d = np.linalg.norm(self.vertices - np.asarray(point, dtype=float), axis=1)
        return int(np.argmin(d))

    # -- point location ------------------------------------------------------

    def locate(self, points):
        """Containing cell and barycentric coordinates for each point.

        Returns (cell_ids, bary) with bary shape (m, n+1).  Points on the
        boundary resolve to an adjacent cell; points outside get cell -1.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        ids = np.full(m, -1, dtype=int)
        bary = np.zeros((m, self.dimension + 1))
        if self.dimension == 1:
            xs = self.vertices[:, 0]
            j = np.clip(np.searchsorted(xs, pts[:, 0], side="right") - 1, 0, len(xs) - 2)
            a, b = xs[j], xs[j + 1]
            t = (pts[:, 0] - a) / (b - a)
            inside = (t >= -1e-9) & (t <= 1.0 + 1e-9)
            ids[inside] = j[inside]
            bary[inside, 0] = 1.0 - t[inside]
            bary[inside, 1] = t[inside]
            return ids, bary
        nx, ny, x0, y0, sx, sy = self.grid_shape
        ix = np.clip(((pts[:, 0] - x0) / sx).astype(int), 0, nx - 1) + 1  # halo offset
        iy = np.clip(((pts[:, 1] - y0) / sy).astype(int), 0, ny - 1) + 1
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
        """(m, n+1) barycentric coordinates of points[i] in cell cell_ids[i]."""
        v = self.vertices[self.cells[np.asarray(cell_ids, dtype=int)]]
        pts = np.asarray(points, dtype=float)
        if self.dimension == 1:
            t = (pts[:, 0] - v[:, 0, 0]) / (v[:, 1, 0] - v[:, 0, 0])
            return np.column_stack([1.0 - t, t])
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        rhs = pts - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
        l1 = (e2[:, 1] * rhs[:, 0] - e2[:, 0] * rhs[:, 1]) / det
        l2 = (-e1[:, 1] * rhs[:, 0] + e1[:, 0] * rhs[:, 1]) / det
        return np.column_stack([1.0 - l1 - l2, l1, l2])


def make_mesh(P: Polytope, h: float) -> Mesh:
    """Boundary-conforming mesh with grid spacing <= h; deterministic."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"mesh parameter h must be finite and positive, not {h!r}")
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    size = float(np.max(hi - lo))
    # coordinates carry rounding of their own magnitude (a few ulps are
    # 1e-15 max|x|), so the slack in the cell counts, the clipping tolerance
    # and the merge digits follow that as well as the size of P
    scale = max(size, 1e-3 * float(np.max(np.abs(P.vertices))))
    shrink = 1.0 - 1e-12 * scale / size
    if P.dimension == 1:
        ncell = int(np.ceil(size / h * shrink))
        if ncell + 1 > VERTEX_CAP:
            raise MeshTooFine(f"{ncell + 1} vertices exceed the cap {VERTEX_CAP}")
        xs = np.linspace(lo[0], hi[0], ncell + 1)
        vertices = xs[:, None]
        cells = np.column_stack([np.arange(ncell), np.arange(1, ncell + 1)])
        hinges = np.column_stack([np.arange(ncell - 1), np.arange(1, ncell), np.arange(2, ncell + 1)])
        bfacets = {0: (int(np.argmin(np.abs(P.gaps(vertices[0])))),),
                   ncell: (int(np.argmin(np.abs(P.gaps(vertices[-1])))),)}
        return Mesh(P, h, vertices, cells, hinges, bfacets)

    (xlo, ylo), (xhi, yhi) = lo, hi
    nx = int(np.ceil((xhi - xlo) / h * shrink))
    ny = int(np.ceil((yhi - ylo) / h * shrink))
    if (nx + 1) * (ny + 1) > VERTEX_CAP:
        raise MeshTooFine(f"{(nx + 1) * (ny + 1)} grid vertices exceed the cap {VERTEX_CAP}")
    sx = (xhi - xlo) / nx
    sy = (yhi - ylo) / ny
    xs = xlo + sx * np.arange(nx + 1)
    ys = ylo + sy * np.arange(ny + 1)
    area_tol = 1e-13 * sx * sy
    scale_tol = 1e-12 * scale
    norm_h = np.linalg.norm(P.normals, axis=1)

    # grid cells in (i, j) order, corners counter-clockwise from the lower left;
    # only the cells the boundary cuts are clipped
    gi, gj = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))
    corners = np.stack([np.column_stack([xs[gi + di], ys[gj + dj]])
                        for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1)
    g = P.gaps(corners.reshape(-1, 2)).reshape(len(corners), 4, -1)
    outside = np.any(g < -scale_tol * norm_h, axis=1)                 # (cells, K)
    whole = ~outside.any(axis=1)
    cut = np.flatnonzero(~whole)
    poly, count = corners[cut], np.full(len(cut), 4)
    for k in np.flatnonzero(outside.any(axis=0)):  # no other facet can clip a cell
        rows = np.flatnonzero(outside[cut, k] & (count >= 3))
        clipped, count[rows] = clip_halfplanes(poly[rows], count[rows], P.normals[k],
                                               P.offsets[k], tol=scale_tol * norm_h[k])
        width = clipped.shape[1]
        if width > poly.shape[1]:  # widen every row by repeating its last slot
            poly = np.concatenate([poly, np.repeat(poly[:, -1:], width - poly.shape[1], 1)], 1)
        poly[rows, :width], poly[rows, width:] = clipped, clipped[:, -1:]
    keep = (count >= 3) & (np.abs(polygon_area(poly)) > area_tol)
    # a cut within 1e-8 of the size of P still leaves the whole cell
    near = (count == 4) & np.all(np.abs(poly[:, :4] - corners[cut]) <= 1e-8 * size, axis=(1, 2))
    whole[cut[keep & near]] = True
    cut_tris = fans(poly[keep & ~near])  # clipping keeps the cells' counter-clockwise order
    nonzero = np.abs(polygon_area(cut_tris)) > area_tol
    cut_tris, cut_cell = cut_tris[nonzero], cut[keep & ~near][np.nonzero(nonzero)[0]]

    # triangles in cell order: a whole cell's "/" split, then the kept fan
    # triangles of a cut one; vertices are numbered by the first appearance
    # of their rounded coordinates in that order
    w = np.flatnonzero(whole)
    tris = np.concatenate([corners[w][:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 2), cut_tris])
    tri_cell = np.concatenate([np.repeat(w, 2), cut_cell])
    order = np.argsort(tri_cell, kind="stable")
    tri_cell = tri_cell[order]
    keys = np.round(tris[order].reshape(-1, 2), 12 - int(np.floor(np.log10(scale))))
    _, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vertices = keys[first[order]]
    cells = np.argsort(order)[inv.ravel()].reshape(-1, 3)
    ok = np.all(cells != np.roll(cells, 1, axis=1), axis=1)
    cells, tri_cell = cells[ok], tri_cell[ok]
    slot = np.arange(len(cells)) - np.searchsorted(tri_cell, tri_cell)
    buckets = np.full((nx + 2, ny + 2, slot.max(initial=0) + 1), -1)
    buckets[gi[tri_cell] + 1, gj[tri_cell] + 1, slot] = np.arange(len(cells))

    # orientation fix: make every triangle CCW
    v = vertices[cells]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    cells[flip] = cells[flip][:, [0, 2, 1]]

    # edges (c0, c1), (c1, c2), (c2, c0) of every triangle, sorted by (a, b)
    # with triangle order kept among equal edges: an edge of two triangles is a
    # hinge (a, b, opposite in the first, opposite in the second), an edge of
    # one a boundary edge, on the facet nearest its midpoint
    V = len(vertices)
    nxt = np.roll(cells, -1, axis=1)
    key = (np.minimum(cells, nxt) * V + np.maximum(cells, nxt)).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    opp = cells[:, [2, 0, 1]].ravel()[order]
    run = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[run, len(key)])
    two, one = run[count == 2], run[count == 1]
    hinges = np.column_stack([key[two] // V, key[two] % V, opp[two], opp[two + 1]])
    ea, eb = key[one] // V, key[one] % V
    mid = 0.5 * (vertices[ea] + vertices[eb])
    facet = np.argmin(np.abs(P.gaps(mid)) * P.boundary_weights, axis=1)

    # boundary vertices and their facets
    bv, bk = np.nonzero(np.abs(P.gaps(vertices)) <= 1e-9 * size * norm_h)
    bfacets = {}
    for v, k in zip(bv.tolist(), bk.tolist()):
        bfacets[v] = bfacets.get(v, ()) + (k,)

    return Mesh(P, h, vertices, cells, hinges, bfacets,
                grid_shape=(nx, ny, xlo, ylo, sx, sy), cell_index=buckets,
                boundary_edges=np.column_stack([ea, eb, facet]))

