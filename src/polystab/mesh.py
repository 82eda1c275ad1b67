"""Boundary-conforming meshes of polytopes.

2D meshes are structured grids over the bounding box, clipped cell-by-cell
against the facet half-planes; interior cells get the "/" diagonal split.  The
mesh parameter h is the grid spacing (maximum edge length in the max-norm),
which reproduces the 9-vertex / 8-triangle unit-square mesh at h = 1/2.
Halving h refines every cell in place, so coarse piecewise-linear functions
remain representable on the refined mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._geom import clip_polygon_halfplane, fan_triangles, polygon_area
from .errors import MeshTooFine
from .polytope import Polytope

VERTEX_CAP = 200_000


@dataclass(frozen=True)
class Mesh:
    """Triangulation (1D: partition into segments) of a polytope.

    cells are positively oriented index triples (pairs in 1D); hinges describe
    the convexity stencils: in 1D rows (left, mid, right) per interior vertex,
    in 2D rows (p, q, r, s) per interior edge (p, q) with opposite vertices r
    and s.  boundary_facets maps vertex index -> tuple of facet ids it lies on.
    """

    polytope: Polytope
    h: float
    vertices: np.ndarray          # (V, n)
    cells: np.ndarray             # (M, n+1) int
    hinges: np.ndarray            # (E, 3) in 1D, (E, 4) in 2D
    boundary_facets: dict = field(repr=False)
    grid_shape: tuple = ()        # (nx, ny, x0, y0, sx, sy) for 2D point location
    # (nx+2, ny+2, k): ids of the cells cut from each grid square, -1 padded,
    # with a one-square halo so neighbour lookups need no bounds checks
    cell_index: np.ndarray = field(default=None, repr=False)

    @property
    def dimension(self):
        return self.polytope.dimension

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

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

    def boundary_edges(self):
        """(edge vertex pair, facet id) for every boundary edge (2D only)."""
        count = {}
        for tri in self.cells:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                count[key] = count.get(key, 0) + 1
        out = []
        P = self.polytope
        for (a, b), c in sorted(count.items()):
            if c != 1:
                continue
            mid = 0.5 * (self.vertices[a] + self.vertices[b])
            g = np.abs(P.gaps(mid)) * P.boundary_weights
            out.append(((a, b), int(np.argmin(g))))
        return out


def _round_key(p, digits):
    return (round(float(p[0]), digits), round(float(p[1]), digits))


def make_mesh(P: Polytope, h: float) -> Mesh:
    """Boundary-conforming mesh with grid spacing <= h; deterministic."""
    if h <= 0:
        raise ValueError("mesh parameter h must be positive")
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        ncell = int(np.ceil((hi - lo) / h - 1e-12))
        if ncell + 1 > VERTEX_CAP:
            raise MeshTooFine(f"{ncell + 1} vertices exceed the cap {VERTEX_CAP}")
        xs = np.linspace(lo, hi, ncell + 1)
        vertices = xs[:, None]
        cells = np.column_stack([np.arange(ncell), np.arange(1, ncell + 1)])
        hinges = np.column_stack([np.arange(ncell - 1), np.arange(1, ncell), np.arange(2, ncell + 1)])
        bfacets = {0: (int(np.argmin(np.abs(P.gaps(vertices[0])))),),
                   ncell: (int(np.argmin(np.abs(P.gaps(vertices[-1])))),)}
        return Mesh(P, h, vertices, cells, hinges, bfacets)

    xlo, ylo = P.vertices.min(axis=0)
    xhi, yhi = P.vertices.max(axis=0)
    nx = int(np.ceil((xhi - xlo) / h - 1e-12))
    ny = int(np.ceil((yhi - ylo) / h - 1e-12))
    if (nx + 1) * (ny + 1) > VERTEX_CAP:
        raise MeshTooFine(f"{(nx + 1) * (ny + 1)} grid vertices exceed the cap {VERTEX_CAP}")
    sx = (xhi - xlo) / nx
    sy = (yhi - ylo) / ny
    xs = xlo + sx * np.arange(nx + 1)
    ys = ylo + sy * np.arange(ny + 1)

    verts: list[np.ndarray] = []
    vmap: dict = {}
    tris: list[tuple] = []
    cell_index: dict = {}

    # vertices merge at 12 decimals of the size of P (its power of ten)
    size = max(xhi - xlo, yhi - ylo)
    digits = 12 - int(np.floor(np.log10(size)))

    def vid(p):
        key = _round_key(p, digits)
        if key not in vmap:
            vmap[key] = len(verts)
            verts.append(np.array([key[0], key[1]]))
        return vmap[key]

    area_tol = 1e-13 * sx * sy
    scale_tol = 1e-12 * size
    for i in range(nx):
        for j in range(ny):
            cell = np.array([[xs[i], ys[j]], [xs[i + 1], ys[j]],
                             [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]]])
            g = P.gaps(cell)
            if np.all(g >= -scale_tol * np.linalg.norm(P.normals, axis=1)):
                poly = cell
            else:
                poly = cell
                for k in range(P.num_facets):
                    poly = clip_polygon_halfplane(poly, P.normals[k], P.offsets[k],
                                                  tol=scale_tol * np.linalg.norm(P.normals[k]))
                    if len(poly) < 3:
                        break
                if len(poly) < 3 or abs(polygon_area(poly)) <= area_tol:
                    continue
            if polygon_area(poly) < 0:
                poly = poly[::-1]
            if len(poly) == 4 and np.allclose(poly, cell):
                ll, lr, ur, ul = (vid(p) for p in cell)
                new = [(ll, lr, ur), (ll, ur, ul)]
            else:
                new = []
                for tri in fan_triangles(poly):
                    if abs(polygon_area(tri)) <= area_tol:
                        continue
                    ids = tuple(vid(p) for p in tri)
                    if len(set(ids)) == 3:
                        new.append(ids)
            base = len(tris)
            tris.extend(new)
            if new:
                cell_index[(i, j)] = tuple(range(base, base + len(new)))

    vertices = np.array(verts)
    cells = np.array(tris, dtype=int)
    buckets = np.full((nx + 2, ny + 2, max(map(len, cell_index.values()), default=1)), -1)
    for (i, j), ts in cell_index.items():
        buckets[i + 1, j + 1, :len(ts)] = ts

    # orientation fix: make every triangle CCW
    v0, v1, v2 = vertices[cells[:, 0]], vertices[cells[:, 1]], vertices[cells[:, 2]]
    e1, e2 = v1 - v0, v2 - v0
    sgn = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flip = sgn < 0
    cells[flip, 1], cells[flip, 2] = cells[flip, 2].copy(), cells[flip, 1].copy()

    # interior-edge adjacency
    edge_tris: dict = {}
    for t, tri in enumerate(cells):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_tris.setdefault((min(a, b), max(a, b)), []).append(t)
    hinge_rows = []
    for (a, b), ts in sorted(edge_tris.items()):
        if len(ts) != 2:
            continue
        opp = []
        for t in ts:
            tri = set(cells[t])
            opp.append((tri - {a, b}).pop())
        hinge_rows.append((a, b, opp[0], opp[1]))
    hinges = np.array(hinge_rows, dtype=int) if hinge_rows else np.zeros((0, 4), dtype=int)

    # boundary vertices and their facets
    norm_h = np.linalg.norm(P.normals, axis=1)
    gv = P.gaps(vertices)
    bfacets = {}
    for v in range(len(vertices)):
        on = np.where(np.abs(gv[v]) <= 1e-9 * size * norm_h)[0]
        if on.size:
            bfacets[v] = tuple(int(k) for k in on)

    return Mesh(P, h, vertices, cells, hinges, bfacets,
                grid_shape=(nx, ny, xlo, ylo, sx, sy), cell_index=buckets)


def midpoint_integral(f, mesh: Mesh) -> float:
    """Composite midpoint (centroid) rule over mesh cells; O(h^2) on smooth f."""
    v = mesh.vertices[mesh.cells]
    centroids = v.mean(axis=1)
    if mesh.dimension == 1:
        meas = np.abs(v[:, 1, 0] - v[:, 0, 0])
    else:
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        meas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return float(np.dot(meas, np.asarray(f(centroids), dtype=float)))
