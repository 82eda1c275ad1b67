"""Discrete Hessian surrogate for mesh functions.

Piecewise-linear interpolants have distributional Hessians, so second
derivatives are recovered by least-squares quadric fits over vertex stars
(the vertex and its 1-ring); the per-vertex Hessians are then interpolated
linearly inside each cell.  The fit is a linear map of vertex values, which
makes functional gradients of log-det terms available in closed form.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh


class HessianSurrogate:
    """Per-vertex quadric-fit Hessians and their linear assembly operators."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        n = mesh.dimension
        self.ncomp = 1 if n == 1 else 3  # (xx,) or (xx, xy, yy)
        V = mesh.num_vertices

        rings: list[set] = [set() for _ in range(V)]
        for cell in mesh.cells:
            for a in cell:
                for b in cell:
                    if a != b:
                        rings[a].add(int(b))

        self.star_idx: list[np.ndarray] = [None] * V
        self.star_op: list[np.ndarray] = [None] * V  # (ncomp, len(star)) row maps
        need = 3 if n == 1 else 6
        valid = np.zeros(V, dtype=bool)
        for v in range(V):
            star = np.array([v] + sorted(rings[v]), dtype=int)
            if len(star) < need:
                continue
            dx = mesh.vertices[star] - mesh.vertices[v]
            s = max(float(np.max(np.abs(dx))), 1e-300)
            dxs = dx / s
            if n == 1:
                B = np.column_stack([np.ones(len(star)), dxs[:, 0], 0.5 * dxs[:, 0] ** 2])
            else:
                B = np.column_stack([
                    np.ones(len(star)), dxs[:, 0], dxs[:, 1],
                    0.5 * dxs[:, 0] ** 2, dxs[:, 0] * dxs[:, 1], 0.5 * dxs[:, 1] ** 2,
                ])
            G = np.linalg.pinv(B, rcond=1e-10)
            rows = G[2:3] if n == 1 else G[3:6]
            self.star_idx[v] = star
            self.star_op[v] = rows / s**2
            valid[v] = True

        # vertices with deficient stars borrow the nearest valid fit
        if not np.all(valid):
            vv = np.where(valid)[0]
            if len(vv) == 0:
                raise ValueError("mesh too coarse for quadric fits")
            for v in np.where(~valid)[0]:
                d = np.linalg.norm(mesh.vertices[vv] - mesh.vertices[v], axis=1)
                donor = int(vv[np.argmin(d)])
                self.star_idx[v] = self.star_idx[donor]
                self.star_op[v] = self.star_op[donor]

        self._vertex_matrix = self._build_vertex_matrix()

    def _build_vertex_matrix(self):
        """Sparse (ncomp*V, V): values -> stacked per-vertex Hessian components."""
        from scipy import sparse

        V = self.mesh.num_vertices
        rows, cols, data = [], [], []
        for v in range(V):
            idx = self.star_idx[v]
            op = self.star_op[v]
            for c in range(self.ncomp):
                rows.extend([self.ncomp * v + c] * len(idx))
                cols.extend(idx.tolist())
                data.extend(op[c].tolist())
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.ncomp * V, V))

    def point_operator(self, points, cells=None):
        """Sparse (ncomp*m, V): values -> Hessian components at given points.

        Per-vertex fits are interpolated with the barycentric weights of the
        containing cell (cells[i] when given, e.g. a mesh-graded scheme's
        interior_cells; else Mesh.locate); built as (interpolation) @ (vertex
        fits) so assembly stays vectorized.
        """
        from scipy import sparse

        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if cells is None:
            ids, bary = self.mesh.locate(pts)
        else:
            ids, bary = np.asarray(cells, dtype=int), self.mesh.barycentric(cells, pts)
        if np.any(ids < 0):
            raise ValueError("point outside mesh in Hessian assembly")
        m = pts.shape[0]
        k = self.ncomp
        tri = self.mesh.cells[ids]  # (m, nloc)
        nloc = tri.shape[1]
        comp = np.arange(k)
        rows = (np.arange(m)[:, None, None] * k + comp[None, None, :])
        rows = np.broadcast_to(rows, (m, nloc, k)).ravel()
        cols = (tri[:, :, None] * k + comp[None, None, :]).ravel()
        vals = np.broadcast_to(bary[:, :, None], (m, nloc, k)).ravel()
        interp = sparse.coo_matrix(
            (vals, (rows, cols)),
            shape=(k * m, k * self.mesh.num_vertices)).tocsr()
        return interp @ self._vertex_matrix

    def reads(self, columns):
        """(V,) bool: whether each vertex's fit stores a coefficient on `columns`.

        A point Hessian is interpolated from the fits at its cell's vertices,
        so it depends on the values at `columns` only through such vertices.
        """
        stored = np.diff(self._vertex_matrix[:, columns].indptr)
        return stored.reshape(-1, self.ncomp).any(axis=1)


def components_to_matrices(comp, n):
    """Stacked (ncomp*m,) component vector -> (m, n, n) symmetric matrices."""
    if n == 1:
        c = comp.reshape(-1, 1)
        return c[:, :, None]
    c = comp.reshape(-1, 3)
    H = np.empty((c.shape[0], 2, 2))
    H[:, 0, 0] = c[:, 0]
    H[:, 0, 1] = H[:, 1, 0] = c[:, 1]
    H[:, 1, 1] = c[:, 2]
    return H
