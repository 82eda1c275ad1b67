"""Discrete Hessian surrogate for mesh functions.

Piecewise-linear interpolants have distributional Hessians, so second
derivatives come from two linear maps, applied in turn and never multiplied
out: least-squares quadric fits over each vertex star (the vertex and its
1-ring) give per-vertex Hessians, which are then interpolated linearly inside
each cell.  Both maps are linear in the vertex values, so gradients and
Hessians of log-det terms follow in closed form from their transposes.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh


class HessianSurrogate:
    """Per-vertex quadric fits and the point operators built on them."""

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

        # fit of v: star_idx[v] (S,) and star_op[v] (ncomp, S), S = 1 + the
        # largest ring; shorter stars are padded with v and coefficient 0
        S = 1 + max(len(r) for r in rings)
        self.star_idx = np.repeat(np.arange(V)[:, None], S, axis=1)
        self.star_op = np.zeros((V, self.ncomp, S))
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
            self.star_idx[v, :len(star)] = star
            self.star_op[v, :, :len(star)] = rows / s**2
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

    def point_operator(self, points, cells=None):
        """PointOperator: vertex values -> Hessian components at given points.

        Per-vertex fits are interpolated with the barycentric weights of the
        containing cell (cells[i] when given, e.g. a mesh-graded scheme's
        interior_cells; else Mesh.locate).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if cells is None:
            ids, bary = self.mesh.locate(pts)
        else:
            ids, bary = np.asarray(cells, dtype=int), self.mesh.barycentric(cells, pts)
        if np.any(ids < 0):
            raise ValueError("point outside mesh in Hessian assembly")
        return PointOperator(self, np.ascontiguousarray(self.mesh.cells[ids].T),
                             np.ascontiguousarray(bary.T))

    def reads(self, columns):
        """(V,) bool: whether each vertex's fit stores a coefficient on `columns`.

        A point Hessian is interpolated from the fits at its cell's vertices,
        so it depends on the values at `columns` only through such vertices.
        """
        return np.isin(self.star_idx, columns).any(axis=1)


class PointOperator:
    """(ncomp*m, V) map: per-vertex fits, then interpolation at m points.

    tri, bary: (n+1, m) cell vertices and barycentric weights of the points.
    """

    def __init__(self, surrogate: HessianSurrogate, tri, bary):
        self.surrogate = surrogate
        self.tri = tri
        self.bary = bary
        self.shape = (surrogate.ncomp * tri.shape[1], surrogate.mesh.num_vertices)

    def __matmul__(self, values):
        """(ncomp, m) Hessian components of the (V,) vertex values."""
        sur = self.surrogate
        fits = np.einsum("vks,vs->kv", sur.star_op, values[sur.star_idx])
        return sum(b * fits.take(t, axis=1) for t, b in zip(self.tri, self.bary))

    def rmatvec(self, z):
        """(V,) transpose applied to (ncomp, m) components z."""
        sur = self.surrogate
        k, V = sur.ncomp, self.shape[1]
        # interpolation transposed: scatter each point's share onto its vertices' fits
        slot = np.arange(k)[:, None, None] * V + self.tri
        fit_z = np.bincount(slot.ravel(), weights=(z[:, None, :] * self.bary).ravel(),
                            minlength=k * V).reshape(k, V)
        # fits transposed: scatter each fit's coefficients onto its star
        star = np.broadcast_to(sur.star_idx[:, None, :], sur.star_op.shape)
        return np.bincount(star.ravel(), weights=(sur.star_op * fit_z.T[:, :, None]).ravel(),
                           minlength=V)

    def gram(self, K, cols):
        """Dense (c, c) matrix op^T K op on the vertex columns `cols`.

        K: (m, ncomp, ncomp), one block per point.
        """
        sur = self.surrogate
        k, V = sur.ncomp, self.shape[1]
        # sum b_i b_j K over the points for each (ordered) pair of cell vertices
        ends = len(self.tri)
        ia, ib = np.repeat(np.arange(ends), ends), np.tile(np.arange(ends), ends)
        pairs, slot = np.unique((self.tri[ia] * V + self.tri[ib]).ravel(), return_inverse=True)
        bb = self.bary[ia] * self.bary[ib]
        block = np.stack([np.bincount(slot, weights=(bb * K[:, e // k, e % k]).ravel(),
                                      minlength=len(pairs))
                          for e in range(k * k)], axis=1).reshape(-1, k, k)
        # map each pair's block through the two vertices' fits
        pa, pb = pairs // V, pairs % V
        full = np.einsum("pks,pkl,plr->psr", sur.star_op[pa], block, sur.star_op[pb])
        # scatter onto the columns; fixed vertices map to -1 and drop out
        pos = np.full(V, -1)
        pos[cols] = np.arange(len(cols))
        r = pos[sur.star_idx[pa]][:, :, None]
        c = pos[sur.star_idx[pb]][:, None, :]
        keep = (r >= 0) & (c >= 0)
        n = len(cols)
        flat = np.broadcast_to(r * n + c, full.shape)[keep]
        return np.bincount(flat, weights=full[keep], minlength=n * n).reshape(n, n)


def components_to_matrices(comp, n):
    """(ncomp, m) Hessian components -> (m, n, n) symmetric matrices."""
    order = [0] if n == 1 else [0, 1, 1, 2]  # xx, or xx, xy, yx, yy
    return comp[order].T.reshape(-1, n, n)
