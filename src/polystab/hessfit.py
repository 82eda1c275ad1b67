"""Discrete Hessian surrogate for functions on a polygon's mesh.

Piecewise-linear interpolants have distributional Hessians, so second
derivatives come from two linear maps, applied in turn and never multiplied
out: least-squares quadric fits over each vertex star (the vertex and its
1-ring) give per-vertex Hessians, which are then interpolated linearly inside
each cell.  The rings come from the cell array, and the stars of one size
share one stacked pseudo-inverse.  Both maps are linear in the vertex values, so gradients and
Hessians of log-det terms follow in closed form from their transposes.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._geom import sorted_unique
from .mesh import Mesh


class HessianSurrogate:
    """Per-vertex quadric fits and the point operators built on them."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.ncomp = 3  # (xx, xy, yy)
        V = mesh.num_vertices

        # rings: every ordered pair of distinct vertices of a cell, once,
        # sorted by vertex and then by neighbour
        c = mesh.cells
        pair = (np.repeat(c, c.shape[1], axis=1) * V + np.tile(c, c.shape[1])).ravel()
        pair = sorted_unique(pair[pair // V != pair % V])
        nbr = pair % V
        deg = np.bincount(pair // V, minlength=V)
        start = np.cumsum(deg) - deg

        # fit of v: star_idx[v] (S,) and star_op[v] (ncomp, S) over the star
        # [v] + ring, S = 1 + the largest ring; shorter stars are padded with v
        # and coefficient 0.  Stars of one size share one stacked pinv.
        S = 1 + deg.max()
        self.star_idx = np.repeat(np.arange(V)[:, None], S, axis=1)
        self.star_op = np.zeros((V, self.ncomp, S))
        valid = deg + 1 >= 6
        if not valid.any():
            raise ValueError("mesh too coarse for quadric fits")
        for d in sorted_unique(deg[valid]):
            vs = np.flatnonzero(valid & (deg == d))
            star = np.column_stack([vs, nbr[start[vs, None] + np.arange(d)]])
            dx = mesh.vertices[star] - mesh.vertices[vs, None]
            s = np.maximum(np.max(np.abs(dx), axis=(1, 2)), 1e-300)[:, None, None]
            x, one = dx / s, np.ones(star.shape)
            x, y = x[..., 0], x[..., 1]
            B = np.stack([one, x, y, 0.5 * x ** 2, x * y, 0.5 * y ** 2], axis=-1)
            self.star_idx[vs, :d + 1] = star
            self.star_op[vs, :, :d + 1] = np.linalg.pinv(B, rcond=1e-10)[:, -self.ncomp:] / s**2

        # vertices with deficient stars borrow the nearest valid fit
        bad, vv = np.flatnonzero(~valid), np.flatnonzero(valid)
        d = np.linalg.norm(mesh.vertices[vv] - mesh.vertices[bad, None], axis=-1)
        donor = vv[np.argmin(d, axis=1)]
        self.star_idx[bad] = self.star_idx[donor]
        self.star_op[bad] = self.star_op[donor]

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
        return PointOperator(self, ids, np.ascontiguousarray(bary.T))

    def reads(self, columns):
        """(V,) bool: whether each vertex's fit stores a coefficient on `columns`.

        A point Hessian is interpolated from the fits at its cell's vertices,
        so it depends on the values at `columns` only through such vertices.
        """
        return np.isin(self.star_idx, columns).any(axis=1)


class PointOperator:
    """(ncomp*m, V) map: per-vertex fits, then interpolation at m points.

    cells: (m,) the points' mesh cells; bary: (3, m) their barycentric
    weights; tri: (3, m) the cells' vertices.
    """

    def __init__(self, surrogate: HessianSurrogate, cells, bary):
        self.surrogate = surrogate
        self.cells = cells
        self.tri = np.ascontiguousarray(surrogate.mesh.cells[cells].T)
        self.bary = bary
        self.shape = (surrogate.ncomp * len(cells), surrogate.mesh.num_vertices)
        self._scatter_hit = None

    def __matmul__(self, values):
        """(ncomp, m) Hessian components of the (V,) vertex values."""
        sur = self.surrogate
        fits = np.einsum("vks,vs->kv", sur.star_op, values[sur.star_idx])
        return sum(b * fits.take(t, axis=1) for t, b in zip(self.tri, self.bary))

    def rmatvec(self, z):
        """(V,) transpose applied to (ncomp, m) components z."""
        sur = self.surrogate
        V = self.shape[1]
        # interpolation transposed: scatter each point's share onto its
        # vertices' fits, one component and one cell vertex at a time
        fit_z = np.stack([sum(np.bincount(t, weights=zc * b, minlength=V)
                              for t, b in zip(self.tri, self.bary)) for zc in z])
        # fits transposed: scatter each fit's coefficients onto its star
        star = np.broadcast_to(sur.star_idx[:, None, :], sur.star_op.shape)
        return np.bincount(star.ravel(), weights=(sur.star_op * fit_z.T[:, :, None]).ravel(),
                           minlength=V)

    def gram(self, entries, cols):
        """Dense (c, c) matrix op^T K op on the vertex columns `cols`.

        K is one symmetric (ncomp, ncomp) block per point, given as its
        distinct entries K[r, c], r <= c, in np.triu_indices order: an
        iterable of (m,) columns, read one at a time.  Everything but K's
        entries is built on the first call (and again when `cols` changes).
        """
        sur = self.surrogate
        k = sur.ncomp
        inv, bb, slot, pa, pb = self._pairs
        keep, flat = self._scatter(cols)
        # sum b_i b_j K[r, c] per cell and pair of its vertices, then per pair
        block = np.empty((len(pa), k, k))
        for r, c, col in zip(*np.triu_indices(k), entries):
            per_cell = [np.bincount(inv, weights=b * col, minlength=slot.shape[1]) for b in bb]
            block[:, r, c] = block[:, c, r] = np.bincount(
                slot.ravel(), weights=np.concatenate(per_cell), minlength=len(pa))
        # map each pair's block through the two vertices' fits: fit_a^T K fit_b
        full = np.matmul(sur.star_op[pa].transpose(0, 2, 1), np.matmul(block, sur.star_op[pb]))
        n = len(cols)
        half = np.bincount(flat, weights=full[keep], minlength=n * n).reshape(n, n)
        return half + half.T

    @cached_property
    def _pairs(self):
        """(inv, bb, slot, pa, pb): the unordered pairs (pa, pb) of cell
        vertices, the pair slots of each cell the points lie in, each point's
        index among those cells, and the point weights b_i b_j of the cell's
        vertex pairs (diagonal pairs halved, since K and op^T K op are
        symmetric and gram mirrors half)."""
        V = self.shape[1]
        cells, inv = np.unique(self.cells, return_inverse=True)
        tri = self.surrogate.mesh.cells[cells].T
        ia, ib = np.triu_indices(len(tri))
        ta, tb = tri[ia], tri[ib]
        pairs, slot = np.unique((np.minimum(ta, tb) * V + np.maximum(ta, tb)).ravel(),
                                return_inverse=True)
        bb = self.bary[ia] * self.bary[ib] * np.where(ia == ib, 0.5, 1.0)[:, None]
        return inv.ravel(), bb, slot.reshape(ta.shape), pairs // V, pairs % V

    def _scatter(self, cols):
        """(keep, flat): which entries of the per-pair star blocks land on
        `cols`, and their flat index in the (c, c) matrix; fixed vertices
        map to -1 and drop out.  Cached for the last `cols` seen."""
        hit = self._scatter_hit
        if hit is not None and np.array_equal(hit[0], cols):
            return hit[1]
        sur = self.surrogate
        *_, pa, pb = self._pairs
        pos = np.full(self.shape[1], -1)
        pos[cols] = np.arange(len(cols))
        r = pos[sur.star_idx[pa]][:, :, None]
        c = pos[sur.star_idx[pb]][:, None, :]
        keep = (r >= 0) & (c >= 0)
        out = keep, (r * len(cols) + c)[keep]
        self._scatter_hit = (np.array(cols, copy=True), out)
        return out
