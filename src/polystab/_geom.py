"""Small planar-geometry and array helpers shared by quadrature, meshing and
the crease sweep: the one batched half-plane clipper lives here."""
from __future__ import annotations

import numpy as np


def sorted_unique(a):
    """Sorted distinct values of an array, by one sort and a mask.

    np.unique asked for no index outputs imports numpy.ma (about 15 ms) on
    its first call, which every run would pay.
    """
    a = np.sort(np.ravel(a))
    return np.concatenate([a[:1], a[1:][a[1:] != a[:-1]]])


def polygon_area(pts):
    """Signed area of a polygon given as an (m, 2) array (CCW positive).

    A (..., m, 2) batch of polygons gives an array of areas of shape (...).
    """
    x, y = pts[..., 0], pts[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def clip_halfplanes(polys, counts, normal, offset, tol=0.0):
    """Clip a batch of convex polygons to {x : normal.x - offset >= -tol}.

    polys is (B, m, 2): row b holds counts[b] vertices, and the slots after
    the last one repeat it, so the padding edges have zero length.  normal is
    (2,) or (B, 2); offset and tol are scalars or (B,).  Sutherland-Hodgman on
    padded (B, 2m) slots: slot 2i holds vertex i, slot 2i + 1 the crossing of
    edge (i, i + 1), and a stable argsort moves the kept slots to the front in
    order.  Everything is elementwise, so a row gives the same bits alone or
    in a batch, and the two sides of a line, (normal, offset) and (-normal,
    -offset), cut at the same points.  Repeated vertices are kept.  Returns
    (clipped, counts) in the same padded form, max(counts.max(), 3) slots
    wide (a row with no vertex repeats junk).
    """
    B, m = polys.shape[:2]
    normal, offset, tol = (np.asarray(v, dtype=float) for v in (normal, offset, tol))
    g = polys[..., 0] * normal[..., :1] + polys[..., 1] * normal[..., 1:] - offset[..., None]
    gj = np.roll(g, -1, axis=1)
    inside = g >= -tol[..., None]
    cross = inside != np.roll(inside, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(cross, g / (g - gj), 0.0)
    X = polys + t[..., None] * (np.roll(polys, -1, axis=1) - polys)
    slots = np.stack([polys, X], axis=2).reshape(B, 2 * m, 2)
    valid = np.stack([inside & (np.arange(m) < counts[:, None]), cross], axis=2).reshape(B, 2 * m)
    order = np.argsort(~valid, axis=1, kind="stable")
    n = valid.sum(axis=1)
    last = np.minimum(np.arange(max(int(n.max(initial=0)), 3)), np.maximum(n - 1, 0)[:, None])
    pick = np.take_along_axis(order, last, axis=1)
    return np.take_along_axis(slots, pick[..., None], axis=1), n


def fans(polys):
    """Fan triangles (p0, p_k, p_k+1) of a (B, m, 2) padded batch: (B, m - 2, 3, 2).

    Past a row's count the triangles repeat its last vertex and have zero area.
    """
    apex = np.broadcast_to(polys[:, None, :1], (len(polys), polys.shape[1] - 2, 1, 2))
    return np.concatenate([apex, polys[:, 1:-1, None], polys[:, 2:, None]], axis=2)
