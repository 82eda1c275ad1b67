"""Small planar-geometry and array helpers shared by quadrature and meshing."""
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


def clip_polygon_halfplane(pts, normal, offset, tol=0.0):
    """Clip a convex polygon to {x : normal.x - offset >= -tol} (Sutherland-Hodgman).

    Returns an (m, 2) array, possibly empty.  Intersection points are computed
    from the same edge data on both sides of a shared edge, so adjacent cells
    clipped against the same line produce bit-identical points.
    """
    out = []
    m = len(pts)
    if m == 0:
        return np.zeros((0, 2))
    g = pts @ np.asarray(normal, dtype=float) - offset
    for i in range(m):
        j = (i + 1) % m
        gi, gj = g[i], g[j]
        if gi >= -tol:
            out.append(pts[i])
        if (gi >= -tol) != (gj >= -tol):
            t = gi / (gi - gj)
            out.append(pts[i] + t * (pts[j] - pts[i]))
    if not out:
        return np.zeros((0, 2))
    res = [out[0]]
    for p in out[1:]:
        if np.max(np.abs(p - res[-1])) > 1e-14:
            res.append(p)
    if len(res) > 1 and np.max(np.abs(res[0] - res[-1])) <= 1e-14:
        res.pop()
    return np.array(res)


def fan_triangles(pts):
    """Fan triangulation of a convex polygon; yields (3, 2) vertex arrays."""
    for i in range(1, len(pts) - 1):
        yield np.array([pts[0], pts[i], pts[i + 1]])
