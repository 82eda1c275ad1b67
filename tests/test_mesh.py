import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polystab._geom import clip_halfplanes, fans, polygon_area
from polystab.convex import random_normalized_mesh_function
from polystab.errors import MeshTooFine
from polystab.functionals import extremal_affine
from polystab.hessfit import HessianSurrogate
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, center_of_mass, interval, standard_simplex, unit_square
from polystab.stability import StabilityLP, lp_stability_estimate

from test_stability import _hull, _lattice_polygon, lattice_points

PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]


def test_interval_mesh():
    m = make_mesh(interval(), 0.25)
    assert m.num_vertices == 5
    assert np.allclose(m.vertices.ravel(), [0, 0.25, 0.5, 0.75, 1.0])
    assert len(m.hinges) == 3
    assert set(m.boundary_facets) == {0, 4}


def test_square_mesh_h_half():
    m = make_mesh(unit_square(), 0.5)
    assert m.num_vertices == 9
    assert len(m.cells) == 8


def test_simplex_mesh_clipped_inside():
    P = standard_simplex()
    m = make_mesh(P, 0.5)
    centroids = m.vertices[m.cells].mean(axis=1)
    assert np.all(P.gaps(centroids) > 0)
    v = m.vertices[m.cells]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0)  # positively oriented
    assert float(np.sum(areas)) == pytest.approx(0.5, rel=1e-12)


def test_interior_edges_have_two_triangles():
    m = make_mesh(unit_square(), 1 / 8)
    count = {}
    for tri in m.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            count[min(a, b), max(a, b)] = count.get((min(a, b), max(a, b)), 0) + 1
    n_int = sum(1 for v in count.values() if v == 2)
    n_bdy = sum(1 for v in count.values() if v == 1)
    assert n_int == len(m.hinges)
    assert n_bdy == 4 * 8
    assert set(count.values()) <= {1, 2}


def test_mesh_too_fine():
    with pytest.raises(MeshTooFine):
        make_mesh(interval(), 1e-7)
    with pytest.raises(MeshTooFine):
        make_mesh(unit_square(), 1e-4)


def test_determinism():
    m1 = make_mesh(standard_simplex(), 1 / 8)
    m2 = make_mesh(standard_simplex(), 1 / 8)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.cells, m2.cells)


def test_locate_boundary_and_interior():
    m = make_mesh(standard_simplex(), 1 / 8)
    pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5], [1 / 3, 1 / 3]])
    ids, bary = m.locate(pts)
    assert np.all(ids >= 0)
    assert np.min(bary) >= -1e-9
    recovered = np.einsum("ijk,ij->ik", m.vertices[m.cells[ids]], bary)
    assert np.allclose(recovered, pts, atol=1e-12)


def test_nearest_vertex():
    m = make_mesh(unit_square(), 1 / 4)
    assert np.allclose(m.vertices[m.nearest_vertex([0.5, 0.5])], [0.5, 0.5])


@pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-11, 1e4])
def test_mesh_is_scale_free(s):
    # the cell counts and the clipping tolerance follow the size of P, so
    # [0, s]^2 at h = s/4 is the unit square's mesh scaled by s
    def square(s):
        return build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0),
                               ((-1.0, 0.0), -s), ((0.0, -1.0), -s)])

    unit, scaled = make_mesh(square(1.0), 0.25), make_mesh(square(s), s / 4)
    assert scaled.num_vertices == unit.num_vertices == 25
    assert np.allclose(scaled.vertices, s * unit.vertices, rtol=0.0, atol=1e-12 * s)
    assert np.array_equal(scaled.cells, unit.cells)
    assert np.array_equal(scaled.hinges, unit.hinges)
    assert scaled.boundary_facets == unit.boundary_facets


@pytest.mark.parametrize("origin, s", [(1e4, 0.01), (-5e3, 1e-3)])
def test_mesh_far_from_the_origin(origin, s):
    # the grid slack and the clipping tolerance follow max|x|, so a small square
    # far from the origin gets the unit square's 4 x 4 grid, moved and scaled
    P = build_polytope([((1.0, 0.0), origin), ((0.0, 1.0), origin),
                        ((-1.0, 0.0), -(origin + s)), ((0.0, -1.0), -(origin + s))])
    m, unit = make_mesh(P, s / 4), make_mesh(unit_square(), 0.25)
    assert m.num_vertices == 25 and len(m.cells) == 32
    np.testing.assert_allclose(m.vertices, origin + s * unit.vertices,
                               rtol=0, atol=1e-12 * abs(origin))
    assert np.array_equal(m.cells, unit.cells)
    assert np.array_equal(m.hinges, unit.hinges)
    assert np.array_equal(m.boundary_edges, unit.boundary_edges)
    assert m.boundary_facets == unit.boundary_facets


@pytest.mark.parametrize("origin, s", [(0.0, 0.01), (1e4, 0.01), (-5e3, 1e-3), (0.0, 1e-6),
                                       (0.0, 1e-12)])
def test_interval_mesh_is_scale_free(origin, s):
    # the 1D cell count has the 2D branch's slack, so [origin, origin + s] at
    # h = s/4 gets the unit interval's 4 cells wherever it sits
    m, unit = make_mesh(interval(origin, origin + s), s / 4), make_mesh(interval(), 0.25)
    assert m.num_vertices == 5
    np.testing.assert_allclose(m.vertices, origin + s * unit.vertices,
                               rtol=0, atol=1e-12 * max(abs(origin), s))
    assert np.array_equal(m.cells, unit.cells)
    assert np.array_equal(m.hinges, unit.hinges)
    assert m.boundary_facets == unit.boundary_facets


@pytest.mark.parametrize("h, nv", [(1 / 16, 17), (1 / 32, 33), (0.3, 5)])
def test_interval_mesh_vertex_counts(h, nv):
    assert make_mesh(interval(), h).num_vertices == nv


@pytest.mark.parametrize("origin, s", [(0.0, 1.0), (0.0, 1e-9), (1e4, 0.01)])
def test_cut_cells_are_clipped_at_any_scale_and_position(origin, s):
    # the facet x + 3y <= 3.3 s cuts cells across two opposite edges
    P = build_polytope([((1.0, 0.0), origin), ((0.0, 1.0), origin), ((-1.0, 0.0), -(origin + s)),
                        ((0.0, -1.0), -(origin + s)), ((-1.0, -3.0), -(4 * origin + 3.3 * s))])
    m = make_mesh(P, s / 5)
    v = m.vertices[m.cells] - origin
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    area = 0.5 * float(np.sum(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]))
    assert area == pytest.approx((1.0 - 0.7 ** 2 / 6) * s * s, rel=1e-9)
    # no vertex lies outside P by more than the rounding of the vertices
    dist = P.gaps(m.vertices) * P.boundary_weights
    assert np.min(dist) >= -1e-12 * max(s, 1e-3 * abs(origin))


@pytest.mark.parametrize("P, h, rows", [(build_polytope(PENTAGON), 1 / 16, 136),
                                        (standard_simplex(), 1 / 16, 136),
                                        (unit_square(), 1 / 16, 0)],
                         ids=["pentagon", "simplex", "square"])
def test_cut_cells_are_clipped_only_by_facets_they_cross(P, h, rows, monkeypatch):
    # each of the 136 cut cells has a corner outside one facet only; clipping
    # against every facet would pass 680 rows to the kernel on the pentagon,
    # 408 on the simplex.  test_mesh_and_fits_match_the_loops checks the mesh
    # is unchanged
    import polystab.mesh

    passed = []
    clip = polystab.mesh.clip_halfplanes
    monkeypatch.setattr(polystab.mesh, "clip_halfplanes",
                        lambda polys, *args, **kwargs: passed.append(len(polys))
                        or clip(polys, *args, **kwargs))
    make_mesh(P, h)
    assert sum(passed) == rows


# convex polygons inscribed in a circle: angles, radius and centre
inscribed = st.tuples(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=3, max_size=8,
                               unique=True),
                      st.floats(0.5, 2.0), st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))


@settings(max_examples=30, deadline=None)
@given(polygon=inscribed, move=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_moving_the_polygon_moves_its_mesh_and_keeps_lambda_hat(polygon, move):
    # each vertex is named by the lines that meet there, so P + t far from the
    # origin gets P's mesh: no two vertices within 1e-9 of the size, the same
    # counts, and the same lambda-hat
    angles, r, centre = polygon
    V = np.asarray(centre) + r * np.column_stack([np.cos(np.sort(angles)), np.sin(np.sort(angles))])
    d = np.roll(V, -1, axis=0) - V
    assume(np.min(np.hypot(d[:, 0], d[:, 1])) >= 0.05 * r)
    n = np.column_stack([-d[:, 1], d[:, 0]])
    c = np.sum(n * V, axis=1)
    P = build_polytope(list(zip(map(tuple, n), c)))
    size = float(np.max(np.ptp(P.vertices, axis=0)))
    moved = build_polytope(list(zip(map(tuple, n), c + n @ (size * np.asarray(move)))))
    for f in (0.3, 0.11, 0.05):
        meshes = [make_mesh(Q, f * size) for Q in (P, moved)]
        for m in meshes:
            dist = np.linalg.norm(m.vertices[:, None] - m.vertices[None], axis=-1)
            np.fill_diagonal(dist, np.inf)
            assert dist.min() > 1e-9 * size
            # a boundary edge's facet is one both its ends lie on
            assert all(k in m.boundary_facets[a] and k in m.boundary_facets[b]
                       for a, b, k in m.boundary_edges.tolist())
        assert len({(m.num_vertices, len(m.cells), len(m.hinges)) for m in meshes}) == 1
    lam = []
    for Q in (P, moved):
        m = make_mesh(Q, 0.3 * size)
        assume(m.nearest_vertex(center_of_mass(Q)) not in m.boundary_facets)
        lam.append(lp_stability_estimate(Q, extremal_affine(Q), m, refine=False).lambda_hat)
    assert abs(lam[0] - lam[1]) <= 1e-9


# -- the array mesh and fits against the cell-by-cell loops -----------------------

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


def _drop_repeats(poly, tol):
    """poly without vertices within tol (max-norm) of the one kept before
    them, or, for the last one, of the first: the oracle's rule."""
    res = list(poly[:1])
    for p in poly[1:]:
        if np.max(np.abs(p - res[-1])) > tol:
            res.append(p)
    if len(res) > 1 and np.max(np.abs(res[0] - res[-1])) <= tol:
        res.pop()
    return np.array(res).reshape(-1, 2)


def _padded(polys):
    """(B, m, 2) batch and (B,) counts; a row's slots after its last vertex repeat it."""
    m = max(len(p) for p in polys)
    batch = [np.vstack([p, np.repeat(p[-1:], m - len(p), axis=0)]) for p in polys]
    return np.array(batch), np.array([len(p) for p in polys])


def _assert_kernel_matches_the_loop(polys, normals, offsets, tol):
    """clip_halfplanes on the batch against clip_polygon_halfplane row by row,
    after repeats are dropped, within 1e-14 of the batch's size; and each row
    clipped alone gives the batch's bits."""
    batch, counts = _padded(polys)
    clipped, n, src = clip_halfplanes(batch, counts, normals, offsets, tol=tol)
    assert clipped.shape == (len(polys), max(n.max(), 3), 2) and src.shape == clipped.shape[:2]
    size = float(np.ptp(np.vstack(polys)))
    shared = np.ndim(normals) == 1
    for b, poly in enumerate(polys):
        normal, offset = (normals, offsets) if shared else (normals[b], offsets[b])
        row = clipped[b, :n[b]]
        if n[b]:  # the padding repeats the last vertex
            assert np.array_equal(clipped[b, n[b]:], np.repeat(row[-1:], clipped.shape[1] - n[b], 0))
        ref = clip_polygon_halfplane(poly, normal, offset, tol=tol)
        got = _drop_repeats(row, 1e-14 * size)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * size)
        alone, m, _ = clip_halfplanes(poly[None], np.array([len(poly)]), normal, offset, tol=tol)
        assert m[0] == n[b] and np.array_equal(alone[0, :m[0]], row)
        # a kept vertex is input vertex src // 2; a crossing is where the line
        # meets the line of edge src // 2
        i, crossing = src[b, :n[b]] // 2, src[b, :n[b]] % 2 == 1
        assert np.array_equal(row[~crossing], batch[b, i[~crossing]])
        p, q = batch[b, i[crossing]], batch[b, (i[crossing] + 1) % batch.shape[1]]
        x, d = row[crossing] - p, q - p
        np.testing.assert_allclose(row[crossing] @ normal - offset, 0.0, rtol=0,
                                   atol=1e-13 * size * np.abs(normal).sum())
        np.testing.assert_allclose(x[:, 0] * d[:, 1] - x[:, 1] * d[:, 0], 0.0, rtol=0,
                                   atol=1e-13 * size * size)


@pytest.mark.parametrize("normal, offset, tol, counts", [
    ((1.0, 0.0), 0.5, 0.0, [4, 4, 4]),    # cuts every polygon through two edges
    ((1.0, 1.0), 1.0, 0.0, [3, 3, 3]),    # through vertices: the crossings repeat them
    ((1.0, 0.0), 0.0, 0.0, [4, 3, 4]),    # along the square's edge: it is kept whole
    ((1.0, 0.0), -5.0, 0.0, [4, 3, 4]),   # misses everything: all kept
    ((1.0, 0.0), 5.0, 0.0, [0, 0, 0]),    # misses everything: nothing kept
    ((0.0, 1.0), 1e-3, 2e-3, [4, 3, 4]),  # within the tolerance of the bottom edge
])
def test_clip_kernel_on_chosen_lines(normal, offset, tol, counts):
    # the unit square, a triangle and a larger square in one batch
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    polys = [square, square[:3], 2.0 * square - 0.5]
    _assert_kernel_matches_the_loop(polys, np.array(normal), offset, tol)
    clipped, n, _ = clip_halfplanes(*_padded(polys), np.array(normal), offset, tol=tol)
    assert [len(_drop_repeats(row[:k], 0.0)) for row, k in zip(clipped, n)] == counts


@settings(max_examples=80, deadline=None)
@given(hulls=st.lists(lattice_points, min_size=1, max_size=5),
       lines=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-12, 12)),
                      min_size=5, max_size=5),
       shared=st.booleans(), tol=st.sampled_from([0.0, 1.0]),
       scale=st.sampled_from([1.0, 2.0 ** -6, 2.0 ** 10]))
def test_clip_kernel_matches_the_polygon_loop(hulls, lines, shared, tol, scale):
    # lattice polygons and lines with integer data, scaled exactly: vertices
    # on the line, lines that miss, and tolerances that take in a vertex
    polys = [scale * np.array(hull, dtype=float) for hull in map(_hull, hulls) if len(hull) >= 3]
    lines = [line for line in lines if line[:2] != (0, 0)]
    assume(polys and lines)
    data = np.array(lines, dtype=float)[np.arange(len(polys)) % len(lines)]
    normals, offsets = data[:, :2], scale * data[:, 2]
    if shared:
        normals, offsets = normals[0], offsets[0]
    _assert_kernel_matches_the_loop(polys, normals, offsets, scale * tol)


def test_fans_cover_the_polygon_and_pad_with_zero_area():
    batch, counts = _padded([np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]]),
                             np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])])
    tris = fans(batch)
    area = polygon_area(tris)
    assert tris.shape == (2, 3, 3, 2)
    np.testing.assert_allclose(area.sum(axis=1), polygon_area(batch), rtol=1e-15)
    assert np.all(area[0] > 0) and area[1, 0] == 0.5 and np.all(area[1, 1:] == 0.0)


def loop_make_mesh(P, h):
    """Oracle: the 2D mesh built cell by cell and vertex by vertex, with dicts.

    Returns (vertices, cells, hinges, boundary_facets, cell_index, boundary
    edges as [((a, b), facet)]).
    """
    xlo, ylo = P.vertices.min(axis=0)
    xhi, yhi = P.vertices.max(axis=0)
    nx = int(np.ceil((xhi - xlo) / h - 1e-12))
    ny = int(np.ceil((yhi - ylo) / h - 1e-12))
    sx, sy = (xhi - xlo) / nx, (yhi - ylo) / ny
    xs, ys = xlo + sx * np.arange(nx + 1), ylo + sy * np.arange(ny + 1)
    verts, vmap, tris, cell_index = [], {}, [], {}
    size = max(xhi - xlo, yhi - ylo)
    digits = 12 - int(np.floor(np.log10(size)))

    def vid(p):
        key = (round(float(p[0]), digits), round(float(p[1]), digits))
        if key not in vmap:
            vmap[key] = len(verts)
            verts.append(np.array([key[0], key[1]]))
        return vmap[key]

    area_tol, scale_tol = 1e-13 * sx * sy, 1e-12 * size
    for i in range(nx):
        for j in range(ny):
            cell = np.array([[xs[i], ys[j]], [xs[i + 1], ys[j]],
                             [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]]])
            poly = cell
            if not np.all(P.gaps(cell) >= -scale_tol * np.linalg.norm(P.normals, axis=1)):
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
                    if abs(polygon_area(tri)) > area_tol:
                        ids = tuple(vid(p) for p in tri)
                        if len(set(ids)) == 3:
                            new.append(ids)
            if new:
                cell_index[(i, j)] = tuple(range(len(tris), len(tris) + len(new)))
            tris.extend(new)
    vertices, cells = np.array(verts), np.array(tris, dtype=int)
    buckets = np.full((nx + 2, ny + 2, max(map(len, cell_index.values()), default=1)), -1)
    for (i, j), ts in cell_index.items():
        buckets[i + 1, j + 1, :len(ts)] = ts
    v0, v1, v2 = vertices[cells[:, 0]], vertices[cells[:, 1]], vertices[cells[:, 2]]
    e1, e2 = v1 - v0, v2 - v0
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    cells[flip, 1], cells[flip, 2] = cells[flip, 2].copy(), cells[flip, 1].copy()
    edge_tris = {}
    for t, tri in enumerate(cells):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_tris.setdefault((min(a, b), max(a, b)), []).append(t)
    hinges, bedges = [], []
    for (a, b), ts in sorted(edge_tris.items()):
        if len(ts) == 2:
            hinges.append((a, b) + tuple((set(cells[t]) - {a, b}).pop() for t in ts))
        elif len(ts) == 1:
            g = np.abs(P.gaps(0.5 * (vertices[a] + vertices[b]))) * P.boundary_weights
            bedges.append(((a, b), int(np.argmin(g))))
    gv, norm_h = P.gaps(vertices), np.linalg.norm(P.normals, axis=1)
    bfacets = {}
    for v in range(len(vertices)):
        on = np.where(np.abs(gv[v]) <= 1e-9 * size * norm_h)[0]
        if on.size:
            bfacets[v] = tuple(int(k) for k in on)
    return (vertices, cells, np.array(hinges, dtype=int).reshape(-1, 4), bfacets, buckets,
            bedges)


def loop_quadric_fits(mesh):
    """Oracle: star_idx and star_op from one pinv per vertex (2D meshes)."""
    V = mesh.num_vertices
    rings = [set() for _ in range(V)]
    for cell in mesh.cells:
        for a in cell:
            rings[a].update(int(b) for b in cell if b != a)
    S = 1 + max(len(r) for r in rings)
    star_idx = np.repeat(np.arange(V)[:, None], S, axis=1)
    star_op = np.zeros((V, 3, S))
    valid = np.zeros(V, dtype=bool)
    for v in range(V):
        star = np.array([v] + sorted(rings[v]), dtype=int)
        if len(star) < 6:
            continue
        dx = mesh.vertices[star] - mesh.vertices[v]
        s = max(float(np.max(np.abs(dx))), 1e-300)
        x, y = (dx / s).T
        B = np.column_stack([np.ones(len(star)), x, y, 0.5 * x ** 2, x * y, 0.5 * y ** 2])
        star_idx[v, :len(star)] = star
        star_op[v, :, :len(star)] = np.linalg.pinv(B, rcond=1e-10)[3:6] / s**2
        valid[v] = True
    vv = np.where(valid)[0]
    if len(vv) == 0:
        raise ValueError("mesh too coarse for quadric fits")
    for v in np.where(~valid)[0]:
        donor = int(vv[np.argmin(np.linalg.norm(mesh.vertices[vv] - mesh.vertices[v], axis=1))])
        star_idx[v], star_op[v] = star_idx[donor], star_op[donor]
    return star_idx, star_op


def _assert_matches_loops(P, h):
    m = make_mesh(P, h)
    vertices, cells, hinges, bfacets, buckets, bedges = loop_make_mesh(P, h)
    # the oracle rounds its vertices to 12 digits, make_mesh does not
    np.testing.assert_allclose(m.vertices, vertices, rtol=0, atol=1e-12 * P._scale)
    assert np.array_equal(m.cells, cells)
    assert np.array_equal(m.hinges, hinges)
    assert m.boundary_facets == bfacets
    assert np.array_equal(m.cell_index, buckets)
    assert [((a, b), k) for a, b, k in m.boundary_edges.tolist()] == bedges
    try:
        star_idx, star_op = loop_quadric_fits(m)
    except ValueError:
        with pytest.raises(ValueError, match="too coarse"):
            HessianSurrogate(m)
    else:
        sur = HessianSurrogate(m)
        assert np.array_equal(sur.star_idx, star_idx)
        assert np.array_equal(sur.star_op, star_op)
    b = np.zeros(m.num_vertices)
    for (a, c), k in bedges:
        L = np.linalg.norm(m.vertices[c] - m.vertices[a])
        b[a] += 0.5 * L * P.boundary_weights[k]
        b[c] += 0.5 * L * P.boundary_weights[k]
    np.testing.assert_allclose(m.boundary_vertex_weights, b, rtol=1e-14, atol=0)


@pytest.mark.parametrize("h", [1 / 2, 1 / 5, 1 / 6, 1 / 8, 1 / 12, 1 / 16])
@pytest.mark.parametrize("P", [unit_square(), standard_simplex(), build_polytope(PENTAGON)],
                         ids=["square", "simplex", "pentagon"])
def test_mesh_and_fits_match_the_loops(P, h):
    _assert_matches_loops(P, h)


@settings(max_examples=30, deadline=None)
@given(points=lattice_points, n=st.sampled_from([1, 2, 3, 5]))
def test_mesh_and_fits_match_the_loops_on_lattice_polygons(points, n):
    P = _lattice_polygon(points)
    assume(P is not None)
    _assert_matches_loops(P, 1 / n)


def loop_convexity_rows(mesh):
    """Reference convexity rows, written out apart from `Mesh.convexity_rows`:
    the 1D slope-difference stencil, and in 2D the vertex s of every hinge in
    the barycentric frame of triangle (p, q, r)."""
    idx = mesh.hinges
    if mesh.dimension == 1:
        x = mesh.vertices[idx, 0]
        left, right = 1.0 / (x[:, 1] - x[:, 0]), 1.0 / (x[:, 2] - x[:, 1])
        return idx, np.column_stack([left, -(left + right), right])
    vp, vq, vr, vs = (mesh.vertices[idx[:, k]] for k in range(4))
    e1, e2, rhs = vq - vp, vr - vp, vs - vp
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    beta = (rhs[:, 0] * e2[:, 1] - rhs[:, 1] * e2[:, 0]) / det
    gamma = (-rhs[:, 0] * e1[:, 1] + rhs[:, 1] * e1[:, 0]) / det
    alpha = 1.0 - beta - gamma
    return idx, np.column_stack([-alpha, -beta, -gamma, np.ones(len(idx))])


MESH_FIXTURES = pytest.mark.parametrize(
    "P", [interval(), unit_square(), standard_simplex(), build_polytope(PENTAGON)],
    ids=["interval", "square", "simplex", "pentagon"])


@pytest.mark.parametrize("h", [1 / 5, 1 / 8])
@MESH_FIXTURES
def test_convexity_rows_match_the_reference_formulas(P, h):
    m = make_mesh(P, h)
    idx, coef = m.convexity_rows
    ref_idx, ref_coef = loop_convexity_rows(m)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(coef, ref_coef)
    assert m.convexity_rows is m.convexity_rows  # built once, then kept
    assert not coef.flags.writeable and not m.boundary_vertex_weights.flags.writeable


@pytest.mark.parametrize("h", [1 / 5, 1 / 8])
@MESH_FIXTURES
def test_margins_are_the_lp_rows_applied_to_the_values(P, h):
    m = make_mesh(P, h)
    u = random_normalized_mesh_function(m, np.random.default_rng(3))
    lp = StabilityLP(P, 1.0, m, p_o=m.vertices[u.p_o_index])
    idx, coef = lp.rows
    assert u.values[lp.p_o_index] == 0.0
    np.testing.assert_allclose(np.sum(u.values[lp.free][idx] * coef, axis=1),
                               u.convexity_margins(), rtol=0, atol=1e-12)
    if P.dimension == 1:  # the rows are the slope differences at the interior vertices
        x, v = m.vertices[:, 0], u.values
        slopes = np.diff(v) / np.diff(x)
        np.testing.assert_allclose(u.convexity_margins(), np.diff(slopes), rtol=1e-12, atol=1e-12)


def test_meshes_hash_by_identity():
    a, b = make_mesh(unit_square(), 0.5), make_mesh(unit_square(), 0.5)
    assert a != b and len({a, b, a}) == 2


@pytest.mark.parametrize("point", [(0.25, 0.5), (0.75, 0.3), (0.6, 0.25), (0.1, 0.75)])
def test_nearest_vertex_breaks_ties_by_coordinates(point):
    # a point equidistant from two vertices gets the lexicographically smaller
    # one, in P and in P moved far from the origin alike
    t = 1e3
    moved = build_polytope([((1.0, 0.0), t), ((0.0, 1.0), t), ((-1.0, 0.0), -(t + 1.0)),
                            ((0.0, -1.0), -(t + 1.0))])
    picks = []
    for Q, shift in ((unit_square(), 0.0), (moved, t)):
        m = make_mesh(Q, 0.5)
        p = np.asarray(point) + shift
        d = np.linalg.norm(m.vertices - p, axis=1)
        tied = m.vertices[np.abs(d - d.min()) <= 1e-9] - shift
        assert len(tied) == 2
        v = m.vertices[m.nearest_vertex(p)] - shift
        assert tuple(v) == min(map(tuple, tied))
        picks.append(tuple(v))
    assert picks[0] == picks[1]
