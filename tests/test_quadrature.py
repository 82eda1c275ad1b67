import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_stability import _hull, _lattice_polygon, directions, lattice_points

from polystab.hessfit import HessianSurrogate
from polystab.mesh import make_mesh
from polystab.polytope import (
    Polytope,
    build_polytope,
    interval,
    standard_simplex,
    unit_square,
)
from polystab.quadrature import (
    DEFAULT_DEGREE,
    _BLOCK_TRIANGLES,
    _boundary_2d,
    _geometric_breaks,
    _segments,
    _strip_triangles,
    _tagged_rule,
    gauss_rule,
    graded_blocks,
    graded_scheme,
    integrate_boundary,
    integrate_interior,
    map_triangles,
    mesh_graded_scheme,
    split_scheme,
    standard_scheme,
    triangle_points,
    triangle_rule,
)

PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]


def reference_triangle_moment(a, b):
    """int x^a y^b over {x,y>=0, x+y<=1} = a! b! / (a+b+2)!"""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_rule_matches_closed_form_moments():
    pts, wts = triangle_rule(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                             np.array([0.0, 1.0]), degree=6)
    for a in range(7):
        for b in range(7 - a):
            val = float(np.dot(wts, pts[:, 0] ** a * pts[:, 1] ** b))
            exact = reference_triangle_moment(a, b)
            assert val == pytest.approx(exact, rel=1e-12)


def test_interior_examples():
    S = unit_square()
    assert integrate_interior(lambda x: np.ones(len(x)), S) == pytest.approx(1.0, abs=1e-13)
    T = standard_simplex()
    assert integrate_interior(lambda x: x[:, 0], T) == pytest.approx(1 / 6, rel=1e-12)


def test_interior_log_example_with_graded_rule():
    I = interval()
    G = graded_scheme(I)

    def f(x):
        t = x[:, 0]
        out = np.zeros_like(t)
        m = (t > 0) & (t < 1)
        out[m] = t[m] * np.log(t[m]) + (1 - t[m]) * np.log(1 - t[m])
        return out

    assert integrate_interior(f, I, G) == pytest.approx(-0.5, abs=1e-7)


def test_boundary_examples():
    I = interval()
    assert integrate_boundary(lambda x: np.ones(len(x)), I) == pytest.approx(2.0)
    assert integrate_boundary(lambda x: x[:, 0], I) == pytest.approx(1.0)
    T = standard_simplex()
    assert integrate_boundary(lambda x: np.ones(len(x)), T) == pytest.approx(3.0, rel=1e-12)
    S = unit_square()
    assert integrate_boundary(lambda x: x[:, 0] + x[:, 1], S) == pytest.approx(4.0, rel=1e-12)


def test_affine_invariance_of_interior_quadrature():
    rng = np.random.default_rng(42)
    T = standard_simplex()
    for _ in range(5):
        M = rng.uniform(-1.5, 1.5, size=(2, 2))
        while abs(np.linalg.det(M)) < 0.3:
            M = rng.uniform(-1.5, 1.5, size=(2, 2))
        shift = rng.uniform(-1.0, 1.0, size=2)
        # image polytope: normals transform by M^{-T}, offsets pick up the shift
        Minv = np.linalg.inv(M)
        facets = []
        for h, c in zip(T.normals, T.offsets):
            hn = h @ Minv
            facets.append((tuple(hn), c + float(hn @ shift)))
        TP = build_polytope(facets)

        def f(x):
            return np.exp(0.3 * x[:, 0]) + x[:, 1] ** 2

        lhs = integrate_interior(
            lambda x: f(x @ M.T + shift), T, standard_scheme(T, 12)
        ) * abs(np.linalg.det(M))
        rhs = integrate_interior(f, TP, standard_scheme(TP, 12))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_divergence_theorem_consistency():
    rng = np.random.default_rng(7)
    for P in (unit_square(), standard_simplex()):
        Q = standard_scheme(P)
        for _ in range(5):
            V = rng.uniform(-2, 2, size=2)
            a0, a = rng.uniform(-2, 2), rng.uniform(-2, 2, size=2)

            def ell(x):
                return a0 + x @ a

            # sum_k w_k int_{F_k} (V.n_k |h_k|) ell dS = int div(ell V) dmu,
            # with n_k |h_k| = -h_k (outward unit normal times |h_k|)
            lhs = 0.0
            for k in range(P.num_facets):
                nk = -P.normals[k]  # outward, length |h_k|
                flux = float(V @ nk)
                pts, wts = Q.boundary_points[k], Q.boundary_weights[k]
                lhs += flux * float(np.dot(wts, ell(pts)))
            rhs = integrate_interior(lambda x: (a @ V) * np.ones(len(x)), P, Q)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_split_scheme_integrates_creases_exactly():
    I = interval()
    sp = split_scheme(I, [((1.0,), 0.3)])
    val = integrate_interior(lambda x: np.maximum(x[:, 0] - 0.3, 0.0), I, sp)
    assert val == pytest.approx(0.7**2 / 2, rel=1e-14)
    S = unit_square()
    sp2 = split_scheme(S, [((1.0, 1.0), 1.0)])
    val2 = integrate_interior(lambda x: np.maximum(x[:, 0] + x[:, 1] - 1.0, 0.0), S, sp2)
    assert val2 == pytest.approx(1 / 6, rel=1e-13)


def test_graded_scheme_covers_domain():
    S = unit_square()
    G = graded_scheme(S)
    assert float(np.sum(G.interior_weights)) == pytest.approx(1.0, abs=1e-9)
    assert integrate_interior(
        lambda x: np.log(x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])), S, G
    ) == pytest.approx(-4.0, abs=1e-6)


def test_mesh_graded_scheme_log_accuracy():
    T = standard_simplex()
    m = make_mesh(T, 1 / 8)
    Q = mesh_graded_scheme(m)
    assert float(np.sum(Q.interior_weights)) == pytest.approx(0.5, abs=1e-8)
    val = integrate_interior(
        lambda x: np.log(np.maximum(x[:, 0] * x[:, 1] * (1 - x[:, 0] - x[:, 1]), 1e-300)),
        T, Q)
    assert val == pytest.approx(-9 / 4, abs=1e-6)


def test_truncation_layers_bookkeeping():
    I = interval()
    G = graded_scheme(I, layers=40)
    shallow = G.interior_layers < 30
    assert np.count_nonzero(shallow) < len(G.interior_points)
    # shallow rule misses only ~2^-30 of the length
    assert float(np.sum(G.interior_weights[shallow])) == pytest.approx(1.0, abs=1e-8)


def test_1d_rules_match_interval_by_interval_loops():
    # the 1D builders are broadcasts over intervals; these loops are the
    # reference, with the same arithmetic on each interval
    t, w = gauss_rule((DEFAULT_DEGREE + 2) // 2)

    def loop(intervals):
        return (np.concatenate([a + t * (b - a) for a, b in intervals])[:, None],
                np.concatenate([w * abs(b - a) for a, b in intervals]))

    lo, hi = -0.5, 2.0
    P = interval(lo, hi)
    c, s = 0.5 * (lo + hi), 1.0 - 2.0 ** (-np.arange(13, dtype=float))
    G = graded_scheme(P, layers=12)
    pts, wts = loop([sorted((c + (e - c) * s[j], c + (e - c) * s[j + 1]))
                     for e in (lo, hi) for j in range(12)])
    assert np.array_equal(G.interior_points, pts)
    assert np.array_equal(G.interior_weights, wts)
    assert np.array_equal(G.interior_layers, np.repeat(np.tile(np.arange(12), 2), len(t)))
    S = split_scheme(P, [((1.0,), 0.3), ((2.0,), 5.0), ((1.0,), -0.5)])
    pts, wts = loop([(lo, 0.3), (0.3, hi)])
    assert np.array_equal(S.interior_points, pts)
    assert np.array_equal(S.interior_weights, wts)


def loop_boundary_2d(P, degree, s_breaks):
    """Oracle: the per-facet boundary rules built segment by segment."""
    t, w = gauss_rule((degree + 2) // 2)
    bp, bw = [], []
    for k in range(P.num_facets):
        a, b = P.facet_segment(k)
        ss = np.unique(np.concatenate([[0.0, 1.0], np.asarray(s_breaks[k], dtype=float)]))
        ss = ss[(ss >= 0.0) & (ss <= 1.0)]
        pts, wts = [], []
        for s0, s1 in zip(ss[:-1], ss[1:]):
            p, q = a + s0 * (b - a), a + s1 * (b - a)
            pts.append(p + t[:, None] * (q - p))
            wts.append(w * np.linalg.norm(q - p) * P.boundary_weights[k])
        bp.append(np.vstack(pts))
        bw.append(np.concatenate(wts))
    return bp, bw


def _assert_same_boundary(Q, rules):
    bp, bw = rules
    assert len(Q.boundary_points) == len(bp) == len(Q.boundary_weights) == len(bw)
    for got, want in zip(Q.boundary_points + Q.boundary_weights, bp + bw):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("P", [unit_square(), standard_simplex(), build_polytope(PENTAGON)],
                         ids=["square", "simplex", "pentagon"])
def test_boundary_rules_match_the_segment_loop(P):
    # one broadcast per facet, bit for bit the segment loop: the standard
    # rule, the graded one (16 tangential layers), the solver's mesh-graded
    # one (8) and breaks that fall outside [0, 1] or off the grading
    K = P.num_facets
    _assert_same_boundary(standard_scheme(P), loop_boundary_2d(P, DEFAULT_DEGREE, [[]] * K))
    _assert_same_boundary(graded_scheme(P, layers=4),
                          loop_boundary_2d(P, DEFAULT_DEGREE, [_geometric_breaks(16)] * K))
    Q = mesh_graded_scheme(make_mesh(P, 1 / 5), layers=4, tangential_layers=8)
    _assert_same_boundary(Q, loop_boundary_2d(P, DEFAULT_DEGREE, [_geometric_breaks(8)] * K))
    breaks = [[0.3, -0.2, 0.7, 1.5, 0.3]] * K
    bp, bw = _boundary_2d(P, 9, breaks)
    want = loop_boundary_2d(P, 9, breaks)
    assert all(np.array_equal(a, b) for a, b in zip(bp + bw, want[0] + want[1]))


def whole_graded_rule(P, degree, layers, tangential_layers):
    """Oracle: the graded interior rule built from one (K, L, S-1) triangle array
    (1D: both ends at once)."""
    t = 1.0 - 2.0 ** (-np.arange(layers + 1, dtype=float))
    if P.dimension == 1:
        c = 0.5 * (P.vertices[0, 0] + P.vertices[1, 0])
        x = c + (P.vertices - c) * t
        pts, wts = _segments(np.sort(np.stack([x[:, :-1], x[:, 1:]], axis=-1), axis=-1)
                             .reshape(-1, 2), degree)
        return pts, wts, np.repeat(np.tile(np.arange(layers), 2), len(wts) // (2 * layers))
    center = P.vertex_centroid()
    ss = _geometric_breaks(tangential_layers)
    segs = np.array([P.facet_segment(k) for k in range(P.num_facets)])
    a, b = segs[:, None, 0], segs[:, None, 1]
    edge = a + ss[:, None] * (b - a)
    ring = center + t[:, None, None] * (edge[:, None] - center)
    tris = _strip_triangles(ring[:, :-1], ring[:, 1:])
    tags = np.broadcast_to(np.arange(layers)[:, None, None], tris.shape[:4])
    return _tagged_rule(tris, [tags], degree)


@pytest.mark.parametrize("P", [unit_square(), standard_simplex(), build_polytope(PENTAGON),
                               interval(-0.5, 2.0)],
                         ids=["square", "simplex", "pentagon", "interval"])
@pytest.mark.parametrize("degree, layers, tangential", [(6, 40, 16), (9, 7, 3)])
def test_graded_blocks_concatenate_to_the_whole_rule(P, degree, layers, tangential):
    blocks = list(graded_blocks(P, degree, layers, tangential))
    if P.dimension == 1:
        assert len(blocks) == 2 and len(blocks[0][1]) == len(blocks[1][1])
    else:
        # each facet fan in runs of whole layers of at most _BLOCK_TRIANGLES triangles
        step = max(1, _BLOCK_TRIANGLES // (4 * tangential))
        runs = [(j, min(j + step, layers)) for j in range(0, layers, step)]
        assert [(lay[0], lay[-1] + 1) for _, _, lay in blocks] == runs * P.num_facets
        assert max(len(w) for _, w, _ in blocks) <= _BLOCK_TRIANGLES * triangle_points(degree)
    G = graded_scheme(P, degree, layers, tangential)
    for got, scheme, want in zip(zip(*blocks),
                                 (G.interior_points, G.interior_weights, G.interior_layers),
                                 whole_graded_rule(P, degree, layers, tangential)):
        assert np.array_equal(np.concatenate(got), want)
        assert np.array_equal(scheme, want)
        assert scheme.dtype == want.dtype


@pytest.mark.parametrize("degree", [2, 6, 9])
def test_map_triangles_matches_stacked_triangle_rule(degree):
    rng = np.random.default_rng(degree)
    tris = rng.uniform(-3.0, 3.0, size=(40, 3, 2))
    pts, wts = map_triangles(tris, degree)
    rules = [triangle_rule(t[0], t[1], t[2], degree) for t in tris]
    assert np.array_equal(pts, np.vstack([p for p, _ in rules]))
    assert np.array_equal(wts, np.concatenate([w for _, w in rules]))


@pytest.fixture(scope="module")
def pentagon_mesh_graded():
    """The pentagon at h = 1/5 with the solver's mesh-graded scheme."""
    mesh = make_mesh(build_polytope(PENTAGON), 1 / 5)
    return mesh, mesh_graded_scheme(mesh, layers=20, tangential_layers=8)


def test_mesh_graded_cells_match_locate(pentagon_mesh_graded):
    mesh, Q = pentagon_mesh_graded
    ids, _ = mesh.locate(Q.interior_points)
    assert Q.interior_cells.shape == Q.interior_weights.shape
    assert np.array_equal(Q.interior_cells, ids)
    assert np.all(standard_scheme(mesh.polytope).interior_cells == -1)


def test_mesh_graded_cells_contain_their_points():
    # at 30 layers some points lie within locate's 1e-9 barycentric tolerance
    # of a neighbouring cell, which locate may return instead; the parent cell
    # contains every point strictly
    for P in (build_polytope(PENTAGON), unit_square(), standard_simplex()):
        mesh = make_mesh(P, 1 / 5)
        Q = mesh_graded_scheme(mesh)
        assert np.all(mesh.barycentric(Q.interior_cells, Q.interior_points) > 0.0)
        ids, bary = mesh.locate(Q.interior_points)
        other = ids != Q.interior_cells
        assert np.all(ids >= 0)
        assert np.all(np.min(bary[other], axis=1) < 0.0)


def test_point_operator_with_cells_matches_locate(pentagon_mesh_graded):
    mesh, Q = pentagon_mesh_graded
    sur = HessianSurrogate(mesh)
    with_cells = sur.point_operator(Q.interior_points, Q.interior_cells)
    located = sur.point_operator(Q.interior_points)
    assert with_cells.shape == located.shape
    assert np.array_equal(with_cells.tri, located.tri)
    assert np.array_equal(with_cells.bary, located.bary)


def test_point_operator_with_cells_matches_locate_1d():
    mesh = make_mesh(interval(), 1 / 8)
    Q = mesh_graded_scheme(mesh)
    sur = HessianSurrogate(mesh)
    assert np.array_equal(Q.interior_cells, mesh.locate(Q.interior_points)[0])
    with_cells = sur.point_operator(Q.interior_points, Q.interior_cells)
    located = sur.point_operator(Q.interior_points)
    assert np.array_equal(with_cells.tri, located.tri)
    assert np.array_equal(with_cells.bary, located.bary)


@pytest.mark.parametrize("dim", [1, 2])
def test_point_operator_transpose_is_the_adjoint(dim, pentagon_mesh_graded):
    # <z, op @ v> = <op.rmatvec(z), v> checks the hand-written transpose
    # against the forward map, which no other test does
    if dim == 1:
        mesh = make_mesh(interval(), 1 / 8)
        Q = mesh_graded_scheme(mesh)
    else:
        mesh, Q = pentagon_mesh_graded
    sur = HessianSurrogate(mesh)
    op = sur.point_operator(Q.interior_points, Q.interior_cells)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        v = rng.standard_normal(mesh.num_vertices)
        z = rng.standard_normal((sur.ncomp, len(Q.interior_weights)))
        forward = float(np.sum(z * (op @ v)))
        assert float(op.rmatvec(z) @ v) == pytest.approx(forward, rel=1e-12)


# -- the mesh-graded rule ------------------------------------------------------

def _square(s, o=0.0):
    return build_polytope([((1.0, 0.0), o), ((0.0, 1.0), o),
                           ((-1.0, 0.0), -(o + s)), ((0.0, -1.0), -(o + s))])


def recursive_mesh_graded(mesh, degree=DEFAULT_DEGREE, layers=30, tangential_layers=16):
    """Oracle: the mesh-graded interior rule built cell by cell, by recursion.

    Rows (point, weight, layer, cell), in no particular order.  Boundary
    contact comes from the mesh's names (boundary_facets, boundary_edges) and
    is carried down to every triangle the recursion makes: a piece keeps the
    facets of the mesh vertices it keeps, and the boundary edge it keeps.
    """
    if mesh.dimension == 1:
        t, w = gauss_rule((degree + 2) // 2)
        rows = []

        def emit_seg(a, b, level, cell):
            rows.extend((a + ti * (b - a), wi * abs(b - a), level, cell) for ti, wi in zip(t, w))

        for ci, (ia, ib) in enumerate(mesh.cells):
            a, b = float(mesh.vertices[ia, 0]), float(mesh.vertices[ib, 0])
            on_a, on_b = ia in mesh.boundary_facets, ib in mesh.boundary_facets
            if not on_a and not on_b:
                emit_seg(a, b, 0, ci)
                continue
            mid = 0.5 * (a + b) if (on_a and on_b) else (b if on_a else a)
            for e, touch in ((a, on_a), (b, on_b)):
                for j in range(layers if touch else 0):
                    hi = e + (mid - e) * 2.0 ** (-j)
                    lo = e + (mid - e) * 2.0 ** (-(j + 1))
                    emit_seg(min(lo, hi), max(lo, hi), j, ci)
        return np.array(rows)

    tris, levels, cells = [], [], []
    boundary_edges = {(a, b) for a, b, _ in mesh.boundary_edges.tolist()}

    def emit(block, level, cell):
        tris.append(block.reshape(-1, 3, 2))
        levels.append(np.broadcast_to(level, block.shape[:-2]).ravel())
        cells.append(np.full(len(levels[-1]), cell))

    def handle(tri, fsets, bedges, cell):
        """tri (3, 2) with the facet sets of its vertices and the indices i of
        its boundary edges (t_i, t_i+1)."""
        if not bedges:
            if not any(fsets):
                emit(tri, 0, cell)
                return
            stack, none = [(tri, fsets, 0)], frozenset()
            while stack:
                t, fs, lv = stack.pop()
                if lv >= layers:
                    continue
                m = [0.5 * (t[i] + t[(i + 1) % 3]) for i in range(3)]
                for ch, cf in (((t[0], m[0], m[2]), (fs[0], none, none)),
                               ((m[0], t[1], m[1]), (none, fs[1], none)),
                               ((m[2], m[1], t[2]), (none, none, fs[2])),
                               ((m[0], m[1], m[2]), (none, none, none))):
                    if any(cf):
                        stack.append((np.array(ch), cf, lv + 1))
                    else:
                        emit(np.array(ch), lv + 1, cell)
            return
        if len(bedges) > 1 or fsets[(bedges[0] + 2) % 3]:
            g = tri.mean(axis=0)
            for i in range(3):
                handle(np.array([tri[i], tri[(i + 1) % 3], g]), (fsets[i], fsets[(i + 1) % 3],
                       frozenset()), [0] if i in bedges else [], cell)
            return
        i = bedges[0]
        e0, e1, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        tau = [0.0, 1.0]
        if len(fsets[i]) >= 2:
            tau.extend(2.0 ** (-j) for j in range(1, tangential_layers))
        if len(fsets[(i + 1) % 3]) >= 2:
            tau.extend(1.0 - 2.0 ** (-j) for j in range(1, tangential_layers))
        tau = np.unique(tau)[:, None]
        s = 2.0 ** (-np.arange(layers + 1, dtype=float))[:, None, None]
        grid = (1.0 - s) * ((1.0 - tau) * e0 + tau * e1) + s * c
        emit(_strip_triangles(grid[1:], grid[:-1]), np.arange(layers)[:, None, None], cell)

    for ci, cell in enumerate(mesh.cells.tolist()):
        fsets = tuple(frozenset(mesh.boundary_facets.get(v, ())) for v in cell)
        bedges = [i for i in range(3)
                  if (min(cell[i], cell[(i + 1) % 3]), max(cell[i], cell[(i + 1) % 3])) in boundary_edges]
        handle(mesh.vertices[cell], fsets, bedges, ci)
    pts, wts, lay, cel = _tagged_rule(np.concatenate(tris),
                                      [np.concatenate(levels), np.concatenate(cells)], degree)
    return np.column_stack([pts, wts, lay, cel])


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def _rows(Q):
    return np.column_stack([Q.interior_points, Q.interior_weights,
                            Q.interior_layers, Q.interior_cells])


@pytest.mark.parametrize("h", [1 / 5, 1 / 8])
@pytest.mark.parametrize("name", ["pentagon", "square", "simplex", "interval"])
def test_mesh_graded_scheme_matches_recursive_oracle(name, h):
    P = {"pentagon": lambda: build_polytope(PENTAGON), "square": unit_square,
         "simplex": standard_simplex, "interval": interval}[name]()
    mesh = make_mesh(P, h)
    Q = mesh_graded_scheme(mesh, layers=20, tangential_layers=8)
    expected = _sorted_rows(recursive_mesh_graded(mesh, layers=20, tangential_layers=8))
    assert np.array_equal(_sorted_rows(_rows(Q)), expected)


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-4, 1.0, 1e4])
def test_mesh_graded_scheme_is_scale_free(s):
    # deep-layer weights come from differences of coordinates some 2^20 times
    # larger than the triangle, so each carries that many ulps of rounding;
    # weights are compared against the area of P instead of one by one
    unit = mesh_graded_scheme(make_mesh(_square(1.0), 1 / 4), layers=20, tangential_layers=8)
    Q = mesh_graded_scheme(make_mesh(_square(s), s / 4), layers=20, tangential_layers=8)
    assert np.array_equal(Q.interior_layers, unit.interior_layers)
    assert np.array_equal(Q.interior_cells, unit.interior_cells)
    np.testing.assert_allclose(Q.interior_points, s * unit.interior_points, rtol=0, atol=1e-12 * s)
    np.testing.assert_allclose(Q.interior_weights, s * s * unit.interior_weights,
                               rtol=0, atol=1e-12 * s * s)


@pytest.mark.parametrize("origin", [1e4, -1e4])
def test_mesh_graded_scheme_far_from_the_origin(origin):
    # make_mesh sizes its grid and merges its vertices at the resolution of
    # coordinates this far out, so a side that is not dyadic works as well
    unit = mesh_graded_scheme(make_mesh(_square(1.0), 1 / 4), layers=20, tangential_layers=8)
    for s in (2.0 ** -10, 1e-3):
        Q = mesh_graded_scheme(make_mesh(_square(s, origin), s / 4), layers=20, tangential_layers=8)
        assert np.array_equal(Q.interior_layers, unit.interior_layers)
        assert np.array_equal(Q.interior_cells, unit.interior_cells)
        np.testing.assert_allclose(Q.interior_points, origin + s * unit.interior_points,
                                   rtol=0, atol=1e-15 * abs(origin))
        assert float(np.sum(Q.interior_weights)) == pytest.approx(
            s * s * float(np.sum(unit.interior_weights)), rel=1e-8)


def test_tagged_rule_keeps_small_triangles_far_from_the_origin():
    # the shoelace area of absolute coordinates cancels to 0 for a triangle of
    # side 1e-9 at (1e4, 1e4); its Jacobian e1 x e2 does not, so it is kept
    tiny = np.array([[1e4, 1e4], [1e4 + 1e-9, 1e4], [1e4, 1e4 + 1e-9]])
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    pts, wts, tag = _tagged_rule(np.stack([flat, tiny]), [np.array([0, 1])], 2)
    assert len(wts) > 0 and np.all(tag == 1) and np.all(wts > 0)
    # 40 layers: 79 of the pentagon's 12,800 triangles are such (16 of the
    # square's 10,240); what is still dropped has e1 x e2 = 0 exactly
    assert len(graded_scheme(build_polytope(PENTAGON), layers=40).interior_weights) == 16 * 12_640
    assert len(graded_scheme(unit_square(), layers=40).interior_weights) == 16 * 10_112


def test_mesh_graded_levels_hold_equal_counts():
    # every boundary vertex's corner child passes down, so each level below
    # `layers` gets the same triangles; level 1 holds fewer, as a triangle
    # touching the boundary at two vertices emits two children there and six
    # on every later level
    mesh = make_mesh(build_polytope(PENTAGON), 1 / 5)
    Q = mesh_graded_scheme(mesh, layers=30, tangential_layers=16)
    counts = np.bincount(Q.interior_layers, minlength=31)
    assert len(set(counts[2:30].tolist())) == 1
    assert 0 < counts[1] <= counts[2]
    assert Q.meta == {"layers": 30, "tangential_layers": 16}


@pytest.mark.parametrize("layers", [5, 30])
@pytest.mark.parametrize("P, h", [(build_polytope(PENTAGON), 1 / 5), (unit_square(), 1 / 8),
                                  (interval(), 1 / 8)], ids=["pentagon", "square", "interval"])
def test_mesh_graded_scheme_makes_at_most_two_gaps_calls(P, h, layers, monkeypatch):
    mesh = make_mesh(P, h)
    calls = []
    gaps = Polytope.gaps
    monkeypatch.setattr(Polytope, "gaps",
                        lambda self, points: calls.append(1) or gaps(self, points))
    mesh_graded_scheme(mesh, layers=layers)
    # the rule reads which vertices and edges lie on facets from the mesh's
    # names, so it makes no gaps call at all
    assert calls == []


# -- exactness on lattice polygons ----------------------------------------------

def _exact_moment(hull, i, j):
    """int x^i y^j over the polygon with CCW integer vertices `hull`, exactly.

    Green's theorem, edge by edge: the sum of int x^(i+1) y^j dy / (i+1)
    along x = x0 + t dx, y = y0 + t dy, expanded binomially in t.
    """
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        dx, dy = x1 - x0, y1 - y0
        for a in range(i + 2):
            for b in range(j + 1):
                total += Fraction(math.comb(i + 1, a) * x0 ** (i + 1 - a) * dx ** a
                                  * math.comb(j, b) * y0 ** (j - b) * dy ** b * dy, a + b + 1)
    return total / (i + 1)


def _moment_errors(Q, hull, degree):
    """(i, j, |rule - exact|, bound of |x^i y^j| on P) for i + j <= degree."""
    x, y = Q.interior_points[:, 0], Q.interior_points[:, 1]
    xm, ym = max(abs(p[0]) for p in hull), max(abs(p[1]) for p in hull)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            val = float(np.dot(Q.interior_weights, x ** i * y ** j))
            exact = float(_exact_moment(hull, i, j))
            yield i, j, abs(val - exact), float(xm) ** i * float(ym) ** j


@settings(max_examples=30, deadline=None)
@given(points=lattice_points, dirs=directions,
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_schemes_integrate_monomials_on_lattice_polygons(points, dirs, offsets):
    P = _lattice_polygon(points)
    assume(P is not None)
    hull = _hull(points)
    area = float(_exact_moment(hull, 0, 0))
    lines = [(d, float(np.dot(d, v)) + off) for d in dirs for v, off in zip(P.vertices, offsets)]
    for Q in (standard_scheme(P), split_scheme(P, lines)):
        for i, j, err, bound in _moment_errors(Q, hull, DEFAULT_DEGREE):
            assert err <= 1e-12 * area * bound, (Q.kind, i, j)
    # the mesh-graded rule is exact on every triangle it keeps, so it misses
    # at most the dropped slivers' area times max |x^i y^j|
    Q = mesh_graded_scheme(make_mesh(P, float(np.max(np.ptp(P.vertices, axis=0))) / 4),
                           layers=10, tangential_layers=4)
    dropped = area - float(np.sum(Q.interior_weights))
    assert dropped >= -1e-12 * area
    for i, j, err, bound in _moment_errors(Q, hull, DEFAULT_DEGREE):
        assert err <= (max(dropped, 0.0) + 1e-12 * area) * bound, (i, j)


@pytest.mark.parametrize("npts", range(1, 13))
def test_gauss_rule_matches_leggauss(npts):
    # built with core NumPy; numpy.polynomial's rule, mapped to [0, 1], is the reference
    x, w = np.polynomial.legendre.leggauss(npts)
    t, wt = gauss_rule(npts)
    assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 1e-15
    assert np.max(np.abs(wt - 0.5 * w) / (0.5 * w)) <= 1e-14
    assert np.all(np.diff(t) > 0.0) and np.array_equal(wt, wt[::-1])
