import math

import numpy as np
import pytest

from polystab.hessfit import HessianSurrogate
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, interval, standard_simplex, unit_square
from polystab.quadrature import (
    graded_scheme,
    integrate_boundary,
    integrate_interior,
    map_triangles,
    mesh_graded_scheme,
    split_scheme,
    standard_scheme,
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
    shallow_pts, shallow_wts = G.restricted_to_layers(30)
    assert len(shallow_pts) < len(G.interior_points)
    # shallow rule misses only ~2^-30 of the length
    assert float(np.sum(shallow_wts)) == pytest.approx(1.0, abs=1e-8)


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
