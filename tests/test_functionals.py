import gc

import numpy as np
import pytest

from polystab.convex import (
    AffineFunc,
    MeshConvexFunc,
    SmoothConvexFunc,
    crease,
    guillemin_potential,
)
from polystab.errors import NeedsSmoothFunction, NonConvexAtQuadraturePoint, SingularHessian
from polystab.functionals import (
    FunctionalEvaluator,
    as_field,
    extremal_affine,
    mesh_linear_forms,
)
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, interval, standard_simplex, unit_square
from polystab.quadrature import (
    DEFAULT_DEGREE,
    graded_scheme,
    integrate_boundary,
    integrate_interior,
    map_triangles,
)

PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]


def smooth_1d(value, d1, d2, P):
    return SmoothConvexFunc(lambda p: value(p[:, 0]),
                            lambda p: np.column_stack([d1(p[:, 0])]),
                            lambda p: d2(p[:, 0])[:, None, None], 1, domain=P)


@pytest.fixture(scope="module")
def ev_interval():
    return FunctionalEvaluator(interval(), 2.0)


@pytest.fixture(scope="module")
def ev_square():
    return FunctionalEvaluator(unit_square(), 4.0)


# -- boundary norm and linear functional --------------------------------------

def test_boundary_norm_examples(ev_interval, ev_square):
    u = crease(AffineFunc(-0.5, (1.0,)))
    assert ev_interval.boundary_norm(u) == pytest.approx(0.5, rel=1e-14)
    uo = guillemin_potential(interval())
    assert ev_interval.boundary_norm(uo) == pytest.approx(0.0, abs=1e-12)
    xy = AffineFunc(0.0, (1.0, 1.0))
    assert ev_square.boundary_norm(xy) == pytest.approx(4.0, rel=1e-13)


def test_linear_functional_examples(ev_interval):
    u = crease(AffineFunc(-0.5, (1.0,)))
    assert ev_interval.linear_functional(u) == pytest.approx(0.25, rel=1e-14)
    uo = guillemin_potential(interval())
    assert ev_interval.linear_functional(uo) == pytest.approx(1.0, abs=1e-7)


def test_linear_functional_kills_affines_for_extremal_A():
    rng = np.random.default_rng(5)
    for P in (interval(), unit_square(), standard_simplex()):
        A = extremal_affine(P)
        ev = FunctionalEvaluator(P, A)
        n = P.dimension
        for _ in range(100):
            ell = AffineFunc(rng.uniform(-10, 10), tuple(rng.uniform(-10, 10, size=n)))
            assert abs(ev.linear_functional(ell)) <= 1e-9


def pl_combination(a, u, b, w):
    """a*u + b*w for PL u, w (a, b >= 0): pieces are pairwise sums."""
    from polystab.convex import PLConvexFunc

    pieces = []
    for p in u.pieces:
        for q in w.pieces:
            pieces.append(AffineFunc(
                a * p.a0 + b * q.a0,
                tuple(a * np.asarray(p.a) + b * np.asarray(q.a))))
    return PLConvexFunc(tuple(pieces))


def test_linear_functional_is_linear(ev_interval):
    rng = np.random.default_rng(9)
    u = crease(AffineFunc(-0.3, (1.0,)))
    w = crease(AffineFunc(0.7, (-1.0,)))
    Lu = ev_interval.linear_functional(u)
    Lw = ev_interval.linear_functional(w)
    for _ in range(5):
        a, b = rng.uniform(0, 5, size=2)
        val = ev_interval.linear_functional(pl_combination(a, u, b, w))
        assert val == pytest.approx(a * Lu + b * Lw, abs=1e-10)


# -- extremal affine -----------------------------------------------------------

def test_extremal_affine_fixtures():
    A_i = extremal_affine(interval())
    assert A_i.a0 == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(A_i.a, 0.0, atol=1e-9)
    A_s = extremal_affine(unit_square())
    assert A_s.a0 == pytest.approx(4.0, abs=1e-9)
    A_t, res = extremal_affine(standard_simplex(), return_residuals=True)
    assert A_t.a0 == pytest.approx(6.0, abs=1e-9)
    assert np.allclose(A_t.a, 0.0, atol=1e-9)
    assert np.max(res) <= 1e-10


def test_extremal_affine_is_exact_on_the_interval_and_the_square():
    # their moments, boundary pieces and midpoints are exact in binary, and so
    # is the solve of the moment system
    assert extremal_affine(interval()) == AffineFunc(2.0, (0.0,))
    assert extremal_affine(unit_square()) == AffineFunc(4.0, (0.0, 0.0))


def test_extremal_affine_shifted_interval():
    P = build_polytope([((1.0,), 0.0), ((-1.0,), -2.0)])
    A = extremal_affine(P)
    assert A.a0 + A.a[0] * 1.0 == pytest.approx(1.0, abs=1e-9)  # A == 1 on [0,2]
    assert A.a[0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e4])
@pytest.mark.parametrize("facets", [
    [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, -1.0), -1.0)],
    [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0), ((0.0, -1.0), -2.0),
     ((-1.0, -1.0), -4.0)],
], ids=["simplex", "pentagon"])
def test_extremal_affine_is_scale_free(facets, s):
    # dsigma scales as s^(n-1) and dmu as s^n, so A_{sP}(s x) = A_P(x) / s
    P = build_polytope(facets)
    Ps = build_polytope([(h, c * s) for h, c in facets])
    x = np.vstack([P.vertices, P.vertices.mean(axis=0)])
    A, As = extremal_affine(P), extremal_affine(Ps)
    assert np.max(np.abs(s * As(s * x) - A(x)) / np.abs(A(x))) <= 1e-10


# -- Mabuchi functional ----------------------------------------------------------

def test_mabuchi_guillemin_interval(ev_interval):
    uo = guillemin_potential(interval())
    m = ev_interval.mabuchi(uo)
    assert m.value == pytest.approx(-1.0, abs=1e-6)
    assert m.log_det_term == pytest.approx(-2.0, abs=1e-6)
    assert m.truncation_estimate <= 1e-4


def test_mabuchi_guillemin_square(ev_square):
    uo = guillemin_potential(unit_square())
    m = ev_square.mabuchi(uo)
    assert m.value == pytest.approx(-2.0, abs=1e-6)
    assert m.truncation_estimate <= 1e-4


@pytest.mark.parametrize("P", [build_polytope(PENTAGON), unit_square(), standard_simplex(),
                               interval(-0.5, 2.0)],
                         ids=["pentagon", "square", "simplex", "interval"])
def test_guillemin_integrals_stream_the_graded_rule(P, monkeypatch):
    # |u_o|_b and L_A(u_o) are summed one facet fan at a time and agree with
    # sums over the whole graded rule; the evaluator builds neither that rule
    # nor the standard one to get them.  F_A(u_o) reads the evaluator's whole
    # graded rule, built once however many energies are taken
    import polystab.functionals

    A, u = extremal_affine(P), guillemin_potential(P)
    G = graded_scheme(P, DEFAULT_DEGREE, layers=40)
    x, w = G.interior_points, G.interior_weights
    bn = integrate_boundary(u, P, G)
    lin = bn - float(np.dot(w, A(x) * u(x)))
    H = u.hess(x)
    logdet = np.log(H[:, 0, 0] if P.dimension == 1
                    else H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0])
    term = -float(np.dot(w, logdet))
    deep = G.interior_layers >= 30
    trunc = abs(float(np.dot(w[deep], logdet[deep])))
    assert trunc > 0.0

    def unbuilt(*args, **kwargs):
        raise AssertionError("a whole rule was built")

    built = []
    monkeypatch.setattr(polystab.functionals, "graded_scheme",
                        lambda *args, **kwargs: built.append(args) or G)
    monkeypatch.setattr(polystab.functionals, "standard_scheme", unbuilt)
    ev = FunctionalEvaluator(P, A)
    assert ev.norm_and_linear(u) == pytest.approx((bn, lin), rel=1e-13)
    assert ev.boundary_norm(u) == pytest.approx(bn, rel=1e-13)
    assert ev.linear_functional(u) == pytest.approx(lin, rel=1e-13)
    assert built == [] and "graded" not in vars(ev)
    m = ev.mabuchi(u)
    assert m.log_det_term == pytest.approx(term, rel=1e-13)
    assert m.linear_term == ev.linear_functional(u)  # the streamed blocks, in order
    assert m.value == pytest.approx(term + lin, rel=1e-13)
    assert m.truncation_estimate == pytest.approx(trunc, rel=1e-13)
    assert ev.mabuchi(u).value == m.value
    assert len(built) == 1 and ev.graded is G and "scheme" not in vars(ev)


def test_mabuchi_scaling_identity(ev_interval):
    # F_A(r u) = F_A(u) - n Vol log r + (r - 1) L_A(u)
    uo = guillemin_potential(interval())
    r = 2.0
    ru = SmoothConvexFunc(lambda p: r * uo(p), lambda p: r * uo.grad(p),
                          lambda p: r * uo.hess(p), 1, domain=uo.domain,
                          guillemin_type=True)
    m1 = ev_interval.mabuchi(uo)
    m2 = ev_interval.mabuchi(ru)
    lau = ev_interval.linear_functional(uo)
    assert m2.value == pytest.approx(m1.value - np.log(r) + (r - 1) * lau, abs=1e-6)


def test_mabuchi_rejects_nonconvex(ev_interval):
    P = interval()
    bad = smooth_1d(lambda x: -x**2, lambda x: -2 * x, lambda x: np.full_like(x, -2.0), P)
    with pytest.raises(NonConvexAtQuadraturePoint):
        ev_interval.mabuchi(bad)


def test_mabuchi_gradient_check():
    # first variation of the discretized log-det term vs central differences
    P = interval()
    ev = FunctionalEvaluator(P, 2.0)
    u = smooth_1d(lambda x: np.exp(x), lambda x: np.exp(x), lambda x: np.exp(x), P)
    phi2 = lambda x: np.sin(2 * x) * 0.2 + 0.3  # second derivative field of the direction

    def shifted(t):
        return smooth_1d(lambda x: np.exp(x), lambda x: np.exp(x),
                         lambda x: np.exp(x) + t * phi2(x), P)

    Q = ev.scheme
    exact = -integrate_interior(
        lambda p: phi2(p[:, 0]) / np.exp(p[:, 0]), P, Q)
    t = 1e-5

    def logdet_term(v):
        H = v.hess(Q.interior_points)
        return -float(np.dot(Q.interior_weights, np.log(H[:, 0, 0])))

    fd = (logdet_term(shifted(t)) - logdet_term(shifted(-t))) / (2 * t)
    assert fd == pytest.approx(exact, rel=1e-6)


def test_mabuchi_and_ibp_of_a_mesh_function_need_a_smooth_function():
    # F_A is +infinity on a piecewise-linear function, so a mesh function gets
    # the error a PLConvexFunc gets; its linear functional is still defined
    S = unit_square()
    m = make_mesh(S, 1 / 8)
    u = MeshConvexFunc(m, np.sum((m.vertices - 0.4) ** 2, axis=1))
    for P, pls in ((interval(), [crease(AffineFunc(-0.4, (1.0,)))]),
                   (S, [u, crease(AffineFunc(-0.4, (1.0, 1.0)))])):
        ev = FunctionalEvaluator(P, 2.0)
        v = guillemin_potential(P)
        for pl in pls:
            with pytest.raises(NeedsSmoothFunction):
                ev.mabuchi(pl)
            with pytest.raises(NeedsSmoothFunction):
                ev.ibp_integral(v, pl)
    assert np.isfinite(ev.linear_functional(u))


# -- Abreu operator ---------------------------------------------------------------

def test_abreu_guillemin_interval(ev_interval):
    uo = guillemin_potential(interval())
    pts = np.linspace(0.1, 0.9, 9)[:, None]
    vals = ev_interval.abreu_operator(uo, pts)
    assert np.max(np.abs(vals - 2.0)) <= 1e-6


def test_abreu_guillemin_simplex():
    T = standard_simplex()
    ev = FunctionalEvaluator(T, 6.0)
    uo = guillemin_potential(T)
    gx = np.linspace(0.08, 0.8, 8)
    pts = np.array([[x, y] for x in gx for y in gx if x + y < 0.88])
    vals = ev.abreu_operator(uo, pts)
    assert np.max(np.abs(vals - 6.0)) <= 1e-3
    # cross-check along the diagonal against the 1D reduction value
    diag = np.array([[t, t] for t in np.linspace(0.1, 0.45, 6)])
    assert np.max(np.abs(ev.abreu_operator(uo, diag) - 6.0)) <= 1e-6


def test_abreu_quadratic_zero(ev_square):
    q = SmoothConvexFunc(lambda p: p[:, 0] ** 2 + 0.5 * p[:, 1] ** 2,
                         lambda p: np.column_stack([2 * p[:, 0], p[:, 1]]),
                         lambda p: np.tile(np.diag([2.0, 1.0]), (p.shape[0], 1, 1)),
                         2, domain=unit_square())
    pts = np.array([[0.3, 0.4], [0.6, 0.5], [0.5, 0.7]])
    assert np.max(np.abs(ev_square.abreu_operator(q, pts))) <= 1e-12


def test_abreu_singular_hessian_raises(ev_interval):
    P = interval()
    flat = smooth_1d(lambda x: x * 0, lambda x: x * 0, lambda x: x * 0 + 1e-15, P)
    with pytest.raises(SingularHessian):
        ev_interval.abreu_operator(flat, np.array([[0.5]]))


def test_abreu_second_order_in_h_fd():
    # the Guillemin fixtures have quadratic inverse Hessians (differences are
    # exact there), so the rate is certified on a non-polynomial case
    P = interval()
    ev = FunctionalEvaluator(P, 0.0)
    u = smooth_1d(lambda x: np.exp(x), lambda x: np.exp(x), lambda x: np.exp(x), P)
    pts = np.array([[0.35], [0.5], [0.71]])
    exact = -np.exp(-pts[:, 0])  # -(e^{-x})'' = -e^{-x}
    e1 = np.max(np.abs(ev.abreu_operator(u, pts, h_fd=2e-3) - exact))
    e2 = np.max(np.abs(ev.abreu_operator(u, pts, h_fd=1e-3) - exact))
    assert 3.5 <= e1 / e2 <= 4.5
    T = standard_simplex()
    evT = FunctionalEvaluator(T, 0.0)
    u2 = SmoothConvexFunc(
        lambda p: np.exp(p[:, 0]) + np.exp(p[:, 1]),
        lambda p: np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])]),
        lambda p: np.stack([np.diag(v) for v in
                            np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])])]),
        2, domain=T)
    pts2 = np.array([[0.2, 0.3], [0.3, 0.2], [0.25, 0.25]])
    exact2 = -(np.exp(-pts2[:, 0]) + np.exp(-pts2[:, 1]))
    d1 = np.max(np.abs(evT.abreu_operator(u2, pts2, h_fd=2e-3) - exact2))
    d2 = np.max(np.abs(evT.abreu_operator(u2, pts2, h_fd=1e-3) - exact2))
    assert 3.5 <= d1 / d2 <= 4.5


# -- integration-by-parts identity ---------------------------------------------

def test_ibp_closed_forms(ev_interval):
    P = interval()
    uo = guillemin_potential(P)
    xsq = smooth_1d(lambda x: x**2, lambda x: 2 * x, lambda x: np.full_like(x, 2.0), P)
    lhs, rhs, gap = ev_interval.ibp_identity_check(uo, xsq)
    assert lhs == pytest.approx(1 / 3, abs=1e-7)
    assert rhs == pytest.approx(1 / 3, abs=1e-7)
    assert gap <= 1e-6
    lhs, rhs, gap = ev_interval.ibp_identity_check(uo, AffineFunc(0.2, (0.9,)))
    assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-12 and gap <= 1e-6
    lhs, rhs, gap = ev_interval.ibp_identity_check(uo, uo)
    assert lhs == pytest.approx(1.0, abs=1e-6)
    assert rhs == pytest.approx(1.0, abs=1e-9)
    assert gap <= 1e-6


def test_ibp_random_smooth_on_square(ev_square):
    rng = np.random.default_rng(17)
    P = unit_square()
    uo = guillemin_potential(P)
    for _ in range(5):
        d = rng.uniform(0.5, 3.0, size=2)
        off = -rng.uniform(0.0, 0.7) * np.sqrt(d[0] * d[1])
        z = rng.uniform(0.2, 0.8, size=2)
        Q = np.array([[d[0], off], [off, d[1]]])

        def val(p, Q=Q, z=z):
            dx = p - z
            return 0.5 * np.einsum("mi,ij,mj->m", dx, Q, dx)

        u = SmoothConvexFunc(val,
                             lambda p, Q=Q, z=z: (p - z) @ Q,
                             lambda p, Q=Q: np.tile(Q, (p.shape[0], 1, 1)),
                             2, domain=P)
        lhs, rhs, gap = ev_square.ibp_identity_check(uo, u)
        assert gap <= 1e-4


# -- assembly consistency ---------------------------------------------------------

def test_mesh_linear_forms_match_evaluator():
    P = unit_square()
    A = extremal_affine(P)
    ev = FunctionalEvaluator(P, A)
    m = make_mesh(P, 1 / 8)
    b, a = mesh_linear_forms(m, A)
    rng = np.random.default_rng(23)
    vals = rng.uniform(0, 1, size=m.num_vertices)
    u = MeshConvexFunc(m, vals)
    assert ev.boundary_norm(u) == pytest.approx(float(b @ vals), abs=1e-13)
    assert ev.interior_integral(u) == pytest.approx(float(a @ vals), abs=1e-13)


def test_mesh_linear_forms_match_cell_by_cell_loop():
    # the assembly is one batch over cells; this loop is the reference, one
    # np.dot per cell and vertex, added in cell order
    P = build_polytope(PENTAGON)
    m = make_mesh(P, 0.3)
    A = AffineFunc(1.5, (-2.0, 0.5))
    ref = np.zeros(m.num_vertices)
    for k, cell in enumerate(m.cells):
        p, w = map_triangles(m.vertices[cell][None], DEFAULT_DEGREE)
        wA = w * as_field(A, 2)(p)
        for v, lam in zip(cell, np.ascontiguousarray(m.barycentric(np.full(len(w), k), p).T)):
            ref[v] += np.dot(wA, lam)
    assert np.array_equal(mesh_linear_forms(m, A)[1], ref)


def test_volume(ev_square):
    assert ev_square.polytope.moments[0, 0] == pytest.approx(1.0, rel=1e-13)


def test_mesh_caches_survive_freed_meshes():
    # one evaluator over a sequence of meshes that are freed in turn: a cache
    # keyed by id(mesh) alone can hand a new mesh the data of a dead one
    S = unit_square()
    ev = FunctionalEvaluator(S, 4.0)
    for h in (1 / 8, 1 / 16) * 4:
        mesh = make_mesh(S, h)
        u = MeshConvexFunc(mesh, np.sum((mesh.vertices - 0.5) ** 2, axis=1))
        fresh = FunctionalEvaluator(S, 4.0)
        assert ev.linear_functional(u) == fresh.linear_functional(u)
        del mesh, u, fresh
        gc.collect()


def test_mesh_caches_check_identity_not_only_id(monkeypatch):
    # force every id() seen by the evaluator's caches to collide, as CPython
    # may do for a mesh allocated where a freed one lived
    import polystab.functionals as functionals

    S = unit_square()
    meshes = [make_mesh(S, h) for h in (1 / 4, 1 / 8, 1 / 4)]
    funcs = [MeshConvexFunc(m, np.sum((m.vertices - 0.5) ** 2, axis=1)) for m in meshes]
    expected = [FunctionalEvaluator(S, 4.0).linear_functional(u) for u in funcs]
    ev = FunctionalEvaluator(S, 4.0)
    monkeypatch.setattr(functionals, "id", lambda obj: 0, raising=False)
    assert [ev.linear_functional(u) for u in funcs] == expected
