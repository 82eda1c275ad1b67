import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polystab.convex import components_to_matrices, guillemin_hessian, guillemin_potential
from polystab.errors import EmptyGrid, LineSearchStall, LostConvexity
from polystab.fields import QuadraticPoly
from polystab.functionals import FunctionalEvaluator, extremal_affine
from polystab.hessfit import PointOperator
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, center_of_mass, interval, unit_square
from polystab.quadrature import gauss_rule, mesh_graded_scheme
from polystab.solver import DiscreteEnergy, residual, solve_1d, solve_2d_descent

PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]
# normals off 0/+-1, so the gaps x.h_k - c_k round
TRIANGLE = [((0.617, 0.787), -1.094), ((-0.997, -0.074), -1.127), ((0.952, -0.306), -1.123)]


def _energy(case):
    """DiscreteEnergy of a named case: polytope, field and mesh size."""
    if case == "pentagon-1/5":
        P = build_polytope(PENTAGON)
        return DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 5))
    if case == "triangle-0.2":
        P = build_polytope(TRIANGLE)
        return DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 0.2))
    S = unit_square()
    return DiscreteEnergy(S, 4.0, make_mesh(S, {"square-1/8": 1 / 8, "square-1/2": 1 / 2}[case]))


def test_solve_1d_matches_guillemin_potential():
    # on [0, 1] with A = 2, w = x (1 - x) and u'' = 1/w: u is the Guillemin
    # potential, normalized by u(1/2) = u'(1/2) = 0
    P = interval()
    u, compat = solve_1d(P, 2.0)
    assert compat.compatible
    assert compat.w_end == pytest.approx(0.0, abs=1e-14)
    assert compat.wprime_end == pytest.approx(0.0, abs=1e-14)
    g = guillemin_potential(P)
    x = np.linspace(0.01, 0.99, 33)[:, None]
    assert u.hess(x)[:, 0, 0] == pytest.approx(g.hess(x)[:, 0, 0], rel=1e-12)
    assert u.grad(x)[:, 0] == pytest.approx(g.grad(x)[:, 0], abs=1e-12)
    assert u(x) == pytest.approx(g(x) - g(np.array([[0.5]])), abs=1e-12)


def _per_point_integral(u, p_o, x, kernel):
    """Oracle: integral of kernel(x, s) u''(s) ds from p_o to x (u'' = 1/w),
    one end point at a time, on 12-point Gauss panels with 14 halving panels
    at each end of [p_o, x] and 16 uniform ones between."""
    t, wt = gauss_rule(12)
    g = [0.25 * 2.0 ** (-j) for j in range(14, 0, -1)]
    breaks = np.unique(np.clip([0.0] + g + np.linspace(0.25, 0.75, 17).tolist()
                               + [1.0 - v for v in reversed(g)] + [1.0], 0.0, 1.0))
    out = []
    for xi in x:
        if xi == p_o:
            out.append(0.0)
            continue
        ends = p_o + (xi - p_o) * breaks
        s = (ends[:-1, None] + np.diff(ends)[:, None] * t).ravel()
        w = (np.diff(ends)[:, None] * wt).ravel()
        out.append(float(np.dot(w, kernel(xi, s) * u.hess(s[:, None])[:, 0, 0])))
    return np.array(out)


def _interval_fields(P):
    """The extremal affine field of P and three quadratic ones that also meet
    solve_1d's endpoint conditions: A + c ((x - p)^2 - L (x - p) + L^2 / 6)."""
    p, L = float(P.vertices[0, 0]), float(P.vertices[1, 0] - P.vertices[0, 0])
    A = extremal_affine(P)
    for c in (0.0, 1.0 / L**2, -2.0 / L**2, 4.0 / L**2):
        yield QuadraticPoly(1, (A.a0 + c * (p * p + L * p + L * L / 6.0),
                                A.a[0] - c * (2.0 * p + L), 0.0, c, 0.0, 0.0))


@pytest.mark.parametrize("P", [interval(), build_polytope([((1.0,), -0.3), ((-2.0,), -5.4)])],
                         ids=["unit", "weighted"])
def test_solve_1d_integrals_match_the_per_point_oracle(P):
    # u and u' are taken for all points at once; the oracle takes the same
    # panel rule one point at a time, p_o included
    p, q = float(P.vertices[0, 0]), float(P.vertices[1, 0])
    p_o = float(center_of_mass(P)[0])
    x = np.concatenate([[p_o, p + 1e-9, q - 1e-9], np.linspace(p, q, 601)[1:-1]])
    for A in _interval_fields(P):
        u, compat = solve_1d(P, A)
        assert compat.compatible
        for got, kernel in ((u(x[:, None]), lambda xi, s: xi - s),
                            (u.grad(x[:, None])[:, 0], lambda xi, s: 1.0)):
            ref = _per_point_integral(u, p_o, x, kernel)
            assert got[0] == 0.0
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_1d_rejects_a_field_without_a_polynomial_degree():
    # w = 1/u'' is integrated in closed form, so A must be a polynomial
    with pytest.raises(ValueError, match="polynomial"):
        solve_1d(interval(), lambda p: np.full(len(p), 2.0))


def test_descent_square_keeps_the_exact_solution():
    # A = 4 on the unit square: u_o = sum delta_k log delta_k solves the
    # equation, so the discrete energy is stationary at zero correction and
    # F_A(u_o) = -integral log det Hess u_o + L_A(u_o) = -4 + 2
    S = unit_square()
    mesh = make_mesh(S, 1 / 8)
    state = solve_2d_descent(S, 4.0, mesh)
    assert state.converged
    assert len(state.free) == 9
    assert state.residual_history[0] <= 1e-12
    assert np.max(np.abs(state.f)) == 0.0
    assert state.energy_history[0] == pytest.approx(-2.0, abs=1e-4)
    # from a perturbed start the descent returns to zero correction
    f0 = 1e-2 * np.random.default_rng(7).standard_normal(len(state.free))
    back = solve_2d_descent(S, 4.0, mesh, f0=f0)
    assert back.converged
    assert back.iterations > 0
    assert np.max(np.abs(back.f)) <= 1e-5
    assert back.energy_history[-1] == pytest.approx(state.energy_history[0], abs=1e-12)


def test_energy_history_never_increases():
    P = build_polytope(PENTAGON)
    state = solve_2d_descent(P, extremal_affine(P), make_mesh(P, 1 / 4))
    hist = np.asarray(state.energy_history)
    assert state.converged
    assert len(hist) == state.iterations + 1 > 1
    assert np.all(np.diff(hist) < 0.0)
    assert state.residual_history[-1] <= 1e-6


def full_sample_energy(E, f):
    """Value, margin, gradient and Hessians of E over every sample.

    The reference the restricted kernel is checked against: full 2x2
    Hessians of u_o + f on the whole mesh-graded scheme, rebuilt here since
    the energy keeps only its active samples, and the surrogate's Hessian
    components of the correction there.
    """
    Q = mesh_graded_scheme(E.mesh, 6, 20, 8)
    op = E.surrogate.point_operator(Q.interior_points, Q.interior_cells)
    vals = np.zeros(E.mesh.num_vertices)
    vals[E.free] = f
    comp = op @ vals
    H = E.u_o.hess(Q.interior_points) + components_to_matrices(comp, 2)
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    w = Q.interior_weights
    value = -float(np.dot(w, np.log(det))) + E.lin_const + float(E.lin_free @ f)
    z = np.stack([w * H[:, 1, 1] / det, w * (-2.0 * H[:, 0, 1] / det), w * H[:, 0, 0] / det])
    return value, float(np.min(det)), -op.rmatvec(z)[E.free] + E.lin_free, H, comp


@pytest.mark.parametrize("case", ["pentagon-1/5", "square-1/8", "triangle-0.2",
                                  "square-all-free"])
def test_energy_matches_full_sample_reference(case):
    if case == "square-all-free":
        # every vertex free, so no sample is inactive
        S = unit_square()
        mesh = make_mesh(S, 1 / 4)
        E = DiscreteEnergy(S, 4.0, mesh, margin=-1.0)
        assert len(E.free) == mesh.num_vertices
        assert np.all(E.active)
    else:
        E = _energy(case)
    assert 0 < np.count_nonzero(E.active) <= E.npts
    rng = np.random.default_rng(11)
    for trial in range(3):
        f = 1e-3 * rng.standard_normal(len(E.free))
        ref_value, ref_margin, ref_grad, H, comp = full_sample_energy(E, f)
        value, margin = E.value(f)
        assert value == pytest.approx(ref_value, rel=1e-13)
        assert margin == ref_margin
        assert np.array_equal(E.gradient(f), ref_grad)
        # the correction does not reach an inactive sample, and on the active
        # ones the kernel's Hessians are the full reference's, bit for bit
        assert np.all(comp[:, ~E.active] == 0.0)
        hxx, hxy, hyy, _ = E._active_hessians(f)
        assert np.array_equal(H[E.active, 0, 0], hxx)
        assert np.array_equal(H[E.active, 0, 1], hxy)
        assert np.array_equal(H[E.active, 1, 1], hyy)
        # the gradient of a fresh argument must not reuse the previous Hessians
        g = f + 1e-4
        assert np.array_equal(E.gradient(g), full_sample_energy(E, g)[2])


@pytest.mark.parametrize("case", ["pentagon-1/5", "square-1/8", "triangle-0.2", "square-1/2"])
def test_streamed_setup_matches_the_whole_rule(case):
    # the energy maps only the active cells' triangles and streams the rest;
    # the whole mesh-graded rule, built here, must give the same samples
    E = _energy(case)
    Q = mesh_graded_scheme(E.mesh, 6, 20, 8)
    active = E.surrogate.reads(E.free)[E.mesh.cells].any(axis=1)[Q.interior_cells]
    assert E.npts == len(Q.interior_weights)
    assert np.array_equal(E.active, active)
    assert np.array_equal(E.w, Q.interior_weights[active])
    hxx, hxy, hyy = guillemin_hessian(E.polytope, Q.interior_points)
    assert np.array_equal(E.h_o, np.stack([hxx, hxy, hyy])[:, active])
    det = (hxx * hyy - hxy * hxy)[~active]
    assert E.fixed_margin == det.min(initial=np.inf)
    logdet = float(np.dot(Q.interior_weights[~active], np.log(det)))
    assert E.fixed_logdet == pytest.approx(logdet, rel=1e-13)
    if case == "square-1/2":
        assert len(E.free) == 0 and not np.any(E.active)


def test_gradient_does_not_reuse_a_mutated_argument():
    S = unit_square()
    E = DiscreteEnergy(S, 4.0, make_mesh(S, 1 / 8))
    f = 1e-3 * np.arange(len(E.free))
    E.value(f)
    f *= -1.0
    assert np.array_equal(E.gradient(f), full_sample_energy(E, f)[2])


def test_gradient_matches_central_differences():
    # checks the gradient against value alone, so a wrong transpose in the
    # point operator cannot cancel out as it would against the reference
    P = build_polytope(PENTAGON)
    E = DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 5))
    rng = np.random.default_rng(5)
    f = 1e-3 * rng.standard_normal(len(E.free))
    g = E.gradient(f)
    eps = 1e-5
    for _ in range(3):
        d = rng.standard_normal(len(E.free))
        d /= np.linalg.norm(d)
        slope = (E.value(f + eps * d)[0] - E.value(f - eps * d)[0]) / (2.0 * eps)
        assert slope == pytest.approx(float(g @ d), rel=1e-6)


def test_hessian_matches_central_differences():
    # the Newton matrix against the gradient alone, so the pair sums and the
    # fit maps in PointOperator.gram are checked independently of rmatvec
    P = build_polytope(PENTAGON)
    E = DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 5))
    rng = np.random.default_rng(3)
    f = 1e-3 * rng.standard_normal(len(E.free))
    H = E.hessian(f)
    assert H.shape == (len(E.free), len(E.free))
    assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
    eps = 1e-5
    for _ in range(3):
        d = rng.standard_normal(len(E.free))
        d /= np.linalg.norm(d)
        fd = (E.gradient(f + eps * d) - E.gradient(f - eps * d)) / (2.0 * eps)
        assert np.linalg.norm(fd - H @ d) <= 1e-6 * np.linalg.norm(H @ d)


def _entries(K):
    """The distinct entries K[:, r, c], r <= c, of (m, 3, 3) blocks, as gram reads them."""
    return [K[:, r, c] for r, c in zip(*np.triu_indices(3))]


def test_gram_matches_dense_reference():
    # op^T K op from the dense operator, one column per vertex; gram sums
    # only the distinct entries over unordered vertex pairs and mirrors them
    P = build_polytope(PENTAGON)
    E = DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 3))
    rng = np.random.default_rng(5)
    m = E.op.tri.shape[1]
    K = rng.standard_normal((m, 3, 3))
    K = K + K.transpose(0, 2, 1)
    V = E.op.shape[1]
    dense = np.stack([E.op @ np.eye(V)[j] for j in range(V)])  # (V, 3, m)
    ref = np.einsum("akp,pkl,blp->ab", dense, K, dense)[np.ix_(E.free, E.free)]
    G = E.op.gram(_entries(K), E.free)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gram_structure_is_rebuilt_for_new_columns():
    # the pair sums and the column scatter are built once per operator; a
    # second column set, and a return to the first, read as a fresh operator
    P = build_polytope(PENTAGON)
    E = DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 5))
    K = E.w[:, None, None] * np.random.default_rng(9).standard_normal((len(E.w), 3, 3))
    K = K + K.transpose(0, 2, 1)
    op = E.op
    for cols in (E.free, E.free[::2], np.arange(op.shape[1]), E.free):
        fresh = PointOperator(op.surrogate, op.cells, op.bary)
        assert np.array_equal(op.gram(_entries(K), cols), fresh.gram(_entries(K), cols))


def test_energy_setup_holds_one_large_rule_at_a_time():
    # L_A(u_o) is taken on the 40-layer graded rule before any mesh-graded
    # sample exists, the inactive samples are streamed, and neither rule nor
    # the evaluator is kept (measured: peak 3.0 MB, held 1.1 MB; bounds about +50 %)
    P = build_polytope(PENTAGON)
    A, mesh = extremal_affine(P), make_mesh(P, 1 / 5)
    DiscreteEnergy(P, A, mesh)  # warm-up: imports and first-use caches
    tracemalloc.start()
    try:
        E = DiscreteEnergy(P, A, mesh)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6
    assert held <= 1.7e6
    assert not hasattr(E, "evaluator")
    assert not hasattr(E, "scheme")


def test_first_newton_matrix_makes_no_per_point_blocks():
    # gram sums K's six distinct entries one (m,) column at a time over the
    # active cells, so no (m, 3, 3) block or per-point pair key is made
    # (measured: 1.5 MB traced on the pentagon at h = 1/5, 1.8 MB before the
    # energy kept the Hessians of value(f); bound 1.8 MB + 50 %)
    P = build_polytope(PENTAGON)
    A, mesh = extremal_affine(P), make_mesh(P, 1 / 5)
    for warm_up in (True, False):  # the first pass fills first-use caches
        E = DiscreteEnergy(P, A, mesh)
        f = np.zeros(len(E.free))
        E.value(f)
        if warm_up:
            E.hessian(f)
    tracemalloc.start()
    try:
        E.hessian(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6


def test_guillemin_setup_integrals_take_one_facet_fan_at_a_time(monkeypatch):
    # L_A(u_o) sums the 40-layer graded rule a few layers of one facet fan at
    # a time, with no standard rule, and Hess u_o on the mesh-graded samples
    # is summed from (m,) gap columns, so neither the whole rule nor an (m, K)
    # array exists (measured: 0.87 MB and 3.0 MB traced; bounds about +50 %)
    import polystab.functionals

    P = build_polytope(PENTAGON)
    A, mesh, u_o = extremal_affine(P), make_mesh(P, 1 / 5), guillemin_potential(P)
    DiscreteEnergy(P, A, mesh)  # warm-up: imports and first-use caches

    def unbuilt(*args, **kwargs):
        raise AssertionError("the standard rule was built")

    monkeypatch.setattr(polystab.functionals, "standard_scheme", unbuilt)
    peaks = []
    for build in (lambda: FunctionalEvaluator(P, A, degree=6, layers=40).linear_functional(u_o),
                  lambda: DiscreteEnergy(P, A, mesh)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.3e6
    assert peaks[1] <= 4.5e6


def test_linear_constant_is_the_graded_evaluator_value():
    P = build_polytope(PENTAGON)
    A = extremal_affine(P)
    E = DiscreteEnergy(P, A, make_mesh(P, 1 / 5))
    ev = FunctionalEvaluator(P, A, degree=6, layers=40)
    assert E.lin_const == ev.linear_functional(guillemin_potential(P))


def test_newton_on_the_pentagon_applies_the_point_operator_once_per_iterate(monkeypatch):
    # the energy keeps the active Hessians of the last iterate, so the
    # gradient and the Newton matrix at an accepted trial reuse its value's;
    # the energies are the ones computed before that reuse
    P = build_polytope(PENTAGON)
    seen, calls = [], {"value": 0, "gradient": 0, "hessian": 0, "matmul": 0}

    def counted(cls, name, key):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[key] += 1
            if cls is DiscreteEnergy:
                seen.append(np.array(args[0], copy=True))
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(DiscreteEnergy, "value", "value")
    counted(DiscreteEnergy, "gradient", "gradient")
    counted(DiscreteEnergy, "hessian", "hessian")
    counted(PointOperator, "__matmul__", "matmul")
    state = solve_2d_descent(P, extremal_affine(P), make_mesh(P, 1 / 5))
    assert state.converged and state.iterations == 3
    assert state.energy_history == pytest.approx(
        [-2.3259122299769004, -2.3308155140160745, -2.330817739400291, -2.330817739404641],
        rel=1e-12, abs=0.0)
    assert calls["value"] == calls["gradient"] == 4
    distinct = {f.tobytes() for f in seen}
    assert len(distinct) == 4
    assert calls["matmul"] == len(distinct)


def test_newton_converges_at_the_default_mesh_size():
    # h = 1/16 has 1,056 free vertices; the step count does not grow with them
    P = build_polytope(PENTAGON)
    state = solve_2d_descent(P, extremal_affine(P), make_mesh(P, 1 / 16))
    assert state.converged
    assert 0 < state.iterations <= 10
    assert state.residual_history[-1] <= 1e-6
    assert np.all(np.diff(state.energy_history) < 0.0)


@functools.lru_cache(maxsize=None)
def _square_h8():
    S = unit_square()
    mesh = make_mesh(S, 1 / 8)
    return S, mesh, DiscreteEnergy(S, 4.0, mesh)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.floats(-1e-2, 1e-2), min_size=9, max_size=9))
def test_newton_returns_to_the_exact_solution_on_the_square(start):
    # A = 4 on the unit square: the exact discrete minimizer is f = 0
    S, mesh, E = _square_h8()
    f0 = np.array(start)
    assume(np.isfinite(E.value(f0)[0]))  # e.g. a +-1e-2 checkerboard is not convex
    state = solve_2d_descent(S, 4.0, mesh, f0=f0)
    assert state.converged
    assert state.iterations <= 10
    assert np.max(np.abs(state.f)) <= 1e-5
    assert np.all(np.diff(state.energy_history) < 0.0)


@pytest.mark.parametrize("h, energy", [(1 / 2, -1.9999771524254237),
                                       (0.3, -1.9999854091102431)])
def test_descent_without_free_vertices(h, energy):
    S = unit_square()
    state = solve_2d_descent(S, 4.0, make_mesh(S, h))
    assert len(state.free) == 0
    assert not np.any(state.energy.active)
    assert state.converged
    assert state.iterations == 0
    assert state.energy_history == [pytest.approx(energy, rel=1e-12)]
    assert state.convexity_margin > 0.0


def test_descent_rejects_a_nonconvex_start():
    # a mesa of height 100 on the free vertices: its rim is strongly concave
    S = unit_square()
    mesh = make_mesh(S, 1 / 8)
    E = DiscreteEnergy(S, 4.0, mesh)
    f0 = np.full(len(E.free), 100.0)
    assert E.value(f0) == (np.inf, 0.0)
    with pytest.raises(LostConvexity):
        solve_2d_descent(S, 4.0, mesh, f0=f0)


def _reject_every_trial(monkeypatch):
    """Let only the first energy evaluation (the start) through."""
    value = DiscreteEnergy.value
    calls = []

    def first_only(self, f):
        calls.append(1)
        return value(self, f) if len(calls) == 1 else (np.inf, 0.0)

    monkeypatch.setattr(DiscreteEnergy, "value", first_only)
    return calls


def test_descent_stalls_when_every_trial_fails(monkeypatch):
    S = unit_square()
    mesh = make_mesh(S, 1 / 8)
    f0 = 1e-2 * np.random.default_rng(7).standard_normal(9)
    calls = _reject_every_trial(monkeypatch)
    with pytest.raises(LineSearchStall):
        solve_2d_descent(S, 4.0, mesh, f0=f0)
    assert len(calls) > 40  # the step was halved down to 1e-14


def test_descent_stops_at_float_resolution(monkeypatch):
    # near the minimum the Armijo decrease is below the energy's float
    # resolution: a failed line search there ends the descent without error
    S = unit_square()
    mesh = make_mesh(S, 1 / 8)
    calls = _reject_every_trial(monkeypatch)
    state = solve_2d_descent(S, 4.0, mesh, f0=np.full(9, 1e-9), tol=0.0)
    assert state.meta["stopped"] == "float-resolution"
    assert not state.converged
    assert state.iterations == 0
    assert 0.0 < state.residual_history[0] < 1e-6
    assert len(calls) > 40


@pytest.mark.parametrize("P, margin", [(interval(), 0.51), (unit_square(), 0.6)],
                         ids=["interval", "square"])
def test_residual_with_no_sample_at_the_margin_raises(P, margin):
    # the samples lie at boundary distance >= margin; beyond half the width
    # there are none (the square's max reached "zero-size array" before)
    with pytest.raises(EmptyGrid, match=f"distance >= {margin!r}"):
        residual(guillemin_potential(P), 1.0, P, margin=margin)
