import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polystab.convex import guillemin_potential
from polystab.errors import LineSearchStall, LostConvexity
from polystab.functionals import extremal_affine
from polystab.hessfit import components_to_matrices
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, interval, unit_square
from polystab.solver import DiscreteEnergy, solve_1d, solve_2d_descent

PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]


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
    Hessians of u_o + f on the whole mesh-graded scheme, and the surrogate's
    Hessian components of the correction there.
    """
    Q = E.scheme
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


@pytest.mark.parametrize("case", ["pentagon-1/5", "square-1/8", "square-all-free"])
def test_energy_matches_full_sample_reference(case):
    if case == "pentagon-1/5":
        P = build_polytope(PENTAGON)
        E = DiscreteEnergy(P, extremal_affine(P), make_mesh(P, 1 / 5))
    elif case == "square-1/8":
        S = unit_square()
        E = DiscreteEnergy(S, 4.0, make_mesh(S, 1 / 8))
    else:
        # every vertex free, so no sample is inactive
        S = unit_square()
        mesh = make_mesh(S, 1 / 4)
        E = DiscreteEnergy(S, 4.0, mesh, margin=-1.0)
        assert len(E.free) == mesh.num_vertices
        assert np.all(E.active)
    assert 0 < np.count_nonzero(E.active) <= E.npts == len(E.scheme.interior_weights)
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
    G = E.op.gram(K, E.free)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


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
