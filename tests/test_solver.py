import numpy as np
import pytest

from polystab.convex import guillemin_potential
from polystab.functionals import extremal_affine
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, interval, unit_square
from polystab.solver import solve_1d, solve_2d_descent

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
