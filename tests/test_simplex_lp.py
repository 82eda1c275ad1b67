from fractions import Fraction

import numpy as np
import pytest

from polystab.errors import LPInfeasible, LPUnbounded
from polystab.simplex_lp import solve_lp


def test_basic_optimum():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.value == pytest.approx(-5.0)
    assert np.allclose(res.x, [3.0, 1.0, 0.0, 0.0])


def test_exact_mode_matches_float():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.value == Fraction(-5)
    assert list(res.x) == [Fraction(3), Fraction(1), Fraction(0), Fraction(0)]


def test_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_unbounded():
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))


def test_degenerate_and_redundant():
    res = solve_lp(np.array([-1.0, 0.0, 0.0]),
                   np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                   np.array([0.0, 1.0]))
    assert res.value == pytest.approx(0.0)
    res2 = solve_lp(np.array([1.0, 1.0]),
                    np.array([[1.0, 1.0], [2.0, 2.0]]),
                    np.array([1.0, 2.0]))
    assert res2.value == pytest.approx(1.0)


def test_determinism():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, size=(6, 10))
    x0 = rng.uniform(0, 1, size=10)
    b = A @ x0
    c = rng.uniform(-1, 1, size=10)
    r1 = solve_lp(c, A, b)
    r2 = solve_lp(c, A, b)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_bland_handles_cycling_prone_problem():
    # classic Beale cycling example (cycles under naive Dantzig pivoting)
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b)
    assert res.value == pytest.approx(-0.05)


def test_float_vs_exact_on_stability_instance():
    from polystab.cone_lp import solve_cone_lp
    from polystab.simplex_lp import solve_cone_lp_exact
    from test_cone_lp import hinge_lp

    # the stability LP of [0, 1] with A = 2 at h = 1/8, normalized at 1/2
    c, idx, coef, b = hinge_lp(np.linspace(0.0, 1.0, 9), 4, 2.0, (1.0, 1.0))
    vf = solve_cone_lp(c, idx, coef, b).value
    vx = solve_cone_lp_exact(c, idx, coef, b)[1]
    assert vf == pytest.approx(float(vx), abs=1e-12)
    assert float(vx) == pytest.approx(0.5, abs=1e-12)
