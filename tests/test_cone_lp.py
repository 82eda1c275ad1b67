import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polystab.cone_lp as cone_lp
from polystab.convex import AffineFunc
from polystab.errors import LPNotConverged
from polystab.mesh import make_mesh
from polystab.polytope import interval, standard_simplex, unit_square
from polystab.stability import StabilityLP

PROBLEMS = ("minimize_linear_functional", "minimize_linear_functional_mass", "maximize_mass")


def _in_cone(lp, u, tol=1e-12):
    """u >= 0, u(p_o) = 0 and every convexity row >= 0, relative to the row size."""
    idx, coef = lp.rows
    v = u.values[lp.free]
    rows = np.einsum("ij,ij->i", coef, v[idx]) / np.linalg.norm(coef, axis=1)
    scale = np.max(np.abs(v))
    return (u.values[lp.p_o_index] == 0.0 and np.min(v) >= -tol * scale
            and np.min(rows) >= -tol * scale)


@pytest.mark.parametrize("P, A, h", [(interval(), 2.0, 1 / 8), (unit_square(), 4.0, 1 / 4),
                                     (standard_simplex(), 6.0, 1 / 4)],
                         ids=["interval", "square", "simplex"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_interior_point_matches_exact_simplex(P, A, h, problem):
    lp = StabilityLP(P, A, make_mesh(P, h))
    vf, uf, _ = getattr(lp, problem)(mode="float")
    vx, _, _ = getattr(lp, problem)(mode="exact")
    assert abs(vf - vx) <= 1e-10
    assert _in_cone(lp, uf)


@settings(max_examples=25, deadline=None)
@example(a=0.0, w=1.0, c0=1.0, c1=1e-8)  # A all but extremal: L_A nearly flat on affine u
@given(a=st.floats(-10.0, 10.0), w=st.floats(1e-3, 1e3),
       c0=st.floats(-10.0, 10.0), c1=st.floats(-10.0, 10.0))
def test_interior_point_matches_exact_simplex_on_intervals(a, w, c0, c1):
    # A(x) = (c0 + c1 (x - a) / w) / w keeps L_A of order one at every width
    P = interval(a, a + w)
    A = AffineFunc((c0 - c1 * a / w) / w, (c1 / w**2,))
    lp = StabilityLP(P, A, make_mesh(P, w / 8))
    vf, uf, _ = lp.minimize_linear_functional(mode="float")
    vx, _, _ = lp.minimize_linear_functional(mode="exact")
    assert abs(vf - vx) <= 1e-10 * max(1.0, abs(vx))
    assert _in_cone(lp, uf)


@pytest.mark.parametrize("P, A, h, delta", [
    (interval(), (2.0, (1.0,)), 1 / 16, 2e-9),
    (interval(), (2.0, (1.0,)), 1 / 16, -1e-6),
    (interval(), (2.0, (1.0,)), 1 / 16, 1e-4),
    (unit_square(), (4.0, (1.0, 1.0)), 1 / 4, 2e-9),
], ids=["interval-2e-9", "interval--1e-6", "interval-1e-4", "square-2e-9"])
def test_nearly_extremal_field_reaches_the_exact_optimum(P, A, h, delta):
    # A = extremal + delta (x - centre): the objective is nearly flat along
    # the affine functions, and the optimum sits at one end of that face
    a0, slope = A
    centre = P.vertices.mean(axis=0)
    field = AffineFunc(a0 - delta * float(np.dot(slope, centre)), tuple(delta * np.array(slope)))
    lp = StabilityLP(P, field, make_mesh(P, h))
    for problem in PROBLEMS:
        vf, uf, _ = getattr(lp, problem)(mode="float")
        vx, _, _ = getattr(lp, problem)(mode="exact")
        assert abs(vf - vx) <= 1e-10 * max(1.0, abs(vx))
        assert _in_cone(lp, uf)


@pytest.mark.parametrize("P, field, h", [
    (interval(), AffineFunc(2.0 - 5e-7, (1e-6,)), 1 / 16),
    (unit_square(), 4.0, 1 / 4),
], ids=["interval-stall-exit", "square-converged"])
def test_failed_purification_raises(monkeypatch, P, field, h):
    # the nearly extremal interval leaves the iteration on the stall rule,
    # its dual residual unconverged; the square converges.  With the check on
    # the purified vertex made impossible, neither returns a point
    lp = StabilityLP(P, field, make_mesh(P, h))
    monkeypatch.setattr(cone_lp, "FEAS_TOL", -1.0)
    with pytest.raises(LPNotConverged):
        lp.minimize_linear_functional()


def test_purified_vertex_above_the_iterate_raises(monkeypatch):
    # moving up c within the nearly flat face of the nearly extremal interval
    # ends at a feasible vertex whose objective is worse than the iterate's
    purify = cone_lp._purify
    monkeypatch.setattr(cone_lp, "_purify", lambda C, b, c, *rest: purify(C, b, -c, *rest))
    lp = StabilityLP(interval(), AffineFunc(2.0 - 5e-7, (1e-6,)), make_mesh(interval(), 1 / 16))
    with pytest.raises(LPNotConverged):
        lp.minimize_linear_functional()


def test_iteration_cap_raises(monkeypatch):
    P = unit_square()
    lp = StabilityLP(P, 4.0, make_mesh(P, 1 / 4))
    monkeypatch.setattr(cone_lp, "MAX_ITER", 2)
    with pytest.raises(LPNotConverged):
        lp.minimize_linear_functional()
