import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polystab.cone_lp as cone_lp
from polystab import simplex_lp
from polystab.convex import AffineFunc, MeshConvexFunc
from polystab.errors import LPNotConverged
from polystab.functionals import extremal_affine, mesh_linear_forms
from polystab.mesh import make_mesh
from polystab.polytope import center_of_mass, interval, standard_simplex, unit_square
from polystab.stability import (
    TOLERANCES,
    StabilityLP,
    analyze_stability,
    lp_stability_estimate,
    ray_bounds,
)


def _mass(lp):
    """The vertex weights of int(u) dmu on the LP's mesh."""
    return mesh_linear_forms(lp.mesh, 1.0, degree=6)[1]


# the LP shapes the cone solvers cover, on the rows of a StabilityLP: name ->
# (objective, normalization row, sign), the value being sign * min
# objective.u over the cone with row.u = 1.  The first is the StabilityLP's
# own problem; the other two (L_A per unit mass, and C' as the largest mass
# per unit |u|_b) are posed here directly
PROBLEMS = {
    "minimize_linear_functional": lambda lp: (lp.b_weights - lp.a_weights, lp.b_weights, 1.0),
    "minimize_linear_functional_mass": lambda lp: (lp.b_weights - lp.a_weights, _mass(lp), 1.0),
    "maximize_mass": lambda lp: (-_mass(lp), lp.b_weights, -1.0),
}


def _in_cone(lp, u, tol=1e-12):
    """u >= 0, u(p_o) = 0 and every convexity row >= 0, relative to the row size."""
    idx, coef = lp.rows
    v = u.values[lp.free]
    rows = np.einsum("ij,ij->i", coef, v[idx]) / np.linalg.norm(coef, axis=1)
    scale = np.max(np.abs(v))
    return (u.values[lp.p_o_index] == 0.0 and np.min(v) >= -tol * scale
            and np.min(rows) >= -tol * scale)


def _posed(lp, problem):
    """(c, b, sign) of `problem` on the free vertices of `lp`."""
    objective, row, sign = PROBLEMS[problem](lp)
    return objective[lp.free], row[lp.free], sign


def _mesh_function(lp, x):
    values = np.zeros(lp.mesh.num_vertices)
    values[lp.free] = x
    return MeshConvexFunc(lp.mesh, values, p_o_index=lp.p_o_index)


def interior_point(lp, problem):
    """(value, u) of `problem` from `solve_cone_lp` on the rows of `lp`."""
    c, b, sign = _posed(lp, problem)
    res = cone_lp.solve_cone_lp(c, *lp.rows, b)
    return sign * res.value, _mesh_function(lp, res.u)


def exact(lp, problem):
    """The value of `problem` from the Fraction simplex."""
    c, b, sign = _posed(lp, problem)
    return sign * simplex_lp.solve_cone_lp_exact(c, *lp.rows, b)[1]


def _best_hinge(lp, c, b):
    """(x, value): min c.x over the 1D cone with b.x = 1, by an O(V^2) scan.

    u >= 0 with u(p_o) = 0 makes p_o a minimum of the convex u, so u is a
    nonnegative sum of the hinges (x - t)_+ at the vertices t >= p_o and
    (t - x)_+ at t <= p_o.  Scaled to b.r = 1, the hinges r with b.r > 0 are
    the vertices of the feasible set, and the least c.r / b.r is the minimum.
    """
    t, x = lp.mesh.vertices[:, 0], lp.mesh.vertices[lp.free, 0]
    p = lp.p_o[0]
    hinges = np.vstack([np.maximum(x - t[t >= p, None], 0.0), np.maximum(t[t <= p, None] - x, 0.0)])
    hinges = hinges[hinges @ b > 0.0]
    r = hinges[np.argmin((hinges @ c) / (hinges @ b))]
    r = r / (r @ b)
    return r, float(r @ c)


def best_hinge(lp, problem):
    """(value, u) of `problem` on an interval from the hinges that span its cone."""
    c, b, sign = _posed(lp, problem)
    x, value = _best_hinge(lp, c, b)
    return sign * value, _mesh_function(lp, x)


@pytest.mark.parametrize("P, A, h", [(interval(), 2.0, 1 / 8), (unit_square(), 4.0, 1 / 4),
                                     (standard_simplex(), 6.0, 1 / 4)],
                         ids=["interval", "square", "simplex"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_interior_point_matches_exact_simplex(P, A, h, problem):
    lp = StabilityLP(P, A, make_mesh(P, h, point=center_of_mass(P)))
    vf, uf = interior_point(lp, problem)
    assert abs(vf - exact(lp, problem)) <= 1e-10
    assert _in_cone(lp, uf)


@settings(max_examples=25, deadline=None)
@example(a=0.0, w=1.0, c0=1.0, c1=1e-8)  # A all but extremal: L_A nearly flat on affine u
@given(a=st.floats(-10.0, 10.0), w=st.floats(1e-3, 1e3),
       c0=st.floats(-10.0, 10.0), c1=st.floats(-10.0, 10.0))
def test_interior_point_matches_exact_simplex_on_intervals(a, w, c0, c1):
    # A(x) = (c0 + c1 (x - a) / w) / w keeps L_A of order one at every width
    P = interval(a, a + w)
    A = AffineFunc((c0 - c1 * a / w) / w, (c1 / w**2,))
    lp = StabilityLP(P, A, make_mesh(P, w / 8, point=center_of_mass(P)))
    vf, uf = interior_point(lp, "minimize_linear_functional")
    vx, _, _ = lp.minimize_linear_functional(mode="exact")
    assert abs(vf - vx) <= 1e-10 * max(1.0, abs(vx))
    assert _in_cone(lp, uf)


@settings(max_examples=40, deadline=None)
@example(a=0.0, w=1.0, cells=16, at=0.5, coeffs=(2.0 - 5e-7, 1e-6, 0.0))  # nearly extremal
@example(a=1e3, w=1e-3, cells=7, at=0.0, coeffs=(1.0, -3.0, 4.0))
@example(a=0.0, w=1.0, cells=24, at=0.4375, coeffs=(0.5, 0.1875, 2.5))  # iterate outside the cone
@given(a=st.floats(-1e3, 1e3), w=st.floats(1e-3, 1e3), cells=st.integers(2, 24),
       at=st.floats(0.0, 1.0),
       coeffs=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                        st.sampled_from([0.0, -6.0, 2.5])))
def test_hinges_give_the_cone_lp_optimum_on_intervals(a, w, cells, at, coeffs):
    # A = (c0 + c1 s + c2 s^2) / w in s = (x - a) / w, affine or quadratic,
    # keeps L_A of order one at every width; p_o is any interior vertex of
    # the uniform mesh, so the mesh through p_o is that mesh
    c0, c1, c2 = coeffs
    P = interval(a, a + w)
    uniform = make_mesh(P, w / cells)
    p_o = uniform.vertices[1 + round(at * (uniform.num_vertices - 3))]
    mesh = make_mesh(P, w / cells, point=p_o)
    assert np.array_equal(mesh.vertices, uniform.vertices)

    def A(pts):
        s = (pts[:, 0] - a) / w
        return (c0 + c1 * s + c2 * s * s) / w

    lp = StabilityLP(P, A, mesh)
    for problem in PROBLEMS:
        objective, row, _ = PROBLEMS[problem](lp)
        value, u = best_hinge(lp, problem)
        assert _in_cone(lp, u)
        assert abs(row @ u.values - 1.0) <= 1e-12
        ref, ref_u = interior_point(lp, problem)
        scale = np.abs(objective) @ np.abs(ref_u.values)  # the size of c.u's terms
        assert abs(value - ref) <= 1e-9 * scale
        if mesh.num_vertices <= 9:
            assert abs(value - exact(lp, problem)) <= 1e-12 * scale


def test_an_iterate_just_outside_the_cone_passes_the_objective_check():
    # [0, 1] at h = 1/24, p_o = 11/24, A = 0.5 + 0.1875 x + 2.5 x^2, per unit
    # mass: the last iterate has b.u - 1 = 1e-11 and min Cu = -5e-13, so its
    # objective is 4e-10 (relative) below the optimum that the purified
    # vertex and the best hinge reach
    P = interval()
    lp = StabilityLP(P, lambda pts: 0.5 + 0.1875 * pts[:, 0] + 2.5 * pts[:, 0] ** 2,
                     make_mesh(P, 1 / 24, point=[11 / 24]))
    c, b, _ = _posed(lp, "minimize_linear_functional_mass")
    res = cone_lp.solve_cone_lp(c, *lp.rows, b)
    x, value = _best_hinge(lp, c, b)
    assert abs(res.value - value) <= 1e-9 * (np.abs(c) @ x)
    assert _in_cone(lp, _mesh_function(lp, res.u))


def test_hinges_give_the_interval_constants_exactly():
    # on [0, 1] with A = 2 the best hinge is (x - 1/2)_+: a stability run
    # reads lambda = 1/2 off it with no LP, and C' = 1/4 from the ray bound;
    # the cone LP at h = 1/16 and 1/32 reaches both within its tolerance, and
    # its best mesh hinges give them with no rounding left
    P = interval()
    report = analyze_stability(P, extremal_affine(P), 1 / 16)
    assert (report.lambda_hat, report.lambda_hat_refined, report.lp_iterations) == (0.5, 0.5, 0)
    for h in (1 / 16, 1 / 32):
        mesh = make_mesh(P, h, point=center_of_mass(P))
        report = lp_stability_estimate(P, extremal_affine(P), mesh)
        assert abs(report.lambda_hat - 0.5) <= 1e-9 and report.lp_iterations > 0
        lp = StabilityLP(P, 2.0, mesh)
        assert best_hinge(lp, "minimize_linear_functional")[0] == 0.5
        assert best_hinge(lp, "maximize_mass")[0] == 0.25
    assert ray_bounds(P, extremal_affine(P), [0.5]) == (0.5, 0.25)


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
    lp = StabilityLP(P, field, make_mesh(P, h, point=center_of_mass(P)))
    for problem in PROBLEMS:
        vf, uf = interior_point(lp, problem)
        vx = exact(lp, problem)
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
    lp = StabilityLP(P, field, make_mesh(P, h, point=center_of_mass(P)))
    monkeypatch.setattr(cone_lp, "FEAS_TOL", -1.0)
    with pytest.raises(LPNotConverged):
        interior_point(lp, "minimize_linear_functional")


def test_purified_vertex_above_the_iterate_raises(monkeypatch):
    # moving up c within the nearly flat face of the nearly extremal interval
    # ends at a feasible vertex whose objective is worse than the iterate's
    purify = cone_lp._purify
    monkeypatch.setattr(cone_lp, "_purify", lambda C, b, c, *rest: purify(C, b, -c, *rest))
    lp = StabilityLP(interval(), AffineFunc(2.0 - 5e-7, (1e-6,)),
                     make_mesh(interval(), 1 / 16, point=[0.5]))
    with pytest.raises(LPNotConverged):
        interior_point(lp, "minimize_linear_functional")


def test_iteration_cap_raises(monkeypatch):
    P = unit_square()
    lp = StabilityLP(P, 4.0, make_mesh(P, 1 / 4, point=center_of_mass(P)))
    monkeypatch.setattr(cone_lp, "MAX_ITER", 2)
    with pytest.raises(LPNotConverged):
        lp.minimize_linear_functional()


def test_the_ledger_reports_the_feasibility_tolerance():
    # stability writes the value out so that 1D runs need not load cone_lp
    assert TOLERANCES["lp.feasibility"] == cone_lp.FEAS_TOL
