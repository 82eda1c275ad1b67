import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polystab.cone_lp as cone_lp
from polystab import simplex_lp
from polystab.convex import AffineFunc
from polystab.errors import LPNotConverged
from polystab.functionals import as_field, extremal_affine, mesh_linear_forms
from polystab.mesh import make_mesh
from polystab.polytope import center_of_mass, interval, standard_simplex, unit_square
from polystab.quadrature import gauss_rule
from polystab.stability import TOLERANCES, StabilityLP, analyze_stability, ray_bounds


def hinge_lp(x, k, A, weights):
    """(c, idx, coef, b): the stability cone LP of an interval on the
    ascending grid x, normalized at p_o = x[k], posed as `StabilityLP` poses
    it on a polygon's mesh.

    b and c = b - a are taken over the free vertices (all but k); b holds the
    boundary weights of the two ends, left first, and a the integrals of A
    times each hat function by the degree-6 Gauss rule of each cell.  The rows
    are the slope differences at the interior vertices, with p_o's column
    remapped as `StabilityLP` does.
    """
    t, w = gauss_rule(4)
    lo, hi = x[:-1, None], x[1:, None]
    p = (lo + t * (hi - lo)).reshape(-1, 1)
    M, q = len(x) - 1, len(t)
    wA = ((w * np.abs(hi - lo)).ravel() * as_field(A, 1)(p)).reshape(M, 1, q)
    s = (p[:, 0] - np.repeat(x[:-1], q)) / np.repeat(x[1:] - x[:-1], q)
    # one (1, q) @ (q, 1) product per cell and local vertex, added in cell order
    contrib = np.stack([np.matmul(wA, lam.reshape(M, q, 1))[:, 0, 0] for lam in (1.0 - s, s)], 1)
    a = np.zeros(len(x))
    np.add.at(a, np.column_stack([np.arange(M), np.arange(1, M + 1)]).ravel(), contrib.ravel())
    b = np.zeros(len(x))
    b[[0, -1]] = weights
    idx = np.column_stack([np.arange(M - 1), np.arange(1, M), np.arange(2, M + 1)])
    left, right = 1.0 / (x[1:-1] - x[:-2]), 1.0 / (x[2:] - x[1:-1])
    coef = np.column_stack([left, -(left + right), right])
    col = idx - (idx > k)
    other = np.take_along_axis(col, np.argmax(idx != k, axis=1)[:, None], axis=1)
    free = np.arange(len(x)) != k
    return (b - a)[free], np.where(idx == k, other, col), np.where(idx == k, 0.0, coef), b[free]


# the LP shapes the cone solvers cover, on the rows of a stability LP: name ->
# (objective, normalization row, sign) over the free vertices, the value
# being sign * min objective.x over the cone with row.x = 1.  The first is
# the stability LP's own problem; the other two (L_A per unit mass, and C'
# as the largest mass per unit |u|_b) are posed here directly
PROBLEMS = ("minimize_linear_functional", "minimize_linear_functional_mass", "maximize_mass")


def _problems(c, b, mass):
    return dict(zip(PROBLEMS, ((c, b, 1.0), (c, mass, 1.0), (-mass, b, -1.0))))


def posed_on_interval(x, k, A, weights):
    """(problems, rows) on `hinge_lp`'s data; its c with no boundary weights
    and A = 1 is minus the mass."""
    c, idx, coef, b = hinge_lp(x, k, A, weights)
    return _problems(c, b, -hinge_lp(x, k, 1.0, (0.0, 0.0))[0]), (idx, coef)


def pose(P, A, h):
    """(problems, rows) of the stability LP of P and A at h, normalized at the
    center of mass: a `StabilityLP` on a polygon's mesh through it; on an
    interval, `hinge_lp` on the uniform grid of step h, whose midpoint it is."""
    if P.dimension == 1:
        cells = round(float(np.ptp(P.vertices)) / h)
        return posed_on_interval(np.linspace(*P.vertices[:, 0], cells + 1), cells // 2, A,
                                 P.boundary_weights)
    lp = StabilityLP(P, A, make_mesh(P, h, point=center_of_mass(P)))
    mass = mesh_linear_forms(lp.mesh, 1.0, degree=6)[1][lp.free]
    return _problems((lp.b_weights - lp.a_weights)[lp.free], lp.b_weights[lp.free], mass), lp.rows


def _in_cone(rows, x, tol=1e-12):
    """x >= 0 and every convexity row >= 0, relative to the row size."""
    idx, coef = rows
    r = np.einsum("ij,ij->i", coef, x[idx]) / np.linalg.norm(coef, axis=1)
    scale = np.max(np.abs(x))
    return np.min(x) >= -tol * scale and np.min(r) >= -tol * scale


def interior_point(problem, rows):
    """(value, x) of a posed `problem` from `solve_cone_lp`."""
    c, b, sign = problem
    res = cone_lp.solve_cone_lp(c, *rows, b)
    return sign * res.value, res.u


def exact(problem, rows):
    """The value of a posed `problem` from the Fraction simplex."""
    c, b, sign = problem
    return sign * simplex_lp.solve_cone_lp_exact(c, *rows, b)[1]


def best_hinge(x, k, problem):
    """(value, r) of a posed `problem` on the interval grid x, p_o = x[k], by
    an O(V^2) scan.

    u >= 0 with u(p_o) = 0 makes p_o a minimum of the convex u, so u is a
    nonnegative sum of the hinges (x - t)_+ at the vertices t >= p_o and
    (t - x)_+ at t <= p_o.  Scaled to b.r = 1, the hinges r with b.r > 0 are
    the vertices of the feasible set, and the least c.r / b.r is the minimum.
    """
    c, b, sign = problem
    free = np.delete(x, k)
    hinges = np.vstack([np.maximum(free - x[x >= x[k], None], 0.0),
                        np.maximum(x[x <= x[k], None] - free, 0.0)])
    hinges = hinges[hinges @ b > 0.0]
    r = hinges[np.argmin((hinges @ c) / (hinges @ b))]
    r = r / (r @ b)
    return sign * float(r @ c), r


@pytest.mark.parametrize("P, A, h", [(interval(), 2.0, 1 / 8), (unit_square(), 4.0, 1 / 4),
                                     (standard_simplex(), 6.0, 1 / 4)],
                         ids=["interval", "square", "simplex"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_interior_point_matches_exact_simplex(P, A, h, problem):
    problems, rows = pose(P, A, h)
    vf, xf = interior_point(problems[problem], rows)
    assert abs(vf - exact(problems[problem], rows)) <= 1e-10
    assert _in_cone(rows, xf)


@settings(max_examples=25, deadline=None)
@example(a=0.0, w=1.0, c0=1.0, c1=1e-8)  # A all but extremal: L_A nearly flat on affine u
@given(a=st.floats(-10.0, 10.0), w=st.floats(1e-3, 1e3),
       c0=st.floats(-10.0, 10.0), c1=st.floats(-10.0, 10.0))
def test_interior_point_matches_exact_simplex_on_intervals(a, w, c0, c1):
    # A(x) = (c0 + c1 (x - a) / w) / w keeps L_A of order one at every width
    P = interval(a, a + w)
    A = AffineFunc((c0 - c1 * a / w) / w, (c1 / w**2,))
    problems, rows = posed_on_interval(np.linspace(*P.vertices[:, 0], 9), 4, A,
                                       P.boundary_weights)
    problem = problems["minimize_linear_functional"]
    vf, xf = interior_point(problem, rows)
    vx = exact(problem, rows)
    assert abs(vf - vx) <= 1e-10 * max(1.0, abs(vx))
    assert _in_cone(rows, xf)


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
    # the uniform grid
    c0, c1, c2 = coeffs
    P = interval(a, a + w)
    x, k = np.linspace(*P.vertices[:, 0], cells + 1), 1 + round(at * (cells - 2))

    def A(pts):
        s = (pts[:, 0] - a) / w
        return (c0 + c1 * s + c2 * s * s) / w

    problems, rows = posed_on_interval(x, k, A, P.boundary_weights)
    for c, row, sign in problems.values():
        value, u = best_hinge(x, k, (c, row, sign))
        assert _in_cone(rows, u)
        assert abs(row @ u - 1.0) <= 1e-12
        ref, ref_u = interior_point((c, row, sign), rows)
        scale = np.abs(c) @ np.abs(ref_u)  # the size of c.u's terms
        assert abs(value - ref) <= 1e-9 * scale
        if len(x) <= 9:
            assert abs(value - exact((c, row, sign), rows)) <= 1e-12 * scale


def test_an_iterate_just_outside_the_cone_passes_the_objective_check():
    # [0, 1] at h = 1/24, p_o = 11/24, A = 0.5 + 0.1875 x + 2.5 x^2, per unit
    # mass: the last iterate has b.u - 1 = 1e-11 and min Cu = -5e-13, so its
    # objective is 4e-10 (relative) below the optimum that the purified
    # vertex and the best hinge reach
    x = np.linspace(0.0, 1.0, 25)
    problems, rows = posed_on_interval(x, 11, lambda pts: 0.5 + 0.1875 * pts[:, 0]
                                       + 2.5 * pts[:, 0] ** 2, (1.0, 1.0))
    c, b, _ = problem = problems["minimize_linear_functional_mass"]
    res = cone_lp.solve_cone_lp(c, *rows, b)
    value, r = best_hinge(x, 11, problem)
    assert abs(res.value - value) <= 1e-9 * (np.abs(c) @ r)
    assert _in_cone(rows, res.u)


def test_hinges_give_the_interval_constants_exactly():
    # on [0, 1] with A = 2 the best hinge is (x - 1/2)_+: a stability run
    # reads lambda = 1/2 off it with no LP, and C' = 1/4 from the ray bound;
    # the cone LP at h = 1/16 and 1/32 reaches lambda within its tolerance,
    # and its best grid hinges give both with no rounding left
    P = interval()
    report = analyze_stability(P, extremal_affine(P), 1 / 16)
    assert (report.lambda_hat, report.lambda_hat_refined, report.lp_iterations) == (0.5, 0.5, 0)
    for h in (1 / 16, 1 / 32):
        problems, rows = pose(P, extremal_affine(P), h)
        c, b, _ = problems["minimize_linear_functional"]
        res = cone_lp.solve_cone_lp(c, *rows, b)
        assert abs(res.value - 0.5) <= 1e-9 and res.iterations > 0
        x, k = np.linspace(0.0, 1.0, round(1 / h) + 1), round(1 / h) // 2
        problems, _ = pose(P, 2.0, h)
        assert best_hinge(x, k, problems["minimize_linear_functional"])[0] == 0.5
        assert best_hinge(x, k, problems["maximize_mass"])[0] == 0.25
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
    problems, rows = pose(P, field, h)
    for problem in problems.values():
        vf, xf = interior_point(problem, rows)
        vx = exact(problem, rows)
        assert abs(vf - vx) <= 1e-10 * max(1.0, abs(vx))
        assert _in_cone(rows, xf)


@pytest.mark.parametrize("P, field, h", [
    (interval(), AffineFunc(2.0 - 5e-7, (1e-6,)), 1 / 16),
    (unit_square(), 4.0, 1 / 4),
], ids=["interval-stall-exit", "square-converged"])
def test_failed_purification_raises(monkeypatch, P, field, h):
    # the nearly extremal interval leaves the iteration on the stall rule,
    # its dual residual unconverged; the square converges.  With the check on
    # the purified vertex made impossible, neither returns a point
    problems, rows = pose(P, field, h)
    monkeypatch.setattr(cone_lp, "FEAS_TOL", -1.0)
    with pytest.raises(LPNotConverged):
        interior_point(problems["minimize_linear_functional"], rows)


def test_purified_vertex_above_the_iterate_raises(monkeypatch):
    # moving up c within the nearly flat face of the nearly extremal interval
    # ends at a feasible vertex whose objective is worse than the iterate's
    purify = cone_lp._purify
    monkeypatch.setattr(cone_lp, "_purify", lambda C, b, c, *rest: purify(C, b, -c, *rest))
    problems, rows = pose(interval(), AffineFunc(2.0 - 5e-7, (1e-6,)), 1 / 16)
    with pytest.raises(LPNotConverged):
        interior_point(problems["minimize_linear_functional"], rows)


def test_iteration_cap_raises(monkeypatch):
    P = unit_square()
    lp = StabilityLP(P, 4.0, make_mesh(P, 1 / 4, point=center_of_mass(P)))
    monkeypatch.setattr(cone_lp, "MAX_ITER", 2)
    with pytest.raises(LPNotConverged):
        lp.minimize_linear_functional()


def test_the_ledger_reports_the_feasibility_tolerance():
    # stability writes the value out so that 1D runs need not load cone_lp
    assert TOLERANCES["lp.feasibility"] == cone_lp.FEAS_TOL
