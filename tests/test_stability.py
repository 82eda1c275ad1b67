import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polystab.cone_lp as cone_lp
from polystab.audits import (
    _plus_quadratic,
    _random_spd,
    degeneracy_diagnostic,
    scripted_sequences,
    solution_norm_bound,
    verify_audits,
)
from polystab.convex import (
    AffineFunc,
    PLConvexFunc,
    crease,
    guillemin_potential,
    normalize,
)
from polystab.errors import EmptyGrid, NonpositiveLambda
from polystab.fields import QuadraticPoly, parse_field
from polystab.functionals import (
    FunctionalEvaluator,
    as_field,
    extremal_affine,
    field_degree,
    mesh_linear_forms,
)
from polystab.mesh import make_mesh
from polystab.polytope import (
    build_polytope,
    center_of_mass,
    interval,
    standard_simplex,
    unit_square,
)
from polystab.quadrature import gauss_rule, standard_scheme
from polystab.stability import (
    StabilityLP,
    _status,
    analyze_stability,
    crease_functionals,
    crease_sweep,
    default_crease_grid,
    hinge_minimum,
    lp_stability_estimate,
    properness_certificate,
    ray_bounds,
)
from test_cone_lp import hinge_lp

A_UNSTABLE = AffineFunc(2.0 - 3.5, (7.0,))  # 2 + 7(x - 1/2)
A_EXTREMAL_RAY = parse_field("48*x^2 - 48*x + 10", 1)


def crease_ratio_oracle_interval(t, A, P=None, p_o=0.5):
    """L_A(u) / |u|_b of the normalized crease u = normalize(max(0, x - t), p_o)
    on the interval P (default [0, 1]), for a kink t or an array of them, by
    direct 1D integration.

    u is the hinge (x - t)_+ for t >= p_o and (t - x)_+ below, linear where it
    is positive.  There A u is a polynomial of degree deg(A) + 1, and a Gauss
    rule of (deg(A) + 3) // 2 points integrates it exactly; the result is
    exact for polynomial A.  |u|_b sums the dsigma-weight times u at each end.
    """
    P = interval() if P is None else P
    lo, hi = float(P.vertices.min()), float(P.vertices.max())
    kinks = np.atleast_1d(np.asarray(t, dtype=float))
    right = kinks >= p_o
    start, stop = np.where(right, kinks, lo), np.where(right, hi, kinks)
    x, w = gauss_rule((field_degree(A) + 3) // 2)  # 2 npts - 1 >= deg(A) + 1
    pts = start[:, None] + (stop - start)[:, None] * x
    u = np.where(right[:, None], pts - kinks[:, None], kinks[:, None] - pts)
    interior = (stop - start) * np.sum(w * as_field(A, 1)(pts.reshape(-1, 1)).reshape(pts.shape)
                                       * u, axis=1)
    ends = P.vertices[np.asarray(P.facet_vertices)[:, 0], 0]
    bn = sum(w_e * np.maximum(np.where(right, e - kinks, kinks - e), 0.0)
             for e, w_e in zip(ends, P.boundary_weights))
    ratio = (bn - interior) / bn
    return float(ratio[0]) if np.ndim(t) == 0 else ratio


# -- crease sweep -----------------------------------------------------------------

def test_crease_sweep_interval_minimum():
    # the interval's minimum is the hinge minimum, the crease kinked at the
    # midpoint, exactly; the crease sweep refuses the interval
    ratio, arg = hinge_minimum(interval(), 2.0, [0.5])
    assert ratio == 0.5
    assert arg(np.array([0.5])) == 0.0
    assert arg(np.array([1.0])) == 0.5
    with pytest.raises(ValueError, match="needs a polygon"):
        crease_sweep(interval(), 2.0, p_o=[0.5])


def test_crease_sweep_detects_instability():
    # A = -2 + 12 x on the unit square: L_A < 0 on the crease kinked along
    # x = 1/2, and the sweep finds a negative ratio too
    P, A = unit_square(), AffineFunc(-2.0, (12.0, 0.0))
    u = normalize(crease(AffineFunc(-0.5, (1.0, 0.0))), [0.5, 0.5])
    assert FunctionalEvaluator(P, A).linear_functional(u) == pytest.approx(-1 / 4, abs=1e-12)
    ratio, _ = crease_sweep(P, A, p_o=[0.5, 0.5])
    assert ratio < -0.3


def test_crease_sweep_skips_trivial_creases():
    # grid of affine functions whose creases are outside the square or trivial
    grid = np.array([[-5.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(EmptyGrid):
        crease_sweep(unit_square(), 4.0, grid=grid, p_o=[0.5, 0.5])
    with pytest.raises(EmptyGrid):
        crease_sweep(unit_square(), 4.0, grid=[], p_o=[0.5, 0.5])


@pytest.mark.parametrize("call", [
    lambda P, ev: default_crease_grid(P),
    lambda P, ev: crease_functionals([[-0.5, 1.0]], [0.5], ev),
    lambda P, ev: crease_sweep(P, 2.0, p_o=[0.5]),
    lambda P, ev: crease_sweep(P, 2.0, grid=[], p_o=[0.5]),
], ids=["default_crease_grid", "crease_functionals", "crease_sweep", "crease_sweep-empty"])
def test_crease_functions_refuse_an_interval(call):
    # an interval's lambda is exact from the hinges, so its creases are never swept
    P = interval()
    with pytest.raises(ValueError, match="needs a polygon"):
        call(P, FunctionalEvaluator(P, 2.0))


def test_crease_ratio_matches_closed_form():
    # right crease ratio t, left crease ratio 1 - t for A = 2
    for t in (0.5, 0.625, 0.75):
        assert crease_ratio_oracle_interval(t, 2.0) == pytest.approx(t, abs=1e-12)
    for t in (0.1875, 0.25, 0.375, 0.4375):
        assert crease_ratio_oracle_interval(t, 2.0) == pytest.approx(1 - t, abs=1e-12)


# -- hinge minimum ----------------------------------------------------------------------

WEIGHTED_INTERVAL = build_polytope([((1.0,), 0.0), ((-2.0,), -2.0)])  # weight 1/2 at x = 1


@pytest.mark.parametrize("P, A, lam, kink", [
    (interval(), 2.0, 0.5, 0.5),
    (WEIGHTED_INTERVAL, extremal_affine(WEIGHTED_INTERVAL), 0.375, 0.5),
    (interval(), AffineFunc(-7.0, (9.0,)), 5 / 6, 2 / 3),
    (interval(), -1.0, 1.0, 1.0),
], ids=["extremal", "weighted-extremal", "affine-kink-2/3", "negative-constant"])
def test_hinge_minimum_exact_values(P, A, lam, kink):
    # the best hinge of A = -7 + 9x kinks at t = 2/3, inside (p_o, 1); for
    # A = -1 every hinge ratio exceeds 1, and the infimum 1 is the limit of
    # hinges vanishing at an end (on a mesh at h = 1/16 the LP read 1.03125
    # and the 64-kink crease grid 1.0078125)
    p_o = center_of_mass(P)
    value, u = hinge_minimum(P, A, p_o)
    assert value == pytest.approx(lam, abs=1e-15)
    assert u(p_o) == 0.0 and u(np.array([kink])) == 0.0
    ev = FunctionalEvaluator(P, A)
    if lam < 1.0:
        assert ev.linear_functional(u) / ev.boundary_norm(u) == pytest.approx(lam, abs=1e-12)
        assert u(np.array([kink + 1e-3])) > 0.0 or u(np.array([kink - 1e-3])) > 0.0
    else:
        assert ev.boundary_norm(u) == 0.0
    if P is WEIGHTED_INTERVAL:
        assert value == ray_bounds(P, A, p_o)[0]


def test_hinge_minimum_needs_a_polynomial_field_on_an_interval_and_p_o_inside():
    with pytest.raises(ValueError, match="polynomial"):
        hinge_minimum(interval(), lambda pts: np.full(len(pts), 2.0), [0.5])
    with pytest.raises(ValueError, match="interval"):
        hinge_minimum(unit_square(), 4.0, [0.5, 0.5])
    for p_o in (0.0, 1.5):
        with pytest.raises(ValueError, match="strictly inside"):
            hinge_minimum(interval(), 2.0, [p_o])


@settings(max_examples=40, deadline=None)
@example(a=0.0, w=1.0, at=0.5, coeffs=(2.0, 0.0, 0.0), cells=16)
@example(a=-1.5, w=3.0, at=0.3, coeffs=(1.0, 4.0, -6.0), cells=7)  # the left hinge at p_o
@example(a=-1.5, w=3.0, at=0.3, coeffs=(1.0, 4.0, -3.0), cells=7)  # A >= 0 on P
@example(a=2.0, w=0.5, at=0.75, coeffs=(-1.0, 0.0, 0.0), cells=5)  # the limit d -> 0
@given(a=st.floats(-3.0, 3.0), w=st.floats(0.25, 4.0), at=st.floats(0.05, 0.95),
       coeffs=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       cells=st.integers(2, 12))
def test_hinge_minimum_is_the_least_hinge_ratio(a, w, at, coeffs, cells):
    # on P = [a, a + w] with A(x) = A0(s) / w, A0(s) = c0 + c1 s + c2 s^2 and
    # s = (x - a) / w, so that L_A stays of order one at every width: the
    # closed form sits below the cone LP on a grid through p_o and below every
    # hinge of a dense kink scan, within 1e-6 of the scan's minimum, and it
    # equals the value on [0, 1] with A0 and p_o = at (moving or dilating P)
    c0, c1, c2 = coeffs
    P, p_o = interval(a, a + w), a + at * w
    A = QuadraticPoly(1, (c0 / w - c1 * a / w**2 + c2 * a * a / w**3,
                          c1 / w**2 - 2.0 * c2 * a / w**3, 0.0, c2 / w**3, 0.0, 0.0))
    lam, _ = hinge_minimum(P, A, [p_o])
    (lo, hi), k = P.vertices[:, 0], min(max(1, round(at * cells)), cells - 1)
    x = np.concatenate([np.linspace(lo, p_o, k + 1), np.linspace(p_o, hi, cells - k + 1)[1:]])
    assert lam <= cone_lp.solve_cone_lp(*hinge_lp(x, k, A, P.boundary_weights)).value + 1e-12
    # kinks on a uniform grid, and close to the ends and just below p_o (the
    # scan's hinge at p_o itself is the right one)
    near = w * np.geomspace(1e-9, 1e-3, 7)
    kinks = np.concatenate([a + w * np.linspace(0.0, 1.0, 8001)[1:-1], [p_o],
                            a + near, a + w - near, p_o - near])
    scan = crease_ratio_oracle_interval(kinks, A, P, p_o)
    assert lam <= scan.min() + 1e-12
    assert lam >= scan.min() - 1e-6
    unit = hinge_minimum(interval(), QuadraticPoly(1, (c0, c1, 0.0, c2, 0.0, 0.0)), [at])[0]
    assert lam == pytest.approx(unit, rel=1e-12, abs=1e-12)
    # the ray bound is below lambda, and equal to it where A >= 0 on P
    lower = ray_bounds(P, A, [p_o])[0]
    assert lower <= lam + 1e-12
    a0_values = [c0, c0 + c1 + c2]  # A0 at s = 0, 1 and at its interior minimum
    if c2 > 0.0 and 0.0 < -c1 / (2.0 * c2) < 1.0:
        a0_values.append(c0 - c1 * c1 / (4.0 * c2))
    if min(a0_values) >= 0.0:
        assert lower == pytest.approx(lam, abs=1e-12)


PENTAGON = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
                           ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)])
SWEEP_FIXTURES = {
    "square": (unit_square(), AffineFunc(-2.0, (12.0, 0.0))),
    "square-constant": (unit_square(), 4.0),
    "pentagon": (PENTAGON, None),
    "simplex": (standard_simplex(2), None),
}


@pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
def test_sweep_over_one_orientation_per_line(name, monkeypatch):
    # ell and -ell normalize to the same crease, so the two-orientation grid
    # finds the same minimum; the sweep builds no split rule
    import polystab.functionals

    P, A = SWEEP_FIXTURES[name]
    A = extremal_affine(P) if A is None else A
    grid = default_crease_grid(P)
    both = np.stack([grid, -grid], axis=1).reshape(-1, grid.shape[1])  # rows ell, -ell
    expected, _ = crease_sweep(P, A, grid=both)

    calls = []
    split = polystab.functionals.split_scheme
    monkeypatch.setattr(polystab.functionals, "split_scheme",
                        lambda *args, **kwargs: calls.append(1) or split(*args, **kwargs))
    ratio, _ = crease_sweep(P, A, grid=grid, evaluator=FunctionalEvaluator(P, A))
    assert ratio == expected
    assert calls == []


@pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
def test_mirror_creases_give_identical_rows(name):
    # lines through p_o included: ell and -ell are oriented alike, so their
    # rows agree to the bit and no tie depends on rounding
    P, A = SWEEP_FIXTURES[name]
    A = extremal_affine(P) if A is None else A
    p_o = center_of_mass(P)
    grid = default_crease_grid(P)
    grid = np.vstack([grid, np.column_stack([-(grid[:5, 1:] @ p_o), grid[:5, 1:]])])
    mirror = -grid
    ev = FunctionalEvaluator(P, A)
    for row, mirror_row in zip(crease_functionals(grid, p_o, ev),
                               crease_functionals(mirror, p_o, ev)):
        np.testing.assert_array_equal(row, mirror_row)


def _affine(row):
    """The affine function of a grid row (a0, a)."""
    return AffineFunc(float(row[0]), tuple(row[1:].tolist()))


def _oriented(ell, p_o):
    """ell oriented as crease_sweep does: < 0 at p_o, or with a lexicographically
    positive gradient where |ell(p_o)| <= 1e-12."""
    v = ell(p_o)
    flip = tuple(ell.a) < (0.0,) * len(ell.a) if abs(v) <= 1e-12 else v > 0.0
    return AffineFunc(-ell.a0, tuple(-a for a in ell.a)) if flip else ell


def _per_crease(P, A, grid, p_o):
    """(|u|_b, L_A(u)) of every normalized crease, one split rule each."""
    ev = FunctionalEvaluator(P, A)
    return np.array([ev.norm_and_linear(normalize(crease(_oriented(_affine(row), p_o)), p_o))
                     for row in grid]).T


def _assert_close(batched, oracle, tol=1e-12):
    assert np.all(np.abs(batched - oracle) <= tol * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
def test_crease_functionals_match_per_crease_rules(name):
    # the square's grid has many lines through p_o, which are oriented by
    # their gradient, not by the sign of ell(p_o)
    P, A = SWEEP_FIXTURES[name]
    A = extremal_affine(P) if A is None else A
    p_o = center_of_mass(P)
    grid = default_crease_grid(P)
    bn, la, _, _ = crease_functionals(grid, p_o, FunctionalEvaluator(P, A))
    bn_ref, la_ref = _per_crease(P, A, grid, p_o)
    _assert_close(bn, bn_ref)
    _assert_close(la, la_ref)


@pytest.mark.parametrize("P", [unit_square(), PENTAGON], ids=["square", "pentagon"])
def test_default_crease_grid_matches_pairwise_construction(P):
    nodes = np.vstack(standard_scheme(P, 6).boundary_points)
    oracle = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            d = nodes[j] - nodes[i]
            L = np.hypot(d[0], d[1])
            if L < 1e-12:
                continue
            eta = np.array([-d[1], d[0]]) / L
            oracle.append([-float(eta @ nodes[i]), *eta])
    assert np.array_equal(default_crease_grid(P), np.array(oracle))


@pytest.mark.parametrize("P", [unit_square(), PENTAGON], ids=["square", "pentagon"])
def test_sweep_makes_one_triangle_rule_call(P, monkeypatch):
    import polystab.stability

    calls = []
    rule = polystab.stability.map_triangles
    monkeypatch.setattr(polystab.stability, "map_triangles",
                        lambda *args, **kwargs: calls.append(1) or rule(*args, **kwargs))
    A = extremal_affine(P)
    crease_sweep(P, A, evaluator=FunctionalEvaluator(P, A))
    assert calls == [1]


@pytest.mark.parametrize("name", ["square", "square-constant", "simplex"])
def test_sweep_ties_go_to_the_lexicographically_smallest_crease(name):
    # mirror images of a symmetric polytope tie up to rounding; the per-crease
    # rules round differently from the batch, yet pick out the same crease
    P, A = SWEEP_FIXTURES[name]
    A = extremal_affine(P) if A is None else A
    p_o = center_of_mass(P)
    grid = default_crease_grid(P)
    bn, la = _per_crease(P, A, grid, p_o)
    ratio = np.full(len(grid), np.inf)
    np.divide(la, bn, out=ratio, where=bn >= 1e-9)
    tied = [_oriented(_affine(grid[i]), p_o)
            for i in np.flatnonzero(ratio <= ratio.min() + 1e-12)]
    assert len(tied) > 1
    expected = normalize(crease(min(tied, key=lambda ell: (ell.a, ell.a0))), p_o)
    sweep_min, u = crease_sweep(P, A, grid=grid, p_o=p_o)
    assert sweep_min == pytest.approx(ratio.min(), abs=1e-12)
    mesh = make_mesh(P, 0.1)
    np.testing.assert_allclose(u(mesh.vertices), expected(mesh.vertices), rtol=0, atol=1e-12)


def _hull(points):
    """Counterclockwise convex hull of integer points (Andrew's monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _lattice_facets(points):
    """Facets (h, c) of the hull, with primitive integer inward normals; None if flat."""
    hull = _hull(points)
    if len(hull) < 3:
        return None
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = np.gcd(dx, dy)
        h = (-dy // g, dx // g)
        facets.append(((float(h[0]), float(h[1])), float(h[0] * p[0] + h[1] * p[1])))
    return facets


def _lattice_polygon(points):
    """The hull of the points as a Polytope; None if flat."""
    facets = _lattice_facets(points)
    return None if facets is None else build_polytope(facets)


lattice_points = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=3, max_size=8)
directions = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                      .filter(lambda d: d != (0, 0)), min_size=1, max_size=4)


def _creases_for(P, p_o, dirs, offsets):
    """Rows (a0, a) of lines through p_o (exercising the tie rule) and of lines
    offset from P's vertices."""
    grid = []
    for d in dirs:
        eta = np.array(d, dtype=float)
        grid.append([-float(eta @ p_o), *eta])
        for v, off in zip(P.vertices, offsets):
            grid.append([-float(eta @ v) + off, *eta])
    return np.array(grid)


@settings(max_examples=30, deadline=None)
@given(points=lattice_points, dirs=directions,
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       coeffs=st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(-3, 3)))
def test_crease_functionals_on_lattice_polygons(points, dirs, offsets, coeffs):
    P = _lattice_polygon(points)
    assume(P is not None)
    A = AffineFunc(float(coeffs[0]), (float(coeffs[1]), float(coeffs[2])))
    p_o = center_of_mass(P)
    grid = _creases_for(P, p_o, dirs, offsets)
    bn, la, _, _ = crease_functionals(grid, p_o, FunctionalEvaluator(P, A))
    bn_ref, la_ref = _per_crease(P, A, grid, p_o)
    _assert_close(bn, bn_ref)
    _assert_close(la, la_ref)


@settings(max_examples=30, deadline=None)
@given(points=lattice_points, dirs=directions,
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       k=st.integers(-3, 3), t=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_crease_linear_functional_is_unimodular_invariant(points, dirs, offsets, k, t):
    # y = M x + t with M = [[1, k], [0, 1]]: normals and gradients map by
    # M^-T, which keeps them primitive and integer, and dsigma and dmu are
    # preserved.  With A extremal, L_A vanishes on affine functions, so the
    # normalization at p_o (and its tie rule) cannot change L_A.
    P = _lattice_polygon(points)
    assume(P is not None)
    Minv_T = np.array([[1.0, 0.0], [-float(k), 1.0]])
    t = np.array(t, dtype=float)

    def push(rows):
        # ell(x) = a0 + a . x  ->  ell(M^-1 (y - t)) = a0 - a' . t + a' . y, a' = M^-T a
        a = rows[:, 1:] @ Minv_T.T
        return np.column_stack([rows[:, 0] - a @ t, a])

    gaps = push(np.column_stack([-P.offsets, P.normals]))
    Q = build_polytope([(g[1:], -g[0]) for g in gaps])
    A = extremal_affine(P)
    grid = _creases_for(P, center_of_mass(P), dirs, offsets)
    _, la, _, _ = crease_functionals(grid, center_of_mass(P), FunctionalEvaluator(P, A))
    A_Q = _affine(push(np.array([[A.a0, *A.a]]))[0])
    _, la_Q, _, _ = crease_functionals(push(grid), center_of_mass(Q), FunctionalEvaluator(Q, A_Q))
    np.testing.assert_allclose(la_Q, la, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4])
@settings(max_examples=30, deadline=None)
@given(points=lattice_points, a=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_extremal_field_annihilates_affine_functions(s, points, a):
    # the extremal A is defined by L_A(affine) = 0; on s P, with ell of unit
    # size on it, the identity holds to rounding relative to |c|_b, where c
    # is the constant sup over P of |ell|.  ell is scaled to c = 1 first: a
    # drawn coefficient near 1e-308 would put ell and L_A(ell) among the
    # subnormal floats, whose spacing no relative bound survives
    P = _lattice_polygon(points)
    assume(P is not None)
    P = build_polytope([(tuple(h), s * c) for h, c in zip(P.normals, P.offsets)])
    ev = FunctionalEvaluator(P, extremal_affine(P))
    ell = AffineFunc(a[0], (a[1] / s, a[2] / s))
    size = float(np.max(np.abs(ell(P.vertices))))
    assume(size > 0.0)
    ell = AffineFunc(a[0] / size, (a[1] / s / size, a[2] / s / size))
    c = float(np.max(np.abs(ell(P.vertices))))
    assert abs(ev.linear_functional(ell)) <= 1e-12 * ev.boundary_norm(AffineFunc.constant(c, 2))


# -- LP stability estimate -----------------------------------------------------------

def interval_lp(A, cells):
    """(value, x, u) of the cone LP of [0, 1] on `cells` uniform cells,
    normalized at 1/2: its minimizer x over the free vertices and u, the
    convex function that interpolates it."""
    grid = np.linspace(0.0, 1.0, cells + 1)
    c, idx, coef, b = hinge_lp(grid, cells // 2, A, (1.0, 1.0))
    res = cone_lp.solve_cone_lp(c, idx, coef, b)
    v = np.insert(res.u, cells // 2, 0.0)
    slope = np.diff(v) / np.diff(grid)
    u = PLConvexFunc(tuple(AffineFunc(v[i] - s * grid[i], (s,)) for i, s in enumerate(slope)))
    return res.value, res.u, u


def test_lp_interval_lambda_half():
    lam, x, u = interval_lp(2.0, 64)
    assert 0.48 <= lam <= 0.52
    assert _status(lam, lam) == "uniformly-stable"
    assert FunctionalEvaluator(interval(), 2.0).boundary_norm(u) == pytest.approx(1.0, abs=1e-9)
    assert x.min() >= -1e-12


def test_lp_interval_instability_witness():
    lam, _, u = interval_lp(A_UNSTABLE, 64)
    assert _status(lam, lam) == "relatively-unstable"
    assert lam <= -1 / 30
    ev = FunctionalEvaluator(interval(), A_UNSTABLE)
    assert ev.linear_functional(u) == pytest.approx(lam, abs=1e-9)


@pytest.mark.parametrize("A, status", [(4.0, "uniformly-stable"),
                                       (AffineFunc(-2.0, (12.0, 0.0)), "relatively-unstable")],
                         ids=["stable", "unstable"])
def test_lp_destabilizer_is_a_normalized_witness_on_the_square(A, status):
    # the LP's minimizer is >= 0, zero at p_o and of unit |u|_b, and the
    # evaluator's L_A of it is lambda-hat
    P = unit_square()
    m = make_mesh(P, 1 / 6, point=[0.5, 0.5])
    rep = lp_stability_estimate(P, A, m)
    assert rep.status == status
    d = rep.destabilizer
    assert float(m.boundary_vertex_weights @ d.values) == pytest.approx(1.0, abs=1e-9)
    assert d.values.min() >= -1e-12
    assert d.values[d.p_o_index] == 0.0
    ev = FunctionalEvaluator(P, A)
    assert ev.linear_functional(d) == pytest.approx(rep.lambda_hat, abs=1e-9)


def test_lp_square_stable_across_refinements():
    # stable by the LP at h and by its min with the crease sweep, whose upper
    # bound the LP value stays below
    rep = analyze_stability(unit_square(), 4.0, 1 / 8)
    assert rep.status == "uniformly-stable"
    assert rep.lambda_hat > 1e-3
    assert rep.lambda_hat_refined > 1e-3
    assert rep.lambda_hat <= rep.crease_sweep_min + 1e-9


def test_lp_boundary_case_status():
    lam, _, _ = interval_lp(A_EXTREMAL_RAY, 64)
    assert _status(lam, lam) == "boundary-case"
    assert abs(lam) <= 1e-9


@pytest.mark.parametrize("P, h", [(unit_square(), 1 / 12), (standard_simplex(), 1 / 8),
                                  (PENTAGON, 1 / 5)], ids=["square", "simplex", "pentagon"])
def test_lp_rows_span_no_more_columns_than_their_hinges(P, h):
    # the entries of p_o carry coefficient 0 at a column already in their row,
    # so the rows are the convexity rows with p_o's column deleted
    mesh = make_mesh(P, h, point=center_of_mass(P))
    lp = StabilityLP(P, 0.0, mesh)
    idx, coef = lp.rows
    assert np.all(np.ptp(idx, axis=1) <= np.ptp(mesh.hinges, axis=1))
    dense = np.zeros((len(idx), mesh.num_vertices - 1))
    np.add.at(dense, (np.arange(len(idx))[:, None], idx), coef)
    full = np.zeros((len(idx), mesh.num_vertices))
    np.add.at(full, (np.arange(len(idx))[:, None], mesh.convexity_rows[0]), mesh.convexity_rows[1])
    assert np.array_equal(dense, np.delete(full, lp.p_o_index, axis=1))


def test_cone_contains_representable_creases():
    # grid-representable normalized creases are LP-feasible: lambdaHat <= ratio
    lam, _, _ = interval_lp(2.0, 16)
    for t in np.linspace(0.0, 1.0, 17)[3:-3]:
        assert lam <= crease_ratio_oracle_interval(float(t), 2.0) + 1e-9


def test_lambda_monotone_under_refinement():
    P = unit_square()
    lams = []
    for h in (1 / 4, 1 / 8, 1 / 16):
        rep = lp_stability_estimate(P, 4.0, make_mesh(P, h, point=[0.5, 0.5]))
        lams.append(rep.lambda_hat)
    assert lams[1] <= lams[0] + 1e-9
    assert lams[2] <= lams[1] + 1e-9
    T = standard_simplex()
    lamT = []
    p_o = [0.375, 0.375]  # shared vertex of both meshes
    for h in (1 / 8, 1 / 16):
        rep = lp_stability_estimate(T, 6.0, make_mesh(T, h, point=p_o))
        lamT.append(rep.lambda_hat)
    assert lamT[1] <= lamT[0] + 1e-9


@pytest.mark.parametrize("h", [2.0, 1.0, 1 / 4, 1 / 8])
def test_pentagon_lambda_hat_is_normalized_at_the_center_of_mass_at_every_h(h):
    # the mesh has grid lines through p_o, so the LP normalizes at p_o itself
    # and lambda-hat does not move with h (at the nearest vertex it read
    # 0.19857 at h = 1 and 0.27232 at h = 1/8, and h = 2 had no interior vertex)
    p_o = center_of_mass(PENTAGON)
    rep = lp_stability_estimate(PENTAGON, extremal_affine(PENTAGON),
                                make_mesh(PENTAGON, h, point=p_o))
    assert np.array_equal(rep.p_o, p_o)
    assert rep.lambda_hat == pytest.approx(0.26688215637225, abs=1e-9)


def test_solvable_fixtures_all_stable():
    # necessity direction: solvable (Delta, A) pairs test stable by the LP and
    # by the crease sweep
    for P, A, h in ((interval(), 2.0, 1 / 32), (unit_square(), 4.0, 1 / 8),
                    (standard_simplex(), 6.0, 1 / 8)):
        rep = analyze_stability(P, A, h)
        assert rep.lambda_hat > 1e-3
        assert rep.lambda_hat_refined > 1e-3
        assert rep.status == "uniformly-stable"


OCTAGON = build_polytope([((a, b), c) for a, b, c in (
    (-0.07135017234771379, -0.018229390897886333, -0.10444890206085022),
    (0.08776686201811085, -2.7520203549222337, -0.9445889198584387),
    (0.27113212571294504, -0.03159021783582072, -0.3854910168252808),
    (0.15355920502810239, 0.005304431246934582, -0.2176813690277003),
    (0.006846206528727278, 0.0006256034995040238, -0.009753904100045315),
    (0.8969985666307263, 0.4363470521048174, -1.3249364622682358),
    (-0.3240010682291723, 2.2072110443816415, -1.9560890409523655),
    (-1.0209517253417257, 0.1523518324230433, -1.364232234971958))])
STATUS_FIXTURES = {  # (P, A or None for the extremal field, h, status)
    "interval": (interval(), None, 1 / 16, "uniformly-stable"),
    "interval-2+x": (interval(), AffineFunc(2.0, (1.0,)), 1 / 16, "uniformly-stable"),
    "square": (unit_square(), None, 1 / 16, "uniformly-stable"),
    "square-affine": (unit_square(), AffineFunc(-2.0, (12.0, 0.0)), 1 / 6,
                      "relatively-unstable"),
    "square-quadratic": (unit_square(), parse_field("4 + 12*(x - 1/2)^2", 2), 1 / 4,
                         "uniformly-stable"),
    "simplex": (standard_simplex(), None, 1 / 16, "uniformly-stable"),
    "pentagon-1/8": (PENTAGON, None, 1 / 8, "uniformly-stable"),
    "pentagon-1/4": (PENTAGON, None, 1 / 4, "uniformly-stable"),
    "octagon-0.84": (OCTAGON, None, 0.84, "uniformly-stable"),
    "octagon-0.42": (OCTAGON, None, 0.42, "uniformly-stable"),
    "octagon-0.3": (OCTAGON, None, 0.3, "uniformly-stable"),
}


@pytest.mark.parametrize("name", list(STATUS_FIXTURES))
def test_refined_lambda_is_the_lp_value_or_the_sweep_minimum(name):
    # both are L_A(u) / |u|_b of members of the normalized cone; the statuses
    # are the ones a second LP on the mesh at h/2 gives as well
    P, A, h, status = STATUS_FIXTURES[name]
    rep = analyze_stability(P, extremal_affine(P) if A is None else A, h)
    assert rep.lambda_hat_refined == min(rep.lambda_hat, rep.crease_sweep_min) <= rep.lambda_hat
    assert rep.status == status
    # the ray bound sits below both upper bounds
    if rep.lambda_lower is not None:
        assert rep.lambda_lower <= rep.lambda_hat_refined + 1e-12
    # the certificate needs a positive lower bound as well as the status
    has_certificate = status == "uniformly-stable" and (rep.lambda_lower or 0.0) > 0.0
    assert (rep.certificates is not None) == has_certificate


def test_certificate_takes_lambda_lower():
    # on the pentagon at h = 1/8 the status reads the sweep's crease, which
    # beats the LP; the certificate reads the ray bound below both
    rep = analyze_stability(PENTAGON, extremal_affine(PENTAGON), 1 / 8)
    assert rep.lambda_hat_refined == rep.crease_sweep_min < rep.lambda_hat
    assert rep.status == "uniformly-stable"
    assert 0.0 < rep.lambda_lower < rep.lambda_hat_refined
    assert rep.certificates.epsilon_prime == pytest.approx(rep.lambda_lower / 2, rel=1e-12)
    assert rep.certificates.provenance["lambda"] == rep.lambda_lower
    assert rep.certificates.c_prime == ray_bounds(PENTAGON, 1.0, rep.p_o)[1]


def test_analyze_stability_solves_one_lp(monkeypatch):
    # the lambda-hat LP; C' comes from the ray bound, with no LP
    calls, solve = [], cone_lp.solve_cone_lp
    monkeypatch.setattr(cone_lp, "solve_cone_lp", lambda *a: calls.append(1) or solve(*a))
    rep = analyze_stability(PENTAGON, extremal_affine(PENTAGON), 1 / 4)
    assert rep.certificates is not None
    assert len(calls) == 1


def test_analyze_stability_builds_one_mesh(monkeypatch):
    import polystab.stability

    built = []

    def counting(P, h, point=None):
        built.append((h, tuple(point)))
        return make_mesh(P, h, point=point)

    monkeypatch.setattr(polystab.stability, "make_mesh", counting)
    P, h = unit_square(), 1 / 4
    analyze_stability(P, 4.0, h)
    assert built == [(h, tuple(center_of_mass(P)))]


def test_interval_runs_build_no_mesh_lp_or_crease_grid(monkeypatch):
    # stability and verify on an interval take lambda from the hinges alone;
    # on the square each of these runs once
    import sys

    import polystab.stability

    calls = []
    names = ("make_mesh", "mesh_linear_forms", "StabilityLP", "crease_sweep")
    originals = {name: getattr(polystab.stability, name) for name in names}
    for module in [m for n, m in list(sys.modules.items()) if n.startswith("polystab.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, lambda *args, _name=name, _fn=fn, **kwargs:
                                    calls.append(_name) or _fn(*args, **kwargs))
    P = interval()
    for A in (extremal_affine(P), AffineFunc(-7.0, (9.0,)), A_UNSTABLE):
        analyze_stability(P, A, 1 / 16)
    rows = {name: ok for name, ok, _, _ in verify_audits(P, 1 / 16, 0, audit_count=2)}
    assert all(rows.values())
    assert calls == []
    analyze_stability(unit_square(), 4.0, 1 / 4)
    assert sorted(calls) == sorted(names)


# -- degeneracy diagnostics ------------------------------------------------------------

def test_degeneracy_scripted_sequences():
    P = interval()
    ev = FunctionalEvaluator(P, 2.0)
    seqs, ks = scripted_sequences(P)
    segments = [(0.25, 0.75)]

    d1 = degeneracy_diagnostic(seqs["escaping-crease"], segments, ev, labels=ks)
    assert d1.status == "degenerating-to-affine"
    assert d1.degenerating_to_affine
    assert not d1.l_a_vanishing  # L_A -> 1, not 0
    assert d1.linear_values[-1] == pytest.approx(1.0 - 1.0 / ks[-1], rel=1e-6)
    assert np.allclose(d1.boundary_norms, 1.0, atol=1e-12)

    d2 = degeneracy_diagnostic(seqs["fixed-mass"], segments, ev, labels=ks)
    assert d2.status == "stable-mass"
    assert not d2.degenerating_to_affine
    assert np.allclose(d2.masses, 2.0)
    assert np.allclose(d2.linear_values, 0.5)
    floor, tau = d2.tau[0]
    assert floor == pytest.approx(2.0)
    assert tau == pytest.approx(0.25)

    d3 = degeneracy_diagnostic(seqs["shrinking"], segments, ev, labels=ks)
    assert d3.status == "degenerating-to-zero"
    assert d3.l_a_vanishing
    assert d3.masses[-1, 0] == pytest.approx(2.0 / ks[-1])


def test_degeneracy_deterministic():
    P = interval()
    ev = FunctionalEvaluator(P, 2.0)
    seqs, ks = scripted_sequences(P)
    a = degeneracy_diagnostic(seqs["shrinking"], [(0.3, 0.7)], ev)
    b = degeneracy_diagnostic(seqs["shrinking"], [(0.3, 0.7)], ev)
    assert np.array_equal(a.masses, b.masses)
    assert np.array_equal(a.linear_values, b.linear_values)


def test_escaping_crease_has_unit_boundary_norm_on_a_weighted_interval():
    # [0, 1] written as {x >= 0, -2x >= -2}: the upper endpoint has weight 1/2
    P = build_polytope([((1.0,), 0.0), ((-2.0,), -2.0)])
    ev = FunctionalEvaluator(P, extremal_affine(P))
    seqs, _ = scripted_sequences(P)
    d = degeneracy_diagnostic(seqs["escaping-crease"], [(0.25, 0.75)], ev)
    assert np.allclose(d.boundary_norms, 1.0, rtol=0.0, atol=1e-12)
    assert d.status == "degenerating-to-affine"


def test_scripted_sequences_in_2d():
    P = unit_square()
    ev = FunctionalEvaluator(P, 4.0)
    seqs, ks = scripted_sequences(P)
    segments = [((0.3, 0.5), (0.7, 0.5))]
    d1 = degeneracy_diagnostic(seqs["escaping-crease"], segments, ev)
    assert d1.status == "degenerating-to-affine"
    # slope 1e7 at k = 1e7 amplifies the rounding of the kink position
    assert np.allclose(d1.boundary_norms, 1.0, rtol=0.0, atol=1e-8)
    d2 = degeneracy_diagnostic(seqs["fixed-mass"], segments, ev)
    assert d2.status == "stable-mass"
    assert np.allclose(d2.masses, 2.0)
    d3 = degeneracy_diagnostic(seqs["shrinking"], segments, ev)
    assert d3.status == "degenerating-to-zero"
    assert d3.masses[-1, 0] == pytest.approx(2.0 / ks[-1])


# -- L1-boundary constant ----------------------------------------------------------------

def l1_lp(P, mesh):
    """(C' LP value, maximizer): max int(u) dmu over the mesh's cone with
    |u|_b = 1, normalized at its point, by `solve_cone_lp`."""
    lp = StabilityLP(P, 0.0, mesh)
    mass = mesh_linear_forms(mesh, 1.0)[1]
    res = cone_lp.solve_cone_lp(-mass[lp.free], *lp.rows, lp.b_weights[lp.free])
    values = np.zeros(mesh.num_vertices)
    values[lp.free] = res.u
    return -res.value, values


def l1_hinge_lp(P, cells):
    """The C' LP value of the interval P on `hinge_lp`'s uniform grid of
    `cells` cells (an even count), normalized at its midpoint; hinge_lp's c
    with no boundary weights and A = 1 is minus the mass."""
    x = np.linspace(*P.vertices[:, 0], cells + 1)
    _, idx, coef, b = hinge_lp(x, cells // 2, 1.0, P.boundary_weights)
    return -cone_lp.solve_cone_lp(hinge_lp(x, cells // 2, 1.0, (0.0, 0.0))[0], idx, coef, b).value


def test_l1_constant_interval():
    P = interval()
    assert l1_hinge_lp(P, 64) == pytest.approx(0.25, abs=1e-9)
    # the maximizer is a midpoint crease, mass 1/4 at boundary norm 1, which
    # the ray bound reaches exactly
    assert ray_bounds(P, 2.0, [0.5]) == (0.5, 0.25)


def test_l1_constant_square_bounded_by_crease_family():
    P = unit_square()
    m = make_mesh(P, 1 / 8, point=[0.5, 0.5])
    cp, _ = l1_lp(P, m)
    # crease lower bound: the max over normalized axis creases; the ray bound
    # 1/6 above, which the axis crease reaches
    ev = FunctionalEvaluator(P, 1.0)
    u = normalize(crease(AffineFunc(-0.5, (1.0, 0.0))), [0.5, 0.5])
    lower = ev.interior_integral(u) / ev.boundary_norm(u)
    assert lower - 1e-9 <= cp <= ray_bounds(P, 1.0, [0.5, 0.5])[1] + 1e-12
    assert lower == pytest.approx(1 / 6, abs=1e-12)


# -- ray bounds ---------------------------------------------------------------------------

@pytest.mark.parametrize("P, lam, c_prime", [(interval(), 1 / 2, 1 / 4),
                                              (unit_square(), 1 / 3, 1 / 6),
                                              (standard_simplex(), 1 / 3, 1 / 9)],
                         ids=["interval", "square", "simplex"])
def test_ray_bounds_are_exact_where_the_extremal_field_is_constant(P, lam, c_prime):
    lower, upper = ray_bounds(P, extremal_affine(P), center_of_mass(P))
    assert lower == pytest.approx(lam, abs=1e-14)
    assert upper == pytest.approx(c_prime, abs=1e-14)


def test_ray_bounds_on_the_pentagon():
    lower, upper = ray_bounds(PENTAGON, extremal_affine(PENTAGON), center_of_mass(PENTAGON))
    assert lower == pytest.approx(0.0523162258111, abs=1e-12)
    assert upper == pytest.approx(5 / 9, abs=1e-14)


def _sampled_sup_w(P, A, p_o, m=2001):
    """sup of w(b) = delta_F int_0^1 A(p_o + t (b - p_o)) t^n dt over m points
    of each facet, by a Gauss rule in t that is exact for quadratic A."""
    n, p = P.dimension, np.asarray(p_o, dtype=float)
    t, wt = gauss_rule(4)
    delta = P.gaps(p)  # dsigma = dA / |h|: the cone factor is the gap
    sup = -np.inf
    for k, ends in enumerate(P.facet_vertices):
        e = P.vertices[list(ends)]
        b = e[0] + np.linspace(0.0, 1.0, m)[:, None] * (e[-1] - e[0])
        x = p + t[:, None, None] * (b - p)  # (gauss, m, n)
        vals = as_field(A, n)(x.reshape(-1, n)).reshape(len(t), m)
        sup = max(sup, float(np.max(delta[k] * (wt * t**n) @ vals)))
    return sup


@pytest.mark.parametrize("P, field", [
    (unit_square(), "4 + 12*(x - 1/2)^2"),
    (unit_square(), "4 - 12*(x - 1/2)^2"),
    (PENTAGON, "0.1 + (x - 1.2)^2 + (y - 0.9)^2 + 0.5*(x - 1.2)*(y - 0.9)"),
    (PENTAGON, "3 + 0.2*(x - 1)*(y - 1)"),
    (PENTAGON, "2 - 0.2*x^2 + 0.1*y"),
    (interval(), "1 + 3*(x - 0.3)^2"),
], ids=["square-convex", "square-concave", "pentagon-bowl", "pentagon-saddle",
        "pentagon-concave", "interval"])
def test_ray_bound_of_a_quadratic_field_is_the_sampled_sup(P, field):
    A = parse_field(field, P.dimension)
    p_o = center_of_mass(P)
    lower, _ = ray_bounds(P, A, p_o)
    sampled = _sampled_sup_w(P, A, p_o)
    # the closed form is the sup itself: at or above any sample, and within
    # the samples' spacing of them
    assert sampled - 1e-13 <= 1.0 - lower <= sampled + 1e-6


@pytest.mark.parametrize("P, field", [
    (unit_square(), "-2 + 12*x"),                             # negative at a vertex
    (unit_square(), "(x - 0.5)^2 + (y - 0.5)^2 - 0.01"),      # negative only inside
    (PENTAGON, "1 - (x - 1.5)^2"),                            # negative at x = 0 and 3
    (interval(), "48*x^2 - 48*x + 11.9"),                      # negative at the midpoint
], ids=["square-affine", "square-bowl", "pentagon-cap", "interval"])
def test_ray_bound_of_a_field_that_changes_sign_is_none(P, field):
    # no longer None: the bound of A - min_P A holds for A too, below lambda-hat
    A, p_o = parse_field(field, P.dimension), center_of_mass(P)
    lower, upper = ray_bounds(P, A, p_o)
    size = float(np.max(np.ptp(P.vertices, axis=0)))
    lam = (hinge_minimum(P, A, p_o)[0] if P.dimension == 1
           else lp_stability_estimate(P, A, make_mesh(P, size / 4, point=p_o)).lambda_hat)
    assert lower <= lam + 1e-12
    assert upper == ray_bounds(P, 1.0, p_o)[1]


def test_ray_bound_of_an_unknown_field_is_none():
    P = unit_square()
    assert ray_bounds(P, lambda pts: np.full(len(pts), 4.0), [0.5, 0.5]) == (None, 1 / 6)


@pytest.mark.parametrize("shift, scale", [((0.0, 0.0), 1e-3), ((1e4, -3e3), 1.0),
                                          ((-505.0, -976.25), 7.0)])
def test_ray_bound_is_invariant_under_translation_and_dilation(shift, scale):
    # x -> scale x + shift keeps the normals, scales the gaps by `scale`, and
    # the extremal field by 1 / scale, so w does not move
    lower = ray_bounds(PENTAGON, extremal_affine(PENTAGON), center_of_mass(PENTAGON))[0]
    Q = build_polytope([(n, scale * c + float(np.dot(n, shift)))
                        for n, c in zip(PENTAGON.normals, PENTAGON.offsets)])
    moved = ray_bounds(Q, extremal_affine(Q), center_of_mass(Q))[0]
    assert moved == pytest.approx(lower, rel=1e-12)


@pytest.mark.parametrize("name", ["interval", "square", "pentagon", "simplex", "octagon"])
def test_ray_bound_on_c_prime_is_above_the_lp(name):
    P = {"interval": interval(), "square": unit_square(), "pentagon": PENTAGON,
         "simplex": standard_simplex(), "octagon": OCTAGON}[name]
    p_o = center_of_mass(P)
    size = float(np.max(np.ptp(P.vertices, axis=0)))
    cp = l1_hinge_lp(P, 8) if P.dimension == 1 else l1_lp(P, make_mesh(P, size / 8, point=p_o))[0]
    assert ray_bounds(P, 1.0, p_o)[1] >= cp - 1e-12


@settings(max_examples=15, deadline=None)
@given(points=lattice_points, s=st.sampled_from([0.25, 0.5, 1.0]))
def test_ray_bounds_bracket_the_lp_on_lattice_polygons(points, s):
    # A = s (A_P - min(A_P, 0)), an affine field >= 0 on P and zero at a
    # vertex when A_P is negative somewhere, where its closed-form minimum
    # rounds to about -1e-16: lambda_lower is <= min(lambda-hat, crease
    # sweep), and c_prime_upper >= the C' LP, on a coarse mesh through p_o
    P = _lattice_polygon(points)
    assume(P is not None)
    A_P = extremal_affine(P)
    low = min(0.0, float(np.min(A_P(P.vertices))))
    A = AffineFunc(s * (A_P.a0 - low), tuple(s * a for a in A_P.a))
    p_o = center_of_mass(P)
    mesh = make_mesh(P, float(np.max(np.ptp(P.vertices, axis=0))) / 4, point=p_o)
    lower, upper = ray_bounds(P, A, p_o)
    sweep, _ = crease_sweep(P, A, p_o=p_o)
    assert lower <= min(lp_stability_estimate(P, A, mesh).lambda_hat, sweep) + 1e-12
    assert upper >= l1_lp(P, mesh)[0] - 1e-12


# -- properness certificate -----------------------------------------------------------------

def test_certificate_interval_closed_forms():
    P = interval()
    lam, _ = hinge_minimum(P, 2.0, [0.5])
    cert = properness_certificate(P, 2.0, *ray_bounds(P, 2.0, [0.5]))
    assert lam == 0.5
    assert cert.c_o == pytest.approx(1.0, abs=1e-5)
    assert cert.c_prime == 0.25
    assert cert.r_bound == pytest.approx(1.5, abs=0.05)
    assert cert.epsilon_prime == pytest.approx(lam / 2)
    assert cert.r_small == pytest.approx(lam / (2 * cert.r_bound))
    assert cert.c_const == pytest.approx(cert.c_o - np.log(cert.r_small), abs=1e-9)
    assert cert.epsilon == pytest.approx(cert.epsilon_prime / cert.c_prime)
    assert cert.epsilon_prime > 0
    assert cert.r_small < lam / cert.r_bound


@pytest.mark.parametrize("P, c_o", [(interval(), 1.0), (unit_square(), 2.0),
                                     (standard_simplex(), 1.25), (PENTAGON, 3.819077379)],
                         ids=["interval", "square", "simplex", "pentagon"])
def test_c_o_is_the_log_det_integral_of_u_o_less_n_vol(P, c_o):
    # C_o = -F_{A_o}(u_o) = int log det Hess u_o - n Vol, by L_{A_o}(u_o) = n Vol;
    # the values are the closed-form integrals of log det Hess u_o less n Vol
    cert = properness_certificate(P, 4.0, 0.5, 0.25)
    assert cert.c_o == pytest.approx(c_o, abs=2e-7)


def test_graded_rule_is_built_only_when_read(monkeypatch):
    import polystab.functionals

    calls = []
    graded = polystab.functionals.graded_scheme
    monkeypatch.setattr(polystab.functionals, "graded_scheme",
                        lambda *args, **kwargs: calls.append(1) or graded(*args, **kwargs))
    # the relatively-unstable branch never reads the graded rule
    rep = analyze_stability(unit_square(), AffineFunc(-2.0, (12.0, 0.0)), 1 / 6)
    assert rep.status == "relatively-unstable"
    assert calls == []
    # the certificate reads it once, on the sweep's evaluator, for the A_o
    # samples and the Mabuchi energy of u_o, and gets the constants the
    # eager rule gave
    P = interval()
    rep = analyze_stability(P, extremal_affine(P), 1 / 16)
    assert calls == [1]
    cert = rep.certificates
    got = (cert.a_o_sup, cert.c_o, cert.c_prime, cert.r_bound, cert.r_small,
           cert.epsilon_prime, cert.c_const, cert.epsilon)
    assert got == pytest.approx((2.100000000060387, 0.9999998631559914, 0.25, 1.5250000000150967,
                                 0.16393442622788532, 0.25, 2.8082886343451565, 1.0), rel=1e-12)


def test_certificate_requires_positive_lambda():
    with pytest.raises(NonpositiveLambda):
        properness_certificate(interval(), 2.0, -0.1, 0.25)


def _guillemin_type_samples(P, p_o, seed, count):
    """normalize(u_o + q, p_o) for random convex quadratics q vanishing at p_o."""
    rng, u_o = np.random.default_rng(seed), guillemin_potential(P)
    for _ in range(count):
        yield normalize(_plus_quadratic(u_o, p_o, _random_spd(rng, P.dimension)), p_o)


def test_certificate_bound_on_guillemin_type_samples():
    P, p_o = interval(), np.array([0.5])
    ev = FunctionalEvaluator(P, 2.0)
    cert = properness_certificate(P, 2.0, *ray_bounds(P, 2.0, p_o), evaluator=ev)
    for u in _guillemin_type_samples(P, p_o, 101, 50):
        assert u(p_o) == pytest.approx(0.0, abs=1e-12)
        F = ev.mabuchi(u).value
        assert F >= -cert.c_const + cert.epsilon_prime * ev.boundary_norm(u) - 1e-9
    # smallest audit member: F_A(u_o) = -1 >= -C
    uo = guillemin_potential(P)
    assert ev.mabuchi(uo).value >= -cert.c_const


def test_theorem_properness_square():
    # F_A(u) >= -C + eps' |u|_b on Guillemin-type samples, from lambda_lower
    # and the ray bound on C'; on the pentagon the LP's lambda-hat is 5 times
    # lambda_lower
    for P, seed in ((unit_square(), 55), (PENTAGON, 56)):
        A, p_o = extremal_affine(P), center_of_mass(P)
        ev = FunctionalEvaluator(P, A)
        lam, c_prime = ray_bounds(P, A, p_o)
        cert = properness_certificate(P, A, lam, c_prime, evaluator=ev)
        worst = np.inf
        for u in _guillemin_type_samples(P, p_o, seed, 20):
            F = ev.mabuchi(u).value
            worst = min(worst, F + cert.c_const - cert.epsilon_prime * ev.boundary_norm(u))
        assert worst >= -1e-9


# -- solution norm bound -----------------------------------------------------------------

def test_solution_norm_bound_values():
    assert solution_norm_bound(interval(), 0.5) == pytest.approx(2.0, rel=1e-12)
    # doubling the interval doubles n Vol
    from polystab.polytope import build_polytope

    P2 = build_polytope([((1.0,), 0.0), ((-1.0,), -2.0)])
    assert solution_norm_bound(P2, 0.5) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(NonpositiveLambda):
        solution_norm_bound(interval(), 0.0)


def test_solution_norm_bound_audit():
    # the Guillemin solution has |v|_b = 0 on the interval; L_A(v) = n Vol
    P = interval()
    ev = FunctionalEvaluator(P, 2.0)
    uo = guillemin_potential(P)
    assert abs(ev.boundary_norm(uo)) <= solution_norm_bound(P, 0.5)
    assert ev.linear_functional(uo) == pytest.approx(1.0, abs=1e-6)
    S = unit_square()
    evS = FunctionalEvaluator(S, 4.0)
    uoS = guillemin_potential(S)
    m = make_mesh(S, 1 / 8, point=[0.5, 0.5])
    rep = lp_stability_estimate(S, 4.0, m)
    bound = solution_norm_bound(S, rep.lambda_hat)
    assert evS.boundary_norm(uoS) <= bound
    # normalized solution obeys the bound too
    v = normalize(uoS, [0.5, 0.5])
    assert evS.boundary_norm(v) <= bound


# -- consistency between the two stability notions -----------------------------------------

def test_instability_agreement():
    # the LP, the hinge minimum and the ray bound agree on the sign of lambda
    P = interval()
    lam = hinge_minimum(P, A_UNSTABLE, [0.5])[0]
    assert ray_bounds(P, A_UNSTABLE, [0.5])[0] <= lam <= interval_lp(A_UNSTABLE, 32)[0] < 0
    assert interval_lp(2.0, 32)[0] > 1e-3 and hinge_minimum(P, 2.0, [0.5])[0] > 1e-3
    assert ray_bounds(P, 2.0, [0.5])[0] > 1e-3


@pytest.mark.parametrize("P, h", [(interval(), 1 / 8), (unit_square(), 1 / 4)],
                         ids=["interval", "square"])
def test_verify_takes_l_a_of_the_solution_once(P, h, monkeypatch):
    # one graded-block pass per Guillemin-type function: L_A(v), which the
    # identity for u = v, the solution row and the norm-bound row share, and
    # the log-det term of u_o in the certificate; the properness-bound samples
    # take one pass each and are counted apart
    import polystab.audits

    passes, rule_for, samples = [], FunctionalEvaluator._rule_for, []

    def counting(self, u, *args, **kwargs):
        if getattr(u, "guillemin_type", False):
            passes.append(u)
        return rule_for(self, u, *args, **kwargs)

    def sampling(u, p_o):
        samples.append(normalize(u, p_o))
        return samples[-1]

    monkeypatch.setattr(FunctionalEvaluator, "_rule_for", counting)
    monkeypatch.setattr(polystab.audits, "normalize", sampling)
    rows = {name: ok for name, ok, _, _ in verify_audits(P, h, 0, audit_count=2)}
    assert rows["ibp-identity"] and rows["linear-functional-of-solution"]
    assert rows["properness-bound"] and len(samples) == 2
    others = [u for u in passes if not any(u is s for s in samples)]
    assert len(others) == 2 and others[0] is not others[1]
