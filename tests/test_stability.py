import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polystab.audits import (
    degeneracy_diagnostic,
    relative_kpolystability_check,
    scripted_sequences,
    solution_norm_bound,
    verify_audits,
)
from polystab.convex import (
    AffineFunc,
    crease,
    guillemin_potential,
    normalize,
    random_normalized_mesh_function,
)
from polystab.errors import EmptyGrid, NonpositiveLambda
from polystab.fields import parse_field
from polystab.functionals import (
    FunctionalEvaluator,
    as_field,
    extremal_affine,
    field_degree,
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
    analyze_stability,
    crease_functionals,
    crease_sweep,
    default_crease_grid,
    l1_boundary_constant,
    lp_stability_estimate,
    properness_certificate,
)

A_UNSTABLE = AffineFunc(2.0 - 3.5, (7.0,))  # 2 + 7(x - 1/2)
A_EXTREMAL_RAY = parse_field("48*x^2 - 48*x + 10", 1)


def crease_ratio_oracle_interval(t, A):
    """L_A(normalized crease at t) / |.|_b on [0, 1] by direct 1D integration.

    u = normalize(max(0, x - t), p_o = 1/2) is linear away from its kink t, so
    the Gauss rule is split at t and at p_o.  On each piece A u is a
    polynomial of degree deg(A) + 1, and a rule of (deg(A) + 3) // 2 points
    integrates it exactly; the result is exact for polynomial A.
    """
    p_o = 0.5
    npts = (field_degree(A) + 3) // 2  # 2 npts - 1 >= deg(A) + 1
    x, w = gauss_rule(npts)
    Af = as_field(A, 1)
    u = normalize(crease(AffineFunc(-t, (1.0,))), [p_o])
    bn = float(u(np.array([0.0]))) + float(u(np.array([1.0])))
    la = bn
    cuts = np.unique([0.0, t, p_o, 1.0])
    for a, b in zip(cuts[:-1], cuts[1:]):
        pts = (a + (b - a) * x)[:, None]
        la -= (b - a) * float(w @ (Af(pts) * u(pts)))
    return la / bn


# -- crease sweep -----------------------------------------------------------------

def test_crease_sweep_interval_minimum():
    ratio, arg = crease_sweep(interval(), 2.0, p_o=[0.5])
    assert ratio == pytest.approx(0.5, abs=1e-6)
    # the minimizer is the crease kinked at the midpoint
    assert arg(np.array([0.5])) == pytest.approx(0.0, abs=1e-12)
    assert arg(np.array([1.0])) == pytest.approx(0.5, abs=1e-9)


def test_crease_sweep_detects_instability():
    ev = FunctionalEvaluator(interval(), A_UNSTABLE)
    u = normalize(crease(AffineFunc(-0.5, (1.0,))), [0.5])
    assert ev.linear_functional(u) == pytest.approx(-1 / 24, abs=1e-12)
    ratio, _ = crease_sweep(interval(), A_UNSTABLE, p_o=[0.5])
    assert ratio <= -1 / 12 + 1e-9


def test_crease_sweep_skips_trivial_creases():
    # grid of affine functions whose creases are outside or trivial
    grid = [AffineFunc(-5.0, (1.0,)), AffineFunc(-1.0, (0.0,))]
    with pytest.raises(EmptyGrid):
        crease_sweep(interval(), 2.0, grid=grid, p_o=[0.5])
    with pytest.raises(EmptyGrid):
        crease_sweep(interval(), 2.0, grid=[], p_o=[0.5])


def test_crease_ratio_matches_closed_form():
    # right crease ratio t, left crease ratio 1 - t for A = 2
    for t in (0.5, 0.625, 0.75):
        assert crease_ratio_oracle_interval(t, 2.0) == pytest.approx(t, abs=1e-12)
    for t in (0.1875, 0.25, 0.375, 0.4375):
        assert crease_ratio_oracle_interval(t, 2.0) == pytest.approx(1 - t, abs=1e-12)


PENTAGON = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
                           ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)])
SWEEP_FIXTURES = {
    "interval": (interval(), None),
    "interval-unstable": (interval(), A_UNSTABLE),
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
    both = [m for ell in grid for m in (ell, AffineFunc(-ell.a0, tuple(-a for a in ell.a)))]
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
    grid += [AffineFunc(-float(np.dot(ell.a, p_o)), ell.a) for ell in grid[:5]]
    mirror = [AffineFunc(-ell.a0, tuple(-a for a in ell.a)) for ell in grid]
    ev = FunctionalEvaluator(P, A)
    for row, mirror_row in zip(crease_functionals(grid, p_o, ev),
                               crease_functionals(mirror, p_o, ev)):
        np.testing.assert_array_equal(row, mirror_row)


def _oriented(ell, p_o):
    """ell oriented as crease_sweep does: < 0 at p_o, or with a lexicographically
    positive gradient where |ell(p_o)| <= 1e-12."""
    v = ell(p_o)
    flip = tuple(ell.a) < (0.0,) * len(ell.a) if abs(v) <= 1e-12 else v > 0.0
    return AffineFunc(-ell.a0, tuple(-a for a in ell.a)) if flip else ell


def _per_crease(P, A, grid, p_o):
    """(|u|_b, L_A(u)) of every normalized crease, one split rule each."""
    ev = FunctionalEvaluator(P, A)
    return np.array([ev.norm_and_linear(normalize(crease(_oriented(ell, p_o)), p_o))
                     for ell in grid]).T


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
            oracle.append(AffineFunc(-float(eta @ nodes[i]), tuple(eta)))
    assert default_crease_grid(P) == oracle


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
    tied = [_oriented(grid[i], p_o) for i in np.flatnonzero(ratio <= ratio.min() + 1e-12)]
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
    """Lines through p_o (exercising the tie rule) and lines offset from P's vertices."""
    grid = []
    for d in dirs:
        eta = np.array(d, dtype=float)
        grid.append(AffineFunc(-float(eta @ p_o), tuple(eta)))
        for v, off in zip(P.vertices, offsets):
            grid.append(AffineFunc(-float(eta @ v) + off, tuple(eta)))
    return grid


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

    def push(ell):
        # ell(x) = a0 + a . x  ->  ell(M^-1 (y - t)) = a0 - a' . t + a' . y, a' = M^-T a
        a = Minv_T @ ell.gradient()
        return AffineFunc(float(ell.a0 - a @ t), tuple(a))

    gaps = [push(AffineFunc(-c, tuple(h))) for h, c in zip(P.normals, P.offsets)]
    Q = build_polytope([(g.a, -g.a0) for g in gaps])
    A = extremal_affine(P)
    grid = _creases_for(P, center_of_mass(P), dirs, offsets)
    _, la, _, _ = crease_functionals(grid, center_of_mass(P), FunctionalEvaluator(P, A))
    _, la_Q, _, _ = crease_functionals([push(ell) for ell in grid], center_of_mass(Q),
                                       FunctionalEvaluator(Q, push(A)))
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

def test_lp_interval_lambda_half():
    P = interval()
    m = make_mesh(P, 1 / 64)
    rep = lp_stability_estimate(P, 2.0, m, p_o=[0.5])
    assert 0.48 <= rep.lambda_hat <= 0.52
    assert rep.status == "uniformly-stable"
    d = rep.destabilizer
    bn = float(m.boundary_vertex_weights @ d.values)
    assert bn == pytest.approx(1.0, abs=1e-9)
    assert d.values.min() >= -1e-12
    assert d.values[d.p_o_index] == 0.0


def test_lp_interval_instability_witness():
    P = interval()
    m = make_mesh(P, 1 / 64)
    rep = lp_stability_estimate(P, A_UNSTABLE, m, p_o=[0.5], refine=False)
    assert rep.status == "relatively-unstable"
    assert rep.lambda_hat <= -1 / 30
    ev = FunctionalEvaluator(P, A_UNSTABLE)
    assert ev.linear_functional(rep.destabilizer) == pytest.approx(rep.lambda_hat, abs=1e-9)


def test_lp_square_stable_across_refinements():
    P = unit_square()
    m = make_mesh(P, 1 / 8)
    rep = lp_stability_estimate(P, 4.0, m)
    assert rep.status == "uniformly-stable"
    assert rep.lambda_hat > 1e-3
    assert rep.lambda_hat_refined > 1e-3
    # value cross-checked against the crease-sweep upper bound
    sweep, _ = crease_sweep(P, 4.0)
    assert rep.lambda_hat <= sweep + 1e-9


def test_lp_boundary_case_status():
    P = interval()
    m = make_mesh(P, 1 / 64)
    rep = lp_stability_estimate(P, A_EXTREMAL_RAY, m, p_o=[0.5], refine=False)
    assert rep.status == "boundary-case"
    assert abs(rep.lambda_hat) <= 1e-9


@pytest.mark.parametrize("P, h", [(interval(), 1 / 16), (unit_square(), 1 / 12),
                                  (standard_simplex(), 1 / 8), (PENTAGON, 1 / 5)],
                         ids=["interval", "square", "simplex", "pentagon"])
def test_lp_rows_span_no_more_columns_than_their_hinges(P, h):
    # the entries of p_o carry coefficient 0 at a column already in their row,
    # so the rows are the convexity rows with p_o's column deleted
    mesh = make_mesh(P, h)
    lp = StabilityLP(P, 0.0, mesh)
    idx, coef = lp.rows
    assert np.all(np.ptp(idx, axis=1) <= np.ptp(mesh.hinges, axis=1))
    dense = np.zeros((len(idx), mesh.num_vertices - 1))
    np.add.at(dense, (np.arange(len(idx))[:, None], idx), coef)
    full = np.zeros((len(idx), mesh.num_vertices))
    np.add.at(full, (np.arange(len(idx))[:, None], mesh.convexity_rows[0]), mesh.convexity_rows[1])
    assert np.array_equal(dense, np.delete(full, lp.p_o_index, axis=1))


def test_cone_contains_representable_creases():
    # mesh-representable normalized creases are LP-feasible: lambdaHat <= ratio
    P = interval()
    m = make_mesh(P, 1 / 16)
    rep = lp_stability_estimate(P, 2.0, m, p_o=[0.5], refine=False)
    for t in m.vertices[3:-3, 0]:
        assert rep.lambda_hat <= crease_ratio_oracle_interval(float(t), 2.0) + 1e-9


def test_lambda_monotone_under_refinement():
    P = unit_square()
    lams = []
    for h in (1 / 4, 1 / 8, 1 / 16):
        rep = lp_stability_estimate(P, 4.0, make_mesh(P, h), p_o=[0.5, 0.5],
                                    refine=False)
        lams.append(rep.lambda_hat)
    assert lams[1] <= lams[0] + 1e-9
    assert lams[2] <= lams[1] + 1e-9
    T = standard_simplex()
    lamT = []
    p_o = [0.375, 0.375]  # shared vertex of both meshes
    for h in (1 / 8, 1 / 16):
        rep = lp_stability_estimate(T, 6.0, make_mesh(T, h), p_o=p_o, refine=False)
        lamT.append(rep.lambda_hat)
    assert lamT[1] <= lamT[0] + 1e-9


def test_solvable_fixtures_all_stable():
    # necessity direction: solvable (Delta, A) pairs test stable at both meshes
    for P, A, h in ((interval(), 2.0, 1 / 32), (unit_square(), 4.0, 1 / 8),
                    (standard_simplex(), 6.0, 1 / 8)):
        rep = lp_stability_estimate(P, A, make_mesh(P, h))
        assert rep.lambda_hat > 1e-3
        assert rep.lambda_hat_refined > 1e-3
        assert rep.status == "uniformly-stable"


# -- relative K-polystability ---------------------------------------------------------

def test_relative_kpolystability_fixtures():
    P = interval()
    m = make_mesh(P, 1 / 64)
    ok, wit = relative_kpolystability_check(P, 2.0, m, p_o=[0.5])
    assert ok is True and wit is None
    ok, wit = relative_kpolystability_check(P, A_UNSTABLE, m, p_o=[0.5])
    assert ok is False
    ev = FunctionalEvaluator(P, A_UNSTABLE)
    assert ev.linear_functional(wit) < 0


def test_relative_kpolystability_nontrivial_extremal():
    # A tuned so the crease at 1/2 is an extremal ray: L_A >= 0 with equality
    P = interval()
    ev = FunctionalEvaluator(P, A_EXTREMAL_RAY)
    u_half = normalize(crease(AffineFunc(-0.5, (1.0,))), [0.5])
    assert ev.linear_functional(u_half) == pytest.approx(0.0, abs=1e-12)
    for t in (0.25, 0.4, 0.6, 0.8):
        u = normalize(crease(AffineFunc(-t, (1.0,))), [0.5])
        assert ev.linear_functional(u) > 0
    m = make_mesh(P, 1 / 64)
    ok, wit = relative_kpolystability_check(P, A_EXTREMAL_RAY, m, p_o=[0.5])
    assert ok is False
    assert wit is not None
    # witness is (up to scaling) the crease at 1/2: mass 1, L_A ~ 0
    assert ev.linear_functional(wit) <= 1e-9
    # its only kink is at x = 1/2: second difference i belongs to vertex i + 1
    kinks = np.flatnonzero(np.diff(wit.values, 2) > 1e-9) + 1
    assert m.vertices[kinks, 0].tolist() == [0.5]


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

def test_l1_constant_interval():
    P = interval()
    m = make_mesh(P, 1 / 64)
    cp, maximizer = l1_boundary_constant(P, [0.5], m)
    assert cp == pytest.approx(0.25, abs=1e-9)
    # the maximizer is the midpoint crease, mass (1-t)/2 at boundary norm 1
    assert maximizer.values[m.nearest_vertex([0.5])] == 0.0


def test_l1_constant_square_bounded_by_crease_family():
    P = unit_square()
    m = make_mesh(P, 1 / 8)
    cp, _ = l1_boundary_constant(P, [0.5, 0.5], m)
    assert 0.0 < cp <= np.sqrt(2.0) / 2  # diam / 2
    # crease lower bound: the max over normalized axis creases
    ev = FunctionalEvaluator(P, 1.0)
    u = normalize(crease(AffineFunc(-0.5, (1.0, 0.0))), [0.5, 0.5])
    lower = ev.interior_integral(u) / ev.boundary_norm(u)
    assert cp >= lower - 1e-9


# -- properness certificate -----------------------------------------------------------------

def test_certificate_interval_closed_forms():
    P = interval()
    m = make_mesh(P, 1 / 64)
    rep = lp_stability_estimate(P, 2.0, m, p_o=[0.5], refine=False)
    cert = properness_certificate(P, 2.0, rep.lambda_hat, m, p_o=[0.5])
    assert cert.c_o == pytest.approx(1.0, abs=1e-5)
    assert cert.c_prime == pytest.approx(0.25, abs=0.02)
    assert cert.r_bound == pytest.approx(1.5, abs=0.05)
    assert cert.epsilon_prime == pytest.approx(rep.lambda_hat / 2)
    assert cert.r_small == pytest.approx(rep.lambda_hat / (2 * cert.r_bound))
    assert cert.c_const == pytest.approx(cert.c_o - np.log(cert.r_small), abs=1e-9)
    assert cert.epsilon == pytest.approx(cert.epsilon_prime / cert.c_prime)
    assert cert.epsilon_prime > 0
    assert cert.r_small < rep.lambda_hat / cert.r_bound


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
    # samples (the A_o evaluator's Mabuchi energy takes it one end at a
    # time), and gets the constants the eager rule gave
    P = interval()
    rep = analyze_stability(P, extremal_affine(P), 1 / 16)
    assert calls == [1]
    cert = rep.certificates
    got = (cert.a_o_sup, cert.c_o, cert.c_prime, cert.r_bound, cert.r_small,
           cert.epsilon_prime, cert.c_const, cert.epsilon)
    assert got == pytest.approx((2.100000000060387, 0.9999998537143773, 0.25, 1.5250000000150967,
                                 0.16393442622788532, 0.25, 2.8082886249035424, 1.0), rel=1e-12)


def test_certificate_requires_positive_lambda():
    P = interval()
    m = make_mesh(P, 1 / 16)
    with pytest.raises(NonpositiveLambda):
        properness_certificate(P, 2.0, -0.1, m)


def test_certificate_bound_on_random_normalized_mesh_functions():
    P = interval()
    m = make_mesh(P, 1 / 32)
    rep = lp_stability_estimate(P, 2.0, m, p_o=[0.5], refine=False)
    ev = FunctionalEvaluator(P, 2.0)
    cert = properness_certificate(P, 2.0, rep.lambda_hat, m, p_o=[0.5], evaluator=ev)
    rng = np.random.default_rng(101)
    for _ in range(50):
        u = random_normalized_mesh_function(m, rng)
        F = ev.mabuchi(u).value
        assert F >= -cert.c_const + cert.epsilon_prime * ev.boundary_norm(u) - 1e-9
    # smallest audit member: F_A(u_o) = -1 >= -C
    uo = guillemin_potential(P)
    assert ev.mabuchi(uo).value >= -cert.c_const


def test_theorem_properness_square():
    P = unit_square()
    m = make_mesh(P, 1 / 8)
    rep = lp_stability_estimate(P, 4.0, m, refine=False)
    ev = FunctionalEvaluator(P, 4.0)
    cert = properness_certificate(P, 4.0, rep.lambda_hat, m, evaluator=ev)
    rng = np.random.default_rng(55)
    worst = np.inf
    for _ in range(20):
        u = random_normalized_mesh_function(m, rng)
        F = ev.mabuchi(u).value
        worst = min(worst, F + cert.c_const)
        assert F >= -cert.c_const - 1e-9
    assert worst >= 0.0


# -- solution norm bound -----------------------------------------------------------------

def test_solution_norm_bound_values():
    assert solution_norm_bound(interval(), 2.0, 0.5) == pytest.approx(2.0, rel=1e-12)
    # doubling the interval doubles n Vol
    from polystab.polytope import build_polytope

    P2 = build_polytope([((1.0,), 0.0), ((-1.0,), -2.0)])
    assert solution_norm_bound(P2, 1.0, 0.5) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(NonpositiveLambda):
        solution_norm_bound(interval(), 2.0, 0.0)


def test_solution_norm_bound_audit():
    # the Guillemin solution has |v|_b = 0 on the interval; L_A(v) = n Vol
    P = interval()
    ev = FunctionalEvaluator(P, 2.0)
    uo = guillemin_potential(P)
    assert abs(ev.boundary_norm(uo)) <= solution_norm_bound(P, 2.0, 0.5)
    assert ev.linear_functional(uo) == pytest.approx(1.0, abs=1e-6)
    S = unit_square()
    evS = FunctionalEvaluator(S, 4.0)
    uoS = guillemin_potential(S)
    m = make_mesh(S, 1 / 8)
    rep = lp_stability_estimate(S, 4.0, m, refine=False)
    bound = solution_norm_bound(S, 4.0, rep.lambda_hat)
    assert evS.boundary_norm(uoS) <= bound
    # normalized solution obeys the bound too
    v = normalize(uoS, [0.5, 0.5])
    assert evS.boundary_norm(v) <= bound


# -- consistency between the two stability notions -----------------------------------------

def test_instability_agreement():
    P = interval()
    m = make_mesh(P, 1 / 32)
    rep = lp_stability_estimate(P, A_UNSTABLE, m, p_o=[0.5], refine=False)
    ok, wit = relative_kpolystability_check(P, A_UNSTABLE, m, p_o=[0.5])
    assert rep.lambda_hat < 0 and ok is False and wit is not None
    rep2 = lp_stability_estimate(P, 2.0, m, p_o=[0.5], refine=False)
    ok2, _ = relative_kpolystability_check(P, 2.0, m, p_o=[0.5])
    assert rep2.lambda_hat > 1e-3 and ok2 is True


@pytest.mark.parametrize("P, h", [(interval(), 1 / 8), (unit_square(), 1 / 4)],
                         ids=["interval", "square"])
def test_verify_takes_l_a_of_the_solution_once(P, h, monkeypatch):
    # one graded-block pass per Guillemin-type function: L_A(v), which the
    # identity for u = v, the solution row and the norm-bound row share, and
    # F_{A_o}(u_o) in the certificate
    passes, rule_for = [], FunctionalEvaluator._rule_for

    def counting(self, u):
        if getattr(u, "guillemin_type", False):
            passes.append(u)
        return rule_for(self, u)

    monkeypatch.setattr(FunctionalEvaluator, "_rule_for", counting)
    rows = {name: ok for name, ok, _, _ in verify_audits(P, h, 0, audit_count=2)}
    assert rows["ibp-identity"] and rows["linear-functional-of-solution"]
    assert len(passes) == 2 and passes[0] is not passes[1]
