import numpy as np
import pytest

from polystab.convex import (
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    SmoothConvexFunc,
    crease,
    guillemin_hessian,
    guillemin_potential,
    normalize,
    segment_ma_measure,
)
from polystab.errors import EvaluationOutsideDomain, SegmentTouchesBoundary
from polystab.mesh import make_mesh
from polystab.polytope import build_polytope, interval, unit_square


def abs_kink(center=0.5, scale=1.0):
    return PLConvexFunc((AffineFunc(scale * center, (-scale,)),
                         AffineFunc(-scale * center, (scale,))))


def quadratic_1d(z, P):
    return SmoothConvexFunc(lambda p: (p[:, 0] - z) ** 2,
                            lambda p: np.column_stack([2.0 * (p[:, 0] - z)]),
                            lambda p: np.full((p.shape[0], 1, 1), 2.0),
                            1, domain=P)


# -- Guillemin potential ------------------------------------------------------

def test_guillemin_interval_values():
    u = guillemin_potential(interval())
    assert u(np.array([0.5])) == pytest.approx(-np.log(2.0), rel=1e-14)
    assert u.hess(np.array([0.5]))[0, 0] == pytest.approx(4.0, rel=1e-14)
    # u'' = 1/(x(1-x)) at a generic point
    x = 0.3
    assert u.hess(np.array([x]))[0, 0] == pytest.approx(1.0 / (x * (1 - x)), rel=1e-13)


def test_guillemin_square_separable():
    u = guillemin_potential(unit_square())
    assert u(np.array([0.5, 0.5])) == pytest.approx(-2.0 * np.log(2.0), rel=1e-14)
    H = u.hess(np.array([0.25, 0.75]))
    assert H[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert H[0, 0] == pytest.approx(1.0 / (0.25 * 0.75), rel=1e-13)


def test_guillemin_boundary_value_and_errors():
    u = guillemin_potential(interval())
    assert u(np.array([0.0])) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(EvaluationOutsideDomain):
        u(np.array([-0.1]))
    with pytest.raises(EvaluationOutsideDomain):
        u.grad(np.array([0.0]))


def test_guillemin_value_inside_matches_the_masked_form():
    # points with every gap > 0 skip the mask; the value is the same, bit for bit
    S = unit_square()
    pts = np.random.default_rng(3).uniform(1e-9, 1.0 - 1e-9, size=(200, 2))
    g = S.gaps(pts)
    masked = np.sum(np.where(g > 0.0, g * np.log(np.where(g > 0.0, g, 1.0)), 0.0), axis=-1)
    assert np.array_equal(guillemin_potential(S)(pts), masked)
    # a point on a facet still takes the masked branch
    edge = np.array([[0.0, 0.5], [0.5, 0.5]])
    assert guillemin_potential(S)(edge) == pytest.approx([np.log(0.5), np.log(0.25)], rel=1e-15)


def test_guillemin_value_is_the_row_sum_bit_for_bit():
    # facet-by-facet accumulation against the (m, K) masked row sum on the
    # pentagon (K = 5): the normals have entries 0 and +-1, so a gap column
    # is the same float whether taken alone or from the (m, K) product
    P = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
                        ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)])
    u = guillemin_potential(P)

    def row_sum(pts):
        g = np.maximum(P.gaps(pts), 0.0)
        return np.sum(np.where(g > 0.0, g * np.log(np.where(g > 0.0, g, 1.0)), 0.0), axis=-1)

    rng = np.random.default_rng(11)
    inside = rng.uniform([0.0, 0.0], [3.0, 2.0], size=(4000, 2))
    inside = inside[np.all(P.gaps(inside) > 0.0, axis=1)]
    t = np.linspace(0.0, 1.0, 17)[:, None]
    on_facets = np.concatenate([P.vertices] + [a + t * (b - a) for a, b in
                                               zip(P.vertices, np.roll(P.vertices, -1, 0))])
    assert np.all(np.min(P.gaps(on_facets), axis=1) == 0.0)
    tol = 1e-12 * P._scale
    near = np.array([[-0.5 * tol, 1.0], [1.5, -0.5 * tol], [3.0 + 0.5 * tol, 0.5],
                     [2.5 + 0.25 * tol, 1.5 + 0.25 * tol]])
    assert np.all(np.min(P.gaps(near), axis=1) < 0.0)
    for pts in (inside, on_facets, near):
        assert np.array_equal(u(pts), row_sum(pts))
    with pytest.raises(EvaluationOutsideDomain):
        u(np.array([[1.0, -2.0 * tol]]))


PENTAGON = [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
            ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)]
# normals off 0/+-1, so the gaps x.h_k - c_k round
TRIANGLE = [((0.617, 0.787), -1.094), ((-0.997, -0.074), -1.127), ((0.952, -0.306), -1.123)]


def _inside(P, m, seed):
    """About m random interior points of P."""
    rng = np.random.default_rng(seed)
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    pts = rng.uniform(lo, hi, size=(m, P.dimension))
    return pts[P.boundary_distance(pts) > 1e-6]


def _facet_sums(P, pts, term):
    """Oracle: sum over the facets, one at a time, of term(g_k, k)."""
    total = 0.0
    for k, (h, c) in enumerate(zip(P.normals, P.offsets)):
        total = total + term(pts @ h - c, k)
    return total


def _batches(pts, sizes):
    """pts split into consecutive batches of the given sizes (the rest last)."""
    cuts = np.cumsum(sizes)
    return np.split(pts, cuts[cuts < len(pts)])


@pytest.mark.parametrize("facets", [PENTAGON, TRIANGLE, None], ids=["pentagon", "triangle",
                                                                    "interval"])
def test_guillemin_hessian_and_value_match_the_facet_sums(facets):
    P = interval() if facets is None else build_polytope(facets)
    pts = _inside(P, 4000, 4)
    rows, cols = np.triu_indices(P.dimension)
    ref = np.stack([_facet_sums(P, pts, lambda g, k, r=r, c=c:
                                P.normals[k, r] * P.normals[k, c] / g)
                    for r, c in zip(rows, cols)])
    H = guillemin_hessian(P, pts)
    assert H.shape == (len(rows), len(pts))
    assert np.max(np.abs(H - ref) / np.abs(ref).max(axis=1)[:, None]) <= 1e-13
    ref = _facet_sums(P, pts, lambda g, k: g * np.log(g))
    assert np.max(np.abs(guillemin_potential(P)(pts) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("facets", [PENTAGON, TRIANGLE], ids=["pentagon", "triangle"])
def test_guillemin_hessian_and_value_do_not_depend_on_the_batch(facets):
    # the gaps are taken coordinate by coordinate, never through BLAS, so a
    # point's value is the same alone or in a batch of any size (a BLAS
    # product of the triangle's normals differs between the two)
    P = build_polytope(facets)
    pts = _inside(P, 4000, 8)
    u = guillemin_potential(P)
    H, v = guillemin_hessian(P, pts), u(pts)
    for sizes in ([1] * 40, [7, 1000, 1001, 3], [len(pts) - 1]):
        parts = _batches(pts, sizes)
        assert np.array_equal(np.concatenate([guillemin_hessian(P, b) for b in parts], axis=1), H)
        assert np.array_equal(np.concatenate([u(b) for b in parts]), v)


def test_guillemin_hessian_raises_on_a_facet_or_outside():
    P = build_polytope(PENTAGON)
    pts = _inside(P, 2000, 2)
    for i in (0, len(pts) // 2, len(pts) - 1):
        for bad in ([1.0, 0.0], [4.0, 1.0]):  # on a facet, outside
            out = pts.copy()
            out[i] = bad
            with pytest.raises(EvaluationOutsideDomain):
                guillemin_hessian(P, out)


def test_guillemin_value_reads_zero_log_zero_on_a_facet():
    # a block whose gaps are all positive skips the masking; one with a
    # point on a facet still reads 0 log 0 = 0 there, and its other points
    # keep their values
    P = build_polytope(PENTAGON)
    u = guillemin_potential(P)
    pts = _inside(P, 200, 5)
    vals = u(np.concatenate([pts, [[0.0, 0.0], [1.5, 0.0]]]))
    assert np.array_equal(vals[:-2], u(pts))
    # gaps (0, 0, 3, 2, 4) at the vertex and (1.5, 0, 1.5, 2, 2.5) on a facet
    assert vals[-2] == pytest.approx(3 * np.log(3) + 2 * np.log(2) + 4 * np.log(4), rel=1e-15)
    assert vals[-1] == pytest.approx(3 * np.log(1.5) + 2 * np.log(2) + 2.5 * np.log(2.5),
                                     rel=1e-15)


# -- normalize ----------------------------------------------------------------

def test_normalize_affine_collapses():
    u = AffineFunc(0.7, (1.0,))
    n = normalize(u, [0.5])
    assert n(np.array([0.123])) == 0.0


def test_normalize_crease_active_at_po():
    u = crease(AffineFunc(-0.25, (1.0,)))  # max(0, x - 1/4)
    n = normalize(u, [0.5])
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.allclose(n(xs), np.maximum(0.25 - xs[:, 0], 0.0), atol=1e-15)


def test_normalize_smooth_already_normalized():
    P = interval()
    u = quadratic_1d(0.5, P)
    n = normalize(u, [0.5])
    xs = np.array([[0.1], [0.9], [0.5]])
    assert np.allclose(n(xs), u(xs), atol=1e-15)


def test_normalize_invariant_under_affine_shift():
    P = interval()
    rng = np.random.default_rng(3)
    base = crease(AffineFunc(-0.3, (1.0,)))
    for _ in range(5):
        a0, a1 = rng.uniform(-3, 3, size=2)
        shifted = PLConvexFunc(tuple(
            AffineFunc(p.a0 + a0, (p.a[0] + a1,)) for p in base.pieces))
        n1 = normalize(base, [0.5])
        n2 = normalize(shifted, [0.5])
        xs = np.linspace(0, 1, 17)[:, None]
        assert np.max(np.abs(n1(xs) - n2(xs))) <= 1e-12


def test_normalize_mesh_function():
    m = make_mesh(unit_square(), 1 / 8)
    u = MeshConvexFunc(m, np.sum((m.vertices - [0.3, 0.4]) ** 2, axis=1) + 2.0)
    n = normalize(u, [0.5, 0.5])
    assert n.values.min() >= 0.0
    assert n.values[n.p_o_index] == 0.0
    assert n.is_discretely_convex()


# -- crease ---------------------------------------------------------------------

def test_crease_examples():
    c = crease(AffineFunc(-0.5, (1.0,)))
    assert c(np.array([0.0])) == 0.0
    assert c(np.array([1.0])) == pytest.approx(0.5)
    neg = crease(AffineFunc(-1.0, (0.0,)))
    assert neg(np.array([0.7])) == 0.0
    diag = crease(AffineFunc(-1.0, (1.0, 1.0)))
    assert diag(np.array([0.2, 0.3])) == 0.0
    assert diag(np.array([0.9, 0.9])) == pytest.approx(0.8)


def test_ma_affine_zero():
    assert segment_ma_measure(AffineFunc(0.3, (2.0,)), [0.2], [0.8], interval()) == 0.0


def test_ma_kink_mass():
    assert segment_ma_measure(abs_kink(), [0.25], [0.75], interval()) == pytest.approx(2.0)


def test_ma_quadratic():
    P = interval()
    u = SmoothConvexFunc(lambda p: p[:, 0] ** 2,
                         lambda p: np.column_stack([2.0 * p[:, 0]]),
                         lambda p: np.full((p.shape[0], 1, 1), 2.0), 1, domain=P)
    assert segment_ma_measure(u, [0.2], [0.8], P) == pytest.approx(1.2, abs=1e-7)


def test_ma_touching_boundary_raises():
    with pytest.raises(SegmentTouchesBoundary):
        segment_ma_measure(abs_kink(), [0.0], [0.5], interval())


def test_ma_additive_over_abutting_segments():
    P = interval()
    u = SmoothConvexFunc(lambda p: np.exp(p[:, 0]),
                         lambda p: np.column_stack([np.exp(p[:, 0])]),
                         lambda p: np.exp(p[:, 0])[:, None, None], 1, domain=P)
    full = segment_ma_measure(u, [0.2], [0.8], P)
    left = segment_ma_measure(u, [0.2], [0.5], P)
    right = segment_ma_measure(u, [0.5], [0.8], P)
    assert full == pytest.approx(left + right, abs=1e-9)
    # PL case with the junction away from the kink (kink atoms belong to
    # neither open subsegment, so junctions must avoid them)
    k = abs_kink()
    assert segment_ma_measure(k, [0.25], [0.75], P) == pytest.approx(
        segment_ma_measure(k, [0.25], [0.6], P)
        + segment_ma_measure(k, [0.6], [0.75], P), abs=1e-12)


def test_ma_2d_along_segment():
    P = unit_square()
    u = crease(AffineFunc(-1.0, (1.0, 1.0)))
    # crossing the kink line x+y=1 along the diagonal direction
    a, b = np.array([0.3, 0.3]), np.array([0.7, 0.7])
    d = (b - a) / np.linalg.norm(b - a)
    expect = (np.array([1.0, 1.0]) @ d) - 0.0  # slope jump along arclength
    assert segment_ma_measure(u, a, b, P) == pytest.approx(expect, rel=1e-12)


def test_mesh_function_discrete_convexity_matches_segment_masses():
    m = make_mesh(unit_square(), 1 / 16)
    vals = np.abs(m.vertices[:, 0] - 0.5)
    u = MeshConvexFunc(m, vals)
    assert u.is_discretely_convex()
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = rng.uniform(0.05, 0.95, size=(2, 2))
        if np.linalg.norm(b - a) < 0.05:
            continue
        assert segment_ma_measure(u, a, b, m.polytope) >= -1e-12
    bad = vals.copy()
    v = int(np.flatnonzero(np.all(m.vertices == 0.5, axis=1))[0])
    bad[v] += 0.2  # break convexity at an interior vertex
    ub = MeshConvexFunc(m, bad)
    assert not ub.is_discretely_convex()
    # a segment across only the concave bump certifies the violation
    assert segment_ma_measure(ub, [0.49, 0.5], [0.51, 0.5], m.polytope) < 0
