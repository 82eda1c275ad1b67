import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_stability import _hull, _lattice_facets, lattice_points

from polystab.errors import EmptyInterior, NonIntegerNormals, UnboundedDomain
from polystab.polytope import (
    build_polytope,
    center_of_mass,
    delzant_check,
    interval,
    standard_simplex,
    unit_square,
)


def test_build_interval():
    P = build_polytope([((1.0,), 0.0), ((-1.0,), -1.0)])
    assert P.dimension == 1
    assert np.allclose(P.vertices.ravel(), [0.0, 1.0])
    assert np.allclose(P.boundary_weights, [1.0, 1.0])


def test_build_simplex():
    P = standard_simplex()
    assert P.vertices.shape == (3, 2)
    expect = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert {tuple(v) for v in P.vertices} == expect


def test_build_square():
    P = unit_square()
    assert P.vertices.shape == (4, 2)
    assert {tuple(v) for v in P.vertices} == {(0, 0), (1, 0), (1, 1), (0, 1)}
    # hypotenuse-free: each facet weight is 1
    assert np.allclose(P.boundary_weights, 1.0)


def test_unbounded_raises():
    with pytest.raises(UnboundedDomain):
        build_polytope([((1.0,), 0.0)])
    with pytest.raises(UnboundedDomain):
        build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((1.0, 1.0), -3.0)])


def test_empty_interior_raises():
    with pytest.raises(EmptyInterior):
        build_polytope([((1.0,), 0.0), ((-1.0,), 0.0)])
    with pytest.raises(EmptyInterior):
        build_polytope([((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 0.0),
                        ((0.0, -1.0), -1.0)])


def test_redundant_facet_removed():
    P = build_polytope([((1.0,), 0.0), ((-1.0,), -1.0), ((1.0,), -5.0)])
    assert P.num_facets == 2
    Q = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -1.0),
                        ((0.0, -1.0), -1.0), ((-1.0, -1.0), -5.0)])
    assert Q.num_facets == 4


def test_delzant_square_and_simplex():
    assert delzant_check(unit_square()) is True
    assert delzant_check(standard_simplex()) is True


def test_delzant_counterexample():
    # {x>0, y>0, 2-x-2y>0}: at vertex (0,1) the normals (1,0), (-1,-2) have det -2
    P = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, -2.0), -2.0)])
    assert delzant_check(P) is False
    assert (0.0, 1.0) in {tuple(v) for v in P.vertices}


def test_delzant_noninteger_raises():
    P = build_polytope([((1.5, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, -1.0), -1.0)])
    with pytest.raises(NonIntegerNormals):
        delzant_check(P)


def test_center_of_mass():
    assert np.allclose(center_of_mass(interval()), [0.5], atol=1e-12)
    assert np.allclose(center_of_mass(unit_square()), [0.5, 0.5], atol=1e-12)
    assert np.allclose(center_of_mass(standard_simplex()), [1 / 3, 1 / 3], atol=1e-12)


def test_gaps_and_distance():
    P = unit_square()
    assert np.allclose(P.gaps([0.25, 0.5]), [0.25, 0.5, 0.75, 0.5])
    assert P.boundary_distance([0.25, 0.5]) == pytest.approx(0.25)
    T = standard_simplex()
    # hypotenuse normal has length sqrt(2)
    assert T.boundary_distance([1 / 3, 1 / 3]) == pytest.approx(1 / (3 * np.sqrt(2)))


def test_facet_segments_cover_boundary():
    P = standard_simplex()
    total = sum(np.linalg.norm(np.diff(P.facet_segment(k), axis=0)) for k in range(3))
    assert total == pytest.approx(2.0 + np.sqrt(2.0))


@pytest.mark.parametrize("corner", [1e3, 1e6])
def test_small_simplex_far_from_the_origin(corner):
    # tolerances follow the size of P, not its distance from the origin: the
    # simplex of size 1e-4 at (corner, corner) is the one at the origin, moved
    def simplex(c, size):
        return build_polytope([((1.0, 0.0), c), ((0.0, 1.0), c), ((-1.0, -1.0), -(2 * c + size))])

    at_origin, moved = simplex(0.0, 1e-4), simplex(corner, 1e-4)
    assert np.allclose(at_origin.vertices, 1e-4 * standard_simplex().vertices,
                       rtol=0.0, atol=1e-16)
    # the moved offsets carry the rounding of 2 corner + 1e-4
    assert np.allclose(moved.vertices - corner, at_origin.vertices, rtol=0.0, atol=1e-9)
    assert moved.facet_vertices == at_origin.facet_vertices
    assert np.array_equal(moved.boundary_weights, at_origin.boundary_weights)


def _sorted_rows(V):
    return V[np.lexsort(np.round(V, 6).T[::-1])]


@settings(max_examples=40, deadline=None)
@given(points=lattice_points, data=st.data())
def test_build_polytope_on_lattice_polygons(points, data):
    # the hull scaled by s and moved by o: the facets (n, s c + n.o), and
    # tolerances of 1e-9 times the size plus the distance from the origin
    facets = _lattice_facets(points)
    assume(facets is not None)
    s = data.draw(st.sampled_from([1e-6, 1.0, 1e4]), label="scale")
    o = s * np.array(data.draw(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                               label="offset"), dtype=float)
    tol = 1e-9 * (8.0 * s + np.max(np.abs(o)))
    moved = [(n, s * c + np.dot(n, o)) for n, c in facets]
    P = build_polytope(moved)
    V = P.vertices
    assert P.num_facets == len(facets)
    assert np.allclose(_sorted_rows(V), _sorted_rows(s * np.array(_hull(points), dtype=float) + o),
                       rtol=0.0, atol=tol)
    # counterclockwise: every turn is a left turn
    d1 = np.roll(V, -1, axis=0) - V
    d2 = np.roll(V, -2, axis=0) - np.roll(V, -1, axis=0)
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0.0)
    dist = P.gaps(V) * P.boundary_weights
    assert np.all(dist >= -tol)
    for k, (i, j) in enumerate(P.facet_vertices):
        assert i != j and np.all(np.abs(dist[[i, j], k]) <= tol)
    assert np.all(P.gaps(P.vertex_centroid()) > 0.0)
    assert delzant_check(P) == delzant_check(build_polytope(facets))

    # a shuffled facet list with one redundant facet added gives the same vertices
    h = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
    c = float(np.min(V @ np.array(h, dtype=float))) - s * data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    shuffled = data.draw(st.permutations(moved))
    k = data.draw(st.integers(0, len(facets)))
    Q = build_polytope(shuffled[:k] + [((float(h[0]), float(h[1])), c)] + shuffled[k:])
    assert Q.num_facets == P.num_facets
    assert np.allclose(_sorted_rows(Q.vertices), _sorted_rows(V), rtol=0.0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(points=lattice_points, data=st.data())
def test_a_facet_through_a_vertex_is_dropped_at_any_offset(points, data):
    # the hull scaled by s and moved by o, and a third facet moved to within
    # 1e-12 of the size of P from a vertex v, listed first, whose normal lies
    # strictly between the normals of the two facets at v: it cuts off at
    # most a corner far below the merge distance, so v stays the vertex of
    # its two facets, with their bits, and the third facet is dropped
    facets = _lattice_facets(points)
    assume(facets is not None)
    s = data.draw(st.sampled_from([1e-6, 1.0, 1e4]), label="scale")
    o = s * np.array(data.draw(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                               label="offset"), dtype=float)
    at_origin = build_polytope([(n, s * c) for n, c in facets])
    P = build_polytope([(n, s * c + np.dot(n, o)) for n, c in facets])
    # P and P + o name every vertex by the same two facets (the vertex where
    # the angle order starts may differ, as an angle of pi may round to -pi)
    moved = {tuple(ks): x for ks, x in zip(P.vertex_facets.tolist(), P.vertices - o)}
    fixed = {tuple(ks): x for ks, x in zip(at_origin.vertex_facets.tolist(), at_origin.vertices)}
    assert moved.keys() == fixed.keys()
    for ks, x in fixed.items():
        np.testing.assert_allclose(moved[ks], x, rtol=0, atol=1e-9 * P._scale)

    v = data.draw(st.integers(0, len(P.vertices) - 1), label="vertex")
    a, b = P.normals[P.vertex_facets[v]]
    n = data.draw(st.integers(1, 3), label="a") * a + data.draw(st.integers(1, 3), label="b") * b
    size = float(np.max(np.ptp(P.vertices, axis=0)))
    shift = data.draw(st.floats(-1.0, 1.0), label="shift") * 1e-12 * size * np.linalg.norm(n)
    Q = build_polytope([(tuple(n), float(n @ P.vertices[v]) + shift)]
                       + [(n, s * c + np.dot(n, o)) for n, c in facets])
    assert np.array_equal(Q.normals, P.normals) and np.array_equal(Q.offsets, P.offsets)
    assert np.array_equal(Q.vertices, P.vertices)
    assert Q.facet_vertices == P.facet_vertices


def test_vertex_facets_invert_facet_vertices():
    P = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0),
                        ((0.0, -1.0), -2.0), ((-1.0, -1.0), -4.0)])
    assert P.vertex_facets.tolist() == [[0, 1], [1, 2], [2, 4], [3, 4], [0, 3]]
    for v, ks in enumerate(P.vertex_facets.tolist()):
        assert all(v in P.facet_vertices[k] for k in ks)
    assert interval().vertex_facets.tolist() == [[0], [1]]


# an 8-gon with offsets far from the origin: its vertices do not round exactly,
# so a repeated facet line is not exactly on every edge the clipper leaves
OCTAGON_FAR = [(n, c + n[0] * -505.0 + n[1] * -976.25) for n, c in (
    ((-0.07135017234771379, -0.018229390897886333), -0.10444890206085022),
    ((0.08776686201811085, -2.7520203549222337), -0.9445889198584387),
    ((0.27113212571294504, -0.03159021783582072), -0.3854910168252808),
    ((0.15355920502810239, 0.005304431246934582), -0.2176813690277003),
    ((0.006846206528727278, 0.0006256034995040238), -0.009753904100045315),
    ((0.8969985666307263, 0.4363470521048174), -1.3249364622682358),
    ((-0.3240010682291723, 2.2072110443816415), -1.9560890409523655),
    ((-1.0209517253417257, 0.1523518324230433), -1.364232234971958))]


@pytest.mark.parametrize("facets", [
    [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -3.0), ((0.0, -1.0), -2.0),
     ((-1.0, -1.0), -4.0)], OCTAGON_FAR], ids=["pentagon", "octagon-far"])
def test_repeated_and_redundant_facets_are_dropped(facets):
    # a facet line written again, anywhere after itself, keeps its first index
    # and the vertex bits; a redundant facet goes
    P = build_polytope(facets)
    far = ((-1.0, -1.0), float(np.min(P.vertices.sum(axis=1))) - 5.0)
    for k in range(len(facets)):
        for pos in range(k + 1, len(facets) + 1):
            Q = build_polytope(facets[:pos] + [facets[k]] + facets[pos:] + [far])
            assert np.array_equal(Q.normals, P.normals) and np.array_equal(Q.offsets, P.offsets)
            assert np.array_equal(Q.vertices, P.vertices)
            assert Q.facet_vertices == P.facet_vertices


@pytest.mark.parametrize("f", [3.0, 10.0])
def test_a_multiple_of_a_facet_leaves_the_polygon(f):
    # a multiple of a facet rounds its gaps differently, so the clipper may
    # split an edge between the two; the normals do not turn there, and one
    # of the two facets stays
    P = build_polytope(OCTAGON_FAR)
    for k, (n, c) in enumerate(OCTAGON_FAR):
        for pos in range(len(OCTAGON_FAR) + 1):
            Q = build_polytope(OCTAGON_FAR[:pos] + [((f * n[0], f * n[1]), f * c)] + OCTAGON_FAR[pos:])
            assert Q.num_facets == P.num_facets
            np.testing.assert_allclose(Q.vertices, P.vertices, rtol=0, atol=1e-9 * P._scale)
