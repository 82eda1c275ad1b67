import numpy as np
import pytest

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
