import numpy as np
import pytest

from polystab.errors import MeshTooFine
from polystab.mesh import make_mesh, midpoint_integral
from polystab.polytope import build_polytope, interval, standard_simplex, unit_square
from polystab.quadrature import integrate_interior, standard_scheme


def test_interval_mesh():
    m = make_mesh(interval(), 0.25)
    assert m.num_vertices == 5
    assert np.allclose(m.vertices.ravel(), [0, 0.25, 0.5, 0.75, 1.0])
    assert len(m.hinges) == 3
    assert set(m.boundary_facets) == {0, 4}


def test_square_mesh_h_half():
    m = make_mesh(unit_square(), 0.5)
    assert m.num_vertices == 9
    assert len(m.cells) == 8


def test_simplex_mesh_clipped_inside():
    P = standard_simplex()
    m = make_mesh(P, 0.5)
    centroids = m.vertices[m.cells].mean(axis=1)
    assert np.all(P.gaps(centroids) > 0)
    v = m.vertices[m.cells]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0)  # positively oriented
    assert float(np.sum(areas)) == pytest.approx(0.5, rel=1e-12)


def test_interior_edges_have_two_triangles():
    m = make_mesh(unit_square(), 1 / 8)
    count = {}
    for tri in m.cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            count[min(a, b), max(a, b)] = count.get((min(a, b), max(a, b)), 0) + 1
    n_int = sum(1 for v in count.values() if v == 2)
    n_bdy = sum(1 for v in count.values() if v == 1)
    assert n_int == len(m.hinges)
    assert n_bdy == 4 * 8
    assert set(count.values()) <= {1, 2}


def test_mesh_too_fine():
    with pytest.raises(MeshTooFine):
        make_mesh(interval(), 1e-7)
    with pytest.raises(MeshTooFine):
        make_mesh(unit_square(), 1e-4)


def test_determinism():
    m1 = make_mesh(standard_simplex(), 1 / 8)
    m2 = make_mesh(standard_simplex(), 1 / 8)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.cells, m2.cells)


def test_midpoint_rule_second_order():
    S = unit_square()
    exact = integrate_interior(lambda x: np.exp(x[:, 0] + 0.3 * x[:, 1]), S,
                               standard_scheme(S, 12))
    errs = [abs(midpoint_integral(lambda x: np.exp(x[:, 0] + 0.3 * x[:, 1]),
                                  make_mesh(S, h)) - exact)
            for h in (1 / 8, 1 / 16, 1 / 32)]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


def test_locate_boundary_and_interior():
    m = make_mesh(standard_simplex(), 1 / 8)
    pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5], [1 / 3, 1 / 3]])
    ids, bary = m.locate(pts)
    assert np.all(ids >= 0)
    assert np.min(bary) >= -1e-9
    recovered = np.einsum("ijk,ij->ik", m.vertices[m.cells[ids]], bary)
    assert np.allclose(recovered, pts, atol=1e-12)


def test_nearest_vertex():
    m = make_mesh(unit_square(), 1 / 4)
    assert np.allclose(m.vertices[m.nearest_vertex([0.5, 0.5])], [0.5, 0.5])


@pytest.mark.parametrize("s", [1e-13, 1e-12, 1e-11, 1e4])
def test_mesh_is_scale_free(s):
    # vertices merge at 12 decimals of the size of P, and boundary vertices are
    # found within a tolerance of that size, so [0, s]^2 at h = s/4 is the unit
    # square's mesh scaled by s
    def square(s):
        return build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0),
                               ((-1.0, 0.0), -s), ((0.0, -1.0), -s)])

    unit, scaled = make_mesh(square(1.0), 0.25), make_mesh(square(s), s / 4)
    assert scaled.num_vertices == unit.num_vertices == 25
    assert np.allclose(scaled.vertices, s * unit.vertices, rtol=0.0, atol=1e-12 * s)
    assert np.array_equal(scaled.cells, unit.cells)
    assert np.array_equal(scaled.hinges, unit.hinges)
    assert scaled.boundary_facets == unit.boundary_facets
