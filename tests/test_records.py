"""The package's records: constructors, identity and value semantics, frozenness."""
import inspect

import numpy as np
import pytest

from polystab.audits import verify_audits
from polystab.convex import AffineFunc, PLConvexFunc
from polystab.fields import QuadraticPoly
from polystab.mesh import Mesh, make_mesh
from polystab.polytope import Polytope, interval, unit_square
from polystab.quadrature import QuadratureScheme, standard_scheme
from polystab.solver import SolverState
from polystab.stability import TOLERANCES, PropernessCertificate, StabilityReport

# the constructor parameters and defaults the @dataclass versions had (a
# mutable default, then made by a factory, is now None), except that a
# mesh's grid arrays, which only an interval's mesh went without, are required
SIGNATURES = {
    Polytope: "dimension normals offsets vertices boundary_weights facet_vertices "
              "name=None _scale=1.0",
    Mesh: "polytope h vertices cells hinges boundary_facets grid_shape cell_index "
          "boundary_edges point_vertex=None",
    QuadratureScheme: "dimension degree interior_points interior_weights interior_layers "
                      "boundary_points boundary_weights kind='standard' meta=None "
                      "interior_cells=None",
    AffineFunc: "a0 a",
    PLConvexFunc: "pieces",
    QuadraticPoly: "dimension coeffs",
    SolverState: "mesh free f energy_history=None residual_history=None "
                 "convexity_margin=inf iterations=0 converged=False meta=None",
    PropernessCertificate: "a_o_sup c_o c_prime r_bound r_small epsilon_prime c_const "
                           "epsilon provenance=None",
    StabilityReport: "lambda_hat status mesh_parameter p_o lambda_hat_refined=None "
                     "destabilizer=None crease_sweep_min=None crease_sweep_argmin=None "
                     "certificates=None lp_iterations=0 tolerances=None",
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_keeps_its_parameters_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                    for p in params) == SIGNATURES[cls]


def test_mesh_and_scheme_are_dict_keys_by_identity():
    P = unit_square()
    a, b = make_mesh(P, 0.5), make_mesh(P, 0.5)
    s, t = standard_scheme(P, 4), standard_scheme(P, 4)
    cache = {a: 1, b: 2, s: 3, t: 4}
    assert len(cache) == 4 and cache[a] == 1 and cache[t] == 4
    assert a != b and a == a and s != t
    # the cached properties still cache on a frozen mesh
    assert a.convexity_rows is a.convexity_rows


def test_value_records_compare_and_hash_by_value():
    f, g = AffineFunc(1.0, (2.0, 3.0)), AffineFunc(1.0, (2.0, 3.0))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != AffineFunc(1.0, (2.0, 4.0))
    assert f != (1.0, (2.0, 3.0))
    zero = AffineFunc.constant(0.0, 2)
    u, v = PLConvexFunc((f, zero)), PLConvexFunc((g, zero))
    assert u == v and hash(u) == hash(v)
    assert u != PLConvexFunc((f,))
    coeffs = (1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    p, q = QuadraticPoly(1, coeffs), QuadraticPoly(1, tuple(coeffs))
    assert p == q and hash(p) == hash(q)
    assert p != QuadraticPoly(2, p.coeffs)


def test_assigning_a_field_of_a_frozen_record_raises():
    P = unit_square()
    mesh = make_mesh(P, 0.5)
    records = {P: "dimension", mesh: "h", standard_scheme(P, 4): "kind",
               AffineFunc(0.0, (1.0,)): "a0", PLConvexFunc((AffineFunc(0.0, (1.0,)),)): "pieces",
               QuadraticPoly(1, (0.0,) * 6): "coeffs"}
    for record, name in records.items():
        before = getattr(record, name)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(record, name)
        assert getattr(record, name) is before


def test_mutable_defaults_are_fresh_for_each_instance():
    mesh = make_mesh(unit_square(), 0.5)
    s, t = (SolverState(mesh, np.arange(1), np.zeros(1)) for _ in range(2))
    for name in ("energy_history", "residual_history", "meta"):
        assert getattr(s, name) is not getattr(t, name)
    s.energy_history.append(1.0)
    assert t.energy_history == []
    r, q = (StabilityReport(0.5, "uniformly-stable", 0.5, np.zeros(1)) for _ in range(2))
    assert r.tolerances == TOLERANCES
    assert r.tolerances is not TOLERANCES and r.tolerances is not q.tolerances
    c, d = (PropernessCertificate(*[1.0] * 8) for _ in range(2))
    assert c.provenance == {} and c.provenance is not d.provenance
    args = (1, 2, np.zeros((3, 1)), np.ones(3), np.full(3, -1), (), ())
    a, b = QuadratureScheme(*args), QuadratureScheme(*args)
    assert a.meta == {} and a.meta is not b.meta
    assert a.interior_cells.tolist() == [-1, -1, -1]
    assert a.interior_cells is not b.interior_cells


def test_sigma_scale_audit_trips_and_leaves_the_polytope_alone():
    P = interval(0.0, 1.0)
    weights = P.boundary_weights.copy()
    rows = {name: passed for name, passed, _, _ in verify_audits(P, 0.125, 0, sigma_scale=2.0,
                                                                 audit_count=5)}
    assert not rows["ibp-identity"]
    assert np.array_equal(P.boundary_weights, weights)
