import os
import subprocess
import sys

import pytest

import polystab

# every name `polystab/__init__.py` re-exported when it imported them eagerly,
# less the two removed with the mass-normalized and C' LPs, plus `ray_bounds` and
# `hinge_minimum`
EXPORTED = """
AffineFunc Compatibility1D ConeLPResult DegeneracyReport EmptyGrid EmptyInterior
EvaluationOutsideDomain FunctionalEvaluator IncompatibleA LPInfeasible LPNotConverged
LPResult LPUnbounded LineSearchStall LostConvexity MabuchiResult Mesh MeshConvexFunc
MeshTooFine NeedsSmoothFunction NonConvexAtQuadraturePoint NonIntegerNormals
NonpositiveLambda NonpositiveW PLConvexFunc PolystabError Polytope PropernessCertificate
QuadraticPoly QuadratureScheme SegmentTouchesBoundary SingularHessian SingularMoments
SmoothConvexFunc SolverState StabilityReport UnboundedDomain analyze_stability
build_polytope center_of_mass crease crease_functionals crease_sweep default_crease_grid
degeneracy_diagnostic delzant_check extremal_affine graded_scheme guillemin_potential
hinge_minimum integrate_boundary integrate_interior interval lp_stability_estimate
make_mesh mesh_graded_scheme mesh_linear_forms normalize parse_field
properness_certificate ray_bounds
residual scripted_sequences segment_ma_measure solution_norm_bound solve_1d
solve_2d_descent solve_cone_lp solve_lp split_scheme standard_scheme standard_simplex
supporting_affine unit_square verify_audits
""".split()


def test_the_export_list_is_complete():
    assert len(EXPORTED) == len(set(EXPORTED)) == 75


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from polystab import {name}", namespace)
    assert namespace[name] is getattr(polystab, name)
    assert name in dir(polystab)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        polystab.not_a_name
    with pytest.raises(ImportError):
        exec("from polystab import not_a_name", {})


def test_submodules_are_attributes_after_a_bare_import():
    # as when `import polystab` imported them all: a fresh interpreter needs
    # no `import polystab.mesh` to reach polystab.mesh
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    code = ("import polystab\n"
            "print(polystab.mesh.make_mesh is polystab.make_mesh, polystab.solver.solve_1d"
            " is polystab.solve_1d)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.split() == ["True", "True"]


@pytest.mark.parametrize("name", ["l1_boundary_constant", "relative_kpolystability_check"])
def test_names_removed_with_the_mass_lps_are_gone(name):
    # C' comes from `ray_bounds` in closed form; neither LP is posed any more
    assert name not in dir(polystab)
    with pytest.raises(AttributeError):
        getattr(polystab, name)
