"""Numerical stability testing and Abreu-equation solving on convex polytopes.

A run executes only the modules its subcommand uses.  These are registered
lazily: each is in `sys.modules` and on this package from the start, but its
code runs on the first attribute access.

* `stability` -- the exact lambda of an interval; lambda-hat and the crease
  sweep of a polygon; the properness certificate;
* `cone_lp` -- the interior-point cone LP, which only polygons need;
* `simplex_lp` -- the Fraction simplex of `--lp-mode exact`;
* `audits` -- the checks `polystab verify` runs;
* `solver` -- the Abreu-equation solve;
* `fields` -- the `--A` expression parser and its `QuadraticPoly`;
* `hessfit` -- the Hessian surrogate of mesh functions, which only the 2D
  solve uses.

Every run executes `cli`, `fileio`, `functionals`, `quadrature`, `convex`,
`mesh`, `polytope`, `_geom`, `_records` and `errors`.  Beyond these:

* `stability` runs `stability`, on a polygon `cone_lp` or, with --lp-mode
  exact, `simplex_lp` (an interval solves no LP), and `fields` when --A is
  not "extremal";
* `solve` runs `solver`, `hessfit` in 2D, and `fields` when --A is not
  "extremal";
* `verify` runs `audits` and `stability`, with `solver` in 1D and `cone_lp`
  in 2D;
* `eval` and `extremal-affine` run only what their operation and --A need.

Without bytecode to reuse, compiling and running the unused ones would cost
each `solve` or `stability` run tens of milliseconds.  They are registered
rather than imported inside the functions that use them because
`perfbench/tracer.py` patches only modules that are in `sys.modules` after
`import polystab.cli`.  The names the package re-exports resolve on first
access too (PEP 562).
"""
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "EmptyGrid EmptyInterior EvaluationOutsideDomain IncompatibleA LineSearchStall "
              "LostConvexity LPInfeasible LPNotConverged LPUnbounded MeshTooFine "
              "NeedsSmoothFunction NonConvexAtQuadraturePoint NonIntegerNormals "
              "NonpositiveLambda NonpositiveW PolystabError SegmentTouchesBoundary "
              "SingularHessian SingularMoments UnboundedDomain",
    "polytope": "Polytope build_polytope center_of_mass delzant_check interval "
                "standard_simplex unit_square",
    "quadrature": "QuadratureScheme graded_scheme integrate_boundary integrate_interior "
                  "mesh_graded_scheme split_scheme standard_scheme",
    "mesh": "Mesh make_mesh",
    "convex": "AffineFunc MeshConvexFunc PLConvexFunc SmoothConvexFunc crease "
              "guillemin_potential normalize segment_ma_measure supporting_affine",
    "fields": "QuadraticPoly parse_field",
    "functionals": "FunctionalEvaluator MabuchiResult extremal_affine mesh_linear_forms",
    "cone_lp": "ConeLPResult solve_cone_lp",
    "simplex_lp": "LPResult solve_lp",
    "stability": "PropernessCertificate StabilityReport analyze_stability crease_functionals "
                 "crease_sweep default_crease_grid hinge_minimum lp_stability_estimate "
                 "properness_certificate ray_bounds",
    "audits": "DegeneracyReport degeneracy_diagnostic scripted_sequences solution_norm_bound "
              "verify_audits",
    "solver": "Compatibility1D SolverState residual solve_1d solve_2d_descent",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def _register_lazily(name):
    """Put submodule `name` in sys.modules and on the package; run it on first use.

    Once the tracer patches modules as they are imported (ROADMAP item 4),
    this can give way to plain imports inside the functions that use them.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in ("audits", "cone_lp", "fields", "hessfit", "simplex_lp", "solver", "stability"):
    _register_lazily(_name)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
