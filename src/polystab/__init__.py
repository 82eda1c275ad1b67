"""Numerical stability testing and Abreu-equation solving on convex polytopes."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    EmptyGrid,
    EmptyInterior,
    EvaluationOutsideDomain,
    IncompatibleA,
    LineSearchStall,
    LostConvexity,
    LPInfeasible,
    LPNotConverged,
    LPUnbounded,
    MeshTooFine,
    NeedsSmoothFunction,
    NonConvexAtQuadraturePoint,
    NonIntegerNormals,
    NonpositiveLambda,
    NonpositiveW,
    PolystabError,
    SegmentTouchesBoundary,
    SingularHessian,
    SingularMoments,
    UnboundedDomain,
)
from .polytope import (  # noqa: F401
    Polytope,
    build_polytope,
    center_of_mass,
    delzant_check,
    interval,
    standard_simplex,
    unit_square,
)
from .quadrature import (  # noqa: F401
    QuadratureScheme,
    graded_scheme,
    integrate_boundary,
    integrate_interior,
    mesh_graded_scheme,
    split_scheme,
    standard_scheme,
)
from .mesh import Mesh, make_mesh  # noqa: F401
from .convex import (  # noqa: F401
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    SmoothConvexFunc,
    crease,
    guillemin_potential,
    normalize,
    random_normalized_mesh_function,
    segment_ma_measure,
    supporting_affine,
)
from .fields import QuadraticPoly, parse_field  # noqa: F401
from .functionals import (  # noqa: F401
    FunctionalEvaluator,
    MabuchiResult,
    extremal_affine,
    mesh_linear_forms,
)
from .cone_lp import ConeLPResult, solve_cone_lp  # noqa: F401
from .simplex_lp import LPResult, solve_lp  # noqa: F401
from .stability import (  # noqa: F401
    DegeneracyReport,
    PropernessCertificate,
    StabilityReport,
    analyze_stability,
    crease_functionals,
    crease_sweep,
    default_crease_grid,
    degeneracy_diagnostic,
    l1_boundary_constant,
    lp_stability_estimate,
    properness_certificate,
    relative_kpolystability_check,
    scripted_sequences,
    solution_norm_bound,
    verify_audits,
)
from .solver import (  # noqa: F401
    Compatibility1D,
    SolverState,
    residual,
    solve_1d,
    solve_2d_descent,
)
