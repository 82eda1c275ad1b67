"""Exception types raised across the toolkit.

Every failure mode that callers are expected to catch has its own class;
anything else propagates as the underlying ValueError/ArithmeticError.
"""


class PolystabError(Exception):
    """Base class for all toolkit-specific errors."""


# -- polytope construction ---------------------------------------------------

class UnboundedDomain(PolystabError):
    """The facet inequalities admit a recession direction."""


class EmptyInterior(PolystabError):
    """No strictly feasible point exists for the facet inequalities."""


class NonIntegerNormals(PolystabError):
    """delzant_check requires integer facet normals."""


class MeshTooFine(PolystabError):
    """Requested mesh would exceed the configured vertex cap."""


# -- convex functions --------------------------------------------------------

class EvaluationOutsideDomain(PolystabError):
    """Point lies outside the closed polytope (or derivative asked on it)."""


class SegmentTouchesBoundary(PolystabError):
    """Segment for a Monge-Ampere mass must be strictly interior."""


# -- functionals -------------------------------------------------------------

class SingularMoments(PolystabError):
    """Moment Gram matrix is singular (degenerate polytope)."""


class NeedsSmoothFunction(PolystabError):
    """The functional reads pointwise Hessians, which a piecewise-linear u lacks."""


class NonConvexAtQuadraturePoint(PolystabError):
    """det(Hess u) <= 0 was sampled where strict convexity is required."""


class SingularHessian(PolystabError):
    """Hessian determinant below tolerance at a finite-difference stencil point."""


# -- linear programming ------------------------------------------------------

class LPInfeasible(PolystabError):
    """Linear program has no feasible point (signals an assembly bug here)."""


class LPUnbounded(PolystabError):
    """Linear program is unbounded (signals a missing normalization row)."""


class LPNotConverged(PolystabError):
    """Interior-point LP solver reached its iteration cap."""


class EmptyGrid(PolystabError):
    """A crease sweep's grid of affine functions, or the residual's samples, is empty."""


class NonpositiveLambda(PolystabError):
    """Operation requires a positive stability constant."""


# -- Abreu solver ------------------------------------------------------------

class IncompatibleA(PolystabError):
    """1D data A fails the overdetermined endpoint conditions."""

    def __init__(self, msg, w_end=None, wprime_end=None):
        super().__init__(msg)
        self.w_end = w_end
        self.wprime_end = wprime_end


class NonpositiveW(PolystabError):
    """Candidate inverse second derivative is not positive in the interior."""


class LineSearchStall(PolystabError):
    """Backtracking line search reduced the step below 1e-14."""


class LostConvexity(PolystabError):
    """No feasible descent step preserves a positive-definite Hessian."""
