"""Evaluation of the stability functionals.

The central object is FunctionalEvaluator, which fixes a polytope, a scalar
field A, and quadrature schemes, and evaluates

    boundary norm   |u|_b = integral over the boundary of u dsigma,
    linear form     L_A(u) = |u|_b - integral of A u dmu,
    Mabuchi energy  F_A(u) = -integral of log det(Hess u) dmu + L_A(u),
    Abreu operator  S(u) = -sum_ij d^2 u^{ij} / dx_i dx_j,

choosing the quadrature per function class: mesh functions get exact
vertex-weight assembly, piecewise-linear functions get kink-split rules, and
Guillemin-type functions get boundary-graded rules.  F_A is +infinity on a
piecewise-linear function (mesh functions included), so the Mabuchi energy and
the integration-by-parts integral take only functions with pointwise Hessians
and raise NeedsSmoothFunction on the others.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._records import Record
from .convex import (
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    SmoothConvexFunc,
)
from .errors import (
    NeedsSmoothFunction,
    NonConvexAtQuadraturePoint,
    SingularHessian,
    SingularMoments,
)
from .mesh import Mesh
from .polytope import Polytope
from .quadrature import (
    DEFAULT_DEGREE,
    QuadratureScheme,
    graded_blocks,
    graded_boundary,
    graded_scheme,
    integrate_blocks,
    map_triangles,
    split_scheme,
    standard_scheme,
    triangle_rule,  # noqa: F401  (perfbench/tests patch and restore it here)
)

GRADED_LAYERS = 40
TRUNCATION_COMPARE = 30
# nonzero stencil offsets of `abreu_operator`, in units of the step h
_STENCIL_1D = np.array([[1.0], [-1.0]])
_STENCIL_2D = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                        [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def as_field(A, n):
    """Vectorized scalar field from a number, AffineFunc, or callable."""
    if isinstance(A, (int, float)):
        c = float(A)
        return lambda pts: np.full(np.atleast_2d(pts).shape[0], c)
    if isinstance(A, AffineFunc):
        a = np.asarray(A.a, dtype=float)
        return lambda pts: A.a0 + np.atleast_2d(pts) @ a
    if callable(A):
        return lambda pts: np.asarray(A(np.atleast_2d(pts)), dtype=float)
    raise TypeError(f"cannot interpret {A!r} as a scalar field")


def field_degree(A):
    """Polynomial degree when known, else None."""
    if isinstance(A, (int, float)):
        return 0
    if isinstance(A, AffineFunc):
        return 1
    return getattr(A, "degree", None)


def field_coefficients(A):
    """(c0, cx, cy, cxx, cxy, cyy) of a number, an AffineFunc (padded with
    zeros) or a QuadraticPoly; None for any other A."""
    if isinstance(A, (int, float)):
        return (float(A),) + (0.0,) * 5
    if isinstance(A, AffineFunc):
        return tuple(map(float, (A.a0, *A.a, 0.0, 0.0, 0.0, 0.0)[:6]))
    coeffs = getattr(A, "coeffs", None)
    return None if coeffs is None else tuple(map(float, coeffs))


def mesh_linear_forms(mesh: Mesh, A, degree=DEFAULT_DEGREE):
    """Vertex weight vectors (b, a) with |u|_b = b.u and int(A u) = a.u for mesh u.

    b is the mesh's `boundary_vertex_weights` (exact trapezoid integration
    along boundary edges); a comes from per-cell rules applied to A times
    each hat function.  The same vectors drive the stability LP, so LP
    objectives and evaluator values agree to roundoff on mesh functions.
    """
    Af = as_field(A, mesh.dimension)
    a = np.zeros(mesh.num_vertices)
    M = len(mesh.cells)
    p, w = map_triangles(mesh.vertices[mesh.cells], degree)
    q = len(w) // M
    wA = (w * Af(p)).reshape(M, 1, q)
    lam = np.ascontiguousarray(mesh.barycentric(np.repeat(np.arange(M), q), p).T)
    # one (1, q) @ (q, 1) product per cell and local vertex, the same dot
    # product as np.dot on each cell; np.add.at accumulates in cell order
    contrib = np.stack([np.matmul(wA, lam_k.reshape(M, q, 1))[:, 0, 0] for lam_k in lam],
                       axis=1)
    np.add.at(a, mesh.cells.ravel(), contrib.ravel())
    return mesh.boundary_vertex_weights, a


class MabuchiResult(Record):
    def __init__(self, value: float, log_det_term: float, linear_term: float,
                 truncation_estimate: float):
        self.value, self.log_det_term = value, log_det_term
        self.linear_term, self.truncation_estimate = linear_term, truncation_estimate

    def __float__(self):
        return self.value


class FunctionalEvaluator:
    """Quadrature-backed evaluation of the stability functionals.

    A must be evaluable pointwise on the closed polytope (measurable-only
    fields are outside the reach of quadrature); when A is polynomial the
    interior degree is raised to at least deg(A) + 2.  Graded rules have
    GRADED_LAYERS radial layers.
    """

    def __init__(self, P: Polytope, A, degree: int = DEFAULT_DEGREE):
        self.polytope = P
        self.A = A
        d = field_degree(A)
        if d is not None:
            degree = max(degree, d + 2)
        self.degree = degree
        self._A = as_field(A, P.dimension)
        self._forms: dict = {}  # mesh -> mesh_linear_forms; meshes hash by identity

    @cached_property
    def scheme(self) -> QuadratureScheme:
        """Standard rule, built on first use."""
        return standard_scheme(self.polytope, self.degree)

    @cached_property
    def graded(self) -> QuadratureScheme:
        """Whole boundary-graded rule, built on first use, for callers that need its points."""
        return graded_scheme(self.polytope, self.degree, layers=GRADED_LAYERS)

    # -- helpers -------------------------------------------------------------

    def _forms_for(self, mesh: Mesh):
        """mesh_linear_forms for this evaluator's A and degree, built on first use."""
        if mesh not in self._forms:
            self._forms[mesh] = mesh_linear_forms(mesh, self.A, self.degree)
        return self._forms[mesh]

    def _rule_for(self, u, cached=False):
        """(interior, boundary) blocks of u's rule.  The graded one comes a few
        layers of a facet fan at a time, or with `cached` in the same blocks of
        the evaluator's whole `graded` rule, built once."""
        P, d = self.polytope, self.degree
        graded = isinstance(u, SmoothConvexFunc) and u.guillemin_type
        if graded and not cached:
            return graded_blocks(P, d, GRADED_LAYERS), zip(*graded_boundary(P, d))
        Q = (self.graded if graded else split_scheme(P, u.kink_lines(), d)
             if isinstance(u, PLConvexFunc) else self.scheme)
        parts = (np.split(a, Q.meta.get("block_ends", [])[:-1])
                 for a in (Q.interior_points, Q.interior_weights, Q.interior_layers))
        return list(zip(*parts)), zip(Q.boundary_points, Q.boundary_weights)

    # -- functionals ---------------------------------------------------------

    def boundary_norm(self, u) -> float:
        """Integral of u over the boundary against dsigma."""
        if isinstance(u, MeshConvexFunc):
            return float(u.mesh.boundary_vertex_weights @ u.values)
        return integrate_blocks(u, self._rule_for(u)[1])

    def interior_integral(self, u) -> float:
        """Integral of A u over the polytope."""
        if isinstance(u, MeshConvexFunc):
            _, a = self._forms_for(u.mesh)
            return float(a @ u.values)
        return self._interior(u, self._rule_for(u)[0])

    def _interior(self, u, blocks):
        return integrate_blocks(lambda p: self._A(p) * np.asarray(u(p), dtype=float), blocks)

    def linear_functional(self, u) -> float:
        """L_A(u) = |u|_b - integral of A u."""
        return self.norm_and_linear(u)[1]

    def norm_and_linear(self, u):
        """(|u|_b, L_A(u)), both from one quadrature scheme."""
        if isinstance(u, MeshConvexFunc):
            bn, au = self.boundary_norm(u), self.interior_integral(u)
        else:
            blocks, rim = self._rule_for(u)
            bn, au = integrate_blocks(u, rim), self._interior(u, blocks)
        return bn, bn - au

    def mabuchi(self, u) -> MabuchiResult:
        """F_A(u) with a reported truncation estimate for the log-det term."""
        _require_smooth(u, "the Mabuchi energy")
        # one pass: the log-det term, its tail beyond TRUNCATION_COMPARE layers, A u
        blocks, rim = self._rule_for(u, cached=True)
        term = tail = au = 0.0
        for pts, wts, lay in blocks:
            det = _dets(u.hess(pts))
            if np.any(det <= 0.0):
                raise NonConvexAtQuadraturePoint("det Hess <= 0 at a quadrature point")
            logdet = np.log(det)
            deep = lay >= TRUNCATION_COMPARE
            term -= float(np.dot(wts, logdet))
            tail -= float(np.dot(wts[deep], logdet[deep]))
            au += self._interior(u, [(pts, wts)])
        lin = integrate_blocks(u, rim) - au
        return MabuchiResult(term + lin, term, lin, abs(tail))

    # -- Abreu operator -------------------------------------------------------

    def abreu_operator(self, u, points, h_fd=None):
        """S(u) = -sum d^2 u^{ij}/dx_i dx_j at interior samples.

        The inverse Hessian is evaluated analytically at all stencil points
        at once (3 per sample in 1D, 9 in 2D) and differentiated with central
        differences of step h_fd (default min(1e-3, dist/4)); the error is
        O(h_fd^2).
        """
        _require_smooth(u, "Abreu's operator")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        P = self.polytope
        dist = np.atleast_1d(P.boundary_distance(pts))
        if h_fd is None:
            h = np.minimum(1e-3, dist / 4.0)
        else:
            h = np.full(pts.shape[0], float(h_fd))
        if np.any(dist <= 2.0 * h):
            raise ValueError("abreu_operator samples must be >= 2 stencil widths from the boundary")

        steps = _STENCIL_1D if P.dimension == 1 else _STENCIL_2D
        H = u.hess(np.concatenate([pts] + [pts + h[:, None] * s for s in steps]))
        det = _dets(H)
        if np.any(det < 1e-12):
            raise SingularHessian("det Hess below 1e-12 at a stencil point")
        W = _invert(H, det).reshape(len(steps) + 1, *pts.shape, P.dimension)  # (Hess u)^-1
        if P.dimension == 1:
            w0, wp, wm = W[:, :, 0, 0]
            return -(wp - 2.0 * w0 + wm) / h**2
        w0, wxp, wxm, wyp, wym, wpp, wpm, wmp, wmm = W
        dxx = (wxp[:, 0, 0] - 2.0 * w0[:, 0, 0] + wxm[:, 0, 0]) / h**2
        dyy = (wyp[:, 1, 1] - 2.0 * w0[:, 1, 1] + wym[:, 1, 1]) / h**2
        dxy = (wpp[:, 0, 1] - wpm[:, 0, 1] - wmp[:, 0, 1] + wmm[:, 0, 1]) / (4.0 * h**2)
        return -(dxx + 2.0 * dxy + dyy)

    def ibp_identity_check(self, v: SmoothConvexFunc, u):
        """(lhs, rhs, gap) for L_A(u) = integral of v^{ij} u_{ij} dmu."""
        rhs, lhs = self.ibp_integral(v, u), self.linear_functional(u)
        return lhs, rhs, abs(lhs - rhs)

    def ibp_integral(self, v: SmoothConvexFunc, u) -> float:
        """Integral of v^{ij} u_{ij} dmu on the graded rule, the rhs of the identity."""
        if not isinstance(u, AffineFunc):
            _require_smooth(u, "the integration-by-parts identity")
        Q = self.graded
        Hv = v.hess(Q.interior_points)
        detv = _dets(Hv)
        if np.any(detv <= 0.0):
            raise NonConvexAtQuadraturePoint("v must be strictly convex")
        Wv = _invert(Hv, detv)
        Hu = np.zeros_like(Hv) if isinstance(u, AffineFunc) else u.hess(Q.interior_points)
        return float(np.dot(Q.interior_weights, np.einsum("mij,mij->m", Wv, Hu)))


def _require_smooth(u, what):
    if not isinstance(u, SmoothConvexFunc):
        raise NeedsSmoothFunction(f"{what} reads pointwise Hessians, "
                                  f"which a {type(u).__name__} does not have")


def _dets(H):
    if H.shape[-1] == 1:
        return H[:, 0, 0]
    return H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]


def _invert(H, det):
    W = np.empty_like(H)
    if H.shape[-1] == 1:
        W[:, 0, 0] = 1.0 / H[:, 0, 0]
        return W
    W[:, 0, 0] = H[:, 1, 1] / det
    W[:, 1, 1] = H[:, 0, 0] / det
    W[:, 0, 1] = -H[:, 0, 1] / det
    W[:, 1, 0] = -H[:, 1, 0] / det
    return W


def extremal_affine(P: Polytope, degree: int = DEFAULT_DEGREE, return_residuals=False):
    """The unique affine A with L_A = 0 on all affine functions.

    Solves the moment system in y = (x - c) / diam, c the vertex centroid, so
    its condition does not depend on the position or size of P: the Gram
    matrix of {1, y_i} against dmu is P's exact `moments` rescaled, and the
    boundary integrals of {1, y_i} are summed over the facets in vertex order
    (the edge from vertex e, or the endpoint e), each as its sigma-measure
    times (1, y at its midpoint), exact for affine y.  `degree` (at least 4)
    sets only the rule of the residuals |L_A(1)|, |L_A(x_i)|.
    """
    n, V = P.dimension, P.vertices
    c = P.vertex_centroid()
    diam = np.max(np.linalg.norm(V[:, None] - V[None], axis=-1))
    fv = np.array(P.facet_vertices)
    order = np.argsort(np.where(fv[:, -1] == fv[:, 0] + 1, fv[:, 0], fv[:, -1]))
    ends = V[fv[order]]
    sigma = P.boundary_weights[order] * (np.hypot(*(ends[:, 1] - ends[:, 0]).T) if n == 2 else 1.0)
    rhs = sigma @ np.column_stack([np.ones(len(ends)), (ends.mean(axis=1) - c) / diam])
    scale = np.append(1.0, np.full(n, 1.0 / diam))
    M = P.moments * np.outer(scale, scale)
    try:
        cond = np.linalg.cond(M)
        if cond > 1e14:
            raise SingularMoments(f"moment matrix condition {cond:.2e}")
        coeffs = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMoments(str(exc)) from exc
    slopes = coeffs[1:] / diam
    A = AffineFunc(float(coeffs[0] - slopes @ c), tuple(slopes.tolist()))
    if not return_residuals:
        return A
    ev = FunctionalEvaluator(P, A, degree=max(degree, 4))
    basis = np.eye(n + 1)  # rows (a0, a) of 1, x_1, ..., x_n
    return A, np.array([abs(ev.linear_functional(AffineFunc(float(e[0]), tuple(e[1:].tolist()))))
                        for e in basis])
