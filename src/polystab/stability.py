"""Stability analysis: bounds on the uniform-stability constant, and the certificate.

lambda is the infimum of L_A(u) / |u|_b over convex u >= 0 with u(p_o) = 0.
On an interval it is exact: that cone is spanned by hinges, and
`hinge_minimum` takes the least hinge ratio in closed form, so a run there
builds no mesh, LP or crease grid.  On a polygon a run brackets it:

    lambda_lower <= lambda <= lambda_hat_refined = min(lambda_hat, crease_sweep_min).

`ray_bounds` gives lambda_lower, and an upper bound on C' = sup |u|_L1 / |u|_b,
in closed form; the properness certificate is built from these two.
lambda_hat is the minimum over mesh-convex u (`StabilityLP`), normalized at
the mesh's `point_vertex`: `analyze_stability` puts grid lines through p_o
(default: the center of mass).  The LP's rows come from the vertex weights the
functional evaluator uses and the sparse convexity rows of the mesh.
mode="float" runs the interior-point method of `cone_lp`; mode="exact" runs
the Fraction simplex of `simplex_lp`, the oracle for small meshes.
`lp_iterations` counts the steps.  The crease sweep takes L_A(u) / |u|_b of
the normalized creases u = normalize((ell)_+, p_o) of a grid of affine ell at
once (`crease_functionals`), which no P1 cone of a mesh holds (Chone and Le
Meur, 2001).  The upper bounds hold up to rounding and quadrature, and the
statuses read them, so statuses are evidence, not proofs.
"""
from __future__ import annotations

import numpy as np

from . import cone_lp, simplex_lp
from ._geom import clip_halfplanes, fans
from ._records import Record
from .convex import (
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    crease,
    guillemin_potential,
    normalize,
)
from .errors import EmptyGrid, NonpositiveLambda
from .functionals import FunctionalEvaluator, as_field, field_coefficients, mesh_linear_forms
from .mesh import Mesh, check_mesh_parameter, make_mesh
from .polytope import Polytope, center_of_mass
from .quadrature import map_triangles, standard_scheme

LAMBDA_STABLE_THRESHOLD = 1e-3
LAMBDA_ZERO_BAND = 1e-6
FD_MARGIN = 2e-2        # the certificate's finite differences stay this far inside P
TOLERANCES = {
    "lp.feasibility": 1e-9,  # cone_lp.FEAS_TOL, written out so that 1D runs never load cone_lp
    "status.stable_threshold": LAMBDA_STABLE_THRESHOLD,
    "status.zero_band": LAMBDA_ZERO_BAND,
    "crease.skip_boundary_norm": 1e-9,
    "degeneracy.mass_per_length": 1e-6,
    "certificate.sup_safety": 1.05,
}


def __getattr__(name):  # `solve_lp`, as when imported here; only reading it runs simplex_lp
    if name == "solve_lp":
        return simplex_lp.solve_lp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PropernessCertificate(Record):
    """Constants realizing F_A(u) >= -C + eps' |u|_b >= -C + eps * int(u)."""

    def __init__(self, a_o_sup: float, c_o: float, c_prime: float, r_bound: float,
                 r_small: float, epsilon_prime: float, c_const: float, epsilon: float,
                 provenance: dict | None = None):
        self.a_o_sup = a_o_sup              # sampled sup |A_o| times the 1.05 safety factor
        self.c_o = c_o                      # -F_{A_o}(u_o) = int log det Hess u_o - n Vol
        self.c_prime = c_prime              # |u|_L1 <= c_prime |u|_b on the normalized cone
        self.r_bound = r_bound              # R with L_{A_o}(u) <= R |u|_b
        self.r_small = r_small              # chosen r in (0, lambda/R), lambda a lower bound
        self.epsilon_prime = epsilon_prime  # lambda - r R
        self.c_const = c_const              # C = C_o - n Vol log r
        self.epsilon = epsilon              # eps = eps' / c_prime
        self.provenance = {} if provenance is None else provenance


class StabilityReport(Record):
    def __init__(self, lambda_hat: float, status: str, mesh_parameter: float, p_o: np.ndarray,
                 lambda_hat_refined: float | None = None,
                 destabilizer: MeshConvexFunc | None = None,
                 crease_sweep_min: float | None = None,
                 crease_sweep_argmin: PLConvexFunc | None = None,
                 certificates: PropernessCertificate | None = None, lp_iterations: int = 0,
                 tolerances: dict | None = None):
        self.lambda_hat, self.status = lambda_hat, status
        self.mesh_parameter, self.p_o = mesh_parameter, p_o
        # min(lambda_hat, crease_sweep_min): the least upper bound on lambda the run has
        self.lambda_hat_refined, self.destabilizer = lambda_hat_refined, destabilizer
        self.crease_sweep_min, self.crease_sweep_argmin = crease_sweep_min, crease_sweep_argmin
        self.certificates, self.lp_iterations = certificates, lp_iterations
        self.lambda_lower = None  # `ray_bounds`' lower bound on lambda, set by analyze_stability
        self.tolerances = dict(TOLERANCES) if tolerances is None else tolerances


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

class StabilityLP:
    """The cone LP min L_A(u) s.t. |u|_b = 1 on one mesh of a polygon,
    normalized at p_o, the mesh's `point_vertex`, which must be strictly
    interior.

    `rows = (idx, coef)` are the mesh's convexity rows over the free vertices.
    An entry of p_o gets coefficient 0 at a column already in its row, so each
    row spans no more columns than its hinge.  `a_weights` are the interior
    weights of A, `b_weights` the boundary weights.
    """

    def __init__(self, P: Polytope, A, mesh: Mesh):
        self.mesh = mesh
        po = self.p_o_index = mesh.point_vertex
        if po is None or po in mesh.boundary_facets:
            raise ValueError("normalization vertex p_o must be the mesh's point, strictly interior")
        self.p_o = mesh.vertices[po]
        idx, coef = mesh.convexity_rows
        col = idx - (idx > po)
        other = np.take_along_axis(col, np.argmax(idx != po, axis=1)[:, None], axis=1)
        self.rows = (np.where(idx == po, other, col), np.where(idx == po, 0.0, coef))
        self.b_weights = mesh.boundary_vertex_weights
        self.a_weights = mesh_linear_forms(mesh, A, degree=6)[1]
        self.free = np.delete(np.arange(mesh.num_vertices), po)

    def minimize_linear_functional(self, mode="float"):
        """(min L_A(u) over the cone with |u|_b = 1, its minimizer, the LP's steps)."""
        c, b = (self.b_weights - self.a_weights)[self.free], self.b_weights[self.free]
        if mode == "exact":
            x, value, iterations = simplex_lp.solve_cone_lp_exact(c, *self.rows, b)
        elif mode == "float":
            res = cone_lp.solve_cone_lp(c, *self.rows, b)
            x, value, iterations = res.u, res.value, res.iterations
        else:
            raise ValueError(f"unknown LP mode {mode!r}")
        values = np.zeros(self.mesh.num_vertices)
        values[self.free] = x
        u = MeshConvexFunc(self.mesh, values, p_o_index=self.p_o_index)
        return value, u, iterations


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _polygon_only(P: Polytope, what: str):
    if P.dimension != 2:
        raise ValueError(f"{what} needs a polygon: on an interval the hinges give "
                         "lambda exactly (hinge_minimum)")


def default_crease_grid(P: Polytope, scheme=None):
    """(C, 3) rows (a0, a) of affine functions whose creases sweep the polygon P.

    The lines through pairs of the boundary nodes of `scheme` (default: the
    degree-6 standard rule of P), in the pair order (i, j), i < j.  One
    orientation per line: ell and -ell have the same normalized crease (see
    `crease_sweep`).  An interval raises ValueError.
    """
    _polygon_only(P, "the crease grid")
    nodes = np.vstack((scheme or standard_scheme(P, 6)).boundary_points)
    i, j = np.triu_indices(len(nodes), k=1)
    d = nodes[j] - nodes[i]
    L = np.hypot(d[:, 0], d[:, 1])
    keep = L >= 1e-12
    i, d, L = i[keep], d[keep], L[keep]
    eta = np.column_stack([-d[:, 1], d[:, 0]]) / L[:, None]
    # row by row matmul: the same dot product as eta @ nodes[i] on one pair
    c = (eta[:, None, :] @ nodes[i][:, :, None])[:, 0, 0]
    return np.column_stack([-c, eta])


def _affine_values(a0, a, x):
    """a0[c] + a[c] . x for every crease c: x is (m, n) shared or (C, m, n) per crease.

    Elementwise products, so every crease gets the same rounding wherever it
    sits in the batch.
    """
    return a0[:, None] + sum(a[:, [k]] * x[..., k] for k in range(a.shape[1]))


def crease_functionals(grid, p_o, evaluator: FunctionalEvaluator):
    """(|u|_b, L_A(u), a0, a) of u = normalize(crease(ell), p_o) for every row
    ell = (a0, a) of the (C, 3) array grid, on a polygon (an interval raises
    ValueError).

    Each ell is oriented to be < 0 at p_o or, when |ell(p_o)| <= 1e-12 (the
    tie band of `PLConvexFunc.active_gradients`), to a lexicographically
    positive gradient, so ell and -ell give the same row; (a0, a) are the
    oriented coefficients.  The supporting affine function that `normalize`
    removes is then the constant c = max(ell(p_o), 0), at most 1e-12, and
    u = (ell)_+ - c.  The (ell)_+ part is exact:

    * boundary: on a facet segment whose ends take the values g_A, g_B,
      the mean of (ell)_+ is (g_A + g_B)/2 when both are >= 0,
      g^2 / (2 |g_A - g_B|) for the positive one g on a sign change, else 0;
    * interior: A ell over P clipped to {ell >= 0}, with one rule of
      `evaluator.degree` on all the clipped polygons' fan triangles at once
      (one `clip_halfplanes` call on copies of P and one `map_triangles`
      call).
    """
    P = evaluator.polytope
    _polygon_only(P, "crease_functionals")
    Q = evaluator.scheme
    Af = as_field(evaluator.A, 2)
    p = np.asarray(p_o, dtype=float).reshape(2)
    grid = np.asarray(grid, dtype=float).reshape(-1, 3)
    a0, a = grid[:, 0], grid[:, 1:]
    at_p = _affine_values(a0, a, p[None])[:, 0]
    lead = a[np.arange(len(a)), np.argmax(a != 0.0, axis=1)]
    flip = np.where(np.abs(at_p) <= 1e-12, lead < 0.0, at_p > 0.0)
    sign = np.where(flip, -1.0, 1.0)
    a0, a, c = sign * a0, sign[:, None] * a, np.maximum(sign * at_p, 0.0)

    V = P.vertices
    fv = np.array(P.facet_vertices)
    gv = _affine_values(a0, a, V)
    gA, gB = gv[:, fv[:, 0]], gv[:, fv[:, 1]]
    g_lo, g_hi = np.minimum(gA, gB), np.maximum(gA, gB)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(g_lo >= 0.0, 0.5 * (gA + gB),
                        np.where(g_hi > 0.0, 0.5 * g_hi * g_hi / (g_hi - g_lo), 0.0))
    seg = V[fv[:, 1]] - V[fv[:, 0]]
    b_plus = np.sum(mean * (P.boundary_weights * np.hypot(seg[:, 0], seg[:, 1])), axis=1)
    C, m = gv.shape
    clipped, _, _ = clip_halfplanes(np.broadcast_to(V, (C, m, 2)), np.full(C, m), a, -a0)
    x, w = map_triangles(fans(clipped), evaluator.degree)
    x, w = x.reshape(len(a0), -1, 2), w.reshape(len(a0), -1)
    interior = np.sum(w * Af(x.reshape(-1, 2)).reshape(w.shape) * _affine_values(a0, a, x), axis=1)
    bn = b_plus - c * np.sum(np.concatenate(Q.boundary_weights))
    int_A = np.sum(Q.interior_weights * Af(Q.interior_points))
    return bn, bn - (interior - c * int_A), a0, a


def crease_sweep(P: Polytope, A, grid=None, p_o=None, evaluator=None):
    """Minimum of L_A over normalized creases of the rows (a0, a) of grid.

    Every crease is evaluated at once by `crease_functionals` (closed-form
    boundary term, one batched rule for the interior term); only the
    minimizer is built as a `PLConvexFunc`.  Each ell is first oriented as
    `crease_functionals` does, so either orientation gives the same crease.
    Creases whose normalized boundary norm falls below 1e-9 (affine on the
    polytope, or vanishing) are skipped.  Creases whose ratios lie within
    1e-12 (relative) of the minimum count as tied, as the mirror images of a
    symmetric polytope do, and the tie goes to the lexicographically smallest
    oriented (a, a0), so the minimizer does not depend on rounding or on the
    order of the grid.  Returns (min ratio, minimizing normalized crease).
    An interval raises ValueError.
    """
    _polygon_only(P, "the crease sweep")
    if grid is None:
        grid = default_crease_grid(P)
    if not len(grid):
        raise EmptyGrid("crease sweep needs a nonempty grid")
    if evaluator is None:
        evaluator = FunctionalEvaluator(P, A)
    if p_o is None:
        p_o = center_of_mass(P)
    bn, la, a0, a = crease_functionals(grid, p_o, evaluator)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = la / bn
    ok = (bn >= TOLERANCES["crease.skip_boundary_norm"]) & (ratio < np.inf)
    if not ok.any():
        raise EmptyGrid("every crease in the grid normalized to zero")
    ratio = np.where(ok, ratio, np.inf)
    best = float(ratio.min())
    tied = np.flatnonzero((ratio == best) | (ratio <= best + 1e-12 * max(1.0, abs(best))))
    keys = np.column_stack([a, a0])[tied]
    i = tied[np.lexsort(keys.T[::-1])[0]]  # lexicographically smallest (a, a0)
    return best, normalize(crease(AffineFunc(float(a0[i]), tuple(a[i].tolist()))), p_o)


def lp_stability_estimate(P: Polytope, A, mesh: Mesh, mode="float",
                          sweep_min=np.inf) -> StabilityReport:
    """Discrete stability constant and witness on the mesh, normalized at its point p_o.

    `lambda_hat_refined` = min(lambda_hat, sweep_min), the smaller of two
    L_A(u) / |u|_b on the normalized cone, gates "uniformly-stable".
    """
    lp = StabilityLP(P, A, mesh)
    lam, u, iters = lp.minimize_linear_functional(mode=mode)
    lam2 = min(lam, sweep_min)
    return StabilityReport(lam, _status(lam, lam2), mesh.h, lp.p_o.copy(),
                           lambda_hat_refined=lam2, destabilizer=u, lp_iterations=iters)


def _status(lam, lam2):
    """The verdict of lambda_hat = lam and lambda_hat_refined = lam2 <= lam."""
    if lam < -LAMBDA_ZERO_BAND:
        return "relatively-unstable"
    if abs(lam) <= LAMBDA_ZERO_BAND:
        return "boundary-case"
    return "uniformly-stable" if lam2 >= LAMBDA_STABLE_THRESHOLD else "inconclusive"


def hinge_minimum(P: Polytope, A, p_o):
    """(lambda, u): the stability constant of an interval, exactly, and the
    hinge u >= 0 = u(p_o) whose L_A(u) / |u|_b is lambda.

    Convex u >= 0 = u(p_o) on an interval is a nonnegative sum of the hinges
    (x - t)_+, t >= p_o, and (t - x)_+, t <= p_o (Donaldson, J. Differential
    Geom. 62, 2002), so lambda is their least ratio L_A(u) / |u|_b.  At the
    right end b, with dsigma-weight w_b there, d = b - t and A(b - y) =
    al0 + al1 y + al2 y^2, the ratio is 1 - q(d) / w_b, q(d) = al0 d / 2 +
    al1 d^2 / 6 + al2 d^3 / 12; the left end mirrors it.  Its least value is
    at d = b - p_o, at a root of q' in (0, b - p_o), or in the limit d -> 0,
    where it is 1 and u is the hinge vanishing at the right end.  Ties go to
    the right end, then to d = b - p_o.  A must be a number, an AffineFunc or
    a QuadraticPoly, and p_o inside P (else ValueError).
    """
    if P.dimension != 1:
        raise ValueError("hinge_minimum needs an interval")
    coeffs = field_coefficients(A)
    if coeffs is None:
        raise ValueError("hinge_minimum needs a polynomial field A")
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[3]
    p = float(np.ravel(p_o)[0])
    ends = P.vertices[np.asarray(P.facet_vertices)[:, 0], 0]
    if not ends.min() < p < ends.max():
        raise ValueError(f"p_o = {p!r} must lie strictly inside the interval")
    candidates = []  # (ratio, d, end e, s): the hinge (s (x - t))_+ with t = e - s d
    for e, w_e in sorted(zip(ends.tolist(), P.boundary_weights.tolist()), reverse=True):
        s = 1.0 if e > p else -1.0
        al0, al1, al2 = c0 + e * (c1 + c2 * e), -s * (c1 + 2.0 * c2 * e), c2
        reach = s * (e - p)
        ds = [reach] + [r for r in _real_roots(al2 / 4.0, al1 / 3.0, al0 / 2.0) if 0.0 < r < reach]
        candidates += [(1.0 - d * (al0 / 2.0 + d * (al1 / 6.0 + d * al2 / 12.0)) / w_e, d, e, s)
                       for d in ds]
    ratio, d, e, s = min(candidates + [(1.0, 0.0, float(ends.max()), 1.0)], key=lambda c: c[0])
    return ratio, crease(AffineFunc(d - s * e, (s,)))


def _real_roots(a, b, c):
    """The distinct real roots of a x^2 + b x + c, by the formula that does not
    cancel; none when a = b = 0."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b)) if disc > 0.0 else 0.0
    return [q / a, c / q] if q != 0.0 else []


def _max_along(a0, g, H, x, e):
    """Per row, max over s in [0, 1] of a0 + g.y + y.H y / 2 at y = x + s e."""
    c0, c1 = a0 + x @ g + 0.5 * np.sum((x @ H) * x, axis=1), np.sum((g + x @ H) * e, axis=1)
    c2 = 0.5 * np.sum((e @ H) * e, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(c2 < 0.0, np.clip(-0.5 * c1 / c2, 0.0, 1.0), 0.0)  # the critical point
    return np.max([c0, c0 + c1 + c2, c0 + s * (c1 + s * c2)], axis=0)


def ray_bounds(P: Polytope, A, p_o):
    """(lambda_lower, c_prime_upper), with lambda >= lambda_lower and C' <= c_prime_upper.

    Convex u >= 0 = u(p_o) has u(p_o + t (b - p_o)) <= t u(b) on the ray to a
    boundary point b (Donaldson, J. Differential Geom. 62, 2002), and dmu =
    t^(n-1) dt delta_F dsigma(b) on the cone over facet F, delta_F the
    distance from p_o to F over the density of dsigma.  So for A >= 0 on P,
    lambda >= 1 - sup w, w(b) = delta_F int_0^1 A(p_o + t (b - p_o)) t^n dt,
    and A = 1 gives C' <= max_F delta_F / (n + 1).  Any other A bounds it
    through A - m, m = min(0, min_P A): that is >= 0 on P, and int A u <=
    int (A - m) u for u >= 0.  lambda_lower is None unless A is a number, an
    AffineFunc or a QuadraticPoly; then w and A are quadratics along each
    facet, with closed-form extremes.
    """
    n = P.dimension
    p = np.asarray(p_o, dtype=float).reshape(n)
    delta = P.gaps(p) / (np.linalg.norm(P.normals, axis=1) * P.boundary_weights)
    c_prime = float(np.max(delta)) / (n + 1)
    coeffs = field_coefficients(A)
    if coeffs is None:
        return None, c_prime
    a0, cx, cy, cxx, cxy, cyy = coeffs
    g, H = np.array([cx, cy])[:n], np.array([[2.0 * cxx, cxy], [cxy, 2.0 * cyy]])[:n, :n]
    ends = P.vertices[np.asarray(P.facet_vertices)]  # (K, n, n): a facet's one or two ends
    edges = ends if n == 2 else P.vertices[None]
    a_min = -np.max(_max_along(-a0, -g, -H, edges[:, 0], edges[:, 1] - edges[:, 0]))
    if n == 2 and np.linalg.det(H) != 0.0 and np.all(P.gaps(x := np.linalg.solve(H, -g)) >= 0):
        a_min = min(a_min, a0 + 0.5 * (g @ x))  # A at its critical point x
    a0 -= min(0.0, a_min)
    # w(b) / delta_F: the t^n-moments of A's Taylor terms at p_o, a quadratic in b - p_o
    A_p, g_p = a0 + p @ g + 0.5 * p @ H @ p, g + H @ p
    w = delta * _max_along(A_p / (n + 1), g_p / (n + 2), H / (n + 3),
                           ends[:, 0] - p, ends[:, -1] - ends[:, 0])
    return 1.0 - float(np.max(w)), c_prime


def properness_certificate(P: Polytope, A, lam: float, c_prime: float,
                           evaluator: FunctionalEvaluator | None = None
                           ) -> PropernessCertificate:
    """Theorem-4.8-style constants from lambda, C' and the Guillemin reference.

    A_o = S(u_o) is sampled on a graded interior grid (finite differences
    cannot reach the boundary, so queries inside FD_MARGIN are pulled back
    along rays from the center before differencing); its sup gets a 1.05
    safety factor.  C_o = -F_{A_o}(u_o) = int log det Hess u_o dmu - n Vol,
    since L_{A_o}(u_o) = int u_o^{ij} (u_o)_{ij} dmu = n Vol for A_o = S(u_o);
    the log-det integral is the Mabuchi pass of u_o on the graded rule, so A_o
    itself is never integrated.  lambda and C' must bound the stability
    constant from below and |u|_L1 / |u|_b from above, as `ray_bounds` does;
    R = 1 + sup|A_o| C', r = lambda / (2R), eps' = lambda/2,
    C = C_o - n Vol log r, eps = eps' / C'.
    """
    if lam <= 0:
        raise NonpositiveLambda("properness certificate needs lambda > 0")
    if evaluator is None:
        evaluator = FunctionalEvaluator(P, A)
    u_o = guillemin_potential(P)
    xc = center_of_mass(P)

    d_c = P.gaps(xc) * P.boundary_weights  # facet distances at the center

    def pull_back(pts):
        # along xc + s (p - xc) each facet distance is affine in s; stop where
        # the first approaching facet comes within FD_MARGIN
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        slope = ((pts - xc) @ P.normals.T) * P.boundary_weights
        steps = np.divide(d_c - FD_MARGIN, -slope, out=np.full(slope.shape, np.inf),
                          where=slope < 0.0)
        s = np.clip(np.min(steps, axis=1), 0.0, 1.0)[:, None]
        close = (P.boundary_distance(pts) < FD_MARGIN)[:, None]
        return np.where(close, xc + s * (pts - xc), pts)

    # sampled sup on the graded grid (pulled back where needed)
    Qg = evaluator.graded
    sample = Qg.interior_points[:: max(1, len(Qg.interior_points) // 4000)]
    a_o_vals = evaluator.abreu_operator(u_o, pull_back(sample), h_fd=1e-3)
    a_sup = float(np.max(np.abs(a_o_vals))) * TOLERANCES["certificate.sup_safety"]

    vol = float(P.moments[0, 0])
    c_o = -evaluator.mabuchi(u_o).log_det_term - P.dimension * vol
    R = 1.0 + a_sup * c_prime
    r = lam / (2.0 * R)
    eps_prime = lam - r * R
    c_const = c_o - P.dimension * vol * np.log(r)
    eps = eps_prime / c_prime
    return PropernessCertificate(
        a_o_sup=a_sup, c_o=c_o, c_prime=c_prime, r_bound=R, r_small=r,
        epsilon_prime=eps_prime, c_const=c_const, epsilon=eps,
        provenance={
            "lambda": lam, "fd_margin": FD_MARGIN,
            "sup_samples": int(len(sample)), "volume": vol,
        })


def analyze_stability(P: Polytope, A, h: float, p_o=None, mode="float") -> StabilityReport:
    """lambda_hat, lambda_hat_refined, crease_sweep_min, lambda_lower and the
    status at p_o (default: center of mass); the certificate, from
    lambda_lower and `ray_bounds`' C', when the status is "uniformly-stable"
    and lambda_lower > 0.

    On an interval all four are the exact lambda of `hinge_minimum`, and h is
    only checked; on a polygon they come from the crease sweep, the cone LP on
    the mesh through p_o at h, and `ray_bounds`.
    """
    evaluator = FunctionalEvaluator(P, A)
    if p_o is None:
        p_o = center_of_mass(P)
    lower, c_prime = ray_bounds(P, A, p_o)
    if P.dimension == 1:
        check_mesh_parameter(h)
        lower, u = hinge_minimum(P, A, p_o)
        report = StabilityReport(lower, _status(lower, lower), h,
                                 np.array(p_o, dtype=float).reshape(1), lambda_hat_refined=lower,
                                 destabilizer=u, crease_sweep_min=lower, crease_sweep_argmin=u)
    else:
        grid = default_crease_grid(P, scheme=evaluator.scheme)
        sweep_min, sweep_arg = crease_sweep(P, A, grid=grid, p_o=p_o, evaluator=evaluator)
        report = lp_stability_estimate(P, A, make_mesh(P, h, point=p_o), mode=mode,
                                       sweep_min=sweep_min)
        report.crease_sweep_min, report.crease_sweep_argmin = sweep_min, sweep_arg
    report.lambda_lower = lower
    if report.status == "uniformly-stable" and (lower or 0.0) > 0.0:
        report.certificates = properness_certificate(P, A, lower, c_prime, evaluator=evaluator)
    return report
