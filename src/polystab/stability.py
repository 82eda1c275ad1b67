"""Stability analysis: the discrete uniform-stability constant and certificates.

lambdaHat is the minimum of L_A(u) over the discrete normalized cone

    { u mesh-convex : u >= 0, u(p_o) = 0, |u|_b = 1 },

solved as a linear program whose objective and normalization row come from the
same vertex-weight assembly the functional evaluator uses.  Its convexity rows
stay sparse, three or four vertices each.  The default mode="float" solves it
with the interior-point method of `cone_lp` (Mehrotra steps on the normal
matrix of those rows), then purifies: the last iterate is projected onto the
constraints it identifies as active, which gives the optimum to rounding.
mode="exact" solves the same LP with the Fraction Bland simplex of
`simplex_lp`, the oracle for small meshes.

The discrete value only upper-bounds the true constant restricted to mesh
functions, so statuses are evidence, not proofs; refinement monotonicity is
reported, and the "uniformly-stable" verdict requires the threshold to hold
across two mesh refinements.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone_lp import FEAS_TOL as LP_FEAS_TOL, solve_cone_lp
from .convex import (
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    convexity_coefficients,
    crease,
    normalize,
    segment_ma_measure,
)
from .errors import EmptyGrid, NonpositiveLambda
from .functionals import FunctionalEvaluator, mesh_linear_forms
from .mesh import Mesh, make_mesh
from .polytope import Polytope, center_of_mass
from .quadrature import standard_scheme
from .simplex_lp import solve_lp

LAMBDA_STABLE_THRESHOLD = 1e-3
LAMBDA_ZERO_BAND = 1e-6
TOLERANCES = {
    "lp.feasibility": LP_FEAS_TOL,
    "status.stable_threshold": LAMBDA_STABLE_THRESHOLD,
    "status.zero_band": LAMBDA_ZERO_BAND,
    "crease.skip_boundary_norm": 1e-9,
    "degeneracy.mass_per_length": 1e-6,
    "certificate.sup_safety": 1.05,
}


@dataclass
class PropernessCertificate:
    """Constants realizing F_A(u) >= -C + eps' |u|_b >= -C + eps * int(u)."""

    a_o_sup: float        # sampled sup |A_o| times the 1.05 safety factor
    c_o: float            # -F_{A_o}(u_o)
    c_prime: float        # |u|_L1 <= c_prime |u|_b on the normalized cone
    r_bound: float        # R with L_{A_o}(u) <= R |u|_b
    r_small: float        # chosen r in (0, lambda/R)
    epsilon_prime: float  # lambda - r R
    c_const: float        # C = C_o - n Vol log r
    epsilon: float        # eps = eps' / c_prime
    provenance: dict = field(default_factory=dict)


@dataclass
class StabilityReport:
    lambda_hat: float
    status: str
    mesh_parameter: float
    p_o: np.ndarray
    lambda_hat_refined: float | None = None
    destabilizer: MeshConvexFunc | None = None
    crease_sweep_min: float | None = None
    crease_sweep_argmin: PLConvexFunc | None = None
    certificates: PropernessCertificate | None = None
    lp_iterations: int = 0
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

class StabilityLP:
    """Shared assembly for the cone LPs on one mesh.

    `rows = (idx, coef)` are the sparse convexity rows over the free vertices,
    with the entries of p_o zeroed.
    """

    def __init__(self, P: Polytope, A, mesh: Mesh, p_o=None):
        self.polytope = P
        self.mesh = mesh
        if p_o is None:
            p_o = center_of_mass(P)
        self.p_o_index = mesh.nearest_vertex(p_o)
        if self.p_o_index in mesh.boundary_facets:
            raise ValueError("normalization vertex p_o must be strictly interior")
        self.p_o = mesh.vertices[self.p_o_index]
        if mesh.dimension == 1:
            idx = mesh.hinges
            x = mesh.vertices[idx, 0]
            left, right = 1.0 / (x[:, 1] - x[:, 0]), 1.0 / (x[:, 2] - x[:, 1])
            coef = np.column_stack([left, -(left + right), right])
        else:
            idx, coef = convexity_coefficients(mesh)
        po = self.p_o_index
        self.rows = (np.where(idx == po, 0, idx - (idx > po)), np.where(idx == po, 0.0, coef))
        self.b_weights, self.a_weights = mesh_linear_forms(mesh, A, degree=6)
        _, self.mass_weights = mesh_linear_forms(mesh, 1.0, degree=6)
        self.free = np.delete(np.arange(mesh.num_vertices), po)

    def _solve(self, objective, norm_row, mode):
        c, b = objective[self.free], norm_row[self.free]
        if mode == "float":
            res = solve_cone_lp(c, *self.rows, b)
            x, value = res.u, res.value
        elif mode == "exact":
            res = solve_lp(*self._equality_form(c, b))
            x, value = [float(v) for v in res.x[:len(c)]], float(res.value)
        else:
            raise ValueError(f"unknown LP mode {mode!r}")
        values = np.zeros(self.mesh.num_vertices)
        values[self.free] = x
        u = MeshConvexFunc(self.mesh, values, p_o_index=self.p_o_index, normalized=True)
        return value, u, res.iterations

    def _equality_form(self, c, b):
        """Dense (cost, A, rhs) of [C -I; b 0] (u, slack) = (0, 1) for the exact simplex."""
        idx, coef = self.rows
        E, U = idx.shape[0], len(c)
        A_eq = np.zeros((E + 1, U + E))
        np.add.at(A_eq, (np.repeat(np.arange(E), idx.shape[1]), idx.ravel()), coef.ravel())
        A_eq[np.arange(E), U + np.arange(E)] = -1.0
        A_eq[E, :U] = b
        return np.concatenate([c, np.zeros(E)]), A_eq, np.eye(E + 1)[E]

    def minimize_linear_functional(self, mode="float"):
        """min L_A(u) over the cone with |u|_b = 1."""
        return self._solve(self.b_weights - self.a_weights, self.b_weights, mode)

    def minimize_linear_functional_mass(self, mode="float"):
        """min L_A(u) over the cone with int(u) dmu = 1."""
        return self._solve(self.b_weights - self.a_weights, self.mass_weights, mode)

    def maximize_mass(self, mode="float"):
        """max int(u) dmu over the cone with |u|_b = 1."""
        value, u, it = self._solve(-self.mass_weights, self.b_weights, mode)
        return -value, u, it


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def default_crease_grid(P: Polytope, resolution=64, degree=6):
    """Affine functions whose creases sweep the polytope.

    1D: kinks at `resolution` uniform interior positions, both orientations;
    2D: lines through pairs of boundary quadrature nodes, both orientations.
    """
    out = []
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        for t in np.linspace(lo, hi, resolution + 1)[1:-1]:
            out.append(AffineFunc(-t, (1.0,)))
            out.append(AffineFunc(t, (-1.0,)))
        return out
    Q = standard_scheme(P, degree)
    nodes = np.vstack([pts for pts in Q.boundary_points])
    m = len(nodes)
    for i in range(m):
        for j in range(i + 1, m):
            d = nodes[j] - nodes[i]
            L = np.hypot(d[0], d[1])
            if L < 1e-12:
                continue
            eta = np.array([-d[1], d[0]]) / L
            c = float(eta @ nodes[i])
            out.append(AffineFunc(-c, tuple(eta)))
            out.append(AffineFunc(c, tuple(-eta)))
    return out


def crease_sweep(P: Polytope, A, grid=None, p_o=None, evaluator=None):
    """Minimum of L_A over normalized creases in the grid.

    Creases whose normalized boundary norm falls below 1e-9 (affine on the
    polytope, or vanishing) are skipped.  Returns (min ratio, minimizing
    normalized crease).
    """
    if grid is None:
        grid = default_crease_grid(P)
    if not grid:
        raise EmptyGrid("crease sweep needs a nonempty grid")
    if evaluator is None:
        evaluator = FunctionalEvaluator(P, A)
    if p_o is None:
        p_o = center_of_mass(P)
    best = (np.inf, None)
    for ell in grid:
        u = normalize(crease(ell), p_o)
        bn = evaluator.boundary_norm(u)
        if bn < TOLERANCES["crease.skip_boundary_norm"]:
            continue
        ratio = evaluator.linear_functional(u) / bn
        if ratio < best[0]:
            best = (ratio, u)
    if best[1] is None:
        raise EmptyGrid("every crease in the grid normalized to zero")
    return best


def lp_stability_estimate(P: Polytope, A, mesh: Mesh, p_o=None, mode="float",
                          refine=True) -> StabilityReport:
    """Discrete stability constant and witness on the given mesh.

    Solves the cone LP on `mesh`; when `refine` is set, also on the mesh at
    h/2 with the same normalization vertex, and the refined value gates the
    "uniformly-stable" status.
    """
    lp = StabilityLP(P, A, mesh, p_o)
    lam, u, iters = lp.minimize_linear_functional(mode=mode)
    lam2 = None
    if refine:
        fine = make_mesh(P, mesh.h / 2.0)
        lp2 = StabilityLP(P, A, fine, lp.p_o)
        lam2, _, it2 = lp2.minimize_linear_functional(mode=mode)
        iters += it2

    if lam < -LAMBDA_ZERO_BAND:
        status = "relatively-unstable"
    elif abs(lam) <= LAMBDA_ZERO_BAND:
        status = "boundary-case"
    elif lam >= LAMBDA_STABLE_THRESHOLD and (lam2 is None or lam2 >= LAMBDA_STABLE_THRESHOLD):
        status = "uniformly-stable"
    else:
        status = "inconclusive"
    return StabilityReport(
        lambda_hat=lam,
        status=status,
        mesh_parameter=mesh.h,
        p_o=lp.p_o.copy(),
        lambda_hat_refined=lam2,
        destabilizer=u,
        lp_iterations=iters,
    )


def relative_kpolystability_check(P: Polytope, A, mesh: Mesh, p_o=None, mode="float"):
    """(is_relatively_K_polystable, witness).

    Fails either when the cone LP goes negative (witness: its minimizer) or
    when a nontrivial extremal function exists in the discrete cone: the
    mass-normalized LP min L_A(u) s.t. int(u) = 1 reaching <= 1e-9 produces a
    nonzero u with vanishing L_A (witness: that function).
    """
    lp = StabilityLP(P, A, mesh, p_o)
    lam, u, _ = lp.minimize_linear_functional(mode=mode)
    if lam < -LAMBDA_ZERO_BAND:
        return False, u
    m2, w, _ = lp.minimize_linear_functional_mass(mode=mode)
    if m2 <= 1e-9:
        return False, w
    return True, None


@dataclass
class DegeneracyReport:
    labels: list
    boundary_norms: np.ndarray
    linear_values: np.ndarray
    masses: np.ndarray            # (steps, segments)
    segments: list
    status: str
    degenerating_to_affine: bool
    l_a_vanishing: bool
    tau: dict                     # segment index -> (persistent mass floor, tau)


def degeneracy_diagnostic(functions, segments, evaluator: FunctionalEvaluator,
                          labels=None) -> DegeneracyReport:
    """Track segment Monge-Ampere masses and L_A along a sequence.

    Flags "degenerating-to-affine" when the masses fall below the absolute
    threshold 1e-6 * length(I) on every segment while the boundary norm stays
    1; "degenerating-to-zero" when the norms collapse as well.  For segments
    whose mass stays bounded away from zero the empirical tau = min_k L_A /
    mass floor is recorded (positive tau is the discrete shadow of the
    segment-mass lower bound on L_A).
    """
    P = evaluator.polytope
    fns = list(functions)
    if labels is None:
        labels = list(range(len(fns)))
    segs = [(np.atleast_1d(np.asarray(a, dtype=float)),
             np.atleast_1d(np.asarray(b, dtype=float))) for a, b in segments]
    lengths = np.array([np.linalg.norm(b - a) for a, b in segs])
    bnorms = np.array([evaluator.boundary_norm(u) for u in fns])
    lvals = np.array([evaluator.linear_functional(u) for u in fns])
    masses = np.array([[segment_ma_measure(u, a, b, P) for a, b in segs] for u in fns])

    thresh = TOLERANCES["degeneracy.mass_per_length"] * lengths
    final_small = bool(np.all(masses[-1] < thresh))
    norm_one = bool(abs(bnorms[-1] - 1.0) <= 1e-6)
    norm_zero = bool(bnorms[-1] < 1e-3)
    to_affine = final_small and norm_one
    if to_affine:
        status = "degenerating-to-affine"
    elif final_small and norm_zero:
        status = "degenerating-to-zero"
    else:
        status = "stable-mass"
    la_vanishing = bool(abs(lvals[-1]) < 1e-3)

    tau = {}
    for s in range(len(segs)):
        floor = float(np.min(masses[:, s]))
        if floor > thresh[s]:
            tau[s] = (floor, float(np.min(lvals) / floor))
    return DegeneracyReport(labels, bnorms, lvals, masses, segments, status,
                            to_affine, la_vanishing, tau)


def scripted_sequences(P: Polytope, ks=(10, 100, 10_000, 1_000_000, 10_000_000)):
    """The three built-in 1D diagnostic sequences (interval polytopes only)."""
    if P.dimension != 1:
        raise ValueError("scripted sequences are defined on intervals")
    lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
    mid = 0.5 * (lo + hi)
    width = hi - lo

    def escaping(k):
        # crease with kink at hi - width/k and slope k/width, boundary norm 1
        s = k / width
        return crease(AffineFunc(-s * (hi - width / k), (s,)))

    def fixed(k):
        return PLConvexFunc((AffineFunc(mid, (-1.0,)), AffineFunc(-mid, (1.0,))))

    def shrinking(k):
        return PLConvexFunc((AffineFunc(mid / k, (-1.0 / k,)),
                             AffineFunc(-mid / k, (1.0 / k,))))

    return {
        "escaping-crease": [escaping(k) for k in ks],
        "fixed-mass": [fixed(k) for k in ks],
        "shrinking": [shrinking(k) for k in ks],
    }, list(ks)


def l1_boundary_constant(P: Polytope, p_o, mesh: Mesh, mode="float"):
    """C' with |u|_L1 <= C' |u|_b on the discrete normalized cone (an LP max)."""
    lp = StabilityLP(P, 0.0, mesh, p_o)
    value, u, _ = lp.maximize_mass(mode=mode)
    return value, u


def solution_norm_bound(P: Polytope, A, lam: float) -> float:
    """lambda^{-1} n Vol: bound on |v|_b for any solution v (A fixes context)."""
    if lam <= 0:
        raise NonpositiveLambda("norm bound needs lambda > 0")
    Q = standard_scheme(P, 2)
    vol = float(np.dot(Q.interior_weights, np.ones(len(Q.interior_weights))))
    return P.dimension * vol / lam


def properness_certificate(P: Polytope, A, lam: float, mesh: Mesh, p_o=None,
                           evaluator: FunctionalEvaluator | None = None,
                           fd_margin=2e-2) -> PropernessCertificate:
    """Theorem-4.8-style constants from lambda and the Guillemin reference.

    A_o = S(u_o) is sampled on a graded interior grid (finite differences
    cannot reach the boundary, so queries inside `fd_margin` are pulled back
    along rays from the center before differencing); its sup gets a 1.05
    safety factor.  C_o = -F_{A_o}(u_o), C' solves the L1-vs-boundary LP,
    R = 1 + sup|A_o| C', r = lambda / (2R), eps' = lambda/2,
    C = C_o - n Vol log r, eps = eps' / C'.
    """
    from .convex import guillemin_potential

    if lam <= 0:
        raise NonpositiveLambda("properness certificate needs lambda > 0")
    if evaluator is None:
        evaluator = FunctionalEvaluator(P, A)
    u_o = guillemin_potential(P)
    xc = center_of_mass(P)

    d_c = P.gaps(xc) * P.boundary_weights  # facet distances at the center

    def pull_back(pts):
        # along xc + s (p - xc) each facet distance is affine in s; stop where
        # the first approaching facet comes within fd_margin
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        slope = ((pts - xc) @ P.normals.T) * P.boundary_weights
        steps = np.divide(d_c - fd_margin, -slope, out=np.full(slope.shape, np.inf),
                          where=slope < 0.0)
        s = np.clip(np.min(steps, axis=1), 0.0, 1.0)[:, None]
        close = (P.boundary_distance(pts) < fd_margin)[:, None]
        return np.where(close, xc + s * (pts - xc), pts)

    def a_o_field(pts):
        return evaluator.abreu_operator(u_o, pull_back(pts), h_fd=1e-3)

    # sampled sup on the graded grid (pulled back where needed)
    Qg = evaluator.graded
    sample = Qg.interior_points[:: max(1, len(Qg.interior_points) // 4000)]
    a_o_vals = a_o_field(sample)
    a_sup = float(np.max(np.abs(a_o_vals))) * TOLERANCES["certificate.sup_safety"]

    ev_o = FunctionalEvaluator(P, a_o_field, degree=evaluator.degree,
                               layers=evaluator.layers)
    c_o = -ev_o.mabuchi(u_o).value
    c_prime, _ = l1_boundary_constant(P, p_o, mesh)
    R = 1.0 + a_sup * c_prime
    r = lam / (2.0 * R)
    eps_prime = lam - r * R
    vol = evaluator.volume()
    c_const = c_o - P.dimension * vol * np.log(r)
    eps = eps_prime / c_prime
    return PropernessCertificate(
        a_o_sup=a_sup, c_o=c_o, c_prime=c_prime, r_bound=R, r_small=r,
        epsilon_prime=eps_prime, c_const=c_const, epsilon=eps,
        provenance={
            "lambda": lam, "mesh_h": mesh.h, "fd_margin": fd_margin,
            "sup_samples": int(len(sample)), "volume": vol,
        })


def analyze_stability(P: Polytope, A, h: float, p_o=None, mode="float",
                      sweep_resolution=64) -> StabilityReport:
    """Crease sweep plus the LP at h and h/2; the full report."""
    evaluator = FunctionalEvaluator(P, A)
    if p_o is None:
        p_o = center_of_mass(P)
    grid = default_crease_grid(P, resolution=sweep_resolution)
    sweep_min, sweep_arg = crease_sweep(P, A, grid=grid, p_o=p_o, evaluator=evaluator)
    mesh = make_mesh(P, h)
    report = lp_stability_estimate(P, A, mesh, p_o=p_o, mode=mode, refine=True)
    report.crease_sweep_min = sweep_min
    report.crease_sweep_argmin = sweep_arg
    if report.status == "uniformly-stable":
        report.certificates = properness_certificate(
            P, A, report.lambda_hat, mesh, p_o=p_o, evaluator=evaluator)
    return report
