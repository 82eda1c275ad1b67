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

The crease sweep bounds the constant from above by L_A(u) / |u|_b over the
normalized creases u = normalize((ell)_+, p_o) of a grid of affine ell.  It
evaluates the whole grid at once: u = (ell)_+ - s, where s is the supporting
affine function at p_o (zero unless ell(p_o) lies within 1e-12 of 0 and the
gradient of ell is lexicographically negative, the tie rule of `normalize`),
and both functionals are linear.  The boundary integral of (ell)_+ over each
facet segment has a closed form in the values of ell at its ends; the
interior integral of A ell over P clipped to {ell >= 0} comes from one
batched clip of P by every ell and one quadrature call on the fan triangles of
the clipped polygons.  `verify_audits` checks the chain from a
positive constant to the properness bound; `polystab verify` reports it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import solver
from ._geom import clip_halfplanes, fans
from .cone_lp import FEAS_TOL as LP_FEAS_TOL, solve_cone_lp
from .convex import (
    AffineFunc,
    MeshConvexFunc,
    PLConvexFunc,
    SmoothConvexFunc,
    crease,
    guillemin_potential,
    normalize,
    random_normalized_mesh_function,
    segment_ma_measure,
)
from .errors import EmptyGrid, NonpositiveLambda
from .functionals import FunctionalEvaluator, as_field, extremal_affine, mesh_linear_forms
from .mesh import Mesh, make_mesh
from .polytope import Polytope, center_of_mass
from .quadrature import gauss_rule, map_triangles, standard_scheme
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

    `rows = (idx, coef)` are the mesh's convexity rows over the free vertices,
    with the entries of p_o zeroed.  The interior weights of A and of the unit
    field (`a_weights`, `mass_weights`) are assembled when a problem reads them.
    """

    def __init__(self, P: Polytope, A, mesh: Mesh, p_o=None):
        self.polytope = P
        self.A = A
        self.mesh = mesh
        if p_o is None:
            p_o = center_of_mass(P)
        self.p_o_index = mesh.nearest_vertex(p_o)
        if self.p_o_index in mesh.boundary_facets:
            raise ValueError("normalization vertex p_o must be strictly interior")
        self.p_o = mesh.vertices[self.p_o_index]
        idx, coef = mesh.convexity_rows
        po = self.p_o_index
        self.rows = (np.where(idx == po, 0, idx - (idx > po)), np.where(idx == po, 0.0, coef))
        self.b_weights = mesh.boundary_vertex_weights
        self.free = np.delete(np.arange(mesh.num_vertices), po)

    @cached_property
    def a_weights(self):
        return mesh_linear_forms(self.mesh, self.A, degree=6)[1]

    @cached_property
    def mass_weights(self):
        return mesh_linear_forms(self.mesh, 1.0, degree=6)[1]

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

    1D: kinks at `resolution` uniform interior positions; 2D: lines through
    pairs of boundary quadrature nodes, in the pair order (i, j), i < j.  One
    orientation per line: ell and -ell have the same normalized crease (see
    `crease_sweep`).
    """
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        return [AffineFunc(-t, (1.0,)) for t in np.linspace(lo, hi, resolution + 1)[1:-1]]
    nodes = np.vstack(standard_scheme(P, degree).boundary_points)
    i, j = np.triu_indices(len(nodes), k=1)
    d = nodes[j] - nodes[i]
    L = np.hypot(d[:, 0], d[:, 1])
    keep = L >= 1e-12
    i, d, L = i[keep], d[keep], L[keep]
    eta = np.column_stack([-d[:, 1], d[:, 0]]) / L[:, None]
    # row by row matmul: the same dot product as eta @ nodes[i] on one pair
    c = (eta[:, None, :] @ nodes[i][:, :, None])[:, 0, 0]
    return [AffineFunc(-float(ci), tuple(e)) for ci, e in zip(c, eta)]


def _affine_values(a0, a, x):
    """a0[c] + a[c] . x for every crease c: x is (m, n) shared or (C, m, n) per crease.

    Elementwise products, so every crease gets the same rounding wherever it
    sits in the batch.
    """
    return a0[:, None] + sum(a[:, [k]] * x[..., k] for k in range(a.shape[1]))


def crease_functionals(grid, p_o, evaluator: FunctionalEvaluator):
    """(|u|_b, L_A(u), a0, a) of u = normalize(crease(ell), p_o) for every ell in grid.

    Each ell is oriented to be < 0 at p_o or, when |ell(p_o)| <= 1e-12 (the
    tie band of `PLConvexFunc.active_gradients`), to a lexicographically
    positive gradient, so ell and -ell give the same row; (a0, a) are the
    oriented coefficients.  The supporting affine function that `normalize`
    removes is then the constant c = max(ell(p_o), 0), at most 1e-12, and
    u = (ell)_+ - c.  The (ell)_+ part is exact:

    * boundary: on a facet segment whose ends take the values g_A, g_B,
      the mean of (ell)_+ is (g_A + g_B)/2 when both are >= 0,
      g^2 / (2 |g_A - g_B|) for the positive one g on a sign change, else 0;
      in 1D it is (ell)_+ at the endpoint;
    * interior: A ell over P clipped to {ell >= 0}, with one rule of
      `evaluator.degree` on all the clipped polygons' fan triangles at once
      (one `clip_halfplanes` call on copies of P and one `map_triangles`
      call), or in 1D one Gauss rule per crease on the
      part of the interval where ell >= 0.
    """
    P = evaluator.polytope
    Q = evaluator.scheme
    Af = as_field(evaluator.A, P.dimension)
    p = np.atleast_1d(np.asarray(p_o, dtype=float))
    a0 = np.array([ell.a0 for ell in grid], dtype=float)
    a = np.array([ell.a for ell in grid], dtype=float).reshape(len(grid), P.dimension)
    at_p = _affine_values(a0, a, p[None])[:, 0]
    lead = a[np.arange(len(a)), np.argmax(a != 0.0, axis=1)]
    flip = np.where(np.abs(at_p) <= 1e-12, lead < 0.0, at_p > 0.0)
    sign = np.where(flip, -1.0, 1.0)
    a0, a, c = sign * a0, sign[:, None] * a, np.maximum(sign * at_p, 0.0)

    bw = np.concatenate(Q.boundary_weights)
    if P.dimension == 1:
        bpts = np.vstack(Q.boundary_points)
        b_plus = np.sum(np.maximum(_affine_values(a0, a, bpts), 0.0) * bw, axis=1)
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        slope = a[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            kink = np.clip(-a0 / slope, lo, hi)
        left = np.where(slope > 0.0, kink, lo)
        right = np.where(slope < 0.0, kink, np.where(slope > 0.0, hi, lo))
        t, wt = gauss_rule((evaluator.degree + 2) // 2)
        x = (left[:, None] + t * (right - left)[:, None])[..., None]
        w = wt * (right - left)[:, None]
    else:
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
        clipped, _ = clip_halfplanes(np.broadcast_to(V, (C, m, 2)), np.full(C, m), a, -a0)
        x, w = map_triangles(fans(clipped), evaluator.degree)
        x, w = x.reshape(len(a0), -1, 2), w.reshape(len(a0), -1)
    interior = np.sum(w * Af(x.reshape(-1, P.dimension)).reshape(w.shape)
                      * _affine_values(a0, a, x), axis=1)
    bn = b_plus - c * np.sum(bw)
    int_A = np.sum(Q.interior_weights * Af(Q.interior_points))
    return bn, bn - (interior - c * int_A), a0, a


def crease_sweep(P: Polytope, A, grid=None, p_o=None, evaluator=None):
    """Minimum of L_A over normalized creases in the grid.

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
    """
    if grid is None:
        grid = default_crease_grid(P)
    if not grid:
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
    bnorms, lvals = np.array([evaluator.norm_and_linear(u) for u in fns]).T
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
    """The three built-in diagnostic sequences, all varying along x1.

    escaping-crease: the crease with kink at hi - width/k and slope k/width,
    divided by its boundary norm; fixed-mass: |x1 - mid|; shrinking:
    |x1 - mid| / k.
    """
    xs = P.vertices[:, 0]
    lo, hi = float(xs.min()), float(xs.max())
    mid = 0.5 * (lo + hi)
    width = hi - lo
    zeros = (0.0,) * (P.dimension - 1)
    ev = FunctionalEvaluator(P, 0.0)

    def escaping(k):
        s = k / width
        u = crease(AffineFunc(-s * (hi - width / k), (s,) + zeros))
        bn = ev.boundary_norm(u)
        return PLConvexFunc(tuple(AffineFunc(p.a0 / bn, tuple(np.asarray(p.a) / bn))
                                  for p in u.pieces))

    def vee(k):
        return PLConvexFunc((AffineFunc(mid / k, (-1.0 / k,) + zeros),
                             AffineFunc(-mid / k, (1.0 / k,) + zeros)))

    return {
        "escaping-crease": [escaping(k) for k in ks],
        "fixed-mass": [vee(1) for k in ks],
        "shrinking": [vee(k) for k in ks],
    }, list(ks)


def _default_segments(P: Polytope):
    """Interior segments, around the center of mass, that the audits track."""
    c = center_of_mass(P)
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    w = hi[0] - lo[0]
    if P.dimension == 1:
        return [(c[0] - 0.25 * w, c[0] + 0.25 * w), (c[0] - 0.1 * w, c[0] + 0.3 * w)]
    return [((c[0] - 0.2 * w, c[1]), (c[0] + 0.2 * w, c[1]))]


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
                           fd_margin=2e-2, mode="float") -> PropernessCertificate:
    """Theorem-4.8-style constants from lambda and the Guillemin reference.

    A_o = S(u_o) is sampled on a graded interior grid (finite differences
    cannot reach the boundary, so queries inside `fd_margin` are pulled back
    along rays from the center before differencing); its sup gets a 1.05
    safety factor.  C_o = -F_{A_o}(u_o), C' solves the L1-vs-boundary LP,
    R = 1 + sup|A_o| C', r = lambda / (2R), eps' = lambda/2,
    C = C_o - n Vol log r, eps = eps' / C'.  `mode` is the LP mode for C'.
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
    c_prime, _ = l1_boundary_constant(P, p_o, mesh, mode=mode)
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
            P, A, report.lambda_hat, mesh, p_o=p_o, evaluator=evaluator, mode=mode)
    return report


def verify_audits(P: Polytope, h: float, seed: int, sigma_scale=1.0, audit_count=50):
    """Audit the chain from uniform stability to properness on P.

    A is the extremal field of P and v the solution for it: `solve_1d`'s in
    1D, and in 2D the Guillemin potential u_o, which solves only where it is
    extremal (the square, the simplex).  The audits evaluate on P with its
    boundary weights scaled by `sigma_scale`, while A and v stay those of P
    as given; a scale other than 1 breaks the identities, so the suite must
    fail (a consistency tripwire).  Yields (name, passed, measured,
    tolerance) rows.
    """
    rng = np.random.default_rng(seed)
    A = extremal_affine(P)
    v = solver.solve_1d(P, A)[0] if P.dimension == 1 else guillemin_potential(P)
    if sigma_scale != 1.0:
        P = replace(P, boundary_weights=P.boundary_weights * sigma_scale)
    ev = FunctionalEvaluator(P, A)
    n = P.dimension
    vol = ev.volume()

    # integration-by-parts identity L_A(u) = int v^{ij} u_ij; for u = v its
    # lhs is the one L_A(v), whose call also gives the norm-bound row's |v|_b
    eye = 2.0 * np.eye(n)
    xsq = SmoothConvexFunc(lambda p: np.sum(p * p, axis=1), lambda p: 2.0 * p,
                           lambda p: np.tile(eye, (p.shape[0], 1, 1)), n, domain=P)
    bnorm_solution, la = ev.norm_and_linear(v)
    gaps = [ev.ibp_identity_check(v, u)[2] for u in (xsq, AffineFunc(0.3, (0.7,) * n))]
    gaps.append(abs(la - ev.ibp_integral(v, v)))
    yield ("ibp-identity", max(gaps) <= 1e-5, max(gaps), 1e-5)

    # L_A(v) = n Vol
    yield ("linear-functional-of-solution", abs(la - n * vol) <= 1e-6,
           abs(la - n * vol), 1e-6)

    # stability + norm bound + certificate audit
    mesh = make_mesh(P, h)
    lam = lp_stability_estimate(P, A, mesh, refine=False).lambda_hat
    threshold = TOLERANCES["status.stable_threshold"]
    yield ("lambda-positive", lam > threshold, lam, threshold)
    if lam > 0:
        bound = solution_norm_bound(P, A, lam)
        yield ("solution-norm-bound", bnorm_solution <= bound + 1e-9,
               bnorm_solution, bound)
        cert = properness_certificate(P, A, lam, mesh, evaluator=ev)
        samples = (random_normalized_mesh_function(mesh, rng) for _ in range(audit_count))
        worst = min((ev.mabuchi(u).value
                     - (-cert.c_const + cert.epsilon_prime * ev.boundary_norm(u))
                     for u in samples), default=np.inf)
        yield ("properness-bound", worst >= -1e-9, worst, 0.0)

    # degeneracy diagnostics on the built-in sequences
    seqs, _ = scripted_sequences(P)
    segs = _default_segments(P)
    d1 = degeneracy_diagnostic(seqs["escaping-crease"], segs, ev)
    yield ("degeneracy-escaping-flagged", d1.status == "degenerating-to-affine"
           and not d1.l_a_vanishing, d1.status, "degenerating-to-affine")
    d2 = degeneracy_diagnostic(seqs["fixed-mass"], segs, ev)
    yield ("degeneracy-fixed-not-flagged", d2.status == "stable-mass"
           and len(d2.tau) > 0, d2.status, "stable-mass")
    d3 = degeneracy_diagnostic(seqs["shrinking"], segs, ev)
    yield ("degeneracy-shrinking-flagged", d3.status == "degenerating-to-zero"
           and d3.l_a_vanishing, d3.status, "degenerating-to-zero")
