"""Stability analysis: the discrete uniform-stability constant and certificates.

lambdaHat is the minimum of L_A(u) over the discrete normalized cone

    { u mesh-convex : u >= 0, u(p_o) = 0, |u|_b = 1 },

solved as a linear program whose objective and normalization row come from the
same vertex-weight assembly the functional evaluator uses.  Its convexity rows
stay sparse, three or four vertices each.  The default mode="float" takes it
in closed form on an interval: there the cone is spanned by the hinges
(x - t)_+ and (t - x)_+ at the mesh vertices on either side of p_o, so the
minimum is the best hinge (Donaldson, J. Differential Geom. 62, 2002).  On a
polygon it runs the interior-point method of `cone_lp` (Mehrotra steps on the
normal matrix of the rows), then purifies: the last iterate is projected onto
the constraints it identifies as active, which gives the optimum to rounding.
The reported `lp_iterations` count the interior-point (or simplex) steps, so
in float mode they are 0 on an interval.  mode="exact" solves the same LP
with the Fraction Bland simplex of `simplex_lp`, the oracle for small meshes.

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
the clipped polygons.  The audits that `polystab verify` runs are in `audits`.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import cone_lp
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
from .functionals import FunctionalEvaluator, as_field, mesh_linear_forms
from .mesh import Mesh, make_mesh
from .polytope import Polytope, center_of_mass
from .quadrature import gauss_rule, map_triangles, standard_scheme
from .simplex_lp import solve_lp

LAMBDA_STABLE_THRESHOLD = 1e-3
LAMBDA_ZERO_BAND = 1e-6
FD_MARGIN = 2e-2        # the certificate's finite differences stay this far inside P
SWEEP_RESOLUTION = 64   # the 1D crease grid's kinks
TOLERANCES = {
    "lp.feasibility": 1e-9,  # cone_lp.FEAS_TOL, written out so that 1D runs never load cone_lp
    "status.stable_threshold": LAMBDA_STABLE_THRESHOLD,
    "status.zero_band": LAMBDA_ZERO_BAND,
    "crease.skip_boundary_norm": 1e-9,
    "degeneracy.mass_per_length": 1e-6,
    "certificate.sup_safety": 1.05,
}


class PropernessCertificate(Record):
    """Constants realizing F_A(u) >= -C + eps' |u|_b >= -C + eps * int(u)."""

    def __init__(self, a_o_sup: float, c_o: float, c_prime: float, r_bound: float,
                 r_small: float, epsilon_prime: float, c_const: float, epsilon: float,
                 provenance: dict | None = None):
        self.a_o_sup = a_o_sup              # sampled sup |A_o| times the 1.05 safety factor
        self.c_o = c_o                      # -F_{A_o}(u_o)
        self.c_prime = c_prime              # |u|_L1 <= c_prime |u|_b on the normalized cone
        self.r_bound = r_bound              # R with L_{A_o}(u) <= R |u|_b
        self.r_small = r_small              # chosen r in (0, lambda/R)
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
        self.lambda_hat_refined, self.destabilizer = lambda_hat_refined, destabilizer
        self.crease_sweep_min, self.crease_sweep_argmin = crease_sweep_min, crease_sweep_argmin
        self.certificates, self.lp_iterations = certificates, lp_iterations
        self.tolerances = dict(TOLERANCES) if tolerances is None else tolerances


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

class StabilityLP:
    """Shared assembly for the cone LPs on one mesh.

    `rows = (idx, coef)` are the mesh's convexity rows over the free vertices.
    An entry of p_o gets coefficient 0 at a column already in its row, so each
    row spans no more columns than its hinge.  The interior weights of A and
    of the unit field (`a_weights`, `mass_weights`) are assembled when a
    problem reads them.
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
        col = idx - (idx > po)
        other = np.take_along_axis(col, np.argmax(idx != po, axis=1)[:, None], axis=1)
        self.rows = (np.where(idx == po, other, col), np.where(idx == po, 0.0, coef))
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
        if mode == "exact":
            res = solve_lp(*self._equality_form(c, b))
            x, value = [float(v) for v in res.x[:len(c)]], float(res.value)
            iterations = res.iterations
        elif mode != "float":
            raise ValueError(f"unknown LP mode {mode!r}")
        elif self.mesh.dimension == 1:
            x, value = self._best_hinge(c, b)
            iterations = 0
        else:
            res = cone_lp.solve_cone_lp(c, *self.rows, b)
            x, value, iterations = res.u, res.value, res.iterations
        values = np.zeros(self.mesh.num_vertices)
        values[self.free] = x
        u = MeshConvexFunc(self.mesh, values, p_o_index=self.p_o_index, normalized=True)
        return value, u, iterations

    def _best_hinge(self, c, b):
        """(x, value): the 1D LP's optimum, read off the hinges that span its cone.

        u >= 0 with u(p_o) = 0 makes p_o a minimum of the convex u, so u is a
        nonnegative sum of (x - t)_+ over the vertices t >= p_o and (t - x)_+
        over t <= p_o: its slopes at p_o and its slope jumps.  Scaled to
        b.r = 1, the hinges r with b.r > 0 are the vertices of the feasible
        set (the others are zero), and the least c.r among them is the
        minimum.  The ratios c.r / b.r of all hinges take O(V) running sums
        (`_hinge_sums`); only the best hinge is formed.
        """
        t = self.mesh.vertices[:, 0]  # ascending
        po = self.p_o_index
        (c_up, c_down), (b_up, b_down) = (_hinge_sums(t, np.insert(w, po, 0.0)) for w in (c, b))
        num = np.concatenate([c_up[po:], c_down[:po + 1]])
        den = np.concatenate([b_up[po:], b_down[:po + 1]])
        ratio = np.divide(num, den, out=np.full(len(den), np.inf), where=den > 0.0)
        i, n_up = int(np.argmin(ratio)), len(t) - po
        x = t[self.free]
        r = np.maximum(x - t[po + i], 0.0) if i < n_up else np.maximum(t[i - n_up] - x, 0.0)
        r = r / (r @ b)
        return r, float(r @ c)

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


def _hinge_sums(t, w):
    """(up, down): sum_j w_j (t_j - t_k)_+ and sum_j w_j (t_k - t_j)_+ for every
    vertex k of the ascending t, as running sums of each gap t_{m+1} - t_m
    times the weight on its far side from t_k."""
    gap = np.diff(t)
    up = np.cumsum((gap * np.cumsum(w[::-1])[::-1][1:])[::-1])[::-1]
    down = np.cumsum(gap * np.cumsum(w)[:-1])
    return np.append(up, 0.0), np.insert(down, 0, 0.0)


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
        clipped, _, _ = clip_halfplanes(np.broadcast_to(V, (C, m, 2)), np.full(C, m), a, -a0)
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
    h/2, normalized at its vertex nearest the coarse p_o (the same point only
    when the finer grid refines the coarse one in place, see `make_mesh`), and
    the refined value gates the "uniformly-stable" status.
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


def l1_boundary_constant(P: Polytope, p_o, mesh: Mesh, mode="float"):
    """C' with |u|_L1 <= C' |u|_b on the discrete normalized cone (an LP max)."""
    lp = StabilityLP(P, 0.0, mesh, p_o)
    value, u, _ = lp.maximize_mass(mode=mode)
    return value, u


def properness_certificate(P: Polytope, A, lam: float, mesh: Mesh, p_o=None,
                           evaluator: FunctionalEvaluator | None = None,
                           mode="float") -> PropernessCertificate:
    """Theorem-4.8-style constants from lambda and the Guillemin reference.

    A_o = S(u_o) is sampled on a graded interior grid (finite differences
    cannot reach the boundary, so queries inside FD_MARGIN are pulled back
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
        # the first approaching facet comes within FD_MARGIN
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        slope = ((pts - xc) @ P.normals.T) * P.boundary_weights
        steps = np.divide(d_c - FD_MARGIN, -slope, out=np.full(slope.shape, np.inf),
                          where=slope < 0.0)
        s = np.clip(np.min(steps, axis=1), 0.0, 1.0)[:, None]
        close = (P.boundary_distance(pts) < FD_MARGIN)[:, None]
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
            "lambda": lam, "mesh_h": mesh.h, "fd_margin": FD_MARGIN,
            "sup_samples": int(len(sample)), "volume": vol,
        })


def analyze_stability(P: Polytope, A, h: float, p_o=None, mode="float") -> StabilityReport:
    """Crease sweep plus the LP at h and h/2; the full report."""
    evaluator = FunctionalEvaluator(P, A)
    if p_o is None:
        p_o = center_of_mass(P)
    grid = default_crease_grid(P, resolution=SWEEP_RESOLUTION)
    sweep_min, sweep_arg = crease_sweep(P, A, grid=grid, p_o=p_o, evaluator=evaluator)
    mesh = make_mesh(P, h)
    report = lp_stability_estimate(P, A, mesh, p_o=p_o, mode=mode, refine=True)
    report.crease_sweep_min = sweep_min
    report.crease_sweep_argmin = sweep_arg
    if report.status == "uniformly-stable":
        report.certificates = properness_certificate(
            P, A, report.lambda_hat, mesh, p_o=p_o, evaluator=evaluator, mode=mode)
    return report
