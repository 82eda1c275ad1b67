"""Audits of the chain from uniform stability to properness.

`verify_audits` runs the checks `polystab verify` reports: the
integration-by-parts identity and L_A(v) = n Vol for the solution v, a
positive lambda-hat, and, from the lower bound on lambda and the certificate
of `stability.analyze_stability`, the norm bound lambda^{-1} n Vol on |v|_b
and the properness bound on random Guillemin-type functions; and the
degeneracy diagnostics on the built-in sequences.
"""
from __future__ import annotations

import numpy as np

from . import solver
from ._records import Record
from .convex import (
    AffineFunc,
    PLConvexFunc,
    SmoothConvexFunc,
    crease,
    guillemin_potential,
    normalize,
    segment_ma_measure,
)
from .errors import NonpositiveLambda
from .functionals import FunctionalEvaluator, extremal_affine
from .polytope import Polytope, center_of_mass
from .stability import TOLERANCES, analyze_stability


class DegeneracyReport(Record):
    def __init__(self, labels: list, boundary_norms: np.ndarray, linear_values: np.ndarray,
                 masses: np.ndarray, segments: list, status: str, degenerating_to_affine: bool,
                 l_a_vanishing: bool, tau: dict):
        self.labels, self.boundary_norms, self.linear_values = labels, boundary_norms, linear_values
        self.masses = masses  # (steps, segments)
        self.segments, self.status = segments, status
        self.degenerating_to_affine, self.l_a_vanishing = degenerating_to_affine, l_a_vanishing
        self.tau = tau        # segment index -> (persistent mass floor, tau)


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


def solution_norm_bound(P: Polytope, lam: float) -> float:
    """lambda^{-1} n Vol: bound on |v|_b for any solution v, lambda the constant of its A."""
    if lam <= 0:
        raise NonpositiveLambda("norm bound needs lambda > 0")
    return P.dimension * float(P.moments[0, 0]) / lam


def _random_spd(rng, n):
    """Random positive definite (n, n) D: diagonal in [0.5, 6], |D_01| < 0.9 sqrt(D_00 D_11)."""
    D = np.diag(rng.uniform(0.5, 6.0, size=n))
    if n == 2:
        D[0, 1] = D[1, 0] = rng.uniform(-0.9, 0.9) * np.sqrt(D[0, 0] * D[1, 1])
    return D


def _plus_quadratic(u: SmoothConvexFunc, p_o, D) -> SmoothConvexFunc:
    """u + (x - p_o)^T D (x - p_o) / 2, Guillemin-type when u is."""
    return SmoothConvexFunc(lambda p: u(p) + 0.5 * np.sum(((p - p_o) @ D) * (p - p_o), axis=1),
                            lambda p: u.grad(p) + (p - p_o) @ D, lambda p: u.hess(p) + D,
                            u.dimension, domain=u.domain, guillemin_type=u.guillemin_type)


def verify_audits(P: Polytope, h: float, seed: int, sigma_scale=1.0, audit_count=50):
    """Audit the chain from uniform stability to properness on P.

    A is the extremal field of P and v the solution for it: `solve_1d`'s in
    1D, and in 2D the Guillemin potential u_o, which solves only where it is
    extremal (the square, the simplex).  The audits evaluate on P with its
    boundary weights scaled by `sigma_scale`, while A and v stay those of P
    as given; a scale other than 1 breaks the identities, so the suite must
    fail (a consistency tripwire).  Yields (name, passed, measured,
    tolerance) rows.  lambda-hat, lambda_lower and the certificate are those
    of `analyze_stability` at the center of mass p_o: on an interval lambda
    is exact and h is only checked.  The norm bound and the properness bound
    F_A(u) >= -C + eps' |u|_b, run when there is a certificate, check
    Guillemin-type u = normalize(u_o + q, p_o), q(x) = (x - p_o)^T D (x -
    p_o) / 2 for random positive definite D.
    """
    rng = np.random.default_rng(seed)
    A = extremal_affine(P)
    v = solver.solve_1d(P, A)[0] if P.dimension == 1 else guillemin_potential(P)
    if sigma_scale != 1.0:
        P = Polytope(P.dimension, P.normals, P.offsets, P.vertices,
                     P.boundary_weights * sigma_scale, P.facet_vertices, P.name, P._scale)
    ev = FunctionalEvaluator(P, A)
    n = P.dimension
    vol = float(P.moments[0, 0])

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
    lp = analyze_stability(P, A, h)
    threshold = TOLERANCES["status.stable_threshold"]
    yield ("lambda-positive", lp.lambda_hat > threshold, lp.lambda_hat, threshold)
    cert = lp.certificates
    if cert is not None:
        bound = solution_norm_bound(P, lp.lambda_lower)
        yield ("solution-norm-bound", bnorm_solution <= bound + 1e-9,
               bnorm_solution, bound)
        u_o = guillemin_potential(P)
        samples = (normalize(_plus_quadratic(u_o, lp.p_o, _random_spd(rng, n)), lp.p_o)
                   for _ in range(audit_count))
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
