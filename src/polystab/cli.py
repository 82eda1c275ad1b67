"""Command-line front end.

Subcommands: extremal-affine, stability, solve, verify, eval.  Reports are
structured text (key-value plus tables) with the tolerance ledger and toolkit
version embedded; identical configurations and seeds produce byte-identical
output.  Exit codes: 0 success, 1 failed verify audit, 2 polytope errors,
3 LP failures, 4 incompatible 1D data.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .convex import AffineFunc, MeshConvexFunc, crease, guillemin_potential, normalize
from .errors import (
    EmptyInterior,
    IncompatibleA,
    LPInfeasible,
    LPUnbounded,
    NonIntegerNormals,
    PolystabError,
    UnboundedDomain,
)
from .fields import parse_field
from .fileio import (
    Report,
    read_pl_function,
    read_polytope,
    tolerance_section,
    write_mesh_function,
)
from .functionals import FunctionalEvaluator, extremal_affine
from .mesh import make_mesh
from .polytope import center_of_mass
from .solver import residual, solve_1d, solve_2d_descent
from .stability import (
    TOLERANCES,
    analyze_stability,
    degeneracy_diagnostic,
    l1_boundary_constant,
    lp_stability_estimate,
    properness_certificate,
    scripted_sequences,
    solution_norm_bound,
)

POLYTOPE_ERRORS = (UnboundedDomain, EmptyInterior, NonIntegerNormals,
                   FileNotFoundError, ValueError)


def _field_for(P, spec):
    if spec.strip() == "extremal":
        return extremal_affine(P)
    return parse_field(spec, P.dimension)


def _emit(report: Report, out):
    text = report.render()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _scaled_polytope(P, sigma_scale):
    if sigma_scale == 1.0:
        return P
    return replace(P, boundary_weights=P.boundary_weights * sigma_scale)


def cmd_extremal_affine(args):
    try:
        P = read_polytope(args.polytope)
        A, residuals = extremal_affine(P, degree=args.degree, return_residuals=True)
    except POLYTOPE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = Report("extremal-affine")
    rep.add("polytope", args.polytope)
    rep.add("dimension", P.dimension)
    rep.add("A.constant", A.a0)
    for i, c in enumerate(A.a):
        rep.add(f"A.x{i + 1}", c)
    rep.add("residual.max", float(np.max(residuals)))
    rep.table("residuals", ["basis", "abs_residual"],
              [["1"] + [repr(float(residuals[0]))]] +
              [[f"x{i + 1}", repr(float(residuals[i + 1]))] for i in range(P.dimension)])
    _emit(rep, args.out)
    return 0


def cmd_stability(args):
    try:
        P = read_polytope(args.polytope)
        A = _field_for(P, args.A)
    except POLYTOPE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = analyze_stability(P, A, args.h, mode=args.lp_mode)
    except (LPInfeasible, LPUnbounded) as exc:
        print(f"LP failure: {exc}", file=sys.stderr)
        return 3
    rep = Report("stability")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("h", report.mesh_parameter)
    rep.add("p_o", " ".join(repr(float(v)) for v in report.p_o))
    rep.add("status", report.status)
    rep.add("lambda_hat", report.lambda_hat)
    rep.add("lambda_hat_refined", report.lambda_hat_refined)
    rep.add("crease_sweep_min", report.crease_sweep_min)
    if report.certificates is not None:
        c = report.certificates
        rep.section("certificate")
        for key, val in (("A_o_sup", c.a_o_sup), ("C_o", c.c_o), ("C_prime", c.c_prime),
                         ("R", c.r_bound), ("r", c.r_small), ("epsilon_prime", c.epsilon_prime),
                         ("C", c.c_const), ("epsilon", c.epsilon)):
            rep.add(key, val)
    if report.destabilizer is not None and args.out:
        witness_path = args.out + ".witness"
        write_mesh_function(report.destabilizer, witness_path)
        rep.add("witness.file", witness_path)
    tolerance_section(rep, report.tolerances)
    _emit(rep, args.out)
    return 0


def cmd_solve(args):
    try:
        P = read_polytope(args.polytope)
        A = _field_for(P, args.A)
    except POLYTOPE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = Report("solve")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    if P.dimension == 1:
        try:
            u, compat = solve_1d(P, A, tol=args.tol if args.tol else 1e-8)
        except IncompatibleA as exc:
            print(f"incompatible A: {exc}", file=sys.stderr)
            return 4
        sup, l2, _ = residual(u, A, P, margin=0.05)
        rep.add("method", "1d-integration")
        rep.add("w.end_residual", compat.w_end)
        rep.add("w.slope_residual", compat.wprime_end)
        rep.add("w.min", compat.w_min)
        rep.add("residual.sup", sup)
        rep.add("residual.l2", l2)
    else:
        mesh = make_mesh(P, args.h)
        state = solve_2d_descent(P, A, mesh, tol=args.tol or 1e-6)
        rep.add("method", "2d-descent")
        rep.add("h", args.h)
        rep.add("iterations", state.iterations)
        rep.add("converged", state.converged)
        rep.add("energy.initial", state.energy_history[0])
        rep.add("energy.final", state.energy_history[-1])
        rep.add("gradient.initial", state.residual_history[0])
        rep.add("gradient.final", state.residual_history[-1])
        rep.add("convexity_margin", state.convexity_margin)
        if args.out:
            ckpt = args.out + ".checkpoint"
            write_mesh_function(MeshConvexFunc(mesh, state.full_values()), ckpt)
            rep.add("checkpoint.file", ckpt)
        hist = state.energy_history
        steps = list(range(0, len(hist), max(1, len(hist) // 20)))
        if steps[-1] != len(hist) - 1:
            steps.append(len(hist) - 1)
        rep.table("descent", ["step", "energy"], [[i, hist[i]] for i in steps])
    _emit(rep, args.out)
    return 0


def _verify_audits(P, args):
    """Yield (name, passed, measured, tolerance) audit rows."""
    rng = np.random.default_rng(args.seed)
    sigma = args.sigma_scale
    Pa = _scaled_polytope(P, sigma)
    A = extremal_affine(Pa)
    ev = FunctionalEvaluator(Pa, A)
    u_o = guillemin_potential(Pa)
    n = Pa.dimension
    vol = ev.volume()

    # integration-by-parts identity (v = u_o solves for the extremal A on fixtures)
    gaps = []
    xsq = _quadratic_func(Pa)
    for u in (xsq, AffineFunc(0.3, (0.7,) * n), u_o):
        _, _, gap = ev.ibp_identity_check(u_o, u)
        gaps.append(gap)
    yield ("ibp-identity", max(gaps) <= 1e-5, max(gaps), 1e-5)

    # L_A(u_o) = n Vol
    la = ev.linear_functional(u_o)
    yield ("linear-functional-of-solution", abs(la - n * vol) <= 1e-6,
           abs(la - n * vol), 1e-6)

    # stability + norm bound + certificate audit
    mesh = make_mesh(Pa, args.h)
    rep = lp_stability_estimate(Pa, A, mesh, refine=False)
    lam = rep.lambda_hat
    yield ("lambda-positive", lam > TOLERANCES["status.stable_threshold"], lam,
           TOLERANCES["status.stable_threshold"])
    if lam > 0:
        bound = solution_norm_bound(Pa, A, lam)
        bnorm_solution = ev.boundary_norm(u_o)
        yield ("solution-norm-bound", bnorm_solution <= bound + 1e-9,
               bnorm_solution, bound)
        cert = properness_certificate(Pa, A, lam, mesh, evaluator=ev)
        violations = 0
        worst = np.inf
        for _ in range(args.audit_count):
            u = _random_normalized_mesh_function(mesh, rng)
            val = ev.mabuchi(u).value
            slack = val - (-cert.c_const + cert.epsilon_prime * ev.boundary_norm(u))
            worst = min(worst, slack)
            if slack < -1e-9:
                violations += 1
        yield ("properness-bound", violations == 0, worst, 0.0)

    # degeneracy diagnostics on the built-in sequences
    seqs, _ks = scripted_sequences(Pa) if n == 1 else scripted_sequences_2d(Pa)
    segs = _default_segments(Pa)
    d1 = degeneracy_diagnostic(seqs["escaping-crease"], segs, ev)
    yield ("degeneracy-escaping-flagged", d1.status == "degenerating-to-affine"
           and not d1.l_a_vanishing, d1.status, "degenerating-to-affine")
    d2 = degeneracy_diagnostic(seqs["fixed-mass"], segs, ev)
    yield ("degeneracy-fixed-not-flagged", d2.status == "stable-mass"
           and len(d2.tau) > 0, d2.status, "stable-mass")
    d3 = degeneracy_diagnostic(seqs["shrinking"], segs, ev)
    yield ("degeneracy-shrinking-flagged", d3.status == "degenerating-to-zero"
           and d3.l_a_vanishing, d3.status, "degenerating-to-zero")


def _quadratic_func(P):
    from .convex import SmoothConvexFunc

    n = P.dimension
    if n == 1:
        return SmoothConvexFunc(lambda p: p[:, 0] ** 2,
                                lambda p: np.column_stack([2.0 * p[:, 0]]),
                                lambda p: np.full((p.shape[0], 1, 1), 2.0), 1, domain=P)
    return SmoothConvexFunc(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
                            lambda p: 2.0 * p,
                            lambda p: np.tile(2.0 * np.eye(2), (p.shape[0], 1, 1)),
                            2, domain=P)


def _default_segments(P):
    c = center_of_mass(P)
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        w = hi - lo
        return [(c[0] - 0.25 * w, c[0] + 0.25 * w), (c[0] - 0.1 * w, c[0] + 0.3 * w)]
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    w = hi[0] - lo[0]
    return [((c[0] - 0.2 * w, c[1]), (c[0] + 0.2 * w, c[1]))]


def scripted_sequences_2d(P, ks=(10, 100, 10_000, 1_000_000, 10_000_000)):
    """2D analogues of the built-in sequences: creases marching to a facet."""
    from .convex import PLConvexFunc

    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    width = hi[0] - lo[0]
    cx = 0.5 * (lo[0] + hi[0])
    ev = FunctionalEvaluator(P, 0.0)

    def escaping(k):
        s = k / width
        u = crease(AffineFunc(-s * (hi[0] - width / k), (s, 0.0)))
        bn = ev.boundary_norm(u)
        return PLConvexFunc(tuple(AffineFunc(p.a0 / bn, tuple(np.asarray(p.a) / bn))
                                  for p in u.pieces))

    def fixed(k):
        return PLConvexFunc((AffineFunc(cx, (-1.0, 0.0)), AffineFunc(-cx, (1.0, 0.0))))

    def shrinking(k):
        return PLConvexFunc((AffineFunc(cx / k, (-1.0 / k, 0.0)),
                             AffineFunc(-cx / k, (1.0 / k, 0.0))))

    return {
        "escaping-crease": [escaping(k) for k in ks],
        "fixed-mass": [fixed(k) for k in ks],
        "shrinking": [shrinking(k) for k in ks],
    }, list(ks)


def _random_normalized_mesh_function(mesh, rng):
    """Sample of a random strictly convex smooth function, normalized.

    Mixed second derivatives are kept nonpositive so samples stay discretely
    convex on the "/" triangulation; draws are rejected otherwise.
    """
    P = mesh.polytope
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    n = mesh.dimension
    for _ in range(100):
        z = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=n)
        if n == 1:
            q = rng.uniform(0.5, 6.0)
            vals = 0.5 * q * (mesh.vertices[:, 0] - z[0]) ** 2
        else:
            d1, d2 = rng.uniform(0.5, 6.0, size=2)
            off = -rng.uniform(0.0, 0.9) * np.sqrt(d1 * d2)
            dx = mesh.vertices - z
            vals = 0.5 * (d1 * dx[:, 0] ** 2 + 2 * off * dx[:, 0] * dx[:, 1]
                          + d2 * dx[:, 1] ** 2)
        a = rng.uniform(-2.0, 2.0, size=n)
        vals = vals + mesh.vertices @ a
        u = MeshConvexFunc(mesh, vals)
        u = normalize(u, mesh.vertices[mesh.nearest_vertex(center_of_mass(P))])
        if u.is_discretely_convex(slack=1e-10):
            return u
    raise RuntimeError("failed to draw a discretely convex sample")


def cmd_verify(args):
    try:
        P = read_polytope(args.polytope)
    except POLYTOPE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = Report("verify")
    rep.add("polytope", args.polytope)
    rep.add("h", args.h)
    rep.add("seed", args.seed)
    rep.add("sigma_scale", args.sigma_scale)
    rows = []
    all_pass = True
    for name, passed, measured, tol in _verify_audits(P, args):
        rows.append([name, "PASS" if passed else "FAIL", measured, tol])
        all_pass = all_pass and passed
    rep.table("audits", ["audit", "result", "measured", "tolerance"], rows)
    rep.add("overall", "PASS" if all_pass else "FAIL")
    tolerance_section(rep, TOLERANCES)
    _emit(rep, args.out)
    return 0 if all_pass else 1


def cmd_eval(args):
    try:
        P = read_polytope(args.polytope)
        A = _field_for(P, args.A)
    except POLYTOPE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ev = FunctionalEvaluator(P, A, degree=args.degree)
    rep = Report("eval")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("op", args.op)
    rep.add("quadrature.degree", ev.degree)
    rep.add("quadrature.graded_layers", ev.layers)

    def get_u():
        spec = args.u or "guillemin"
        if spec == "guillemin":
            return guillemin_potential(P)
        if spec.startswith("crease:"):
            ell = parse_field(spec[len("crease:"):], P.dimension)
            if not isinstance(ell, AffineFunc):
                raise ValueError("crease spec must be affine")
            return normalize(crease(ell), center_of_mass(P))
        if spec.startswith("plfile:"):
            return read_pl_function(spec[len("plfile:"):])
        raise ValueError(f"unknown u spec {spec!r}")

    try:
        if args.op == "boundary-norm":
            rep.add("value", ev.boundary_norm(get_u()))
        elif args.op == "linear-functional":
            rep.add("value", ev.linear_functional(get_u()))
        elif args.op == "mabuchi":
            m = ev.mabuchi(get_u())
            rep.add("value", m.value)
            rep.add("log_det_term", m.log_det_term)
            rep.add("linear_term", m.linear_term)
            rep.add("truncation_estimate", m.truncation_estimate)
        elif args.op == "extremal-affine":
            A2, res = extremal_affine(P, return_residuals=True)
            rep.add("A.constant", A2.a0)
            for i, c in enumerate(A2.a):
                rep.add(f"A.x{i + 1}", c)
            rep.add("residual.max", float(np.max(res)))
        elif args.op == "abreu-residual":
            u = get_u()
            sup, l2, _ = residual(u, A, P, margin=args.margin)
            rep.add("residual.sup", sup)
            rep.add("residual.l2", l2)
            rep.add("margin", args.margin)
        elif args.op == "ibp":
            u_o = guillemin_potential(P)
            lhs, rhs, gap = ev.ibp_identity_check(u_o, get_u())
            rep.add("lhs", lhs)
            rep.add("rhs", rhs)
            rep.add("gap", gap)
        elif args.op == "l1-constant":
            mesh = make_mesh(P, args.h)
            val, _ = l1_boundary_constant(P, center_of_mass(P), mesh)
            rep.add("value", val)
        else:
            raise ValueError(f"unknown op {args.op!r}")
    except PolystabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rep, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="polystab",
                                description="Stability and canonical-potential toolkit "
                                            "for convex polytopes")
    p.add_argument("--version", action="version", version=f"polystab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    options = {
        "A": dict(default="extremal", help='scalar field: "extremal", '
                  '"affine:c0,c1[,c2]", or a quadratic expression in x[,y]'),
        "h": dict(type=float, default=1 / 16, help="mesh parameter"),
        "degree": dict(type=int, default=6, help="quadrature degree"),
        "tol": dict(type=float, default=None, help="solver tolerance"),
        "seed": dict(type=int, default=20240, help="seed for randomized audits"),
    }

    def common(sp, *names):
        sp.add_argument("--polytope", required=True, help="polytope file")
        for name in names:  # only the options the command reads
            sp.add_argument(f"--{name}", **options[name])
        sp.add_argument("--out", default=None, help="write the report here")

    sp = sub.add_parser("extremal-affine", help="solve the canonical affine field")
    common(sp, "degree")
    sp.set_defaults(fn=cmd_extremal_affine)

    sp = sub.add_parser("stability", help="crease sweep plus the cone LP at h and h/2")
    common(sp, "A", "h")
    sp.add_argument("--lp-mode", choices=("float", "exact"), default="float")
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("solve", help="solve the 4th-order equation")
    common(sp, "A", "h", "tol")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="run the built-in audit suite")
    common(sp, "h", "seed")
    sp.add_argument("--sigma-scale", type=float, default=1.0,
                    help="scale boundary weights (consistency tripwire)")
    sp.add_argument("--audit-count", type=int, default=50)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eval", help="evaluate one functional")
    common(sp, "A", "h", "degree")
    sp.add_argument("--op", required=True,
                    choices=("boundary-norm", "linear-functional", "mabuchi",
                             "extremal-affine", "abreu-residual", "ibp", "l1-constant"))
    sp.add_argument("--u", default=None,
                    help='"guillemin", "crease:<affine expr>", or "plfile:<path>"')
    sp.add_argument("--margin", type=float, default=0.05)
    sp.set_defaults(fn=cmd_eval)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
