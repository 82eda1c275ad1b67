"""Command-line front end.

Subcommands: extremal-affine, stability, solve, verify, eval.  Reports are
structured text (key-value plus tables) with the tolerance ledger and toolkit
version embedded; identical configurations and seeds produce byte-identical
output.  Exit codes, with the stderr prefix of the failures:

    0  success
    1  failed verify audit
    2  "error": bad input or a failure of the computation (any other
       PolystabError, FileNotFoundError or ValueError)
    3  "LP failure": LPInfeasible, LPUnbounded or LPNotConverged
    4  "incompatible A": IncompatibleA (1D data with no solution)
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .convex import AffineFunc, MeshConvexFunc, crease, guillemin_potential, normalize
from .errors import IncompatibleA, LPInfeasible, LPNotConverged, LPUnbounded, PolystabError
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
from .stability import TOLERANCES, analyze_stability, l1_boundary_constant, verify_audits

# exception types -> (exit code, stderr prefix); the first match wins
EXIT_CODES = (
    ((LPInfeasible, LPUnbounded, LPNotConverged), 3, "LP failure"),
    (IncompatibleA, 4, "incompatible A"),
    ((PolystabError, FileNotFoundError, ValueError), 2, "error"),
)


def _load(args):
    """(P, A): the polytope file and, for commands that take --A, its field."""
    P = read_polytope(args.polytope)
    spec = getattr(args, "A", None)
    if spec is None:
        return P, None
    if spec.strip() == "extremal":
        return P, extremal_affine(P)
    return P, parse_field(spec, P.dimension)


def _emit(report: Report, out):
    text = report.render()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _add_extremal_affine(rep, P, degree):
    """Write the A.* and residual.max lines; return the residuals."""
    A, residuals = extremal_affine(P, degree=degree, return_residuals=True)
    rep.add("A.constant", A.a0)
    for i, c in enumerate(A.a):
        rep.add(f"A.x{i + 1}", c)
    rep.add("residual.max", float(np.max(residuals)))
    return residuals


def cmd_extremal_affine(args):
    P, _ = _load(args)
    rep = Report("extremal-affine")
    rep.add("polytope", args.polytope)
    rep.add("dimension", P.dimension)
    residuals = _add_extremal_affine(rep, P, args.degree)
    rep.table("residuals", ["basis", "abs_residual"],
              [["1"] + [repr(float(residuals[0]))]] +
              [[f"x{i + 1}", repr(float(residuals[i + 1]))] for i in range(P.dimension)])
    _emit(rep, args.out)
    return 0


def cmd_stability(args):
    P, A = _load(args)
    report = analyze_stability(P, A, args.h, mode=args.lp_mode)
    rep = Report("stability")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("h", report.mesh_parameter)
    rep.add("p_o", " ".join(repr(float(v)) for v in report.p_o))
    rep.add("status", report.status)
    rep.add("lambda_hat", report.lambda_hat)
    rep.add("lambda_hat_refined", report.lambda_hat_refined)
    rep.add("crease_sweep_min", report.crease_sweep_min)
    rep.add("lp.iterations", report.lp_iterations)
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
    P, A = _load(args)
    rep = Report("solve")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    if P.dimension == 1:
        u, compat = solve_1d(P, A, tol=args.tol if args.tol else 1e-8)
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


def cmd_verify(args):
    P, _ = _load(args)
    rep = Report("verify")
    rep.add("polytope", args.polytope)
    rep.add("h", args.h)
    rep.add("seed", args.seed)
    rep.add("sigma_scale", args.sigma_scale)
    rows = []
    all_pass = True
    for name, passed, measured, tol in verify_audits(P, args.h, args.seed, args.sigma_scale,
                                                     args.audit_count):
        rows.append([name, "PASS" if passed else "FAIL", measured, tol])
        all_pass = all_pass and passed
    rep.table("audits", ["audit", "result", "measured", "tolerance"], rows)
    rep.add("overall", "PASS" if all_pass else "FAIL")
    tolerance_section(rep, TOLERANCES)
    _emit(rep, args.out)
    return 0 if all_pass else 1


def _eval_u(P, spec):
    """The function named by `eval --u`."""
    spec = spec or "guillemin"
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


def cmd_eval(args):
    P, A = _load(args)
    ev = FunctionalEvaluator(P, A, degree=args.degree)
    rep = Report("eval")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("op", args.op)
    rep.add("quadrature.degree", ev.degree)
    rep.add("quadrature.graded_layers", ev.layers)
    if args.op == "boundary-norm":
        rep.add("value", ev.boundary_norm(_eval_u(P, args.u)))
    elif args.op == "linear-functional":
        rep.add("value", ev.linear_functional(_eval_u(P, args.u)))
    elif args.op == "mabuchi":
        m = ev.mabuchi(_eval_u(P, args.u))
        rep.add("value", m.value)
        rep.add("log_det_term", m.log_det_term)
        rep.add("linear_term", m.linear_term)
        rep.add("truncation_estimate", m.truncation_estimate)
    elif args.op == "extremal-affine":
        _add_extremal_affine(rep, P, args.degree)
    elif args.op == "abreu-residual":
        sup, l2, _ = residual(_eval_u(P, args.u), A, P, margin=args.margin)
        rep.add("residual.sup", sup)
        rep.add("residual.l2", l2)
        rep.add("margin", args.margin)
    elif args.op == "ibp":
        lhs, rhs, gap = ev.ibp_identity_check(guillemin_potential(P), _eval_u(P, args.u))
        rep.add("lhs", lhs)
        rep.add("rhs", rhs)
        rep.add("gap", gap)
    elif args.op == "l1-constant":
        val, _ = l1_boundary_constant(P, center_of_mass(P), make_mesh(P, args.h))
        rep.add("value", val)
    _emit(rep, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="polystab",
                                description="Stability and canonical-potential toolkit "
                                            "for convex polytopes")
    p.add_argument("--version", action="version", version=f"polystab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    options = {
        "A": dict(default="extremal", help='scalar field: "extremal", "affine:c0,c1[,c2]", '
                  'or a polynomial of degree <= 2 in x[,y] written as a Python '
                  'expression, where ^ and ** mean power and unary minus binds '
                  'looser than a power (-x^2 = -(x^2))'),
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
    sp.add_argument("--lp-mode", choices=("float", "exact"), default="float",
                    help="float: interior point with purification; "
                         "exact: Fraction simplex, for small meshes")
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
    try:
        return args.fn(args)
    except Exception as exc:
        for types, code, prefix in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
