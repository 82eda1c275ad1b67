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

`python -m polystab.cli` and the `polystab` console script both run `entry`,
which freezes the live objects (`gc.freeze()`) before and after `main`:

* Before: the imports leave about 32,000 objects that live for the whole
  run, which collections of the older generations would walk again and
  again (a benchmark run makes 1 or 2 collections instead of 35).  Run as
  `__main__`, this module keeps the collector off while its imports run;
  `entry` turns it on once the heap is frozen.
* After: finalization still flushes the streams and runs the atexit
  handlers, but the interpreter's last sweep no longer walks every object
  left.

An in-process `import polystab.cli` or `main(argv)` call changes neither the
collector's state nor its freeze count.
"""
from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # until entry() freezes what the imports below made

import argparse
import sys

import numpy as np

from . import __version__, audits, fields, solver, stability
from .convex import AffineFunc, MeshConvexFunc, crease, guillemin_potential, normalize
from .errors import IncompatibleA, LPInfeasible, LPNotConverged, LPUnbounded, PolystabError
from .fileio import (
    Report,
    read_pl_function,
    read_polytope,
    tolerance_section,
    write_mesh_function,
    write_pl_function,
)
from .functionals import GRADED_LAYERS, FunctionalEvaluator, extremal_affine
from .mesh import check_mesh_parameter, make_mesh
from .polytope import center_of_mass

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
    return P, fields.parse_field(spec, P.dimension)


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
    report = stability.analyze_stability(P, A, args.h, mode=args.lp_mode)
    rep = Report("stability")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("h", report.mesh_parameter)
    rep.add("p_o", " ".join(repr(float(v)) for v in report.p_o))
    rep.add("status", report.status)
    rep.add("lambda_hat", report.lambda_hat)
    rep.add("lambda_hat_refined", report.lambda_hat_refined)
    rep.add("crease_sweep_min", report.crease_sweep_min)
    rep.add("lambda_lower", "none" if report.lambda_lower is None else report.lambda_lower)
    # interior-point (or exact simplex) steps of the LP at h: 0 on an interval, which has none
    rep.add("lp.iterations", report.lp_iterations)
    if report.certificates is not None:
        c = report.certificates
        rep.section("certificate")
        for key, val in (("A_o_sup", c.a_o_sup), ("C_o", c.c_o), ("C_prime", c.c_prime),
                         ("R", c.r_bound), ("r", c.r_small), ("epsilon_prime", c.epsilon_prime),
                         ("C", c.c_const), ("epsilon", c.epsilon)):
            rep.add(key, val)
    if report.destabilizer is not None and args.out:
        witness_path = args.out + ".witness"  # an interval's best hinge, or the LP's minimizer
        write = write_pl_function if P.dimension == 1 else write_mesh_function
        write(report.destabilizer, witness_path)
        rep.add("witness.file", witness_path)
    tolerance_section(rep, report.tolerances)
    _emit(rep, args.out)
    return 0


def cmd_solve(args):
    P, A = _load(args)
    rep = Report("solve")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    tol = {} if args.tol is None else {"tol": args.tol}
    if P.dimension == 1:
        check_mesh_parameter(args.h)  # an interval needs no mesh, but h is still checked
        u, compat = solver.solve_1d(P, A, **tol)
        sup, l2, _ = solver.residual(u, A, P, margin=0.05)
        rep.add("method", "1d-integration")
        rep.add("w.end_residual", compat.w_end)
        rep.add("w.slope_residual", compat.wprime_end)
        rep.add("w.min", compat.w_min)
        rep.add("residual.sup", sup)
        rep.add("residual.l2", l2)
    else:
        mesh = make_mesh(P, args.h)
        state = solver.solve_2d_descent(P, A, mesh, **tol)
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
    for name, passed, measured, tol in audits.verify_audits(P, args.h, args.seed,
                                                            args.sigma_scale, args.audit_count):
        rows.append([name, "PASS" if passed else "FAIL", measured, tol])
        all_pass = all_pass and passed
    rep.table("audits", ["audit", "result", "measured", "tolerance"], rows)
    rep.add("overall", "PASS" if all_pass else "FAIL")
    tolerance_section(rep, stability.TOLERANCES)
    _emit(rep, args.out)
    return 0 if all_pass else 1


def _eval_u(P, spec):
    """The function named by `eval --u`."""
    spec = spec or "guillemin"
    if spec == "guillemin":
        return guillemin_potential(P)
    if spec.startswith("crease:"):
        ell = fields.parse_field(spec[len("crease:"):], P.dimension)
        if not isinstance(ell, AffineFunc):
            raise ValueError("crease spec must be affine")
        return normalize(crease(ell), center_of_mass(P))
    if spec.startswith("plfile:"):
        u = read_pl_function(spec[len("plfile:"):])
        if u.dimension != P.dimension:
            raise ValueError(f"the pl-function has dimension {u.dimension}, "
                             f"the polytope dimension {P.dimension}")
        return u
    raise ValueError(f"unknown u spec {spec!r}")


def cmd_eval(args):
    P, A = _load(args)
    ev = FunctionalEvaluator(P, A, degree=args.degree)
    rep = Report("eval")
    rep.add("polytope", args.polytope)
    rep.add("A", args.A)
    rep.add("op", args.op)
    rep.add("quadrature.degree", ev.degree)
    rep.add("quadrature.graded_layers", GRADED_LAYERS)
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
        sup, l2, _ = solver.residual(_eval_u(P, args.u), A, P, margin=args.margin)
        rep.add("residual.sup", sup)
        rep.add("residual.l2", l2)
        rep.add("margin", args.margin)
    elif args.op == "ibp":
        lhs, rhs, gap = ev.ibp_identity_check(guillemin_potential(P), _eval_u(P, args.u))
        rep.add("lhs", lhs)
        rep.add("rhs", rhs)
        rep.add("gap", gap)
    elif args.op == "l1-constant":  # the ray bound C' >= |u|_L1 / |u|_b at the center of mass
        rep.add("value", stability.ray_bounds(P, 1.0, center_of_mass(P))[1])
    _emit(rep, args.out)
    return 0


def _checked(kind, ok, rule):
    """argparse type: `kind(text)` when ok(value), else an error naming `rule`."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


POSITIVE = _checked(float, lambda v: np.isfinite(v) and v > 0, "finite and > 0")


def build_parser():
    """The CLI parser with its five subcommands."""
    options = {
        "A": dict(default="extremal", help='scalar field: "extremal", "affine:c0,c1[,c2]", '
                  'or a polynomial of degree <= 2 in x[,y] written as a Python '
                  'expression, where ^ and ** mean power and unary minus binds '
                  'looser than a power (-x^2 = -(x^2))'),
        "h": dict(type=float, default=1 / 16,
                  help="mesh parameter; an interval needs no mesh, so there it has no effect"),
        "degree": dict(type=_checked(int, lambda v: v >= 0, ">= 0"), default=6,
                       help="quadrature degree"),
        "tol": dict(type=POSITIVE, default=None, help="solver tolerance"),
        "seed": dict(type=int, default=20240, help="seed for randomized audits"),
    }
    # name: (help, handler, the common options it reads, its own options)
    commands = {
        "extremal-affine": ("solve the canonical affine field", cmd_extremal_affine,
                            ("degree",), {}),
        "stability": ("exact lambda on an interval; crease sweep plus the cone LP at h "
                      "on a polygon", cmd_stability, ("A", "h"), {
            "--lp-mode": dict(choices=("float", "exact"), default="float",
                              help="float: interior point with purification; "
                                   "exact: Fraction simplex, for small meshes; "
                                   "no effect on an interval, which solves no LP")}),
        "solve": ("solve the 4th-order equation", cmd_solve, ("A", "h", "tol"), {}),
        "verify": ("run the built-in audit suite", cmd_verify, ("h", "seed"), {
            "--sigma-scale": dict(type=POSITIVE, default=1.0,
                                  help="scale boundary weights (consistency tripwire)"),
            "--audit-count": dict(type=_checked(int, lambda v: v >= 1, ">= 1"), default=50)}),
        "eval": ("evaluate one functional", cmd_eval, ("A", "degree"), {
            "--op": dict(required=True,
                         choices=("boundary-norm", "linear-functional", "mabuchi",
                                  "extremal-affine", "abreu-residual", "ibp", "l1-constant"),
                         help="l1-constant: the upper bound max_F delta_F(p_o) / (n + 1) "
                              "on |u|_L1 / |u|_b, p_o the center of mass"),
            "--u": dict(default=None,
                        help='"guillemin", "crease:<affine expr>", or "plfile:<path>"'),
            "--margin": dict(type=_checked(float, lambda v: np.isfinite(v) and v >= 0,
                                           "finite and >= 0"), default=0.05)}),
    }
    p = argparse.ArgumentParser(prog="polystab", description="Stability and canonical-potential "
                                                             "toolkit for convex polytopes")
    p.add_argument("--version", action="version", version=f"polystab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, names, own) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--polytope", required=True, help="polytope file")
        for option in names:  # only the options the command reads
            sp.add_argument(f"--{option}", **options[option])
        sp.add_argument("--out", default=None, help="write the report here")
        for flag, kwargs in own.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
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


def entry():
    """Exit code of `main()` on sys.argv; the caller exits with it.  The objects
    alive before `main` are frozen, then the collector is on; the objects alive
    after it are frozen too, so the interpreter's final collection skips them."""
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
