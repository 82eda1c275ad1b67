"""The benchmark's workloads, their reference values and the report check.

Each workload is one `polystab` CLI command on a fixed polytope file under
perfbench/inputs.  The inputs do not depend on the seed.  Reference values
were produced by the CLI itself with BLAS threads pinned to 1; the
tolerances leave room for the planned solver and quadrature changes (HiGHS
agrees with the Bland simplex to about 1e-13, and an exact S(u_o) moves the
certificate constants by about 1e-9) but not for a wrong answer.

Why these three (see METRICS.md for the per-layer predictions):

* stability-unstable-square -- the relatively-unstable branch: the dense
  Bland LP at h and h/2 and the crease sweep, no certificate and no solver.
* stability-stable-interval -- the uniformly-stable branch: the properness
  certificate with its Mabuchi and Abreu evaluations; the LPs are tiny.  It
  replaces the standard-simplex run, whose certificate alone takes about
  80 s, longer than one benchmark run may last.
* solve-pentagon -- 2D energy descent on a polygon whose mesh has cells
  clipped by the boundary: mesh-graded quadrature, Mesh.locate, quadric
  Hessian fits and Barzilai-Borwein steps; no LP and no certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

ABS_LAMBDA = 1e-9
REL_CERTIFICATE = 1e-6
REL_ENERGY = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # polystab subcommand
    polytope: str       # path relative to the checkout root
    field: str          # the --A specification
    h: str              # the --h mesh parameter, as typed
    cap_s: float        # a run that takes longer is killed and counts as failed
    reference: tuple    # (report key, check kind, expected value, tolerance)

    def cli_args(self):
        return [self.command, "--polytope", self.polytope, "--A", self.field, "--h", self.h]


def _certificate(values):
    keys = ("A_o_sup", "C_o", "C_prime", "R", "r", "epsilon_prime", "C", "epsilon")
    return tuple((k, "rel", v, REL_CERTIFICATE) for k, v in zip(keys, values))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "stability-unstable-square", "stability", "perfbench/inputs/square.txt",
            "affine:-2,12,0", "0.16666666666666666", 45.0,
            (("status", "exact", "relatively-unstable", None),
             ("lambda_hat", "abs", -0.33333333333333026, ABS_LAMBDA),
             ("lambda_hat_refined", "abs", -0.3333333333331999, ABS_LAMBDA),
             ("crease_sweep_min", "abs", -0.3086002507358009, ABS_LAMBDA))),
        Workload(
            "stability-stable-interval", "stability", "perfbench/inputs/interval.txt",
            "extremal", "0.0625", 20.0,
            (("status", "exact", "uniformly-stable", None),
             ("lambda_hat", "abs", 0.5, ABS_LAMBDA),
             ("lambda_hat_refined", "abs", 0.5, ABS_LAMBDA),
             ("crease_sweep_min", "abs", 0.5, ABS_LAMBDA))
            + _certificate((2.100000000060387, 0.9999998537143773, 0.25, 1.5250000000150967,
                            0.16393442622788532, 0.25, 2.8082886249035424, 1.0))),
        Workload(
            "solve-pentagon", "solve", "perfbench/inputs/pentagon.txt",
            "extremal", "0.2", 45.0,
            (("converged", "exact", "1", None),
             ("energy.final", "rel", -2.330817739396198, REL_ENERGY),
             ("gradient.final", "max", 1e-6, None))),
    )
}


def report_values(text):
    """First value of every `key: value` line of a report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def check_report(text, reference):
    """Problems found comparing a report with the reference; empty when it passes."""
    values = report_values(text)
    problems = []
    for key, kind, expected, tol in reference:
        if key not in values:
            problems.append(f"{key}: missing")
            continue
        got = values[key]
        if kind == "exact":
            ok = got == expected
        else:
            try:
                x = float(got)
            except ValueError:
                problems.append(f"{key}: not a number: {got!r}")
                continue
            if kind == "abs":
                ok = abs(x - expected) <= tol
            elif kind == "rel":
                ok = abs(x - expected) <= tol * abs(expected)
            else:  # "max"
                ok = x <= expected
            ok = ok and math.isfinite(x)
        if not ok:
            problems.append(f"{key}: got {got}, expected {kind} {expected!r}"
                            + (f" within {tol}" if tol else ""))
    return problems
