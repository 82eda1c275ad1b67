"""Benchmark runner: time `polystab` CLI runs end to end, or trace one run per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process runs the CLI as fresh child processes, one after another
(a closed loop with one client), with OpenMP/OpenBLAS/MKL pinned to one
thread and every process pinned to one CPU.  It first times the set-up every
CLI run pays (perfbench/setup_probe.py) over several spawns, then starts CLI
runs until the next one would end past S seconds (at least one run).  Each
child's CPU time and peak resident memory come from its own rusage
(os.wait4).  Times are divided by the slowdown a speed probe saw on the same
CPU during the run (see SpeedProbe).  A run fails when it exits non-zero, is
killed at the workload's time cap, reports values outside the reference
tolerances, or writes a report that differs byte for byte from the first
report seen for the same source tree.

With --trace 1 it then runs the command once more in-process under the
tracer (perfbench/traced_cli.py) and prints the per-layer metrics instead of
the end-to-end ones.  The workload inputs are fixed; the seed is recorded
only.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

SETUP_SPAWNS = 7
SETUP_CAP_S = 30.0
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 1.0e-3  # the speed probe's duration on an idle development machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_frac", "1"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    slowdown: float = 1.0   # probe duration during the run over PROBE_REF_S


def probe():
    """Time a fixed ~1 ms mix of interpreter work and small NumPy calls."""
    start = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i % 7
    for _ in range(4):
        x, w = np.polynomial.legendre.leggauss(4)
        a, b = np.meshgrid(x, w, indexing="ij")
        float((a * b).sum())
    return time.perf_counter() - start


class SpeedProbe(threading.Thread):
    """Samples `probe` every PROBE_PERIOD_S while a child runs on the same CPU.

    The host this benchmark was built on slows a vCPU by up to 1.7x for tens
    of seconds at a time.  Dividing a child's times by the slowdown the probe
    saw on that CPU during the run removes most of it; probes run between
    runs, or on the other CPU, did not.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.samples: list = []

    def run(self):
        while True:
            self.samples.append(probe())
            if self.done.wait(PROBE_PERIOD_S):
                return

    def slowdown(self):
        self.done.set()
        self.join()
        return statistics.median(self.samples) / PROBE_REF_S


def spawn(cmd, env, cwd, cap_s, scratch):
    """Run `cmd` to completion; wall time from spawn to exit, rusage of this child only."""
    out_path = os.path.join(scratch, f"stdout-{os.getpid()}")
    err_path = os.path.join(scratch, f"stderr-{os.getpid()}")
    killed = threading.Event()
    speed = SpeedProbe()
    speed.start()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(cap_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
    finally:
        slowdown = speed.slowdown()
        for path in (out_path, err_path):
            if os.path.exists(path):
                os.remove(path)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, killed.is_set(), stdout, stderr, slowdown)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def source_digest(root):
    """Hash of every file under src/, standing in for the commit in a plain checkout."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def environment(root, digest):
    cpu_model = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(root),
        "source_sha256": digest,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def first_report(state, workload, digest, text):
    """The first report seen for this workload, its arguments and source tree."""
    key = hashlib.sha256(json.dumps([digest, workload.cli_args()]).encode()).hexdigest()
    path = os.path.join(state, f"report-{workload.name}-{key[:20]}.txt")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(text)
        os.replace(tmp, path)
    with open(path, "rb") as fh:
        return fh.read()


def judge(run, workload, reference_bytes):
    """Reasons the run failed; empty when it passed."""
    if run.timed_out:
        return [f"killed at the {workload.cap_s} s cap"]
    if run.exit_code != 0:
        tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return [f"exit code {run.exit_code}: {' '.join(tail)}"]
    problems = check_report(run.stdout.decode("utf-8", "replace"), workload.reference)
    if reference_bytes is not None and run.stdout != reference_bytes:
        problems.append("report differs from the first report of this source tree")
    return problems


def measure_setup(root, env, workload, scratch):
    cmd = [sys.executable, os.path.join("perfbench", "setup_probe.py"),
           workload.polytope, workload.field]
    expected = os.path.join(root, "src", "polystab", "__init__.py")
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        run = spawn(cmd, env, root, SETUP_CAP_S, scratch)
        if run.exit_code != 0 or run.timed_out:
            raise BenchError("set-up probe failed: "
                             + run.stderr.decode("utf-8", "replace").strip()[-500:])
        imported = run.stdout.decode().strip()
        if not os.path.samefile(imported, expected):
            raise BenchError(f"imported polystab from {imported}, not from the checkout")
        if i:  # the first spawn warms the bytecode and file caches
            samples.append(run)
    return samples


def run_window(root, env, workload, seconds, state, digest, scratch):
    cmd = [sys.executable, "-m", "polystab.cli"] + workload.cli_args()
    runs, problems = [], []
    reference = None
    start = time.perf_counter()
    while True:
        run = spawn(cmd, env, root, workload.cap_s, scratch)
        if reference is None and run.exit_code == 0 and not run.timed_out:
            reference = first_report(state, workload, digest, run.stdout)
        problems.append(judge(run, workload, reference))
        runs.append(run)
        elapsed = time.perf_counter() - start
        if elapsed + run.wall_s > seconds:
            return runs, problems, reference


def traced_run(root, env, workload, scratch):
    out_path = os.path.join(scratch, f"trace-{os.getpid()}.json")
    cmd = ([sys.executable, os.path.join("perfbench", "traced_cli.py"), out_path, "--"]
           + workload.cli_args())
    try:
        run = spawn(cmd, env, root, workload.cap_s, scratch)
        traced = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                traced = json.load(fh)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    return run, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polystab", "cli.py")):
        raise BenchError("src/polystab/cli.py not found: run from the root of a checkout")
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    state = os.path.join(root, ".bench_build", "perfbench")
    scratch = os.path.join(state, "tmp")
    os.makedirs(scratch, exist_ok=True)
    digest = source_digest(root)
    # the children, the speed probe and this process share one CPU (inherited)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    setup = measure_setup(root, env, workload, scratch)
    runs, problems, reference = run_window(root, env, workload, args.seconds, state,
                                           digest, scratch)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "client": "closed loop, 1 client", "cpu": cpu, "samples": len(runs),
        "raw_wall_s": [r.wall_s for r in runs], "raw_cpu_s": [r.cpu_s for r in runs],
        "slowdown": [r.slowdown for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "raw_setup_s": [r.wall_s for r in setup], "setup_slowdown": [r.slowdown for r in setup],
        "environment": environment(root, digest),
    }
    wall_median = statistics.median(r.wall_s / r.slowdown for r in runs)
    if args.trace:
        run, traced = traced_run(root, env, workload, scratch)
        runs.append(run)
        problems.append(judge(run, workload, reference))
        if traced is None:
            problems[-1].append("traced run wrote no per-layer metrics")
            traced = {"metrics": {}, "missing": []}
        info["traced_raw_wall_s"] = run.wall_s
        info["traced_slowdown"] = run.slowdown
        info["trace_targets_missing"] = traced["missing"]
        per_layer = dict(traced["metrics"])
        per_layer["trace.overhead_s"] = run.wall_s / run.slowdown - wall_median
        metrics = {name: {"value": float(per_layer.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": wall_median,
            "cpu_s": statistics.median(r.cpu_s / r.slowdown for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(r.wall_s / r.slowdown for r in setup),
            "ok_frac": sum(1 for p in problems if not p) / len(runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info["failures"] = [p for p in problems if p]
    failed = len(info["failures"])
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
