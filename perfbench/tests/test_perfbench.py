"""Tests of the benchmark itself, on the interval workload (h = 1/16, under a second).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

FIXTURE = WORKLOADS["stability-stable-interval"]


def _snapshot():
    """Every attribute of every polystab module and of the classes they define."""
    import polystab.cli  # noqa: F401  (loads every submodule the CLI uses)

    owners = [m for n, m in sys.modules.items() if n == "polystab" or n.startswith("polystab.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("polystab")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _cli(cmd):
    env = bench.child_env(str(ROOT))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120, check=False)


def test_tracer_restores_every_attribute():
    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
        assert len(tracer._patched) >= len(layers.SPANS) + len(layers.COUNTERS)
        assert _snapshot() != before
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_patches_names_imported_by_other_modules():
    import polystab.functionals
    import polystab.quadrature
    import polystab.stability

    originals = (polystab.stability.solve_lp, polystab.functionals.triangle_rule)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert polystab.stability.solve_lp is not originals[0]
        assert polystab.functionals.triangle_rule is not originals[1]
        assert polystab.quadrature.triangle_rule is not originals[1]
    finally:
        tracer.restore()
    assert (polystab.stability.solve_lp, polystab.functionals.triangle_rule) == originals


def test_self_times_subtract_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer._call
    tracer._call("outer", lambda: inner("inner", lambda: None, None, (), {}), None, (), {})
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}
    assert tracer.top_level_time() == 10.0


def test_traced_report_is_byte_identical(tmp_path):
    untraced = _cli([sys.executable, "-m", "polystab.cli"] + FIXTURE.cli_args())
    out = tmp_path / "trace.json"
    traced = _cli([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(out), "--"]
                  + FIXTURE.cli_args())
    assert untraced.returncode == traced.returncode == 0
    assert traced.stdout == untraced.stdout
    assert check_report(untraced.stdout.decode(), FIXTURE.reference) == []

    data = json.loads(out.read_text())
    assert data["missing"] == []
    m = data["metrics"]
    self_total = sum(m[name] for name in layers.TIME_METRICS)
    assert self_total + m["trace.outside_s"] == pytest.approx(m["trace.total_s"], abs=1e-9)
    assert m["stability.certificate_samples"] > 0
    assert m["simplex_lp.calls"] == 3
    assert m["fileio.report_bytes"] == len(untraced.stdout)


def test_perturbed_lambda_is_a_failed_run(tmp_path):
    state, scratch = str(tmp_path), str(tmp_path)
    env = bench.child_env(str(ROOT))
    digest = bench.source_digest(str(ROOT))
    runs, problems, _ = bench.run_window(str(ROOT), env, FIXTURE, 0.0, state, digest, scratch)
    assert len(runs) == 1 and problems == [[]]

    ref = tuple((k, kind, v + 1e-6 if k == "lambda_hat" else v, tol)
                for k, kind, v, tol in FIXTURE.reference)
    perturbed = dataclasses.replace(FIXTURE, reference=ref)
    runs, problems, _ = bench.run_window(str(ROOT), env, perturbed, 0.0, state, digest, scratch)
    assert len(problems) == 1 and any("lambda_hat" in p for p in problems[0])


def test_spawn_measures_each_child_alone(tmp_path):
    big = bench.spawn([sys.executable, "-c", "x = bytearray(80 * 2**20)"],
                      dict(os.environ), tmp_path, 30, str(tmp_path))
    small = bench.spawn([sys.executable, "-c", "pass"], dict(os.environ), tmp_path, 30,
                        str(tmp_path))
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 80 > small.peak_rss_mb
    assert small.slowdown > 0 and small.wall_s > 0


def test_changed_report_bytes_fail():
    text = _cli([sys.executable, "-m", "polystab.cli"] + FIXTURE.cli_args()).stdout
    run = bench.Run(1.0, 1.0, 1.0, 0, False, text, b"")
    assert bench.judge(run, FIXTURE, text) == []
    assert bench.judge(run, FIXTURE, text + b"\n") != []
    assert bench.judge(dataclasses.replace(run, timed_out=True), FIXTURE, text) != []
    assert bench.judge(dataclasses.replace(run, exit_code=3), FIXTURE, text) != []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", FIXTURE.name,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
    assert os.path.isdir(ROOT / spec["paths"][0])
