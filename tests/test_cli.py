import os
import subprocess
import sys

import numpy as np
import pytest

import polystab
from polystab.cli import main
from polystab.convex import AffineFunc, crease
from polystab.errors import LPNotConverged
from polystab.fileio import write_pl_function

PENTAGON = """# polystab polytope
dimension: 2
name: pentagon
facet: 1.0 0.0 0.0
facet: 0.0 1.0 0.0
facet: -1.0 0.0 -3.0
facet: 0.0 -1.0 -2.0
facet: -1.0 -1.0 -4.0
"""

SQUARE = """# polystab polytope
dimension: 2
name: unit-square
facet: 1.0 0.0 0.0
facet: 0.0 1.0 0.0
facet: -1.0 0.0 -1.0
facet: 0.0 -1.0 -1.0
"""

SIMPLEX = """# polystab polytope
dimension: 2
name: standard-simplex
facet: 1.0 0.0 0.0
facet: 0.0 1.0 0.0
facet: -1.0 -1.0 -1.0
"""

INTERVAL = """# polystab polytope
dimension: 1
name: unit-interval
facet: 1.0 0.0
facet: -1.0 -1.0
"""

# [0, 1] again, with weight 1/2 at the upper endpoint
WEIGHTED_INTERVAL = """# polystab polytope
dimension: 1
name: weighted-interval
facet: 1.0 0.0
facet: -2.0 -2.0
"""


def report_values(text):
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def test_solve_report_is_byte_identical_on_rerun(tmp_path, capsys):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    argv = ["solve", "--polytope", str(path), "--A", "extremal", "--h", "0.25"]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "converged: 1" in reports[0].splitlines()


def test_solve_descent_table_ends_once_at_the_last_step(tmp_path, capsys):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    assert main(["solve", "--polytope", str(path), "--A", "extremal", "--h", "0.2"]) == 0
    report = capsys.readouterr().out
    values = dict(line.split(": ", 1) for line in report.splitlines() if ": " in line)
    rows = report.split("[table descent]\n")[1].split("\n\n")[0].splitlines()[1:]
    steps = [int(row.split()[0]) for row in rows]
    assert steps == sorted(set(steps))
    assert steps[0] == 0
    assert steps[-1] == int(values["iterations"])
    assert rows[-1].split()[1] == values["energy.final"]


def test_verify_passes_on_the_simplex(tmp_path, capsys):
    # the centroid of the standard simplex is not a vertex of its mesh
    path = tmp_path / "simplex.txt"
    path.write_text(SIMPLEX)
    assert main(["verify", "--polytope", str(path), "--h", "0.25"]) == 0
    assert "overall: PASS" in capsys.readouterr().out.splitlines()


def test_missing_polytope_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["solve", "--polytope", missing, "--h", "0.25"]) == 2
    assert "error:" in capsys.readouterr().err


def imports(modules, *argvs):
    """Whether a fresh interpreter imports `modules` (one name or a tuple, any of
    them) while running `polystab argv`, argv by argv."""
    names = (modules,) if isinstance(modules, str) else tuple(modules)
    code = "import sys\nfrom polystab.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in argvs) + (
        f"print(any(m in sys.modules for m in {names!r}))\n")
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return out.splitlines()[-1] == "True"


def test_1d_stability_run_does_not_import_scipy(tmp_path):
    # polystab depends on NumPy alone; a fresh interpreter shows that no
    # import pulls SciPy in and adds its start-up time and memory to a run
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert not imports("scipy", ["stability", "--polytope", str(path), "--h", "0.0625"])


def test_2d_solve_does_not_import_scipy(tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    assert not imports("scipy", ["solve", "--polytope", str(path), "--h", "0.25"])


def test_benchmark_runs_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.union1d asked for no index outputs import numpy.ma
    # (about 15 ms) on their first call, and numpy.polynomial's Gauss rule
    # costs its import (3-5 ms); no run should pay either
    paths = {}
    for name, text in (("interval", INTERVAL), ("square", SQUARE), ("pentagon", PENTAGON)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    assert not imports(
        ("numpy.ma", "numpy.polynomial"),
        ["stability", "--polytope", str(paths["square"]), "--A", "affine:-2,12,0",
         "--h", "0.16666666666666666"],
        ["stability", "--polytope", str(paths["interval"]), "--A", "extremal", "--h", "0.0625"],
        ["solve", "--polytope", str(paths["pentagon"]), "--A", "extremal", "--h", "0.2"],
        ["extremal-affine", "--polytope", str(paths["pentagon"])])


def test_unread_option_is_rejected(tmp_path, capsys):
    # stability reads neither the quadrature degree nor a seed or tolerance,
    # and Newton's step cap is fixed, not an option of solve
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    for command, option in (("stability", ["--degree", "6"]), ("solve", ["--max-iter", "10"])):
        with pytest.raises(SystemExit) as exc:
            main([command, "--polytope", str(path)] + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_incompatible_1d_field_exits_4(tmp_path, capsys):
    # A = 1 on [0, 1]: w = x - x^2 / 2 misses the endpoint condition, w(1) = 1/2
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["solve", "--polytope", str(path), "--A", "affine:1,0"]) == 4
    assert "incompatible A" in capsys.readouterr().err


def test_stability_report_prints_lp_iterations_identically(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    argv = ["stability", "--polytope", str(path), "--h", "0.0625"]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    values = dict(line.split(": ", 1) for line in reports[0].splitlines() if ": " in line)
    assert int(values["lp.iterations"]) > 0


def test_lp_failure_exits_3(tmp_path, capsys, monkeypatch):
    import polystab.stability

    def not_converged(*args, **kwargs):
        raise LPNotConverged("iteration cap reached")

    monkeypatch.setattr(polystab.stability, "solve_cone_lp", not_converged)
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["stability", "--polytope", str(path), "--h", "0.0625"]) == 3
    assert "LP failure" in capsys.readouterr().err


def test_extremal_affine_on_the_simplex(tmp_path, capsys):
    path = tmp_path / "simplex.txt"
    path.write_text(SIMPLEX)
    assert main(["extremal-affine", "--polytope", str(path)]) == 0
    values = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                  if ": " in line)
    assert float(values["A.constant"]) == pytest.approx(6.0, abs=1e-9)
    assert abs(float(values["A.x1"])) <= 1e-9 and abs(float(values["A.x2"])) <= 1e-9
    assert float(values["residual.max"]) <= 1e-10


@pytest.mark.parametrize("op", ["boundary-norm", "linear-functional", "mabuchi",
                                "extremal-affine", "abreu-residual", "ibp", "l1-constant"])
def test_eval_op_on_the_interval(op, tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["eval", "--polytope", str(path), "--op", op, "--h", "0.125"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = [line.split(": ", 1) for line in lines[lines.index(f"op: {op}") + 3:] if line]
    assert results
    assert all(np.isfinite(float(value)) for _, value in results)


def test_eval_unknown_u_exits_2(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["eval", "--polytope", str(path), "--op", "mabuchi", "--u", "bogus"]) == 2
    assert "error: unknown u spec 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["mabuchi", "abreu-residual", "ibp"])
@pytest.mark.parametrize("source", ["crease", "plfile"])
def test_eval_rejects_piecewise_linear_u_for_hessian_ops(op, source, tmp_path, capsys):
    # these ops read pointwise Hessians; a piecewise-linear u is bad input
    # (exit 2), not a failed audit (exit 1) or a traceback
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    u = "crease:affine:-0.5,1,0"
    if source == "plfile":
        write_pl_function(crease(AffineFunc(-0.5, (1.0, 0.0))), tmp_path / "u.pl")
        u = f"plfile:{tmp_path / 'u.pl'}"
    assert main(["eval", "--polytope", str(path), "--op", op, "--u", u]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PLConvexFunc" in err


def test_eval_extremal_affine_reads_the_degree(tmp_path, capsys):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    assert main(["extremal-affine", "--polytope", str(path), "--degree", "8"]) == 0
    expected = report_values(capsys.readouterr().out)
    assert main(["eval", "--polytope", str(path), "--op", "extremal-affine",
                 "--degree", "8"]) == 0
    values = report_values(capsys.readouterr().out)
    for key in ("A.constant", "A.x1", "A.x2", "residual.max"):
        assert values[key] == expected[key]


def test_verify_passes_on_the_interval_and_trips_on_scaled_weights(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    argv = ["verify", "--polytope", str(path), "--h", "0.125"]
    assert main(argv) == 0
    assert "overall: PASS" in capsys.readouterr().out.splitlines()
    # dsigma scaled by 2 no longer matches the extremal field's identities
    assert main(argv + ["--sigma-scale", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "overall: FAIL" in out
    assert any(line.startswith("ibp-identity  FAIL") for line in out)


def test_verify_escaping_crease_on_a_weighted_interval(tmp_path, capsys):
    # the escaping creases are divided by their boundary norm, which is not
    # their value at the upper endpoint when its weight is not 1
    path = tmp_path / "weighted.txt"
    path.write_text(WEIGHTED_INTERVAL)
    main(["verify", "--polytope", str(path), "--h", "0.125"])
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("degeneracy-escaping-flagged"))
    assert row.split() == ["degeneracy-escaping-flagged", "PASS", "degenerating-to-affine",
                           "degenerating-to-affine"]


def test_verify_passes_on_a_weighted_interval(tmp_path, capsys):
    # the audits take the solution from solve_1d, not the Guillemin potential,
    # which does not solve the extremal equation when the weights differ
    path = tmp_path / "weighted.txt"
    path.write_text(WEIGHTED_INTERVAL)
    assert main(["verify", "--polytope", str(path), "--h", "0.125"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "overall: PASS" in out
    assert any(line.startswith("ibp-identity  PASS") for line in out)


def test_exact_mode_reaches_the_certificate(tmp_path, capsys):
    # the L1 constant of [0, 1] is 1/4; the exact simplex gives it without rounding
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["stability", "--polytope", str(path), "--h", "0.0625",
                 "--lp-mode", "exact"]) == 0
    assert "C_prime: 0.25" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("text, argv, calls", [
    (SQUARE, ["stability", "--A", "affine:-2,12,0", "--h", "0.16666666666666666"], 2),
    (INTERVAL, ["stability", "--A", "extremal", "--h", "0.0625"], 3)],
    ids=["stability-unstable-square", "stability-stable-interval"])
def test_lp_assembles_only_the_weights_its_problems_read(text, argv, calls, tmp_path,
                                                         monkeypatch, capsys):
    # the boundary weights come from the mesh; A's interior weights are
    # assembled for the LPs at h and h/2, and the unit field's only for the
    # L1 constant of the certificate, which the stable interval reaches
    import polystab.functionals
    import polystab.solver
    import polystab.stability

    forms, meshes = polystab.functionals.mesh_linear_forms, []

    def counting(mesh, *args, **kwargs):
        meshes.append(mesh)
        return forms(mesh, *args, **kwargs)

    for module in (polystab.functionals, polystab.solver, polystab.stability):
        monkeypatch.setattr(module, "mesh_linear_forms", counting)
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert main([argv[0], "--polytope", str(path)] + argv[1:]) == 0
    assert len(meshes) == calls


def test_verify_builds_the_convexity_rows_once_per_mesh(tmp_path, monkeypatch, capsys):
    # the LP, the discrete convexity test of every audit sample and the L1
    # constant all read the rows the mesh keeps
    from functools import cached_property

    from polystab.mesh import Mesh

    rows, built = Mesh.__dict__["convexity_rows"].func, []

    def counting(mesh):
        built.append(mesh)
        return rows(mesh)

    prop = cached_property(counting)
    prop.__set_name__(Mesh, "convexity_rows")
    monkeypatch.setattr(Mesh, "convexity_rows", prop)
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    assert main(["verify", "--polytope", str(path), "--h", "0.25"]) == 0
    assert built and len(built) == len(set(built))
