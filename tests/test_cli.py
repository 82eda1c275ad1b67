import os
import subprocess
import sys

import pytest

import polystab
from polystab.cli import main
from polystab.errors import LPNotConverged

PENTAGON = """# polystab polytope
dimension: 2
name: pentagon
facet: 1.0 0.0 0.0
facet: 0.0 1.0 0.0
facet: -1.0 0.0 -3.0
facet: 0.0 -1.0 -2.0
facet: -1.0 -1.0 -4.0
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


def imports_scipy(argv):
    """Whether a fresh interpreter imports SciPy while running `polystab argv`."""
    code = (
        "import sys\n"
        "from polystab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
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
    assert not imports_scipy(["stability", "--polytope", str(path), "--h", "0.0625"])


def test_2d_solve_does_not_import_scipy(tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    assert not imports_scipy(["solve", "--polytope", str(path), "--h", "0.25"])


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
