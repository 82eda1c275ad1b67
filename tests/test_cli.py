import os
import subprocess
import sys

import polystab
from polystab.cli import main

PENTAGON = """# polystab polytope
dimension: 2
name: pentagon
facet: 1.0 0.0 0.0
facet: 0.0 1.0 0.0
facet: -1.0 0.0 -3.0
facet: 0.0 -1.0 -2.0
facet: -1.0 -1.0 -4.0
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


def test_missing_polytope_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["solve", "--polytope", missing, "--h", "0.25"]) == 2
    assert "error:" in capsys.readouterr().err


def test_1d_stability_run_does_not_import_scipy(tmp_path):
    # SciPy is needed only by the 2D Hessian surrogate; a fresh interpreter
    # keeps the import cost and memory out of every other run
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    code = (
        "import sys\n"
        "from polystab.cli import main\n"
        f"assert main(['stability', '--polytope', {str(path)!r}, '--h', '0.0625']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "False"
