import ast
import gc
import os
import subprocess
import sys

import numpy as np
import pytest

import polystab
from polystab.cli import main
from polystab.convex import AffineFunc, crease
from polystab.errors import LPNotConverged
from polystab.fileio import read_polytope, write_pl_function
from polystab.polytope import center_of_mass

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


def run_fresh(setup, argvs, result):
    """The last line a fresh interpreter prints when it runs `setup`, then
    `polystab argv` argv by argv, then prints the expression `result`."""
    code = setup + "import sys\nfrom polystab.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in argvs) + f"print({result})\n"
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return out.splitlines()[-1]


def imports(modules, *argvs):
    """Whether a fresh interpreter imports `modules` (one name or a tuple, any of
    them) while running `polystab argv`, argv by argv."""
    names = (modules,) if isinstance(modules, str) else tuple(modules)
    return run_fresh("", argvs, f"any(m in sys.modules for m in {names!r})") == "True"


def executed_sources(*argvs):
    """The polystab source files whose module code a fresh interpreter runs while
    running `polystab argv`, argv by argv.  A lazily registered module is in
    sys.modules before its code runs, so this reads the interpreter's "exec"
    audit events instead."""
    setup = ("import os, sys\nran = set()\n"
             "sys.addaudithook(lambda event, args: event == 'exec' and ran.add("
             "args[0].co_filename))\n")
    ran = run_fresh(setup, argvs, "sorted(ran)")
    package = os.path.dirname(polystab.__file__)
    return {os.path.basename(f) for f in ast.literal_eval(ran) if os.path.dirname(f) == package}


def test_solve_runs_no_stability_code_and_stability_no_solver_code(tmp_path):
    # the modules a subcommand may not need are registered lazily, so a run
    # compiles and executes only those it uses: a 1D stability run with the
    # extremal field takes lambda from the hinges and parses no field,
    # and no float run executes the exact simplex
    pentagon, interval, square = (tmp_path / f"{n}.txt"
                                  for n in ("pentagon", "interval", "square"))
    pentagon.write_text(PENTAGON)
    interval.write_text(INTERVAL)
    square.write_text(SQUARE)
    ran = executed_sources(["solve", "--polytope", str(pentagon), "--h", "0.2"])
    assert "solver.py" in ran
    # the solver reads a field's coefficients without the field parser
    assert not ran & {"stability.py", "cone_lp.py", "simplex_lp.py", "audits.py", "fields.py"}
    ran = executed_sources(["stability", "--polytope", str(interval), "--A", "extremal",
                            "--h", "0.0625"])
    assert "stability.py" in ran
    assert not ran & {"cone_lp.py", "simplex_lp.py", "fields.py", "hessfit.py", "audits.py",
                      "solver.py"}
    ran = executed_sources(["stability", "--polytope", str(square), "--A", "affine:-2,12,0",
                            "--h", "0.25"])
    assert {"stability.py", "cone_lp.py"} <= ran
    assert not ran & {"simplex_lp.py", "audits.py", "solver.py"}
    # verify takes the Mabuchi energy of Guillemin-type functions only, so
    # the Hessian surrogate of mesh functions stays unrun
    for path in (interval, square):
        ran = executed_sources(["verify", "--polytope", str(path), "--h", "0.25"])
        assert "audits.py" in ran and "hessfit.py" not in ran


def test_1d_stability_run_does_not_import_scipy(tmp_path):
    # polystab depends on NumPy alone; a fresh interpreter shows that no
    # import pulls SciPy in and adds its start-up time and memory to a run
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert not imports("scipy", ["stability", "--polytope", str(path), "--h", "0.0625"])


@pytest.mark.parametrize("case", ["h", "facet", "piece", "interval-h"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2_naming_the_key(tmp_path, capsys, case, bad):
    # NaN passed `h <= 0` and ended in "cannot convert float NaN to integer";
    # a NaN facet offset ended in "SVD did not converge"; solve on an
    # interval, which needs no mesh, ignored h and exited 0
    pentagon, pl = tmp_path / "pentagon.txt", tmp_path / "u.pl"
    interval = tmp_path / "interval.txt"
    interval.write_text(INTERVAL)
    pentagon.write_text(PENTAGON.replace("facet: 1.0 0.0 0.0", f"facet: 1.0 0.0 {bad}")
                        if case == "facet" else PENTAGON)
    pl.write_text(f"dimension: 2\npiece: 1.0 0.0 {bad}\n")
    argv = {"h": ["solve", "--polytope", str(pentagon), f"--h={bad}"],
            "facet": ["solve", "--polytope", str(pentagon)],
            "piece": ["eval", "--polytope", str(pentagon), "--op", "boundary-norm",
                      "--u", f"plfile:{pl}"],
            "interval-h": ["solve", "--polytope", str(interval), f"--h={bad}"]}[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert (f"mesh parameter h must be finite and positive, not {float(bad)!r}" in err
            if case.endswith("h") else f"'{case}' line has a non-finite number" in err)


@pytest.mark.parametrize("case", ["facet", "piece"])
def test_empty_number_line_exits_2_naming_the_key(tmp_path, capsys, case):
    # an empty `facet:` or `piece:` line ended in an IndexError traceback
    polytope, pl = tmp_path / "polytope.txt", tmp_path / "u.pl"
    polytope.write_text("dimension: 1\nfacet:\nfacet: -1.0 -1.0\n" if case == "facet"
                        else INTERVAL)
    pl.write_text("dimension: 1\npiece:\npiece: 1.0 0.0\n")
    argv = {"facet": ["solve", "--polytope", str(polytope)],
            "piece": ["eval", "--polytope", str(polytope), "--op", "linear-functional",
                      "--u", f"plfile:{pl}"]}[case]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: '{case}' line has no numbers\n"


def test_piece_of_the_wrong_dimension_exits_2(tmp_path, capsys):
    polytope, pl = tmp_path / "square.txt", tmp_path / "u.pl"
    polytope.write_text(SQUARE)
    pl.write_text("dimension: 2\npiece: 1.0\n")
    assert main(["eval", "--polytope", str(polytope), "--op", "linear-functional",
                 "--u", f"plfile:{pl}"]) == 2
    assert "piece gradient length does not match dimension" in capsys.readouterr().err


def run_module(argv, setup=""):
    """(exit code, stdout bytes, stderr text) of a fresh `python -m polystab.cli
    argv`; with `setup`, the same entry run by `python -c` after that code."""
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "polystab.cli"] + argv
    if setup:
        cmd = [sys.executable, "-c", setup + "import runpy, sys\nsys.argv[0] = 'polystab'\n"
               "runpy.run_module('polystab.cli', run_name='__main__')\n"] + argv
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_plfile_of_another_dimension_exits_2_naming_both(tmp_path, capsys):
    # a 1D pl-function on the square ended in NumPy's "matmul: Input operand 1
    # has a mismatch in its core dimension 0"
    polytope, pl = tmp_path / "square.txt", tmp_path / "u.pl"
    polytope.write_text(SQUARE)
    pl.write_text("dimension: 1\npiece: 1.0 0.0\n")
    assert main(["eval", "--polytope", str(polytope), "--op", "linear-functional",
                 "--u", f"plfile:{pl}"]) == 2
    assert capsys.readouterr().err == ("error: the pl-function has dimension 1, "
                                       "the polytope dimension 2\n")


@pytest.mark.parametrize("command, option, value", [
    ("solve", "tol", "nan"),              # ran and printed converged: 0 on the pentagon
    ("solve", "tol", "-1"),               # exited 4, "incompatible A", on the interval
    ("solve", "tol", "0"),                # was replaced by the default
    ("solve", "tol", "inf"),
    ("verify", "audit-count", "0"),       # printed properness-bound PASS inf
    ("verify", "sigma-scale", "nan"),     # exited 3, "LP failure"
    ("verify", "sigma-scale", "0"),
    ("verify", "sigma-scale", "-1"),
    ("eval", "margin", "nan"),
    ("eval", "margin", "-0.5"),
    ("eval", "degree", "-1"),             # --degree -5 ran with quadrature.degree: 3
    ("extremal-affine", "degree", "-1"),
])
def test_bad_numeric_option_exits_2_naming_it(command, option, value, tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    extra = ["--op", "abreu-residual"] if command == "eval" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--polytope", str(path), f"--{option}={value}"] + extra)
    assert exc.value.code == 2
    assert f"error: argument --{option}: must be " in capsys.readouterr().err


@pytest.mark.parametrize("text", [INTERVAL, SQUARE], ids=["interval", "square"])
def test_margin_beyond_every_sample_exits_2(text, tmp_path, capsys):
    # the square ended in NumPy's "zero-size array to reduction operation maximum"
    path = tmp_path / "polytope.txt"
    path.write_text(text)
    assert main(["eval", "--polytope", str(path), "--op", "abreu-residual", "--margin", "5"]) == 2
    assert capsys.readouterr().err == ("error: no residual sample lies at distance >= 5.0 "
                                       "from the boundary\n")


def test_module_entry_writes_the_in_process_report(tmp_path, capsys):
    # the entry freezes the objects left after main, then lets the process
    # exit normally, so a piped stdout is flushed in full
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON)
    argv = ["solve", "--polytope", str(path), "--A", "extremal", "--h", "0.2"]
    code, out, err = run_module(argv)
    assert (code, err) == (0, "")
    assert main(argv) == 0
    assert out == capsys.readouterr().out.encode()


def test_module_entry_keeps_the_exit_codes(tmp_path):
    interval, empty, square = (tmp_path / f"{n}.txt" for n in ("interval", "empty", "square"))
    interval.write_text(INTERVAL)
    square.write_text(SQUARE)
    empty.write_text("dimension: 1\nfacet:\nfacet: -1.0 -1.0\n")
    # the square's stability LPs run the cone LP (the interval's take the hinges)
    lp_fails = ("import polystab.cone_lp\nfrom polystab.errors import LPNotConverged\n"
                "def fail(*args, **kwargs):\n    raise LPNotConverged('iteration cap reached')\n"
                "polystab.cone_lp.solve_cone_lp = fail\n")
    for argv, setup, code, err in (
            (["solve", "--polytope", str(empty)], "", 2, "error: 'facet' line has no numbers\n"),
            (["solve", "--polytope", str(tmp_path / "missing.txt")], "", 2, "error: "),
            (["stability", "--polytope", str(square), "--h", "0.25"], lp_fails, 3,
             "LP failure: iteration cap reached\n"),
            (["solve", "--polytope", str(interval), "--A", "affine:1,0"], "", 4,
             "incompatible A: ")):
        got, out, stderr = run_module(argv, setup)
        assert (got, out) == (code, b"")
        assert stderr.startswith(err)


def test_only_the_entry_freezes_objects(tmp_path, capsys):
    # an in-process main (tests, the benchmark's tracer) freezes nothing; the
    # entry of a fresh process does, just before the interpreter exits
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert gc.get_freeze_count() == 0
    assert main(["solve", "--polytope", str(path)]) == 0
    assert gc.get_freeze_count() == 0
    capsys.readouterr()
    setup = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n")
    code, out, _ = run_module(["solve", "--polytope", str(path)], setup)
    assert code == 0
    assert out.decode().splitlines()[-1] == "frozen True"


def test_in_process_main_leaves_the_collector_as_it_was(tmp_path):
    # only a CLI process's own entry turns the collector off and freezes;
    # importing the CLI and calling main must not, with the collector on or off
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    argv = ["stability", "--polytope", str(path), "--h", "0.25"]
    for setup in ("import gc\n", "import gc\ngc.disable()\n"):
        setup += "state = (gc.isenabled(), gc.get_freeze_count())\n"
        assert run_fresh(setup, [argv], "(gc.isenabled(), gc.get_freeze_count()) == state") \
            == "True"


# at the call of cli.main: (freeze count, collector on, dataclasses imported)
AT_MAIN = ("import atexit, gc, sys\n"
           "seen = []\n"
           "def at_main(frame, event, arg):\n"
           "    code = frame.f_code\n"
           "    if event == 'call' and code.co_name == 'main' and code.co_filename.endswith("
           "'cli.py'):\n"
           "        seen.append((gc.get_freeze_count(), gc.isenabled(), "
           "'dataclasses' in sys.modules))\n"
           "        sys.setprofile(None)\n"
           "sys.setprofile(at_main)\n"
           "atexit.register(lambda: print('at main', *seen))\n")


def test_module_run_freezes_the_import_time_heap_before_main(tmp_path):
    # python -m polystab.cli imports with the collector off; entry freezes
    # what the imports made and turns it on before main
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    code, out, _ = run_module(["stability", "--polytope", str(path), "--h", "0.0625"], AT_MAIN)
    assert code == 0
    frozen, enabled, dataclasses = ast.literal_eval(out.decode().splitlines()[-1][len("at main "):])
    assert frozen > 0 and enabled and not dataclasses


def test_console_script_freezes_before_main(tmp_path):
    # the console script imports polystab.cli, then calls entry()
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    src = os.path.dirname(os.path.dirname(polystab.__file__))
    code = AT_MAIN + ("sys.argv = ['polystab', 'stability', '--polytope', sys.argv[1]]\n"
                      "from polystab.cli import entry\n"
                      "sys.exit(entry())\n")
    out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True).stdout
    frozen, enabled, dataclasses = ast.literal_eval(out.splitlines()[-1][len("at main "):])
    assert frozen > 0 and enabled and not dataclasses


# command lines, their exit codes and a line of what they write
HELP_USAGE_AND_ERRORS = [
    (["--help"], 0, "usage: polystab [-h] [--version]"),
    ([], 2, "polystab: error: the following arguments are required: command"),
    (["--version"], 0, f"polystab {polystab.__version__}"),
    (["bogus"], 2, "polystab: error: argument command: invalid choice: 'bogus'"),
    (["extremal-affine", "--help"], 0, "usage: polystab extremal-affine [-h] --polytope POLYTOPE"),
    (["stability", "--help"], 0, "usage: polystab stability [-h] --polytope POLYTOPE [--A A]"),
    (["solve", "--help"], 0, "usage: polystab solve [-h] --polytope POLYTOPE [--A A] [--h H]"),
    (["verify", "--help"], 0, "usage: polystab verify [-h] --polytope POLYTOPE [--h H]"),
    (["eval", "--help"], 0, "usage: polystab eval [-h] --polytope POLYTOPE [--A A]"),
    (["stability", "--polytope", "p.txt", "--h", "abc"], 2,
     "polystab stability: error: argument --h: invalid float value: 'abc'"),
    (["verify", "--polytope", "p.txt", "--audit-count", "0"], 2,
     "polystab verify: error: argument --audit-count: must be >= 1, not '0'"),
    (["eval", "--polytope", "p.txt", "--op", "bogus"], 2,
     "polystab eval: error: argument --op: invalid choice: 'bogus'"),
    (["solve", "--polytope", "p.txt", "--degree", "6"], 2,
     "polystab: error: unrecognized arguments: --degree 6"),
    (["stability", "--h", "0.5"], 2,
     "polystab stability: error: the following arguments are required: --polytope")]


@pytest.mark.parametrize("argv, code, line", HELP_USAGE_AND_ERRORS,
                         ids=[" ".join(case[0]) or "no-arguments" for case in HELP_USAGE_AND_ERRORS])
def test_help_usage_and_error_texts(argv, code, line, capsys):
    # help and the version go to stdout with exit 0; a usage error writes the
    # usage of its (sub)command and one error line to stderr, with exit 2.
    # Whitespace is compared collapsed, as argparse wraps usage to the terminal
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert " ".join(line.split()) in " ".join((out if code == 0 else err).split())


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
    # the square's cone LPs take interior-point steps; the interval solves
    # no LP, since its lambda is read off the hinges
    steps = {}
    for name, text, h in (("square", SQUARE, "0.25"), ("interval", INTERVAL, "0.0625")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        argv = ["stability", "--polytope", str(path), "--h", h]
        reports = []
        for _ in range(2):
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        steps[name] = int(report_values(reports[0])["lp.iterations"])
    assert steps["square"] > 0
    assert steps["interval"] == 0


def test_lp_failure_exits_3(tmp_path, capsys, monkeypatch):
    import polystab.cone_lp

    def not_converged(*args, **kwargs):
        raise LPNotConverged("iteration cap reached")

    monkeypatch.setattr(polystab.cone_lp, "solve_cone_lp", not_converged)
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    assert main(["stability", "--polytope", str(path), "--h", "0.25"]) == 3
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
    assert main(["eval", "--polytope", str(path), "--op", op]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = [line.split(": ", 1) for line in lines[lines.index(f"op: {op}") + 3:] if line]
    assert results
    assert all(np.isfinite(float(value)) for _, value in results)


@pytest.mark.parametrize("text, value", [(INTERVAL, 0.25), (PENTAGON, 5 / 9)],
                         ids=["interval", "pentagon"])
def test_eval_l1_constant_is_the_ray_bound(text, value, tmp_path, capsys):
    # max_F delta_F(p_o) / (n + 1) at the center of mass, with no mesh
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert main(["eval", "--polytope", str(path), "--op", "l1-constant"]) == 0
    assert float(report_values(capsys.readouterr().out)["value"]) == pytest.approx(value,
                                                                                  abs=1e-14)


@pytest.mark.parametrize("text, argv, line", [
    (INTERVAL, ["--h", "0.0625"], "lambda_lower: 0.5"),
    (SQUARE, ["--A", "affine:-2,12,0", "--h", "0.25"], "lambda_lower: -0.75")],
    ids=["interval", "square-sign-change"])
def test_stability_report_prints_lambda_lower(text, argv, line, tmp_path, capsys):
    # where A changes sign on P the bound is that of A - min_P A, here
    # negative, and no certificate follows
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert main(["stability", "--polytope", str(path)] + argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert line in out
    assert ("[certificate]" in out) == line.endswith("0.5")


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
    # the L1 constant of [0, 1] is 1/4, which the ray bound gives exactly
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    assert main(["stability", "--polytope", str(path), "--h", "0.0625",
                 "--lp-mode", "exact"]) == 0
    assert "C_prime: 0.25" in capsys.readouterr().out.splitlines()


def test_exact_mode_gives_the_float_constants_on_the_square(tmp_path, capsys):
    # the Bland simplex runs on the one mesh at h = 1/4, 25 vertices
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    values = []
    for mode in ("float", "exact"):
        assert main(["stability", "--polytope", str(path), "--h", "0.25",
                     "--lp-mode", mode]) == 0
        values.append(report_values(capsys.readouterr().out))
    floats, exact = values
    assert exact["status"] == floats["status"] == "uniformly-stable"
    for key in ("lambda_hat", "C_prime"):
        assert float(exact[key]) == pytest.approx(float(floats[key]), rel=1e-12)


@pytest.mark.parametrize("text, argv, calls", [
    (SQUARE, ["stability", "--A", "affine:-2,12,0", "--h", "0.16666666666666666"], 1),
    (INTERVAL, ["stability", "--A", "extremal", "--h", "0.0625"], 0)],
    ids=["stability-unstable-square", "stability-stable-interval"])
def test_lp_assembles_only_the_weights_its_problems_read(text, argv, calls, tmp_path,
                                                         monkeypatch, capsys):
    # the boundary weights come from the mesh; A's interior weights are
    # assembled for the one LP at h.  The stable interval solves no LP, and
    # its certificate takes C' from the ray bound, so it assembles none
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
    # the LP and the discrete convexity test of every audit sample read the
    # rows the mesh keeps
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


def test_interval_stability_is_exact_at_every_h_and_writes_its_hinge(tmp_path, capsys):
    # A = -7 + 9x on [0, 1]: lambda = 5/6, from the hinge kinked at x = 2/3,
    # whatever h is (the mesh LP read 0.84375 at h = 1/4 and 0.833984375 at
    # h = 1/16); the witness is that hinge, a pl-function eval reads back.
    # h is still checked
    path = tmp_path / "interval.txt"
    path.write_text(INTERVAL)
    reports = []
    for h in ("0.25", "0.0625"):
        out = tmp_path / f"report-{h}.txt"
        assert main(["stability", "--polytope", str(path), "--A", "affine:-7,9", "--h", h,
                     "--out", str(out)]) == 0
        reports.append(capsys.readouterr().out)
    values = report_values(reports[0])
    for key in ("lambda_hat", "lambda_hat_refined", "crease_sweep_min", "lambda_lower"):
        assert float(values[key]) == pytest.approx(5 / 6, abs=1e-12)
    assert values["status"] == "uniformly-stable" and "[certificate]" in reports[0]
    same = [[line for line in r.splitlines() if not line.startswith(("h: ", "witness.file: "))]
            for r in reports]
    assert same[0] == same[1]
    ratio = []
    for op in ("linear-functional", "boundary-norm"):
        assert main(["eval", "--polytope", str(path), "--A", "affine:-7,9", "--op", op,
                     "--u", f"plfile:{values['witness.file']}"]) == 0
        ratio.append(float(report_values(capsys.readouterr().out)["value"]))
    assert ratio[0] / ratio[1] == pytest.approx(float(values["lambda_hat"]), abs=1e-12)
    assert main(["stability", "--polytope", str(path), "--h", "nan"]) == 2
    assert "mesh parameter h must be finite and positive, not nan" in capsys.readouterr().err


@pytest.mark.parametrize("text, h", [(PENTAGON, "0.25"), (PENTAGON, "2"), (SIMPLEX, "0.25")],
                         ids=["pentagon", "pentagon-h2", "simplex"])
def test_stability_report_normalizes_at_the_center_of_mass(text, h, tmp_path, capsys):
    # the report's p_o is the center of mass itself, bit for bit, not a mesh
    # vertex near it; at h = 2 the pentagon's uniform grid has no interior
    # vertex, and the lines through p_o give one
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert main(["stability", "--polytope", str(path), "--h", h]) == 0
    p_o = " ".join(repr(float(v)) for v in center_of_mass(read_polytope(str(path))))
    assert report_values(capsys.readouterr().out)["p_o"] == p_o
