"""Run one polystab CLI command in-process under the tracer.

Usage: python3 perfbench/traced_cli.py OUT.json -- <polystab CLI arguments>

The CLI's report goes to standard output exactly as in an untraced run; the
per-layer metrics go to OUT.json.  The exit code is the CLI's.
"""
from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import install, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py OUT.json -- <polystab arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    import polystab.cli as cli  # noqa: PLC0415  (imported after the usage check)

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        total = time.perf_counter() - start
        tracer.restore()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": layer_metrics(tracer, total), "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
