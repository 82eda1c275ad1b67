"""The set-up every CLI run pays: import polystab.cli, read the polytope, resolve A.

Usage: python3 perfbench/setup_probe.py POLYTOPE FIELD

Prints the path of the polystab package it imported, so the caller can check
that the program under test is the one in the checkout.
"""
from __future__ import annotations

import sys


def main(argv):
    polytope_path, spec = argv
    import polystab
    import polystab.cli  # noqa: F401  (its import cost is part of the set-up)
    from polystab.fields import parse_field
    from polystab.fileio import read_polytope
    from polystab.functionals import extremal_affine

    P = read_polytope(polytope_path)
    if spec == "extremal":
        extremal_affine(P)
    else:
        parse_field(spec, P.dimension)
    print(polystab.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
