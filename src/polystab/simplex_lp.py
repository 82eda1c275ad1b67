"""Exact two-phase simplex with Bland's rule: the oracle for the cone LPs.

Solves  min c.x  subject to  A x = b, x >= 0  in Fraction arithmetic with zero
tolerances; float inputs convert exactly (binary rationals).  Bland's
entering/leaving rule makes the pivot sequence, and hence the reported optimum
and optimizer, deterministic and cycle-free.  The dense tableau suits small
problems (hundreds of variables): `--lp-mode exact` and the tests that check
the interior-point solver of `cone_lp` against it, posed by
`solve_cone_lp_exact`.
"""
from __future__ import annotations

import numpy as np

from ._records import Record
from .errors import LPInfeasible, LPUnbounded


class LPResult(Record):
    def __init__(self, x: np.ndarray, value, iterations: int):
        self.x = x          # object array of Fractions
        self.value = value  # Fraction
        self.iterations = iterations


def _pivot(T, basis, r, j):
    T[r] = T[r] / T[r, j]
    col = T[:, j].copy()
    col[r] = 0
    T -= np.outer(col, T[r])
    basis[r] = j


def _bland_iterate(T, basis, ncols, max_iter):
    """Bland pivots on tableau T (last row costs, last col rhs) to optimality."""
    it = 0
    while True:
        j = next((j for j in range(ncols) if T[-1, j] < 0), None)
        if j is None:
            return it
        best = None
        for i in range(len(T) - 1):
            ci = T[i, j]
            if ci > 0:
                ratio = T[i, -1] / ci
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise LPUnbounded("no positive pivot entry in the entering column")
        _pivot(T, basis, best[1], j)
        it += 1
        if it > max_iter:
            raise RuntimeError("simplex iteration cap exceeded (cycling guard)")


def solve_lp(c, A, b, max_iter=None):
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    Raises LPInfeasible / LPUnbounded; returns an LPResult otherwise.
    """
    # imported here: float-mode runs never need it, and it costs ~5 ms to import
    from fractions import Fraction

    conv = np.vectorize(Fraction, otypes=[object])
    A, b, c = conv(np.asarray(A)), conv(np.asarray(b)), conv(np.asarray(c))
    m, n = A.shape
    if max_iter is None:
        max_iter = 200 * (m + n) + 2000

    flip = np.array([bi < 0 for bi in b], dtype=bool)
    A[flip] = -A[flip]
    b[flip] = -b[flip]

    # phase I tableau [A | I | b] with artificial basis
    T = np.full((m + 1, n + m + 1), Fraction(0), dtype=object)
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = Fraction(1)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)

    it1 = _bland_iterate(T, basis, n, max_iter)
    if T[-1, -1] < 0:
        raise LPInfeasible(f"phase-I objective {float(-T[-1, -1]):.3e} > 0")

    # drive basic artificials out; rows that cannot pivot are redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            nz = [j for j in range(n) if T[i, j] != 0]
            if nz:
                _pivot(T, basis, i, nz[0])
            else:
                keep[i] = False
    T = np.vstack([T[:m][keep], T[-1:]])
    basis = basis[keep]

    # drop artificial columns, rebuild the cost row for c
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[-1] = np.concatenate([c, [Fraction(0)]])
    for i, j in enumerate(basis):
        if c[j] != 0:
            T[-1] -= c[j] * T[i]

    it2 = _bland_iterate(T, basis, n, max_iter)

    x = np.full(n, Fraction(0), dtype=object)
    x[basis] = T[:-1, -1]
    return LPResult(x, c @ x, it1 + it2)


def solve_cone_lp_exact(c, idx, coef, b):
    """(u, value, iterations) of `cone_lp.solve_cone_lp`'s LP, u and value as
    floats: `solve_lp` on [C -I; b 0] (u, slack) = (0, 1), C the (idx, coef) rows."""
    E, U = idx.shape[0], len(c)
    A_eq = np.zeros((E + 1, U + E))
    np.add.at(A_eq, (np.repeat(np.arange(E), idx.shape[1]), idx.ravel()), coef.ravel())
    A_eq[np.arange(E), U + np.arange(E)] = -1.0
    A_eq[E, :U] = b
    res = solve_lp(np.concatenate([c, np.zeros(E)]), A_eq, np.eye(E + 1)[E])
    return np.array([float(v) for v in res.x[:U]]), float(res.value), res.iterations
