"""Scalar-field specifications for A.

The CLI grammar covers the affine/quadratic fields the theory emphasizes:

    "extremal"                    -- solve for the canonical affine A
    "affine:a0,a1[,a2]"           -- a0 + a1 x (+ a2 y)
    a polynomial of total degree <= 2 in x, y (or x1, x2): "48*x^2 - 48*x + 10"

Polynomials are the subset of Python expressions made of int and float
numbers, those names, parentheses, unary and binary + and -, *, division by a
nonzero constant, and powers with a non-negative integer literal exponent (at
most 1000 for a constant); every coefficient must come out finite.
`^` and `**` both mean power, and unary minus binds looser than a power, as
in Python: "2*-x^2" is -2 x^2.

Richer fields require programmatic use (pass any callable to the evaluator).
"""
from __future__ import annotations

import ast
import math
import numpy as np

from ._records import Value
from .convex import AffineFunc

_VARIABLES = {"x": (1, 0), "x1": (1, 0), "y": (0, 1), "x2": (0, 1)}
# a power of a constant is the repeated product (c ** k can differ from it in
# the last bit), so its exponent is bounded to keep that quick
MAX_CONSTANT_EXPONENT = 1000


class QuadraticPoly(Value):
    """c0 + cx x + cy y + cxx x^2 + cxy x y + cyy y^2 (1D: y-terms zero)."""

    def __init__(self, dimension: int, coeffs: tuple):  # (c0, cx, cy, cxx, cxy, cyy)
        vars(self).update(dimension=dimension, coeffs=coeffs)

    @property
    def degree(self):
        c0, cx, cy, cxx, cxy, cyy = self.coeffs
        if any(abs(v) > 0 for v in (cxx, cxy, cyy)):
            return 2
        if any(abs(v) > 0 for v in (cx, cy)):
            return 1
        return 0

    def __call__(self, pts):
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        c0, cx, cy, cxx, cxy, cyy = self.coeffs
        x = p[:, 0]
        y = p[:, 1] if self.dimension == 2 else 0.0
        return c0 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y

    def as_affine(self):
        if self.degree > 1:
            raise ValueError("field is not affine")
        c0, cx, cy = self.coeffs[:3]
        return AffineFunc(c0, (cx,) if self.dimension == 1 else (cx, cy))


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _scale(a, s):
    return {k: v * s for k, v in a.items()}


def _mul(a, b):
    out: dict = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def _polynomial(node):
    """{(i, j): c} of one node of a parsed field expression."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return {(0, 0): float(node.value)}
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return {_VARIABLES[node.id]: 1.0}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _scale(_polynomial(node.operand), -1.0 if isinstance(node.op, ast.USub) else 1.0)
    if not isinstance(node, ast.BinOp):
        raise ValueError(f"unsupported {type(node).__name__}")
    a = _polynomial(node.left)
    if isinstance(node.op, ast.Pow):
        k = node.right
        if not (isinstance(k, ast.Constant) and type(k.value) is int):
            raise ValueError("the exponent must be a non-negative integer")
        if set(a) == {(0, 0)} and k.value > MAX_CONSTANT_EXPONENT:
            raise ValueError(f"a constant's exponent must be at most {MAX_CONSTANT_EXPONENT}")
        out = {(0, 0): 1.0}
        for _ in range(k.value):
            out = _mul(out, a)
            if any(i + j > 2 for i, j in out):
                break  # parse_field refuses it by its degree
        return out
    b = _polynomial(node.right)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return _add(a, _scale(b, -1.0) if isinstance(node.op, ast.Sub) else b)
    if isinstance(node.op, ast.Mult):
        return _mul(a, b)
    if (isinstance(node.op, ast.Div) and set(b) == {(0, 0)} and b[(0, 0)] != 0.0
            and math.isfinite(b[(0, 0)])):
        return _scale(a, 1.0 / b[(0, 0)])
    raise ValueError("division only by finite nonzero constants" if isinstance(node.op, ast.Div)
                     else f"unsupported operator {type(node.op).__name__}")


def parse_field(text: str, dimension: int):
    """Parse a field specification into AffineFunc or QuadraticPoly.

    The literal "extremal" is resolved by the caller (needs the polytope).
    """
    text = text.strip()
    if text.startswith("affine:"):
        parts = [float(v) for v in text[len("affine:"):].split(",")]
        if len(parts) != dimension + 1:
            raise ValueError(f"affine spec needs {dimension + 1} coefficients")
        if not all(map(math.isfinite, parts)):
            raise ValueError(f"affine spec {text!r} has a non-finite coefficient")
        return AffineFunc(parts[0], tuple(parts[1:]))
    try:
        poly = _polynomial(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (ValueError, SyntaxError, MemoryError, RecursionError, OverflowError) as exc:
        reason = str(getattr(exc, "msg", exc)) or type(exc).__name__
        raise ValueError(f"bad field expression {text!r}: {reason}") from None
    if not all(map(math.isfinite, poly.values())):
        raise ValueError(f"bad field expression {text!r}: a coefficient is not finite")
    if any(i + j > 2 for i, j in poly):
        raise ValueError("field expressions are limited to total degree 2")
    if dimension == 1 and any(j > 0 for _, j in poly):
        raise ValueError("1D field cannot involve y")
    coeffs = (
        poly.get((0, 0), 0.0), poly.get((1, 0), 0.0), poly.get((0, 1), 0.0),
        poly.get((2, 0), 0.0), poly.get((1, 1), 0.0), poly.get((0, 2), 0.0),
    )
    q = QuadraticPoly(dimension, coeffs)
    if q.degree <= 1:
        return q.as_affine()
    return q
