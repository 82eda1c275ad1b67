"""Calabi's extremal potential on the trapezoid {x, y >= 0, a <= x + y <= b}.

The trapezoid is CP^2 blown up at a point, and Calabi's U(2)-invariant
extremal metrics give an exact 2D solution on a polygon that is not a
rectangle (Calabi, "Extremal Kahler metrics", Ann. Math. Studies 102, 1982;
Abreu, Int. J. Math. 9, 1998).  Take u = x log x + y log y + phi(t), t = x + y,
and Q(t) = t^3 phi'' / (1 + t phi'').  Then S(u) = Q''(t) / t, so A = alpha +
beta t exactly when Q = beta t^4 / 12 + alpha t^3 / 6 + c1 t + c0.  u - u_o is
smooth on the closed trapezoid exactly when Q(a) = a^2, Q'(a) = a, Q(b) = b^2
and Q'(b) = 3b, and u is convex where Q < t^2.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from polystab.convex import SmoothConvexFunc, guillemin_potential
from polystab.functionals import FunctionalEvaluator, extremal_affine
from polystab.polytope import build_polytope
from polystab.quadrature import gauss_rule


def _xlogx(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def calabi_trapezoid(a, b, npts=160):
    """(P, (alpha, beta), u, F): the trapezoid, its extremal field alpha + beta
    (x + y), Calabi's potential u (value and Hessian) and F_A(u).

    t^2 - Q = D R with D = (t - a)(b - t) and R quadratic, and phi'' = Q / (t D R)
    = 1/(t - a) + 1/(b - t) + M / (t R) with M quadratic.  So phi = (t - a)
    log(t - a) + (b - t) log(b - t) + psi, psi(t) = int_a^t (t - s) M/(s R) ds,
    takes a 40-point Gauss rule.  With x = t s, y = t (1 - s), F_A(u) is a sum
    of integrals over t; they take an `npts`-point Gauss rule in r, t = a +
    (b - a) w(r) with w the quintic smoothstep, which tames their logarithms at
    t = a and b (the error falls like npts^-6, to about 1e-11 at 160 points).
    """
    P = build_polytope([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((1.0, 1.0), a),
                        ((-1.0, -1.0), -b)])

    # with Q = B + c1 t + c0, B = beta t^4/12 + alpha t^3/6, the conditions are
    # B'(b) - B'(a) = 3b - a and B(b) - B(a) - B'(a)(b - a) = b(b - a); they
    # are solved in rationals, since a thin trapezoid far out is ill-conditioned
    fa, fb = Fraction(a), Fraction(b)
    d = fb - fa
    p, q = (fb**3 - fa**3) / 3, (fb**2 - fa**2) / 2
    r, s = (fb**4 - fa**4) / 12 - fa**3 * d / 3, (fb**3 - fa**3) / 6 - fa**2 * d / 2
    det = p * s - q * r
    beta = ((3 * fb - fa) * s - q * fb * d) / det
    alpha = (p * fb * d - r * (3 * fb - fa)) / det
    c1 = fa - beta * fa**3 / 3 - alpha * fa**2 / 2
    c0 = fa**2 - beta * fa**4 / 12 - alpha * fa**3 / 6 - c1 * fa
    Q = Polynomial([float(c) for c in (c0, c1, 0, alpha / 6, beta / 12)])
    alpha, beta = float(alpha), float(beta)
    D = Polynomial([-a * b, a + b, -1.0])
    R = (Polynomial([0.0, 0.0, 1.0]) - Q) // D
    M = (Q - (b - a) * Polynomial([0.0, 1.0]) * R) // D
    g, w = gauss_rule(40)

    def phi(t):
        s = a + np.maximum(t[:, None] - a, 0.0) * g
        psi = ((t[:, None] - s) * M(s) / (s * R(s))) @ w * np.maximum(t - a, 0.0)
        return _xlogx(t - a) + _xlogx(b - t) + psi

    def hess(pts):
        x, y = pts[:, 0], pts[:, 1]
        t = x + y
        f = Q(t) / (t * D(t) * R(t))
        return np.stack([np.stack([1.0 / x + f, f], -1), np.stack([f, 1.0 / y + f], -1)], 1)

    u = SmoothConvexFunc(lambda p: _xlogx(p[:, 0]) + _xlogx(p[:, 1]) + phi(p[:, 0] + p[:, 1]),
                         None, hess, 2, domain=P, guillemin_type=True)

    r, v = gauss_rule(npts)
    smooth = r**3 * (10.0 - 15.0 * r + 6.0 * r * r)  # t - a over b - a; b - t is its mirror
    t = a + (b - a) * smooth
    dt = (b - a) * 30.0 * r**2 * (1.0 - r) ** 2 * v
    ph = phi(t)
    log_gap = np.log((b - a) * smooth) + np.log((b - a) * smooth[::-1]) + np.log(R(t))
    log_det = t * (2.0 - log_gap)                         # int of log det Hess u over s
    boundary = 2.0 * (_xlogx(t) + ph)                     # the facets x = 0 and y = 0
    au = (alpha + beta * t) * t * (_xlogx(t) - t / 2 + ph)
    ends = sum(c * (c * np.log(c) - c / 2 + phi(np.array([c]))[0]) for c in (a, b))
    F = float((boundary - log_det - au) @ dt) + ends
    return P, (alpha, beta), u, F


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.05, 5.0), width=st.floats(0.05, 5.0))
def test_extremal_affine_is_calabis_field(a, width):
    # compared as fields on P: on a thin trapezoid far out the coefficients
    # alone are ill-conditioned (a = 4, width 1/16 moves alpha by 1.8e-10
    # while the fields agree to 4e-14)
    P, (alpha, beta), _, _ = calabi_trapezoid(a, a + width)
    A = extremal_affine(P)
    V = P.vertices
    exact = alpha + beta * V.sum(axis=1)
    assert np.max(np.abs(A.a0 + V @ np.array(A.a) - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert abs(A.a[0] - A.a[1]) <= 1e-12 * abs(beta)


def test_calabi_field_on_the_unit_trapezoid():
    P, (alpha, beta), _, _ = calabi_trapezoid(1.0, 2.0)
    assert (alpha, beta) == (pytest.approx(6 / 13, abs=1e-15), pytest.approx(24 / 13, abs=1e-15))
    A = extremal_affine(P)
    assert np.max(np.abs(np.array([A.a0, *A.a]) - [alpha, beta, beta])) <= 1e-12


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 3.0), (0.5, 3.0)])
def test_abreu_operator_of_calabis_potential_is_the_field(a, b):
    # the central differences' error is O(h_fd^2): it falls by about 4 when
    # the step is halved, and at h_fd = 1e-3 it is below 1e-4
    P, (alpha, beta), u, _ = calabi_trapezoid(a, b)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, b, size=(2000, 2))
    pts = pts[P.boundary_distance(pts) >= 0.05][:200]
    ev = FunctionalEvaluator(P, extremal_affine(P))
    errors = [np.max(np.abs(ev.abreu_operator(u, pts, h_fd=h) - (alpha + beta * pts.sum(1))))
              for h in (2e-3, 1e-3)]
    assert errors[1] <= 1e-4
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 3.0), (0.5, 3.0)])
def test_calabis_potential_minimizes_the_mabuchi_energy(a, b):
    # the evaluator's graded rule gives the oracle's F_A(u) within the
    # truncation it reports, and F_A(u) lies below F_A(u_o)
    P, _, u, F = calabi_trapezoid(a, b)
    assert F == pytest.approx(calabi_trapezoid(a, b, npts=320)[3], abs=1e-10)
    ev = FunctionalEvaluator(P, extremal_affine(P))
    m = ev.mabuchi(u)
    assert abs(m.value - F) <= m.truncation_estimate
    assert F < ev.mabuchi(guillemin_potential(P)).value
