"""Solvers for the fourth-order equation sum_ij d^2 u^{ij}/dx_i dx_j = -A.

1D admits a closed integration: w = 1/u'' solves w'' = -A with w(p) = 0 and
w'(p) equal to the boundary weight at p; the remaining endpoint conditions
are an overdetermined compatibility test on A.  2D minimizes the discretized
Mabuchi energy over corrections u = u_o + f by damped Newton with an Armijo
backtracking line search, keeping every accepted iterate strictly convex on
the quadrature samples.  -log det is self-concordant, so the number of
Newton steps does not grow with the conditioning of the discrete problem.
"""
from __future__ import annotations

from math import comb

import numpy as np

from . import hessfit
from ._geom import sorted_unique
from ._records import Record
from .convex import SmoothConvexFunc, guillemin_hessian, guillemin_potential
from .errors import EmptyGrid, IncompatibleA, LineSearchStall, LostConvexity, NonpositiveW
from .functionals import FunctionalEvaluator, as_field, field_coefficients, mesh_linear_forms
from .mesh import Mesh
from .polytope import Polytope, center_of_mass
from .quadrature import (gauss_rule, map_triangle_blocks, map_triangles, mesh_graded_triangles,
                         triangle_points)

COMPAT_TOL = 1e-8
MAX_NEWTON_STEPS = 100
_PANEL_BLOCK = 256  # end points whose 1D panel rules are built at once


# ---------------------------------------------------------------------------
# 1D closed-form path
# ---------------------------------------------------------------------------

class Compatibility1D(Record):
    def __init__(self, w_end: float, wprime_end: float, w_min: float, compatible: bool):
        self.w_end = w_end              # w(q), must vanish
        self.wprime_end = wprime_end    # w'(q) + right boundary weight, must vanish
        self.w_min = w_min              # min of w over the open interval
        self.compatible = compatible


def _panel_rules(a, b):
    """(points, weights), each (len(b), q): in row i, composite 12-point Gauss
    on [a, b_i] with 14 halving panels at each end and 16 uniform ones between
    (all weights 0 when b_i = a).  The breaks are fixed fractions of [a, b_i],
    so the rules of many end points are one broadcast."""
    g = 0.25 * 2.0 ** -np.arange(14, 0, -1)
    breaks = sorted_unique(np.concatenate([[0.0], g, np.linspace(0.25, 0.75, 17),
                                           1.0 - g[::-1], [1.0]]))
    t, w = gauss_rule(12)
    b = np.asarray(b, dtype=float)[:, None]
    xs = a + (b - a) * breaks
    widths = np.diff(xs, axis=1)[:, :, None]
    pts = (xs[:, :-1, None] + widths * t).reshape(len(b), -1)
    return pts, (widths * w).reshape(len(b), -1)


def solve_1d(P: Polytope, A, p_o=None, tol=COMPAT_TOL):
    """Solve the 1D equation; returns (u, Compatibility1D).

    Integrates w'' = -A (a polynomial, else ValueError) from the left endpoint
    with w(p) = 0 and w'(p) the sigma-weight there, then checks w(q) = 0 and
    w'(q) = -(right weight).  Raises IncompatibleA when the overdetermined
    conditions fail and NonpositiveW when w is not positive inside.
    """
    if P.dimension != 1:
        raise ValueError("solve_1d needs an interval")
    p = float(P.vertices[0, 0])
    q = float(P.vertices[1, 0])
    w_left, w_right = P.boundary_weights[P.vertex_facets[:, 0]].tolist()

    coeffs = field_coefficients(A)
    if coeffs is None:
        raise ValueError("solve_1d needs a polynomial field A")
    # exact polynomial integration: w = w_left (x-p) - C(x), C'' = A, C(p) = C'(p) = 0
    base = [coeffs[0], coeffs[1], coeffs[3]]
    # rewrite A in s = x - p so the initial conditions sit at s = 0
    shifted = np.zeros(len(base))
    for k, c in enumerate(base):
        for i in range(k + 1):
            shifted[i] += c * comb(k, i) * p ** (k - i)
    B = np.polyint(shifted[::-1])  # highest power first, as np.polyval reads them
    C = np.polyint(B)

    def w_fn(x):
        s = np.asarray(x, dtype=float) - p
        return w_left * s - np.polyval(C, s)

    scale = max(1.0, w_left * (q - p))
    r_end = float(w_fn(q))
    r_slope = w_left - float(np.polyval(B, q - p)) + w_right
    compatible = abs(r_end) <= tol * scale and abs(r_slope) <= tol * scale
    xs = np.linspace(p, q, 4097)[1:-1]
    wmin = float(np.min(w_fn(xs)))
    report = Compatibility1D(r_end, r_slope, wmin, compatible)
    if not compatible:
        raise IncompatibleA(
            f"endpoint conditions fail: w(q)={r_end:.3e}, w'(q)+w_r={r_slope:.3e}",
            w_end=r_end, wprime_end=r_slope)
    if wmin <= 0.0:
        raise NonpositiveW(f"w reaches {wmin:.3e} inside the interval")

    if p_o is None:
        p_o = float(center_of_mass(P)[0])
    else:
        p_o = float(np.atleast_1d(p_o)[0])

    def integral(pts, kernel):
        """Integral of kernel(x, s) / w(s) ds from p_o to x, at every point x,
        _PANEL_BLOCK points at a time."""
        xs = np.atleast_2d(pts)[:, 0]
        out = np.empty_like(xs)
        for start in range(0, len(xs), _PANEL_BLOCK):
            x = xs[start:start + _PANEL_BLOCK]
            s, wt = _panel_rules(p_o, x)
            f = kernel(x[:, None], s) / w_fn(s)
            # one dot product per row, as np.dot takes it
            out[start:start + len(x)] = np.matmul(wt[:, None, :], f[:, :, None])[:, 0, 0]
        return out

    def u_hess(pts):
        xs = np.atleast_2d(pts)[:, 0]
        return (1.0 / w_fn(xs))[:, None, None]

    u = SmoothConvexFunc(lambda pts: integral(pts, lambda x, s: x - s),
                         lambda pts: integral(pts, lambda x, s: 1.0)[:, None],
                         u_hess, 1, domain=P, guillemin_type=True)
    return u, report


# ---------------------------------------------------------------------------
# 2D descent on the discretized energy
# ---------------------------------------------------------------------------

class SolverState(Record):
    def __init__(self, mesh: Mesh, free: np.ndarray, f: np.ndarray,
                 energy_history: list | None = None, residual_history: list | None = None,
                 convexity_margin: float = np.inf, iterations: int = 0,
                 converged: bool = False, meta: dict | None = None):
        self.mesh, self.free = mesh, free
        self.f = f  # correction at free vertices
        self.energy_history = [] if energy_history is None else energy_history
        self.residual_history = [] if residual_history is None else residual_history
        self.convexity_margin = convexity_margin
        self.iterations, self.converged = iterations, converged
        self.meta = {} if meta is None else meta

    def full_values(self):
        vals = np.zeros(self.mesh.num_vertices)
        vals[self.free] = self.f
        return vals


class DiscreteEnergy:
    """Discretized F_A over corrections to the Guillemin potential.

    The Hessian of u = u_o + f combines the analytic Guillemin Hessian with
    the quadric-fit surrogate of the piecewise-linear correction, sampled on
    a boundary-graded quadrature; the gradient and the Hessian in f follow
    analytically from the (linear) surrogate assembly.

    Only the active samples can change: those whose parent cell has a vertex
    whose quadric fit reads a free vertex.  The rule's triangles carry their
    cells, so the active cells' triangles are mapped once, in rule order, and
    only their points, weights, point operator and Guillemin Hessian
    components (hxx, hxy, hyy) are kept.  On every other sample Hess u =
    Hess u_o: those samples are streamed through map_triangles a block at a
    time, and each block adds its -w log det to a constant, checks its dets
    positive (else every value is inf) and joins its smallest det to the
    convexity margin.  npts counts every sample, and active is the (npts,)
    mask of the active ones in rule order.

    The active Hessians of the last iterate evaluated are kept, so the
    gradient and the Newton matrix at an accepted line-search trial reuse the
    work of its value: the point operator is applied once per distinct f.
    """

    def __init__(self, P: Polytope, A, mesh: Mesh, margin=None, degree=6):
        self.polytope = P
        self.mesh = mesh
        if margin is None:
            # two clamped rings: free hats then pair against the Guillemin
            # inverse Hessian only on interior cells, where the quadric-fit
            # assembly reproduces the integration-by-parts identity exactly
            margin = 2.5 * mesh.h
        self.margin = margin
        dist = P.boundary_distance(mesh.vertices)
        self.free = np.where(dist > margin)[0]
        self.u_o = guillemin_potential(P)
        # L_A(u_o) on the 40-layer graded rule, taken a few layers of one facet
        # fan at a time before any sample of the mesh-graded rule exists
        self.lin_const = FunctionalEvaluator(P, A, degree=degree).linear_functional(self.u_o)
        tris, _, cells = mesh_graded_triangles(mesh, layers=20, tangential_layers=8)
        sur = hessfit.HessianSurrogate(mesh)
        self.surrogate = sur
        act = sur.reads(self.free)[mesh.cells].any(axis=1)[cells]
        per = triangle_points(degree)
        self.npts = len(tris) * per
        self.active = np.repeat(act, per)
        pts, self.w = map_triangles(tris[act], degree)
        self.op = sur.point_operator(pts, np.repeat(cells[act], per))
        self.h_o = guillemin_hessian(P, pts)
        # det Hess u_o = hxx hyy - hxy^2 on the other samples, block by block
        logdet, low = 0.0, np.inf
        for bpts, bw in map_triangle_blocks(tris[~act], degree):
            hxx, hxy, hyy = guillemin_hessian(P, bpts)
            hxx *= hyy
            hxx -= np.square(hxy, out=hxy)
            low = min(low, float(hxx.min()))
            if low > 0.0:
                logdet += float(np.dot(bw, np.log(hxx, out=hxx)))
        self.fixed_margin = low
        self.fixed_logdet = logdet if low > 0.0 else np.nan
        b, a = mesh_linear_forms(mesh, A, degree=degree)
        self.lin_free = (b - a)[self.free]
        self._last = None  # (f, its active Hessians): see _active_hessians

    def _active_hessians(self, f):
        """(hxx, hxy, hyy, det) of u_o + f on the active samples, kept for
        the last f seen (a copy, so a caller mutating f cannot stale it)."""
        last = self._last
        if last is not None and np.array_equal(last[0], f):
            return last[1]
        self._last = None  # free the old set before the new one is made
        vals = np.zeros(self.mesh.num_vertices)
        vals[self.free] = f
        hxx, hxy, hyy = self.h_o + self.op @ vals
        out = hxx, hxy, hyy, hxx * hyy - hxy * hxy
        self._last = (np.array(f, dtype=float, copy=True), out)
        return out

    def value(self, f):
        det = self._active_hessians(f)[3]
        if self.fixed_margin <= 0.0 or np.any(det <= 0.0):
            return np.inf, 0.0
        margin = min(float(det.min(initial=np.inf)), self.fixed_margin)
        val = -(float(np.dot(self.w, np.log(det))) + self.fixed_logdet)
        return val + self.lin_const + float(self.lin_free @ f), margin

    def gradient(self, f):
        hxx, hxy, hyy, det = self._active_hessians(f)
        z = np.stack([self.w * hyy / det, self.w * (-2.0 * hxy / det), self.w * hxx / det])
        return -self.op.rmatvec(z)[self.free] + self.lin_free

    def hessian(self, f):
        """(c, c) Hessian of the energy in the free values f."""
        hxx, hxy, hyy, det = self._active_hessians(f)
        g0, g1, g2 = hyy / det, -2.0 * hxy / det, hxx / det
        r, w = 1.0 / det, self.w

        def entries():
            # w times the Hessian of -log det in (hxx, hxy, hyy), g g^T -
            # D^2 det / det, one distinct entry (r <= c) at a time
            yield w * (g0 * g0)
            yield w * (g0 * g1)
            yield w * (g0 * g2 - r)
            yield w * (g1 * g1 + 2.0 * r)
            yield w * (g1 * g2)
            yield w * (g2 * g2)

        return self.op.gram(entries(), self.free)


def solve_2d_descent(P: Polytope, A, mesh: Mesh, tol=1e-6, f0=None) -> SolverState:
    """Minimize the discretized energy by damped Newton with Armijo backtracking.

    A Newton step d = -H^{-1} g with decrement dec^2 = -g.d starts at
    t = 1/(1 + dec) while dec >= 1/2 (the self-concordant damped phase) and
    at t = 1 after that, halving on an Armijo failure.  Every accepted step
    keeps det Hess positive on the quadrature samples (infeasible trial steps
    are halved like Armijo failures).  Stops when the gradient sup-norm drops
    below tol, when the Armijo target falls below the energy's float
    resolution, or after MAX_NEWTON_STEPS accepted steps.
    """
    energy = DiscreteEnergy(P, A, mesh)
    nfree = len(energy.free)
    f = np.zeros(nfree) if f0 is None else np.asarray(f0, dtype=float).copy()
    F, cmargin = energy.value(f)
    if not np.isfinite(F):
        raise LostConvexity("initial iterate is not convex on the samples")
    state = SolverState(mesh=mesh, free=energy.free, f=f,
                        energy_history=[F], residual_history=[],
                        convexity_margin=cmargin,
                        meta={"margin": energy.margin, "tol": tol})
    state.energy = energy

    for it in range(MAX_NEWTON_STEPS):
        g = energy.gradient(f)
        gnorm = float(np.max(np.abs(g))) if nfree else 0.0
        state.residual_history.append(gnorm)
        if gnorm <= tol:
            state.converged = True
            break
        d = -np.linalg.solve(energy.hessian(f), g)
        dec2 = -float(g @ d)
        t = t0 = 1.0 / (1.0 + np.sqrt(dec2)) if dec2 >= 0.25 else 1.0
        accepted = False
        while t >= 1e-14:
            trial = f + t * d
            Ft, cm = energy.value(trial)
            if np.isfinite(Ft) and Ft <= F - 1e-4 * t * dec2 and Ft < F:
                f, F, cmargin = trial, Ft, cm
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if 1e-4 * t0 * dec2 < 8.0 * np.finfo(float).eps * abs(F):
                # the Armijo target is below float resolution of the energy:
                # numerically stationary, not a stall
                state.meta["stopped"] = "float-resolution"
                break
            raise LineSearchStall(f"step fell below 1e-14 at iteration {it}")
        state.f = f
        state.energy_history.append(F)
        state.convexity_margin = cmargin
        state.iterations = it + 1
    return state


def residual(u, A, P: Polytope, margin=0.05, samples=9, h_fd=1e-3,
             evaluator: FunctionalEvaluator | None = None):
    """(sup, weighted L2, per-sample values) of |sum (u^{ij})_{,ij} + A|.

    Samples live on a uniform interior grid at boundary distance >= margin;
    EmptyGrid when no grid point lies that far in.
    """
    if evaluator is None:
        evaluator = FunctionalEvaluator(P, A)
    Af = as_field(A, P.dimension)
    if P.dimension == 1:
        lo, hi = float(P.vertices[0, 0]), float(P.vertices[1, 0])
        pts = np.linspace(lo + margin, hi - margin, samples)[:, None]
        pts = pts if hi - lo >= 2 * margin else pts[:0]
        meas = (hi - lo - 2 * margin) / samples
    else:
        lo = P.vertices.min(axis=0)
        hi = P.vertices.max(axis=0)
        gx = np.linspace(lo[0], hi[0], samples * 2 + 1)
        gy = np.linspace(lo[1], hi[1], samples * 2 + 1)
        GX, GY = np.meshgrid(gx, gy)
        grid = np.column_stack([GX.ravel(), GY.ravel()])
        keep = P.boundary_distance(grid) >= margin
        pts = grid[keep]
        meas = (gx[1] - gx[0]) * (gy[1] - gy[0])
    if not len(pts):
        raise EmptyGrid(f"no residual sample lies at distance >= {margin!r} from the boundary")
    dev = np.abs(evaluator.abreu_operator(u, pts, h_fd=h_fd) - Af(pts))
    sup = float(np.max(dev))
    l2 = float(np.sqrt(np.sum(dev**2) * meas))
    return sup, l2, dev
