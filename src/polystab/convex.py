"""Convex function classes and the operations the stability theory needs.

Four representations:

* AffineFunc      -- exact affine functions (normalizations quotient these out);
* PLConvexFunc    -- max of finitely many affine pieces;
* SmoothConvexFunc-- value/gradient/Hessian evaluators on the interior, with a
  flag for Guillemin-type boundary behaviour (u - u_o smooth up to the closure);
* MeshConvexFunc  -- per-vertex values of a piecewise-linear interpolant on a
  mesh, the discrete surrogate for the limit classes.  Boundary traces of the
  surrogate are always the continuous extension; boundary discontinuities of
  the limit class are not representable.
"""
from __future__ import annotations

import numpy as np

from ._records import Value
from .errors import EvaluationOutsideDomain, SegmentTouchesBoundary
from .mesh import Mesh
from .polytope import Polytope, center_of_mass


def _pts(x, n):
    """Normalize point input to (m, n); also report whether it was a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, n), True
    return arr, False


def _unwrap(vals, single):
    return float(vals[0]) if single else vals


class AffineFunc(Value):
    """a0 + a . x"""

    def __init__(self, a0: float, a: tuple):
        vars(self).update(a0=a0, a=a)

    def __call__(self, x):
        a = np.asarray(self.a, dtype=float)
        pts, single = _pts(x, len(self.a))
        return _unwrap(self.a0 + pts @ a, single)

    def gradient(self):
        return np.asarray(self.a, dtype=float)

    @staticmethod
    def constant(c, n):
        return AffineFunc(float(c), (0.0,) * n)


class PLConvexFunc(Value):
    """max over affine pieces; convex by construction."""

    def __init__(self, pieces: tuple):  # of AffineFunc
        vars(self).update(pieces=pieces)

    @property
    def dimension(self):
        return len(self.pieces[0].a)

    def _tableau(self):
        A = np.array([p.a for p in self.pieces], dtype=float)
        b = np.array([p.a0 for p in self.pieces], dtype=float)
        return A, b

    def __call__(self, x):
        A, b = self._tableau()
        pts, single = _pts(x, self.dimension)
        return _unwrap(np.max(pts @ A.T + b, axis=1), single)

    def active_gradients(self, x, tol=1e-12):
        """Gradients of the pieces attaining the max at x (within tol*scale)."""
        A, b = self._tableau()
        p = np.asarray(x, dtype=float)
        vals = A @ p + b
        top = vals.max()
        scale = max(1.0, abs(top))
        return A[vals >= top - tol * scale]

    def shift(self, ell: AffineFunc):
        """Pointwise u - ell, still piecewise linear."""
        g = ell.gradient()
        return PLConvexFunc(tuple(
            AffineFunc(p.a0 - ell.a0, tuple(np.asarray(p.a) - g)) for p in self.pieces
        ))

    def kink_lines(self):
        """(eta, c) pairs of the pairwise piece-equality lines (for exact quadrature)."""
        A, b = self._tableau()
        out = []
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                eta = A[i] - A[j]
                if np.linalg.norm(eta) > 1e-14:
                    out.append((tuple(eta), b[j] - b[i]))
        return out


class SmoothConvexFunc:
    """Convex function given by value/gradient/Hessian evaluators.

    `guillemin_type` marks functions whose difference from the Guillemin
    potential is smooth up to the boundary; quadrature of log det Hess then
    uses boundary-graded rules.
    """

    def __init__(self, value, grad, hess, dimension, domain=None,
                 guillemin_type=False):
        self._value = value
        self._grad = grad
        self._hess = hess
        self.dimension = dimension
        self.domain = domain
        self.guillemin_type = guillemin_type

    def __call__(self, x):
        pts, single = _pts(x, self.dimension)
        return _unwrap(np.asarray(self._value(pts), dtype=float), single)

    def grad(self, x):
        pts, single = _pts(x, self.dimension)
        g = np.asarray(self._grad(pts), dtype=float)
        return g[0] if single else g

    def hess(self, x):
        pts, single = _pts(x, self.dimension)
        H = np.asarray(self._hess(pts), dtype=float)
        return H[0] if single else H

    def shift(self, ell: AffineFunc):
        g = ell.gradient()
        return SmoothConvexFunc(
            value=lambda p: self._value(p) - (ell.a0 + p @ g),
            grad=lambda p: self._grad(p) - g[None, :],
            hess=self._hess,
            dimension=self.dimension,
            domain=self.domain,
            guillemin_type=self.guillemin_type,
        )


class MeshConvexFunc:
    """Piecewise-linear function from per-vertex values on a mesh."""

    def __init__(self, mesh: Mesh, values, p_o_index=None, normalized=False):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.num_vertices,):
            raise ValueError("one value per mesh vertex required")
        self.p_o_index = p_o_index
        self.normalized = normalized

    @property
    def dimension(self):
        return self.mesh.dimension

    @property
    def domain(self):
        return self.mesh.polytope

    def __call__(self, x):
        pts, single = _pts(x, self.dimension)
        ids, bary = self.mesh.locate(pts)
        if np.any(ids < 0):
            bad = pts[ids < 0][0]
            raise EvaluationOutsideDomain(f"point {bad} is outside the mesh")
        vals = np.sum(self.values[self.mesh.cells[ids]] * bary, axis=1)
        return _unwrap(vals, single)

    def cell_gradients(self):
        """(M, n) gradient of the affine interpolant per cell."""
        m = self.mesh
        v = m.vertices[m.cells]
        u = self.values[m.cells]
        if self.dimension == 1:
            return ((u[:, 1] - u[:, 0]) / (v[:, 1, 0] - v[:, 0, 0]))[:, None]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        du1 = u[:, 1] - u[:, 0]
        du2 = u[:, 2] - u[:, 0]
        gx = (du1 * e2[:, 1] - du2 * e1[:, 1]) / det
        gy = (-du1 * e2[:, 0] + du2 * e1[:, 0]) / det
        return np.column_stack([gx, gy])

    def convexity_margins(self):
        """Per-hinge slack of the discrete convexity inequalities (>= 0 iff convex)."""
        idx, coef = self.mesh.convexity_rows
        return np.sum(self.values[idx] * coef, axis=1)

    def is_discretely_convex(self, slack=1e-12):
        return bool(np.min(self.convexity_margins(), initial=np.inf) >= -slack)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _gap(xy, h, c):
    """(m,) gaps x.h - c of points given as (n, m) coordinate rows, taken
    coordinate by coordinate with no BLAS call, so every point's gap is the
    same in any batch of points."""
    g = xy[0] * h[0]
    for d in range(1, len(h)):
        g += xy[d] * h[d]
    g -= c
    return g


def guillemin_potential(P: Polytope) -> SmoothConvexFunc:
    """u_o(x) = sum_k delta_k(x) log delta_k(x), with analytic derivatives.

    The value extends continuously by 0 log 0 = 0 onto the facets; gradient
    and Hessian require strictly positive gaps and raise otherwise.
    """
    normals = P.normals
    tol = 1e-12 * P._scale

    def value(pts):
        # g_k log g_k summed one facet at a time, in facet order (for K < 8
        # the order of NumPy's row sum), from (m,) gap columns, so no (m, K)
        # array is made; 0 log 0 = 0 on the closure, and a gap column
        # positive throughout skips the masking
        xy = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
        total = np.zeros(xy.shape[1])
        for h, c in zip(normals, P.offsets):
            g = _gap(xy, h, c)
            low = g.min(initial=np.inf)
            if low < -tol:
                raise EvaluationOutsideDomain("Guillemin potential asked outside the closure")
            if low > 0.0:
                term = np.log(g)
            else:
                pos = g > 0.0
                term = np.where(pos, g, 1.0)
                np.log(term, out=term)
                term[~pos] = 0.0
            term *= g
            total += term
        return total

    def grad(pts):
        g = P.gaps(pts)
        if np.any(g <= 0.0):
            raise EvaluationOutsideDomain("Guillemin gradient needs interior points")
        return (1.0 + np.log(g)) @ normals

    def hess(pts):
        return components_to_matrices(guillemin_hessian(P, pts), P.dimension)

    return SmoothConvexFunc(value, grad, hess, P.dimension, domain=P,
                            guillemin_type=True)


def guillemin_hessian(P: Polytope, pts) -> np.ndarray:
    """Hess u_o at (m, n) interior points as (ncomp, m) components: (xx,) in
    1D, (xx, xy, yy) in 2D.

    Summed as sum_k n_k n_k^T / g_k facet by facet in facet order, from (m,)
    gap columns, so no (m, K) array is made and every point's value is the
    same in any batch of points.  Where an entry of n_k n_k^T is 0 or 1, as
    most are for lattice normals, the product is skipped: adding nothing or
    1/g_k itself gives the same float.
    """
    pts = np.asarray(pts, dtype=float)
    rows, cols = np.triu_indices(P.dimension)
    out = np.zeros((len(rows), len(pts)))
    for h, c in zip(P.normals, P.offsets):
        r = _gap(pts.T, h, c)
        if np.any(r <= 0.0):
            raise EvaluationOutsideDomain("Guillemin Hessian needs interior points")
        np.divide(1.0, r, out=r)
        for comp, nn in zip(out, h[rows] * h[cols]):
            if nn == 1.0:
                comp += r
            elif nn != 0.0:
                comp += r * nn
    return out


def components_to_matrices(comp, n):
    """(ncomp, m) Hessian components -> (m, n, n) symmetric matrices."""
    order = [0] if n == 1 else [0, 1, 1, 2]  # xx, or xx, xy, yx, yy
    return comp[order].T.reshape(-1, n, n)


def supporting_affine(u, p_o) -> AffineFunc:
    """A supporting affine function of u at p_o (deterministic subgradient choice).

    At kinks the lexicographically smallest extreme subgradient is used.
    """
    p = np.atleast_1d(np.asarray(p_o, dtype=float))
    if isinstance(u, AffineFunc):
        return u
    if isinstance(u, PLConvexFunc):
        grads = u.active_gradients(p)
        g = min((tuple(row) for row in grads))
        g = np.asarray(g)
        val = u(p)
    elif isinstance(u, MeshConvexFunc):
        vi = u.mesh.nearest_vertex(p)
        if np.linalg.norm(u.mesh.vertices[vi] - p) > 1e-9 * u.domain._scale:
            raise ValueError("normalization point must be a mesh vertex")
        cells = np.where(np.any(u.mesh.cells == vi, axis=1))[0]
        grads = u.cell_gradients()[cells]
        g = np.asarray(min(tuple(row) for row in grads))
        val = u.values[vi]
        p = u.mesh.vertices[vi]
    else:
        g = np.atleast_1d(u.grad(p))
        val = u(p)
    return AffineFunc(float(val - g @ p), tuple(g))


def normalize(u, p_o):
    """u minus its supporting affine at p_o: nonnegative, vanishing at p_o."""
    ell = supporting_affine(u, p_o)
    if isinstance(u, AffineFunc):
        return AffineFunc.constant(0.0, len(u.a))
    if isinstance(u, PLConvexFunc):
        return u.shift(ell)
    if isinstance(u, MeshConvexFunc):
        vi = u.mesh.nearest_vertex(p_o)
        vals = u.values - np.asarray(ell(u.mesh.vertices))
        vals[vi] = 0.0
        vals[(vals < 0.0) & (vals > -1e-9)] = 0.0
        return MeshConvexFunc(u.mesh, vals, p_o_index=vi, normalized=True)
    return u.shift(ell)


def crease(ell: AffineFunc) -> PLConvexFunc:
    """max(0, ell) -- the elementary piecewise-linear test function."""
    return PLConvexFunc((AffineFunc.constant(0.0, len(ell.a)), ell))


def random_normalized_mesh_function(mesh: Mesh, rng) -> MeshConvexFunc:
    """Sample of a random strictly convex quadratic, normalized.

    The normalization point is the mesh vertex nearest the center of mass.
    Mixed second derivatives are kept nonpositive so samples stay discretely
    convex on the "/" triangulation; draws are rejected otherwise.
    """
    P = mesh.polytope
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    n = mesh.dimension
    for _ in range(100):
        z = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=n)
        if n == 1:
            q = rng.uniform(0.5, 6.0)
            vals = 0.5 * q * (mesh.vertices[:, 0] - z[0]) ** 2
        else:
            d1, d2 = rng.uniform(0.5, 6.0, size=2)
            off = -rng.uniform(0.0, 0.9) * np.sqrt(d1 * d2)
            dx = mesh.vertices - z
            vals = 0.5 * (d1 * dx[:, 0] ** 2 + 2 * off * dx[:, 0] * dx[:, 1]
                          + d2 * dx[:, 1] ** 2)
        a = rng.uniform(-2.0, 2.0, size=n)
        vals = vals + mesh.vertices @ a
        u = MeshConvexFunc(mesh, vals)
        u = normalize(u, mesh.vertices[mesh.nearest_vertex(center_of_mass(P))])
        if u.is_discretely_convex(slack=1e-10):
            return u
    raise RuntimeError("failed to draw a discretely convex sample")


def _directional(u, point, direction, forward=True):
    """One-sided derivative of t -> u(point + t*direction) at t = 0."""
    d = np.asarray(direction, dtype=float)
    p = np.asarray(point, dtype=float)
    sgn = 1.0 if forward else -1.0

    if isinstance(u, AffineFunc):
        return float(u.gradient() @ d)
    if isinstance(u, PLConvexFunc):
        grads = u.active_gradients(p) @ d
        return float(np.max(grads)) if forward else float(np.min(grads))
    if isinstance(u, MeshConvexFunc):
        # exact piece slope by halving until two difference quotients agree
        t = 1e-3
        prev = None
        for _ in range(50):
            q = (u(p + sgn * t * d) - u(p)) / (sgn * t)
            if prev is not None and abs(q - prev) <= 1e-12 * max(1.0, abs(q)):
                return float(q)
            prev = q
            t *= 0.5
        return float(prev)
    # smooth: one-sided stencil at 1e-4 with one Richardson step
    h = 1e-4
    d1 = (u(p + sgn * h * d) - u(p)) / (sgn * h)
    d2 = (u(p + sgn * 0.5 * h * d) - u(p)) / (sgn * 0.5 * h)
    return float(2.0 * d2 - d1)


def segment_ma_measure(u, a, b, P: Polytope | None = None, tol=1e-9) -> float:
    """Monge-Ampere mass of u restricted to the open segment (a, b).

    Equals w'(b-) - w'(a+) for w the restriction parametrized by arclength;
    nonnegative for convex u.  The segment closure must stay strictly inside
    the polytope.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if P is None:
        P = getattr(u, "domain", None)
    if P is not None:
        if min(P.boundary_distance(a), P.boundary_distance(b)) <= tol:
            raise SegmentTouchesBoundary("segment must be strictly interior")
    d = b - a
    L = np.linalg.norm(d)
    if L == 0.0:
        return 0.0
    d = d / L
    right_at_a = _directional(u, a, d, forward=True)
    left_at_b = _directional(u, b, d, forward=False)
    return float(left_at_b - right_at_a)
