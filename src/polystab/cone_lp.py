"""Interior-point solver for the stability cone LPs.

Solves  min c.u  subject to  C u >= 0,  u >= 0,  b.u = 1,  where each row of C
has a few nonzeros, given as index and coefficient arrays (the hinge rows of a
mesh).  Mehrotra's predictor-corrector (SIAM J. Optim. 2, 1992) solves, at each
step, the normal matrix C^T W C + D bordered by the row b, assembled with one
bincount and factored once.  The rows of C are scaled to unit norm and u to
b.u = 1 with max|b| = 1, so the stopping rule does not depend on the mesh size
or on the scale of the polytope.

Primal-dual iterates converge to a strictly complementary solution (Guler and
Ye, Math. Prog. 60, 1993), so near the end the active constraints are the rows
whose slack is below their multiplier and the bounds u_j below z_j.
Purification projects the last iterate onto those constraints and b.u = 1 by
least squares.  An objective that is all but flat along the face they leave
free (a field A close to the extremal one makes L_A nearly zero on affine
functions) is below what the normal matrix resolves, so purification then
moves down c within that face to a vertex, adding each constraint it meets.
The purified point is returned when it passes the feasibility check and its
objective is no worse than the iterate's or, where that is lower, the dual
objective; otherwise LPNotConverged is raised, so no point outside the cone
and no vertex of a wrongly identified face is ever returned.
"""
from __future__ import annotations

import numpy as np

from ._records import Record
from .errors import LPNotConverged

STOP_TOL = 1e-10      # scaled residuals and duality gap at which the iteration stops
FEAS_TOL = 1e-9       # purified point: C u >= -tol |C| |u|, u >= -tol |u|, |b.u - 1| <= tol
FLAT_TOL = 1e-12      # |c along the face| / |c| below which purification stops moving
MAX_ITER = 100
STALL_STEPS = 5       # steps the dual residual gets once the primal residuals and gap are met
STEP_FRACTION = 0.99  # fraction of the step to the boundary of the positive orthant
BLOCK = 64            # block size of the triangular solves


class ConeLPResult(Record):
    def __init__(self, u: np.ndarray, value: float, iterations: int):
        self.u, self.value, self.iterations = u, value, iterations


class _Rows:
    """C as (idx, coef) rows, with products against vectors and the normal matrix."""

    def __init__(self, idx, coef, n):
        self.idx, self.coef, self.n = idx, coef, n
        k = idx.shape[1]
        self._pairs = (idx[:, :, None] * n + idx[:, None, :]).ravel()
        self._outer = (coef[:, :, None] * coef[:, None, :]).reshape(len(idx), k * k)

    def __matmul__(self, u):
        return np.einsum("ij,ij->i", self.coef, u[self.idx])

    def rmatvec(self, y):
        return np.bincount(self.idx.ravel(), (self.coef * y[:, None]).ravel(),
                           minlength=self.n)

    def normal(self, w):
        """C^T diag(w) C as a dense n x n matrix."""
        vals = (self._outer * w[:, None]).ravel()
        return np.bincount(self._pairs, vals, minlength=self.n * self.n).reshape(self.n, self.n)


class _Cholesky:
    """Factor of the SPD matrix N, raised on the diagonal by a relative 1e-14.

    The inverses of the diagonal blocks are formed once, so each solve is a
    sequence of matrix products.  Inverting the whole factor instead costs
    about four times as much at U = 1,088 (the square at h = 1/32).
    """

    def __init__(self, N):
        d = np.diag_indices(len(N))
        self.L = L = np.linalg.cholesky(N + np.diag(1e-14 * N[d]))
        self.starts = range(0, len(N), BLOCK)
        self.inv = [np.linalg.inv(L[k:k + BLOCK, k:k + BLOCK]) for k in self.starts]

    def solve(self, r):
        """x with L L^T x = r, by blocked forward and back substitution."""
        L = self.L
        x = np.array(r, dtype=float)
        for k, inv in zip(self.starts, self.inv):
            x[k:k + BLOCK] = inv @ (x[k:k + BLOCK] - L[k:k + BLOCK, :k] @ x[:k])
        for k, inv in zip(reversed(self.starts), reversed(self.inv)):
            e = k + BLOCK
            x[k:e] = inv.T @ (x[k:e] - L[e:, k:e].T @ x[e:])
        return x


def _step(frac, *pairs):
    """Largest t <= 1 keeping every v + t dv >= (1 - frac) v, for (v, dv) pairs."""
    t = max((-dv / v).max() for v, dv in pairs)
    return min(1.0, frac / t) if t > 0 else 1.0


def _start(C, b, c):
    """Mehrotra's starting point: least-squares primal and dual points, shifted inside."""
    F = _Cholesky(C.normal(np.ones(len(C.idx))) + np.eye(C.n))
    Nb, Nc = F.solve(np.column_stack([b, c])).T
    u = Nb / (b @ Nb)
    w = Nc - Nb * (b @ Nc) / (1.0 + b @ Nb)
    s, y, z = C @ u, C @ w, w
    dp = max(-1.5 * min(u.min(), s.min()), 0.0)
    dd = max(-1.5 * min(y.min(), z.min()), 0.0)
    u, s, y, z = u + dp, s + dp, y + dd, z + dd
    gap = u @ z + s @ y
    dp, dd = 0.5 * gap / (z.sum() + y.sum()), 0.5 * gap / (u.sum() + s.sum())
    return u + dp, s + dp, y + dd, z + dd, b @ w


def solve_cone_lp(c, idx, coef, b) -> ConeLPResult:
    """min c.u subject to sum_k coef[i, k] u[idx[i, k]] >= 0, u >= 0 and b.u = 1.

    Raises LPNotConverged after MAX_ITER steps, or when the purified vertex
    fails its feasibility or objective check.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    coef = np.asarray(coef, dtype=float)
    C = _Rows(np.asarray(idx), coef / np.linalg.norm(coef, axis=1)[:, None], n)
    bscale = float(np.max(np.abs(b)))
    cscale = float(np.max(np.abs(c))) or 1.0
    b = np.asarray(b, dtype=float) / bscale
    cs = c / cscale
    m = len(C.idx)

    u, s, y, z, tau = _start(C, b, cs)
    met = None
    for it in range(MAX_ITER + 1):
        r_p = C @ u - s
        r_b = 1.0 - b @ u
        r_d = cs - C.rmatvec(y) - z - tau * b
        gap = s @ y + u @ z
        # residuals relative to the iterate they are rounded against.  On a
        # nearly flat face the dual residual stalls near c's slope along it,
        # which purification resolves: STALL_STEPS after the primal residuals
        # and the gap are met, the iteration stops without it.
        if (np.abs(r_p).max() <= STOP_TOL * u.max() and abs(r_b) <= STOP_TOL
                and gap <= STOP_TOL * (np.abs(cs) @ u)):
            met = it if met is None else met
            if (np.abs(r_d).max() <= STOP_TOL * max(1.0, y.max(), z.max())
                    or it - met >= STALL_STEPS):
                break
        if it == MAX_ITER:
            raise LPNotConverged(f"cone LP not converged in {MAX_ITER} interior-point steps "
                                 f"(gap {gap:.3e})")
        w = y / s
        N = C.normal(w)
        N[np.diag_indices(n)] += z / u
        F = _Cholesky(N)
        Nb = F.solve(b)
        bNb = b @ Nb

        def bordered(g, r):
            """[N -b; b^T 0] [du; dtau] = [g; r], with one step of refinement."""
            Ng = F.solve(g)
            dtau = (r - b @ Ng) / bNb
            du = Ng + dtau * Nb
            e = g + dtau * b - N @ du
            Ne = F.solve(e)
            etau = (r - b @ du - b @ Ne) / bNb
            return du + Ne + etau * Nb, dtau + etau

        def direction(r_sy, r_uz):
            du, dtau = bordered(C.rmatvec(r_sy / s - w * r_p) + r_uz / u - r_d, r_b)
            ds = C @ du + r_p
            return du, ds, (r_sy - y * ds) / s, (r_uz - z * du) / u, dtau

        du, ds, dy, dz, _ = direction(-s * y, -u * z)
        ap, ad = _step(1.0, (u, du), (s, ds)), _step(1.0, (y, dy), (z, dz))
        gap_aff = (s + ap * ds) @ (y + ad * dy) + (u + ap * du) @ (z + ad * dz)
        mu = (gap_aff / gap) ** 3 * gap / (m + n)
        du, ds, dy, dz, dtau = direction(mu - s * y - ds * dy, mu - u * z - du * dz)
        ap = _step(STEP_FRACTION, (u, du), (s, ds))
        ad = _step(STEP_FRACTION, (y, dy), (z, dz))
        u, s = u + ap * du, s + ap * ds
        y, z, tau = y + ad * dy, z + ad * dz, tau + ad * dtau

    v = _purify(C, b, cs, u, s < y, u < z)
    scale = np.max(np.abs(v))
    feasible = (np.min(C @ v) >= -FEAS_TOL * scale and np.min(v) >= -FEAS_TOL * scale
                and abs(b @ v - 1.0) <= FEAS_TOL)
    # purification moves down c, so a higher objective means a wrong active set;
    # an iterate just outside the cone can sit below the dual objective tau
    if not feasible or cs @ v > max(cs @ u, tau) + STOP_TOL * (np.abs(cs) @ u):
        raise LPNotConverged("cone LP: the purified vertex fails its feasibility "
                             "or objective check")
    v = v / bscale
    return ConeLPResult(v, float(c @ v), it)


def _purify(C, b, c, u, rows, bounds):
    """A vertex of the optimal face near u, unchecked.

    u is projected by least squares onto the active rows and bounds and
    b.u = 1.  While c keeps a component along the face those constraints leave
    free (an objective all but flat along it, which the iterate cannot
    resolve), the point moves down that component to the first constraint it
    meets, which joins the active set.
    """
    rows, bounds = rows.copy(), bounds.copy()
    v = np.where(bounds, 0.0, u)
    while True:
        keep = ~bounds
        M = C.normal(rows.astype(float))[np.ix_(keep, keep)] + np.outer(b[keep], b[keep])
        eps = 1e-12 * np.max(np.diag(M))
        F = _Cholesky(M + eps * np.eye(len(M)))

        def project(x, target):
            # least-squares correction of x toward rows = 0 and b.x = target
            for _ in range(3):
                g = C.rmatvec(np.where(rows, -(C @ x), 0.0))[keep] + (target - b @ x) * b[keep]
                x[keep] += F.solve(g)
            return x

        v = project(v, 1.0)
        # eps (M + eps I)^-1 c is the part of c along the null space of M
        d = np.zeros_like(v)
        d[keep] = -eps * F.solve(c[keep])
        d = project(d, 0.0)
        if np.linalg.norm(d) <= FLAT_TOL * np.linalg.norm(c):
            break
        Cv, Cd = C @ v, C @ d
        t_rows = np.where(~rows & (Cd < 0), Cv / np.where(Cd < 0, -Cd, 1.0), np.inf)
        t_bounds = np.where(keep & (d < 0), v / np.where(d < 0, -d, 1.0), np.inf)
        i, j = np.argmin(t_rows), np.argmin(t_bounds)
        t = min(t_rows[i], t_bounds[j])
        if not np.isfinite(t):
            break
        v = v + t * d
        if t_rows[i] <= t_bounds[j]:
            rows[i] = True
        else:
            bounds[j] = True
            v[j] = 0.0
    return v
