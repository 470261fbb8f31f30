"""Lowest eigenvalue of weighted self-adjoint grid operators.

The weighted problem A v = lambda v with w-self-adjoint A is symmetrized to
M = D A D^{-1}, D = diag(sqrt(w)): a tridiagonal matrix plus, on a circle,
the corner o = M[0, n-1].  Bracket: LAPACK bisection on the open chain
T = M - |o| u u^T, u = e_0 + sign(o) e_{n-1}, gives mu0 <= lambda0 <= mu1
(rank-one interlacing); lambda0 = mu0 on an interval, and on a circle
bisection on the sign of 1 + |o| u^T (T - s)^{-1} u, positive exactly when
lambda0 < s, pins it.  Refine: sparse-LU inverse iteration just below the
bracket, then the Rayleigh quotient in extended precision, so that
closed-form comparisons hold at the 1e-12 level.  Certify: the result must
lie in the bracket and meet the residual target.  Nothing is random.
A dense eigh cross-check is run automatically for small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import SolverConvergenceError

# scipy is imported inside the functions that use it, so that the algebra
# commands, which build and solve no grid operator, never load it
if TYPE_CHECKING:
    import scipy.sparse as sp

REFINE_STEPS = 2    # inverse-iteration steps after the bracket
ULPS = 64           # bracket width, shift gap, certification slack: eps * ||M|| units


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10            # residual target |Mv - lambda v| / |v|
    dense_check: bool = True
    dense_limit: int = 512
    dense_tol: float = 1e-9


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SpectrumEstimate:
    lambda0: float
    eigvec: np.ndarray           # in the original (unweighted) coordinates
    residual: float              # weighted residual norm, unit eigvec
    grid_n: int
    mode: Optional[int] = None


def symmetrized(matrix: sp.spmatrix, weights: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp
    d = np.sqrt(weights)
    M = sp.diags(d) @ matrix @ sp.diags(1.0 / d)
    M = (M + M.T) * 0.5
    return M.tocsr()


def _rayleigh_extended(M: sp.csr_matrix, v: np.ndarray) -> float:
    """Rayleigh quotient accumulated in long double precision."""
    vl = v.astype(np.longdouble)
    coo = M.tocoo()
    Mv = np.zeros_like(vl)
    np.add.at(Mv, coo.row, coo.data.astype(np.longdouble) * vl[coo.col])
    return float((vl @ Mv) / (vl @ vl))


def _estimate(M, v, weights, grid_n, mode):
    v = v / np.linalg.norm(v)
    lam = _rayleigh_extended(M, v)
    res = float(np.linalg.norm(M @ v - lam * v))
    eigvec = v / np.sqrt(weights)
    nrm = np.sqrt(float(eigvec @ (weights * eigvec)))
    return SpectrumEstimate(lam, eigvec / nrm, res, grid_n, mode)


def _bracket(M: sp.csr_matrix, resolution: float):
    """[lo, hi] holding lambda0 of M, and a start vector for inverse iteration."""
    from scipy.linalg.lapack import dgtsv, dstebz, dstein
    n = M.shape[0]
    if not np.isfinite(M.data).all():
        raise ValueError("operator has non-finite entries")
    d, off = M.diagonal(), M.diagonal(1)
    corner = float(M[0, n - 1]) if n > 2 else 0.0     # n <= 2: the wrap edge is off
    if M.count_nonzero() != (np.count_nonzero(d) + 2 * np.count_nonzero(off)
                             + 2 * (corner != 0.0)):
        raise ValueError("operator is not tridiagonal plus a circle's corner entries")
    if n == 1:
        return float(d[0]), float(d[0]), np.ones(1)
    rho = abs(corner)
    d[[0, -1]] -= rho
    # LAPACK bisection for T's mu0 <= mu1, and mu0's eigenvector alone (asked
    # for together, close pairs are reorthogonalized at many times the cost)
    _, mu, block, split, _ = dstebz(d, off, 2, 0.0, 0.0, 1, 2, 0.0, "E")
    v0 = dstein(d, off, mu[:1], block, split)[0][:, 0]
    lo, hi = float(mu[0]), float(mu[1])
    if rho == 0.0:
        return lo, lo, v0
    u = np.zeros(n)
    u[0], u[-1] = 1.0, np.sign(corner)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        x, info = dgtsv(off, d - mid, off, u)[3:]
        if info:
            break
        if 1.0 + rho * (x[0] + u[-1] * x[-1]) > 0.0:
            hi = mid
        else:
            lo = mid
    # lambda0's eigenvector is (T - lambda0)^{-1} u, or v0 or v1 when u is
    # (nearly) orthogonal to it: start from the lowest Ritz vector of the three
    v1 = dstein(d, off, mu[1:2], np.roll(block, -1), split)[0][:, 0]
    x = dgtsv(off, d - (lo - resolution), off, u)[3]
    Q = np.linalg.qr(np.column_stack((v0, v1, x)))[0]
    return lo, hi, Q @ np.linalg.eigh(Q.T @ (M @ Q))[1][:, 0]


def dense_lowest(matrix: sp.spmatrix, weights: np.ndarray, grid_n: Optional[int] = None,
                 mode: Optional[int] = None) -> SpectrumEstimate:
    """Reference dense solve of the weighted eigenproblem."""
    M = symmetrized(matrix, weights)
    dense = M.toarray()
    evals, evecs = np.linalg.eigh(dense)
    v = evecs[:, 0]
    return _estimate(M, v, weights, grid_n if grid_n is not None else M.shape[0], mode)


def lowest_eigenvalue(matrix: sp.spmatrix, weights: np.ndarray,
                      cfg: SolverConfig = DEFAULT_SOLVER,
                      grid_n: Optional[int] = None,
                      mode: Optional[int] = None) -> SpectrumEstimate:
    """Smallest eigenvalue of the w-self-adjoint operator ``matrix``.

    ``matrix`` must be tridiagonal plus, on a circle, the two corner entries
    (ValueError otherwise).  Raises SolverConvergenceError (with the best
    iterate attached) when the result fails certification or the automatic
    dense cross-check disagrees.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    weights = np.asarray(weights, dtype=float)
    n = matrix.shape[0]
    gn = grid_n if grid_n is not None else n
    if n == 0:
        raise ValueError("empty operator")
    M = symmetrized(matrix, weights)
    scale = float(np.max(np.asarray(abs(M).sum(axis=1))))
    tol_eff = max(cfg.tol, 40 * np.finfo(float).eps * (1.0 + scale))
    # bracket and refine M scaled to norm ~1 by a power of two (exactly), so
    # that neither the shift gap nor a solve can under- or overflow
    unit = math.ldexp(1.0, -math.frexp(scale)[1])
    Mu = M * unit
    slack = ULPS * np.finfo(float).eps * scale * unit
    lo, hi, v = _bracket(Mu, slack)
    shift = lo - (slack or 1.0)         # slack is 0 only for M = 0
    lu = spla.splu((Mu - shift * sp.identity(n, format="csr")).tocsc())
    for _ in range(REFINE_STEPS):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
    est = _estimate(M, v, weights, gn, mode)
    lo, hi, slack = lo / unit, hi / unit, slack / unit
    if not (est.residual <= tol_eff and lo - slack <= est.lambda0 <= hi + slack):
        raise SolverConvergenceError(
            f"result {est.lambda0!r} is not certified as the lowest eigenvalue: "
            f"bracket [{lo!r}, {hi!r}], residual {est.residual:.3e} "
            f"(target {tol_eff:.3e})", best=est)
    if cfg.dense_check and n <= cfg.dense_limit:
        ref = dense_lowest(matrix, weights, grid_n=gn, mode=mode)
        if abs(ref.lambda0 - est.lambda0) > cfg.dense_tol:
            raise SolverConvergenceError(
                f"iterative value {est.lambda0!r} disagrees with dense "
                f"reference {ref.lambda0!r}", best=est)
    return est
