"""Lowest eigenvalue of weighted self-adjoint grid operators.

The weighted problem A v = lambda v with w-self-adjoint A is symmetrized to
M = D A D^{-1}, D = diag(sqrt(w)), and solved by shifted inverse iteration
(shift = Gershgorin lower bound - 1, sparse LU).  The converged Rayleigh
quotient is re-evaluated in extended precision so that closed-form
comparisons hold at the 1e-12 level.
A dense eigh cross-check is run automatically for small grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverConvergenceError


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10            # residual target |Mv - lambda v| / |v|
    max_iters: int = 60000
    seed: int = 0
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
    d = np.sqrt(weights)
    M = sp.diags(d) @ matrix @ sp.diags(1.0 / d)
    M = (M + M.T) * 0.5
    return M.tocsr()


def gershgorin_lower(M: sp.spmatrix) -> float:
    M = M.tocsr()
    diag = M.diagonal()
    absrow = np.asarray(abs(M).sum(axis=1)).ravel()
    return float(np.min(diag - (absrow - np.abs(diag))))


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


def _inverse_iteration(M: sp.csr_matrix, cfg: SolverConfig):
    n = M.shape[0]
    scale = float(np.max(np.asarray(abs(M).sum(axis=1)))) if n else 0.0
    tol_eff = max(cfg.tol, 40 * np.finfo(float).eps * (1.0 + scale))
    rng = np.random.default_rng(cfg.seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shift = gershgorin_lower(M) - 1.0
    lu = spla.splu((M - shift * sp.identity(n, format="csr")).tocsc())
    lam = np.inf
    refinements = 0
    for k in range(cfg.max_iters):
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            break
        w /= nw
        lam = float(w @ (M @ w))
        res = float(np.linalg.norm(M @ w - lam * w))
        v = w
        if res <= tol_eff:
            return v, tol_eff, True
        # once well converged relative to the current shift distance, move the
        # shift next to the eigenvalue to finish in a few more solves
        if (k + 1) % 50 == 0 and refinements < 8 and res < 0.01 * (lam - shift):
            shift = lam - max(5.0 * res, 1e-12 * (1.0 + abs(lam)))
            lu = spla.splu((M - shift * sp.identity(n, format="csr")).tocsc())
            refinements += 1
    return v, tol_eff, False


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

    Raises SolverConvergenceError (with the best iterate attached) on failure;
    raises it as well when the automatic dense cross-check disagrees.
    """
    weights = np.asarray(weights, dtype=float)
    n = matrix.shape[0]
    gn = grid_n if grid_n is not None else n
    if n == 0:
        raise ValueError("empty operator")
    M = symmetrized(matrix, weights)
    v, tol_eff, ok = _inverse_iteration(M, cfg)
    est = _estimate(M, v, weights, gn, mode)
    if not ok and est.residual > tol_eff:
        raise SolverConvergenceError(
            f"no convergence after {cfg.max_iters} iterations "
            f"(residual {est.residual:.3e}, target {tol_eff:.3e})", best=est)
    if cfg.dense_check and n <= cfg.dense_limit:
        ref = dense_lowest(matrix, weights, grid_n=gn, mode=mode)
        if abs(ref.lambda0 - est.lambda0) > cfg.dense_tol:
            raise SolverConvergenceError(
                f"iterative value {est.lambda0!r} disagrees with dense "
                f"reference {ref.lambda0!r}", best=est)
    return est
