import numpy as np
import pytest
import scipy.sparse as sp

from specsub.eigensolve import (SolverConfig, dense_lowest, gershgorin_lower,
                                lowest_eigenvalue, symmetrized)
from specsub.errors import SolverConvergenceError


def dirichlet_laplacian(n, length=1.0):
    h = length / (n + 1)
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr()
    return A, np.full(n, h), h


def toeplitz_ground(n, h):
    return 4.0 * np.sin(np.pi * h / 2.0) ** 2 / h**2


@pytest.mark.parametrize("n", [16, 64, 256, 511])
def test_dirichlet_toeplitz_closed_form(n):
    A, w, h = dirichlet_laplacian(n)
    est = lowest_eigenvalue(A, w)
    assert est.lambda0 == pytest.approx(toeplitz_ground(n, h), abs=1e-12)
    assert est.residual <= max(1e-10, 50 * np.finfo(float).eps * 4.0 / h**2)


def test_dirichlet_continuum_limit():
    A, w, h = dirichlet_laplacian(2048)
    est = lowest_eigenvalue(A, w)
    assert est.lambda0 == pytest.approx(np.pi**2, rel=1e-5)


def test_zero_matrix():
    n = 32
    A = sp.csr_matrix((n, n))
    est = lowest_eigenvalue(A, np.ones(n))
    assert est.lambda0 == 0.0
    assert est.residual == 0.0


def test_gershgorin_lower_bound():
    A, w, h = dirichlet_laplacian(32)
    M = symmetrized(A, w)
    assert gershgorin_lower(M) <= 0.0
    evals = np.linalg.eigvalsh(M.toarray())
    assert gershgorin_lower(M) <= evals[0]


@pytest.mark.parametrize("method", ["inverse_iteration"])
def test_methods_agree_with_dense(method):
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = 80
        diag = rng.uniform(1.0, 3.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        w = rng.uniform(0.5, 2.0, n)
        K = sp.diags_array([off, diag, off], offsets=[-1, 0, 1])
        A = (sp.diags(1.0 / w) @ K).tocsr()
        cfg = SolverConfig(seed=trial, dense_check=False)
        est = lowest_eigenvalue(A, w, cfg)
        ref = dense_lowest(A, w)
        assert est.lambda0 == pytest.approx(ref.lambda0, abs=1e-9)
        # eigenvectors agree up to sign, in the weighted norm
        dot = abs(est.eigvec @ (w * ref.eigvec))
        assert dot == pytest.approx(1.0, abs=1e-6)


def test_weighted_problem_matches_conjugated_dense():
    rng = np.random.default_rng(1)
    n = 60
    w = rng.uniform(0.5, 2.0, n)
    diag = rng.uniform(2.0, 4.0, n)
    off = rng.uniform(-1.0, 0.0, n - 1)
    K = sp.diags_array([off, diag, off], offsets=[-1, 0, 1])
    A = (sp.diags(1.0 / w) @ K).tocsr()
    est = lowest_eigenvalue(A, w)
    evals = np.linalg.eigvalsh(symmetrized(A, w).toarray())
    assert est.lambda0 == pytest.approx(evals[0], abs=1e-10)


def test_residual_contract():
    A, w, _ = dirichlet_laplacian(128)
    est = lowest_eigenvalue(A, w)
    # residual recomputed independently on the symmetrized system
    M = symmetrized(A, w).toarray()
    d = np.sqrt(w)
    v = d * est.eigvec
    v = v / np.linalg.norm(v)
    res = np.linalg.norm(M @ v - est.lambda0 * v)
    assert res == pytest.approx(est.residual, abs=1e-12)


def test_nonconvergence_carries_best_iterate():
    A, w, _ = dirichlet_laplacian(64)
    cfg = SolverConfig(tol=1e-10, max_iters=2, dense_check=False)
    with pytest.raises(SolverConvergenceError) as info:
        lowest_eigenvalue(A, w, cfg)
    best = info.value.best
    assert best is not None
    assert np.isfinite(best.lambda0)


def test_determinism():
    A, w, _ = dirichlet_laplacian(200)
    a = lowest_eigenvalue(A, w, SolverConfig(seed=3))
    b = lowest_eigenvalue(A, w, SolverConfig(seed=3))
    assert a.lambda0 == b.lambda0
    assert np.array_equal(a.eigvec, b.eigvec)
