import numpy as np
import pytest
import scipy.sparse as sp

from specsub import eigensolve
from specsub.eigensolve import (SolverConfig, dense_lowest, lowest_eigenvalue,
                                symmetrized)
from specsub.errors import SolverConvergenceError
from specsub.fixtures import warp_const
from specsub.warped_spectra import build_schrodinger


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
        cfg = SolverConfig(dense_check=False)
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


def cyclic_tridiagonal(rng, n, corner_sign):
    """A = W^{-1} K for a random symmetric K, tridiagonal plus the corners."""
    diag = rng.uniform(-1.0, 3.0, n)
    off = rng.uniform(0.1, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    K = sp.diags_array([off, diag, off], offsets=[-1, 0, 1]).tolil()
    K[0, n - 1] = K[n - 1, 0] = corner_sign * rng.uniform(0.05, 2.0)
    w = rng.uniform(0.5, 2.0, n)
    return (sp.diags(1.0 / w) @ K.tocsr()).tocsr(), w


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # a bracket that the refined value does not reach fails certification:
    # simulate a faulty bisection and check the refined iterate is reported
    A, w, _ = dirichlet_laplacian(64)
    bracket = eigensolve._bracket

    def shifted(*args):
        lo, hi, start = bracket(*args)
        return lo + 1.0, hi + 1.0, start

    monkeypatch.setattr(eigensolve, "_bracket", shifted)
    with pytest.raises(SolverConvergenceError, match="not certified") as info:
        lowest_eigenvalue(A, w, SolverConfig(dense_check=False))
    best = info.value.best
    assert best is not None
    assert np.isfinite(best.lambda0)
    assert best.lambda0 == pytest.approx(dense_lowest(A, w).lambda0, abs=1e-9)


def test_determinism():
    for A, w in (dirichlet_laplacian(200)[:2],
                 cyclic_tridiagonal(np.random.default_rng(5), 200, 1.0)):
        a = lowest_eigenvalue(A, w)
        b = lowest_eigenvalue(A, w)
        assert a.lambda0 == b.lambda0
        assert np.array_equal(a.eigvec, b.eigvec)


@pytest.mark.parametrize("corner_sign", [-1.0, 1.0])
@pytest.mark.parametrize("n", [3, 4, 17, 200])
def test_cyclic_tridiagonal_matches_dense(n, corner_sign):
    rng = np.random.default_rng(n + (corner_sign > 0))
    cfg = SolverConfig(dense_check=False)
    for _ in range(10):
        A, w = cyclic_tridiagonal(rng, n, corner_sign)
        est = lowest_eigenvalue(A, w, cfg)
        ref = dense_lowest(A, w)
        assert est.lambda0 == pytest.approx(ref.lambda0, abs=1e-12)
        assert abs(est.eigvec @ (w * ref.eigvec)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("corner_sign", [-1.0, 1.0])
@pytest.mark.parametrize("seed", [3, 33])
def test_localized_circle_ground_state(seed, corner_sign):
    # with this much disorder eigenvectors are localized, and lambda0's lives
    # where T's lowest one is nearly zero: it is T's second eigenvector
    # (seed 3) or (T - s)^{-1} u (seed 33), so the start needs both
    A, w = cyclic_tridiagonal(np.random.default_rng(seed), 200, corner_sign)
    est = lowest_eigenvalue(A, w, SolverConfig(dense_check=False))
    assert est.lambda0 == pytest.approx(dense_lowest(A, w).lambda0, abs=1e-12)


@pytest.mark.parametrize("circle", [False, True])
def test_tiny_norm(circle):
    # at ||M|| ~ 1e-294 a shift gap of a few ulps of ||M|| is subnormal and a
    # solve at that gap overflows, unless the solver rescales M first
    A, w = (cyclic_tridiagonal(np.random.default_rng(6), 64, -1.0) if circle
            else dirichlet_laplacian(64)[:2])
    cfg = SolverConfig(dense_check=False)
    tiny = lowest_eigenvalue(A * 2.0 ** -1000, w, cfg)
    assert tiny.lambda0 * 2.0 ** 1000 == pytest.approx(
        lowest_eigenvalue(A, w, cfg).lambda0, rel=1e-12)


def test_deflated_circle():
    # on the constant-warp circle S is the cycle Laplacian: lambda0 = 0 with
    # the constant vector, which the wrap edge leaves alone, so lambda0 equals
    # the open chain's mu0 and the bisection closes onto that end
    op = build_schrodinger(warp_const(1.0), 256)
    est = lowest_eigenvalue(op.matrix, op.weights, SolverConfig(dense_check=False))
    assert est.lambda0 == pytest.approx(0.0, abs=1e-12)
    assert np.ptp(est.eigvec) <= 1e-9 * np.max(np.abs(est.eigvec))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_rejects_matrix_outside_the_chain_pattern(n):
    # the wrap entry of a small ring lands on the diagonal (n = 1), the
    # off-diagonal (n = 2) or the corner (n = 3), so those are chains; an
    # entry two or more places off the diagonal and off the corner is not
    A = sp.diags_array([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                       offsets=[-1, 0, 1]).tolil()
    A[0, n - 1] = A[n - 1, 0] = -1.0
    if n <= 3:
        est = lowest_eigenvalue(A.tocsr(), np.ones(n))
        assert est.lambda0 == pytest.approx(dense_lowest(A.tocsr(), np.ones(n)).lambda0,
                                            abs=1e-12)
        return
    A[1, n - 2] = A[n - 2, 1] = -0.5
    with pytest.raises(ValueError, match="tridiagonal"):
        lowest_eigenvalue(A.tocsr(), np.ones(n))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_entries(bad):
    A, w, _ = dirichlet_laplacian(8)
    A = A.tolil()
    A[3, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lowest_eigenvalue(A.tocsr(), w)
