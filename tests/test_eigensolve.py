import numpy as np
import pytest
import scipy.linalg

from conftest import smoothed_random_warp
from specsub import eigensolve
from specsub.eigensolve import SymmetricForm, lowest_eigenvalue
from specsub.errors import SolverConvergenceError
from specsub.fixtures import warp_const, warp_sinshift
from specsub.warped_spectra import (CircleBase, WarpedProductSpec, WarpProfile,
                                    build_schrodinger, build_warped_mode)


def weighted_form(diag, off, corner, w):
    """The symmetric form of A = W^{-1} K for K = (diag, off, corner)."""
    root = np.sqrt(w)
    return SymmetricForm(diag / w, off / (root[:-1] * root[1:]),
                         corner / (root[0] * root[-1]), w)


def dirichlet_laplacian(n, length=1.0):
    h = length / (n + 1)
    form = SymmetricForm(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2), 0.0,
                         np.full(n, h))
    return form, h


def dense_ground(form):
    """(lowest eigenvalue, its eigenvector in the original coordinates, unit
    in the weighted norm) from numpy's LAPACK on the dense matrix: a reference
    that shares no routine with the solver or its dsbev check."""
    values, vectors = np.linalg.eigh(form.dense())
    return values[0], vectors[:, 0] / np.sqrt(form.weights)


def times(form, t):
    return SymmetricForm(form.diag * t, form.off * t, form.corner * t, form.weights)


EPS = np.finfo(float).eps


def toeplitz_ground(n, h):
    return 4.0 * np.sin(np.pi * h / 2.0) ** 2 / h**2


@pytest.mark.parametrize("n", [16, 64, 256, 511])
def test_dirichlet_toeplitz_closed_form(n):
    form, h = dirichlet_laplacian(n)
    est = lowest_eigenvalue(form)
    assert est.lambda0 == pytest.approx(toeplitz_ground(n, h), abs=1e-12)
    assert est.residual <= max(1e-10, 50 * np.finfo(float).eps * 4.0 / h**2)


def test_dense_check_tolerance_scales_with_the_norm():
    # eigvalsh is known to a few eps * ||M|| only: at ||M|| ~ 1e12 it is off
    # by about 1e-4, which a fixed 1e-9 would report as a disagreement
    form, h = dirichlet_laplacian(512)
    est = lowest_eigenvalue(times(form, 1e6))
    assert est.lambda0 == pytest.approx(1e6 * toeplitz_ground(512, h), rel=1e-12)


@pytest.mark.parametrize("form, shift", [
    (dirichlet_laplacian(eigensolve.DENSE_LIMIT)[0], 1.0),
    # the check allows the solve's error bound and the reference's ULPS eps
    # ||M||: 8.5e-13 here, where an absolute 1e-9 let this shift through
    (build_schrodinger(WarpedProductSpec(CircleBase(64 * np.pi), WarpProfile("sinshift", (1.0,))),
                       eigensolve.DENSE_LIMIT), 5e-10)], ids=["dirichlet", "long-circle"])
def test_a_disagreeing_dense_reference_fails_the_solve(monkeypatch, form, shift):
    banded, unit = eigensolve._banded_lowest, eigensolve._scaled(form)[1]
    monkeypatch.setattr(eigensolve, "_banded_lowest",
                        lambda Mu: banded(Mu) + shift * unit)
    with pytest.raises(SolverConvergenceError, match="disagrees with dense reference") as info:
        lowest_eigenvalue(form)
    assert info.value.best is not None


@pytest.mark.parametrize("n, calls", [(eigensolve.DENSE_LIMIT, 1),
                                      (eigensolve.DENSE_LIMIT + 1, 0)])
def test_the_dense_reference_is_consulted_up_to_its_limit(monkeypatch, n, calls):
    banded, seen = eigensolve._banded_lowest, []

    def counting(*args, **kwargs):
        seen.append(args)
        return banded(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "_banded_lowest", counting)
    lowest_eigenvalue(dirichlet_laplacian(n)[0])
    assert len(seen) == calls


def test_dirichlet_continuum_limit():
    est = lowest_eigenvalue(dirichlet_laplacian(2048)[0])
    assert est.lambda0 == pytest.approx(np.pi**2, rel=1e-5)


def test_zero_matrix():
    n = 32
    est = lowest_eigenvalue(SymmetricForm(np.zeros(n), np.zeros(n - 1), 0.0, np.ones(n)))
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
        form = weighted_form(diag, off, 0.0, w)
        est = lowest_eigenvalue(form)
        ref, ref_vec = dense_ground(form)
        assert est.lambda0 == pytest.approx(ref, abs=1e-9)
        # eigenvectors agree up to sign, in the weighted norm
        dot = abs(est.eigvec @ (w * ref_vec))
        assert dot == pytest.approx(1.0, abs=1e-6)


def test_weighted_problem_matches_conjugated_dense():
    rng = np.random.default_rng(1)
    n = 60
    w = rng.uniform(0.5, 2.0, n)
    diag = rng.uniform(2.0, 4.0, n)
    off = rng.uniform(-1.0, 0.0, n - 1)
    est = lowest_eigenvalue(weighted_form(diag, off, 0.0, w))
    # the generalized problem K v = lambda W v, solved without the form
    K = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    evals = scipy.linalg.eigh(K, np.diag(w), eigvals_only=True)
    assert est.lambda0 == pytest.approx(evals[0], abs=1e-10)


def test_residual_contract():
    form, _ = dirichlet_laplacian(128)
    est = lowest_eigenvalue(form)
    # residual recomputed independently on the dense symmetric form
    M = form.dense()
    d = np.sqrt(form.weights)
    v = d * est.eigvec
    v = v / np.linalg.norm(v)
    res = np.linalg.norm(M @ v - est.lambda0 * v)
    assert res == pytest.approx(est.residual, abs=1e-12)


def cyclic_tridiagonal(rng, n, corner_sign):
    """The form of A = W^{-1} K for a random symmetric K, tridiagonal plus the
    corners."""
    diag = rng.uniform(-1.0, 3.0, n)
    off = rng.uniform(0.1, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    corner = corner_sign * rng.uniform(0.05, 2.0)
    return weighted_form(diag, off, corner, rng.uniform(0.5, 2.0, n))


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # a bracket that the refined value does not reach fails certification:
    # simulate a faulty bisection and check the refined iterate is reported
    form, _ = dirichlet_laplacian(64)
    bracket = eigensolve._bracket

    def shifted(*args):
        lo, hi, start = bracket(*args)
        return lo + 1.0, hi + 1.0, start

    monkeypatch.setattr(eigensolve, "_bracket", shifted)
    with pytest.raises(SolverConvergenceError, match="not certified") as info:
        lowest_eigenvalue(form)
    best = info.value.best
    assert best is not None
    assert np.isfinite(best.lambda0)
    assert best.lambda0 == pytest.approx(dense_ground(form)[0], abs=1e-9)


@pytest.mark.parametrize("k", [-4, 0, 4, 6, 8, 20, 40])
def test_a_degraded_eigenvector_fails_at_every_scale(monkeypatch, k):
    # with no refinement, a start vector 1e-7 off along the cos mode leaves a
    # residual of about 7e4 eps ||M||; scaling M by 4^-k scales the value and
    # the residual alike, so the residual target must scale with ||M|| too:
    # an absolute floor would certify this residual once ||M|| 4^-k is small
    form = build_schrodinger(warp_sinshift(1.0), 256)
    cos = np.cos(2.0 * np.pi * np.arange(256) / 256) / np.sqrt(128.0)
    bracket = eigensolve._bracket

    def degraded(*args):
        lo, hi, v = bracket(*args)
        return lo, hi, v + 1e-7 * cos

    monkeypatch.setattr(eigensolve, "REFINE_STEPS", 0)
    monkeypatch.setattr(eigensolve, "_bracket", degraded)
    with pytest.raises(SolverConvergenceError, match="not certified") as info:
        lowest_eigenvalue(times(form, 4.0 ** -k))
    assert info.value.best.residual > 40 * EPS * 4.0 ** -k * eigensolve._scaled(form)[2]


def test_determinism():
    for form in (dirichlet_laplacian(200)[0],
                 cyclic_tridiagonal(np.random.default_rng(5), 200, 1.0)):
        a = lowest_eigenvalue(form)
        b = lowest_eigenvalue(form)
        assert a.lambda0 == b.lambda0
        assert np.array_equal(a.eigvec, b.eigvec)


@pytest.mark.parametrize("corner_sign", [-1.0, 1.0])
@pytest.mark.parametrize("n", [3, 4, 17, 200])
def test_cyclic_tridiagonal_matches_dense(n, corner_sign):
    rng = np.random.default_rng(n + (corner_sign > 0))
    for _ in range(10):
        form = cyclic_tridiagonal(rng, n, corner_sign)
        est = lowest_eigenvalue(form)
        ref, ref_vec = dense_ground(form)
        assert est.lambda0 == pytest.approx(ref, abs=1e-12)
        dot = abs(est.eigvec @ (form.weights * ref_vec))
        assert dot == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("corner_sign", [-1.0, 1.0])
@pytest.mark.parametrize("seed", [3, 33])
def test_localized_circle_ground_state(seed, corner_sign):
    # with this much disorder eigenvectors are localized, and lambda0's may
    # live far from where the constant start vector's inverse iterates first
    # gather, near the wrap edge or away from it
    form = cyclic_tridiagonal(np.random.default_rng(seed), 200, corner_sign)
    est = lowest_eigenvalue(form)
    assert est.lambda0 == pytest.approx(dense_ground(form)[0], abs=1e-12)


@pytest.mark.parametrize("circle", [False, True])
def test_tiny_norm(circle):
    # at ||M|| ~ 1e-294 a shift gap of a few ulps of ||M|| is subnormal and a
    # solve at that gap overflows, unless the solver rescales M first
    form = (cyclic_tridiagonal(np.random.default_rng(6), 64, -1.0) if circle
            else dirichlet_laplacian(64)[0])
    tiny = lowest_eigenvalue(times(form, 2.0 ** -1000))
    assert tiny.lambda0 * 2.0 ** 1000 == pytest.approx(
        lowest_eigenvalue(form).lambda0, rel=1e-12)


def test_deflated_circle():
    # on the constant-warp circle S is the cycle Laplacian: lambda0 = 0 with
    # the constant vector, which is the bracket's start: the Gershgorin bound
    # and its Rayleigh quotient close the bracket before any factorization
    op = build_schrodinger(warp_const(1.0), 256)
    est = lowest_eigenvalue(op)
    assert est.lambda0 == pytest.approx(0.0, abs=1e-12)
    assert np.ptp(est.eigvec) <= 1e-9 * np.max(np.abs(est.eigvec))


@pytest.mark.parametrize("circle", [False, True])
@pytest.mark.parametrize("n", [4, 16, 256, 4096])
def test_start_orthogonal_to_the_ground_state(n, circle):
    # the all-ones start is an eigenvector of -(path Laplacian), and at even
    # n orthogonal to its alternating ground state, which round-off alone
    # must bring in
    diag = np.full(n, -2.0)
    if not circle:
        diag[[0, -1]] = -1.0
    form = SymmetricForm(diag, np.ones(n - 1), 1.0 if circle else 0.0, np.ones(n))
    est = lowest_eigenvalue(form)
    exact = -4.0 if circle else -2.0 - 2.0 * np.cos(np.pi / n)
    assert est.lambda0 == pytest.approx(exact, abs=64 * EPS * 4.0)
    if n <= 256:
        assert est.lambda0 == pytest.approx(np.linalg.eigvalsh(form.dense())[0],
                                            abs=64 * EPS * 4.0)


def _sampled_circle(n):
    return WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("samples", (), samples=(
        smoothed_random_warp(np.random.default_rng(600), n))))


@pytest.mark.parametrize("warp, most", [("sampled", 12), ("const", 2)])
def test_factorizations_per_solve(monkeypatch, warp, most):
    # this rough sampled warp's Gershgorin bound lies hundreds of gaps below
    # lambda0: the midpoint alone takes 18 factorizations per solve, with the
    # residual step 9; the constant-warp circle needs only the refine's
    n = 2048
    spec = warp_const(1.0) if warp == "const" else _sampled_circle(n)
    counts = []
    factor = eigensolve._factor

    def counting(*args):
        counts[-1] += 1
        return factor(*args)

    monkeypatch.setattr(eigensolve, "_factor", counting)
    for op in [build_schrodinger(spec, n)] + [build_warped_mode(spec, m, n)
                                              for m in range(9)]:
        counts.append(0)
        lowest_eigenvalue(op)
    assert max(counts) <= most, counts


def test_one_dpttrf_per_shift(monkeypatch):
    # a forward dpttrf that succeeds shows M - s + E positive definite, |E| a
    # few eps ||M||, so each shift, certified or not, is factored once
    lapack = eigensolve._lapack()
    counts = {"dpttrf": 0, "factor": 0}

    class Counting:
        def __getattr__(self, name):
            return getattr(lapack, name)

        def dpttrf(self, *args, **kwargs):
            counts["dpttrf"] += 1
            return lapack.dpttrf(*args, **kwargs)

    factor = eigensolve._factor

    def counting(*args):
        counts["factor"] += 1
        return factor(*args)

    monkeypatch.setattr(eigensolve, "_lapack", Counting)
    monkeypatch.setattr(eigensolve, "_factor", counting)
    spec = _sampled_circle(2048)
    for form in (build_schrodinger(spec, 2048), build_warped_mode(spec, 3, 2048),
                 dirichlet_laplacian(256)[0]):
        lowest_eigenvalue(form)
    assert counts["dpttrf"] == counts["factor"] > 0, counts


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_rejects_matrix_outside_the_chain_pattern(n):
    # the wrap entry of a small ring lands on the diagonal (n = 1), the
    # off-diagonal (n = 2) or the corner (n = 3), so those are chains; a
    # corner on fewer than three nodes, or an off-diagonal that is not one
    # shorter than the diagonal, is not
    diag, off = np.full(n, 4.0), np.full(n - 1, -1.0)
    if n == 1:
        diag[0] = -1.0
    if n <= 3:
        form = SymmetricForm(diag, off, -1.0 if n == 3 else 0.0, np.ones(n))
        est = lowest_eigenvalue(form)
        assert est.lambda0 == pytest.approx(dense_ground(form)[0], abs=1e-12)
        if n < 3:
            with pytest.raises(ValueError, match="corner"):
                SymmetricForm(diag, off, -1.0, np.ones(n))
        return
    with pytest.raises(ValueError, match="tridiagonal"):
        lowest_eigenvalue(SymmetricForm(diag, np.full(n, -1.0), 0.0, np.ones(n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_entries(bad):
    form, _ = dirichlet_laplacian(8)
    diag = form.diag.copy()
    diag[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lowest_eigenvalue(SymmetricForm(diag, form.off, 0.0, form.weights))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["off", "corner"])
def test_rejects_non_finite_off_diagonal_and_corner(where, bad):
    diag, off, corner = np.full(8, 2.0), np.full(7, -1.0), -1.0
    if where == "off":
        off[5] = bad
    else:
        corner = bad
    with pytest.raises(ValueError, match="non-finite"):
        SymmetricForm(diag, off, corner, np.ones(8))
