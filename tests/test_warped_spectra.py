import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import specsub.warped_spectra
from conftest import restricted
from specsub.eigensolve import lowest_eigenvalue
from specsub.fixtures import warp_const, warp_exp, warp_sinshift
from specsub.warped_spectra import (Boundary, CircleBase, IntervalBase,
                                    WarpProfile, WarpedProductSpec, _sample, base_grid,
                                    build_schrodinger, build_warped_mode,
                                    drift_bound_lambda0, lambda0_ess_tail,
                                    pushdown, pushdown_slack, rayleigh_2d,
                                    verify_warped)


def exp_interval(a, b, boundary=Boundary.DIRICHLET):
    return WarpedProductSpec(IntervalBase(0.0, b, boundary),
                             WarpProfile("exp", (a,)), name="exp")


ALL_FIXTURES = [
    warp_const(1.0),
    warp_const(2.5),
    warp_sinshift(1.0),
    warp_sinshift(0.3),
    exp_interval(0.5, 20.0),
    exp_interval(1.0, 12.0, Boundary.NEUMANN),
]


def richardson_second_derivative(f, x, h0=1e-3):
    d1 = (f(x + h0) + f(x - h0) - 2.0 * f(x)) / h0**2
    h1 = h0 / 2.0
    d2 = (f(x + h1) + f(x - h1) - 2.0 * f(x)) / h1**2
    return (4.0 * d2 - d1) / 3.0


# -- operator construction -------------------------------------------------------

def test_const_warp_is_plain_laplacian():
    op = build_schrodinger(warp_const(1.0), 64)
    h = base_grid(warp_const(1.0), 64).h
    assert np.allclose(op.diag, 2.0 / h**2)
    assert np.allclose(op.off, -1.0 / h**2)
    assert op.corner == pytest.approx(-1.0 / h**2)


def test_min_grid_size():
    with pytest.raises(ValueError):
        build_schrodinger(warp_const(1.0), 8)


def test_nonpositive_warp_rejected():
    samples = np.ones(32)
    samples[5] = -0.5
    spec = WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("samples", (), samples=samples))
    with pytest.raises(ValueError):
        build_schrodinger(spec, 32)


@pytest.mark.parametrize("fiber_dim, fiber_lambda0", [
    (1, np.nan), (1, np.inf), (1, -1.0), (1.5, 0.0), (0, 0.0), (np.nan, 0.0), (2.0, 0.0)])
def test_spec_rejects_a_bad_fiber(fiber_dim, fiber_lambda0):
    # a NaN or infinite lambda0 of the fiber used to give rhs = nan or
    # slack = -inf from verify_warped, with no error
    with pytest.raises(ValueError, match="fiber"):
        WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("sinshift", (1.0,)),
                          fiber_dim=fiber_dim, fiber_lambda0=fiber_lambda0)


@pytest.mark.parametrize("kind, params, samples", [
    ("const", (), None), ("exp", (1.0, 2.0), None), ("sinshift", (0.5, 0.5), None),
    ("samples", (), None), ("samples", (), np.ones((32, 2)))])
def test_warp_rejects_a_bad_library_warp(kind, params, samples):
    # each used to fail late or not at all: an IndexError at the first build,
    # a dropped second parameter, "sampled warp has 1 values", numpy's
    # concatenate error
    with pytest.raises(ValueError, match="warp") as err:
        WarpProfile(kind, params, samples)
    assert "\n" not in str(err.value)


def test_spec_takes_numpy_integers_and_finite_values():
    spec = WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("sinshift", (1.0,)),
                             fiber_dim=np.int64(3), fiber_lambda0=1e300)
    assert spec.fiber_dim == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exp_potential_constant(k):
    # (psi^{k/2})'' / psi^{k/2} = (k a / 2)^2 for psi = e^{a t}
    a = 0.8
    spec = WarpedProductSpec(IntervalBase(0.0, 10.0, Boundary.DIRICHLET),
                             WarpProfile("exp", (a,)), fiber_dim=k)
    op = build_schrodinger(spec, 256)
    h = base_grid(spec, 256).h
    V = op.diag - 2.0 / h**2
    expected = (k * a / 2.0) ** 2
    assert np.allclose(V, expected, atol=5.0 * expected * h**2)


def test_sinshift_potential_against_richardson():
    spec = warp_sinshift(1.0)   # psi = 2 + sin x
    n = 512
    op = build_schrodinger(spec, n)
    grid = base_grid(spec, n)
    h = grid.h
    V = op.diag - 2.0 / h**2

    def phi(x):
        return np.sqrt(2.0 + np.sin(x))

    for idx in (0, 100, 350):
        x = grid.x[idx]
        oracle = richardson_second_derivative(phi, x) / phi(x)
        assert V[idx] == pytest.approx(oracle, abs=5e-4)


@pytest.mark.parametrize("spec", [warp_const(1.0), exp_interval(0.5, 20.0),
                                  exp_interval(0.5, 20.0, Boundary.NEUMANN)],
                         ids=["circle", "dirichlet", "neumann"])
def test_grid_differences_are_those_of_the_padded_function(spec):
    # differences writes the closure without pad's copy: the two must not drift
    grid = base_grid(spec, 32)
    f = np.random.default_rng(3).standard_normal((32, 5))
    f[0, 0], f[-1, 0], f[7, 1], f[8, 1] = 1.5e308, -1.5e308, -1.5e308, 1.5e308
    with np.errstate(over="ignore"):
        got = grid.differences(f, np.full((33, 5), np.nan))
        assert got.tobytes() == np.diff(grid.pad(f), axis=0).tobytes()


def test_symmetry_invariant_all_fixtures():
    for spec in ALL_FIXTURES:
        for build in (lambda s: build_schrodinger(s, 128),
                      lambda s: build_warped_mode(s, 0, 128),
                      lambda s: build_warped_mode(s, 3, 128)):
            # K = W A = W^{1/2} M W^{1/2} in the original coordinates
            op = build(spec)
            root = np.sqrt(op.weights)
            K = root[:, None] * op.dense() * root[None, :]
            assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))


def test_weights_positive_and_uniform_for_s():
    op = build_schrodinger(warp_sinshift(1.0), 64)
    grid, psi = _sample(warp_sinshift(1.0), 64)[:2]
    assert np.allclose(op.weights, grid.h)
    opm = build_warped_mode(warp_sinshift(1.0), 0, 64)
    assert np.allclose(opm.weights, psi * grid.h)


def test_mode_operator_needs_circle_fiber():
    spec = WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("const", (1.0,)),
                             fiber_dim=2)
    with pytest.raises(ValueError):
        build_warped_mode(spec, 0, 32)
    with pytest.raises(ValueError):
        build_warped_mode(warp_const(1.0), -1, 32)


def test_unitary_equivalence_exact():
    # diag(sqrt(psi)) conjugates L_0 into S; dense spectra agree entrywise
    for spec in ALL_FIXTURES:
        n = 128
        s_op = build_schrodinger(spec, n)
        l_op = build_warped_mode(spec, 0, n)
        es = np.linalg.eigvalsh(s_op.dense())
        el = np.linalg.eigvalsh(l_op.dense())
        assert np.max(np.abs(es - el)) < 1e-6


def test_schrodinger_nonnegative():
    for spec in ALL_FIXTURES:
        op = build_schrodinger(spec, 256)
        est = lowest_eigenvalue(op)
        assert est.lambda0 >= -1e-8


def test_mode_monotonicity():
    for spec in (warp_sinshift(1.0), exp_interval(0.5, 20.0)):
        lams = []
        for m in range(4):
            op = build_warped_mode(spec, m, 128)
            lams.append(lowest_eigenvalue(op).lambda0)
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
        # the added diagonal is nonnegative at the matrix level
        d0 = build_warped_mode(spec, 0, 128).diag
        d2 = build_warped_mode(spec, 2, 128).diag
        assert np.all(d2 - d0 >= 0.0)


@pytest.mark.parametrize("base", [CircleBase(3.0),
                                  IntervalBase(-1.0, 2.0, Boundary.DIRICHLET),
                                  IntervalBase(-1.0, 2.0, Boundary.NEUMANN)],
                         ids=["circle", "dirichlet", "neumann"])
def test_mode_form_matches_edge_sum(base):
    # f.K f of L_0 against the closure's edges written out by hand, with
    # conductances sqrt(psi_l psi_r) and Dirichlet ghosts holding f = 0
    n = 37
    rng = np.random.default_rng(5)
    spec = WarpedProductSpec(base, WarpProfile("samples", (), samples=rng.uniform(0.5, 2.0, n)))
    psi = _sample(spec, n)[2]       # a Dirichlet interval's ghosts included
    f = rng.standard_normal(n)
    if isinstance(base, CircleBase):
        edges = [(psi[i], psi[(i + 1) % n], f[i], f[(i + 1) % n]) for i in range(n)]
    elif base.boundary == Boundary.DIRICHLET:
        g = np.concatenate(([0.0], f, [0.0]))
        edges = [(psi[i], psi[i + 1], g[i], g[i + 1]) for i in range(n + 1)]
    else:
        edges = [(psi[i], psi[i + 1], f[i], f[i + 1]) for i in range(n - 1)]
    op = build_warped_mode(spec, 0, n)
    h = base_grid(spec, n).h
    oracle = sum(np.sqrt(pl * pr) * (fr - fl) ** 2 for pl, pr, fl, fr in edges) / h
    g = np.sqrt(op.weights) * f         # f.K f = g.M g
    assert g @ op.matvec(g) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("base", [CircleBase(3.0),
                                  IntervalBase(-1.0, 2.0, Boundary.DIRICHLET),
                                  IntervalBase(-1.0, 2.0, Boundary.NEUMANN)],
                         ids=["circle", "dirichlet", "neumann"])
def test_every_operator_is_minus_one_over_h2_off_the_diagonal(base):
    # an edge's conductance is the geometric mean of the weights psi h of its
    # ends over h (1 and h for S), so the symmetric form's edges are -1/h^2
    n = 40
    for warp in (WarpProfile("samples", (), samples=np.exp(np.sin(np.linspace(0.0, 4.0, n)))),
                 WarpProfile("exp", (0.7,))):
        spec = WarpedProductSpec(base, warp)
        grid = base_grid(spec, n)
        edge = -1.0 / (grid.h * grid.h)
        ops = [build_schrodinger(spec, n)] + [build_warped_mode(spec, m, n) for m in (0, 1, 3)]
        for op in ops + [restricted(op, 10, n) for op in ops]:
            assert np.all(op.off == edge) and op.off.size == op.n - 1
            assert op.corner == (edge if grid.boundary is None and op.n == n else 0.0)


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e200, 1e300])
def test_mode_zero_of_a_constant_warp_does_not_see_its_scale(c):
    # -(psi f')'/psi is -f'' for every constant psi, even where psi^2 does
    # not fit in a double
    assert np.array_equal(build_warped_mode(warp_const(c), 0, 64).diag,
                          build_warped_mode(warp_const(1.0), 0, 64).diag)


def test_const_mode_one_exact():
    op = build_warped_mode(warp_const(1.0), 1, 64)
    est = lowest_eigenvalue(op)
    assert est.lambda0 == pytest.approx(1.0, abs=1e-10)


# -- verification ops ---------------------------------------------------------------

def test_equality_const_trivial():
    rep = verify_warped(warp_const(1.0), 64)
    assert rep.equality_passed
    assert abs(rep.lambda0_total) < 1e-10
    assert abs(rep.lambda0_schrodinger) < 1e-10


def test_equality_sinshift_and_exp():
    for spec in (warp_sinshift(1.0), exp_interval(0.5, 20.0)):
        rep = verify_warped(spec, 256)
        assert rep.equality_passed
        assert rep.difference <= 1e-6
        assert rep.lambda0_total == rep.lambda0_modes[0]


def test_the_verdicts_and_errors_are_python_values():
    # a numpy bool is not a bool to `is`, and json.dumps rejects it
    spec = warp_sinshift(1.0)
    rep = verify_warped(spec, 64)
    assert type(rep.inequality_passed) is bool and type(rep.equality_passed) is bool
    assert json.dumps([rep.inequality_passed, rep.equality_passed]) == "[true, true]"
    op = build_schrodinger(spec, 64)
    for est in (lowest_eigenvalue(op), lowest_eigenvalue(restricted(op, 3, 4))):
        assert type(est.error) is float


def test_inequality_reports():
    for spec in ALL_FIXTURES:
        rep = verify_warped(spec, 128)
        assert rep.inequality_passed
        assert rep.slack >= -1e-8


def test_an_infinite_fiber_term_violates_the_inequality():
    # 1/max(psi)^2 overflows at psi = 1e-160, so the right-hand side is inf;
    # the rounding allowance on the fiber term must not absorb it
    rep = verify_warped(replace(warp_const(1e-160), fiber_lambda0=1.0), 64, m_max=0)
    assert rep.rhs == np.inf and not rep.inequality_passed


def test_the_mode_scan_holds_no_vector_per_mode():
    # verify_warped keeps three numbers of each mode, not its n-vector, so
    # its memory does not grow with m_max
    verify_warped(warp_sinshift(1.0), 64, m_max=0)      # scipy's LAPACK loaded
    peaks = []
    for m_max in (8, 64):
        tracemalloc.start()
        try:
            verify_warped(warp_sinshift(1.0), 16384, m_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20, peaks


def _stepping_down(monkeypatch, drop):
    """Make the second solve return drop times the two certified errors
    below the first."""
    real, ests = specsub.warped_spectra.lowest_eigenvalue, []

    def solve(*args, **kwargs):
        est = real(*args, **kwargs)
        if len(ests) == 1:
            est = est._replace(lambda0=ests[0].lambda0 - drop * (ests[0].error + est.error))
        ests.append(est)
        return est
    monkeypatch.setattr(specsub.warped_spectra, "lowest_eigenvalue", solve)


@pytest.mark.parametrize("drop, passed", [(0.5, True), (2.0, False)])
def test_a_step_down_passes_only_within_the_certified_errors(monkeypatch, drop, passed):
    # the minimum over modes at m = 0 and the tail's interlacing are exact for
    # the discrete operators, so only the solves' errors may break them
    _stepping_down(monkeypatch, drop)
    assert verify_warped(warp_sinshift(1.0), 64, m_max=1).equality_passed == passed
    _stepping_down(monkeypatch, drop)
    assert lambda0_ess_tail(exp_interval(0.5, 20.0), [5.0, 10.0], 64).monotone == passed


def test_exp_dirichlet_lambda0_value():
    # constant potential a^2/4 plus the discrete box ground value
    a, b, n = 0.5, 20.0, 512
    spec = exp_interval(a, b)
    op = build_schrodinger(spec, n)
    est = lowest_eigenvalue(op)
    h = base_grid(spec, n).h
    box = 4.0 * np.sin(np.pi * h / (2.0 * b)) ** 2 / h**2
    analytic = a * a / 4.0 + box
    assert est.lambda0 == pytest.approx(analytic, rel=5e-4)


def test_grid_convergence_second_order():
    spec = warp_sinshift(1.0)
    lam = {}
    for n in (256, 512, 1024):
        op = build_warped_mode(spec, 1, n)
        lam[n] = lowest_eigenvalue(op).lambda0
    d1 = abs(lam[256] - lam[512])
    d2 = abs(lam[512] - lam[1024])
    assert d1 <= 4.0 * d2 * 1.3 + 1e-12


# -- pushdown -------------------------------------------------------------------------

def test_pushdown_constant_function():
    h = pushdown(warp_const(1.0), np.ones((64, 48)), 64)
    assert np.allclose(h, np.sqrt(2.0 * np.pi))


def test_pushdown_fiber_constant_factorizes():
    spec = warp_sinshift(0.5)
    n = 64
    psi = _sample(spec, n)[1]
    rng = np.random.default_rng(0)
    u = rng.standard_normal(n)
    f2d = np.tile(u[:, None], (1, 32))
    h = pushdown(spec, f2d, n)
    assert np.allclose(h, np.abs(u) * np.sqrt(2.0 * np.pi * psi))


def test_pushdown_preserves_norm():
    spec = warp_sinshift(1.0)
    n = 64
    rng = np.random.default_rng(1)
    f2d = rng.standard_normal((n, 32))
    h = pushdown(spec, f2d, n)
    s_op = build_schrodinger(spec, n)
    grid, psi = _sample(spec, n)[:2]
    norm_2d = np.sum(psi[:, None] * f2d**2) * grid.h * (2 * np.pi / 32)
    assert h @ (s_op.weights * h) == pytest.approx(norm_2d, rel=1e-12)


def test_pushdown_slack_nonnegative_random():
    rng = np.random.default_rng(2)
    for spec in (warp_sinshift(1.0), warp_const(2.0), exp_interval(0.4, 8.0),
                 exp_interval(0.4, 8.0, Boundary.NEUMANN)):
        worst = np.inf
        for _ in range(200):
            f2d = rng.standard_normal((48, 24))
            worst = min(worst, pushdown_slack(spec, f2d, 48))
        assert worst >= -1e-8


@pytest.mark.parametrize("c, fiber_lambda0", [(1e-170, 0.0), (1e170, 0.0),
                                               (1e-150, 0.3), (1e150, 0.3)])
def test_pushdown_slack_at_extreme_constant_warps(c, fiber_lambda0):
    # f = 1 has R(f) = R_S(pushdown f) = 0, so the slack is -fiber_lambda0 / c^2;
    # psi^2 does not fit in a double at 1e+-170, and no warning may escape
    spec = replace(warp_const(c), fiber_lambda0=fiber_lambda0)
    assert pushdown_slack(spec, np.ones((32, 8)), 32) == pytest.approx(
        -fiber_lambda0 / c / c, rel=1e-12, abs=0.0)


def test_pushdown_slack_samples_once(monkeypatch):
    calls = []
    real = specsub.warped_spectra.base_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(specsub.warped_spectra, "base_grid", counting)
    spec = exp_interval(0.4, 8.0)
    for _ in range(2):
        pushdown_slack(spec, np.ones((32, 8)), 32)
    assert len(calls) == 1
    # the mode scan and the S solve of a verification share the sample too
    verify_warped(spec, 32)
    assert len(calls) == 1


def test_memoized_spec_gives_the_bits_of_a_fresh_one():
    rng = np.random.default_rng(6)
    spec = warp_sinshift(0.7)
    for n in (64, 128, 64):
        for _ in range(3):
            f2d = rng.standard_normal((n, 16))
            fresh = warp_sinshift(0.7)
            assert rayleigh_2d(spec, f2d, n) == rayleigh_2d(fresh, f2d, n)
            assert pushdown_slack(spec, f2d, n) == pushdown_slack(fresh, f2d, n)
            assert np.array_equal(pushdown(spec, f2d, n), pushdown(fresh, f2d, n))


def test_memoized_arrays_are_read_only():
    spec = exp_interval(0.4, 8.0)
    grid, psi, psi_pad, cond = specsub.warped_spectra._sample(spec, 32)
    op = build_schrodinger(spec, 32)
    assert build_schrodinger(spec, 32) is op
    for a in (grid.x, psi, psi_pad, cond, op.diag, op.off, op.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_replace_builds_its_own_operators():
    spec = exp_interval(0.4, 8.0)
    old = build_schrodinger(spec, 32)
    wider = replace(spec, fiber_dim=3)
    new = build_schrodinger(wider, 32)
    assert not np.array_equal(new.diag, old.diag)
    fresh = WarpedProductSpec(spec.base, spec.warp, 3, name="exp")
    assert np.array_equal(new.diag, build_schrodinger(fresh, 32).diag)
    # the memo is no field: equality, hash and repr do not see it
    assert replace(spec) == spec and hash(replace(spec)) == hash(spec)
    assert repr(spec) == repr(exp_interval(0.4, 8.0))


def test_a_sampled_warp_leaves_the_callers_array_writable():
    samples = np.linspace(1.0, 2.0, 32)
    warp = WarpProfile("samples", (), samples=samples)
    assert samples.flags.writeable and not warp.samples.flags.writeable
    samples[0] = 5.0
    assert warp.samples[0] == 1.0


def test_a_sampled_warp_owns_what_a_view_showed():
    # a write through the view's base reaches neither the warp nor the
    # operators memoized from it
    base = np.linspace(1.0, 2.0, 64)
    spec = WarpedProductSpec(CircleBase(2 * np.pi),
                             WarpProfile("samples", (), samples=base[::2]))
    old = build_schrodinger(spec, 32).diag.copy()
    base[:] = 7.0
    assert np.array_equal(spec.warp.samples, np.linspace(1.0, 2.0, 64)[::2])
    assert np.array_equal(build_schrodinger(replace(spec), 32).diag, old)


def test_sampled_warps_and_their_specs_compare_and_hash_by_value():
    def spec(samples):
        return WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile("samples", (), samples))

    values = np.linspace(1.0, 2.0, 32)
    a, b = spec(values), spec(list(values))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.warp == b.warp and hash(a.warp) == hash(b.warp)
    assert a != spec(values[::-1]) and a.warp != WarpProfile("const", (1.0,))
    # the catalog warps keep the field tuple's equality and hash
    assert hash(WarpProfile("exp", (0.5,))) == hash(("exp", (0.5,), None))


def test_pushdown_slack_tight_at_ground_state():
    for spec in (warp_sinshift(1.0), exp_interval(0.5, 10.0)):
        n = 64
        op = build_warped_mode(spec, 0, n)
        u = lowest_eigenvalue(op).eigvec
        f2d = np.tile(u[:, None], (1, 16))
        s = pushdown_slack(spec, f2d, n)
        assert -1e-10 <= s <= 1e-8


@pytest.mark.parametrize("t", [1e160, 1e-160, 2.0 ** 520, 2.0 ** -560])
def test_pushdown_is_invariant_under_extreme_scaling(t):
    # the sums of squares of t f overflow (1e160) or lose digits to underflow
    # (1e-160); a power of two of max |f| scales them back exactly
    spec = warp_sinshift(1.0)
    f2d = np.random.default_rng(4).standard_normal((64, 16))
    r, s = rayleigh_2d(spec, f2d, 64), pushdown_slack(spec, f2d, 64)
    rt, st = rayleigh_2d(spec, t * f2d, 64), pushdown_slack(spec, t * f2d, 64)
    h, ht = pushdown(spec, f2d, 64), pushdown(spec, t * f2d, 64)
    if np.frexp(t)[0] == 0.5:
        assert (rt, st) == (r, s)
        assert np.array_equal(ht, t * h)
    else:
        assert rt == pytest.approx(r, rel=1e-13)
        assert abs(st - s) <= 1e-13 * r
        assert np.allclose(ht, t * h, rtol=1e-13, atol=0.0)


def test_pushdown_near_the_largest_float():
    # neighbouring differences of +-1.5e308 overflow; no warning may escape
    spec = warp_sinshift(1.0)
    signs = np.where(np.random.default_rng(5).random((64, 16)) < 0.5, -1.0, 1.0)
    assert rayleigh_2d(spec, 1.5e308 * signs, 64) == pytest.approx(
        rayleigh_2d(spec, signs, 64), rel=1e-13)
    assert pushdown_slack(spec, 1.5e308 * signs, 64) == pytest.approx(
        pushdown_slack(spec, signs, 64), rel=1e-13)
    # one row whose h^2 overflows while the norm of f, times h = 0.1, does not
    f2d = np.zeros((64, 4))
    f2d[5] = 6.1e153
    assert pushdown(warp_const(1.0), f2d, 64)[5] == pytest.approx(
        6.1e153 * np.sqrt(2.0 * np.pi), rel=1e-15)


@pytest.mark.parametrize("base", [CircleBase(1e-3), IntervalBase(0.0, 1e-3, Boundary.NEUMANN)])
def test_pushdown_slack_of_a_large_function_on_a_short_base(base):
    # the sum of f^2 times the grid spacing fits in a double, the plain sum
    # of squares of the pushdown does not: R_S(h) must not sum it
    spec = WarpedProductSpec(base, WarpProfile("const", (1.0,)))
    assert pushdown_slack(spec, np.full((64, 1), 1e153), 64) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [pushdown, rayleigh_2d, pushdown_slack])
def test_pushdown_rejects_non_finite_entries(fn, bad):
    f2d = np.random.default_rng(4).standard_normal((64, 16))
    f2d[10:12, 3:5] = bad      # neighbours too: inf - inf is nan
    with pytest.raises(ValueError, match="f2d has non-finite entries"):
        fn(warp_sinshift(1.0), f2d, 64)


@pytest.mark.parametrize("shape", [(63, 16), (64,)])
@pytest.mark.parametrize("fn", [pushdown, rayleigh_2d, pushdown_slack])
def test_pushdown_rejects_a_function_off_the_grid(fn, shape):
    with pytest.raises(ValueError, match="first axis of f2d must match the base grid"):
        fn(warp_sinshift(1.0), np.ones(shape), 64)


@pytest.mark.parametrize("fn", [pushdown, rayleigh_2d, pushdown_slack])
def test_pushdown_rejects_a_function_without_fiber_nodes(fn):
    with pytest.raises(ValueError, match="f2d has no fiber nodes"):
        fn(warp_sinshift(1.0), np.ones((64, 0)), 64)


def test_pushdown_of_a_subnormal_function_has_a_norm():
    spec = warp_sinshift(1.0)
    tiny, ones = np.full((64, 16), 2.2e-309), np.ones((64, 16))
    assert rayleigh_2d(spec, tiny, 64) == rayleigh_2d(spec, ones, 64) == 0.0
    assert pushdown_slack(spec, tiny, 64) == pytest.approx(
        pushdown_slack(spec, ones, 64), abs=1e-12)


def test_rayleigh_2d_separates_for_const_warp():
    # product metric: R(u(x)v(theta)) = R_base(u) + R_fiber(v)
    spec = warp_const(1.0)
    n, m = 64, 32
    x = base_grid(spec, n).x
    theta = np.arange(m) * 2 * np.pi / m
    f2d = np.outer(np.sin(x), np.ones(m))
    r = rayleigh_2d(spec, f2d, n)
    op = build_schrodinger(spec, n)
    f = np.sin(x)
    g = np.sqrt(op.weights) * f
    assert r == pytest.approx(g @ op.matvec(g) / (f @ (op.weights * f)), rel=1e-12)
    f2d = np.outer(np.ones(n), np.sin(theta))
    # discrete circle eigenvalue for the first fiber mode
    h_theta = 2 * np.pi / m
    expect = (2.0 - 2.0 * np.cos(h_theta)) / h_theta**2
    assert rayleigh_2d(spec, f2d, n) == pytest.approx(expect, rel=1e-12)


def dense_2d_form(spec, n, m):
    """(K, W) of the discrete Rayleigh quotient f.Kf / f.Wf on an n x m grid,
    f flattened row by row, assembled from the base's edge-node incidence
    matrix and the fiber's circulant difference, not from ``Grid``:
    K = (Dx^T C Dx / h^2) (x) I + diag(1/psi) (x) (Dth^T Dth / h_th^2) and
    W = diag(psi) (x) I, both times the cell area h h_th."""
    base = spec.base
    if isinstance(base, CircleBase):
        h = base.length / n
        x = h * np.arange(n)
        Dx = np.roll(np.eye(n), 1, axis=1) - np.eye(n)         # edge k: k -> k + 1 mod n
        x_pad = np.append(x, base.length)
    elif base.boundary == Boundary.DIRICHLET:
        h = (base.b - base.a) / (n + 1)
        x = base.a + h * np.arange(1, n + 1)
        Dx = np.eye(n + 1, n, -1) - np.eye(n + 1, n)          # edges to both ghosts
        x_pad = np.concatenate(([base.a], x, [base.b]))
    else:
        h = (base.b - base.a) / n
        x = base.a + h * (np.arange(n) + 0.5)
        Dx = np.eye(n - 1, n, 1) - np.eye(n - 1, n)           # interior edges only
        x_pad = x
    psi_pad = spec.warp(x_pad)
    C = np.diag(np.sqrt(psi_pad[:-1] * psi_pad[1:]))
    psi = spec.warp(x)
    Dth = np.roll(np.eye(m), 1, axis=1) - np.eye(m)
    h_th = 2.0 * np.pi / m
    K = (np.kron(Dx.T @ C @ Dx / h**2, np.eye(m))
         + np.kron(np.diag(1.0 / psi), Dth.T @ Dth / h_th**2)) * (h * h_th)
    W = np.kron(np.diag(psi), np.eye(m)) * (h * h_th)
    return K, W


@pytest.mark.parametrize("spec", [
    warp_sinshift(0.7),
    exp_interval(0.4, 8.0),
    WarpedProductSpec(IntervalBase(0.3, 4.0, Boundary.NEUMANN), WarpProfile("sinshift", (0.5,))),
], ids=["circle", "dirichlet", "neumann"])
def test_rayleigh_2d_matches_the_dense_2d_form(spec):
    n, m = 24, 8
    K, W = dense_2d_form(spec, n, m)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f2d = rng.standard_normal((n, m))
        f = f2d.ravel()
        assert rayleigh_2d(spec, f2d, n) == pytest.approx(f @ K @ f / (f @ W @ f), rel=1e-13)
    # a fiber-constant f: the fiber term is a sum of differences that are
    # exactly 0, so with the base term's conductances set to 0 the kernel's
    # numerator is exactly 0.0
    f2d = np.repeat(rng.uniform(0.5, 2.0, n)[:, None], m, axis=1)
    f = f2d.ravel()
    assert rayleigh_2d(spec, f2d, n) == pytest.approx(f @ K @ f / (f @ W @ f), rel=1e-13)
    grid, psi, _, cond = _sample(spec, n)
    num, den, _ = specsub.warped_spectra._quotient_terms(grid, psi, np.zeros_like(cond), f2d)
    assert num == 0.0 and den > 0.0


# -- tails ---------------------------------------------------------------------------

def test_tail_flat_warp_closed_form():
    # restriction keeps the grid: lambda0 = discrete box value on the kept nodes
    b, n = 10.0, 512
    spec = WarpedProductSpec(IntervalBase(0.0, b, Boundary.DIRICHLET),
                             WarpProfile("const", (1.0,)), name="flat")
    cutoffs = [2.0, 4.0, 6.0]
    rep = lambda0_ess_tail(spec, cutoffs, n)
    grid = base_grid(spec, n)
    for c, v in zip(rep.cutoffs, rep.values):
        m = int(np.count_nonzero(grid.x > c))
        closed = (2.0 - 2.0 * np.cos(np.pi / (m + 1))) / grid.h**2
        assert v == pytest.approx(closed, abs=1e-9)
    assert rep.monotone


def test_tail_exp_plateau():
    a = 1.0
    spec = warp_exp(a)   # [0, 60] dirichlet
    b = spec.base.b
    cutoffs = np.linspace(b / 3, 2 * b / 3, 5)
    rep = lambda0_ess_tail(spec, cutoffs, 1024)
    assert rep.monotone
    target = a * a / 4.0
    rels = [abs(v - target) / target for v in rep.values]
    assert min(rels) < 0.03
    # truncation length controls the error: the known box correction explains it
    for c, v in zip(rep.cutoffs, rep.values):
        assert v == pytest.approx(target + (np.pi / (b - c)) ** 2, rel=2e-2)


def test_tail_growing_potential_strictly_increasing():
    grid = base_grid(WarpedProductSpec(IntervalBase(0.0, 6.0, Boundary.DIRICHLET),
                                       WarpProfile("const", (1.0,))), 512)
    samples = np.exp(grid.x ** 2)
    spec = WarpedProductSpec(IntervalBase(0.0, 6.0, Boundary.DIRICHLET),
                             WarpProfile("samples", (), samples=samples),
                             name="gauss")
    cutoffs = np.linspace(0.5, 4.0, 8)
    rep = lambda0_ess_tail(spec, cutoffs, 512)
    assert all(b > a for a, b in zip(rep.values, rep.values[1:]))


def test_tail_requires_interval():
    with pytest.raises(ValueError):
        lambda0_ess_tail(warp_const(1.0), [0.5], 64)


def test_tail_rejects_bad_cutoffs():
    spec = exp_interval(0.5, 10.0)
    with pytest.raises(ValueError):
        lambda0_ess_tail(spec, [4.0, 2.0], 64)
    with pytest.raises(ValueError):
        lambda0_ess_tail(spec, [11.0], 64)


# -- drift bound ----------------------------------------------------------------------

def test_group_curvature_matches_warp_gradient():
    # |H| of the affine fiber equals |grad ln psi| of the exponential warp
    from specsub.fixtures import affine2
    from specsub.lie_core import Ideal, mean_curvature
    for c in (0.25, 1.0, 4.0):
        alg = affine2(c)
        H = mean_curvature(Ideal(alg, [[0.0, 1.0]]))
        spec = exp_interval(np.sqrt(c), 10.0)
        grid, _, psi = _sample(spec, 256)[:3]
        grad_ln = (np.log(psi[2:]) - np.log(psi[:-2])) / (2 * grid.h)
        assert np.allclose(grad_ln ** 2, alg.inner(H, H), rtol=1e-10)


def test_drift_bound_flat():
    spec = WarpedProductSpec(IntervalBase(0.0, 1.0, Boundary.DIRICHLET),
                             WarpProfile("const", (1.0,)), name="flat")
    bound = drift_bound_lambda0(spec, 0.0, 64)
    op = build_schrodinger(spec, 64)
    lam = lowest_eigenvalue(op).lambda0
    assert bound == pytest.approx(lam, abs=1e-10)


def test_drift_bound_exp_small_slope():
    spec = exp_interval(0.1, 40.0)
    grid, _, psi = _sample(spec, 512)[:3]
    drift = np.abs((psi[2:] - psi[:-2]) / (2 * grid.h) / psi[1:-1])
    C = float(np.max(drift))
    bound = drift_bound_lambda0(spec, C, 512)
    lam = lowest_eigenvalue(build_schrodinger(spec, 512)).lambda0
    assert lam >= bound - 1e-8
    assert bound > 0.0


def test_drift_bound_at_threshold_is_zero():
    spec = WarpedProductSpec(IntervalBase(0.0, 1.0, Boundary.DIRICHLET),
                             WarpProfile("const", (2.0,)), name="flat2")
    op = build_schrodinger(spec, 128)
    lam = lowest_eigenvalue(op).lambda0
    C = 2.0 * np.sqrt(lam)
    assert drift_bound_lambda0(spec, C, 128) == pytest.approx(0.0, abs=1e-9)
    assert lam >= -1e-8


@pytest.mark.parametrize("C", [np.nan, -5e-9, -1.0, np.inf])
def test_drift_bound_rejects_a_negative_or_non_finite_C(C):
    # C = -5e-9 used to give 0.0986768342, above lambda0(S) = 0.0986768327
    # of this interval, and C = nan a nan bound
    spec = WarpedProductSpec(IntervalBase(0.0, 10.0, Boundary.DIRICHLET),
                             WarpProfile("const", (1.0,)), name="flat")
    with pytest.raises(ValueError, match="finite and nonnegative"):
        drift_bound_lambda0(spec, C, 64)


def test_drift_bound_violations_report_node():
    spec = exp_interval(1.0, 10.0)
    with pytest.raises(ValueError, match="node"):
        drift_bound_lambda0(spec, 0.5, 128)   # |psi'/psi| = 1 > 0.5
    with pytest.raises(ValueError, match="sqrt"):
        drift_bound_lambda0(exp_interval(0.05, 10.0), 0.9, 128)


def test_drift_bound_neumann():
    # a flat Neumann base has lambda0 = 0, so only C = 0 is admissible
    flat = WarpedProductSpec(IntervalBase(0.0, 1.0, Boundary.NEUMANN),
                             WarpProfile("const", (1.0,)), name="flat")
    lam = lowest_eigenvalue(build_schrodinger(flat, 64)).lambda0
    assert drift_bound_lambda0(flat, 0.0, 64) == pytest.approx(lam, abs=1e-10)
    assert abs(lam) < 1e-10
    # psi = e^t: the one-sided slope at the Neumann end x = h/2 is the largest,
    # (e^h - 1)/h ~ 1.04 against sinh(h)/h ~ 1.001 inside
    spec = exp_interval(1.0, 10.0, Boundary.NEUMANN)
    with pytest.raises(ValueError, match=r"node 0 \(x = 0.0390625\)"):
        drift_bound_lambda0(spec, 1.01, 128)
    with pytest.raises(ValueError, match="sqrt"):
        drift_bound_lambda0(spec, 1.05, 128)
