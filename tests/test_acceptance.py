"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 8 is expected to fail as stated and is marked xfail(strict): the
hard-wall truncation at B = 40/sqrt(c) adds exactly (pi/B)^2 = 2.47% of c/4,
above the stated 2% tolerance; the truncation-corrected two-route check is
printed alongside and agrees to ~2e-6.  Details in the README.
"""

import time

import numpy as np
import pytest

from conftest import smoothed_random_warp, trace_functional
from specsub.eigensolve import lowest_eigenvalue
from specsub.fixtures import (LIE_BUILTINS, catalog_fixture, catalog_ideals,
                              warp_const, warp_exp, warp_sinshift)
from specsub.group_spectra import group_spectrum_report, quotient_bound
from specsub.lie_core import (classify, derived_subalgebra, mean_curvature,
                              quotient_algebra)
from specsub.warped_spectra import (Boundary, CircleBase, IntervalBase,
                                    WarpProfile, WarpedProductSpec, base_grid,
                                    build_schrodinger, build_warped_mode,
                                    lambda0_ess_tail, pushdown_slack,
                                    verify_warped)


def report(num, passed, detail):
    print(f"\nCRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# 1 ---------------------------------------------------------------------------

EXPECTED = {
    # unimodular, solvable, nilpotent, semisimple, amenable
    "heisenberg3": (True, True, True, False, True),
    "affine2": (False, True, False, False, True),
    "so3": (True, False, False, True, True),
    "sl2": (True, False, False, True, False),
    "paper_example3": (True, True, False, False, True),
    "abelian1": (True, True, True, False, True),
    "abelian2": (True, True, True, False, True),
    "abelian3": (True, True, True, False, True),
    "abelian4": (True, True, True, False, True),
    "abelian5": (True, True, True, False, True),
}


def test_criterion_1_classification():
    t0 = time.monotonic()
    mismatches = []
    for name, want in EXPECTED.items():
        rep = classify(catalog_fixture(name))
        got = (rep.unimodular, rep.solvable, rep.nilpotent, rep.semisimple,
               rep.amenable)
        if got != want:
            mismatches.append((name, got, want))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    assert report(1, ok, f"{len(EXPECTED)} fixtures classified exactly in "
                         f"{elapsed*1e3:.0f} ms"), mismatches


# 2 ---------------------------------------------------------------------------

def test_criterion_2_lambda0_formula():
    worst_val = 0.0
    worst_dir = 0.0
    for c in (0.25, 1.0, 4.0):
        alg = catalog_fixture("affine2", c)
        rep = group_spectrum_report(alg)
        worst_val = max(worst_val, abs(rep.lambda0 - c / 4.0))
        tau_at_max = trace_functional(alg) @ rep.maximizer
        worst_val = max(worst_val, abs(rep.lambda0 - tau_at_max ** 2 / 4.0))
        commutator = derived_subalgebra(classify(alg).radical)
        H = mean_curvature(commutator)
        direction = H / alg.norm(H)
        worst_dir = max(worst_dir, float(np.max(np.abs(direction - rep.maximizer))))
    ok = worst_val <= 1e-12 and worst_dir <= 1e-9
    assert report(2, ok,
                  f"lambda0 = c/4 (max dev {worst_val:.2e}), maximizer aligned "
                  f"with the commutator mean curvature (max dev {worst_dir:.2e}); "
                  "recorded note: the curvature-normalization constant c^2/4 "
                  "quoted for this model disagrees with the formula value c/4 "
                  "and is not asserted")


# 3 ---------------------------------------------------------------------------

def test_criterion_3_mean_curvature_identity():
    pairs = 0
    worst = 0.0
    for name in LIE_BUILTINS:
        alg = catalog_fixture(name)
        tau = trace_functional(alg)
        for label, ideal in catalog_ideals(name, alg):
            H = mean_curvature(ideal)
            quot, push = quotient_algebra(ideal)
            tr_q = trace_functional(quot) @ (push @ H) if quot.dim else 0.0
            resid = abs(alg.inner(H, H) - tau @ H + tr_q)
            worst = max(worst, resid)
            pairs += 1
    ok = pairs >= 8 and worst <= 1e-9
    assert report(3, ok, f"|H|^2 - tr(ad H) + tr(ad_q p_*H) = 0 on {pairs} "
                         f"(fixture, ideal) pairs, worst residual {worst:.2e}")


# 4 ---------------------------------------------------------------------------

def test_criterion_4_quotient_equality():
    worst = 0.0
    cases = 0
    for name in ("affine2", "paper_example3"):
        alg = catalog_fixture(name)
        lam = group_spectrum_report(alg).lambda0
        for label, ideal in catalog_ideals(name, alg):
            rep = quotient_bound(ideal)
            assert rep.equality_expected, (name, label)
            worst = max(worst, abs(rep.lower_bound - lam))
            cases += 1
    ok = cases == 4 and worst <= 1e-9
    assert report(4, ok, f"quotient equality reproduces lambda0 on {cases} "
                         f"proper ideals, worst deviation {worst:.2e}")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_warped_equality():
    fixtures = [warp_const(1.0), warp_sinshift(1.0), warp_exp(0.5, b=30.0)]
    details = []
    ok = True
    for spec in fixtures:
        t0 = time.monotonic()
        rep = verify_warped(spec, 2048)
        elapsed = time.monotonic() - t0
        good = (rep.difference <= 1e-6
                and rep.lambda0_total == rep.lambda0_modes[0]
                and elapsed <= 10.0)
        ok = ok and good
        details.append(f"{spec.name}: |L0-S|={rep.difference:.2e} in {elapsed:.1f}s")
    assert report(5, ok, "; ".join(details))


# 6 ---------------------------------------------------------------------------

def test_criterion_6_inequality():
    worst = np.inf
    for spec in (warp_const(1.0), warp_sinshift(1.0), warp_exp(0.5, b=30.0)):
        rep = verify_warped(spec, 256)
        worst = min(worst, rep.slack)
    rng = np.random.default_rng(600)
    for i in range(100):
        samples = smoothed_random_warp(rng, 256)
        spec = WarpedProductSpec(CircleBase(2 * np.pi),
                                 WarpProfile("samples", (), samples=samples),
                                 name=f"random{i}")
        rep = verify_warped(spec, 256)
        worst = min(worst, rep.slack)
    ok = worst >= -1e-8
    assert report(6, ok, f"inequality slack >= -1e-8 on 3 catalog + 100 random "
                         f"sampled warps (worst slack {worst:.2e})")


# 7 ---------------------------------------------------------------------------

def test_criterion_7_pushdown():
    rng = np.random.default_rng(700)
    worst = np.inf
    for spec in (warp_const(1.0), warp_sinshift(1.0), warp_exp(0.5, b=30.0)):
        for _ in range(1000):
            f2d = rng.standard_normal((128, 64))
            worst = min(worst, pushdown_slack(spec, f2d, 128))
    ok = worst >= -1e-8
    assert report(7, ok, f"pushdown inequality slack >= -1e-8 over 3 x 1000 "
                         f"random 128x64 samples (worst {worst:.2e})")


# 8 ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="hard-wall truncation at B = 40/sqrt(c) adds exactly (pi/B)^2, "
           "i.e. pi^2/400 = 2.47% of c/4, above the stated 2%; the "
           "truncation-corrected two-route check passes at ~2e-6 (see README)")
def test_criterion_8_hyperbolic_cross_check():
    details = []
    worst = 0.0
    for c in (0.25, 1.0, 4.0):
        s = np.sqrt(c)
        spec = WarpedProductSpec(IntervalBase(0.0, 40.0 / s, Boundary.DIRICHLET),
                                 WarpProfile("exp", (s,)), name="hyperbolic")
        op = build_schrodinger(spec, 4096)
        est = lowest_eigenvalue(op, grid_n=4096)
        flat = WarpedProductSpec(spec.base, WarpProfile("const", (1.0,)))
        box = lowest_eigenvalue(build_schrodinger(flat, 4096), grid_n=4096)
        rel = abs(est.lambda0 - c / 4.0) / (c / 4.0)
        corrected_rel = abs((est.lambda0 - box.lambda0) - c / 4.0) / (c / 4.0)
        worst = max(worst, rel)
        details.append(f"c={c:g}: dev {rel:.4%} (truncation-corrected "
                       f"{corrected_rel:.2e})")
    ok = worst <= 0.02
    report(8, ok, "; ".join(details))
    assert ok, ("literal 2% tolerance cannot absorb the (pi/B)^2 truncation "
                "term; see ledger/README")


# 9 ---------------------------------------------------------------------------

def test_criterion_9_solver_oracle():
    worst = 0.0
    checked = 0
    for spec in (warp_const(1.0), warp_sinshift(1.0), warp_exp(0.5, b=30.0)):
        for n in (64, 256, 512):
            ops = [build_schrodinger(spec, n)] + \
                  [build_warped_mode(spec, m, n) for m in (0, 1, 4)]
            for op in ops:
                it = lowest_eigenvalue(op, grid_n=n)
                # numpy's LAPACK on the dense matrix, independent of the solver
                ref = np.linalg.eigvalsh(op.dense())[0]
                worst = max(worst, abs(it.lambda0 - ref))
                checked += 1
    # Dirichlet Toeplitz closed form
    toeplitz_worst = 0.0
    flat = WarpedProductSpec(IntervalBase(0.0, 1.0, Boundary.DIRICHLET),
                             WarpProfile("const", (1.0,)), name="flat")
    for n in (16, 64, 256, 512):
        op = build_schrodinger(flat, n)
        est = lowest_eigenvalue(op, grid_n=n)
        h = base_grid(flat, n).h
        closed = 4.0 * np.sin(np.pi * h / 2.0) ** 2 / h ** 2
        toeplitz_worst = max(toeplitz_worst, abs(est.lambda0 - closed))
    ok = worst <= 1e-9 and toeplitz_worst <= 1e-12
    assert report(9, ok, f"iterative vs dense within {worst:.2e} on {checked} "
                         f"operators (grid <= 512); Toeplitz closed form within "
                         f"{toeplitz_worst:.2e}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_essential_spectrum_tail():
    a = 1.0
    spec = warp_exp(a)          # interval [0, 60/a], dirichlet
    b = spec.base.b
    cutoffs = np.linspace(b / 3.0, 2.0 * b / 3.0, 9)
    rep = lambda0_ess_tail(spec, cutoffs, 4096)
    target = a * a / 4.0
    rels = np.array([abs(v - target) / target for v in rep.values])
    plateau_ok = float(np.median(rels)) <= 0.05 and float(np.max(rels)) <= 0.10
    mono_ok = rep.monotone

    grid = base_grid(WarpedProductSpec(IntervalBase(0.0, 6.0, Boundary.DIRICHLET),
                                       WarpProfile("const", (1.0,))), 1024)
    growing = WarpedProductSpec(IntervalBase(0.0, 6.0, Boundary.DIRICHLET),
                                WarpProfile("samples", (), samples=np.exp(grid.x ** 2)),
                                name="gauss")
    rep2 = lambda0_ess_tail(growing, np.linspace(0.5, 4.0, 8), 1024)
    strict_ok = all(y > x for x, y in zip(rep2.values, rep2.values[1:]))

    ok = plateau_ok and mono_ok and strict_ok
    assert report(10, ok,
                  f"exp tail plateau: median dev {np.median(rels):.2%} (<= 5%), "
                  f"max dev {np.max(rels):.2%} over the middle third, monotone; "
                  f"e^(t^2) tails strictly increasing over all cutoffs")
