import numpy as np
import pytest

from conftest import make_algebra
from specsub import group_spectra
from specsub.errors import FormulaInapplicableError
from specsub.fixtures import abelian, affine2, heisenberg3, paper_example3, sl2
from specsub.group_spectra import (Method, cheeger_lower_bound,
                                   group_spectrum_report, lambda0_amenable,
                                   quotient_bound, radical_commutator_lambda0)
from specsub.lie_core import Ideal, MetricLieAlgebra, mean_curvature


def sphere_max_trace(alg, samples=200000, seed=0):
    """Independent oracle: maximize tr(ad x) over random unit vectors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, alg.dim))
    norms = np.sqrt(np.einsum("si,ij,sj->s", x, alg.metric, x))
    x = x / norms[:, None]
    tau = alg.trace_covector()
    return float(np.max(x @ tau))


# -- lambda0_amenable -----------------------------------------------------------

def test_lambda0_unimodular_cases():
    for alg in (paper_example3(), heisenberg3(), abelian(2)):
        rep = lambda0_amenable(alg)
        assert rep.lambda0 == 0.0
        assert rep.cheeger == 0.0
        assert rep.method is Method.UNIMODULAR_AMENABLE_ZERO


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_lambda0_affine(c):
    rep = lambda0_amenable(affine2(c))
    assert rep.lambda0 == pytest.approx(c / 4.0, abs=1e-12)
    assert rep.cheeger == pytest.approx(np.sqrt(c), abs=1e-12)
    assert rep.method is Method.AMENABLE_FORMULA
    # maximizer is the unit multiple of X with tr(ad .) maximal
    alg = affine2(c)
    assert alg.norm(rep.maximizer) == pytest.approx(1.0, abs=1e-12)
    assert alg.trace_covector() @ rep.maximizer == pytest.approx(np.sqrt(c), abs=1e-12)


def test_lambda0_affine_against_sphere_oracle():
    for c in (0.5, 2.0):
        alg = affine2(c)
        best = sphere_max_trace(alg)
        rep = lambda0_amenable(alg)
        # dense sampling approaches the dual norm from below
        assert best <= rep.cheeger + 1e-9
        assert best == pytest.approx(rep.cheeger, rel=1e-3)


def test_lambda0_requires_amenable():
    with pytest.raises(FormulaInapplicableError):
        lambda0_amenable(sl2())


def test_lambda0_zero_iff_unimodular_given_amenable():
    for alg in (heisenberg3(), paper_example3(), abelian(3), affine2(1.0),
                make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0)])):
        rep = lambda0_amenable(alg)
        assert (rep.lambda0 == 0.0) == alg.is_unimodular()


def test_lambda0_scale_covariance():
    rng = np.random.default_rng(0)
    base = affine2(1.5)
    for _ in range(5):
        t = float(rng.uniform(0.2, 5.0))
        scaled = MetricLieAlgebra(base.dim, base.structure, t * base.metric)
        a = lambda0_amenable(base)
        b = lambda0_amenable(scaled)
        assert b.lambda0 == pytest.approx(a.lambda0 / t, rel=1e-12)
        assert b.cheeger == pytest.approx(a.cheeger / np.sqrt(t), rel=1e-12)
        cross = a.maximizer[0] * b.maximizer[1] - a.maximizer[1] * b.maximizer[0]
        assert abs(cross) < 1e-12  # same ray


# -- cheeger lower bound -----------------------------------------------------------

def test_cheeger_lower_bound_values():
    assert cheeger_lower_bound(paper_example3()) == pytest.approx(0.0, abs=1e-12)
    assert cheeger_lower_bound(affine2(1.0)) == pytest.approx(1.0, abs=1e-12)
    for c in (0.25, 4.0):
        assert cheeger_lower_bound(affine2(c)) == pytest.approx(np.sqrt(c), abs=1e-12)


def test_cheeger_lower_bound_le_exact():
    for alg in (affine2(0.7), heisenberg3(), paper_example3()):
        rep = lambda0_amenable(alg)
        assert cheeger_lower_bound(alg) <= rep.cheeger + 1e-12


def test_group_spectrum_report_non_amenable():
    rep = group_spectrum_report(sl2())
    assert rep.method is Method.LOWER_BOUND_ONLY
    assert rep.cheeger == 0.0  # sl2 is unimodular: trace functional vanishes


def test_cheeger_constant_fits_where_its_square_does_not():
    # |tau| = 1e155 fits in a double, |tau|^2 does not; an overflow warning
    # fails the test (pyproject's filterwarnings)
    base = affine2(1.0)
    rep = group_spectrum_report(MetricLieAlgebra(2, 1e155 * base.structure, base.metric))
    assert rep.cheeger == 1e155
    assert rep.lambda0 == float("inf")
    assert list(rep.maximizer) == [1.0, 0.0]


# -- quotient bound -----------------------------------------------------------------

@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_quotient_bound_affine(c):
    alg = affine2(c)
    rep = quotient_bound(alg, Ideal(alg, [[0.0, 1.0]]))
    assert rep.lambda0_N == 0.0
    assert rep.lambda0_quotient == 0.0
    assert rep.H_norm2 == alg.inner(rep.H, rep.H) == pytest.approx(c, abs=1e-12)
    assert rep.tr_ad_H == pytest.approx(c, abs=1e-12)
    assert rep.lower_bound == pytest.approx(c / 4.0, abs=1e-12)
    assert rep.equality_expected
    assert not rep.partial
    assert rep.lower_bound == pytest.approx(lambda0_amenable(alg).lambda0, abs=1e-12)


def test_quotient_bound_minimal_ideal_curvature_free():
    # center of heisenberg: H = 0, bound reduces to the sum of the factors
    alg = heisenberg3()
    rep = quotient_bound(alg, Ideal(alg, [np.eye(3)[2]]))
    assert np.allclose(rep.H, 0.0)
    assert rep.lower_bound == pytest.approx(rep.lambda0_N + rep.lambda0_quotient)
    assert rep.equality_expected


def test_quotient_bound_example3_all_ideals():
    alg = paper_example3()
    e = np.eye(3)
    for span in ([e[1]], [e[2]], e[1:]):
        rep = quotient_bound(alg, Ideal(alg, span))
        assert rep.equality_expected
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_quotient_bound_span_z_quarter():
    # the quotient of the unimodular example by span{Z} has lambda0 = |H|^2/4 = 1/4
    alg = paper_example3()
    rep = quotient_bound(alg, Ideal(alg, [np.eye(3)[2]]))
    assert alg.inner(rep.H, rep.H) == pytest.approx(1.0, abs=1e-12)
    assert rep.lambda0_quotient == pytest.approx(0.25, abs=1e-12)


def test_quotient_bound_caller_supplied_values():
    alg = affine2(1.0)
    rep = quotient_bound(alg, Ideal(alg, [[0.0, 1.0]]), lambda0_N=0.125)
    assert rep.lambda0_N == 0.125
    assert rep.lower_bound == pytest.approx(0.125 + 0.25, abs=1e-12)


def test_quotient_bound_partial_flag():
    # sl2 ideal inside sl2 + R (center): quotient is sl2, not amenable
    alg = make_algebra(4, [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)])
    rep = quotient_bound(alg, Ideal(alg, [np.eye(4)[3]]))
    assert rep.partial
    assert rep.lambda0_quotient == 0.0


# -- radical commutator route ---------------------------------------------------------

@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_radical_route_affine(c):
    rep = radical_commutator_lambda0(affine2(c))
    assert rep.lambda0 == pytest.approx(c / 4.0, abs=1e-12)


def test_radical_route_agrees_with_formula():
    cases = [affine2(0.5),
             make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0)]),
             make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 2.0)],
                          metric=np.diag([2.0, 1.0, 0.5]))]
    for alg in cases:
        a = radical_commutator_lambda0(alg)
        b = lambda0_amenable(alg)
        assert a.lambda0 == pytest.approx(b.lambda0, abs=1e-9)
        assert np.allclose(a.maximizer, b.maximizer, atol=1e-9)


def test_radical_route_3d_two_route_crosscheck():
    alg = make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0)])
    # trace functional is (2, 0, 0): formula gives 1; H route must agree
    assert lambda0_amenable(alg).lambda0 == pytest.approx(1.0, abs=1e-12)
    rep = radical_commutator_lambda0(alg)
    assert rep.lambda0 == pytest.approx(1.0, abs=1e-12)
    # and the curvature really is 2X
    H = mean_curvature(alg, Ideal(alg, np.eye(3)[1:]))
    assert np.allclose(H, [2.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("t", [1e-20, 1.0, 1e20])
def test_radical_route_cuts_the_identity_relative_to_lambda0(monkeypatch, t):
    # a mean curvature off by 1e-6 breaks |H|^2 = tr(ad H) by 1e-6 of
    # lambda0, at every scale of the structure constants
    exact = group_spectra.mean_curvature
    monkeypatch.setattr(group_spectra, "mean_curvature",
                        lambda *args: (1.0 + 1e-6) * exact(*args))
    base = affine2(1.0)
    with pytest.raises(FormulaInapplicableError, match="curvature identity"):
        radical_commutator_lambda0(MetricLieAlgebra(2, t * base.structure, base.metric))


INF = float("inf")


@pytest.mark.parametrize("t, h_norm2, lam", [
    (1.0, 1.0, 0.25),
    (1e150, 9.999999999999999e+299, 2.4999999999999998e+299),
    (1e160, INF, INF),
], ids=["1", "1e150", "1e160"])
def test_curvature_terms_overflow_without_a_warning(t, h_norm2, lam):
    # |H|^2 = tr(ad H) = t^2 does not fit in a double past t of about 1e154: it
    # is inf there, with no overflow warning (pyproject's filterwarnings) and
    # no nan from inf - inf in the bound; below, the values are the products
    # of the unscaled H, bit for bit
    base = affine2(1.0)
    alg = MetricLieAlgebra(2, t * base.structure, base.metric)
    q = quotient_bound(alg, Ideal(alg, [[0.0, 1.0]]))
    assert list(q.H) == [t, 0.0]
    assert (q.H_norm2, q.tr_ad_H, q.lower_bound) == (h_norm2, h_norm2, lam)
    r = radical_commutator_lambda0(alg)
    assert (r.lambda0, r.cheeger, list(r.maximizer)) == (lam, t, [1.0, 0.0])
    report = group_spectrum_report(alg)
    assert (report.lambda0, report.cheeger) == (r.lambda0, r.cheeger)


def test_radical_route_preconditions():
    with pytest.raises(FormulaInapplicableError):
        radical_commutator_lambda0(paper_example3())   # unimodular
    with pytest.raises(FormulaInapplicableError):
        radical_commutator_lambda0(sl2())              # not amenable
