import numpy as np
import pytest

from conftest import make_algebra, trace_functional
from specsub import group_spectra
from specsub.errors import FormulaInapplicableError
from specsub.fixtures import abelian, affine2, heisenberg3, paper_example3, sl2
from specsub.group_spectra import (Method, group_spectrum_report, quotient_bound,
                                   radical_commutator_lambda0)
from specsub.lie_core import Ideal, MetricLieAlgebra, classify, mean_curvature


def sphere_max_trace(alg, samples=200000, seed=0):
    """Independent oracle: maximize tr(ad x) over random unit vectors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, alg.dim))
    norms = np.sqrt(np.einsum("si,ij,sj->s", x, alg.metric, x))
    x = x / norms[:, None]
    tau = trace_functional(alg)
    return float(np.max(x @ tau))


# -- lambda0 of amenable groups ---------------------------------------------------

def test_lambda0_unimodular_cases():
    for alg in (paper_example3(), heisenberg3(), abelian(2)):
        rep = group_spectrum_report(alg)
        assert rep.lambda0 == 0.0
        assert rep.cheeger == 0.0
        assert rep.method is Method.UNIMODULAR_AMENABLE_ZERO


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_lambda0_affine(c):
    rep = group_spectrum_report(affine2(c))
    assert rep.lambda0 == pytest.approx(c / 4.0, abs=1e-12)
    assert rep.cheeger == pytest.approx(np.sqrt(c), abs=1e-12)
    assert rep.method is Method.AMENABLE_FORMULA
    # maximizer is the unit multiple of X with tr(ad .) maximal
    alg = affine2(c)
    assert alg.norm(rep.maximizer) == pytest.approx(1.0, abs=1e-12)
    assert trace_functional(alg) @ rep.maximizer == pytest.approx(np.sqrt(c), abs=1e-12)


def test_lambda0_affine_against_sphere_oracle():
    for c in (0.5, 2.0):
        alg = affine2(c)
        best = sphere_max_trace(alg)
        rep = group_spectrum_report(alg)
        # dense sampling approaches the dual norm from below
        assert best <= rep.cheeger + 1e-9
        assert best == pytest.approx(rep.cheeger, rel=1e-3)


def test_lambda0_zero_iff_unimodular_given_amenable():
    for alg in (heisenberg3(), paper_example3(), abelian(3), affine2(1.0),
                make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0)])):
        rep = group_spectrum_report(alg)
        assert (rep.lambda0 == 0.0) == alg.is_unimodular()


def test_lambda0_scale_covariance():
    rng = np.random.default_rng(0)
    base = affine2(1.5)
    for _ in range(5):
        t = float(rng.uniform(0.2, 5.0))
        scaled = MetricLieAlgebra(base.dim, base.structure, t * base.metric)
        a = group_spectrum_report(base)
        b = group_spectrum_report(scaled)
        assert b.lambda0 == pytest.approx(a.lambda0 / t, rel=1e-12)
        assert b.cheeger == pytest.approx(a.cheeger / np.sqrt(t), rel=1e-12)
        cross = a.maximizer[0] * b.maximizer[1] - a.maximizer[1] * b.maximizer[0]
        assert abs(cross) < 1e-12  # same ray


# -- Cheeger constant ------------------------------------------------------------

def test_cheeger_lower_bound_values():
    assert group_spectrum_report(paper_example3()).cheeger == pytest.approx(0.0, abs=1e-12)
    assert group_spectrum_report(affine2(1.0)).cheeger == pytest.approx(1.0, abs=1e-12)
    for c in (0.25, 4.0):
        assert group_spectrum_report(affine2(c)).cheeger == pytest.approx(np.sqrt(c), abs=1e-12)


def test_cheeger_lower_bound_le_exact():
    for alg in (affine2(0.7), heisenberg3(), paper_example3()):
        # the dual norm of the trace functional, in coordinates
        tau = trace_functional(alg)
        coordinate = np.sqrt(tau @ np.linalg.solve(alg.metric, tau))
        assert group_spectrum_report(alg).cheeger == pytest.approx(coordinate, abs=1e-12)


def test_group_spectrum_report_non_amenable():
    rep = group_spectrum_report(sl2())
    assert rep.method is Method.LOWER_BOUND_ONLY
    assert rep.cheeger == 0.0  # sl2 is unimodular: trace functional vanishes


def test_a_report_carries_the_classification_it_was_decided_by(monkeypatch):
    # one classify per algebra: the report's, and in quotient_bound N's and G/N's
    calls = []
    monkeypatch.setattr(group_spectra, "classify",
                        lambda alg: calls.append(alg) or classify(alg))
    for alg, amenable in ((affine2(1.0), True), (sl2(), False)):
        rep = group_spectrum_report(alg)
        assert calls.pop() is alg and not calls
        assert rep.classification.amenable is amenable
        assert (rep.method is Method.LOWER_BOUND_ONLY) is not amenable
    alg = affine2(1.0)
    assert radical_commutator_lambda0(alg).classification.amenable
    assert calls == [alg]
    quotient_bound(Ideal(alg, [[0.0, 1.0]]))
    assert [q.dim for q in calls[1:]] == [1, 1]


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
    rep = quotient_bound(Ideal(alg, [[0.0, 1.0]]))
    assert rep.lambda0_N == 0.0
    assert rep.lambda0_quotient == 0.0
    assert rep.H_norm2 == alg.inner(rep.H, rep.H) == pytest.approx(c, abs=1e-12)
    assert rep.tr_ad_H == pytest.approx(c, abs=1e-12)
    assert rep.lower_bound == pytest.approx(c / 4.0, abs=1e-12)
    assert rep.equality_expected
    assert not rep.partial
    assert rep.lower_bound == pytest.approx(group_spectrum_report(alg).lambda0, abs=1e-12)


def test_quotient_bound_minimal_ideal_curvature_free():
    # center of heisenberg: H = 0, bound reduces to the sum of the factors
    alg = heisenberg3()
    rep = quotient_bound(Ideal(alg, [np.eye(3)[2]]))
    assert np.allclose(rep.H, 0.0)
    assert rep.lower_bound == pytest.approx(rep.lambda0_N + rep.lambda0_quotient)
    assert rep.equality_expected


def test_quotient_bound_example3_all_ideals():
    alg = paper_example3()
    e = np.eye(3)
    for span in ([e[1]], [e[2]], e[1:]):
        rep = quotient_bound(Ideal(alg, span))
        assert rep.equality_expected
        assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_quotient_bound_span_z_quarter():
    # the quotient of the unimodular example by span{Z} has lambda0 = |H|^2/4 = 1/4
    alg = paper_example3()
    rep = quotient_bound(Ideal(alg, [np.eye(3)[2]]))
    assert alg.inner(rep.H, rep.H) == pytest.approx(1.0, abs=1e-12)
    assert rep.lambda0_quotient == pytest.approx(0.25, abs=1e-12)


def test_quotient_bound_partial_flag():
    # sl2 ideal inside sl2 + R (center): quotient is sl2, not amenable
    alg = make_algebra(4, [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)])
    rep = quotient_bound(Ideal(alg, [np.eye(4)[3]]))
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
        b = group_spectrum_report(alg)
        assert a.lambda0 == pytest.approx(b.lambda0, abs=1e-9)
        assert np.allclose(a.maximizer, b.maximizer, atol=1e-9)


def test_radical_route_3d_two_route_crosscheck():
    alg = make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0)])
    # trace functional is (2, 0, 0): formula gives 1; H route must agree
    assert group_spectrum_report(alg).lambda0 == pytest.approx(1.0, abs=1e-12)
    rep = radical_commutator_lambda0(alg)
    assert rep.lambda0 == pytest.approx(1.0, abs=1e-12)
    # and the curvature really is 2X
    H = mean_curvature(Ideal(alg, np.eye(3)[1:]))
    assert np.allclose(H, [2.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("t", [1e-20, 1.0, 1e20])
def test_radical_route_cuts_the_identity_relative_to_lambda0(monkeypatch, t):
    # a mean curvature off by 1e-6 breaks |H|^2 = tr(ad H) by 1e-6 of
    # lambda0, at every scale of the structure constants
    exact = group_spectra.frame_mean_curvature
    monkeypatch.setattr(group_spectra, "frame_mean_curvature",
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
    q = quotient_bound(Ideal(alg, [[0.0, 1.0]]))
    assert list(q.H) == [t, 0.0]
    assert (q.H_norm2, q.tr_ad_H, q.lower_bound) == (h_norm2, h_norm2, lam)
    r = radical_commutator_lambda0(alg)
    assert (r.lambda0, r.cheeger, list(r.maximizer)) == (lam, t, [1.0, 0.0])
    report = group_spectrum_report(alg)
    assert (report.lambda0, report.cheeger) == (r.lambda0, r.cheeger)


def test_radical_route_takes_the_curvature_on_the_frame():
    # with the metric 0.01 I a g-orthonormal X is 10 X: tau and H are 1e308
    # there, and their coordinates 1e309 do not fit in a double; on the frame
    # both routes give lambda0 = inf and the Cheeger constant, with no warning
    base = affine2(1.0)
    alg = MetricLieAlgebra(2, 1e307 * base.structure, 0.01 * base.metric)
    r, report = radical_commutator_lambda0(alg), group_spectrum_report(alg)
    assert (r.lambda0, r.cheeger) == (report.lambda0, report.cheeger) == (INF, 1e308)
    assert list(r.maximizer) == list(report.maximizer) == [10.0, 0.0]
    assert list(mean_curvature(Ideal(alg, [[0.0, 1.0]]))) == [INF, 0.0]


def test_radical_route_preconditions():
    with pytest.raises(FormulaInapplicableError):
        radical_commutator_lambda0(paper_example3())   # unimodular
    with pytest.raises(FormulaInapplicableError):
        radical_commutator_lambda0(sl2())              # not amenable
