"""Closed-form spectral invariants of connected Lie groups.

For an amenable group with a left-invariant metric the bottom of the spectrum
and the Cheeger constant are determined by the trace functional tau(x) =
tr(ad x): lambda0 = h^2/4 = max over the unit sphere of tau, squared, over 4.
For quotients by a closed connected normal subgroup N there is a lower bound

    lambda0(G) >= lambda0(G/N) + lambda0(N) - |H|^2/4 + tr(ad H)/2

with H the mean curvature of N, and equality exactly when N is unimodular and
amenable.  Everything reduces to lie_core linear algebra; no discretization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormulaInapplicableError
from .lie_core import (
    ClassificationReport,
    Ideal,
    MetricLieAlgebra,
    classify,
    derived_subalgebra,
    mean_curvature,
    quotient_algebra,
    restrict_to_span,
)
from .tolerances import Tolerances, DEFAULT


class Method(str, enum.Enum):
    UNIMODULAR_AMENABLE_ZERO = "unimodular_amenable_zero"
    AMENABLE_FORMULA = "amenable_formula"
    LOWER_BOUND_ONLY = "lower_bound_only"


@dataclass(frozen=True)
class GroupSpectrumReport:
    lambda0: float
    cheeger: float
    maximizer: Optional[np.ndarray]   # unit vector, sign fixed by tr(ad .) >= 0
    method: Method


@dataclass(frozen=True)
class QuotientBoundReport:
    ideal: Ideal
    H: np.ndarray
    H_norm2: float                    # |H|^2
    tr_ad_H: float                    # tr(ad H)
    lower_bound: float
    equality_expected: bool
    lambda0_N: Optional[float]
    lambda0_quotient: Optional[float]
    partial: bool                     # a non-amenable factor was replaced by 0


def _trace_dual(alg: MetricLieAlgebra):
    """(T, |tau|^2, e) for the trace functional tau = tr(ad .) taken times
    2**-e, with e the exponent of max |tau| (the scaled maximum lies in
    [1, 2)): T = g^-1 tau is its metric dual and |tau|^2 = tau(T).  The
    rescaling is exact, so sup of tau over the unit sphere is
    sqrt(|tau|^2) 2**e at any scale of the structure constants."""
    tau, e = _rescaled(alg.trace_covector())
    T = np.linalg.solve(alg.metric, tau)
    return T, max(float(tau @ T), 0.0), e


def _rescaled(*vectors):
    """The vectors times 2**-e, and e, the exponent of their largest entry
    (scaled, it lies in [1, 2)): exact at any scale of the entries."""
    top = max(float(np.max(np.abs(v), initial=0.0)) for v in vectors)
    e = math.frexp(top)[1] - 1
    return (*(np.ldexp(v, -e) for v in vectors), e)


def _curvature_terms(alg: MetricLieAlgebra, H: np.ndarray):
    """(H, |H|^2, tr(ad H), unit) with H and tau = tr(ad .) divided by unit,
    a power of two: each product is the unscaled one over unit^2."""
    H, tau, e = _rescaled(H, alg.trace_covector())
    return H, alg.inner(H, H), float(tau @ H), 2.0 ** e


def cheeger_lower_bound(alg: MetricLieAlgebra) -> float:
    """max(0, sup of tr(ad x) over the unit sphere); valid for any group."""
    _, norm2, e = _trace_dual(alg)
    return math.sqrt(norm2) * 2.0 ** e


def lambda0_amenable(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT,
                     report: Optional[ClassificationReport] = None) -> GroupSpectrumReport:
    """Exact lambda0 and Cheeger constant of an amenable group.

    Raises FormulaInapplicableError when the algebra is not amenable; callers
    can still use cheeger_lower_bound in that case.
    """
    rep = report if report is not None else classify(alg, tols)
    if not rep.amenable:
        raise FormulaInapplicableError(
            "lambda0 formula requires an amenable group; "
            "only the Cheeger lower bound applies")
    return group_spectrum_report(alg, tols, report=rep)


def group_spectrum_report(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT,
                          report: Optional[ClassificationReport] = None) -> GroupSpectrumReport:
    """Exact report when amenable, otherwise Cheeger-based lower bounds.

    The values are Python floats: one that does not fit in a double is inf,
    and one below the smallest is 0, without a warning.
    """
    rep = report if report is not None else classify(alg, tols)
    if rep.amenable and rep.unimodular:
        # unimodular + amenable forces exactly zero; drop the round-off noise
        return GroupSpectrumReport(0.0, 0.0, None, Method.UNIMODULAR_AMENABLE_ZERO)
    T, norm2, e = _trace_dual(alg)
    unit = 2.0 ** e
    maximizer = T / alg.norm(T) if norm2 > 0 else None
    method = Method.AMENABLE_FORMULA if rep.amenable else Method.LOWER_BOUND_ONLY
    return GroupSpectrumReport(norm2 / 4.0 * unit * unit, math.sqrt(norm2) * unit,
                               maximizer, method)


def quotient_bound(alg: MetricLieAlgebra, n_ideal: Ideal,
                   tols: Tolerances = DEFAULT,
                   lambda0_N: Optional[float] = None,
                   lambda0_quotient: Optional[float] = None) -> QuotientBoundReport:
    """Assemble the quotient lower bound for lambda0 of the group.

    lambda0 of the subgroup and the quotient are computed by the amenable
    formula when applicable; a non-amenable factor without a caller-supplied
    value is replaced by 0 and the report is flagged partial.
    """
    H = mean_curvature(alg, n_ideal, tols)
    _, h, t, unit = _curvature_terms(alg, H)
    h_norm2, tr_ad_h = h * unit * unit, t * unit * unit

    partial = False
    sub_alg = restrict_to_span(alg, n_ideal, tols)
    sub_rep = classify(sub_alg, tols)
    if lambda0_N is None:
        if sub_rep.amenable:
            lambda0_N = lambda0_amenable(sub_alg, tols, report=sub_rep).lambda0
        else:
            lambda0_N, partial = 0.0, True

    quot_alg, _ = quotient_algebra(alg, n_ideal, tols)
    if lambda0_quotient is None:
        quot_rep = classify(quot_alg, tols)
        if quot_rep.amenable:
            lambda0_quotient = lambda0_amenable(quot_alg, tols, report=quot_rep).lambda0
        else:
            lambda0_quotient, partial = 0.0, True

    bound = lambda0_quotient + lambda0_N - h_norm2 / 4.0 + tr_ad_h / 2.0
    if math.isnan(bound):
        # |H|^2 and tr(ad H) both overflow: take their difference before scaling back
        bound = lambda0_quotient + lambda0_N + (t / 2.0 - h / 4.0) * unit * unit
    equality = bool(sub_rep.unimodular and sub_rep.amenable)
    return QuotientBoundReport(
        ideal=n_ideal,
        H=H,
        H_norm2=h_norm2,
        tr_ad_H=tr_ad_h,
        lower_bound=float(bound),
        equality_expected=equality,
        lambda0_N=lambda0_N,
        lambda0_quotient=lambda0_quotient,
        partial=partial,
    )


def radical_commutator_lambda0(alg: MetricLieAlgebra,
                               tols: Tolerances = DEFAULT) -> GroupSpectrumReport:
    """lambda0 through the mean curvature of the commutator of the radical.

    Requires an amenable, non-unimodular algebra with non-abelian radical.
    Cross-checks tr(ad H)/4 against |H|^2/4 and the maximizer of the trace
    functional against the direction of H.
    """
    rep = classify(alg, tols)
    if not rep.amenable:
        raise FormulaInapplicableError("requires an amenable group")
    if rep.unimodular:
        raise FormulaInapplicableError("unimodular groups have lambda0 = 0; "
                                       "the curvature route needs tr(ad .) != 0")
    commutator = derived_subalgebra(alg, rep.radical, tols)
    if commutator.dim == 0:
        raise FormulaInapplicableError("radical is abelian; no commutator direction")
    H, h, t, unit = _curvature_terms(alg, mean_curvature(alg, commutator, tols))
    lam_trace, lam_norm = t / 4.0, h / 4.0      # in units of unit^2
    if abs(lam_trace - lam_norm) > tols.identity_tol * max(abs(lam_trace), abs(lam_norm)):
        raise FormulaInapplicableError(
            f"curvature identity violated: tr route {lam_trace * unit * unit} "
            f"vs norm route {lam_norm * unit * unit}")
    direction = H / alg.norm(H)
    formula = lambda0_amenable(alg, tols, report=rep)
    if formula.maximizer is not None:
        gap = alg.norm(direction - formula.maximizer)
        if gap > 1e-6:
            raise FormulaInapplicableError(
                f"maximizer direction mismatch ({gap:.2e}) between the trace "
                "functional and the mean curvature")
    return GroupSpectrumReport(lam_trace * unit * unit,
                               2.0 * math.sqrt(max(lam_trace, 0.0)) * unit,
                               direction, Method.AMENABLE_FORMULA)
