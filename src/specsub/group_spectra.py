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
    lower_bound: float
    equality_expected: bool
    lambda0_N: Optional[float]
    lambda0_quotient: Optional[float]
    partial: bool                     # a non-amenable factor was replaced by 0


def _dual_data(alg: MetricLieAlgebra):
    tau = alg.trace_covector()
    T = tau.metric_dual()
    norm2 = float(tau.components @ T)
    return tau, T, max(norm2, 0.0)


def cheeger_lower_bound(alg: MetricLieAlgebra) -> float:
    """max(0, sup of tr(ad x) over the unit sphere); valid for any group."""
    _, _, norm2 = _dual_data(alg)
    return float(np.sqrt(norm2))


def lambda0_amenable(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT,
                     report: Optional[ClassificationReport] = None) -> GroupSpectrumReport:
    """Exact lambda0 and Cheeger constant of an amenable group.

    Raises FormulaInapplicableError when the algebra is not amenable; callers
    can still use cheeger_lower_bound in that case.
    """
    if alg.dim == 0:
        return GroupSpectrumReport(0.0, 0.0, None, Method.UNIMODULAR_AMENABLE_ZERO)
    rep = report if report is not None else classify(alg, tols)
    if not rep.amenable:
        raise FormulaInapplicableError(
            "lambda0 formula requires an amenable group; "
            "only the Cheeger lower bound applies")
    _, T, norm2 = _dual_data(alg)
    if rep.unimodular:
        # unimodular + amenable forces exactly zero; drop the round-off noise
        return GroupSpectrumReport(0.0, 0.0, None, Method.UNIMODULAR_AMENABLE_ZERO)
    cheeger = float(np.sqrt(norm2))
    maximizer = T / alg.norm(T)
    return GroupSpectrumReport(norm2 / 4.0, cheeger, maximizer, Method.AMENABLE_FORMULA)


def group_spectrum_report(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT,
                          report: Optional[ClassificationReport] = None) -> GroupSpectrumReport:
    """Exact report when amenable, otherwise Cheeger-based lower bounds."""
    rep = report if report is not None else classify(alg, tols)
    if rep.amenable:
        return lambda0_amenable(alg, tols, report=rep)
    low = cheeger_lower_bound(alg)
    _, T, norm2 = _dual_data(alg)
    maximizer = T / alg.norm(T) if norm2 > 0 else None
    return GroupSpectrumReport(low * low / 4.0, low, maximizer, Method.LOWER_BOUND_ONLY)


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
    tau = alg.trace_covector()
    h_norm2 = alg.inner(H, H)
    tr_ad_h = tau(H)

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
    equality = bool(sub_rep.unimodular and sub_rep.amenable)
    return QuotientBoundReport(
        ideal=n_ideal,
        H=H,
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
    H = mean_curvature(alg, commutator, tols)
    tau = alg.trace_covector()
    lam_trace = tau(H) / 4.0
    lam_norm = alg.inner(H, H) / 4.0
    if abs(lam_trace - lam_norm) > tols.identity_tol * max(1.0, abs(lam_trace)):
        raise FormulaInapplicableError(
            f"curvature identity violated: tr route {lam_trace} vs norm route {lam_norm}")
    direction = H / alg.norm(H)
    formula = lambda0_amenable(alg, tols, report=rep)
    if formula.maximizer is not None:
        gap = alg.norm(direction - formula.maximizer)
        if gap > 1e-6:
            raise FormulaInapplicableError(
                f"maximizer direction mismatch ({gap:.2e}) between the trace "
                "functional and the mean curvature")
    return GroupSpectrumReport(float(lam_trace), float(2.0 * np.sqrt(max(lam_trace, 0.0))),
                               direction, Method.AMENABLE_FORMULA)
