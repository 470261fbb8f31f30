"""Closed-form spectral invariants of connected Lie groups.

For an amenable group with a left-invariant metric the bottom of the spectrum
and the Cheeger constant are determined by the trace functional tau(x) =
tr(ad x): lambda0 = h^2/4 = max over the unit sphere of tau, squared, over 4.
For quotients by a closed connected normal subgroup N there is a lower bound

    lambda0(G) >= lambda0(G/N) + lambda0(N) - |H|^2/4 + tr(ad H)/2

with H the mean curvature of N.  For amenable G it is an equality for every
such N (tau is tau_N on N and <H, .> + tau_{G/N} on the orthogonal
complement); ``equality_expected`` keeps the frozen CSV column's narrower
flag, N unimodular and amenable.  tau and H are taken on the normalized
frame (lie_core.Frame), and a value that does not fit in a double is inf.
Every decision is cut at the algebra's own ``tols``; no function here takes
a tolerance.  A ``GroupSpectrumReport`` carries the ``classify`` report it
was decided by, and ``quotient_bound`` takes the ideal alone: N fixes G.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

import numpy as np

from ._pow2 import times_pow2
from .errors import FormulaInapplicableError
from .lie_core import (DIRECTION_TOL, ClassificationReport, Ideal, MetricLieAlgebra,
                       classify, derived_subalgebra, frame_mean_curvature,
                       quotient_algebra, restrict_to_span)


class Method(str, enum.Enum):
    UNIMODULAR_AMENABLE_ZERO = "unimodular_amenable_zero"
    AMENABLE_FORMULA = "amenable_formula"
    LOWER_BOUND_ONLY = "lower_bound_only"


class GroupSpectrumReport(NamedTuple):
    lambda0: float
    cheeger: float
    maximizer: Optional[np.ndarray]   # unit vector, sign fixed by tr(ad .) >= 0
    method: Method
    classification: ClassificationReport   # of the algebra the report is for


class QuotientBoundReport(NamedTuple):
    H: np.ndarray
    H_norm2: float                    # |H|^2
    tr_ad_H: float                    # tr(ad H)
    lower_bound: float
    equality_expected: bool
    lambda0_N: float
    lambda0_quotient: float
    partial: bool                     # a non-amenable factor was replaced by 0


def _spectrum(norm2: float, e: int, maximizer, method: Method,
              classification: ClassificationReport) -> GroupSpectrumReport:
    """lambda0 = |tau|^2/4 and the Cheeger constant |tau| from the frame's |tau|^2."""
    return GroupSpectrumReport(times_pow2(norm2 / 4.0, 2 * e),
                               times_pow2(math.sqrt(max(norm2, 0.0)), e), maximizer, method,
                               classification)


def group_spectrum_report(alg: MetricLieAlgebra) -> GroupSpectrumReport:
    """Exact report when amenable, otherwise Cheeger-based lower bounds, with
    the algebra's ``classify`` report, taken once, as ``classification``.

    The values are Python floats: one that does not fit in a double is inf,
    and one below the smallest is 0, without a warning.
    """
    rep = classify(alg)
    if rep.amenable and rep.unimodular:
        # unimodular + amenable forces exactly zero; drop the round-off noise
        return GroupSpectrumReport(0.0, 0.0, None, Method.UNIMODULAR_AMENABLE_ZERO, rep)
    fr = alg.frame
    tau = fr.trace
    norm2 = float(tau @ tau)
    maximizer = tau / math.sqrt(norm2) @ fr.inv_chol if norm2 > 0 else None
    return _spectrum(norm2, fr.exponent, maximizer,
                     Method.AMENABLE_FORMULA if rep.amenable else Method.LOWER_BOUND_ONLY, rep)


def quotient_bound(n_ideal: Ideal) -> QuotientBoundReport:
    """Assemble the quotient lower bound for lambda0 of the ideal's parent group.

    lambda0 of the subgroup and the quotient are computed by the amenable
    formula when applicable; a non-amenable factor is replaced by 0 and the
    report is flagged partial.
    """
    fr = n_ideal.parent.frame
    H = frame_mean_curvature(n_ideal)
    h, t = float(H @ H), float(fr.trace @ H)          # in units of 4**exponent
    sub, quot = (group_spectrum_report(restrict_to_span(n_ideal)),
                 group_spectrum_report(quotient_algebra(n_ideal)[0]))
    lambda0_N, lambda0_quotient = (r.lambda0 if r.classification.amenable else 0.0
                                   for r in (sub, quot))
    # the difference at unit scale: |H|^2 and tr(ad H) can overflow when it does not
    bound = lambda0_quotient + lambda0_N + times_pow2(t / 2.0 - h / 4.0, 2 * fr.exponent)
    return QuotientBoundReport(
        H=times_pow2(H @ fr.inv_chol, fr.exponent),
        H_norm2=times_pow2(h, 2 * fr.exponent),
        tr_ad_H=times_pow2(t, 2 * fr.exponent),
        lower_bound=float(bound),
        equality_expected=sub.classification.unimodular and sub.classification.amenable,
        lambda0_N=lambda0_N,
        lambda0_quotient=lambda0_quotient,
        partial=not (sub.classification.amenable and quot.classification.amenable),
    )


def radical_commutator_lambda0(alg: MetricLieAlgebra) -> GroupSpectrumReport:
    """lambda0 through the mean curvature of the commutator of the radical.

    Requires an amenable, non-unimodular algebra with non-abelian radical.
    Cross-checks tr(ad H)/4 against |H|^2/4 and the maximizer of the trace
    functional against the direction of H.
    """
    spectrum = group_spectrum_report(alg)
    rep = spectrum.classification
    if not rep.amenable:
        raise FormulaInapplicableError("requires an amenable group")
    if rep.unimodular:
        raise FormulaInapplicableError("unimodular groups have lambda0 = 0; "
                                       "the curvature route needs tr(ad .) != 0")
    commutator = derived_subalgebra(rep.radical)
    if commutator.dim == 0:
        raise FormulaInapplicableError("radical is abelian; no commutator direction")
    fr = alg.frame
    H = frame_mean_curvature(commutator)
    h, t = float(H @ H), float(fr.trace @ H)          # in units of 4**exponent
    if abs(t - h) > alg.tols.rank_tol * max(abs(t), abs(h)):
        raise FormulaInapplicableError(
            f"curvature identity violated: tr route {times_pow2(t / 4.0, 2 * fr.exponent)} "
            f"vs norm route {times_pow2(h / 4.0, 2 * fr.exponent)}")
    direction = H / math.sqrt(h) @ fr.inv_chol
    # not unimodular, so tau and its maximizer are not zero
    gap = alg.norm(direction - spectrum.maximizer)
    if gap > DIRECTION_TOL:
        raise FormulaInapplicableError(
            f"maximizer direction mismatch ({gap:.2e}) between the trace "
            "functional and the mean curvature")
    return _spectrum(t, fr.exponent, direction, Method.AMENABLE_FORMULA, rep)
