"""Metric Lie algebras from structure constants.

A finite-dimensional real Lie algebra is stored as a rank-3 array c with
[e_i, e_j] = sum_k c[i,j,k] e_k together with a positive-definite inner
product g on the same basis.  Everything here is exact linear algebra up to
floating point: brackets, adjoint maps, structural classification (solvable,
nilpotent, radical, compact-type Levi factor) and the mean curvature of the
subgroup generated by an ideal.  Every decision is taken on one normalized
copy of the structure constants (``MetricLieAlgebra.frame``), so it is the
same for the algebra with constants t c, and for any metric t g, and cut at
the algebra's own ``tols``, which its quotients, sub-algebras and ideals
inherit: no function here takes a tolerance.  An ``Ideal`` carries its
algebra, so a function of an ideal takes the ideal alone.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._pow2 import exponent, times_pow2
from .errors import NotAnIdealError
# DIRECTION_TOL is group_spectra's, which takes its cuts through this module
from .tolerances import ANTISYM_TOL, DEFAULT, DIRECTION_TOL, SPD_TOL, Tolerances  # noqa: F401


def _asvec(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {np.shape(x)}")
    return v


def _frozen(a) -> np.ndarray:
    """``a`` read-only: a frozen float array that owns its memory is kept, a
    writable array or a view (its owner could still write) is copied."""
    b = np.asarray(a, dtype=float)
    if b.base is not None or (b is a and b.flags.writeable):
        b = b.copy()
    b.setflags(write=False)
    return b


class Frame(NamedTuple):
    """The structure constants in a g-orthonormal basis times 2**-exponent,
    where sigma = scale * 2**exponent is their Frobenius norm (scale in
    [0.5, 1), or 1 when sigma = 0).  A vector v has the frame components
    ``v @ chol``, frame rows w the coordinates ``w @ inv_chol``."""

    chol: np.ndarray
    inv_chol: np.ndarray
    structure: np.ndarray
    scale: float
    exponent: int

    @property
    def trace(self) -> np.ndarray:
        """The trace functional on the frame: tr(ad f_i) * 2**-exponent."""
        return np.einsum("ijj->i", self.structure)


class MetricLieAlgebra:
    """Lie algebra with structure constants ``structure``, inner product
    ``metric`` and the cuts ``tols`` of every decision on it.  Two algebras
    are equal when they are the same object."""

    def __init__(self, dim: int, structure, metric, tols: Tolerances = DEFAULT):
        c = _frozen(structure)         # (n, n, n), [e_i, e_j] = structure[i, j, :]
        g = _frozen(metric)            # (n, n) symmetric positive definite
        n = int(dim)
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape {(n, n, n)}")
        if g.shape != (n, n):
            raise ValueError(f"metric must have shape {(n, n)}")
        self.dim, self.structure, self.metric, self.tols = n, c, g, tols

    @cached_property
    def frame(self) -> Frame:
        """The normalized frame, built once: every decision is taken on it."""
        L = np.linalg.cholesky(self.metric)
        inv = np.linalg.inv(L)
        # a power of two near max|c| first: exact, and then the norm cannot overflow
        e = exponent(np.max(np.abs(self.structure), initial=0.0), "non-finite structure constants")
        hat = _bracket_products(times_pow2(self.structure, -e), inv, inv) @ L
        sigma = float(np.linalg.norm(hat))
        shift = exponent(sigma, "the bracket in a g-orthonormal basis overflows a double")
        hat = times_pow2(hat, -shift)
        hat.setflags(write=False)
        return Frame(L, inv, hat, times_pow2(sigma, -shift) or 1.0, e + shift)

    # -- basic linear algebra -------------------------------------------------

    def bracket(self, x, y) -> np.ndarray:
        x = _asvec(x, self.dim)
        y = _asvec(y, self.dim)
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad_matrix(self, x) -> np.ndarray:
        """Matrix of ad(x): y -> [x, y] in the stored basis."""
        x = _asvec(x, self.dim)
        # (ad x)[k, j] = sum_i x_i c[i, j, k]
        return np.einsum("i,ijk->kj", x, self.structure)

    def inner(self, x, y) -> float:
        return float(_asvec(x, self.dim) @ self.metric @ _asvec(y, self.dim))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def is_unimodular(self) -> bool:
        """Whether tr(ad x) vanishes, cut at rank_tol relative to sigma on the frame."""
        return bool(np.max(np.abs(self.frame.trace), initial=0.0)
                    < self.tols.rank_tol * self.frame.scale)

    def killing_form(self) -> np.ndarray:
        return _killing(self.structure)


class Ideal:
    """Subspace of the MetricLieAlgebra ``parent`` given by a spanning set of
    coordinate rows, with a g-orthonormal basis ``onb`` and the same basis as
    rows of the frame, ``frame_onb``.  Subalgebra and ideal are checked by
    residuals, not assumed.  Two ideals are equal when they are the same object."""

    def __init__(self, parent: MetricLieAlgebra, span):
        span = np.atleast_2d(np.asarray(span, dtype=float))
        if span.size == 0:
            span = np.zeros((0, parent.dim))
        if span.shape[1] != parent.dim:
            raise ValueError("spanning vectors must live in the parent algebra")
        fr = parent.frame
        rows = _orthonormal(parent, span @ fr.chol)
        self.parent, self.span = parent, _frozen(span)
        self.onb, self.frame_onb = _frozen(rows @ fr.inv_chol), _frozen(rows)

    @property
    def dim(self) -> int:
        return self.onb.shape[0]

    def residual_off(self, v) -> float:
        """Metric norm of the component of v outside the span."""
        v = _asvec(v, self.parent.dim)
        return self.parent.norm(v - (self.onb @ (self.parent.metric @ v)) @ self.onb)

    def _max_residual_off(self, prods: np.ndarray) -> float:
        """Largest norm of the out-of-span part of frame brackets over sigma."""
        rest = prods.reshape(-1, self.parent.dim)
        rest = rest - (rest @ self.frame_onb.T) @ self.frame_onb
        return float(np.max(np.linalg.norm(rest, axis=1), initial=0.0)) / self.parent.frame.scale

    def subalgebra_residual(self) -> float:
        rows = self.frame_onb
        return self._max_residual_off(_bracket_products(self.parent.frame.structure, rows, rows))

    def ideal_residual(self) -> float:
        # [b, i, :] = [e_i, frame_onb[b]] over the frame basis e_i
        return self._max_residual_off(
            np.tensordot(self.frame_onb, self.parent.frame.structure, axes=(1, 1)))

    def is_subalgebra(self) -> bool:
        return self.subalgebra_residual() < self.parent.tols.rank_tol

    def is_ideal(self) -> bool:
        return self.ideal_residual() < self.parent.tols.rank_tol

    def frame_complement(self) -> np.ndarray:
        """Orthonormal frame rows spanning the orthogonal complement."""
        n = self.parent.dim
        if self.dim == n:
            # the rows below would be round-off alone, with no top to cut against
            return np.zeros((0, n))
        comp = _orthonormal(self.parent, np.eye(n) - self.frame_onb.T @ self.frame_onb)
        if comp.shape[0] != n - self.dim:
            raise RuntimeError("complement rank detection failed")
        return comp


class ValidationReport(NamedTuple):
    antisymmetry_residual: float   # max |c + c^T| on the frame, over sigma
    jacobi_residual: float         # max Jacobi residual on the frame, over sigma^2
    metric_symmetry_residual: float
    min_metric_eigenvalue: float
    ok: bool


class ClassificationReport(NamedTuple):
    unimodular: bool
    solvable: bool
    nilpotent: bool
    semisimple: bool
    amenable: bool
    radical: Ideal
    derived_series_lengths: tuple
    numerically_marginal: bool
    derivation: str


def metric_definiteness(g: np.ndarray):
    """(smallest eigenvalue of g, whether it exceeds SPD_TOL times the largest):
    a metric's scale is not degeneracy.  LAPACK reads one triangle and can
    miss a NaN, so a non-finite entry fails first."""
    if not np.isfinite(g).all():
        return math.nan, False
    eigs = np.linalg.eigvalsh(g)
    return float(eigs[0]), bool(eigs[0] > SPD_TOL * eigs[-1])


def validate(alg: MetricLieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity on the normalized frame,
    relative to sigma and sigma^2, and the metric relative to its own size;
    without finite constants and a definite metric, no frame: NaN residuals."""
    g = alg.metric
    gsym = float(np.max(np.abs(g - g.T), initial=0.0))
    min_eig, definite = metric_definiteness(g)
    if not (definite and gsym <= ANTISYM_TOL * np.max(np.abs(g))
            and np.isfinite(alg.structure).all()):
        return ValidationReport(math.nan, math.nan, gsym, min_eig, False)
    fr, n = alg.frame, alg.dim
    c = fr.structure
    anti = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))), initial=0.0)) / fr.scale
    # jac[i,j,l,k] = cyc[i,j,l,k] + cyc[l,i,j,k] + cyc[j,l,i,k] with
    # cyc[i,j,l,k] = sum_m c[i,j,m] c[m,l,k].  One output component k at a
    # time keeps all three cyclic terms in the same O(n^3) slice; the maximum
    # over slices is taken by numpy so that a NaN propagates into the residual.
    flat = c.reshape(n * n, n)
    slice_max = np.zeros(n)
    for k in range(n):
        cyc = (flat @ c[:, :, k]).reshape(n, n, n)
        jac = cyc + np.transpose(cyc, (1, 2, 0)) + np.transpose(cyc, (2, 0, 1))
        slice_max[k] = np.max(np.abs(jac))
    jacobi = float(np.max(slice_max, initial=0.0)) / fr.scale ** 2
    ok = anti < ANTISYM_TOL and jacobi < alg.tols.jacobi_tol
    return ValidationReport(anti, jacobi, gsym, min_eig, ok)


def full_ideal(alg: MetricLieAlgebra) -> Ideal:
    return Ideal(alg, np.eye(alg.dim))


def zero_ideal(alg: MetricLieAlgebra) -> Ideal:
    return Ideal(alg, np.zeros((0, alg.dim)))


def _bracket_products(c: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """prods[a, b, :] = [rows_a[a], rows_b[b]] as two BLAS contractions."""
    left = np.tensordot(rows_a, c, axes=(1, 0))                        # [a, j, k]
    return np.tensordot(rows_b, left, axes=(1, 1)).transpose(1, 0, 2)  # [a, b, k]


def _killing(c: np.ndarray) -> np.ndarray:
    # B[i, j] = tr(ad e_i ad e_j) = sum_{a,b} c[i,b,a] c[j,a,b]
    return np.tensordot(c, c, axes=([1, 2], [2, 1]))


def _rank(values: np.ndarray, scale: float, tol: float):
    """(rank, marginal): how many |values| exceed the cut tol * scale, and
    whether any value lies within two decades of that cut."""
    a = np.abs(values)
    cut = tol * scale
    marginal = bool(np.any((a > 1e-2 * cut) & (a < 1e2 * cut)))
    return int(np.count_nonzero(a > cut)), marginal


def _orthonormal(alg: MetricLieAlgebra, rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``rows`` of alg's frame.  A span of vectors
    has no algebra scale, so the rank is cut relative to the top singular value."""
    s, vt = np.linalg.svd(rows, full_matrices=False)[1:]
    return vt[:_rank(s, np.max(s, initial=0.0), alg.tols.rank_tol)[0]]


def _bracket_span(alg: MetricLieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray):
    """The ideal spanned by [rows_a, rows_b] of frame rows, and whether the
    rank cut was marginal."""
    fr = alg.frame
    prods = _bracket_products(fr.structure, rows_a, rows_b).reshape(-1, alg.dim)
    # the tall product matrix only enters through its R factor; this skips
    # forming the left singular vectors
    s, vt = np.linalg.svd(np.linalg.qr(prods, mode="r"), full_matrices=False)[1:]
    rank, marginal = _rank(s, fr.scale, alg.tols.rank_tol)
    return Ideal(alg, vt[:rank] @ fr.inv_chol), marginal


def derived_subalgebra(sub: Ideal) -> Ideal:
    """Span of all brackets of pairs of spanning vectors of ``sub``; the
    algebra's own derived algebra is ``derived_subalgebra(full_ideal(alg))``."""
    rows = sub.frame_onb
    return _bracket_span(sub.parent, rows, rows)[0]


def _series(alg, step, start):
    """The series of ideals ``start`` (the whole algebra, then [g, g])
    continued by a span-shrinking bracket step until the dimension
    stabilizes, and whether any cut of the continuation was marginal."""
    series, marginal = list(start), False
    for _ in range(alg.dim):
        if series[-1].dim in (0, series[-2].dim):
            break
        ideal, flag = step(series[-1].frame_onb)
        series.append(ideal)
        marginal = marginal or flag
    return series, marginal


def quotient_algebra(n_ideal: Ideal):
    """Quotient of the parent algebra by an ideal, on the metric complement of the span.

    Returns (quotient algebra with identity metric and the parent's cuts,
    pushforward matrix P) where P maps parent coordinates to quotient
    coordinates and is an isometry on the complement.
    """
    if n_ideal.dim > 0 and not n_ideal.is_ideal():
        raise NotAnIdealError("span is not an ideal; quotient bracket undefined")
    alg, F = n_ideal.parent, n_ideal.frame_complement()
    return _on_rows(alg, F), F @ alg.frame.inv_chol @ alg.metric


def restrict_to_span(sub: Ideal) -> MetricLieAlgebra:
    """The subalgebra spanned by ``sub`` with the restricted metric and the parent's cuts."""
    if sub.dim > 0 and not sub.is_subalgebra():
        raise NotAnIdealError("span is not closed under the bracket")
    return _on_rows(sub.parent, sub.frame_onb)


def _on_rows(alg: MetricLieAlgebra, F: np.ndarray) -> MetricLieAlgebra:
    """The bracket on the span of orthonormal frame rows F, in the basis
    F @ inv_chol: identity metric, and the parent's cuts, frame sigma and exponent."""
    fr, n = alg.frame, F.shape[0]
    hat = _bracket_products(fr.structure, F, F) @ F.T
    hat.setflags(write=False)
    c = times_pow2(hat, fr.exponent)
    c.setflags(write=False)
    sub = MetricLieAlgebra(n, c, np.eye(n), alg.tols)
    sub.frame = Frame(np.eye(n), np.eye(n), hat, fr.scale, fr.exponent)
    return sub


def classify(alg: MetricLieAlgebra) -> ClassificationReport:
    """Structural booleans of the algebra.

    solvable/nilpotent come from the derived and lower central series,
    the radical from the Killing-orthogonal of the derived algebra, and
    amenability from the definiteness of the Killing form of the Levi
    quotient (compact type) -- quotient zero counts as amenable.  Every cut
    is ``_rank`` at ``alg.tols.rank_tol`` on the normalized frame with plain
    projections: bracket values and the trace functional against sigma,
    Killing values against sigma^2.
    """
    if alg.dim == 0:
        return ClassificationReport(True, True, True, True, True, zero_ideal(alg), (0,),
                                    False, "zero algebra")
    fr, tol = alg.frame, alg.tols.rank_tol
    # both series start g, [g, g]
    g = full_ideal(alg)
    top = g.frame_onb
    gg, marginal = _bracket_span(alg, top, top)
    derived, derived_marginal = _series(alg, lambda s: _bracket_span(alg, s, s), (g, gg))
    lower, lower_marginal = _series(alg, lambda s: _bracket_span(alg, top, s), (g, gg))
    solvable, nilpotent = derived[-1].dim == 0, lower[-1].dim == 0
    # the radical is the Killing-orthogonal of the derived algebra: the null
    # space of the rows v -> B(d_a, v)
    s, vt = np.linalg.svd(derived[1].frame_onb @ _killing(fr.structure),
                          full_matrices=True)[1:]
    rank, radical_marginal = _rank(s, fr.scale ** 2, tol)
    rad = Ideal(alg, vt[rank:] @ fr.inv_chol)
    marginal = marginal or derived_marginal or lower_marginal or radical_marginal
    if solvable and rad.dim != alg.dim:
        # keep the report consistent when rank decisions disagree
        rad, marginal = g, True
    semisimple = rad.dim == 0
    if rad.dim == alg.dim:
        amenable = True
        derivation = "solvable radical is everything; compact extension trivial"
    else:
        if not rad.is_ideal():
            raise NotAnIdealError("the radical cut is not an ideal; no Levi quotient")
        Q = rad.frame_complement()
        eigs = np.linalg.eigvalsh(_killing(_bracket_products(fr.structure, Q, Q) @ Q.T))
        rank, levi_marginal = _rank(eigs, fr.scale ** 2, tol)
        amenable = rank == eigs.size and bool(np.max(eigs) < 0.0)
        marginal = marginal or levi_marginal
        derivation = ("Levi quotient Killing form negative definite"
                      if amenable else "Levi quotient of non-compact type")
    return ClassificationReport(
        alg.is_unimodular(), solvable, nilpotent, semisimple, amenable,
        rad, tuple(i.dim for i in derived), marginal, derivation)


def mean_curvature(n_ideal: Ideal) -> np.ndarray:
    """Mean curvature vector of the subgroup generated by an ideal.

    The complement part of the sum of nabla_E E over a g-orthonormal basis
    {E} of the ideal.  The Koszul formula with x = y = E gives
    <nabla_E E, z> = <[z, E], E>, so <H, z> is the trace of ad z restricted
    to the ideal (Milnor, Adv. Math. 21, 1976): one contraction on the frame.
    Coordinates that do not fit in a double are inf, without a warning.
    """
    fr = n_ideal.parent.frame
    return times_pow2(frame_mean_curvature(n_ideal) @ fr.inv_chol, fr.exponent)


def frame_mean_curvature(n_ideal: Ideal) -> np.ndarray:
    """``mean_curvature`` in frame components times 2**-exponent: <H, f_k> is
    tr(P ad f_k) with P = F^T F for the ideal's frame rows F, less its F part."""
    if n_ideal.dim > 0 and not n_ideal.is_ideal():
        raise NotAnIdealError("mean curvature needs an ideal")
    F = n_ideal.frame_onb
    H = np.einsum("kim,mi->k", n_ideal.parent.frame.structure, F.T @ F)
    return H - (H @ F.T) @ F
