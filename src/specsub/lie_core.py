"""Metric Lie algebras from structure constants.

A finite-dimensional real Lie algebra is stored as a rank-3 array c with
[e_i, e_j] = sum_k c[i,j,k] e_k together with a positive-definite inner
product g on the same basis.  Everything here is exact linear algebra up to
floating point: brackets, adjoint maps, structural classification (solvable,
nilpotent, radical, compact-type Levi factor) and the mean curvature of the
subgroup generated by an ideal.  Every decision is taken on one normalized
copy of the structure constants (``MetricLieAlgebra.frame``), so it is the
same for the algebra with constants t c, and for any metric t g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import NotAnIdealError
from .tolerances import Tolerances, DEFAULT


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


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Lie algebra with structure constants ``structure`` and inner product ``metric``."""

    dim: int
    structure: np.ndarray          # (n, n, n), [e_i, e_j] = structure[i, j, :]
    metric: np.ndarray             # (n, n) symmetric positive definite
    basis_labels: Optional[tuple] = None

    def __post_init__(self):
        c = _frozen(self.structure)
        g = _frozen(self.metric)
        n = int(self.dim)
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape {(n, n, n)}")
        if g.shape != (n, n):
            raise ValueError(f"metric must have shape {(n, n)}")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "metric", g)
        # (scale, exponent) of a parent's Frame, not a field: _on_rows sets it
        # so that round-off is cut against the parent's sigma
        object.__setattr__(self, "_parent_scale", None)
        if self.basis_labels is not None:
            labels = tuple(str(s) for s in self.basis_labels)
            if len(labels) != n:
                raise ValueError("need one label per basis vector")
            object.__setattr__(self, "basis_labels", labels)

    @cached_property
    def frame(self) -> Frame:
        """The normalized frame, built once: every decision is taken on it."""
        L = np.linalg.cholesky(self.metric)
        inv = np.linalg.inv(L)
        c = self.structure
        # a power of two near max|c| first: exact, and then the norm cannot
        # overflow; a restricted algebra keeps its parent's (scale, exponent)
        scale, exponent = self._parent_scale or (
            None, int(np.frexp(np.max(np.abs(c), initial=0.0))[1]))
        hat = _bracket_products(np.ldexp(c, -exponent), inv, inv) @ L
        if scale is None:
            scale, shift = math.frexp(float(np.linalg.norm(hat)))
            hat, exponent = np.ldexp(hat, -shift), exponent + shift
        hat.setflags(write=False)
        return Frame(L, inv, hat, scale or 1.0, exponent)

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

    def trace_covector(self) -> np.ndarray:
        """The trace functional as a read-only vector: tau @ x = tr(ad x)."""
        tau = np.einsum("ijj->i", self.structure)
        tau.setflags(write=False)
        return tau

    def is_unimodular(self, tol: float = DEFAULT.unimodular_tol) -> bool:
        """Whether tr(ad x) vanishes, cut at tol relative to sigma on the frame."""
        trace = np.einsum("ijj->i", self.frame.structure)
        return bool(np.max(np.abs(trace), initial=0.0) < tol * self.frame.scale)

    def killing_form(self) -> np.ndarray:
        return _killing(self.structure)


@dataclass(frozen=True)
class Ideal:
    """Subspace of a MetricLieAlgebra given by a spanning set of coordinate rows,
    with a g-orthonormal basis ``onb`` and the same basis as rows of the frame,
    ``frame_onb``.  Subalgebra and ideal are checked by residuals, not assumed."""

    parent: MetricLieAlgebra
    span: np.ndarray
    onb: np.ndarray = field(init=False)
    frame_onb: np.ndarray = field(init=False)

    def __post_init__(self):
        span = np.atleast_2d(np.asarray(self.span, dtype=float))
        if span.size == 0:
            span = np.zeros((0, self.parent.dim))
        if span.shape[1] != self.parent.dim:
            raise ValueError("spanning vectors must live in the parent algebra")
        object.__setattr__(self, "span", _frozen(span))
        fr = self.parent.frame
        rows = _orthonormal(span @ fr.chol)
        object.__setattr__(self, "frame_onb", _frozen(rows))
        object.__setattr__(self, "onb", _frozen(rows @ fr.inv_chol))

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

    def is_subalgebra(self, tol: float = DEFAULT.ideal_tol) -> bool:
        return self.subalgebra_residual() < tol

    def is_ideal(self, tol: float = DEFAULT.ideal_tol) -> bool:
        return self.ideal_residual() < tol

    def frame_complement(self) -> np.ndarray:
        """Orthonormal frame rows spanning the orthogonal complement."""
        n = self.parent.dim
        if self.dim == n:
            # the rows below would be round-off alone, with no top to cut against
            return np.zeros((0, n))
        comp = _orthonormal(np.eye(n) - self.frame_onb.T @ self.frame_onb)
        if comp.shape[0] != n - self.dim:
            raise RuntimeError("complement rank detection failed")
        return comp

    def complement_onb(self) -> np.ndarray:
        """g-orthonormal basis of the orthogonal complement of the span."""
        return self.frame_complement() @ self.parent.frame.inv_chol


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_residual: float   # max |c + c^T| on the frame, over sigma
    jacobi_residual: float         # max Jacobi residual on the frame, over sigma^2
    metric_symmetry_residual: float
    min_metric_eigenvalue: float
    ok: bool


@dataclass(frozen=True)
class ClassificationReport:
    unimodular: bool
    solvable: bool
    nilpotent: bool
    semisimple: bool
    amenable: bool
    radical: Ideal
    derived_series_lengths: tuple
    numerically_marginal: bool
    derivation: str


def metric_definiteness(g: np.ndarray, tol: float):
    """(smallest eigenvalue of g, whether it exceeds tol times the largest):
    a metric's scale is not degeneracy.  LAPACK reads one triangle and can
    miss a NaN, so a non-finite entry fails first."""
    if not np.isfinite(g).all():
        return math.nan, False
    eigs = np.linalg.eigvalsh(g)
    return float(eigs[0]), bool(eigs[0] > tol * eigs[-1])


def validate(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity on the normalized frame,
    relative to sigma and sigma^2, and the metric relative to its own size.
    Without a positive definite metric there is no frame: NaN residuals."""
    g = alg.metric
    gsym = float(np.max(np.abs(g - g.T), initial=0.0))
    min_eig, definite = metric_definiteness(g, tols.spd_tol)
    if not (definite and gsym <= tols.antisym_tol * np.max(np.abs(g))):
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
    ok = anti < tols.antisym_tol and jacobi < tols.jacobi_tol
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


def _orthonormal(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``rows``.  A span of vectors has no algebra
    scale, so the rank is cut relative to the top singular value."""
    s, vt = np.linalg.svd(rows, full_matrices=False)[1:]
    return vt[:_rank(s, np.max(s, initial=0.0), DEFAULT.rank_tol)[0]]


def _bracket_span(alg: MetricLieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray,
                  rank_tol: float):
    """The ideal spanned by [rows_a, rows_b] of frame rows, and whether the
    rank cut was marginal."""
    fr = alg.frame
    prods = _bracket_products(fr.structure, rows_a, rows_b).reshape(-1, alg.dim)
    # the tall product matrix only enters through its R factor; this skips
    # forming the left singular vectors
    s, vt = np.linalg.svd(np.linalg.qr(prods, mode="r"), full_matrices=False)[1:]
    rank, marginal = _rank(s, fr.scale, rank_tol)
    return Ideal(alg, vt[:rank] @ fr.inv_chol), marginal


def derived_subalgebra(alg: MetricLieAlgebra, sub: Optional[Ideal] = None,
                       tols: Tolerances = DEFAULT) -> Ideal:
    """Span of all brackets of pairs of spanning vectors of ``sub``."""
    rows = (sub or full_ideal(alg)).frame_onb
    return _bracket_span(alg, rows, rows, tols.rank_tol)[0]


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


def quotient_algebra(alg: MetricLieAlgebra, n_ideal: Ideal,
                     tols: Tolerances = DEFAULT):
    """Quotient by an ideal, realized on the metric complement of the span.

    Returns (quotient algebra with identity metric, pushforward matrix P) where
    P maps parent coordinates to quotient coordinates and is an isometry on the
    complement.
    """
    if n_ideal.dim > 0 and not n_ideal.is_ideal(tols.ideal_tol):
        raise NotAnIdealError("span is not an ideal; quotient bracket undefined")
    Q = n_ideal.complement_onb()
    return _on_rows(alg, Q), Q @ alg.metric


def restrict_to_span(alg: MetricLieAlgebra, sub: Ideal,
                     tols: Tolerances = DEFAULT) -> MetricLieAlgebra:
    """The subalgebra spanned by ``sub`` with the restricted metric."""
    if sub.dim > 0 and not sub.is_subalgebra(tols.ideal_tol):
        raise NotAnIdealError("span is not closed under the bracket")
    return _on_rows(alg, sub.onb)


def _on_rows(alg: MetricLieAlgebra, E: np.ndarray) -> MetricLieAlgebra:
    """The bracket projected onto the span of g-orthonormal rows E, in that
    basis: identity metric, and cut against the parent's sigma."""
    c = _bracket_products(alg.structure, E, E) @ alg.metric @ E.T
    c.setflags(write=False)
    sub = MetricLieAlgebra(E.shape[0], c, np.eye(E.shape[0]))
    object.__setattr__(sub, "_parent_scale", (alg.frame.scale, alg.frame.exponent))
    return sub


def classify(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT) -> ClassificationReport:
    """Structural booleans of the algebra.

    solvable/nilpotent come from the derived and lower central series,
    the radical from the Killing-orthogonal of the derived algebra, and
    amenability from the definiteness of the Killing form of the Levi
    quotient (compact type) -- quotient zero counts as amenable.  Every cut
    is ``_rank`` on the normalized frame with plain projections: bracket
    values and the trace functional against sigma, Killing values against
    sigma^2.
    """
    if alg.dim == 0:
        return ClassificationReport(True, True, True, True, True, zero_ideal(alg), (0,),
                                    False, "zero algebra")
    fr, tol = alg.frame, tols.rank_tol
    # both series start g, [g, g]
    g = full_ideal(alg)
    top = g.frame_onb
    gg, marginal = _bracket_span(alg, top, top, tol)
    derived, derived_marginal = _series(
        alg, lambda s: _bracket_span(alg, s, s, tol), (g, gg))
    lower, lower_marginal = _series(
        alg, lambda s: _bracket_span(alg, top, s, tol), (g, gg))
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
        if not rad.is_ideal(tols.ideal_tol):
            raise NotAnIdealError("the radical cut is not an ideal; no Levi quotient")
        Q = rad.frame_complement()
        eigs = np.linalg.eigvalsh(_killing(_bracket_products(fr.structure, Q, Q) @ Q.T))
        rank, levi_marginal = _rank(eigs, fr.scale ** 2, tol)
        amenable = rank == eigs.size and bool(np.max(eigs) < 0.0)
        marginal = marginal or levi_marginal
        derivation = ("Levi quotient Killing form negative definite"
                      if amenable else "Levi quotient of non-compact type")
    return ClassificationReport(
        alg.is_unimodular(tols.unimodular_tol), solvable, nilpotent, semisimple, amenable,
        rad, tuple(i.dim for i in derived), marginal, derivation)


def mean_curvature(alg: MetricLieAlgebra, n_ideal: Ideal,
                   tols: Tolerances = DEFAULT) -> np.ndarray:
    """Mean curvature vector of the subgroup generated by an ideal.

    The complement part of the sum of nabla_E E over a g-orthonormal basis
    {E} of the ideal.  The Koszul formula with x = y = E gives
    <nabla_E E, z> = <[z, E], E>, so <H, z> is the trace of ad z restricted
    to the ideal (Milnor, Adv. Math. 21, 1976): one contraction with E^T E.
    """
    if n_ideal.dim > 0 and not n_ideal.is_ideal(tols.ideal_tol):
        raise NotAnIdealError("mean curvature needs an ideal")
    E, g = n_ideal.onb, alg.metric
    H = np.linalg.solve(g, np.einsum("kim,mi->k", alg.structure, g @ E.T @ E))
    return H - (E @ (g @ H)) @ E
