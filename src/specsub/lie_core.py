"""Metric Lie algebras from structure constants.

A finite-dimensional real Lie algebra is stored as a rank-3 array c with
[e_i, e_j] = sum_k c[i,j,k] e_k together with a positive-definite inner
product g on the same basis.  Everything here is exact linear algebra up to
floating point: brackets, adjoint maps, the Levi-Civita connection of the
corresponding left-invariant metric, structural classification (solvable,
nilpotent, radical, compact-type Levi factor) and the mean curvature of the
subgroup generated by an ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotAnIdealError
from .tolerances import Tolerances, DEFAULT


def _asvec(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {np.shape(x)}")
    return v


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Lie algebra with structure constants ``structure`` and inner product ``metric``."""

    dim: int
    structure: np.ndarray          # (n, n, n), [e_i, e_j] = structure[i, j, :]
    metric: np.ndarray             # (n, n) symmetric positive definite
    basis_labels: Optional[tuple] = None

    def __post_init__(self):
        c = np.array(self.structure, dtype=float)
        g = np.array(self.metric, dtype=float)
        n = int(self.dim)
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape {(n, n, n)}")
        if g.shape != (n, n):
            raise ValueError(f"metric must have shape {(n, n)}")
        c.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "metric", g)
        if self.basis_labels is not None:
            labels = tuple(str(s) for s in self.basis_labels)
            if len(labels) != n:
                raise ValueError("need one label per basis vector")
            object.__setattr__(self, "basis_labels", labels)

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

    def trace_covector(self) -> "Covector":
        """Functional tau with tau(x) = tr(ad x)."""
        comps = np.einsum("ijj->i", self.structure)
        return Covector(self, comps)

    def is_unimodular(self, tol: float = DEFAULT.unimodular_tol) -> bool:
        return bool(np.max(np.abs(self.trace_covector().components), initial=0.0) < tol)

    def killing_form(self) -> np.ndarray:
        # B[i, j] = tr(ad e_i ad e_j) = sum_{a,b} c[i,b,a] c[j,a,b]
        c = self.structure
        return np.tensordot(c, c, axes=([1, 2], [2, 1]))

    def koszul_connection(self, x, y) -> np.ndarray:
        """Levi-Civita connection of the left-invariant metric on constant fields.

        Solves g w = rhs where rhs_k is half of
        <[x,y],e_k> - <[y,e_k],x> + <[e_k,x],y>.
        """
        x = _asvec(x, self.dim)
        y = _asvec(y, self.dim)
        g = self.metric
        c = self.structure
        gx = g @ x
        gy = g @ y
        t1 = g @ self.bracket(x, y)
        t2 = np.einsum("j,jkm,m->k", y, c, gx)   # <[y, e_k], x>
        t3 = np.einsum("kim,i,m->k", c, x, gy)   # <[e_k, x], y>
        rhs = 0.5 * (t1 - t2 + t3)
        return np.linalg.solve(g, rhs)

    # -- span helpers ---------------------------------------------------------

    def gram_orthonormalize(self, rows: np.ndarray) -> np.ndarray:
        """Rows spanning a subspace -> g-orthonormal rows (rank revealed by SVD).

        A span of vectors has no algebra scale, so the rank is cut relative to
        the top singular value of the rows.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0 or rows.shape[0] == 0:
            return np.zeros((0, self.dim))
        # work in coordinates where g is the identity
        L = np.linalg.cholesky(self.metric)
        cols = rows @ L  # euclidean rows in the flat coordinates
        s, vt = np.linalg.svd(cols, full_matrices=False)[1:]
        rank = _rank(s, s[0], DEFAULT.rank_tol)[0]
        return np.linalg.solve(L.T, vt[:rank].T).T

    def project_onto(self, onb_rows: np.ndarray, v) -> np.ndarray:
        """g-orthogonal projection of v onto the span of g-orthonormal rows."""
        v = _asvec(v, self.dim)
        if onb_rows.shape[0] == 0:
            return np.zeros(self.dim)
        coeff = onb_rows @ (self.metric @ v)
        return coeff @ onb_rows


@dataclass(frozen=True)
class Covector:
    """Linear functional in the dual basis; evaluation on e_i gives components[i]."""

    parent: MetricLieAlgebra
    components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.components, dtype=float).reshape(-1)
        if comps.shape != (self.parent.dim,):
            raise ValueError("component count must match the parent dimension")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    def __call__(self, x) -> float:
        return float(self.components @ _asvec(x, self.parent.dim))

    def metric_dual(self) -> np.ndarray:
        """Vector T with <T, x> = tau(x) for all x."""
        return np.linalg.solve(self.parent.metric, self.components)

    def dual_norm(self) -> float:
        """sup of tau over the unit sphere of the metric; equals |T|."""
        val = float(self.components @ self.metric_dual())
        return float(np.sqrt(max(val, 0.0)))


@dataclass(frozen=True)
class Ideal:
    """Subspace of a MetricLieAlgebra given by a spanning set of coordinate rows.

    The stored orthonormal basis is with respect to the parent metric.  Whether
    the span is a subalgebra or an ideal is checked by residuals, not assumed.
    """

    parent: MetricLieAlgebra
    span: np.ndarray
    onb: np.ndarray = field(init=False)

    def __post_init__(self):
        span = np.atleast_2d(np.asarray(self.span, dtype=float))
        if span.size == 0:
            span = np.zeros((0, self.parent.dim))
        if span.shape[1] != self.parent.dim:
            raise ValueError("spanning vectors must live in the parent algebra")
        span.setflags(write=False)
        object.__setattr__(self, "span", span)
        onb = self.parent.gram_orthonormalize(span)
        onb.setflags(write=False)
        object.__setattr__(self, "onb", onb)

    @property
    def dim(self) -> int:
        return self.onb.shape[0]

    def residual_off(self, v) -> float:
        """Metric norm of the component of v outside the span."""
        v = _asvec(v, self.parent.dim)
        rest = v - self.parent.project_onto(self.onb, v)
        return self.parent.norm(rest)

    def _max_residual_off(self, rows: np.ndarray) -> float:
        """Largest metric norm of the out-of-span part over a batch of rows."""
        g = self.parent.metric
        rest = rows - (rows @ g.T @ self.onb.T) @ self.onb
        norm2 = np.einsum("ai,ai->a", rest @ g.T, rest)
        return float(np.sqrt(np.max(np.maximum(norm2, 0.0), initial=0.0)))

    def subalgebra_residual(self) -> float:
        prods = _bracket_products(self.parent.structure, self.onb, self.onb)
        return self._max_residual_off(prods.reshape(-1, self.parent.dim))

    def ideal_residual(self) -> float:
        # prods[b, i, :] = [e_i, onb[b]]
        prods = np.tensordot(self.onb, self.parent.structure, axes=(1, 1))
        return self._max_residual_off(prods.reshape(-1, self.parent.dim))

    def is_subalgebra(self, tol: float = DEFAULT.ideal_tol) -> bool:
        return self.subalgebra_residual() < tol

    def is_ideal(self, tol: float = DEFAULT.ideal_tol) -> bool:
        return self.ideal_residual() < tol

    def complement_onb(self) -> np.ndarray:
        """g-orthonormal basis of the orthogonal complement of the span."""
        n = self.parent.dim
        if self.dim == n:
            # the rows below would be round-off alone, with no top to cut against
            return np.zeros((0, n))
        # row i is e_i minus its projection onto the span
        rest = np.eye(n) - (self.onb @ self.parent.metric).T @ self.onb
        comp = self.parent.gram_orthonormalize(rest)
        if comp.shape[0] != n - self.dim:
            raise RuntimeError("complement rank detection failed")
        return comp


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_residual: float
    jacobi_residual: float
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


def validate(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Check antisymmetry, the Jacobi identity and metric positivity."""
    c = alg.structure
    n = alg.dim
    anti = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))), initial=0.0))
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
    jacobi = float(np.max(slice_max, initial=0.0))
    gsym = float(np.max(np.abs(alg.metric - alg.metric.T), initial=0.0))
    try:
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (alg.metric + alg.metric.T))))
    except np.linalg.LinAlgError:
        min_eig = float("-inf")
    ok = (
        anti < tols.antisym_tol
        and jacobi < tols.jacobi_tol
        and gsym < tols.antisym_tol
        and min_eig > tols.spd_tol
    )
    return ValidationReport(anti, jacobi, gsym, min_eig, ok)


def full_ideal(alg: MetricLieAlgebra) -> Ideal:
    return Ideal(alg, np.eye(alg.dim))


def zero_ideal(alg: MetricLieAlgebra) -> Ideal:
    return Ideal(alg, np.zeros((0, alg.dim)))


def _bracket_products(c: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """prods[a, b, :] = [rows_a[a], rows_b[b]] as two BLAS contractions."""
    left = np.tensordot(rows_a, c, axes=(1, 0))                        # [a, j, k]
    return np.tensordot(rows_b, left, axes=(1, 1)).transpose(1, 0, 2)  # [a, b, k]


def _rank(values: np.ndarray, scale: float, tol: float):
    """(rank, marginal): how many |values| exceed the cut tol * scale, and
    whether any value lies within two decades of that cut."""
    a = np.abs(values)
    cut = tol * scale
    marginal = bool(np.any((a > 1e-2 * cut) & (a < 1e2 * cut)))
    return int(np.count_nonzero(a > cut)), marginal


def _bracket_scale(alg: MetricLieAlgebra) -> float:
    """sigma = max(||c||_F in a g-orthonormal basis, 1): the scale of bracket
    values, and sigma^2 that of Killing values.  The floor at 1 makes an
    algebra that is abelian up to round-off cut against 1, not against its
    own round-off."""
    L = np.linalg.cholesky(alg.metric)
    E = np.linalg.inv(L)  # rows: a g-orthonormal basis, E g E^T = I
    # a coordinate vector v has the components v @ L in that basis
    return max(float(np.linalg.norm(_bracket_products(alg.structure, E, E) @ L)), 1.0)


def _bracket_span(alg: MetricLieAlgebra, rows_a: np.ndarray, rows_b: np.ndarray,
                  sigma: float, rank_tol: float):
    """Rows spanning [rows_a, rows_b] and whether the rank cut was marginal."""
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return np.zeros((0, alg.dim)), False
    prods = _bracket_products(alg.structure, rows_a, rows_b).reshape(-1, alg.dim)
    # the tall product matrix only enters through its R factor; this skips
    # forming the left singular vectors
    r = np.linalg.qr(prods, mode="r")
    s, vt = np.linalg.svd(r, full_matrices=False)[1:]
    rank, marginal = _rank(s, sigma, rank_tol)
    return vt[:rank], marginal


def derived_subalgebra(alg: MetricLieAlgebra, sub: Optional[Ideal] = None,
                       tols: Tolerances = DEFAULT) -> Ideal:
    """Span of all brackets of pairs of spanning vectors of ``sub``."""
    if sub is None:
        sub = full_ideal(alg)
    return Ideal(alg, _bracket_span(alg, sub.onb, sub.onb, _bracket_scale(alg),
                                    tols.rank_tol)[0])


def _series(alg, step, start):
    """The series of ideals ``start`` (the whole algebra, then [g, g])
    continued by a span-shrinking bracket step until the dimension
    stabilizes, and whether any cut of the continuation was marginal."""
    series, marginal = list(start), False
    for _ in range(alg.dim):
        if series[-1].dim in (0, series[-2].dim):
            break
        rows, flag = step(series[-1].onb)
        series.append(Ideal(alg, rows))
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
    q = Q.shape[0]
    P = Q @ alg.metric
    if q == 0:
        return MetricLieAlgebra(0, np.zeros((0, 0, 0)), np.zeros((0, 0))), P
    cq = _bracket_products(alg.structure, Q, Q) @ alg.metric @ Q.T
    return MetricLieAlgebra(q, cq, np.eye(q)), P


def restrict_to_span(alg: MetricLieAlgebra, sub: Ideal,
                     tols: Tolerances = DEFAULT) -> MetricLieAlgebra:
    """The subalgebra spanned by ``sub`` with the restricted metric."""
    if sub.dim > 0 and not sub.is_subalgebra(tols.ideal_tol):
        raise NotAnIdealError("span is not closed under the bracket")
    E = sub.onb
    k = E.shape[0]
    if k == 0:
        return MetricLieAlgebra(0, np.zeros((0, 0, 0)), np.zeros((0, 0)))
    cs = _bracket_products(alg.structure, E, E) @ alg.metric @ E.T
    return MetricLieAlgebra(k, cs, np.eye(k))


def classify(alg: MetricLieAlgebra, tols: Tolerances = DEFAULT) -> ClassificationReport:
    """Structural booleans of the algebra.

    solvable/nilpotent come from the derived and lower central series,
    the radical from the Killing-orthogonal of the derived algebra, and
    amenability from the definiteness of the Killing form of the Levi
    quotient (compact type) -- quotient zero counts as amenable.  Every
    rank and definiteness cut is ``_rank`` against the algebra's scale
    sigma (bracket values) or sigma^2 (Killing values), and the
    unimodular cut of the trace functional is against sigma too.
    """
    if alg.dim == 0:
        rad = zero_ideal(alg)
        return ClassificationReport(True, True, True, True, True, rad, (0,), False,
                                    "zero algebra")
    sigma, tol = _bracket_scale(alg), tols.rank_tol
    # both series start g, [g, g]
    g = full_ideal(alg)
    rows, marginal = _bracket_span(alg, g.onb, g.onb, sigma, tol)
    start = (g, Ideal(alg, rows))
    derived, derived_marginal = _series(
        alg, lambda s: _bracket_span(alg, s, s, sigma, tol), start)
    lower, lower_marginal = _series(
        alg, lambda s: _bracket_span(alg, g.onb, s, sigma, tol), start)
    solvable, nilpotent = derived[-1].dim == 0, lower[-1].dim == 0
    # the radical is the Killing-orthogonal of the derived algebra: the null
    # space of the rows v -> B(d_a, v)
    s, vt = np.linalg.svd(derived[1].onb @ alg.killing_form(), full_matrices=True)[1:]
    rank, radical_marginal = _rank(s, sigma ** 2, tol)
    rad = Ideal(alg, vt[rank:])
    marginal = marginal or derived_marginal or lower_marginal or radical_marginal
    if solvable and rad.dim != alg.dim:
        # keep the report consistent when rank decisions disagree
        rad, marginal = g, True
    semisimple = rad.dim == 0
    if rad.dim == alg.dim:
        amenable = True
        derivation = "solvable radical is everything; compact extension trivial"
    else:
        quot, _ = quotient_algebra(alg, rad, tols)
        eigs = np.linalg.eigvalsh(quot.killing_form())
        rank, levi_marginal = _rank(eigs, sigma ** 2, tol)
        amenable = rank == eigs.size and bool(np.max(eigs) < 0.0)
        marginal = marginal or levi_marginal
        derivation = ("Levi quotient Killing form negative definite"
                      if amenable else "Levi quotient of non-compact type")
    return ClassificationReport(
        unimodular=alg.is_unimodular(tols.unimodular_tol * sigma),
        solvable=solvable,
        nilpotent=nilpotent,
        semisimple=semisimple,
        amenable=amenable,
        radical=rad,
        derived_series_lengths=tuple(i.dim for i in derived),
        numerically_marginal=marginal,
        derivation=derivation,
    )


def mean_curvature(alg: MetricLieAlgebra, n_ideal: Ideal,
                   tols: Tolerances = DEFAULT) -> np.ndarray:
    """Mean curvature vector of the subgroup generated by an ideal.

    Sums the complement part of nabla_E E over a g-orthonormal basis {E} of
    the ideal.  The result lies in the metric complement of the span and does
    not depend on the basis choice.
    """
    if n_ideal.dim > 0 and not n_ideal.is_ideal(tols.ideal_tol):
        raise NotAnIdealError("mean curvature needs an ideal")
    H = np.zeros(alg.dim)
    for e in n_ideal.onb:
        H += alg.koszul_connection(e, e)
    return H - alg.project_onto(n_ideal.onb, H)
