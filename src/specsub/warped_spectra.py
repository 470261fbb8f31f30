"""Finite-difference spectral checks on 1D-base warped products.

The model space is base x_psi S^1 with a positive warp psi on the base (a
circle or an interval).  Three operator families are discretized:

* S, the Schrodinger operator -f'' + V f with V = (psi^{k/2})''/psi^{k/2}
  evaluated by centered second differences, uniform weights;
* L_m, the Fourier-mode operators -(psi f')'/psi + m^2/psi^2 f in divergence
  form, weighted by psi;
* the full 2D quadratic form on base x fiber, used for pushdown checks.

Half-node fluxes use geometric means sqrt(psi_i psi_{i+1}).  With that choice
diag(sqrt(psi)) conjugates the discrete L_0 exactly into the discrete S, so
the two routes to the bottom of the spectrum agree at the matrix level, S is
exactly non-negative, and the discrete pushdown inequality holds with no
discretization slack (reverse triangle inequality on fiber columns).  All of
this needs every operator to use the same boundary closure, so the closure
lives in one place, ``Grid``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .eigensolve import (DEFAULT_SOLVER, SolverConfig, SpectrumEstimate,
                         lowest_eigenvalue)
from .tolerances import Tolerances, DEFAULT


class Boundary(str, enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class CircleBase:
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("circle length must be positive")


@dataclass(frozen=True)
class IntervalBase:
    a: float
    b: float
    boundary: Boundary = Boundary.DIRICHLET

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("interval needs b > a")
        object.__setattr__(self, "boundary", Boundary(self.boundary))


Base = Union[CircleBase, IntervalBase]


@dataclass(frozen=True)
class WarpProfile:
    """Warp function: a named closure from the catalog or raw grid samples."""

    kind: str                      # const | exp | sinshift | samples
    params: tuple = ()
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "samples":
            arr = np.asarray(self.samples, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "samples", arr)
        elif self.kind not in ("const", "exp", "sinshift"):
            raise ValueError(f"unknown warp kind {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.full_like(x, self.params[0])
        if self.kind == "exp":
            return np.exp(self.params[0] * x)
        if self.kind == "sinshift":
            amp = self.params[0]
            return (1.0 + amp) + amp * np.sin(x)
        raise ValueError("sampled warps can only be evaluated on their own grid")


@dataclass(frozen=True)
class WarpedProductSpec:
    base: Base
    warp: WarpProfile
    fiber_dim: int = 1
    fiber_lambda0: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be positive")
        if self.fiber_lambda0 < 0:
            raise ValueError("fiber lambda0 must be nonnegative")


@dataclass(frozen=True)
class Grid:
    """Base nodes carrying unknowns, and the boundary closure around them.

    The closure is decided here and nowhere else.  ``pad`` lays a node array
    out so that every edge of the discretization is (k, k+1) of the padded
    array, and ``fold`` sums per-edge terms back onto the nodes; the
    operators below are written once in terms of the two.
    """

    x: np.ndarray        # nodes carrying unknowns
    h: float
    periodic: bool
    boundary: Optional[Boundary] = None
    ends: tuple = ()     # coordinates (a, b) of the two Dirichlet ghosts

    def with_ends(self, f, lo=0.0, hi=0.0):
        """f with lo and hi at the two ghosts of a Dirichlet interval, else f."""
        if self.boundary != Boundary.DIRICHLET:
            return f
        ghost = (1,) + f.shape[1:]
        return np.concatenate((np.full(ghost, lo), f, np.full(ghost, hi)))

    def pad(self, f, lo=0.0, hi=0.0):
        """f (nodes along the first axis) with the closure's ghost values.

        Every edge is (k, k+1) of the result: a circle appends the
        wrap-around copy of the first node, a Dirichlet interval puts lo and
        hi at its ends (0 for grid functions), a Neumann interval adds
        nothing (no flux crosses its ends).
        """
        f = self.with_ends(f, lo, hi)
        return np.concatenate((f, f[:1])) if self.periodic else f

    def fold(self, to_left, to_right):
        """Per-edge values summed onto the nodes; the adjoint of ``pad``.

        Edge (k, k+1) gives to_left[k] to its left end and to_right[k] to its
        right end.  A Dirichlet ghost drops what it receives; the wrap-around
        copy passes it on to the first node.
        """
        per_pad = np.concatenate((to_left, [0.0])) + np.concatenate(([0.0], to_right))
        owner = self.pad(np.arange(self.x.size), -1, -1) + 1     # 0: a ghost
        return np.bincount(owner, per_pad, minlength=self.x.size + 1)[1:]


def base_grid(spec: WarpedProductSpec, grid_n: int) -> Grid:
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if isinstance(spec.base, CircleBase):
        h = spec.base.length / grid_n
        return Grid(np.arange(grid_n) * h, h, True)
    a, b, bc = spec.base.a, spec.base.b, spec.base.boundary
    if bc == Boundary.DIRICHLET:
        h = (b - a) / (grid_n + 1)
        return Grid(a + h * np.arange(1, grid_n + 1), h, False, bc, (a, b))
    h = (b - a) / grid_n
    return Grid(a + h * (np.arange(grid_n) + 0.5), h, False, bc)


def _warp(spec: WarpedProductSpec, grid: Grid):
    """psi at the nodes and at the Dirichlet ghosts, checked finite and positive.

    Sampled warps must match the grid size; their ghost values are
    quadratic extrapolations one step past either end.
    """
    n = grid.x.size
    w = spec.warp
    if w.kind == "samples":
        if w.samples.size != n:
            raise ValueError(
                f"sampled warp has {w.samples.size} values but the grid has {n} nodes")
        psi = np.array(w.samples, dtype=float)
        ends = (_extrapolate(psi[:3], -1.0), _extrapolate(psi[-3:][::-1], -1.0))
    else:
        # an overflow gives inf, which the check below rejects with the node
        with np.errstate(over="ignore", invalid="ignore"):
            psi = np.asarray(w(grid.x), dtype=float)
            ends = tuple(float(w(np.array(e))) for e in grid.ends)
    full = grid.with_ends(psi, *ends)
    bad = ~(np.isfinite(full) & (full > 0.0))
    if bad.any():
        raise ValueError(f"warp must be finite and positive (node {int(np.argmax(bad))})")
    return psi, ends


def warp_values(spec: WarpedProductSpec, grid: Grid) -> np.ndarray:
    """psi at the grid nodes plus, for Dirichlet intervals, at both endpoints.

    Returns an array of length n (circle, Neumann) or n + 2 (Dirichlet, with
    psi(a) first and psi(b) last).
    """
    psi, ends = _warp(spec, grid)
    return grid.with_ends(psi, *ends)


def _sample(spec: WarpedProductSpec, grid_n: int):
    """The base grid, psi at its nodes and psi laid out by ``Grid.pad``."""
    grid = base_grid(spec, grid_n)
    psi, ends = _warp(spec, grid)
    return grid, psi, grid.pad(psi, *ends)


def _extrapolate(three, t):
    """Quadratic extrapolation of equally spaced values to offset t (in steps)."""
    y0, y1, y2 = three
    # Newton form around index 0
    return y0 + t * (y1 - y0) + 0.5 * t * (t - 1.0) * (y2 - 2.0 * y1 + y0)


@dataclass(frozen=True)
class DiscreteOperator:
    """Grid operator self-adjoint with respect to the weighted inner product."""

    matrix: sp.csr_matrix
    weights: np.ndarray
    label: str
    grid: Grid

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def symmetry_residual(self) -> float:
        """Max entry of A^T W - W A, relative to the scale of the form W A."""
        W = sp.diags(self.weights)
        form = W @ self.matrix
        R = (self.matrix.T @ W - form).tocoo()
        scale = max(float(np.max(np.abs(form.tocoo().data), initial=0.0)), 1.0)
        return float(np.max(np.abs(R.data), initial=0.0)) / scale

    def quadratic_form(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        return float(f @ (self.weights * (self.matrix @ f)))

    def norm2(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        return float(f @ (self.weights * f))

    def rayleigh(self, f: np.ndarray) -> float:
        return self.quadratic_form(f) / self.norm2(f)

    def restricted(self, mask: np.ndarray, label: Optional[str] = None) -> "DiscreteOperator":
        """Principal submatrix on the masked nodes (Dirichlet restriction)."""
        idx = np.flatnonzero(mask)
        sub = self.matrix[idx][:, idx].tocsr()
        g = Grid(self.grid.x[idx], self.grid.h, False, Boundary.DIRICHLET)
        return DiscreteOperator(sub, self.weights[idx], label or self.label, g)


def _laplacian_form(grid: Grid, conduct: np.ndarray):
    """h sum_e conduct[e] (f_r - f_l)^2 / h^2 over the edges of ``Grid.pad``,
    as its diagonal and its per-edge off-diagonal values."""
    h2 = grid.h * grid.h
    return (grid.fold(conduct, conduct) / h2) * grid.h, (-conduct / h2) * grid.h


def _operator(grid: Grid, form, potential: np.ndarray, weights: np.ndarray,
              label: str) -> DiscreteOperator:
    """A = W^{-1} K for K = form + diag(potential * weights), as sorted CSR.

    K is symmetric, so A is self-adjoint in the weighted inner product.  An
    edge to a Dirichlet ghost (node -1, where f = 0) adds to the diagonal only.
    """
    diag, off = form
    n = grid.x.size
    node = grid.pad(np.arange(n), -1, -1)
    inner = (node[:-1] >= 0) & (node[1:] >= 0)
    left, right, off = node[:-1][inner], node[1:][inner], off[inner]
    rows = np.concatenate((np.arange(n), left, right))
    cols = np.concatenate((np.arange(n), right, left))
    vals = (1.0 / weights)[rows] * np.concatenate((diag + potential * weights, off, off))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    A = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
    return DiscreteOperator(A, weights, label, grid)


def _potential(grid: Grid, phi: np.ndarray, phi_pad: np.ndarray) -> np.ndarray:
    """V = (second difference of phi) / phi with the grid's closure.

    The second difference is the sum over a node's neighbours minus its
    degree times phi, so a Neumann end sees its one neighbour only, matching
    the zero-flux divergence form exactly.
    """
    nbr = grid.fold(phi_pad[1:], phi_pad[:-1])
    ones = np.ones(phi_pad.size - 1)
    deg = grid.fold(ones, ones)
    return (nbr - deg * phi) / (phi * (grid.h * grid.h))


def _schrodinger(spec: WarpedProductSpec, grid: Grid, psi: np.ndarray,
                 psi_pad: np.ndarray) -> DiscreteOperator:
    k_half = spec.fiber_dim / 2.0
    V = _potential(grid, psi ** k_half, psi_pad ** k_half)
    form = _laplacian_form(grid, np.ones(psi_pad.size - 1))
    return _operator(grid, form, V, np.full(grid.x.size, grid.h), "S")


def build_schrodinger(spec: WarpedProductSpec, grid_n: int) -> DiscreteOperator:
    """S = -f'' + V f with V = (psi^{k/2})''/psi^{k/2}, uniform weights."""
    return _schrodinger(spec, *_sample(spec, grid_n))


def _mode_operators(spec: WarpedProductSpec, grid_n: int, modes):
    """L_m for each m in modes.  The L_0 form is built once: L_m only adds
    m^2/psi^2 on the diagonal."""
    if spec.fiber_dim != 1:
        raise ValueError("mode operators are only defined for a circle fiber (k = 1)")
    grid, psi, psi_pad = _sample(spec, grid_n)
    form = _laplacian_form(grid, np.sqrt(psi_pad[:-1] * psi_pad[1:]))
    for m in modes:
        yield _operator(grid, form, (m * m) / (psi * psi), psi * grid.h, f"L_{m}")


def build_warped_mode(spec: WarpedProductSpec, m: int, grid_n: int) -> DiscreteOperator:
    """Fourier-mode operator L_m f = -(psi f')'/psi + m^2/psi^2 f (fiber S^1)."""
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    return next(_mode_operators(spec, grid_n, (m,)))


# -- verification reports -----------------------------------------------------

@dataclass(frozen=True)
class EqualityReport:
    fixture: str
    grid_n: int
    lambda0_modes: tuple          # lambda0 of L_0, L_1, ..., L_mmax
    lambda0_total: float          # min over modes
    lambda0_schrodinger: float
    residuals: tuple
    difference: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    fixture: str
    grid_n: int
    lambda0_modes: tuple
    lhs: float                    # lambda0 of the total space (min over modes)
    lambda0_schrodinger: float
    rhs: float                    # lambda0(S) + fiber term
    slack: float
    residuals: tuple
    passed: bool


@dataclass(frozen=True)
class TailReport:
    fixture: str
    grid_n: int
    cutoffs: tuple
    values: tuple
    residuals: tuple
    monotone: bool


def solve_lowest(op: DiscreteOperator, cfg: SolverConfig = DEFAULT_SOLVER,
                 mode: Optional[int] = None) -> SpectrumEstimate:
    """Lowest eigenvalue of a DiscreteOperator (see eigensolve for the contract)."""
    return lowest_eigenvalue(op.matrix, op.weights, cfg,
                             grid_n=op.n, mode=mode)


def mode_scan(spec: WarpedProductSpec, grid_n: int, m_max: int = 8,
              cfg: SolverConfig = DEFAULT_SOLVER):
    """Lowest eigenvalues of L_0, ..., L_{m_max}, one SpectrumEstimate each."""
    if m_max < 0:
        raise ValueError("the largest mode must be nonnegative")
    ops = _mode_operators(spec, grid_n, range(m_max + 1))
    return [solve_lowest(op, cfg, mode=m) for m, op in enumerate(ops)]


def verify_warped(spec: WarpedProductSpec, grid_n: int,
                  tols: Tolerances = DEFAULT,
                  cfg: SolverConfig = DEFAULT_SOLVER,
                  m_max: int = 8):
    """(InequalityReport, EqualityReport) from one mode scan and one S solve.

    Inequality: total-space bottom (min over modes) >= base Schrodinger
    bottom + fiber term.  Equality: the two routes to the bottom of the
    spectrum, the m = 0 mode operator (weighted by psi) and S (the
    multiplication map by sqrt(psi) identifies the two problems), agree,
    and the mode scan attains its minimum at m = 0.
    """
    ests = mode_scan(spec, grid_n, m_max, cfg)
    lams = tuple(e.lambda0 for e in ests)
    grid, psi, psi_pad = _sample(spec, grid_n)
    s_est = solve_lowest(_schrodinger(spec, grid, psi, psi_pad), cfg)
    residuals = tuple(e.residual for e in ests) + (s_est.residual,)
    total = min(lams)
    rhs = s_est.lambda0 + spec.fiber_lambda0 * float(np.min(1.0 / psi_pad ** 2))
    ineq = InequalityReport(spec.name, grid_n, lams, total, s_est.lambda0, rhs,
                            total - rhs, residuals, total - rhs >= -tols.ineq_tol)
    diff = abs(lams[0] - s_est.lambda0)
    slack = 10.0 * max(ests[0].residual, s_est.residual, 1e-15)
    eq = EqualityReport(spec.name, grid_n, lams, total, s_est.lambda0, residuals,
                        diff, diff <= tols.unitary_tol and total >= lams[0] - slack)
    return ineq, eq


def verify_closed_fiber_equality(spec: WarpedProductSpec, grid_n: int,
                                 tols: Tolerances = DEFAULT,
                                 cfg: SolverConfig = DEFAULT_SOLVER,
                                 m_max: int = 8) -> EqualityReport:
    """Two routes to the bottom of the warped-product spectrum must agree."""
    return verify_warped(spec, grid_n, tols, cfg, m_max)[1]


def verify_warped_inequality(spec: WarpedProductSpec, grid_n: int,
                             tols: Tolerances = DEFAULT,
                             cfg: SolverConfig = DEFAULT_SOLVER,
                             m_max: int = 8) -> InequalityReport:
    """Total-space bottom >= base Schrodinger bottom + fiber term, on the grid."""
    return verify_warped(spec, grid_n, tols, cfg, m_max)[0]


def lambda0_ess_tail(spec: WarpedProductSpec, cutoffs: Sequence[float],
                     grid_n: int, cfg: SolverConfig = DEFAULT_SOLVER) -> TailReport:
    """Bottom of S restricted (Dirichlet) beyond each cutoff, as a tail estimate.

    Restriction is the principal submatrix on nodes past the cutoff, so the
    sequence is non-decreasing by eigenvalue interlacing.
    """
    if not isinstance(spec.base, IntervalBase):
        raise ValueError("tail estimates need an interval (truncated ray) base")
    cutoffs = [float(c) for c in cutoffs]
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    op = build_schrodinger(spec, grid_n)
    values = []
    residuals = []
    for c in cutoffs:
        if not (spec.base.a <= c < spec.base.b):
            raise ValueError(f"cutoff {c} outside the base interval")
        mask = op.grid.x > c
        if np.count_nonzero(mask) < 4:
            raise ValueError(f"cutoff {c} leaves too few grid nodes")
        sub = op.restricted(mask, label=f"S|x>{c:g}")
        est = lowest_eigenvalue(sub.matrix, sub.weights, cfg, grid_n=grid_n)
        values.append(est.lambda0)
        residuals.append(est.residual)
    mono = all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    return TailReport(spec.name, grid_n, tuple(cutoffs), tuple(values),
                      tuple(residuals), mono)


def drift_bound_lambda0(spec: WarpedProductSpec, C: float, grid_n: int,
                        tols: Tolerances = DEFAULT,
                        cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Lower bound (sqrt(lambda0(base)) - C/2)^2 for lambda0(S).

    Requires k |psi'/psi| <= C at every grid node (psi' as the mean slope
    of the node's edges: a centered difference, one-sided at a Neumann end)
    and C <= 2 sqrt(lambda0 of the plain base Laplacian).
    """
    grid, psi, psi_pad = _sample(spec, grid_n)
    slope = (psi_pad[1:] - psi_pad[:-1]) / grid.h
    ones = np.ones_like(slope)
    deriv = grid.fold(slope, slope) / grid.fold(ones, ones)
    drift = spec.fiber_dim * np.abs(deriv / psi)
    worst = int(np.argmax(drift))
    if drift[worst] > C + tols.ineq_tol:
        raise ValueError(
            f"|H| bound violated at node {worst} (x = {grid.x[worst]:.6g}): "
            f"{drift[worst]:.6g} > {C:.6g}")
    flat = replace(spec, warp=WarpProfile("const", (1.0,)))
    lam_base = max(solve_lowest(build_schrodinger(flat, grid_n), cfg).lambda0, 0.0)
    if C > 2.0 * np.sqrt(lam_base) + tols.ineq_tol:
        raise ValueError(
            f"need C <= 2 sqrt(lambda0(base)) = {2*np.sqrt(lam_base):.6g}, got {C:.6g}")
    return float((np.sqrt(lam_base) - C / 2.0) ** 2)


# -- pushdown of 2D grid functions --------------------------------------------

def _pushdown(psi: np.ndarray, f2d: np.ndarray) -> np.ndarray:
    if f2d.shape[0] != psi.size:
        raise ValueError("first axis of f2d must match the base grid")
    h_theta = 2.0 * np.pi / f2d.shape[1]
    return np.sqrt(np.sum(f2d * f2d, axis=1) * psi * h_theta)


def pushdown(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> np.ndarray:
    """h(x_i) = sqrt of the fiber integral of f^2 with the warped fiber measure."""
    _, psi, _ = _sample(spec, grid_n)
    return _pushdown(psi, np.asarray(f2d, dtype=float))


def _rayleigh_2d(grid: Grid, psi: np.ndarray, psi_pad: np.ndarray,
                 f2d: np.ndarray) -> float:
    h_theta = 2.0 * np.pi / f2d.shape[1]
    h = grid.h
    # base-direction differences on the same edges as the operators
    cond = np.sqrt(psi_pad[:-1] * psi_pad[1:])
    f_pad = grid.pad(f2d)
    dx = f_pad[1:] - f_pad[:-1]
    num_x = np.sum(cond[:, None] * dx * dx) / (h * h)
    dth = np.roll(f2d, -1, axis=1) - f2d
    num_th = np.sum((dth * dth) / (psi[:, None])) / (h_theta * h_theta)
    num = (num_x + num_th) * h * h_theta
    den = float(np.sum(psi[:, None] * f2d * f2d) * h * h_theta)
    return num / den


def rayleigh_2d(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """Discrete Rayleigh quotient of the warped metric on base x S^1."""
    return _rayleigh_2d(*_sample(spec, grid_n), np.asarray(f2d, dtype=float))


def pushdown_slack(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """R(f) - R_S(pushdown f) - fiber_lambda0 * weighted average of psi^{-2}.

    Nonnegative up to round-off for a circle fiber by construction.
    """
    grid, psi, psi_pad = _sample(spec, grid_n)
    f2d = np.asarray(f2d, dtype=float)
    h = _pushdown(psi, f2d)
    s_op = _schrodinger(spec, grid, psi, psi_pad)
    r2 = _rayleigh_2d(grid, psi, psi_pad, f2d)
    rs = s_op.rayleigh(h)
    wh2 = s_op.weights * h * h
    fiber_term = spec.fiber_lambda0 * float(np.sum(wh2 / psi ** 2) / np.sum(wh2))
    return r2 - rs - fiber_term
