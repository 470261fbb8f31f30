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
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .eigensolve import (DEFAULT_SOLVER, SolverConfig, SpectrumEstimate,
                         SymmetricForm, lowest_eigenvalue)
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

    def __post_init__(self):
        # every operator divides by h^2
        if not (0.0 < self.h * self.h < math.inf and 1.0 / (self.h * self.h) < math.inf):
            raise ValueError(f"grid spacing {self.h!r} is out of range: "
                             "h^2 and 1/h^2 must be finite")

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

    def chain(self, per_edge):
        """Per-edge values split into the off-diagonal of the open chain
        (edges (k, k+1) between two nodes) and the circle's wrap edge
        (n-1, 0), 0 elsewhere.  Edges to a Dirichlet ghost are dropped."""
        node = self.pad(np.arange(self.x.size), -1, -1)
        inner = (node[:-1] >= 0) & (node[1:] > node[:-1])
        return per_edge[inner], (float(per_edge[-1]) if self.periodic else 0.0)


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
    bad = ~(np.isfinite(psi) & (psi > 0.0))
    if bad.any():
        raise ValueError(f"warp must be finite and positive (node {int(np.argmax(bad))})")
    if grid.ends:
        for where, value in zip(("left end", "right end"), ends):
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"warp must be finite and positive ({where})")
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


@dataclass(frozen=True, eq=False)
class DiscreteOperator(SymmetricForm):
    """Grid operator A, self-adjoint in the inner product weighted by
    ``weights``, held as its symmetric form M = W^{1/2} A W^{-1/2} (three
    diagonals and a circle's corner, see eigensolve.SymmetricForm): the
    quadratic form f.W A f is g.M g for g = W^{1/2} f."""

    label: str
    grid: Grid

    def quadratic_form(self, f: np.ndarray) -> float:
        g = np.sqrt(self.weights) * np.asarray(f, dtype=float)
        return float(g @ self.matvec(g))

    def norm2(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        return float(f @ (self.weights * f))

    def rayleigh(self, f: np.ndarray) -> float:
        return self.quadratic_form(f) / self.norm2(f)

    def restricted(self, mask: np.ndarray, label: Optional[str] = None) -> "DiscreteOperator":
        """Principal submatrix on the masked nodes, which must be consecutive:
        the Dirichlet restriction to a sub-interval (a circle's wrap edge is cut)."""
        idx = np.flatnonzero(mask)
        if idx.size == 0 or idx[-1] - idx[0] != idx.size - 1:
            raise ValueError("a restriction needs a non-empty run of consecutive nodes")
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        g = Grid(self.grid.x[lo:hi], self.grid.h, False, Boundary.DIRICHLET)
        return DiscreteOperator(self.diag[lo:hi], self.off[lo:hi - 1], 0.0,
                                self.weights[lo:hi], label or self.label, g)


def _operator(grid: Grid, conduct: np.ndarray, potential, psi: np.ndarray,
              label: str) -> DiscreteOperator:
    """A f = -(conduct f')'/psi + potential f, with the conductances on the
    edges of ``Grid.pad`` (an edge to a Dirichlet ghost, where f = 0, adds to
    the diagonal only), held as the symmetric form W^{-1/2} K W^{-1/2} of its
    weights W = psi h, in which A = W^{-1} K with K symmetric."""
    h2 = grid.h * grid.h
    psi_pad = grid.pad(psi, 1.0, 1.0)
    off, corner = grid.chain(-(conduct / np.sqrt(psi_pad[:-1] * psi_pad[1:])) / h2)
    return DiscreteOperator(grid.fold(conduct, conduct) / psi / h2 + potential, off,
                            corner, psi * grid.h, label, grid)


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
    return _operator(grid, np.ones(psi_pad.size - 1), V, np.ones(grid.x.size), "S")


def build_schrodinger(spec: WarpedProductSpec, grid_n: int) -> DiscreteOperator:
    """S = -f'' + V f with V = (psi^{k/2})''/psi^{k/2}, uniform weights."""
    return _schrodinger(spec, *_sample(spec, grid_n))


def _mode_operators(spec: WarpedProductSpec, grid_n: int, modes):
    """L_m for each m in modes.  L_0 is built once: L_m only adds m^2/psi^2
    on the diagonal."""
    if spec.fiber_dim != 1:
        raise ValueError("mode operators are only defined for a circle fiber (k = 1)")
    grid, psi, psi_pad = _sample(spec, grid_n)
    op = _operator(grid, np.sqrt(psi_pad[:-1] * psi_pad[1:]), 0.0, psi, "L_0")
    for m in modes:
        yield replace(op, diag=op.diag + (m * m) / (psi * psi), label=f"L_{m}")


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
    return lowest_eigenvalue(op, cfg, grid_n=op.n, mode=mode)


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
        est = lowest_eigenvalue(sub, cfg, grid_n=grid_n)
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
    return np.sqrt(np.einsum("ij,ij->i", f2d, f2d) * psi * h_theta)


def pushdown(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> np.ndarray:
    """h(x_i) = sqrt of the fiber integral of f^2 with the warped fiber measure."""
    _, psi, _ = _sample(spec, grid_n)
    return _pushdown(psi, np.asarray(f2d, dtype=float))


# Below this a sum of squares may hold subnormal terms whose rounding errors
# exceed eps of the sum.
_SUMSQ_MIN = sys.float_info.min / sys.float_info.epsilon


def _quotient_terms(grid: Grid, psi: np.ndarray, psi_pad: np.ndarray,
                    f2d: np.ndarray) -> Tuple[float, float]:
    """(numerator, denominator) of the discrete Rayleigh quotient of f2d."""
    h_theta = 2.0 * np.pi / f2d.shape[1]
    h = grid.h
    # base-direction differences on the same edges as the operators
    cond = np.sqrt(psi_pad[:-1] * psi_pad[1:])
    f_pad = grid.pad(f2d)
    dx = f_pad[1:] - f_pad[:-1]
    # one pass per sum, without n x m temporaries for the products; Python
    # floats from here on, which overflow to inf without a warning
    num_x = float(np.einsum("e,ej,ej->", cond, dx, dx)) / (h * h)
    dth = np.roll(f2d, -1, axis=1) - f2d
    num_th = float(np.einsum("i,ij,ij->", 1.0 / psi, dth, dth)) / (h_theta * h_theta)
    num = (num_x + num_th) * h * h_theta
    den = float(np.einsum("i,ij,ij->", psi, f2d, f2d)) * h * h_theta
    return num, den


def _rayleigh_2d(grid: Grid, psi: np.ndarray, psi_pad: np.ndarray,
                 f2d: np.ndarray) -> Tuple[float, np.ndarray]:
    """-> (R(f2d), the f2d it was computed on).

    R is invariant under f -> t f.  When the sums of squares overflow or
    underflow, f2d is rescaled by the power of two that brings max |f2d| into
    [0.5, 1), which is exact, and the quotient is taken again; that f2d is
    returned for the other scale-invariant terms of the caller.
    """
    num, den = _quotient_terms(grid, psi, psi_pad, f2d)
    if not (math.isfinite(num) and _SUMSQ_MIN <= den < math.inf):
        top = float(np.max(np.abs(f2d)))
        if 0.0 < top < math.inf:
            f2d = np.ldexp(f2d, -math.frexp(top)[1])
            num, den = _quotient_terms(grid, psi, psi_pad, f2d)
    if not den > 0.0:
        raise ValueError("f2d has zero norm: it has no Rayleigh quotient")
    return num / den, f2d


def rayleigh_2d(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """Discrete Rayleigh quotient of the warped metric on base x S^1."""
    return _rayleigh_2d(*_sample(spec, grid_n), np.asarray(f2d, dtype=float))[0]


def pushdown_slack(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """R(f) - R_S(pushdown f) - fiber_lambda0 * weighted average of psi^{-2}.

    Nonnegative up to round-off for a circle fiber by construction.
    """
    grid, psi, psi_pad = _sample(spec, grid_n)
    r2, f2d = _rayleigh_2d(grid, psi, psi_pad, np.asarray(f2d, dtype=float))
    h = _pushdown(psi, f2d)
    s_op = _schrodinger(spec, grid, psi, psi_pad)
    rs = s_op.rayleigh(h)
    wh2 = s_op.weights * h * h
    fiber_term = spec.fiber_lambda0 * float(np.sum(wh2 / psi ** 2) / np.sum(wh2))
    return r2 - rs - fiber_term
