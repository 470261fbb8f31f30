"""Finite-difference spectral checks on 1D-base warped products.

The model space is base x_psi S^1 with a positive warp psi on the base (a
circle or an interval).  Three operator families are discretized:

* S, the Schrodinger operator -f'' + V f with V = (psi^{k/2})''/psi^{k/2}
  evaluated by centered second differences, uniform weights;
* L_m, the Fourier-mode operators -(psi f')'/psi + m^2/psi^2 f in divergence
  form, weighted by psi;
* the full 2D quadratic form on base x fiber, used for pushdown checks.

Half-node fluxes use geometric means sqrt(psi_i psi_{i+1}).  That is the
geometric mean of the weights psi h at the edge's ends over h, so in the
symmetric form W^{-1/2} K W^{-1/2} every off-diagonal entry of every
operator is -1/h^2 (S has unit weights and fluxes), and diag(sqrt(psi))
conjugates the discrete L_0 exactly into the discrete S: the two routes to
the bottom of the spectrum agree at the matrix level, S is exactly
non-negative, and the discrete pushdown inequality holds with no
discretization slack (reverse triangle inequality on fiber columns).  All of
this needs every operator to use the same boundary closure, so the closure
lives in one place, ``Grid``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._pow2 import exponent, times_pow2
from .eigensolve import SymmetricForm, lowest_eigenvalue


class Boundary(str, enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"interval boundary must be "
                         f"{' or '.join(b.value for b in cls)}, not {value!r}")


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
    """Warp function: a named closure from the catalog or raw grid samples.

    A sampled warp holds one copy of its samples, as read-only bytes that
    ``samples`` views, so no write to the caller's array reaches it, and it
    compares and hashes by those bytes."""

    kind: str                      # const | exp | sinshift | samples
    params: tuple = ()
    samples: Optional[np.ndarray] = field(default=None, compare=False)
    _bytes: Optional[bytes] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "samples":
            arr = np.asarray(self.samples, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"a sampled warp needs a 1-D array, got shape {arr.shape}")
            object.__setattr__(self, "_bytes", arr.tobytes())
            object.__setattr__(self, "samples", np.frombuffer(self._bytes))
        elif self.kind not in ("const", "exp", "sinshift"):
            raise ValueError(f"unknown warp kind {self.kind!r}")
        elif len(self.params) != 1:
            raise ValueError(f"warp {self.kind!r} takes one parameter, got {len(self.params)}")

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
        if not (isinstance(self.fiber_dim, (int, np.integer)) and self.fiber_dim >= 1):
            raise ValueError(f"fiber dimension must be a positive integer: {self.fiber_dim!r}")
        if not self.fiber_lambda0 >= 0:          # NaN too
            raise ValueError("fiber lambda0 must be nonnegative")
        if self.fiber_lambda0 == math.inf:
            raise ValueError("fiber lambda0 must be finite")
        # the samples and S per grid size (see _sample): not a field, so eq,
        # hash, repr and replace never see it; the fields are frozen, so it
        # cannot go stale
        object.__setattr__(self, "_memo", {})


class Grid(NamedTuple):
    """Base nodes carrying unknowns, and the boundary closure around them,
    built by ``base_grid``.

    The closure is decided here and nowhere else.  ``pad`` lays a node array
    out so that every edge of the discretization is (k, k+1) of the padded
    array, ``differences`` takes a grid function's difference along each of
    those edges, and ``fold`` sums per-edge terms back onto the nodes; the
    operators below are written once in terms of the three.
    """

    x: np.ndarray        # nodes carrying unknowns
    h: float
    boundary: Optional[Boundary] = None     # None: a circle
    ends: tuple = ()     # coordinates (a, b) of the two Dirichlet ghosts

    def pad(self, f, lo=0.0, hi=0.0):
        """f (nodes along the first axis) with the closure's ghost values.

        Every edge is (k, k+1) of the result: a circle appends the
        wrap-around copy of the first node, a Dirichlet interval puts lo and
        hi at its ends (0 for grid functions), a Neumann interval adds
        nothing (no flux crosses its ends).
        """
        if self.boundary == Boundary.DIRICHLET:
            ghost = (1,) + f.shape[1:]
            f = np.concatenate((np.full(ghost, lo), f, np.full(ghost, hi)))
        return np.concatenate((f, f[:1])) if self.boundary is None else f

    def differences(self, f, out):
        """f[k+1] - f[k] on every edge (k, k+1) of ``pad(f)``, f a grid
        function (0 at a Dirichlet ghost), written into the first rows of out
        without the padded copy; -> those rows.  n + 1 rows hold the edges of
        any closure."""
        n = f.shape[0]
        if self.boundary == Boundary.DIRICHLET:
            np.subtract(f[0], 0.0, out=out[0])
            np.subtract(f[1:], f[:-1], out=out[1:n])
            np.subtract(0.0, f[-1], out=out[n])
            return out[:n + 1]
        np.subtract(f[1:], f[:-1], out=out[:n - 1])
        if self.boundary is None:
            np.subtract(f[0], f[-1], out=out[n - 1])
            return out[:n]
        return out[:n - 1]

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
    base = spec.base
    if isinstance(base, CircleBase):
        h = base.length / grid_n
        grid = Grid(np.arange(grid_n) * h, h)
    elif base.boundary == Boundary.DIRICHLET:
        h = (base.b - base.a) / (grid_n + 1)
        grid = Grid(base.a + h * np.arange(1, grid_n + 1), h, base.boundary, (base.a, base.b))
    else:
        h = (base.b - base.a) / grid_n
        grid = Grid(base.a + h * (np.arange(grid_n) + 0.5), h, base.boundary)
    # every operator divides by h^2
    if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
        raise ValueError(f"grid spacing {h!r} is out of range: h^2 and 1/h^2 must be finite")
    return grid


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


def _sample(spec: WarpedProductSpec, grid_n: int):
    """The base grid, psi at its nodes, psi laid out by ``Grid.pad`` and the
    edge conductances, read-only and taken once per spec and grid size."""
    key = ("sample", grid_n)
    if key not in spec._memo:
        grid = base_grid(spec, grid_n)
        psi, ends = _warp(spec, grid)
        psi_pad = grid.pad(psi, *ends)
        cond = _conductance(psi_pad)
        _freeze(grid.x, psi, psi_pad, cond)
        spec._memo[key] = grid, psi, psi_pad, cond
    return spec._memo[key]


def _conductance(psi_pad: np.ndarray) -> np.ndarray:
    """sqrt(psi_k psi_{k+1}) on every edge of ``Grid.pad``, taken on psi * 2**-e
    with e mid-way in psi's exponent range: the plain product's bits wherever
    that is normal, and finite where it is not while psi spans under 2**1000."""
    e = sum(exponent(end(psi_pad), "warp must be finite") for end in (np.max, np.min)) // 2
    p = times_pow2(psi_pad, -e)
    with np.errstate(over="ignore"):     # inf is rejected by the operator's check
        return times_pow2(np.sqrt(p[:-1] * p[1:]), e)


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _extrapolate(three, t):
    """Quadratic extrapolation of equally spaced values to offset t (in steps)."""
    y0, y1, y2 = three
    # Newton form around index 0
    return y0 + t * (y1 - y0) + 0.5 * t * (t - 1.0) * (y2 - 2.0 * y1 + y0)


def _operator(grid: Grid, conduct: np.ndarray, potential, psi: np.ndarray) -> SymmetricForm:
    """A f = -(conduct f')'/psi + potential f, with the conductances on the
    edges of ``Grid.pad`` (an edge to a Dirichlet ghost, where f = 0, adds to
    the diagonal only), held as the symmetric form W^{-1/2} K W^{-1/2} of its
    weights W = psi h, in which A = W^{-1} K with K symmetric.  Each
    conductance is the geometric mean of its edge's psi, so the form has
    -1/h^2 off the diagonal and at a circle's corner (module docstring)."""
    h2 = grid.h * grid.h
    with np.errstate(over="ignore", invalid="ignore"):  # rejected by the form's check
        diag = grid.fold(conduct, conduct) / psi / h2 + potential
        weights = psi * grid.h
    return SymmetricForm(diag, np.full(grid.x.size - 1, -1.0 / h2),
                         -1.0 / h2 if grid.boundary is None else 0.0, weights)


def _potential(grid: Grid, psi_pad: np.ndarray, k_half: float) -> np.ndarray:
    """V = (second difference of phi) / phi for phi = psi^{k/2}, with the
    grid's closure: the sum over a node's neighbours of phi_nbr / phi, taken
    from the edge ratios of psi so that no power of psi itself overflows,
    minus its degree (a Neumann end sees its one neighbour only, matching the
    zero-flux divergence form exactly)."""
    with np.errstate(over="ignore"):     # inf is rejected by the operator's check
        r = psi_pad[1:] / psi_pad[:-1]
        return grid.fold(r ** k_half - 1.0, r ** -k_half - 1.0) / (grid.h * grid.h)


def build_schrodinger(spec: WarpedProductSpec, grid_n: int) -> SymmetricForm:
    """S = -f'' + V f with V = (psi^{k/2})''/psi^{k/2}, uniform weights, on
    the grid of ``_sample``, read-only and built once per spec and grid size."""
    key = ("S", grid_n)
    if key not in spec._memo:
        grid, _, psi_pad, _ = _sample(spec, grid_n)
        V = _potential(grid, psi_pad, spec.fiber_dim / 2.0)
        op = _operator(grid, np.ones(psi_pad.size - 1), V, np.ones(grid.x.size))
        _freeze(op.diag, op.off, op.weights)
        spec._memo[key] = op
    return spec._memo[key]


def _mode_operators(spec: WarpedProductSpec, grid_n: int, modes):
    """L_m for each m in modes.  L_0 is built once: L_m only adds m^2/psi^2
    on the diagonal."""
    if spec.fiber_dim != 1:
        raise ValueError("mode operators are only defined for a circle fiber (k = 1)")
    grid, psi, _, cond = _sample(spec, grid_n)
    op = _operator(grid, cond, 0.0, psi)
    for m in modes:
        # inf fails the form's check; a yield inside errstate would leak it
        with np.errstate(over="ignore", divide="ignore"):
            diag = op.diag + (m * m) / (psi * psi) if m else op.diag
        yield SymmetricForm(diag, op.off, op.corner, op.weights)


def build_warped_mode(spec: WarpedProductSpec, m: int, grid_n: int) -> SymmetricForm:
    """Fourier-mode operator L_m f = -(psi f')'/psi + m^2/psi^2 f (fiber S^1)."""
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    return next(_mode_operators(spec, grid_n, (m,)))


# -- verification -------------------------------------------------------------

class WarpedReport(NamedTuple):
    lambda0_modes: tuple          # lambda0 of L_0, L_1, ..., L_mmax
    lambda0_total: float          # of the total space: min over modes
    lambda0_schrodinger: float
    rhs: float                    # lambda0(S) + fiber term
    slack: float                  # lambda0_total - rhs
    residuals: tuple              # of the modes, then of S
    inequality_passed: bool
    difference: float             # |lambda0(L_0) - lambda0(S)|
    equality_passed: bool


class TailReport(NamedTuple):
    cutoffs: tuple
    values: tuple
    residuals: tuple
    monotone: bool


def mode_scan(spec: WarpedProductSpec, grid_n: int, m_max: int = 8):
    """Lowest eigenvalues of L_0, ..., L_{m_max}, one SpectrumEstimate each,
    solved as they are drawn, so that a caller holds only what it keeps.
    m_max is checked at the call, the operators as they are built."""
    if m_max < 0:
        raise ValueError("the largest mode must be nonnegative")
    ops = _mode_operators(spec, grid_n, range(m_max + 1))
    return (lowest_eigenvalue(op, grid_n=grid_n) for op in ops)


def verify_warped(spec: WarpedProductSpec, grid_n: int, m_max: int = 8) -> WarpedReport:
    """The inequality and the two-route equality from one mode scan and one
    S solve, each certified by ``lowest_eigenvalue`` with its own error bound.

    Inequality: total-space bottom (min over modes) >= base Schrodinger
    bottom + fiber term.  Equality: the two routes to the bottom of the
    spectrum, the m = 0 mode operator (weighted by psi) and S (the
    multiplication map by sqrt(psi) identifies the two problems), agree,
    and the mode scan attains its minimum at m = 0.  Each verdict allows the
    certified errors of the values it compares, in the units of the values.
    """
    # (lambda0, error, residual) of each mode: not its n-vector
    modes = [(e.lambda0, e.error, e.residual) for e in mode_scan(spec, grid_n, m_max)]
    low, low_err, _ = min(modes, key=lambda m: m[0])
    zero, zero_err, _ = modes[0]
    top = np.max(_sample(spec, grid_n)[2])
    s_est = lowest_eigenvalue(build_schrodinger(spec, grid_n), grid_n=grid_n)
    with np.errstate(over="ignore", divide="ignore"):     # 1/max(psi)^2 may not fit
        fiber = spec.fiber_lambda0 * float(1.0 / (top * top)) if spec.fiber_lambda0 else 0.0
    rhs = s_est.lambda0 + fiber
    diff = abs(zero - s_est.lambda0)
    # the fiber term is rounded three times; an infinite one gives nan: failed
    passed = low - rhs + 4 * sys.float_info.epsilon * fiber >= -(low_err + s_est.error)
    return WarpedReport(tuple(m[0] for m in modes), low, s_est.lambda0, rhs, low - rhs,
                        tuple(m[2] for m in modes) + (s_est.residual,), passed, diff,
                        diff <= zero_err + s_est.error
                        and low >= zero - (zero_err + low_err))


def lambda0_ess_tail(spec: WarpedProductSpec, cutoffs: Sequence[float],
                     grid_n: int) -> TailReport:
    """Bottom of S restricted (Dirichlet) beyond each cutoff, as a tail estimate.

    Restriction is the principal submatrix on nodes past the cutoff, so the
    sequence is non-decreasing by eigenvalue interlacing (exact for one
    floating-point matrix), up to the certified errors of the values.
    """
    if not isinstance(spec.base, IntervalBase):
        raise ValueError("tail estimates need an interval (truncated ray) base")
    cutoffs = [float(c) for c in cutoffs]
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    S, x = build_schrodinger(spec, grid_n), _sample(spec, grid_n)[0].x
    ests = []
    for c in cutoffs:
        if not (spec.base.a <= c < spec.base.b):
            raise ValueError(f"cutoff {c} outside the base interval")
        lo = int(np.count_nonzero(x <= c))      # the nodes increase: S past c is a suffix
        if x.size - lo < 4:
            raise ValueError(f"cutoff {c} leaves too few grid nodes")
        tail = SymmetricForm(S.diag[lo:], S.off[lo:], 0.0, S.weights[lo:])
        ests.append(lowest_eigenvalue(tail, grid_n=grid_n))
    mono = all(b.lambda0 >= a.lambda0 - (a.error + b.error) for a, b in zip(ests, ests[1:]))
    return TailReport(tuple(cutoffs), tuple(e.lambda0 for e in ests),
                      tuple(e.residual for e in ests), mono)


def drift_bound_lambda0(spec: WarpedProductSpec, C: float, grid_n: int) -> float:
    """Lower bound (sqrt(lambda0(base)) - C/2)^2 for lambda0(S).

    Requires k |psi'/psi| <= C at every grid node (psi' as the mean slope
    of the node's edges: a centered difference, one-sided at a Neumann end)
    and 0 <= C <= 2 sqrt(lambda0 of the plain base Laplacian), both checked
    as stated: C, the drift and sqrt(lambda0) all scale with 1/length.
    """
    if not 0.0 <= C < math.inf:
        raise ValueError(f"the drift bound C must be finite and nonnegative, got {C!r}")
    grid, psi, psi_pad, _ = _sample(spec, grid_n)
    slope = (psi_pad[1:] - psi_pad[:-1]) / grid.h
    ones = np.ones_like(slope)
    deriv = grid.fold(slope, slope) / grid.fold(ones, ones)
    drift = spec.fiber_dim * np.abs(deriv / psi)
    worst = int(np.argmax(drift))
    if drift[worst] > C:
        raise ValueError(
            f"|H| bound violated at node {worst} (x = {grid.x[worst]:.6g}): "
            f"{drift[worst]:.6g} > {C:.6g}")
    flat = replace(spec, warp=WarpProfile("const", (1.0,)))
    lam_base = max(lowest_eigenvalue(build_schrodinger(flat, grid_n),
                                     grid_n=grid_n).lambda0, 0.0)
    if C > 2.0 * np.sqrt(lam_base):
        raise ValueError(
            f"need C <= 2 sqrt(lambda0(base)) = {2*np.sqrt(lam_base):.6g}, got {C:.6g}")
    return float((np.sqrt(lam_base) - C / 2.0) ** 2)


# -- pushdown of 2D grid functions --------------------------------------------

# Below this a sum of squares may hold subnormal terms whose rounding errors
# exceed eps of the sum.
_SUMSQ_MIN = sys.float_info.min / sys.float_info.epsilon


def _grid_function(psi: np.ndarray, f2d) -> np.ndarray:
    f2d = np.asarray(f2d, dtype=float)
    if f2d.ndim != 2 or f2d.shape[0] != psi.size:
        raise ValueError("first axis of f2d must match the base grid")
    if f2d.shape[1] == 0:
        raise ValueError("f2d has no fiber nodes: its second axis is empty")
    return f2d


def _rescaled(f2d: np.ndarray) -> Tuple[np.ndarray, int]:
    """(f2d * 2**-e, e) with the e that brings max |f2d| into [0.5, 1):
    an exact rescaling for sums of squares that overflow or underflow."""
    e = exponent(np.max(np.abs(f2d)), "f2d has non-finite entries")
    return times_pow2(f2d, -e), e


def pushdown(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> np.ndarray:
    """h(x_i) = sqrt of the fiber integral of f^2 with the warped fiber
    measure, taken on f2d rescaled by a power of two: h scales with it."""
    psi = _sample(spec, grid_n)[1]
    f2d, e = _rescaled(_grid_function(psi, f2d))
    return times_pow2(np.sqrt(np.vecdot(f2d, f2d) * psi * (2.0 * np.pi / f2d.shape[1])), e)


def _quotient_terms(grid: Grid, psi: np.ndarray, cond: np.ndarray,
                    f2d: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """(numerator, denominator) of the discrete Rayleigh quotient of f2d,
    both over the cell area h h_theta, which cancels, and the sums of f2d^2
    along the fiber: the denominator is their sum weighted by psi."""
    n, m = f2d.shape
    h_theta = 2.0 * np.pi / m
    h = grid.h
    # each term: row sums of squared differences, dotted with the edge or
    # node weights.  One buffer takes the base-direction differences, on the
    # same edges and conductances as L_m, and below them the fiber-direction
    # ones, so one vecdot sums the squares of both.  The weighted sums are
    # O(n) against the O(n m) row work, so OpenBLAS threading a long ddot
    # (see eigensolve._dot) costs nothing in proportion.  A sum that
    # overflows is inf, and the caller rescales
    buf = np.empty((2 * n + 1, m))
    with np.errstate(over="ignore", invalid="ignore"):
        k = grid.differences(f2d, buf).shape[0]
        dth = buf[k:k + n]
        # one pass over the flattened rows; the differences across a row's
        # end land in column m - 1, which the wrap-around ones replace
        flat = f2d.ravel()
        np.subtract(flat[1:], flat[:-1], out=dth.reshape(-1)[:-1])
        np.subtract(f2d[:, 0], f2d[:, -1], out=dth[:, -1])
        sq = np.vecdot(buf[:k + n], buf[:k + n])
        rows = np.vecdot(f2d, f2d)
        num_x = float(cond @ sq[:k]) / (h * h)
        num_th = float((1.0 / psi) @ sq[k:]) / (h_theta * h_theta)
        total = float(psi @ rows)
    return num_x + num_th, total, rows


def _rayleigh_2d(grid: Grid, psi: np.ndarray, cond: np.ndarray,
                 f2d: np.ndarray) -> Tuple[float, np.ndarray, float]:
    """-> (R(f2d), the sums of f2d^2 along the fiber and their sum weighted
    by psi, both up to a power of two).

    R is invariant under f -> t f.  When the sums of squares overflow or
    underflow, the quotient is taken again on f2d rescaled by a power of
    two (``_rescaled``), whose sums go to the caller's other scale-invariant
    terms.
    """
    num, den, rows = _quotient_terms(grid, psi, cond, f2d)
    if not (math.isfinite(num) and _SUMSQ_MIN <= den < math.inf):
        num, den, rows = _quotient_terms(grid, psi, cond, _rescaled(f2d)[0])
    if not den > 0.0:
        raise ValueError("f2d has zero norm: it has no Rayleigh quotient")
    return num / den, rows, den


def rayleigh_2d(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """Discrete Rayleigh quotient of the warped metric on base x S^1."""
    grid, psi, _, cond = _sample(spec, grid_n)
    return _rayleigh_2d(grid, psi, cond, _grid_function(psi, f2d))[0]


def pushdown_slack(spec: WarpedProductSpec, f2d: np.ndarray, grid_n: int) -> float:
    """R(f) - R_S(pushdown f) - fiber_lambda0 * weighted average of psi^{-2}.

    Nonnegative up to round-off for a circle fiber by construction.
    """
    grid, psi, _, cond = _sample(spec, grid_n)
    f2d = _grid_function(psi, f2d)
    r2, rows, total = _rayleigh_2d(grid, psi, cond, f2d)
    # R_S and the mean below are invariant under h -> t h: h is the pushdown
    # of f over its norm, so h.h is 1 up to round-off whatever the scale of
    # f and the base, and S's weights, the grid spacing, cancel from R_S(h)
    h2 = rows * psi / total
    h = np.sqrt(h2)
    slack = r2 - float(h @ build_schrodinger(spec, grid_n).matvec(h)) / float(h @ h)
    if not spec.fiber_lambda0:
        return slack
    # psi^-2 on psi * 2**-e, e from min(psi): the terms that dominate the
    # mean stay normal, and a square that overflows is a term that rounds to 0
    e = exponent(np.min(psi), "warp must be finite")
    p = times_pow2(psi, -e)
    with np.errstate(over="ignore"):
        mean = float(np.sum(h2 / (p * p)) / np.sum(h2))
    return slack - spec.fiber_lambda0 * times_pow2(mean, -2 * e)
