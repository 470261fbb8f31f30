"""Lowest eigenvalue of weighted self-adjoint grid operators.

A w-self-adjoint A is held as M = W^{1/2} A W^{-1/2}: tridiagonal plus, on a
circle, the corner o = M[0, n-1].  T+ = M + |o| w w^T, w = e_0 - sign(o)
e_{n-1}, has no corner, so M - s is positive definite exactly when dpttrf
factors T+ - s and g(s) = 1 - |o| w^T (T+ - s)^{-1} w > 0.  Bracket: lo rises
from the Gershgorin bound to shifts certified so, hi falls from the Rayleigh
quotient of the ones vector to shifts that fail and to the Rayleigh quotient
of an inverse-iteration step at each certified one.  After a certified
shift the next is the larger of the midpoint and hi minus that step's
residual (an eigenvalue lies within the residual of a Rayleigh quotient);
after a failed one, the midpoint.  One dpttrf per shift.
Refine: inverse iteration just below the bracket, then the Rayleigh
quotient in extended precision, so that closed-form comparisons hold at the
1e-12 level.  Certify: M - shift is positive definite, the result lies in
the bracket and its residual is at most 40 eps * ||M||, a target that scales
with M as the value does.  Nothing is random.  Small grids are also checked
against the lowest eigenvalue of the band matrix, found alone by LAPACK
dsbevx.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from ._pow2 import exponent, times_pow2
from .errors import SolverConvergenceError

# scipy is loaded by _lapack on the first solve, so that the algebra commands,
# which build and solve no grid operator, never load it; and of scipy the
# solves load only its LAPACK extension, running neither the package init of
# scipy nor that of scipy.linalg

REFINE_STEPS = 2    # inverse-iteration steps after the bracket
ULPS = 64           # bracket width, shift gap, certification slack: eps * ||M|| units
EPS = sys.float_info.epsilon    # a Python float: so is every error, and every verdict a bool
DENSE_LIMIT = 512   # largest n that the dense cross-check covers


class SpectrumEstimate(NamedTuple):
    lambda0: float
    eigvec: np.ndarray           # in the original (unweighted) coordinates
    residual: float              # weighted residual norm, unit eigvec
    error: float                 # certified bound on |lambda0 - the true value|
    grid_n: int


def _dot(x, y) -> float:
    """x . y summed by numpy, not BLAS: OpenBLAS threads a level-1 call of more
    than 10000 entries, and on a busy host waking its threads costs ms."""
    return float(np.sum(x * y))


def _apply(d, e, corner, v):
    """M v, each row summed from left to right, in the dtype of the inputs."""
    y = d * v
    y[1:] += e * v[:-1]
    y[:-1] += e * v[1:]
    if corner:
        y[0] += corner * v[-1]
        y[-1] += corner * v[0]
    return y


class SymmetricForm:
    """M = W^{1/2} A W^{-1/2} of an operator A self-adjoint in the inner
    product weighted by ``weights``: the diagonal, the n - 1 off-diagonal
    entries and a circle's corner M[0, n-1] = M[n-1, 0] (0 otherwise; on a
    circle of one or two nodes the wrap edge is a diagonal or off-diagonal
    entry).  A v = lambda v exactly when M W^{1/2} v = lambda W^{1/2} v."""

    def __init__(self, diag, off, corner: float, weights):
        diag, off, weights = (np.asarray(a, dtype=float) for a in (diag, off, weights))
        corner = float(corner)
        n = diag.size
        if not (n and off.shape == (n - 1,) and weights.shape == (n,)
                and (n > 2 or not corner)):
            raise ValueError(f"operator is not tridiagonal plus a circle's corner: {n} "
                             f"diagonal, {off.size} off-diagonal entries, "
                             f"{weights.size} weights, corner {corner!r}")
        if not (np.isfinite(diag).all() and np.isfinite(off).all() and math.isfinite(corner)):
            raise ValueError("operator has non-finite entries")
        if not (np.isfinite(weights) & (weights > 0.0)).all():
            raise ValueError("weights must be finite and positive")
        self.diag, self.off, self.corner, self.weights = diag, off, corner, weights

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return _apply(self.diag, self.off, self.corner, np.asarray(v, dtype=float))

    def dense(self) -> np.ndarray:
        M = np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)
        if self.corner:
            M[0, -1] = M[-1, 0] = self.corner
        return M


def _radii(form: SymmetricForm) -> np.ndarray:
    """Gershgorin radii; edge k joins nodes k and k + 1 mod n (the corner)."""
    edges = np.abs(np.r_[form.off, form.corner])
    return edges + np.roll(edges, 1)


def _scaled(form: SymmetricForm):
    """(unit * M, unit, ||M||) for the max row sum ||M|| and the power of two
    unit (exact) that brings it into [1/2, 1), so that no shift gap, solve or
    residual can under- or overflow."""
    scale = float(np.max(np.abs(form.diag) + _radii(form)))
    unit = times_pow2(1.0, -exponent(scale, "the operator's row sums overflow a double"))
    return SymmetricForm(form.diag * unit, form.off * unit, form.corner * unit,
                         form.weights), unit, scale


def _estimate(Mu: SymmetricForm, unit: float, v, error, grid_n) -> SpectrumEstimate:
    """The eigenvector v / W^{1/2} in the weighted unit norm, with the long
    double Rayleigh quotient and the residual of the unit vector it stands
    for, both taken on Mu = unit * M and scaled back."""
    root = np.sqrt(Mu.weights)
    eigvec = v / (math.sqrt(_dot(v, v)) * root)
    v = root * eigvec
    v /= math.sqrt(_dot(v, v))
    ld = np.longdouble
    vl = v.astype(ld)
    lam = float(vl @ _apply(Mu.diag.astype(ld), Mu.off.astype(ld), ld(Mu.corner), vl)
                / (vl @ vl))
    r = Mu.matvec(v) - lam * v
    return SpectrumEstimate(lam / unit, eigvec, math.sqrt(_dot(r, r)) / unit, error, grid_n)


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, the f2py extension scipy.linalg._flapack,
    loaded by itself: scipy.linalg.lapack re-exports its routines as the same
    objects.  The package inits of scipy (13-16 ms) and scipy.linalg (about
    0.25 s) would take most of a fresh warped call, so the extension file is
    found beside the package's spec, which importlib locates without running
    the package.  Where the extension does not load alone (on Windows scipy's
    init registers its DLL directory), it loads once more after ``import
    scipy``.  Registered in sys.modules under its own name, it is the copy
    that a later ``import scipy.linalg`` uses.  Without an extension file,
    scipy.linalg.lapack itself."""
    import importlib.machinery as machinery
    import importlib.util
    import os

    name = "scipy.linalg._flapack"
    if name not in sys.modules:        # scipy.linalg, once loaded, has it too
        package = importlib.util.find_spec("scipy")   # None without scipy: the import says so
        spec = package and machinery.FileFinder(
            os.path.join(os.path.dirname(package.origin), "linalg"),
            (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            from scipy.linalg import lapack
            return lapack
        try:
            module = importlib.util.module_from_spec(spec)     # loads the library
        except ImportError:
            import scipy
            module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _factor(Mu: SymmetricForm, s: float):
    """dpttrf's factors of T+ - s, z = (T+ - s)^{-1} w and g(s), or None
    unless M - s is positive definite: T+ - s factors and g(s) > 0."""
    lapack = _lapack()
    rho, sign = abs(Mu.corner), np.sign(Mu.corner)
    upper = Mu.diag - s
    upper[[0, -1]] += rho
    fd, fe, info = lapack.dpttrf(upper, Mu.off)
    if info:
        return None
    if not rho:
        return fd, fe, 0.0, 1.0
    w = np.zeros(Mu.n)
    w[0], w[-1] = 1.0, -sign
    z = lapack.dpttrs(fd, fe, w)[0]
    g = 1.0 - rho * (z[0] - sign * z[-1])
    return (fd, fe, z, g) if g > 0.0 else None


def _solve(Mu: SymmetricForm, factors, b):
    """(M - s)^{-1} b from ``_factor(Mu, s)``, by Sherman-Morrison."""
    fd, fe, z, g = factors
    y = _lapack().dpttrs(fd, fe, b)[0]
    return y + z * (abs(Mu.corner) * (y[0] - np.sign(Mu.corner) * y[-1]) / g)


def _bracket(Mu: SymmetricForm, resolution: float):
    """[lo, hi] holding lambda0 of Mu, and a start vector."""
    # the computed Gershgorin bound is a few eps * ||M|| off at most
    lo = float(np.min(Mu.diag - _radii(Mu))) - 0.5 * resolution
    v = np.full(Mu.n, 1.0 / math.sqrt(Mu.n))
    hi, s = _dot(v, Mu.matvec(v)), lo
    while hi - lo > resolution:
        f = _factor(Mu, s)
        if f is None:
            hi, guess = s, lo
        else:
            v = _solve(Mu, f, v)
            v /= math.sqrt(_dot(v, v))
            Mv = Mu.matvec(v)
            rq = _dot(v, Mv)
            r = Mv - rq * v
            lo, hi = s, min(hi, rq)
            # an eigenvalue lies within |r| of rq >= hi (Krylov-Bogolyubov):
            # lambda0 once v is near it
            guess = hi - math.sqrt(_dot(r, r))
        # the midpoint halves [lo, hi] while v is still far from the ground state
        s = min(max(guess, 0.5 * (lo + hi), lo + 0.25 * resolution),
                hi - 0.25 * resolution)
    return lo, hi, v


def _banded_lowest(Mu: SymmetricForm) -> float:
    """Lowest eigenvalue of Mu, and only that one, by LAPACK dsbevx: the
    nodes taken alternately from both ends of the chain put every edge and
    the corner within two places of the diagonal.  The band is reduced to
    tridiagonal form and the value found by bisection to LAPACK's most
    accurate absolute tolerance, 2 * the smallest normal number."""
    n = Mu.n
    pos = np.r_[np.arange(0, n, 2), np.arange(n - 1 - n % 2, 0, -2)]   # node -> place
    band = np.zeros((3, n))                                              # lower storage
    band[0, pos] = Mu.diag
    band[np.abs(pos[1:] - pos[:-1]), np.minimum(pos[1:], pos[:-1])] = Mu.off
    band[1, 0] += Mu.corner                 # nodes 0 and n - 1 sit at places 0 and 1
    w, _, found, _, info = _lapack().dsbevx(band, 0.0, 0.0, 1, 1, compute_v=0, range=2,
                                            lower=1, abstol=2 * sys.float_info.min)
    if info or found != 1:
        raise SolverConvergenceError(f"dense reference failed: LAPACK dsbevx info {info}, "
                                     f"{found} values found")
    return float(w[0])


def lowest_eigenvalue(form: SymmetricForm, grid_n: Optional[int] = None) -> SpectrumEstimate:
    """Smallest eigenvalue of the weighted operator with symmetric form ``form``,
    to the residual target |Mv - lambda v| / |v| <= 40 eps ||M||.

    ``error`` is (hi - lo) + slack for the final bracket [lo, hi] and slack =
    ULPS * eps * ||M||, at most 2 * slack.  Raises SolverConvergenceError (with
    the best iterate attached) when the result fails certification or, for
    n <= DENSE_LIMIT, the dense cross-check differs by more than error + slack.
    """
    gn = form.n if grid_n is None else grid_n
    Mu, unit, scale = _scaled(form)
    if form.n == 1:                     # M is its own eigenvalue
        return _estimate(Mu, unit, np.ones(1), 0.0, gn)
    target = 40 * EPS * scale
    slack = ULPS * EPS * scale * unit
    lo, hi, v = _bracket(Mu, slack)
    shift = lo - (slack or 1.0)         # slack is 0 only for M = 0
    factors = _factor(Mu, shift)
    definite = factors is not None
    for _ in range(REFINE_STEPS if definite else 0):
        v = _solve(Mu, factors, v)
        v /= math.sqrt(_dot(v, v))
    lo, hi, slack = lo / unit, hi / unit, slack / unit
    est = _estimate(Mu, unit, v, (hi - lo) + slack, gn)
    if not (definite and est.residual <= target and lo - slack <= est.lambda0 <= hi + slack):
        raise SolverConvergenceError(
            f"result {est.lambda0!r} is not certified as the lowest eigenvalue: "
            f"bracket [{lo!r}, {hi!r}], residual {est.residual:.3e} "
            f"(target {target:.3e}), M - {shift / unit!r} positive definite: "
            f"{definite}", best=est)
    if form.n <= DENSE_LIMIT:
        # the lowest value only: LAPACK dsbevx, independent of the bracket
        # and known to a few eps * ||M||
        ref = _banded_lowest(Mu) / unit
        if abs(ref - est.lambda0) > est.error + slack:
            raise SolverConvergenceError(
                f"iterative value {est.lambda0!r} disagrees with dense "
                f"reference {ref!r}", best=est)
    return est
