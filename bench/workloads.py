"""Seeded inputs, fixed call lists and oracle checks of the four workloads.

Every input comes from the ``seed`` argument.  The structure of a pass (which
commands, which grids, which algebra dimensions) is fixed per workload, so the
cost of a pass does not depend on the seed; the seed only draws parameters,
random bases, random brackets, random warps and random grid functions.

A CLI call is checked by ``check_cli``: exit code, the ``# specsub-csv v1``
tag, the frozen header, the column count of every row, and the call's own
closed-form oracle.  A library call is checked by its case's oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CSV_TAG = "# specsub-csv v1"
HEADERS = {
    "analyze": "fixture,valid,unimodular,solvable,nilpotent,semisimple,amenable,"
               "radical_dim,marginal",
    "lambda0": "fixture,unimodular,amenable,lambda0,cheeger,method",
    "cheeger": "fixture,unimodular,amenable,lambda0,cheeger,method",
    "quotient": "fixture,ideal_dim,H_norm2,tr_ad_H,lambda0_N,lambda0_quotient,"
                "lower_bound,equality_expected,partial",
    "verify-warped": "fixture,grid_n,mode,lambda0,residual,slack",
    "tail-ess": "fixture,grid_n,cutoff,lambda0,residual",
}

INEQ_TOL = 1e-8        # Tolerances.ineq_tol: allowed slack violation
UNITARY_TOL = 1e-6     # Tolerances.unitary_tol: two-route agreement
TOEPLITZ_TOL = 1e-12   # flat Dirichlet closed form, absolute
FORMULA_RTOL = 1e-9    # closed-form Lie values, relative

# Oracle: given the parsed CSV rows (header excluded), return an error or None.
Oracle = Callable[[list], Optional[str]]


@dataclass
class CliCall:
    argv: tuple            # arguments after the program name
    expect_exit: int
    oracle: Optional[Oracle] = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class LibCase:
    """One 2D grid function on one warp, checked through the library calls.

    Each case calls pushdown_slack and rayleigh_2d.  kind "random": a random
    function; the slack is >= -1e-8, and R(f) - slack = R_S(pushdown f) >= 0
    because S is positive semidefinite.  kind "fiberconst": a positive
    function constant along the fiber, where the sqrt(psi) conjugation makes
    the slack zero up to round-off.
    """
    kind: str
    warp: str              # key into Inputs.warps
    grid_n: int
    f2d: np.ndarray


@dataclass
class Inputs:
    """Everything a pass needs; produced by the set-up step."""
    cli_calls: list = field(default_factory=list)
    lib_cases: list = field(default_factory=list)
    warps: dict = field(default_factory=dict)    # name -> (kind, params) for lib cases


# -- CSV checks ---------------------------------------------------------------

def check_cli(call: CliCall, code: int, stdout: bytes) -> Optional[str]:
    if code != call.expect_exit:
        return f"exit {code}, expected {call.expect_exit}"
    if call.expect_exit != 0:
        return None if stdout == b"" else "unexpected stdout on a failing call"
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) < 3 or lines[0] != CSV_TAG:
        return "missing CSV version tag or rows"
    header = HEADERS[call.command]
    if lines[1] != header:
        return f"header changed: {lines[1]!r}"
    ncol = header.count(",") + 1
    rows = [ln.split(",") for ln in lines[2:]]
    if any(len(r) != ncol for r in rows):
        return "row with the wrong column count"
    if call.oracle is None:
        return None
    try:
        return call.oracle(rows)
    except (ValueError, IndexError, KeyError) as exc:
        return f"malformed CSV value: {exc}"


def _close(got: float, want: float, rtol: float = FORMULA_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"not a boolean: {s!r}")
    return s == "true"


# -- algebra_cli --------------------------------------------------------------

# unimodular, solvable, nilpotent, semisimple, amenable, radical_dim
CATALOG = {
    "heisenberg3": (True, True, True, False, True, 3),
    "affine2": (False, True, False, False, True, 2),
    "so3": (True, False, False, True, True, 0),
    "sl2": (True, False, False, True, False, 0),
    "paper_example3": (True, True, False, False, True, 3),
    "abelian1": (True, True, True, False, True, 1),
    "abelian2": (True, True, True, False, True, 2),
    "abelian3": (True, True, True, False, True, 3),
    "abelian4": (True, True, True, False, True, 4),
    "abelian5": (True, True, True, False, True, 5),
}
# dimension of the derived algebra, the default ideal of `quotient`
DERIVED_DIM = {"heisenberg3": 1, "affine2": 1, "so3": 3, "sl2": 3,
               "paper_example3": 2}


def _catalog_lambda0(name: str) -> float:
    """lambda0 (or its Cheeger lower bound) of a catalog algebra at its
    default parameter: 1/4 for affine2 (c/4 at c = 1), zero for every
    unimodular one."""
    return 0.25 if name == "affine2" else 0.0


def _analyze_oracle(fixture: str, expect: tuple) -> Oracle:
    def check(rows):
        (row,) = rows
        got = (row[0], _bool(row[1])) + tuple(_bool(v) for v in row[2:7]) + (int(row[7]),)
        want = (fixture, True) + expect
        return None if got == want else f"classification {got} != {want}"
    return check


def _spectrum_oracle(fixture: str, amenable: bool, lam: float) -> Oracle:
    """lambda0 / cheeger rows: amenability, lambda0 and cheeger^2/4 = lambda0."""
    def check(rows):
        (row,) = rows
        if row[0] != fixture or _bool(row[2]) != amenable:
            return f"fixture/amenable mismatch: {row[:3]}"
        got, cheeger = float(row[3]), float(row[4])
        if not (_close(got, lam) and _close(cheeger * cheeger / 4.0, lam)):
            return f"lambda0 {got!r}, cheeger {cheeger!r}; expected lambda0 {lam!r}"
        return None
    return check


def _quotient_oracle(fixture: str, ideal_dim: int, lam: float,
                     equality: bool) -> Oracle:
    """Quotient through the derived algebra: when the ideal is unimodular and
    amenable the lower bound is an equality and reproduces lambda0."""
    def check(rows):
        (row,) = rows
        if row[0] != fixture or int(row[1]) != ideal_dim:
            return f"fixture/ideal_dim mismatch: {row[:2]}"
        if _bool(row[7]) != equality:
            return f"equality_expected {row[7]}, expected {equality}"
        if equality and not _close(float(row[6]), lam):
            return f"quotient bound {row[6]} != lambda0 {lam!r}"
        return None
    return check


# Every command, both failing exit codes and the quotient equality; the cost
# of a pass is the same for every seed, which only draws the order.  The
# first four are the tiny variant.
ALGEBRA_CALLS = (
    ("analyze", "heisenberg3"), ("lambda0", "sl2"), ("quotient", "affine2"),
    ("cheeger", "so3"), ("analyze", "sl2"), ("analyze", "abelian5"),
    ("lambda0", "paper_example3"), ("cheeger", "abelian1"), ("quotient", "so3"),
    ("quotient", "abelian3"),
)


def algebra_cli(seed: int, workdir: str, tiny: bool) -> Inputs:
    """Catalog algebras under every command, lambda0 of affine2 at c in
    {0.25, 1, 4}, and the expected exit-3 call `lambda0 sl2`."""
    rng = np.random.default_rng(seed)
    calls = [_catalog_call(command, name) for command, name in ALGEBRA_CALLS]
    for c in (0.25, 1.0, 4.0):
        calls.append(CliCall(("lambda0", "affine2", "--c", repr(c), "--format", "csv"),
                             0, _spectrum_oracle(f"affine2(c={c:g})", True, c / 4.0)))
    if tiny:
        calls = calls[:4]
    return Inputs(cli_calls=[calls[i] for i in rng.permutation(len(calls))])


def _catalog_call(command: str, name: str) -> CliCall:
    argv = (command, name, "--format", "csv")
    amenable = CATALOG[name][4]
    lam = _catalog_lambda0(name)
    if command == "analyze":
        return CliCall(argv, 0, _analyze_oracle(name, CATALOG[name]))
    if command == "lambda0" and not amenable:
        return CliCall(argv, 3)                    # formula inapplicable
    if command in ("lambda0", "cheeger"):
        return CliCall(argv, 0, _spectrum_oracle(name, amenable, lam))
    if name not in DERIVED_DIM:
        return CliCall(argv, 1)                    # abelian: derived algebra is zero
    # the derived algebra of sl2 and so3 is everything; only so3's is amenable
    equality = name != "sl2"
    return CliCall(argv, 0, _quotient_oracle(name, DERIVED_DIM[name], lam, equality))


# -- lie_scale ----------------------------------------------------------------

def an_group(n: int) -> np.ndarray:
    """AN group of real hyperbolic space H^{n+1}: [X, Y_i] = Y_i."""
    c = np.zeros((n + 1,) * 3)
    for i in range(1, n + 1):
        c[0, i, i] = 1.0
        c[i, 0, i] = -1.0
    return c


def heisenberg_type(p: int, q: int, rng) -> np.ndarray:
    """[X, Y] = Y/2, [X, Z] = Z, random antisymmetric [Y_i, Y_j] -> Z.

    ad X is a derivation for any antisymmetric Y-Y brackets into the centre
    Z, so the Jacobi identity holds.
    """
    n = 1 + p + q
    c = np.zeros((n,) * 3)
    for i in range(1, 1 + p):
        c[0, i, i], c[i, 0, i] = 0.5, -0.5
    for k in range(1 + p, n):
        c[0, k, k], c[k, 0, k] = 1.0, -1.0
        j = rng.standard_normal((p, p))
        c[1:1 + p, 1:1 + p, k] = j - j.T
    return c


def rotate(c: np.ndarray, rng) -> np.ndarray:
    """Structure constants in a random orthonormal basis f_a = sum_i Q_ia e_i."""
    n = c.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.einsum("ia,jb,ijk,kc->abc", q, q, c, q, optimize=True)


def lie_text(c: np.ndarray) -> str:
    """Lie fixture file with the identity metric (format in specsub.fixtures)."""
    n = c.shape[0]
    lines = [f"dim {n}"]
    for i in range(n):
        for j in range(i + 1, n):
            for k in np.flatnonzero(c[i, j]):
                lines.append(f"bracket {i + 1} {j + 1} {k + 1} {float(c[i, j, k])!r}")
    return "\n".join(lines) + "\n"


# (file stem, family, sizes, rotated, commands).  Dimensions 9 to 41, with the
# commands spread so that a pass stays near ten seconds and the dimension-41
# calls, not interpreter start, take most of it.
LIE_LADDER = (
    ("an9", "an", (8,), False, ("lambda0",)),
    ("ht13", "ht", (8, 4), True, ("analyze", "quotient")),
    ("an25", "an", (24,), True, ("analyze", "lambda0", "quotient")),
    ("ht41", "ht", (24, 16), True, ("analyze", "quotient")),
)
LIE_LADDER_TINY = LIE_LADDER[:2]
LIE_MAX_DIM = 41


def lie_scale(seed: int, workdir: str, tiny: bool) -> Inputs:
    """Solvable non-unimodular groups with lambda0 = (tr ad X)^2 / 4."""
    rng = np.random.default_rng(seed)
    calls = []
    for stem, family, sizes, rotated, commands in (LIE_LADDER_TINY if tiny else LIE_LADDER):
        if family == "an":
            (n,) = sizes
            c, trace_x = an_group(n), float(n)
        else:
            p, q = sizes
            c, trace_x = heisenberg_type(p, q, rng), p / 2.0 + q
        if rotated:
            c = rotate(c, rng)
        with open(os.path.join(workdir, stem + ".lie"), "w", encoding="utf-8") as fh:
            fh.write(lie_text(c))
        dim = c.shape[0]
        lam = trace_x * trace_x / 4.0
        for command in commands:
            argv = (command, stem, "--format", "csv")
            if command == "analyze":
                # valid, not unimodular, solvable, not nilpotent, not
                # semisimple, amenable, radical = everything
                oracle = _analyze_oracle(stem, (False, True, False, False, True, dim))
            elif command == "lambda0":
                oracle = _spectrum_oracle(stem, True, lam)
            else:
                # derived algebra = nilradical (codimension one), unimodular
                oracle = _quotient_oracle(stem, dim - 1, lam, True)
            calls.append(CliCall(argv, 0, oracle))
    return Inputs(cli_calls=calls)


# -- warped_cli ---------------------------------------------------------------

def smoothed_random_warp(rng, n: int) -> np.ndarray:
    """Criterion 6 recipe: uniform(0.5, 2) samples, four periodic box smooths."""
    raw = rng.uniform(0.5, 2.0, n)
    kernel = np.ones(9) / 9.0
    for _ in range(4):
        raw = np.convolve(np.concatenate([raw[-4:], raw, raw[:4]]), kernel,
                          mode="valid")
    return raw


def _verify_rows(rows):
    """verify-warped rows as (mode, lambda0, residual, slack), mode -1 last."""
    out = [(int(r[2]), float(r[3]), float(r[4]), float(r[5])) for r in rows]
    if [m for m, *_ in out] != list(range(len(out) - 1)) + [-1]:
        raise ValueError("unexpected mode column")
    return out


def _verify_oracle(fixture: str, grid: int,
                   exact: Optional[Callable[[float], Optional[str]]] = None) -> Oracle:
    """Inequality slack >= -ineq_tol on every row, two-route agreement, and
    an optional closed form for lambda0(S)."""
    def check(rows):
        if any(r[0] != fixture or int(r[1]) != grid for r in rows):
            return "fixture/grid column mismatch"
        parsed = _verify_rows(rows)
        if not all(math.isfinite(v) for row in parsed for v in row):
            return "non-finite value"
        if min(s for *_, s in parsed) < -INEQ_TOL:
            return "inequality slack below -1e-8"
        lam_l0, lam_s = parsed[0][1], parsed[-1][1]
        if abs(lam_l0 - lam_s) > UNITARY_TOL:
            return f"two routes differ: {lam_l0!r} vs {lam_s!r}"
        return exact(lam_s) if exact else None
    return check


def _exp_closed_form(a: float, grid: int) -> Callable[[float], Optional[str]]:
    """psi = e^{a t} on [0, 60/a], Dirichlet.  S = -d^2 + V with V constant:
    the discrete V is 4 sinh^2(a h/4)/h^2 and the discrete Dirichlet
    Laplacian bottom 4 sin^2(pi h/(2B))/h^2, so lambda0(S) is their sum up to
    round-off in the matrix entries.  The continuum value a^2/4 + (pi/B)^2 is
    met to second order in h."""
    b = 60.0 / a
    h = b / (grid + 1)
    discrete = (4 * math.sinh(a * h / 4) ** 2 + 4 * math.sin(math.pi * h / (2 * b)) ** 2) / h ** 2
    continuum = a * a / 4 + (math.pi / b) ** 2
    entry_scale = 4.0 / h ** 2

    def check(lam):
        if abs(lam - discrete) > 64 * np.finfo(float).eps * entry_scale:
            return f"exp lambda0 {lam!r} != discrete closed form {discrete!r}"
        if abs(lam - continuum) > h * h * continuum:
            return f"exp lambda0 {lam!r} outside h^2 of {continuum!r}"
        return None
    return check


def _flat_closed_form(length: float, grid: int) -> Callable[[float], Optional[str]]:
    """Flat Dirichlet interval: the Toeplitz form 4 sin^2(pi h/(2L))/h^2."""
    h = length / (grid + 1)
    want = 4 * math.sin(math.pi * h / (2 * length)) ** 2 / h ** 2

    def check(lam):
        ok = abs(lam - want) <= TOEPLITZ_TOL
        return None if ok else f"flat Dirichlet {lam!r} != Toeplitz {want!r}"
    return check


def _zero(lam: float) -> Optional[str]:
    return None if abs(lam) <= 1e-9 else f"constant warp lambda0 {lam!r} != 0"


def _tail_oracle(fixture: str, grid: int, a: float) -> Oracle:
    """Restrictions past increasing cutoffs: non-decreasing by interlacing and
    bounded below by the constant discrete potential 4 sinh^2(a h/4)/h^2."""
    h = (60.0 / a) / (grid + 1)
    floor = 4 * math.sinh(a * h / 4) ** 2 / h ** 2

    def check(rows):
        if any(r[0] != fixture or int(r[1]) != grid for r in rows):
            return "fixture/grid column mismatch"
        vals = [float(r[3]) for r in rows]
        if len(vals) != 9 or any(b < a0 - 1e-9 * max(1.0, abs(a0))
                                 for a0, b in zip(vals, vals[1:])):
            return "tail values not non-decreasing"
        if min(vals) < floor * (1 - FORMULA_RTOL):
            return f"tail value below the potential floor {floor!r}"
        return None
    return check


GRIDS = (256, 2048, 16384)
EXP_A = 0.5           # catalog default of the exp warp


def warped_cli(seed: int, workdir: str, tiny: bool) -> Inputs:
    """Catalog warps (default parameters) at three grids and tail-ess, plus
    seeded sampled warps and a seeded flat Dirichlet file read through
    $SPECSUB_FIXTURE_DIR."""
    rng = np.random.default_rng(seed)
    grids = (256,) if tiny else GRIDS
    calls = []
    for grid in grids:
        for kind, exact in (("const", _zero), ("sinshift", None),
                            ("exp", _exp_closed_form(EXP_A, grid))):
            calls.append(CliCall(("verify-warped", kind, "--grid", str(grid),
                                  "--format", "csv"),
                                 0, _verify_oracle(kind, grid, exact)))
    length = round(float(rng.uniform(1.0, 3.0)), 3)
    level = round(float(rng.uniform(0.5, 2.0)), 3)
    _write(workdir, "flat.warp",
           f"base interval 0.0 {length!r} dirichlet\nwarp const {level!r}\n")
    calls.append(CliCall(("verify-warped", "flat", "--grid", "256", "--format", "csv"),
                         0, _verify_oracle("flat", 256, _flat_closed_form(length, 256))))
    for grid in grids[:2]:
        stem = f"sampled{grid}"
        samples = " ".join(repr(float(v)) for v in smoothed_random_warp(rng, grid))
        _write(workdir, stem + ".warp",
               f"base circle {2 * math.pi!r}\nwarp samples {samples}\n")
        calls.append(CliCall(("verify-warped", stem, "--grid", str(grid), "--format", "csv"),
                             0, _verify_oracle(stem, grid)))
    tail_grid = grids[min(1, len(grids) - 1)]
    calls.append(CliCall(("tail-ess", "exp", "--grid", str(tail_grid), "--format", "csv"),
                         0, _tail_oracle("exp", tail_grid, EXP_A)))
    return Inputs(cli_calls=calls)


def _write(workdir: str, name: str, text: str):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


# -- pushdown_lib -------------------------------------------------------------

PUSHDOWN_GRIDS = ((64, 32), (128, 64), (256, 64))     # (base grid, fiber grid)


def pushdown_lib(seed: int, workdir: str, tiny: bool) -> Inputs:
    """Criterion 7's pattern: random grid functions on catalog warps (seeded
    parameters) and on smoothed random sampled warps, grids 64 to 256."""
    rng = np.random.default_rng(seed)
    grids = PUSHDOWN_GRIDS[:1] if tiny else PUSHDOWN_GRIDS
    per_warp = 2 if tiny else 10
    warps = {
        "const": ("const", (float(rng.uniform(0.5, 2.0)),)),
        "sinshift": ("sinshift", (float(rng.uniform(0.5, 2.0)),)),
        "exp": ("exp", (float(rng.uniform(0.25, 1.0)),)),   # on [0, 15/a]
    }
    cases = []
    for grid, n_theta in grids:
        warps[f"sampled{grid}"] = ("samples", smoothed_random_warp(rng, grid))
        for name in ("const", "sinshift", "exp", f"sampled{grid}"):
            for _ in range(per_warp):
                cases.append(LibCase("random", name, grid,
                                     rng.standard_normal((grid, n_theta))))
            g = rng.uniform(0.5, 2.0, grid)
            cases.append(LibCase("fiberconst", name, grid,
                                 np.repeat(g[:, None], n_theta, axis=1)))
    return Inputs(lib_cases=cases, warps=warps)


def check_lib(case: LibCase, slack: float, rayleigh: float) -> Optional[str]:
    if not (math.isfinite(slack) and math.isfinite(rayleigh)):
        return "non-finite result"
    scale = max(1.0, abs(rayleigh))
    if case.kind == "fiberconst":
        return None if abs(slack) <= 1e-10 * scale else \
            f"fiber-constant slack {slack!r} != 0"
    if slack < -INEQ_TOL:
        return f"pushdown slack {slack!r} < -1e-8"
    if rayleigh - slack < -INEQ_TOL * scale:
        return f"R(f) - slack = R_S(pushdown f) < 0: {rayleigh!r}, {slack!r}"
    return None


GENERATORS = {
    "algebra_cli": algebra_cli,
    "warped_cli": warped_cli,
    "lie_scale": lie_scale,
    "pushdown_lib": pushdown_lib,
}
