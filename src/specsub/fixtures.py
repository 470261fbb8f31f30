"""Fixture catalog plus the text file formats for algebras and warps.

Lie algebra files:
    dim n
    bracket i j k v     # 1-based, i < j; antisymmetric completion implied
    metric i j v        # symmetric completion; absent diagonal 1, rest 0
    # comments and blank lines allowed

Warp files:
    base circle L  |  base interval a b dirichlet|neumann
    fiber_dim k
    fiber_lambda0 v
    warp const c | exp a | sinshift A | samples v1 v2 ...

Each warp directive appears at most once; fiber_dim and fiber_lambda0 may
be left out (1 and 0).  'warp samples' must be the last directive and needs
at least 16 values, which may continue on following lines.

Every error that a line causes names that line.  A missing base or warp
directive and a metric that is not positive definite are properties of the
whole file and name none.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import FixtureParseError
from .lie_core import Ideal, MetricLieAlgebra, metric_definiteness

if TYPE_CHECKING:
    from .warped_spectra import Boundary, WarpedProductSpec

FIXTURE_DIR_ENV = "SPECSUB_FIXTURE_DIR"

# The warped side is imported by the functions that build or read a warp, so
# that reading a Lie algebra never loads it.
Fixture = Union[MetricLieAlgebra, "WarpedProductSpec"]


# -- built-in Lie algebras -----------------------------------------------------

def _algebra(n, brackets, metric=None):
    c = np.zeros((n, n, n))
    for i, j, k, v in brackets:
        c[i, j, k] = v
        c[j, i, k] = -v
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    return MetricLieAlgebra(n, c, g)


def heisenberg3() -> MetricLieAlgebra:
    """[e1,e2] = e3, all else zero; nilpotent, unimodular."""
    return _algebra(3, [(0, 1, 2, 1.0)])


def affine2(c: float = 1.0) -> MetricLieAlgebra:
    """[X,Y] = Y with metric diag(1/c, c).

    The associated simply connected group is the hyperbolic plane of curvature
    -c; its spectral bottom is c/4 (equal to a quarter of the squared Cheeger
    constant).  A value of c^2/4 is sometimes quoted for this model from the
    curvature normalization; the trace-functional formula and the standard
    hyperbolic value both give c/4, which is what this library reports.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"affine2 needs a finite c > 0 (--c), got {c!r}")
    return _algebra(2, [(0, 1, 1, 1.0)], metric=np.diag([1.0 / c, c]))


def so3() -> MetricLieAlgebra:
    """Compact simple algebra: [e1,e2]=e3 cyclically."""
    return _algebra(3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)])


def sl2() -> MetricLieAlgebra:
    """Split simple algebra in the (H, E, F) basis."""
    return _algebra(3, [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)])


def paper_example3() -> MetricLieAlgebra:
    """[X,Y] = Y, [X,Z] = -Z, [Y,Z] = 0; unimodular solvable, orthonormal basis."""
    return _algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, -1.0)])


def abelian(n: int) -> MetricLieAlgebra:
    if n < 1:
        raise ValueError("abelian needs n >= 1")
    return _algebra(n, [])


def catalog_ideals(name: str, alg: MetricLieAlgebra):
    """Known proper nonzero ideals of the built-in algebras, as (label, Ideal)."""
    e = np.eye(alg.dim)
    if name == "heisenberg3":
        spans = [("center", e[[2]]), ("e2+center", e[[1, 2]]), ("e1+center", e[[0, 2]])]
    elif name == "affine2":
        spans = [("span_Y", e[[1]])]
    elif name == "paper_example3":
        spans = [("span_Y", e[[1]]), ("span_Z", e[[2]]), ("span_YZ", e[[1, 2]])]
    elif name.startswith("abelian") and alg.dim > 1:
        spans = [("first_half", e[: alg.dim // 2])]
    else:
        spans = []
    return [(label, Ideal(alg, rows)) for label, rows in spans]


# -- built-in warps ------------------------------------------------------------

def warp_const(c: float = 1.0) -> WarpedProductSpec:
    from .warped_spectra import CircleBase, WarpedProductSpec, WarpProfile
    return WarpedProductSpec(CircleBase(2 * math.pi), WarpProfile("const", (c,)),
                             name="const")


def warp_sinshift(amp: float = 1.0) -> WarpedProductSpec:
    """psi = (1 + A) + A sin x on the circle of length 2 pi; min value 1."""
    from .warped_spectra import CircleBase, WarpedProductSpec, WarpProfile
    return WarpedProductSpec(CircleBase(2 * math.pi), WarpProfile("sinshift", (amp,)),
                             name="sinshift")


def warp_exp(a: float = 0.5, b: Optional[float] = None,
             boundary: Boundary = "dirichlet") -> WarpedProductSpec:
    """psi = e^{a t} on a truncated ray [0, b]; default b = 60/a."""
    from .warped_spectra import IntervalBase, WarpedProductSpec, WarpProfile
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"exp warp needs a finite rate a > 0 (--c), got {a!r}")
    if b is None:
        b = 60.0 / a
    return WarpedProductSpec(IntervalBase(0.0, b, boundary),
                             WarpProfile("exp", (a,)), name="exp")


LIE_BUILTINS = {
    "heisenberg3": heisenberg3,
    "affine2": affine2,
    "so3": so3,
    "sl2": sl2,
    "paper_example3": paper_example3,
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "abelian4": lambda: abelian(4),
    "abelian5": lambda: abelian(5),
}

WARP_BUILTINS = {"const": warp_const, "sinshift": warp_sinshift, "exp": warp_exp}

# the catalog entries whose one parameter --c sets; no other fixture takes one
_PARAMETERIZED = ("affine2", *sorted(WARP_BUILTINS))
_NO_PARAMETER = f"--c applies to the catalog fixtures {', '.join(_PARAMETERIZED)} only"


def catalog_fixture(name: str, c: Optional[float] = None) -> Fixture:
    make = LIE_BUILTINS.get(name) or WARP_BUILTINS.get(name)
    if make is None:
        raise KeyError(f"unknown fixture {name!r}")
    if c is None:
        return make()
    if name not in _PARAMETERIZED:
        raise ValueError(f"{name} takes no parameter: {_NO_PARAMETER}")
    return make(c)


# -- serialization -------------------------------------------------------------

def lie_fixture_text(alg: MetricLieAlgebra) -> str:
    n, c, g = alg.dim, alg.structure, alg.metric
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    i, j, k = np.nonzero((c != 0.0) & upper[:, :, None])
    a, b = np.nonzero((g != np.eye(n)) & (upper | np.eye(n, dtype=bool)))
    lines = [f"dim {n}"]
    lines += map("bracket {} {} {} {!r}".format, (i + 1).tolist(), (j + 1).tolist(),
                 (k + 1).tolist(), c[i, j, k].tolist())
    lines += map("metric {} {} {!r}".format, (a + 1).tolist(), (b + 1).tolist(),
                 g[a, b].tolist())
    return "\n".join(lines) + "\n"


def warp_fixture_text(spec: WarpedProductSpec) -> str:
    from .warped_spectra import CircleBase
    if isinstance(spec.base, CircleBase):
        lines = [f"base circle {float(spec.base.length)!r}"]
    else:
        lines = [f"base interval {float(spec.base.a)!r} {float(spec.base.b)!r} "
                 f"{spec.base.boundary.value}"]
    lines.append(f"fiber_dim {spec.fiber_dim}")
    lines.append(f"fiber_lambda0 {float(spec.fiber_lambda0)!r}")
    w = spec.warp
    values = w.samples if w.kind == "samples" else w.params
    lines.append(f"warp {w.kind} " + " ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def fixture_text(fix: Fixture) -> str:
    if isinstance(fix, MetricLieAlgebra):
        return lie_fixture_text(fix)
    return warp_fixture_text(fix)


# -- parsing -------------------------------------------------------------------

def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_float(tok, lineno):
    try:
        v = float(tok)
    except ValueError:
        raise FixtureParseError(f"expected a number, got {tok!r}", lineno) from None
    if not math.isfinite(v):
        raise FixtureParseError(f"expected a finite number, got {tok!r}", lineno)
    return v


def _parse_int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise FixtureParseError(f"expected an integer, got {tok!r}", lineno) from None


def parse_fixture_text(text: str) -> Fixture:
    lie = _parse_lie_bulk(text)
    if lie is not None:
        return _lie_algebra(*lie)
    return _parse_lines(text)


def _parse_lines(text: str) -> Fixture:
    """The per-line parser: every file the bulk path does not accept, and the
    source of every FixtureParseError."""
    rows = list(_tokens(text))
    if not rows:
        raise FixtureParseError("empty fixture file")
    if rows[0][1][0] == "dim":
        return _lie_algebra(*_parse_lie(rows))
    return _parse_warp(rows)


def _lie_algebra(n: int, c: np.ndarray, g: np.ndarray) -> MetricLieAlgebra:
    min_eig, definite = metric_definiteness(g)
    if not definite:
        raise FixtureParseError(
            f"metric is not positive definite (min eigenvalue {min_eig:.3e})")
    c.setflags(write=False)  # handed over without a copy
    return MetricLieAlgebra(n, c, g)


def _structure(n: int) -> Optional[np.ndarray]:
    """Zero structure constants of dimension n, or None when numpy cannot
    allocate them (MemoryError, or ValueError past the address space); the
    callers allocate the n x n metric only after them."""
    try:
        return np.zeros((n, n, n))
    except (MemoryError, ValueError):
        return None


# each Lie directive after `dim n` as a line spells it; its word count is its arity
_LIE_USAGE = {"bracket": "bracket i j k v", "metric": "metric i j v"}


def _parse_lie(rows):
    """-> (n, c, g) from the token rows of a Lie file, one line at a time."""
    lineno, toks = rows[0]
    if toks[0] != "dim" or len(toks) != 2:
        raise FixtureParseError("lie fixtures start with 'dim n'", lineno)
    n = _parse_int(toks[1], lineno)
    if n < 1:
        raise FixtureParseError("dimension must be positive", lineno)
    c = _structure(n)
    if c is None:
        raise FixtureParseError(f"dimension {n} is too large: its {n}^3 structure "
                                "constants do not fit in memory", lineno)
    g = np.eye(n)
    seen = set()
    for lineno, toks in rows[1:]:
        kind = toks[0]
        if kind == "dim":
            raise FixtureParseError("duplicate dim directive", lineno)
        usage = _LIE_USAGE.get(kind)
        if usage is None:
            raise FixtureParseError(f"unknown directive {kind!r}", lineno)
        if len(toks) != len(usage.split()):
            raise FixtureParseError(f"{kind} needs: {usage}", lineno)
        idx = [_parse_int(t, lineno) for t in toks[1:-1]]
        v = _parse_float(toks[-1], lineno)
        for i in idx:
            if not 1 <= i <= n:
                raise FixtureParseError(f"index {i} out of range 1..{n}", lineno)
        if kind == "bracket" and idx[0] >= idx[1]:
            raise FixtureParseError(
                "bracket entries must have i < j "
                "(antisymmetric completion is implied)", lineno)
        # a metric entry and its transpose are one entry
        key = (kind, *(idx if kind == "bracket" else sorted(idx)))
        if key in seen:
            raise FixtureParseError(
                f"duplicate {kind} entry {' '.join(map(str, idx))}", lineno)
        seen.add(key)
        i, j = idx[0] - 1, idx[1] - 1
        if kind == "bracket":
            c[i, j, idx[2] - 1] = v
            c[j, i, idx[2] - 1] = -v
        else:
            g[i, j] = g[j, i] = v
    return n, c, g


# A Lie file is read in bulk when numpy's C reader takes every line after
# `dim n`: one row (directive word, three indices, value) per line, with a 0
# put in front of a metric line's two indices.  The lines are those of
# str.splitlines; np.loadtxt splits them into fields as str.split does, drops
# '#' comments, parses an index as an integer and a value as float() does, and
# rejects a malformed token or a wrong column count itself.  From numpy 1.23
# until that deprecation expired, loadtxt read an index such as 2.7 or 1e0
# through a float, truncated it and only warned (DeprecationWarning); that
# warning is made an error here, so such a file goes to the per-line parser on
# every numpy the package allows.  A directive word anywhere but at the start
# of its line is a token that no number parses, a row whose first token is no
# directive fails the word check (S8 keeps a longer word distinct), so the file
# reads exactly as the per-line parser reads it.  Any other file (non-ASCII, or a row that fails a check) goes to
# the per-line parser, which owns the messages.
_LIE_ROW = np.dtype([("word", "S8"), ("idx", "i8", (3,)), ("val", "f8")])


def _parse_lie_bulk(text: str):
    """-> (n, c, g) for a Lie file the bulk path accepts exactly, else None."""
    # an S8 word drops trailing NULs, so b'bracket\0' would read as a bracket
    if not text.isascii() or "\0" in text:
        return None
    lines = text.replace("metric", "metric 0 ").splitlines()
    for head, line in enumerate(lines):
        toks = line.split("#", 1)[0].split()
        if toks:
            break
    else:
        return None
    if len(toks) != 2 or toks[0] != "dim":
        return None
    try:
        n = int(toks[1])
    except ValueError:
        return None
    # one valid row at the end, so that a file without directives reads as no
    # rows instead of making loadtxt warn about empty input
    lines.append("bracket 1 2 1 0")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype=_LIE_ROW, comments="#", skiprows=head + 1,
                              ndmin=1)[:-1]
    except (ValueError, DeprecationWarning):
        return None
    del lines               # the arrays below need not share the peak with them
    word, idx, val = rows["word"], rows["idx"], rows["val"]
    bracket = word == b"bracket"
    in_range = (idx >= 1) & (idx <= n)
    in_range[~bracket, 0] = True
    if not ((bracket | (word == b"metric")).all() and in_range.all()
            and np.isfinite(val).all()):
        return None
    c = _structure(n) if n >= 1 else None
    if c is None:
        return None
    g = np.eye(n)
    idx -= 1
    i, j, k = idx[bracket].T
    v = val[bracket]
    mi, mj = idx[~bracket, 1:].T
    w = val[~bracket]
    lo, hi = np.minimum(mi, mj), np.maximum(mi, mj)
    if ((i >= j).any() or _has_duplicates((i * n + j) * n + k)
            or _has_duplicates(lo * n + hi)):
        return None
    c[i, j, k] = v
    c[j, i, k] = -v
    g[mi, mj] = w
    g[mj, mi] = w
    return n, c, g


def _has_duplicates(keys: np.ndarray) -> bool:
    keys = np.sort(keys)
    return bool((keys[1:] == keys[:-1]).any())


def _built(lineno, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported at this line."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FixtureParseError(str(exc), lineno) from None


def _parse_warp(rows) -> WarpedProductSpec:
    """The value types check what they are given; this reads the lines."""
    from .warped_spectra import CircleBase, IntervalBase, WarpedProductSpec, WarpProfile
    seen = {}               # directive -> its line
    base = warp = samples = None
    fibers = {}             # fiber_dim and fiber_lambda0, in file order
    for lineno, toks in rows:
        if samples is not None:
            # bare numbers after 'warp samples'
            samples.extend(_parse_float(t, lineno) for t in toks)
            continue
        kind = toks[0]
        if kind in seen:
            raise FixtureParseError(f"duplicate {kind} directive", lineno)
        seen[kind] = lineno
        match toks:
            case ["base", "circle", length]:
                base = _built(lineno, CircleBase, _parse_float(length, lineno))
            case ["base", "interval", a, b, boundary]:
                base = _built(lineno, IntervalBase, _parse_float(a, lineno),
                              _parse_float(b, lineno), boundary)
            case ["base", *_]:
                raise FixtureParseError(
                    "base needs: 'base circle L' or 'base interval a b bc'", lineno)
            case ["fiber_dim", k]:
                fibers[kind] = _parse_int(k, lineno)
            case ["fiber_lambda0", v]:
                fibers[kind] = _parse_float(v, lineno)
            case ["fiber_dim" | "fiber_lambda0", *_]:
                raise FixtureParseError(f"{kind} needs one value", lineno)
            case ["warp", "samples", *values]:
                samples = [_parse_float(t, lineno) for t in values]
            case ["warp", wkind, *params]:
                warp = _built(lineno, WarpProfile, wkind,
                              tuple(_parse_float(t, lineno) for t in params))
            case ["warp"]:
                raise FixtureParseError("warp needs a kind", lineno)
            case _:
                raise FixtureParseError(f"unknown directive {kind!r}", lineno)
    if samples is not None:
        if len(samples) < 16:
            raise FixtureParseError("sampled warp needs at least 16 values", seen["warp"])
        warp = WarpProfile("samples", (), samples=np.array(samples))
    if base is None:
        raise FixtureParseError("missing base directive")
    if warp is None:
        raise FixtureParseError("missing warp directive")
    for field, value in fibers.items():     # each checked at its own line
        _built(seen[field], WarpedProductSpec, base, warp, **{field: value})
    return WarpedProductSpec(base, warp, **fibers)


def parse_fixture(path: str) -> Fixture:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fixture_text(fh.read())


def resolve_fixture(name_or_path: str, c: Optional[float] = None) -> Fixture:
    """Resolve a CLI input: override directory, then a path, then the catalog."""
    override = os.environ.get(FIXTURE_DIR_ENV)
    paths = [os.path.join(override, name_or_path + ext)
             for ext in ("", ".lie", ".warp")] if override else []
    for p in paths + [name_or_path]:
        if os.path.isfile(p):
            if c is not None:
                raise FixtureParseError(f"{p!r} is a fixture file: {_NO_PARAMETER}")
            return parse_fixture(p)
    try:
        return catalog_fixture(name_or_path, c)
    except KeyError:
        raise FixtureParseError(
            f"{name_or_path!r} is neither a readable file nor a catalog fixture "
            f"(built-ins: {', '.join(sorted(LIE_BUILTINS) + sorted(WARP_BUILTINS))})"
        ) from None
