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

'warp samples' must be the last directive; its values may continue on
following lines.  Duplicate directives are rejected with the offending
line number.
"""

from __future__ import annotations

import math
import os
import re
from typing import Optional, Union

import numpy as np

from .errors import FixtureParseError
from .lie_core import Ideal, MetricLieAlgebra, metric_definiteness
from .tolerances import Tolerances, DEFAULT
from .warped_spectra import (Boundary, CircleBase, IntervalBase, WarpProfile,
                             WarpedProductSpec)

FIXTURE_DIR_ENV = "SPECSUB_FIXTURE_DIR"

Fixture = Union[MetricLieAlgebra, WarpedProductSpec]


# -- built-in Lie algebras -----------------------------------------------------

def _algebra(n, brackets, metric=None, labels=None):
    c = np.zeros((n, n, n))
    for i, j, k, v in brackets:
        c[i, j, k] = v
        c[j, i, k] = -v
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    return MetricLieAlgebra(n, c, g, basis_labels=labels)


def heisenberg3() -> MetricLieAlgebra:
    """[e1,e2] = e3, all else zero; nilpotent, unimodular."""
    return _algebra(3, [(0, 1, 2, 1.0)], labels=("e1", "e2", "e3"))


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
    return _algebra(2, [(0, 1, 1, 1.0)], metric=np.diag([1.0 / c, c]),
                    labels=("X", "Y"))


def so3() -> MetricLieAlgebra:
    """Compact simple algebra: [e1,e2]=e3 cyclically."""
    return _algebra(3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)])


def sl2() -> MetricLieAlgebra:
    """Split simple algebra in the (H, E, F) basis."""
    return _algebra(3, [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)],
                    labels=("H", "E", "F"))


def paper_example3() -> MetricLieAlgebra:
    """[X,Y] = Y, [X,Z] = -Z, [Y,Z] = 0; unimodular solvable, orthonormal basis."""
    return _algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, -1.0)], labels=("X", "Y", "Z"))


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
    return WarpedProductSpec(CircleBase(2 * math.pi), WarpProfile("const", (c,)),
                             name="const")


def warp_sinshift(amp: float = 1.0) -> WarpedProductSpec:
    """psi = (1 + A) + A sin x on the circle of length 2 pi; min value 1."""
    return WarpedProductSpec(CircleBase(2 * math.pi), WarpProfile("sinshift", (amp,)),
                             name="sinshift")


def warp_exp(a: float = 0.5, b: Optional[float] = None,
             boundary: Boundary = Boundary.DIRICHLET) -> WarpedProductSpec:
    """psi = e^{a t} on a truncated ray [0, b]; default b = 60/a."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"exp warp needs a finite rate a > 0 (--c), got {a!r}")
    if b is None:
        b = 60.0 / a
    return WarpedProductSpec(IntervalBase(0.0, b, boundary),
                             WarpProfile("exp", (a,)), name="exp")


LIE_BUILTINS = {
    "heisenberg3": lambda c: heisenberg3(),
    "affine2": lambda c: affine2(c if c is not None else 1.0),
    "so3": lambda c: so3(),
    "sl2": lambda c: sl2(),
    "paper_example3": lambda c: paper_example3(),
    "abelian1": lambda c: abelian(1),
    "abelian2": lambda c: abelian(2),
    "abelian3": lambda c: abelian(3),
    "abelian4": lambda c: abelian(4),
    "abelian5": lambda c: abelian(5),
}

WARP_BUILTINS = {
    "const": lambda c: warp_const(c if c is not None else 1.0),
    "sinshift": lambda c: warp_sinshift(c if c is not None else 1.0),
    "exp": lambda c: warp_exp(c if c is not None else 0.5),
}


def catalog_fixture(name: str, c: Optional[float] = None) -> Fixture:
    if name in LIE_BUILTINS:
        return LIE_BUILTINS[name](c)
    if name in WARP_BUILTINS:
        return WARP_BUILTINS[name](c)
    raise KeyError(f"unknown fixture {name!r}")


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
    if isinstance(spec.base, CircleBase):
        lines = [f"base circle {float(spec.base.length)!r}"]
    else:
        lines = [f"base interval {float(spec.base.a)!r} {float(spec.base.b)!r} "
                 f"{spec.base.boundary.value}"]
    lines.append(f"fiber_dim {spec.fiber_dim}")
    lines.append(f"fiber_lambda0 {float(spec.fiber_lambda0)!r}")
    w = spec.warp
    if w.kind == "samples":
        lines.append("warp samples " + " ".join(repr(float(v)) for v in w.samples))
    else:
        lines.append(f"warp {w.kind} " + " ".join(repr(p) for p in w.params))
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


def parse_fixture_text(text: str, tols: Tolerances = DEFAULT) -> Fixture:
    lie = _parse_lie_bulk(text)
    if lie is not None:
        return _lie_algebra(*lie, tols)
    return _parse_lines(text, tols)


def _parse_lines(text: str, tols: Tolerances = DEFAULT) -> Fixture:
    """The per-line parser: every file the bulk path does not accept, and the
    source of every FixtureParseError."""
    rows = list(_tokens(text))
    if not rows:
        raise FixtureParseError("empty fixture file")
    head = rows[0][1][0]
    if head == "dim":
        return _lie_algebra(*_parse_lie(rows), tols)
    if head in ("base", "fiber_dim", "fiber_lambda0", "warp"):
        return _parse_warp(rows)
    raise FixtureParseError(f"unknown directive {head!r}", rows[0][0])


def _lie_algebra(n: int, c: np.ndarray, g: np.ndarray,
                 tols: Tolerances) -> MetricLieAlgebra:
    min_eig, definite = metric_definiteness(g, tols.spd_tol)
    if not definite:
        raise FixtureParseError(
            f"metric is not positive definite (min eigenvalue {min_eig:.3e})")
    c.setflags(write=False)  # handed over without a copy
    return MetricLieAlgebra(n, c, g)


def _parse_lie(rows):
    """-> (n, c, g) from the token rows of a Lie file, one line at a time."""
    lineno, toks = rows[0]
    if toks[0] != "dim" or len(toks) != 2:
        raise FixtureParseError("lie fixtures start with 'dim n'", lineno)
    n = _parse_int(toks[1], lineno)
    if n < 1:
        raise FixtureParseError("dimension must be positive", lineno)
    c = np.zeros((n, n, n))
    g = np.eye(n)
    seen_brackets = set()
    seen_metric = set()
    for lineno, toks in rows[1:]:
        kind = toks[0]
        if kind == "dim":
            raise FixtureParseError("duplicate dim directive", lineno)
        if kind == "bracket":
            if len(toks) != 5:
                raise FixtureParseError("bracket needs: bracket i j k v", lineno)
            i, j, k = (_parse_int(t, lineno) for t in toks[1:4])
            v = _parse_float(toks[4], lineno)
            for idx in (i, j, k):
                if not 1 <= idx <= n:
                    raise FixtureParseError(f"index {idx} out of range 1..{n}", lineno)
            if i >= j:
                raise FixtureParseError(
                    "bracket entries must have i < j "
                    "(antisymmetric completion is implied)", lineno)
            if (i, j, k) in seen_brackets:
                raise FixtureParseError(f"duplicate bracket entry {i} {j} {k}", lineno)
            seen_brackets.add((i, j, k))
            c[i - 1, j - 1, k - 1] = v
            c[j - 1, i - 1, k - 1] = -v
        elif kind == "metric":
            if len(toks) != 4:
                raise FixtureParseError("metric needs: metric i j v", lineno)
            i, j = (_parse_int(t, lineno) for t in toks[1:3])
            v = _parse_float(toks[3], lineno)
            for idx in (i, j):
                if not 1 <= idx <= n:
                    raise FixtureParseError(f"index {idx} out of range 1..{n}", lineno)
            key = (min(i, j), max(i, j))
            if key in seen_metric:
                raise FixtureParseError(f"duplicate metric entry {i} {j}", lineno)
            seen_metric.add(key)
            g[i - 1, j - 1] = v
            g[j - 1, i - 1] = v
        else:
            raise FixtureParseError(f"unknown directive {kind!r}", lineno)
    return n, c, g


# A Lie file in which every line is blank, a comment or one directive of the
# strict ASCII grammar below is parsed in bulk, without a Python object per
# token.  Its integers have at most 15 digits, so they are exact as float64,
# and every number converts by the same correctly rounded routine as float()
# (np.fromstring calls PyOS_string_to_double).  Anything else, or a row that
# fails a check, goes to the per-line parser, which owns the error messages.
_SEP = r"[ \t]+"
_INT = r"[+-]?[0-9]{1,15}"
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# no line break of str.splitlines inside a comment
_COMMENT = r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)?"
_LIE_LINE = (rf"[ \t]*(?:(?:dim{_SEP}{_INT}|bracket{_SEP}{_INT}{_SEP}{_INT}{_SEP}{_INT}{_SEP}"
             rf"{_NUMBER}|metric{_SEP}{_INT}{_SEP}{_INT}{_SEP}{_NUMBER})[ \t]*)?{_COMMENT}"
             r"\r?(?=\n|\Z)")
# a line break before a line outside the grammar; the literal '\n' lets the
# search skip from line break to line break
_LIE_BAD_LINE = rf"\n(?!{_LIE_LINE})"
_LIE_DIM = rf"\s*dim{_SEP}({_INT})"


def _parse_lie_bulk(text: str):
    """-> (n, c, g) for a Lie file the bulk path accepts exactly, else None."""
    # the patterns compile on first use (re caches them), not at import; the
    # leading '\n' puts the first line under the same check as the others
    if re.search(_LIE_BAD_LINE, "\n" + text):
        return None
    if "#" in text:
        text = re.sub("#.*", "", text)
    head = re.match(_LIE_DIM, text)
    if head is None or text.count("dim") != 1:
        return None
    n = int(head[1])
    if n < 1:
        return None
    c = np.zeros((n, n, n))
    g = np.eye(n)
    count = text.count("bracket") + text.count("metric")
    if count == 0:          # np.fromstring reads a blank string as [-1.]
        return n, c, g
    # one row (tag, i, j, k, v) per directive: tag 1 is a bracket, a metric
    # line becomes (0, 0, i, j, v)
    body = text[head.end():].replace("bracket", "1").replace("metric", "0 0")
    rows = np.fromstring(body, sep=" ").reshape(count, 5)
    bracket = rows[:, 0] == 1.0
    idx, val = rows[:, 1:4], rows[:, 4]
    in_range = (idx >= 1.0) & (idx <= n)
    in_range[~bracket, 0] = True
    if not (in_range.all() and np.isfinite(val).all()):
        return None
    idx = idx.astype(np.intp) - 1
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


def _parse_warp(rows) -> WarpedProductSpec:
    base = None
    fiber_dim = None
    fiber_lambda0 = None
    warp = None
    it = iter(rows)
    pending_samples = None
    for lineno, toks in it:
        kind = toks[0]
        if pending_samples is not None:
            # bare numbers after 'warp samples'
            pending_samples.extend(_parse_float(t, lineno) for t in toks)
            continue
        if kind == "base":
            if base is not None:
                raise FixtureParseError("duplicate base directive", lineno)
            if len(toks) >= 2 and toks[1] == "circle" and len(toks) == 3:
                base = CircleBase(_parse_float(toks[2], lineno))
            elif len(toks) == 5 and toks[1] == "interval":
                a = _parse_float(toks[2], lineno)
                b = _parse_float(toks[3], lineno)
                if toks[4] not in ("dirichlet", "neumann"):
                    raise FixtureParseError(
                        "interval boundary must be dirichlet or neumann", lineno)
                base = IntervalBase(a, b, Boundary(toks[4]))
            else:
                raise FixtureParseError(
                    "base needs: 'base circle L' or 'base interval a b bc'", lineno)
        elif kind == "fiber_dim":
            if fiber_dim is not None:
                raise FixtureParseError("duplicate fiber_dim", lineno)
            fiber_dim = _parse_int(toks[1], lineno) if len(toks) == 2 else None
            if fiber_dim is None or fiber_dim < 1:
                raise FixtureParseError("fiber_dim needs one positive integer", lineno)
        elif kind == "fiber_lambda0":
            if fiber_lambda0 is not None:
                raise FixtureParseError("duplicate fiber_lambda0", lineno)
            if len(toks) != 2:
                raise FixtureParseError("fiber_lambda0 needs one value", lineno)
            fiber_lambda0 = _parse_float(toks[1], lineno)
        elif kind == "warp":
            if warp is not None or pending_samples is not None:
                raise FixtureParseError("duplicate warp directive", lineno)
            if len(toks) < 2:
                raise FixtureParseError("warp needs a kind", lineno)
            wkind = toks[1]
            if wkind == "samples":
                pending_samples = [_parse_float(t, lineno) for t in toks[2:]]
            elif wkind in ("const", "exp", "sinshift"):
                if len(toks) != 3:
                    raise FixtureParseError(f"warp {wkind} needs one parameter", lineno)
                warp = WarpProfile(wkind, (_parse_float(toks[2], lineno),))
            else:
                raise FixtureParseError(f"unknown warp kind {wkind!r}", lineno)
        else:
            raise FixtureParseError(f"unknown directive {kind!r}", lineno)
    if pending_samples is not None:
        if len(pending_samples) < 16:
            raise FixtureParseError("sampled warp needs at least 16 values")
        warp = WarpProfile("samples", (), samples=np.array(pending_samples))
    if base is None:
        raise FixtureParseError("missing base directive")
    if warp is None:
        raise FixtureParseError("missing warp directive")
    return WarpedProductSpec(base, warp,
                             fiber_dim=fiber_dim if fiber_dim is not None else 1,
                             fiber_lambda0=fiber_lambda0 if fiber_lambda0 is not None else 0.0)


def parse_fixture(path: str, tols: Tolerances = DEFAULT) -> Fixture:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    fix = parse_fixture_text(text, tols)
    if isinstance(fix, WarpedProductSpec):
        name = os.path.splitext(os.path.basename(path))[0]
        fix = WarpedProductSpec(fix.base, fix.warp, fix.fiber_dim,
                                fix.fiber_lambda0, name=name)
    return fix


def resolve_fixture(name_or_path: str, c: Optional[float] = None,
                    tols: Tolerances = DEFAULT) -> Fixture:
    """Resolve a CLI input: override directory, then a path, then the catalog."""
    override = os.environ.get(FIXTURE_DIR_ENV)
    if override:
        for cand in (name_or_path, name_or_path + ".lie", name_or_path + ".warp"):
            p = os.path.join(override, cand)
            if os.path.isfile(p):
                return parse_fixture(p, tols)
    if os.path.isfile(name_or_path):
        return parse_fixture(name_or_path, tols)
    try:
        return catalog_fixture(name_or_path, c)
    except KeyError:
        raise FixtureParseError(
            f"{name_or_path!r} is neither a readable file nor a catalog fixture "
            f"(built-ins: {', '.join(sorted(LIE_BUILTINS) + sorted(WARP_BUILTINS))})"
        ) from None
