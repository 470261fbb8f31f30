"""Span recording around the public functions at specsub's module boundaries.

The wrappers live here, not in the program: ``Tracer.install`` replaces each
target function in every loaded ``specsub`` module namespace that holds it
(``from .x import f`` copies the reference, so patching only the defining
module would miss calls made through the importer).  A target that a later
version of the program no longer defines is skipped and reads as 0 calls.

A span records name, start, end, parent and a few attributes (algebra
dimension, grid size, residual, bytes parsed).  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

# module -> public functions wrapped in that module
TARGETS = {
    "cli": ("run",),
    "fixtures": ("resolve_fixture", "parse_fixture_text"),
    "lie_core": ("validate", "classify", "derived_subalgebra", "quotient_algebra",
                 "restrict_to_span", "mean_curvature"),
    "group_spectra": ("group_spectrum_report", "quotient_bound"),
    "warped_spectra": ("build_warped_mode", "build_schrodinger", "mode_scan",
                       "pushdown_slack", "pushdown", "rayleigh_2d"),
    "eigensolve": ("lowest_eigenvalue", "symmetrized", "dense_lowest"),
}

LIE_SPANS = ("validate", "classify", "derived_subalgebra", "quotient_algebra",
             "restrict_to_span", "mean_curvature")
GRID_CLASSES = (256, 2048, 16384)


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def root(self) -> "Span":
        s = self
        while s.parent is not None:
            s = s.parent
        return s

    def nested_in_same(self) -> bool:
        s = self.parent
        while s is not None:
            if s.name == self.name:
                return True
            s = s.parent
        return False


def _attrs(name: str, args, kwargs, result) -> dict:
    """Attributes read from a call's arguments and result, defensively, so a
    changed signature loses an attribute instead of failing the replay."""
    if name.startswith("lie_core.") and args:
        return {"dim": getattr(args[0], "dim", None)}
    if name == "eigensolve.lowest_eigenvalue":
        grid = kwargs.get("grid_n")
        if grid is None and args:
            grid = getattr(args[0], "shape", (None,))[0]
        return {"grid": grid, "residual": getattr(result, "residual", None)}
    if name == "fixtures.parse_fixture_text" and args and isinstance(args[0], str):
        return {"bytes": len(args[0].encode("utf-8"))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []     # (namespace dict, attribute, original)
        self.missing: set = set()      # targets the program does not define

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, such as one per replayed call."""
        s = self._open(name, attrs)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, time.perf_counter(), attrs=dict(attrs))
        self._stack.append(s)
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()
        if s.parent is not None:
            s.parent.child_time += s.duration
        self.spans.append(s)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name, {})
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                s.attrs.update(_attrs(name, args, kwargs, result))
                tracer._close(s)
        return wrapper

    def install(self, package: str = "specsub"):
        namespaces = [vars(m) for key, m in list(sys.modules.items())
                      if m is not None and (key == package or key.startswith(package + "."))]
        for module, funcs in TARGETS.items():
            home = sys.modules.get(f"{package}.{module}")
            for func in funcs:
                original = getattr(home, func, None) if home is not None else None
                if original is None:
                    self.missing.add(f"{module}.{func}")
                    continue
                wrapper = self._wrap(f"{module}.{func}", original)
                for ns in namespaces:
                    for attr, value in list(ns.items()):
                        if value is original:
                            ns[attr] = wrapper
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(spans: list, max_dim: int) -> dict:
    """Per-layer metrics of one traced replay, as {name: (value, unit)}.

    ``.s`` is inclusive time (a span nested in a span of the same name is not
    counted twice), ``.self_s`` self time, ``.calls`` exact counts.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(name, pred=None):
        return [s for s in by_name.get(name, ()) if pred is None or pred(s)]

    def total(name, pred=None):
        return sum(s.duration for s in pick(name, pred) if not s.nested_in_same())

    def self_total(name, pred=None):
        return sum(s.self_time for s in pick(name, pred))

    def per_call(name, command):
        calls = [s for s in by_name.get("call", ()) if s.attrs.get("command") == command]
        inner = [s for s in by_name.get(name, ()) if s.root().attrs.get("command") == command]
        return len(inner) / len(calls) if calls else 0.0

    m = {
        "cli.run.self_s": (self_total("cli.run"), "s"),
        "fixtures.resolve_fixture.s": (total("fixtures.resolve_fixture"), "s"),
        "fixtures.bytes_parsed": (sum(s.attrs.get("bytes") or 0 for s in
                                      pick("fixtures.parse_fixture_text")), "bytes"),
    }
    for f in LIE_SPANS:
        name = f"lie_core.{f}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.s.dim{max_dim}"] = (total(name, lambda s: s.attrs.get("dim") == max_dim), "s")
    m["lie_core.classify.per_cli_call"] = (per_call("lie_core.classify", "lambda0"), "ratio")
    for f in ("group_spectrum_report", "quotient_bound"):
        m[f"group_spectra.{f}.self_s"] = (self_total(f"group_spectra.{f}"), "s")
    for f in ("build_warped_mode", "build_schrodinger"):
        name = f"warped_spectra.{f}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.calls"] = (len(pick(name)), "count")
    m["warped_spectra.mode_scans_per_verify"] = (
        per_call("warped_spectra.mode_scan", "verify-warped"), "ratio")
    for n in GRID_CLASSES:
        def in_class(s, n=n):
            return s.attrs.get("grid") == n
        m[f"eigensolve.lowest_eigenvalue.self_s.n{n}"] = (
            self_total("eigensolve.lowest_eigenvalue", in_class), "s")
        m[f"eigensolve.lowest_eigenvalue.calls.n{n}"] = (
            len(pick("eigensolve.lowest_eigenvalue", in_class)), "count")
    m["eigensolve.symmetrized.s"] = (total("eigensolve.symmetrized"), "s")
    m["eigensolve.dense_lowest.s"] = (total("eigensolve.dense_lowest"), "s")
    m["eigensolve.dense_lowest.calls"] = (len(pick("eigensolve.dense_lowest")), "count")
    residuals = [s.attrs.get("residual") for s in pick("eigensolve.lowest_eigenvalue")]
    m["eigensolve.residual_max"] = (max([r for r in residuals if r is not None],
                                        default=0.0), "norm")
    m["warped_spectra.pushdown_slack.self_s"] = (self_total("warped_spectra.pushdown_slack"), "s")
    m["warped_spectra.pushdown.s"] = (total("warped_spectra.pushdown"), "s")
    m["warped_spectra.rayleigh_2d.s"] = (total("warped_spectra.rayleigh_2d"), "s")
    return m
