"""Command-line driver.

The CSV column order of each command is ``HEADERS[command]``, which
``specsub --help`` lists too; a versioned comment line precedes the header in
every CSV.  In the verify-warped CSV, mode -1 is the Schrodinger operator
row; slack is lambda0 of a mode row minus the inequality right-hand side, and
on the S row the minimum over modes minus the right-hand side.

Exit codes: 0 success, 1 validation or parse failure, 2 a solver result
that fails certification or, for verify-warped, a violated inequality or a
two-route mismatch (the text report on stderr says which, in both formats),
3 closed-form formula inapplicable.
--seed is accepted and ignored: no computation is random.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import group_spectra, warped_spectra
from .eigensolve import SolverConfig
from .errors import (FixtureParseError, FormulaInapplicableError,
                     NotAnIdealError, SolverConvergenceError)
from .fixtures import FIXTURE_DIR_ENV, resolve_fixture
from .lie_core import Ideal, MetricLieAlgebra, classify, derived_subalgebra, validate
from .tolerances import DEFAULT, PRESETS, Tolerances
from .warped_spectra import WarpedProductSpec

# What the imports built (numpy, the dataclasses, about 22k tracked objects)
# lives until the process ends. Freezing it keeps every later collection,
# the interpreter's at shutdown included, from traversing it again: a call
# exits in 10-18 ms instead of 31-51 (2 cores). The library, `import
# specsub`, leaves the collector alone; only the program entry freezes.
gc.freeze()

CSV_VERSION = "specsub-csv v1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_INAPPLICABLE = 3

MAX_GRID = 2 ** 20

_SPECTRUM = ("fixture", "unimodular", "amenable", "lambda0", "cheeger", "method")
HEADERS = {
    "analyze": ("fixture", "valid", "unimodular", "solvable", "nilpotent", "semisimple",
                "amenable", "radical_dim", "marginal"),
    "lambda0": _SPECTRUM,
    "cheeger": _SPECTRUM,
    "quotient": ("fixture", "ideal_dim", "H_norm2", "tr_ad_H", "lambda0_N",
                 "lambda0_quotient", "lower_bound", "equality_expected", "partial"),
    "verify-warped": ("fixture", "grid_n", "mode", "lambda0", "residual", "slack"),
    "tail-ess": ("fixture", "grid_n", "cutoff", "lambda0", "residual"),
}
COMMANDS = tuple(HEADERS)


@dataclass
class RunConfig:
    command: str
    input: str
    grid_n: int = 256
    tolerances: Tolerances = DEFAULT
    output: Optional[str] = None
    fmt: str = "text"
    c_param: Optional[float] = None
    ideal: Optional[tuple] = None       # 1-based basis indices spanning the ideal
    m_max: int = 8
    cutoffs: Optional[tuple] = None

    def solver(self) -> SolverConfig:
        return SolverConfig(tol=self.tolerances.solver_tol)


@dataclass
class RunResult:
    exit_code: int
    text: str


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def _csv(command: str, rows) -> str:
    lines = [f"# {CSV_VERSION}", ",".join(HEADERS[command])]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fixture_name(config: RunConfig, fix) -> str:
    name = getattr(fix, "name", "") or config.input
    if config.c_param is not None:
        name = f"{name}(c={config.c_param:g})"
    return name


def _need_lie(fix) -> MetricLieAlgebra:
    if not isinstance(fix, MetricLieAlgebra):
        raise FixtureParseError("this command needs a Lie algebra fixture")
    return fix


def _need_warp(fix) -> WarpedProductSpec:
    if not isinstance(fix, WarpedProductSpec):
        raise FixtureParseError("this command needs a warped-product fixture")
    return fix


def _validated(alg: MetricLieAlgebra, tols: Tolerances):
    rep = validate(alg, tols)
    if not rep.ok:
        raise FixtureParseError(
            "fixture failed validation: antisymmetry residual "
            f"{rep.antisymmetry_residual:.2e}, Jacobi residual "
            f"{rep.jacobi_residual:.2e} (relative to the bracket scale), "
            f"min metric eigenvalue {rep.min_metric_eigenvalue:.2e}")
    return rep


def _finite(rows):
    """Rows whose numbers fit in a double: lambda0 grows like the square of
    the structure constants, and an overflow is an input out of range."""
    if not all(np.isfinite(v) for v in rows[0] if isinstance(v, float)):
        raise FixtureParseError("a result overflows a double at this bracket scale")
    return rows


def _cmd_analyze(config: RunConfig, fix) -> str:
    alg = _need_lie(fix)
    name = _fixture_name(config, fix)
    if config.fmt == "csv":
        # the frozen contract: an invalid algebra is a valid=false row, exit 0
        vrep = validate(alg, config.tolerances)
        crep = classify(alg, config.tolerances) if vrep.ok else None
        row = [name, vrep.ok]
        row += ([crep.unimodular, crep.solvable, crep.nilpotent, crep.semisimple,
                 crep.amenable, crep.radical.dim, crep.numerically_marginal]
                if crep else [None] * 7)
        return _csv("analyze", [row])
    vrep = _validated(alg, config.tolerances)
    crep = classify(alg, config.tolerances)
    lines = [f"fixture: {name}",
             f"valid: true (antisymmetry {vrep.antisymmetry_residual:.2e}, "
             f"jacobi {vrep.jacobi_residual:.2e}, min metric eig "
             f"{vrep.min_metric_eigenvalue:.3g})",
             f"unimodular: {_fmt(crep.unimodular)}",
             f"solvable: {_fmt(crep.solvable)}",
             f"nilpotent: {_fmt(crep.nilpotent)}",
             f"semisimple: {_fmt(crep.semisimple)}",
             f"amenable: {_fmt(crep.amenable)} ({crep.derivation})",
             f"radical dimension: {crep.radical.dim}",
             f"derived series dims: {list(crep.derived_series_lengths)}"]
    if crep.numerically_marginal:
        lines.append("warning: rank decisions were numerically marginal")
    return "\n".join(lines) + "\n"


def _group_rows(config: RunConfig, alg: MetricLieAlgebra, name: str, exact=False):
    crep = classify(alg, config.tolerances)
    rep = group_spectra.group_spectrum_report(alg, config.tolerances, report=crep)
    if exact and not crep.amenable:
        # exact lambda0 has no closed form here, whether or not a bound overflows
        raise FormulaInapplicableError(
            f"{name}: not amenable, lambda0 formula inapplicable; "
            f"Cheeger lower bound {rep.cheeger!r} (lambda0 >= {rep.lambda0!r})")
    return crep, rep, _finite([[name, crep.unimodular, crep.amenable, rep.lambda0,
                                rep.cheeger, rep.method.value]])


def _cmd_lambda0(config: RunConfig, fix) -> str:
    alg = _need_lie(fix)
    _validated(alg, config.tolerances)
    name = _fixture_name(config, fix)
    crep, rep, rows = _group_rows(config, alg, name, exact=True)
    if config.fmt == "csv":
        return _csv("lambda0", rows)
    lines = [f"fixture: {name}",
             f"unimodular: {_fmt(crep.unimodular)}",
             f"amenable: {_fmt(crep.amenable)}",
             f"lambda0: {rep.lambda0!r}",
             f"cheeger: {rep.cheeger!r}",
             f"method: {rep.method.value}"]
    if rep.maximizer is not None:
        lines.append("maximizer: ["
                     + ", ".join(repr(float(v)) for v in rep.maximizer) + "]")
    return "\n".join(lines) + "\n"


def _cmd_cheeger(config: RunConfig, fix) -> str:
    alg = _need_lie(fix)
    _validated(alg, config.tolerances)
    name = _fixture_name(config, fix)
    crep, rep, rows = _group_rows(config, alg, name)
    if config.fmt == "csv":
        return _csv("cheeger", rows)
    kind = "exact" if crep.amenable else "lower bound"
    return (f"fixture: {name}\ncheeger ({kind}): {rep.cheeger!r}\n"
            f"lambda0 ({kind}): {rep.lambda0!r}\nmethod: {rep.method.value}\n")


def _cmd_quotient(config: RunConfig, fix) -> str:
    alg = _need_lie(fix)
    _validated(alg, config.tolerances)
    name = _fixture_name(config, fix)
    if config.ideal:
        idx = [i - 1 for i in config.ideal]
        if any(i < 0 or i >= alg.dim for i in idx):
            raise FixtureParseError(f"--ideal indices must be in 1..{alg.dim}")
        n_ideal = Ideal(alg, np.eye(alg.dim)[idx])
    else:
        n_ideal = derived_subalgebra(alg, tols=config.tolerances)
    if n_ideal.dim == 0:
        raise FixtureParseError("the requested ideal is zero; nothing to quotient")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = group_spectra.quotient_bound(alg, n_ideal, config.tolerances)
    rows = _finite([[name, n_ideal.dim, rep.H_norm2, rep.tr_ad_H,
                     rep.lambda0_N, rep.lambda0_quotient, rep.lower_bound,
                     rep.equality_expected, rep.partial]])
    if config.fmt == "csv":
        return _csv("quotient", rows)
    lines = [f"fixture: {name}",
             f"ideal dimension: {n_ideal.dim}",
             f"|H|^2: {rep.H_norm2!r}",
             f"tr(ad H): {rep.tr_ad_H!r}",
             f"lambda0(N): {_fmt(rep.lambda0_N)}",
             f"lambda0(G/N): {_fmt(rep.lambda0_quotient)}",
             f"lower bound for lambda0(G): {rep.lower_bound!r}",
             f"equality expected: {_fmt(rep.equality_expected)}"]
    if rep.partial:
        lines.append("note: a non-amenable factor was replaced by 0 (partial bound)")
    return "\n".join(lines) + "\n"


def _check_grid(config: RunConfig):
    n = config.grid_n
    if n < 16 or n > MAX_GRID or (n & (n - 1)) != 0:
        raise FixtureParseError(f"--grid must be a power of two from 16 to {MAX_GRID}")
    if config.m_max < 0:
        raise FixtureParseError("--modes must be nonnegative")


def _cmd_verify_warped(config: RunConfig, fix) -> str:
    spec = _need_warp(fix)
    _check_grid(config)
    name = _fixture_name(config, fix)
    cfg = config.solver()
    ineq, eq = warped_spectra.verify_warped(
        spec, config.grid_n, config.tolerances, cfg, config.m_max)
    rows = []
    for m, (lam, res) in enumerate(zip(ineq.lambda0_modes, ineq.residuals)):
        rows.append([name, config.grid_n, m, lam, res, lam - ineq.rhs])
    rows.append([name, config.grid_n, -1, ineq.lambda0_schrodinger,
                 ineq.residuals[-1], ineq.slack])
    lines = [f"fixture: {name} (grid {config.grid_n})",
             "mode lambda0s: " + ", ".join(repr(v) for v in ineq.lambda0_modes),
             f"lambda0 total space (min over modes): {ineq.lhs!r}",
             f"lambda0 Schrodinger route: {ineq.lambda0_schrodinger!r}",
             f"inequality rhs: {ineq.rhs!r}",
             f"inequality slack: {ineq.slack!r} "
             f"({'ok' if ineq.passed else 'VIOLATED'})",
             f"two-route difference |lambda0(L_0) - lambda0(S)|: {eq.difference!r} "
             f"({'ok' if eq.passed else 'MISMATCH'})"]
    if not (ineq.passed and eq.passed):
        raise SolverConvergenceError("\n".join(lines))
    if config.fmt == "csv":
        return _csv("verify-warped", rows)
    return "\n".join(lines) + "\n"


def _cmd_tail_ess(config: RunConfig, fix) -> str:
    spec = _need_warp(fix)
    _check_grid(config)
    name = _fixture_name(config, fix)
    if not isinstance(spec.base, warped_spectra.IntervalBase):
        raise FixtureParseError("tail-ess needs an interval (truncated ray) fixture")
    if config.cutoffs:
        cutoffs = list(config.cutoffs)
    else:
        a, b = spec.base.a, spec.base.b
        span = b - a
        cutoffs = list(np.linspace(a + span / 3.0, a + 2.0 * span / 3.0, 9))
    rep = warped_spectra.lambda0_ess_tail(spec, cutoffs, config.grid_n,
                                          config.solver())
    rows = [[name, config.grid_n, c, v, r]
            for c, v, r in zip(rep.cutoffs, rep.values, rep.residuals)]
    if config.fmt == "csv":
        return _csv("tail-ess", rows)
    lines = [f"fixture: {name} (grid {config.grid_n})"]
    lines += [f"cutoff {c!r}: lambda0 {v!r}" for c, v in zip(rep.cutoffs, rep.values)]
    lines.append(f"monotone non-decreasing: {_fmt(rep.monotone)}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "analyze": _cmd_analyze,
    "lambda0": _cmd_lambda0,
    "cheeger": _cmd_cheeger,
    "quotient": _cmd_quotient,
    "verify-warped": _cmd_verify_warped,
    "tail-ess": _cmd_tail_ess,
}


def run(config: RunConfig) -> RunResult:
    """Dispatch a parsed configuration; never raises, reports via exit code."""
    try:
        fix = resolve_fixture(config.input, config.c_param, config.tolerances)
        text = _HANDLERS[config.command](config, fix)
        return RunResult(EXIT_OK, text)
    except (FixtureParseError, NotAnIdealError, ValueError) as exc:
        return RunResult(EXIT_VALIDATION, f"error: {exc}\n")
    except SolverConvergenceError as exc:
        return RunResult(EXIT_SOLVER, f"error: {exc}\n")
    except FormulaInapplicableError as exc:
        return RunResult(EXIT_INAPPLICABLE, f"error: {exc}\n")


def build_parser() -> argparse.ArgumentParser:
    columns = "".join(
        f"  {name:<15}{','.join(header)}"
        f"{'  (mode -1 = Schrodinger row)' if name == 'verify-warped' else ''}\n"
        for name, header in HEADERS.items())
    p = argparse.ArgumentParser(
        prog="specsub",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Spectral invariants of metric Lie algebras and "
                    "warped-product eigenvalue checks.",
        epilog=f"CSV columns (frozen under the version tag {CSV_VERSION}):\n"
               f"{columns}"
               f"Fixture names are resolved against ${FIXTURE_DIR_ENV}, then as file\n"
               "paths, then against the built-in catalog.\n"
               "Exit codes: 0 ok, 1 validation/parse failure, 2 uncertified "
               "solver result or a\nviolated inequality or two-route mismatch "
               "in verify-warped, 3 formula inapplicable.")
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "validate and classify a Lie algebra fixture",
        "lambda0": "bottom of the spectrum of an amenable group",
        "cheeger": "Cheeger constant (exact when amenable, else lower bound)",
        "quotient": "quotient lower bound through an ideal's mean curvature",
        "verify-warped": "warped-product inequality and two-route equality",
        "tail-ess": "essential-spectrum tail estimates on a truncated ray",
    }
    for name, help_text in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("fixture", help="catalog name or fixture file path")
        q.add_argument("--c", type=float, default=None, dest="c_param",
                       help="parameter for parameterized catalog fixtures")
        q.add_argument("--format", choices=("text", "csv"), default="text")
        q.add_argument("--out", default=None, help="write the report here")
        q.add_argument("--tol-preset", choices=sorted(PRESETS), default="default")
        q.add_argument("--seed", type=int, help="accepted and ignored")
        if name in ("verify-warped", "tail-ess"):
            q.add_argument("--grid", type=int, default=256,
                           help="grid size (power of two, 16 to 2^20)")
            q.add_argument("--modes", type=int, default=8,
                           help="largest fiber mode to scan (>= 0)")
        if name == "quotient":
            q.add_argument("--ideal", default=None,
                           help="comma-separated 1-based basis indices spanning "
                                "the ideal (default: derived subalgebra)")
        if name == "tail-ess":
            q.add_argument("--cutoffs", default=None,
                           help="comma-separated cutoffs (default: middle third)")
    return p


def config_from_args(args) -> RunConfig:
    ideal = None
    if getattr(args, "ideal", None):
        ideal = tuple(int(t) for t in args.ideal.split(","))
    cutoffs = None
    if getattr(args, "cutoffs", None):
        cutoffs = tuple(float(t) for t in args.cutoffs.split(","))
    return RunConfig(
        command=args.command,
        input=args.fixture,
        grid_n=getattr(args, "grid", 256),
        tolerances=PRESETS[args.tol_preset],
        output=args.out,
        fmt=args.format,
        c_param=args.c_param,
        ideal=ideal,
        m_max=getattr(args, "modes", 8),
        cutoffs=cutoffs,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    result = run(config)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(result.text)
    else:
        stream = sys.stdout if result.exit_code == EXIT_OK else sys.stderr
        stream.write(result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
