"""Command-line driver.

The CSV column order of each command is ``HEADERS[command]``, which
``specsub --help`` lists too; a versioned comment line precedes the header in
every CSV.  In the verify-warped CSV, mode -1 is the Schrodinger operator
row; slack is lambda0 of a mode row minus the inequality right-hand side, and
on the S row the minimum over modes minus the right-hand side.

Exit codes: 0 success, 1 usage, validation or parse failure, an unreadable
fixture or an unwritable --out, 2 a solver result that fails certification
or, for verify-warped, a violated inequality or a two-route mismatch (the
text report on stderr says which, in both formats), 3 closed-form formula
inapplicable.  A failed run writes its error to stderr, never to --out.
--seed is accepted and ignored: no computation is random.  --tol-preset
sets the Lie cuts (tolerances.Tolerances) once, on the resolved algebra
(``MetricLieAlgebra.tols``), which every Lie decision reads; a warped solve
certifies its own error bound and takes no tolerance.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

# OpenBLAS reads this when numpy, and later scipy's LAPACK extension, load
# their copies: an idle worker of either pool sleeps after 2^4 cycles instead
# of spinning for 2^28, which on a busy 2-core host took the cores from the
# solve.  A value already set wins; `import specsub` sets nothing.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from . import group_spectra
from .errors import (FixtureParseError, FormulaInapplicableError,
                     NotAnIdealError, SolverConvergenceError)
from .fixtures import FIXTURE_DIR_ENV, resolve_fixture
from .lie_core import (Ideal, MetricLieAlgebra, classify, derived_subalgebra, full_ideal,
                       validate)
from .tolerances import DEFAULT, PRESETS, Tolerances

if TYPE_CHECKING:
    from .warped_spectra import WarpedProductSpec

# What the imports built (numpy and the Lie side, about 21k tracked objects)
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


class RunConfig(NamedTuple):
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


class RunResult(NamedTuple):
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


def _fixture_name(config: RunConfig) -> str:
    c = config.c_param
    return config.input if c is None else f"{config.input}(c={c:g})"


def _validated(alg: MetricLieAlgebra):
    rep = validate(alg)
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


def _cmd_analyze(config: RunConfig, alg: MetricLieAlgebra, name: str) -> str:
    if config.fmt == "csv":
        # the frozen contract: an invalid algebra is a valid=false row, exit 0
        vrep = validate(alg)
        crep = classify(alg) if vrep.ok else None
        row = [name, vrep.ok]
        row += ([crep.unimodular, crep.solvable, crep.nilpotent, crep.semisimple,
                 crep.amenable, crep.radical.dim, crep.numerically_marginal]
                if crep else [None] * 7)
        return _csv("analyze", [row])
    vrep = _validated(alg)
    crep = classify(alg)
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


def _group_rows(alg: MetricLieAlgebra, name: str, exact=False):
    rep = group_spectra.group_spectrum_report(alg)
    crep = rep.classification
    if exact and not crep.amenable:
        # exact lambda0 has no closed form here, whether or not a bound overflows
        raise FormulaInapplicableError(
            f"{name}: not amenable, lambda0 formula inapplicable; "
            f"Cheeger lower bound {rep.cheeger!r} (lambda0 >= {rep.lambda0!r})")
    return rep, _finite([[name, crep.unimodular, crep.amenable, rep.lambda0,
                          rep.cheeger, rep.method.value]])


def _cmd_lambda0(config: RunConfig, alg: MetricLieAlgebra, name: str) -> str:
    rep, rows = _group_rows(alg, name, exact=True)
    if config.fmt == "csv":
        return _csv("lambda0", rows)
    lines = [f"fixture: {name}",
             f"unimodular: {_fmt(rep.classification.unimodular)}",
             f"amenable: {_fmt(rep.classification.amenable)}",
             f"lambda0: {rep.lambda0!r}",
             f"cheeger: {rep.cheeger!r}",
             f"method: {rep.method.value}"]
    if rep.maximizer is not None:
        lines.append("maximizer: ["
                     + ", ".join(repr(float(v)) for v in rep.maximizer) + "]")
    return "\n".join(lines) + "\n"


def _cmd_cheeger(config: RunConfig, alg: MetricLieAlgebra, name: str) -> str:
    rep, rows = _group_rows(alg, name)
    if config.fmt == "csv":
        return _csv("cheeger", rows)
    kind = "exact" if rep.classification.amenable else "lower bound"
    return (f"fixture: {name}\ncheeger ({kind}): {rep.cheeger!r}\n"
            f"lambda0 ({kind}): {rep.lambda0!r}\nmethod: {rep.method.value}\n")


def _cmd_quotient(config: RunConfig, alg: MetricLieAlgebra, name: str) -> str:
    if config.ideal:
        idx = [i - 1 for i in config.ideal]
        if any(i < 0 or i >= alg.dim for i in idx):
            raise FixtureParseError(f"--ideal indices must be in 1..{alg.dim}")
        n_ideal = Ideal(alg, np.eye(alg.dim)[idx])
    else:
        n_ideal = derived_subalgebra(full_ideal(alg))
    if n_ideal.dim == 0:
        raise FixtureParseError("the requested ideal is zero; nothing to quotient")
    rep = group_spectra.quotient_bound(n_ideal)
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


def _cmd_verify_warped(config: RunConfig, spec: WarpedProductSpec, name: str) -> str:
    from . import warped_spectra
    rep = warped_spectra.verify_warped(spec, config.grid_n, config.m_max)
    rows = []
    for m, (lam, res) in enumerate(zip(rep.lambda0_modes, rep.residuals)):
        rows.append([name, config.grid_n, m, lam, res, lam - rep.rhs])
    rows.append([name, config.grid_n, -1, rep.lambda0_schrodinger,
                 rep.residuals[-1], rep.slack])
    lines = [f"fixture: {name} (grid {config.grid_n})",
             "mode lambda0s: " + ", ".join(repr(v) for v in rep.lambda0_modes),
             f"lambda0 total space (min over modes): {rep.lambda0_total!r}",
             f"lambda0 Schrodinger route: {rep.lambda0_schrodinger!r}",
             f"inequality rhs: {rep.rhs!r}",
             f"inequality slack: {rep.slack!r} "
             f"({'ok' if rep.inequality_passed else 'VIOLATED'})",
             f"two-route difference |lambda0(L_0) - lambda0(S)|: {rep.difference!r} "
             f"({'ok' if rep.equality_passed else 'MISMATCH'})"]
    if not (rep.inequality_passed and rep.equality_passed):
        raise SolverConvergenceError("\n".join(lines))
    if config.fmt == "csv":
        return _csv("verify-warped", rows)
    return "\n".join(lines) + "\n"


def _cmd_tail_ess(config: RunConfig, spec: WarpedProductSpec, name: str) -> str:
    from . import warped_spectra
    if not isinstance(spec.base, warped_spectra.IntervalBase):
        raise FixtureParseError("tail-ess needs an interval (truncated ray) fixture")
    if config.cutoffs:
        cutoffs = list(config.cutoffs)
    else:
        a, b = spec.base.a, spec.base.b
        span = b - a
        cutoffs = list(np.linspace(a + span / 3.0, a + 2.0 * span / 3.0, 9))
    rep = warped_spectra.lambda0_ess_tail(spec, cutoffs, config.grid_n)
    rows = [[name, config.grid_n, c, v, r]
            for c, v, r in zip(rep.cutoffs, rep.values, rep.residuals)]
    if config.fmt == "csv":
        return _csv("tail-ess", rows)
    lines = [f"fixture: {name} (grid {config.grid_n})"]
    lines += [f"cutoff {c!r}: lambda0 {v!r}" for c, v in zip(rep.cutoffs, rep.values)]
    lines.append(f"monotone non-decreasing: {_fmt(rep.monotone)}")
    return "\n".join(lines) + "\n"


LIE, WARPED = "Lie algebra", "warped-product"

# each command's handler, its --help line and the kind of fixture it needs;
# a kind is a name, so that a Lie command never imports the warped side
COMMANDS = {
    "analyze": (_cmd_analyze, "validate and classify a Lie algebra fixture", LIE),
    "lambda0": (_cmd_lambda0, "bottom of the spectrum of an amenable group", LIE),
    "cheeger": (_cmd_cheeger, "Cheeger constant (exact when amenable, else lower bound)",
                LIE),
    "quotient": (_cmd_quotient, "quotient lower bound through an ideal's mean curvature",
                 LIE),
    "verify-warped": (_cmd_verify_warped, "warped-product inequality and two-route equality",
                      WARPED),
    "tail-ess": (_cmd_tail_ess, "essential-spectrum tail estimates on a truncated ray",
                 WARPED),
}


def run(config: RunConfig) -> RunResult:
    """Dispatch a parsed configuration; never raises, reports via exit code.

    The checks every command shares run here, in this order: the fixture
    kind, then the grid (warped commands) or the algebra's validity (the Lie
    commands but analyze, which reports an invalid algebra itself)."""
    handler, _, kind = COMMANDS[config.command]
    try:
        try:
            fix = resolve_fixture(config.input, config.c_param)
        except OSError as exc:          # a fixture file that cannot be read
            raise FixtureParseError(f"cannot read {config.input!r}: {exc.strerror or exc}")
        if isinstance(fix, MetricLieAlgebra) != (kind == LIE):
            raise FixtureParseError(f"this command needs a {kind} fixture")
        if kind == WARPED:
            _check_grid(config)
        else:
            fix = MetricLieAlgebra(fix.dim, fix.structure, fix.metric, config.tolerances)
            if config.command != "analyze":
                _validated(fix)
        return RunResult(EXIT_OK, handler(config, fix, _fixture_name(config)))
    except (FixtureParseError, NotAnIdealError, ValueError) as exc:
        return RunResult(EXIT_VALIDATION, f"error: {exc}\n")
    except SolverConvergenceError as exc:
        return RunResult(EXIT_SOLVER, f"error: {exc}\n")
    except FormulaInapplicableError as exc:
        return RunResult(EXIT_INAPPLICABLE, f"error: {exc}\n")


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: exit 2 is a solver result."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Each option's dest is the RunConfig field it sets (config_from_args
    converts --tol-preset, --ideal and --cutoffs and drops --seed); an option
    left out sets nothing, so every default is RunConfig's.  With a command
    named, only its subparser is built; the usage line still lists all six."""
    columns = "".join(
        f"  {name:<15}{','.join(header)}"
        f"{'  (mode -1 = Schrodinger row)' if name == 'verify-warped' else ''}\n"
        for name, header in HEADERS.items())
    p = _Parser(
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
    if command in COMMANDS:
        # an error past the command prints this usage; the metavar is the
        # text argparse would make of all six choices
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(COMMANDS) + "}")
        chosen = {command: COMMANDS[command]}
    else:
        sub = p.add_subparsers(dest="command", required=True)
        chosen = COMMANDS
    for name, (_, help_text, kind) in chosen.items():
        q = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        q.add_argument("input", metavar="fixture", help="catalog name or fixture file path")
        q.add_argument("--c", type=float, dest="c_param",
                       help="parameter for parameterized catalog fixtures")
        q.add_argument("--format", choices=("text", "csv"), dest="fmt")
        q.add_argument("--out", dest="output", metavar="OUT", help="write the report here")
        q.add_argument("--tol-preset", choices=sorted(PRESETS))
        q.add_argument("--seed", type=int, help="accepted and ignored")
        if kind == WARPED:
            q.add_argument("--grid", type=int, dest="grid_n", metavar="GRID",
                           help="grid size (power of two, 16 to 2^20)")
        if name == "quotient":
            q.add_argument("--ideal", help="comma-separated 1-based basis indices spanning "
                                           "the ideal (default: derived subalgebra)")
        if name == "verify-warped":
            q.add_argument("--modes", type=int, dest="m_max", metavar="MODES",
                           help="largest fiber mode to scan (>= 0)")
        if name == "tail-ess":
            q.add_argument("--cutoffs", help="comma-separated cutoffs (default: middle third)")
    return p


def config_from_args(args) -> RunConfig:
    opts = dict(vars(args))
    opts.pop("seed", None)
    if "tol_preset" in opts:
        opts["tolerances"] = PRESETS[opts.pop("tol_preset")]
    for key, parse in (("ideal", int), ("cutoffs", float)):
        text = opts.pop(key, None)
        if text is not None:            # an empty list is a usage error, not the default
            try:
                opts[key] = tuple(parse(t) for t in text.split(","))
            except ValueError:
                raise ValueError(f"--{key} needs comma-separated {parse.__name__} values, "
                                 f"got {text!r}") from None
    return RunConfig(**opts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    result = run(config)
    if result.exit_code != EXIT_OK or not config.output:
        (sys.stdout if result.exit_code == EXIT_OK else sys.stderr).write(result.text)
        return result.exit_code
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(result.text)
    except OSError as exc:
        print(f"error: cannot write {config.output!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
