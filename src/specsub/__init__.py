"""Spectral invariants of metric Lie algebras and warped-product checks.

Every public name, and the submodule that defines it, resolves on first
access (PEP 562): ``import specsub`` loads none of them, so a program loads
only what it runs, and a Lie algebra command never imports the warped side.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "errors": "FixtureParseError FormulaInapplicableError NotAnIdealError "
              "SolverConvergenceError SpecsubError",
    "tolerances": "DEFAULT PRESETS STRICT Tolerances",
    "lie_core": "ClassificationReport Ideal MetricLieAlgebra ValidationReport classify "
                "derived_subalgebra full_ideal mean_curvature quotient_algebra "
                "restrict_to_span validate zero_ideal",
    "group_spectra": "GroupSpectrumReport Method QuotientBoundReport group_spectrum_report "
                     "quotient_bound radical_commutator_lambda0",
    "eigensolve": "SpectrumEstimate SymmetricForm lowest_eigenvalue",
    "warped_spectra": "Boundary CircleBase IntervalBase TailReport WarpProfile "
                      "WarpedProductSpec WarpedReport build_schrodinger build_warped_mode "
                      "drift_bound_lambda0 lambda0_ess_tail mode_scan pushdown "
                      "pushdown_slack rayleigh_2d verify_warped",
    "fixtures": "catalog_fixture catalog_ideals fixture_text parse_fixture "
                "parse_fixture_text resolve_fixture",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():
        # a submodule, which the import binds in this namespace itself
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_EXPORTS.values()))
