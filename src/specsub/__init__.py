"""Spectral invariants of metric Lie algebras and warped-product checks."""

from .errors import (FixtureParseError, FormulaInapplicableError,
                     NotAnIdealError, SolverConvergenceError, SpecsubError)
from .tolerances import DEFAULT, PRESETS, STRICT, Tolerances
from .lie_core import (ClassificationReport, Ideal, MetricLieAlgebra,
                       ValidationReport, classify, derived_subalgebra,
                       full_ideal, mean_curvature, quotient_algebra,
                       restrict_to_span, validate, zero_ideal)
from .group_spectra import (GroupSpectrumReport, Method, QuotientBoundReport,
                            cheeger_lower_bound, group_spectrum_report,
                            lambda0_amenable, quotient_bound,
                            radical_commutator_lambda0)
from .eigensolve import (SolverConfig, SpectrumEstimate, SymmetricForm,
                         dense_lowest, lowest_eigenvalue)
from .warped_spectra import (Boundary, CircleBase, DiscreteOperator,
                             EqualityReport, InequalityReport, IntervalBase,
                             TailReport, WarpProfile, WarpedProductSpec,
                             build_schrodinger, build_warped_mode,
                             drift_bound_lambda0, lambda0_ess_tail, mode_scan,
                             pushdown, pushdown_slack, rayleigh_2d,
                             solve_lowest, verify_closed_fiber_equality,
                             verify_warped_inequality)
from .fixtures import (catalog_fixture, catalog_ideals, fixture_text,
                       parse_fixture, parse_fixture_text, resolve_fixture)

__version__ = "0.1.0"
