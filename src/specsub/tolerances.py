"""Every numerical tolerance used by the package.

The values that the two presets set differently are fields of one immutable
record, so a report is fully determined by (fixture, grid, tolerances); the
values that no preset changes are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every Lie cut is relative: to sigma = ||c||_F in a g-orthonormal basis
# (no floor, see lie_core.Frame) or to the largest metric eigenvalue.
ANTISYM_TOL = 1e-12   # max |c[i,j,k] + c[j,i,k]| / sigma, and metric asymmetry
SPD_TOL = 1e-12       # min / max metric eigenvalue must exceed this
UNITARY_TOL = 1e-6    # agreement of the two Schrodinger routes


@dataclass(frozen=True)
class Tolerances:
    jacobi_tol: float = 1e-9     # max Jacobi residual / sigma^2 accepted
    # every other Lie cut: the rank of a span of vectors against its top
    # singular value; bracket ranks, subalgebra and ideal residuals and the
    # trace's sup norm (unimodular) against sigma; Killing ranks against
    # sigma^2; the relative gap of radical_commutator_lambda0's two routes
    rank_tol: float = 1e-9
    # spectral checks
    solver_tol: float = 1e-10    # residual target for the iterative eigensolver
    ineq_tol: float = 1e-8       # allowed slack violation for inequalities


DEFAULT = Tolerances()

# Tightened preset for small exact-integer fixtures where everything is
# limited only by round-off.
STRICT = Tolerances(
    jacobi_tol=1e-12,
    rank_tol=1e-11,
    solver_tol=1e-11,
    ineq_tol=1e-10,
)

PRESETS = {"default": DEFAULT, "strict": STRICT}
