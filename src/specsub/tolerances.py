"""Single record collecting every numerical tolerance used by the package.

Keeping them in one immutable value makes reports reproducible: a report is
fully determined by (fixture, grid, tolerances).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Every Lie cut is relative: to sigma = ||c||_F in a g-orthonormal basis
    # (no floor, see lie_core.Frame) or to the largest metric eigenvalue.
    antisym_tol: float = 1e-12   # max |c[i,j,k] + c[j,i,k]| / sigma accepted
    jacobi_tol: float = 1e-9     # max Jacobi residual / sigma^2 accepted
    spd_tol: float = 1e-12       # min / max metric eigenvalue must exceed this
    ideal_tol: float = 1e-9      # bracket-closure residual / sigma for spans
    # every rank and definiteness decision: against the top singular value
    # for a span of vectors, against sigma for bracket values and sigma^2 for
    # Killing values
    rank_tol: float = 1e-9
    unimodular_tol: float = 1e-9  # sup norm of the trace functional / sigma
    # spectral checks
    solver_tol: float = 1e-10    # residual target for the iterative eigensolver
    ineq_tol: float = 1e-8       # allowed slack violation for inequalities
    unitary_tol: float = 1e-6    # agreement of the two Schrodinger routes
    identity_tol: float = 1e-9   # algebraic identities (mean curvature etc.)


DEFAULT = Tolerances()

# Tightened preset for small exact-integer fixtures where everything is
# limited only by round-off.
STRICT = Tolerances(
    jacobi_tol=1e-12,
    ideal_tol=1e-11,
    rank_tol=1e-11,
    unimodular_tol=1e-11,
    solver_tol=1e-11,
    ineq_tol=1e-10,
    identity_tol=1e-11,
)

PRESETS = {"default": DEFAULT, "strict": STRICT}
