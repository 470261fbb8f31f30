"""Single record collecting every numerical tolerance used by the package.

Keeping them in one immutable value makes reports reproducible: a report is
fully determined by (fixture, grid, tolerances).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # structure-constant validation
    antisym_tol: float = 1e-12   # max |c[i,j,k] + c[j,i,k]| accepted
    jacobi_tol: float = 1e-9     # max Jacobi residual accepted
    spd_tol: float = 1e-12       # metric eigenvalues must exceed this
    # span / rank decisions
    ideal_tol: float = 1e-9      # bracket-closure residual for spans
    rank_tol: float = 1e-9       # relative singular-value cutoff
    unimodular_tol: float = 1e-9 # sup norm of the trace functional
    definite_tol: float = 1e-9   # relative margin for definiteness tests
    # spectral checks
    solver_tol: float = 1e-10    # residual target for the iterative eigensolver
    eig_tol: float = 1e-8        # allowed negativity for nonnegative operators
    ineq_tol: float = 1e-8       # allowed slack violation for inequalities
    unitary_tol: float = 1e-6    # agreement of the two Schrodinger routes
    identity_tol: float = 1e-9   # algebraic identities (mean curvature etc.)

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()

# Tightened preset for small exact-integer fixtures where everything is
# limited only by round-off.
STRICT = Tolerances(
    jacobi_tol=1e-12,
    ideal_tol=1e-11,
    rank_tol=1e-11,
    unimodular_tol=1e-11,
    solver_tol=1e-11,
    eig_tol=1e-10,
    ineq_tol=1e-10,
    identity_tol=1e-11,
)

PRESETS = {"default": DEFAULT, "strict": STRICT}
