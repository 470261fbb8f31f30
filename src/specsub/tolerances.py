"""The tolerances of the Lie side, the package's only ones.

The cuts that the two presets set differently are fields of one immutable
record, which every algebra carries (``MetricLieAlgebra.tols``, inherited by
its quotients and sub-algebras), so a Lie report is fully determined by its
algebra; the cuts that no preset changes are the module constants below.
The warped side takes none: every solve certifies its own error bound in
eps * ||M|| of its operator (see eigensolve.lowest_eigenvalue).
"""

from __future__ import annotations

from typing import NamedTuple

# Every Lie cut is relative: to sigma = ||c||_F in a g-orthonormal basis
# (no floor, see lie_core.Frame) or to the largest metric eigenvalue.
ANTISYM_TOL = 1e-12   # max |c[i,j,k] + c[j,i,k]| / sigma, and metric asymmetry
SPD_TOL = 1e-12       # min / max metric eigenvalue must exceed this
DIRECTION_TOL = 1e-6  # distance of radical_commutator_lambda0's two unit maximizers


class Tolerances(NamedTuple):
    jacobi_tol: float = 1e-9     # max Jacobi residual / sigma^2 accepted
    # every other Lie cut: the rank of a span of vectors against its top
    # singular value; bracket ranks, subalgebra and ideal residuals and the
    # trace's sup norm (unimodular) against sigma; Killing ranks against
    # sigma^2; the relative gap of radical_commutator_lambda0's two routes
    rank_tol: float = 1e-9


DEFAULT = Tolerances()

# Tightened preset for small exact-integer fixtures where everything is
# limited only by round-off.
STRICT = Tolerances(jacobi_tol=1e-12, rank_tol=1e-11)

PRESETS = {"default": DEFAULT, "strict": STRICT}
