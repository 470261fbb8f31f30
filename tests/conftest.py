import numpy as np

from specsub.eigensolve import SymmetricForm
from specsub.lie_core import MetricLieAlgebra


def make_algebra(n, brackets, metric=None):
    """Build an algebra from (i, j, k, v) bracket entries, 0-based, i < j."""
    c = np.zeros((n, n, n))
    for i, j, k, v in brackets:
        c[i, j, k] = v
        c[j, i, k] = -v
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    return MetricLieAlgebra(n, c, g)


def trace_functional(alg):
    """The coordinate oracle for the trace functional: tau @ x = tr(ad x)."""
    return np.einsum("ijj->i", alg.structure)


def change_basis(alg, q):
    """alg in the basis f_a = sum_i q[i, a] e_i of an orthogonal q, the metric
    carried along."""
    c = np.einsum("ia,jb,kc,ijk->abc", q, q, q, alg.structure, optimize=True)
    return MetricLieAlgebra(alg.dim, c, q.T @ alg.metric @ q)


def rotate_algebra(alg, rng):
    """Same algebra expressed in a random rotated basis."""
    q, _ = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))
    return change_basis(alg, q)


def an_structure(n):
    """AN group of real hyperbolic space H^{n+1}: [X, Y_i] = Y_i."""
    c = np.zeros((n + 1,) * 3)
    for i in range(1, n + 1):
        c[0, i, i], c[i, 0, i] = 1.0, -1.0
    return c


def heisenberg_type_structure(p, q, rng):
    """[X, Y] = Y/2, [X, Z] = Z and random antisymmetric [Y_i, Y_j] -> Z."""
    n = 1 + p + q
    c = np.zeros((n,) * 3)
    for i in range(1, 1 + p):
        c[0, i, i], c[i, 0, i] = 0.5, -0.5
    for k in range(1 + p, n):
        c[0, k, k], c[k, 0, k] = 1.0, -1.0
        j = rng.standard_normal((p, p))
        c[1:1 + p, 1:1 + p, k] = j - j.T
    return c


def rotated(c, rng):
    """Structure constants in the orthonormal basis f_a = sum_i Q[i, a] e_i."""
    q, _ = np.linalg.qr(rng.standard_normal((c.shape[0],) * 2))
    c = np.tensordot(q, c, axes=(0, 0))           # [a, j, k]
    c = np.tensordot(c, q, axes=(1, 0))           # [a, k, b]
    return np.tensordot(c, q, axes=(1, 0))        # [a, b, c]


def restricted(form, lo, hi):
    """The principal submatrix of ``form`` on nodes lo..hi-1: its Dirichlet
    restriction to a run of consecutive nodes (a circle's wrap edge is cut)."""
    return SymmetricForm(form.diag[lo:hi], form.off[lo:hi - 1], 0.0, form.weights[lo:hi])


def smoothed_random_warp(rng, n):
    """Criterion 6's sampled circle warp: uniform(0.5, 2) samples, four
    periodic box smooths."""
    raw = rng.uniform(0.5, 2.0, n)
    kernel = np.ones(9) / 9.0
    for _ in range(4):
        raw = np.convolve(np.concatenate([raw[-4:], raw, raw[:4]]), kernel,
                          mode="valid")
    return raw
