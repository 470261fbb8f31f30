import numpy as np

from specsub.lie_core import MetricLieAlgebra


def make_algebra(n, brackets, metric=None, labels=None):
    """Build an algebra from (i, j, k, v) bracket entries, 0-based, i < j."""
    c = np.zeros((n, n, n))
    for i, j, k, v in brackets:
        c[i, j, k] = v
        c[j, i, k] = -v
    g = np.eye(n) if metric is None else np.asarray(metric, dtype=float)
    return MetricLieAlgebra(n, c, g, basis_labels=labels)


def change_basis(alg, q):
    """alg in the basis f_a = sum_i q[i, a] e_i of an orthogonal q, the metric
    carried along."""
    c = np.einsum("ia,jb,kc,ijk->abc", q, q, q, alg.structure, optimize=True)
    return MetricLieAlgebra(alg.dim, c, q.T @ alg.metric @ q)


def rotate_algebra(alg, rng):
    """Same algebra expressed in a random rotated basis."""
    q, _ = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))
    return change_basis(alg, q)
