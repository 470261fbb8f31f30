"""Lie core at scale: contraction equivalence and rank-one symmetric-space oracles.

Every algebra is generated here.  The AN groups of real hyperbolic space have
[X, Y_i] = Y_i, so tr ad X = n and lambda0 = n^2/4.  The Heisenberg-type
products have [X, Y_i] = Y_i/2, [X, Z_k] = Z_k and random antisymmetric
[Y_i, Y_j] -> Z, so tr ad X = p/2 + q and lambda0 = (p/2 + q)^2/4.  Both are
solvable, not nilpotent, not unimodular and amenable; their derived algebra
span(Y, Z) is nilpotent, so the quotient bound through it is an equality.
"""

import numpy as np
import pytest

from specsub.group_spectra import lambda0_amenable, quotient_bound
from specsub.lie_core import (Ideal, MetricLieAlgebra, _bracket_products,
                              classify, derived_subalgebra, validate)

from conftest import an_structure, heisenberg_type_structure, rotated


def random_structure(n, rng):
    c = rng.standard_normal((n, n, n))
    return c - c.transpose(1, 0, 2)


# -- contractions against the reference einsum and loops ------------------------

def test_bracket_products_match_einsum():
    rng = np.random.default_rng(0)
    for n, a, b in ((7, 5, 4), (12, 12, 3), (5, 1, 5)):
        c = rng.standard_normal((n, n, n))
        rows_a = rng.standard_normal((a, n))
        rows_b = rng.standard_normal((b, n))
        ref = np.einsum("ai,bj,ijk->abk", rows_a, rows_b, c)
        got = _bracket_products(c, rows_a, rows_b)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert _bracket_products(c, np.zeros((0, n)), rows_b).shape == (0, b, n)


def test_jacobi_residual_matches_full_tensor():
    rng = np.random.default_rng(1)
    c = random_structure(6, rng)
    cyc = np.einsum("ijm,mlk->ijlk", c, c)
    jac = cyc + np.transpose(cyc, (1, 2, 0, 3)) + np.transpose(cyc, (2, 0, 1, 3))
    ref = np.max(np.abs(jac)) / np.sum(c * c)    # relative to sigma^2 = ||c||_F^2
    got = validate(MetricLieAlgebra(6, c, np.eye(6))).jacobi_residual
    assert got == pytest.approx(ref, rel=1e-12)


def test_closure_residuals_match_loops():
    rng = np.random.default_rng(2)
    n = 6
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    alg = MetricLieAlgebra(n, random_structure(n, rng), g)
    sub = Ideal(alg, rng.standard_normal((3, n)))
    # sigma = ||c||_F in a g-orthonormal basis: here the eigenbasis of g
    w, v = np.linalg.eigh(g)
    basis = (v / np.sqrt(w)).T
    sigma = np.linalg.norm(np.einsum("ai,bj,ijk->abk", basis, basis, alg.structure)
                           @ g @ basis.T)
    # both residuals are relative to sigma, the ideal one over the frame basis
    sub_ref = max(sub.residual_off(alg.bracket(x, y))
                  for x in sub.onb for y in sub.onb) / sigma
    ideal_ref = max(sub.residual_off(alg.bracket(e, y))
                    for e in alg.frame.inv_chol for y in sub.onb) / sigma
    assert sub.subalgebra_residual() == pytest.approx(sub_ref, rel=1e-12)
    assert sub.ideal_residual() == pytest.approx(ideal_ref, rel=1e-12)


# -- oracles -------------------------------------------------------------------------

CASES = [
    ("an", (8,), False),
    ("an", (32,), True),
    ("an", (64,), False),
    ("ht", (8, 4), False),
    ("ht", (24, 16), True),
    ("ht", (56, 40), True),
]


@pytest.mark.parametrize("family, sizes, rotate", CASES,
                         ids=[f"{f}{1 + sum(s)}{'-rot' if r else ''}"
                              for f, s, r in CASES])
def test_symmetric_space_oracles(family, sizes, rotate):
    rng = np.random.default_rng(sum(sizes))
    if family == "an":
        (n,) = sizes
        c, trace_x = an_structure(n), float(n)
    else:
        p, q = sizes
        c, trace_x = heisenberg_type_structure(p, q, rng), p / 2.0 + q
    if rotate:
        c = rotated(c, rng)
    dim = c.shape[0]
    alg = MetricLieAlgebra(dim, c, np.eye(dim))
    assert validate(alg).ok

    rep = classify(alg)
    assert rep.solvable and not rep.nilpotent
    assert not rep.unimodular and rep.amenable
    assert rep.radical.dim == dim
    assert not rep.numerically_marginal

    expected = trace_x * trace_x / 4.0
    assert lambda0_amenable(alg, report=rep).lambda0 == pytest.approx(expected, rel=1e-12)

    derived = derived_subalgebra(alg)
    assert derived.dim == dim - 1
    qb = quotient_bound(alg, derived)
    assert qb.equality_expected and not qb.partial
    assert qb.lower_bound == pytest.approx(expected, rel=1e-9)
