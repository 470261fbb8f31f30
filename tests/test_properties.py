"""Property tests of the closed-form Lie results and of the warped solver.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import change_basis, rotate_algebra
from specsub.eigensolve import SolverConfig, SymmetricForm, lowest_eigenvalue
from specsub.fixtures import LIE_BUILTINS, catalog_fixture
from specsub.group_spectra import group_spectrum_report
from specsub.lie_core import MetricLieAlgebra, classify
from specsub.tolerances import DEFAULT
from specsub.warped_spectra import (CircleBase, WarpProfile, WarpedProductSpec,
                                    build_schrodinger, pushdown_slack)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

UNIMODULAR = ["heisenberg3", "so3", "sl2", "paper_example3",
              "abelian1", "abelian2", "abelian3", "abelian4", "abelian5"]


def flags(rep):
    return (rep.unimodular, rep.solvable, rep.nilpotent, rep.semisimple, rep.amenable,
            rep.radical.dim, rep.derived_series_lengths)


@st.composite
def rotated_scaled(draw):
    """A catalog algebra, and the same algebra with c -> t c in a rotated basis."""
    name = draw(st.sampled_from(sorted(LIE_BUILTINS)))
    c = draw(st.floats(1e-2, 1e2)) if name == "affine2" else None
    alg = catalog_fixture(name, c)
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=alg.dim ** 2,
                            max_size=alg.dim ** 2))
    # Householder QR gives an orthogonal q for any square input, singular too
    q = np.linalg.qr(np.reshape(entries, (alg.dim, alg.dim)))[0]
    t = draw(st.floats(1e-3, 1e3))
    rot = change_basis(alg, q)
    return alg, MetricLieAlgebra(rot.dim, t * rot.structure, rot.metric), t


@PROPERTY
@given(rotated_scaled())
def test_classify_and_lambda0_are_basis_invariant(case):
    alg, rot, t = case
    a, b = classify(alg), classify(rot)
    assert flags(a) == flags(b)
    assert a.numerically_marginal == b.numerically_marginal
    ra, rb = group_spectrum_report(alg, report=a), group_spectrum_report(rot, report=b)
    assert ra.method == rb.method
    assert math.isclose(rb.lambda0, t * t * ra.lambda0, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("name", ["affine2", "heisenberg3", "paper_example3"])
def test_marginal_flag_is_basis_invariant(name):
    alg = catalog_fixture(name)
    q = np.linalg.qr(np.arange(1.0, alg.dim ** 2 + 1).reshape(alg.dim, alg.dim) ** 0.5)[0]
    assert not classify(alg).numerically_marginal
    assert not classify(change_basis(alg, q)).numerically_marginal


@pytest.mark.parametrize("name", ["sl2", "paper_example3", "heisenberg3", "so3"])
def test_unimodular_cut_is_relative_to_the_bracket_scale(name):
    # the trace functional's round-off grows with c: at 1e7 it is about 1e-9
    alg, rng = catalog_fixture(name), np.random.default_rng(9)
    for _ in range(20):
        rot = rotate_algebra(alg, rng)
        scaled = MetricLieAlgebra(rot.dim, 1e7 * rot.structure, rot.metric)
        assert classify(scaled).unimodular


@PROPERTY
@given(st.sampled_from(["affine2"] + UNIMODULAR), st.floats(1e-3, 1e3))
def test_lambda0_scales_inversely_with_the_metric(name, t):
    alg = catalog_fixture(name)
    scaled = MetricLieAlgebra(alg.dim, alg.structure, t * alg.metric)
    ra, rs = group_spectrum_report(alg), group_spectrum_report(scaled)
    assert ra.method == rs.method
    assert math.isclose(rs.lambda0, ra.lambda0 / t, rel_tol=1e-12, abs_tol=0.0)
    if name != "affine2":
        assert ra.lambda0 == rs.lambda0 == 0.0


# -- the warped solver ----------------------------------------------------------

EPS = np.finfo(float).eps
UNCHECKED = SolverConfig(dense_check=False)


@st.composite
def symmetric_forms(draw):
    """Three diagonals of random sign and size, a corner of either sign (or
    none), positive weights."""
    n = draw(st.integers(3, 64))
    entries = st.floats(-10.0, 10.0)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    corner = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(1e-3, 10.0))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    return SymmetricForm(diag, off, corner, weights)


@PROPERTY
@given(symmetric_forms())
def test_lowest_eigenvalue_certifies_and_matches_the_dense_spectrum(form):
    est = lowest_eigenvalue(form, UNCHECKED)
    M = form.dense()
    norm = np.max(np.sum(np.abs(M), axis=1))
    assert abs(est.lambda0 - np.linalg.eigvalsh(M)[0]) <= 64 * EPS * norm


@PROPERTY
@given(st.integers(16, 64).flatmap(lambda n: st.tuples(
    st.floats(1.0, 10.0), st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))))
def test_schrodinger_operator_is_positive_semidefinite(case):
    length, samples = case
    spec = WarpedProductSpec(CircleBase(length),
                             WarpProfile("samples", (), samples=np.array(samples)))
    op = build_schrodinger(spec, len(samples))
    norm = np.max(np.sum(np.abs(op.dense()), axis=1))
    assert lowest_eigenvalue(op, UNCHECKED).lambda0 >= -64 * EPS * norm


@st.composite
def sampled_circle_functions(draw):
    """A positive sampled circle warp with n in [16, 64] nodes and a grid
    function on the n x m product grid."""
    n = draw(st.integers(16, 64))
    samples = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    spec = WarpedProductSpec(CircleBase(draw(st.floats(1.0, 10.0))),
                             WarpProfile("samples", (), samples=np.array(samples)))
    f2d = draw(arrays(float, (n, draw(st.integers(2, 16))), elements=st.floats(-10.0, 10.0)))
    return spec, f2d


@PROPERTY
@given(sampled_circle_functions())
def test_pushdown_slack_is_nonnegative(case):
    spec, f2d = case
    if not f2d.any():
        with pytest.raises(ValueError, match="zero norm"):
            pushdown_slack(spec, f2d, f2d.shape[0])
    else:
        assert pushdown_slack(spec, f2d, f2d.shape[0]) >= -DEFAULT.ineq_tol
