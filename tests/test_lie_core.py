import tracemalloc

import numpy as np
import pytest

from conftest import make_algebra, rotate_algebra
from specsub.errors import NotAnIdealError
from specsub.fixtures import (abelian, affine2, heisenberg3, paper_example3,
                              sl2, so3)
from specsub.lie_core import (Ideal, MetricLieAlgebra, classify,
                              derived_subalgebra, full_ideal, mean_curvature,
                              quotient_algebra, restrict_to_span, validate,
                              zero_ideal)
from specsub.tolerances import DEFAULT

def naive_ad(alg, x):
    """Independent adjoint matrix: columns are brackets with basis vectors."""
    n = alg.dim
    m = np.zeros((n, n))
    for j in range(n):
        m[:, j] = alg.bracket(x, np.eye(n)[j])
    return m


def naive_killing(alg):
    n = alg.dim
    ads = [naive_ad(alg, np.eye(n)[i]) for i in range(n)]
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            B[i, j] = np.trace(ads[i] @ ads[j])
    return B


# -- validate ------------------------------------------------------------------

def test_validate_heisenberg():
    rep = validate(heisenberg3())
    assert rep.ok
    assert rep.antisymmetry_residual == 0.0
    assert rep.jacobi_residual == 0.0


def test_validate_broken_antisymmetry():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # should be -1
    alg = MetricLieAlgebra(3, c, np.eye(3))
    rep = validate(alg)
    assert not rep.ok
    # max |c + c^T| = 2, relative to sigma = ||c||_F = sqrt(2)
    assert rep.antisymmetry_residual == pytest.approx(2.0 / np.sqrt(2.0))


def test_validate_3d_solvable_example():
    assert validate(paper_example3()).ok


def test_validate_broken_jacobi():
    # c[0,1,:]=e3, c[0,2,:]=e1 fails Jacobi
    alg = make_algebra(3, [(0, 1, 2, 1.0), (0, 2, 0, 1.0)])
    rep = validate(alg)
    # [e1, [e2, e3]] + [e2, [e3, e1]] + [e3, [e1, e2]] = e3, relative to
    # sigma^2 = ||c||_F^2 = 4
    assert rep.jacobi_residual == pytest.approx(0.25)
    assert not rep.ok


def test_validate_rejects_nan_entries():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = np.nan, np.nan
    rep = validate(MetricLieAlgebra(3, c, np.eye(3)))
    assert not rep.ok
    assert np.isnan(rep.jacobi_residual)
    g = np.eye(3)
    g[1, 1] = np.nan
    assert not validate(MetricLieAlgebra(3, heisenberg3().structure, g)).ok


def test_an_algebra_built_from_a_frozen_array_keeps_it():
    n = 40
    c, g = np.zeros((n, n, n)), np.eye(n)
    c.setflags(write=False)                   # as the parsers hand it over
    tracemalloc.start()
    try:
        alg = MetricLieAlgebra(n, c, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.nbytes / 8, peak          # no second n^3 block
    assert alg.structure is c
    # a writable array is copied and stays the caller's to write
    mine = np.zeros((n, n, n))
    kept = MetricLieAlgebra(n, mine, g)
    mine[0, 1, 2] = 1.0
    assert kept.structure[0, 1, 2] == 0.0 and not kept.structure.flags.writeable
    # a view is copied: its owner could still write through it
    base = np.zeros((2, n, n, n))
    view = MetricLieAlgebra(n, base[1], g)
    base[1, 0, 1, 2] = 1.0
    assert view.structure[0, 1, 2] == 0.0 and not view.structure.flags.writeable


def test_a_radical_cut_that_is_not_an_ideal_raises(monkeypatch):
    import specsub.lie_core as lie_core
    alg, rank, lowered = sl2(), lie_core._rank, []

    def one_short(values, scale, tol):
        # the first cut against sigma^2 is the radical's: sl2 has radical 0,
        # one rank short leaves a line of sl2, which no ideal of sl2 is
        r, marginal = rank(values, scale, tol)
        if scale == alg.frame.scale ** 2 and not lowered:
            lowered.append(r)
            return r - 1, marginal
        return r, marginal

    monkeypatch.setattr(lie_core, "_rank", one_short)
    with pytest.raises(NotAnIdealError, match="radical"):
        classify(alg)
    assert lowered == [3]


# -- bracket / ad / traces ------------------------------------------------------

def test_bracket_heisenberg():
    alg = heisenberg3()
    e = np.eye(3)
    assert np.allclose(alg.bracket(e[0], e[1]), e[2])
    assert np.allclose(alg.bracket(e[1], e[0]), -e[2])


def test_bracket_self_is_zero():
    rng = np.random.default_rng(0)
    for alg in (heisenberg3(), sl2(), paper_example3()):
        for _ in range(20):
            x = rng.standard_normal(alg.dim)
            assert np.allclose(alg.bracket(x, x), 0.0)


def test_bracket_example3_xz():
    alg = paper_example3()
    e = np.eye(3)
    assert np.allclose(alg.bracket(e[0], e[2]), -e[2])


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        heisenberg3().bracket([1.0, 0.0], [0.0, 1.0, 0.0])


def test_ad_matrix_matches_naive():
    rng = np.random.default_rng(1)
    for alg in (heisenberg3(), affine2(2.0), sl2(), so3()):
        for _ in range(5):
            x = rng.standard_normal(alg.dim)
            assert np.allclose(alg.ad_matrix(x), naive_ad(alg, x))


def test_ad_affine_trace():
    alg = affine2(1.0)
    ad_x = alg.ad_matrix([1.0, 0.0])
    assert np.allclose(ad_x, [[0.0, 0.0], [0.0, 1.0]])
    assert np.trace(ad_x) == pytest.approx(1.0)


def test_ad_zero():
    assert np.allclose(sl2().ad_matrix(np.zeros(3)), 0.0)


def test_trace_covector_values():
    assert np.allclose(abelian(3).trace_covector(), 0.0)
    assert np.allclose(affine2(1.0).trace_covector(), [1.0, 0.0])
    assert np.allclose(paper_example3().trace_covector(), 0.0)


def test_trace_covector_linearity():
    rng = np.random.default_rng(2)
    alg = paper_example3()
    tau = alg.trace_covector()
    for _ in range(50):
        x, y = rng.standard_normal((2, 3))
        a, b = rng.standard_normal(2)
        assert tau @ (a * x + b * y) == pytest.approx(a * (tau @ x) + b * (tau @ y), abs=1e-12)


def test_is_unimodular():
    # independent check: all basis ad-traces vanish for heisenberg
    alg = heisenberg3()
    traces = [np.trace(naive_ad(alg, np.eye(3)[i])) for i in range(3)]
    assert np.allclose(traces, 0.0)
    assert alg.is_unimodular()
    assert not affine2(1.0).is_unimodular()
    assert paper_example3().is_unimodular()


# -- killing form ---------------------------------------------------------------

def test_killing_abelian_zero():
    assert np.allclose(abelian(4).killing_form(), 0.0)


def test_killing_so3():
    B = so3().killing_form()
    assert np.allclose(B, naive_killing(so3()))
    assert np.allclose(B, -2.0 * np.eye(3))


def test_killing_sl2():
    alg = sl2()
    B = alg.killing_form()
    assert np.allclose(B, naive_killing(alg))
    assert B[0, 0] == pytest.approx(8.0)
    assert B[1, 2] == pytest.approx(4.0)
    assert B[1, 1] == pytest.approx(0.0)
    sig = np.sign(np.linalg.eigvalsh(B))
    assert list(sig) == [-1.0, 1.0, 1.0]


def test_killing_ad_invariance():
    rng = np.random.default_rng(3)
    for alg in (sl2(), so3(), paper_example3()):
        B = alg.killing_form()
        for _ in range(20):
            x, y, z = rng.standard_normal((3, alg.dim))
            lhs = alg.bracket(x, y) @ B @ z + y @ B @ alg.bracket(x, z)
            assert abs(lhs) < 1e-10


# -- derived subalgebra -----------------------------------------------------------

def test_derived_abelian_zero():
    assert derived_subalgebra(abelian(3)).dim == 0


def test_derived_affine():
    d = derived_subalgebra(affine2(1.0))
    assert d.dim == 1
    assert d.residual_off([0.0, 1.0]) < 1e-12


def test_derived_example3():
    # oracle: rank of the stacked pairwise brackets
    alg = paper_example3()
    e = np.eye(3)
    rows = [alg.bracket(e[i], e[j]) for i in range(3) for j in range(3)]
    assert np.linalg.matrix_rank(np.array(rows)) == 2
    d = derived_subalgebra(alg)
    assert d.dim == 2
    assert d.residual_off(e[1]) < 1e-12
    assert d.residual_off(e[2]) < 1e-12
    assert d.residual_off(e[0]) > 0.9


# -- classify ---------------------------------------------------------------------

EXPECTED_BOOLEANS = {
    # name: (unimodular, solvable, nilpotent, semisimple, amenable)
    "heisenberg3": (True, True, True, False, True),
    "affine2": (False, True, False, False, True),
    "so3": (True, False, False, True, True),
    "sl2": (True, False, False, True, False),
    "paper_example3": (True, True, False, False, True),
    "abelian4": (True, True, True, False, True),
}

FIXTURES = {
    "heisenberg3": heisenberg3(),
    "affine2": affine2(1.0),
    "so3": so3(),
    "sl2": sl2(),
    "paper_example3": paper_example3(),
    "abelian4": abelian(4),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_BOOLEANS))
def test_classify_booleans(name):
    rep = classify(FIXTURES[name])
    got = (rep.unimodular, rep.solvable, rep.nilpotent, rep.semisimple, rep.amenable)
    assert got == EXPECTED_BOOLEANS[name]


def test_classify_consistency_flags():
    for alg in FIXTURES.values():
        rep = classify(alg)
        if rep.nilpotent:
            assert rep.solvable
        if rep.semisimple:
            assert rep.radical.dim == 0


def test_classify_radical_of_reductive_sum():
    # so3 + 1D center: radical is exactly the center
    alg = make_algebra(4, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)])
    rep = classify(alg)
    assert not rep.solvable
    assert rep.radical.dim == 1
    assert rep.radical.residual_off(np.eye(4)[3]) < 1e-9
    assert rep.amenable   # compact Levi factor
    # sl2 + center is not amenable
    alg2 = make_algebra(4, [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)])
    rep2 = classify(alg2)
    assert rep2.radical.dim == 1 and not rep2.amenable


def test_classify_rotation_invariant():
    rng = np.random.default_rng(7)
    for name, alg in FIXTURES.items():
        rot = rotate_algebra(alg, rng)
        assert validate(rot).jacobi_residual < 1e-9
        a, b = classify(alg), classify(rot)
        assert (a.unimodular, a.solvable, a.nilpotent, a.semisimple, a.amenable) == \
               (b.unimodular, b.solvable, b.nilpotent, b.semisimple, b.amenable)


def test_classify_dim1():
    rep = classify(abelian(1))
    assert rep.unimodular and rep.solvable and rep.nilpotent and rep.amenable
    assert not rep.semisimple


def test_classify_flags_marginal_rank_decision():
    # second derived direction sits exactly at the rank threshold scale
    alg = make_algebra(3, [(0, 1, 1, 1.0), (0, 2, 2, 1e-9)])
    rep = classify(alg, DEFAULT)
    assert rep.numerically_marginal
    assert rep.solvable  # result still returned
    clean = classify(paper_example3())
    assert not clean.numerically_marginal


def test_derived_series_lengths():
    assert classify(paper_example3()).derived_series_lengths == (3, 2, 0)
    assert classify(so3()).derived_series_lengths == (3, 3)


# -- koszul connection -------------------------------------------------------------

def koszul_connection(alg, x, y):
    """Levi-Civita connection of the left-invariant metric on constant fields:
    solves g w = rhs where rhs_k is half of
    <[x,y],e_k> - <[y,e_k],x> + <[e_k,x],y>."""
    g, c = alg.metric, alg.structure
    t1 = g @ alg.bracket(x, y)
    t2 = np.einsum("j,jkm,m->k", y, c, g @ x)   # <[y, e_k], x>
    t3 = np.einsum("kim,i,m->k", c, x, g @ y)   # <[e_k, x], y>
    return np.linalg.solve(g, 0.5 * (t1 - t2 + t3))


def test_koszul_abelian_zero():
    rng = np.random.default_rng(4)
    alg = abelian(3)
    for _ in range(10):
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(koszul_connection(alg, x, y), 0.0)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_koszul_affine_frame(c):
    # orthonormal frame E1 = sqrt(c) X, E2 = Y / sqrt(c); [E1, E2] = sqrt(c) E2
    alg = affine2(c)
    s = np.sqrt(c)
    E1 = np.array([s, 0.0])
    E2 = np.array([0.0, 1.0 / s])
    assert alg.inner(E1, E1) == pytest.approx(1.0)
    assert alg.inner(E2, E2) == pytest.approx(1.0)
    assert np.allclose(alg.bracket(E1, E2), s * E2)
    assert np.allclose(koszul_connection(alg, E2, E2), s * E1)
    assert np.allclose(koszul_connection(alg, E1, E1), 0.0)


def test_koszul_torsion_free_and_metric_compatible():
    rng = np.random.default_rng(5)
    for alg in (heisenberg3(), affine2(0.5), sl2(), so3(), paper_example3()):
        for _ in range(40):
            x, y, z = rng.standard_normal((3, alg.dim))
            torsion = (koszul_connection(alg, x, y) - koszul_connection(alg, y, x)
                       - alg.bracket(x, y))
            assert np.max(np.abs(torsion)) < 1e-10
            compat = (alg.inner(koszul_connection(alg, x, y), z)
                      + alg.inner(y, koszul_connection(alg, x, z)))
            assert abs(compat) < 1e-10


# -- ideals and mean curvature -------------------------------------------------------

def test_ideal_checks():
    alg = affine2(1.0)
    span_y = Ideal(alg, [[0.0, 1.0]])
    assert span_y.is_subalgebra() and span_y.is_ideal()
    span_x = Ideal(alg, [[1.0, 0.0]])
    assert span_x.is_subalgebra() and not span_x.is_ideal()


def test_mean_curvature_requires_ideal():
    alg = affine2(1.0)
    with pytest.raises(NotAnIdealError):
        mean_curvature(alg, Ideal(alg, [[1.0, 0.0]]))


def test_mean_curvature_abelian_zero():
    alg = abelian(3)
    H = mean_curvature(alg, Ideal(alg, np.eye(3)[:2]))
    assert np.allclose(H, 0.0)


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_mean_curvature_affine(c):
    alg = affine2(c)
    H = mean_curvature(alg, Ideal(alg, [[0.0, 1.0]]))
    assert np.allclose(H, [c, 0.0], atol=1e-12)
    assert alg.inner(H, H) == pytest.approx(c, abs=1e-12)


def test_mean_curvature_basis_independent():
    rng = np.random.default_rng(6)
    alg = paper_example3()
    base = np.eye(3)[1:]
    H0 = mean_curvature(alg, Ideal(alg, base))
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        H1 = mean_curvature(alg, Ideal(alg, q @ base))
        assert np.allclose(H0, H1, atol=1e-10)


def test_mean_curvature_is_the_koszul_sum():
    # the complement part of the sum of nabla_E E over a g-orthonormal basis
    rng = np.random.default_rng(8)
    for alg in (paper_example3(), heisenberg3(), affine2(0.5)):
        a = rng.standard_normal((alg.dim, alg.dim))
        q = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))[0]
        c = np.einsum("ia,jb,kc,ijk->abc", q, q, q, alg.structure)
        rot = MetricLieAlgebra(alg.dim, c, a @ a.T + np.eye(alg.dim))
        ideal = derived_subalgebra(rot)
        H = sum(koszul_connection(rot, e, e) for e in ideal.onb)
        H = H - ideal.onb.T @ (ideal.onb @ rot.metric @ H)
        assert np.allclose(mean_curvature(rot, ideal), H, rtol=0.0, atol=1e-12)


def test_mean_curvature_in_complement():
    alg = paper_example3()
    ideal = Ideal(alg, [np.eye(3)[2]])
    H = mean_curvature(alg, ideal)
    assert np.allclose(H, [-1.0, 0.0, 0.0], atol=1e-12)
    assert ideal.residual_off(H) == pytest.approx(alg.norm(H), abs=1e-12)


def _identity_residual(alg, ideal):
    H = mean_curvature(alg, ideal)
    tau = alg.trace_covector()
    quot, push = quotient_algebra(alg, ideal)
    tr_quot = quot.trace_covector() @ (push @ H) if quot.dim else 0.0
    return alg.inner(H, H) - tau @ H + tr_quot


def test_mean_curvature_identity():
    cases = [
        (affine2(0.25), [[0.0, 1.0]]),
        (affine2(4.0), [[0.0, 1.0]]),
        (heisenberg3(), [np.eye(3)[2]]),
        (heisenberg3(), np.eye(3)[1:]),
        (paper_example3(), [np.eye(3)[1]]),
        (paper_example3(), [np.eye(3)[2]]),
        (paper_example3(), np.eye(3)[1:]),
    ]
    for alg, span in cases:
        assert abs(_identity_residual(alg, Ideal(alg, span))) < 1e-9


def test_unimodular_parent_identity():
    # tr(ad H) = 0 upstairs, so |H|^2 = -tr(ad p_* H) downstairs
    alg = paper_example3()
    ideal = Ideal(alg, [np.eye(3)[2]])
    H = mean_curvature(alg, ideal)
    assert alg.trace_covector() @ H == pytest.approx(0.0, abs=1e-12)
    quot, push = quotient_algebra(alg, ideal)
    assert alg.inner(H, H) == pytest.approx(-(quot.trace_covector() @ (push @ H)), abs=1e-10)


# -- quotient / restriction ----------------------------------------------------------

def test_quotient_algebra_of_example3():
    alg = paper_example3()
    quot, push = quotient_algebra(alg, Ideal(alg, [np.eye(3)[2]]))
    assert quot.dim == 2
    assert validate(quot).ok
    # the quotient is the affine algebra: one-dimensional derived algebra
    assert derived_subalgebra(quot).dim == 1
    # identity metric on the quotient: the dual norm of tau is its length
    assert np.linalg.norm(quot.trace_covector()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("make", [so3, sl2])
def test_quotient_by_everything_in_a_rotated_basis(make):
    # [g, g] = g: the rows e_i minus their projection are round-off alone, and
    # a cut relative to their own top singular value counted it as rank
    alg = rotate_algebra(make(), np.random.default_rng(3))
    der = derived_subalgebra(alg)
    assert der.dim == 3
    assert der.complement_onb().shape == (0, 3)
    quot, push = quotient_algebra(alg, der)
    assert quot.dim == 0 and push.shape == (0, 3)


def test_restrict_to_span_requires_closure():
    alg = so3()
    with pytest.raises(NotAnIdealError):
        restrict_to_span(alg, Ideal(alg, np.eye(3)[:2]))


def test_restrict_full_and_zero():
    alg = paper_example3()
    sub = restrict_to_span(alg, full_ideal(alg))
    assert sub.dim == 3 and validate(sub).ok
    assert restrict_to_span(alg, zero_ideal(alg)).dim == 0
