"""Property tests of the closed-form Lie results, the warped solver and the
fixture parser.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and fast.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (an_structure, change_basis, heisenberg_type_structure,
                      restricted, rotate_algebra, rotated, smoothed_random_warp,
                      trace_functional)
from specsub import eigensolve
from specsub.cli import main
from specsub.eigensolve import SymmetricForm, lowest_eigenvalue
from specsub.errors import FixtureParseError
from specsub.fixtures import (LIE_BUILTINS, _parse_lie_bulk, _parse_lines,
                              catalog_fixture, fixture_text, parse_fixture_text)
from specsub.group_spectra import (Method, group_spectrum_report, quotient_bound,
                                   radical_commutator_lambda0)
from specsub.lie_core import (Ideal, MetricLieAlgebra, classify, derived_subalgebra,
                              full_ideal, mean_curvature, quotient_algebra, validate)
from specsub.warped_spectra import (Boundary, CircleBase, IntervalBase, WarpProfile,
                                    WarpedProductSpec, _sample, build_schrodinger,
                                    drift_bound_lambda0, lambda0_ess_tail, mode_scan,
                                    pushdown_slack, verify_warped)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
EPS = np.finfo(float).eps

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
    t = 10.0 ** draw(st.floats(-150.0, 150.0))
    rot = change_basis(alg, q)
    return alg, MetricLieAlgebra(rot.dim, t * rot.structure, rot.metric), t


@PROPERTY
@given(rotated_scaled())
def test_classify_and_lambda0_are_basis_invariant(case):
    alg, rot, t = case
    assert validate(rot).ok
    a, b = classify(alg), classify(rot)
    assert flags(a) == flags(b)
    assert a.numerically_marginal == b.numerically_marginal
    ra, rb = group_spectrum_report(alg), group_spectrum_report(rot)
    assert ra.method == rb.method
    # a unimodular algebra's lambda0 in a rotated basis is the square of the
    # trace's round-off, about (1e-16 t)^2
    assert math.isclose(rb.lambda0, t * t * ra.lambda0, rel_tol=1e-9, abs_tol=1e-24 * t * t)


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
@given(st.sampled_from(["affine2"] + UNIMODULAR), st.floats(-100.0, 100.0))
def test_lambda0_scales_inversely_with_the_metric(name, u):
    alg, t = catalog_fixture(name), 10.0 ** u
    scaled = MetricLieAlgebra(alg.dim, alg.structure, t * alg.metric)
    ra, rs = group_spectrum_report(alg), group_spectrum_report(scaled)
    assert ra.method == rs.method
    assert math.isclose(rs.lambda0, ra.lambda0 / t, rel_tol=1e-12, abs_tol=0.0)
    if name != "affine2":
        assert ra.lambda0 == rs.lambda0 == 0.0


@st.composite
def power_of_two_scaled(draw):
    """(algebra, the same with constants c 2^k, k): a rotated affine2, AN or
    Heisenberg-type algebra with a random metric of eigenvalues in
    [1e-2, 1e2], and k in [-1000, 1000]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["affine2", "an", "ht"]))
    if family == "affine2":
        c = catalog_fixture("affine2", draw(st.floats(1e-2, 1e2))).structure
    elif family == "an":
        c = an_structure(draw(st.integers(1, 6)))
    else:
        c = heisenberg_type_structure(draw(st.integers(1, 4)), draw(st.integers(1, 3)), rng)
    c, n = rotated(c, rng), c.shape[0]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    g = (q * 10.0 ** rng.uniform(-2.0, 2.0, n)) @ q.T
    g = np.triu(g) + np.triu(g, 1).T
    k = draw(st.integers(-1000, 1000))
    return MetricLieAlgebra(n, c, g), MetricLieAlgebra(n, np.ldexp(c, k), g), k


def _times_power_of_two(value, base, power):
    """Whether value is base 2^power bit for bit where that is a normal
    double, and inf where it exceeds the largest one."""
    mantissa, exponent = math.frexp(base)
    if exponent + power > 1024:
        return value == math.inf
    if exponent + power - 1 < -1022:
        return True                      # subnormal or zero: not asserted
    return math.frexp(value) == (mantissa, exponent + power)


@PROPERTY
@given(power_of_two_scaled())
def test_lambda0_and_cheeger_scale_exactly_by_powers_of_two(case):
    # a numpy warning fails the test (pyproject's filterwarnings)
    alg, scaled, k = case
    ra, rs = group_spectrum_report(alg), group_spectrum_report(scaled)
    assert ra.method == rs.method == Method.AMENABLE_FORMULA
    assert _times_power_of_two(rs.cheeger, ra.cheeger, k), (rs.cheeger, ra.cheeger)
    assert _times_power_of_two(rs.lambda0, ra.lambda0, 2 * k), (rs.lambda0, ra.lambda0)
    assert ra.maximizer.tobytes() == rs.maximizer.tobytes()


@st.composite
def amenable_ideals(draw):
    """(algebra, rows spanning an ideal N): g = R^m x| R^p with m in 1..3 and
    p in 1..4, whose X_a act on R^p by the commuting derivations
    P diag(d_a) P^-1 (P shifted by 2I), with the metric A A^T + I/2; N is
    R^p plus a random span of k in 0..m of the X's."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n, k = m + p, draw(st.integers(0, m))
    P = rng.standard_normal((p, p)) + 2.0 * np.eye(p)
    c = np.zeros((n, n, n))
    for a in range(m):
        # [X_a, Y_j] = sum_l D[l, j] Y_l
        D = P @ np.diag(rng.standard_normal(p)) @ np.linalg.inv(P)
        c[a, m:, m:], c[m:, a, m:] = D.T, -D.T
    A = rng.standard_normal((n, n))
    span = np.vstack([np.eye(n)[m:],
                      np.hstack([rng.standard_normal((k, m)), np.zeros((k, p))])])
    return MetricLieAlgebra(n, c, A @ A.T + 0.5 * np.eye(n)), span


@st.composite
def heisenberg_type_ideals(draw):
    """(algebra, rows spanning an ideal N): HT(p, q) of conftest with p in
    1..4 and q in 1..3, plain or rotated, with the metric A A^T + I/2; N a
    nonzero member of its derived or lower central series."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = heisenberg_type_structure(draw(st.integers(1, 4)), draw(st.integers(1, 3)), rng)
    if draw(st.booleans()):
        c = rotated(c, rng)
    n = c.shape[0]
    A = rng.standard_normal((n, n))
    alg = MetricLieAlgebra(n, c, A @ A.T + 0.5 * np.eye(n))
    derived, lower = [full_ideal(alg)], [full_ideal(alg)]
    for _ in range(n):
        derived.append(derived_subalgebra(derived[-1]))
        # [g, N]: the brackets of the basis with N's orthonormal rows
        lower.append(Ideal(alg, np.einsum("vj,ijk->ivk", lower[-1].onb, c).reshape(-1, n)))
    return alg, draw(st.sampled_from([i.span for i in derived + lower if i.dim]))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(amenable_ideals(), heisenberg_type_ideals()))
def test_quotient_bound_is_an_identity_on_amenable_groups(case):
    # tau restricted to N is tau_N and, on the complement, <H, .> + tau_{G/N};
    # the parts are orthogonal, so the bound is |tau|^2/4 = lambda0(G) for
    # every ideal of an amenable group, whether or not N is unimodular.  tau
    # is a sum of terms up to sigma, good to some eps sigma, and lambda0 to
    # |tau| times that: 1e-12 lambda0 unless tau nearly cancels
    alg, span = case
    ideal = Ideal(alg, span)
    assert ideal.is_ideal()
    lam = group_spectrum_report(alg).lambda0
    rep = quotient_bound(ideal)
    sigma = alg.frame.scale * 2.0 ** alg.frame.exponent
    assert not rep.partial
    tol = 1e-12 * lam + 64 * EPS * sigma * math.sqrt(lam)
    assert abs(rep.lower_bound - lam) <= tol, (rep.lower_bound, lam)
    # criterion 3, each term of size up to sigma^2: |H|^2 - tr(ad H) + tr(ad_q p_* H) = 0
    H = mean_curvature(ideal)
    quot, push = quotient_algebra(ideal)
    tr_q = trace_functional(quot) @ (push @ H) if quot.dim else 0.0
    assert abs(alg.inner(H, H) - trace_functional(alg) @ H + tr_q) <= 64 * EPS * sigma ** 2
    # the same lambda0 through the mean curvature of the radical's commutator
    assert abs(radical_commutator_lambda0(alg).lambda0 - lam) <= tol


@st.composite
def scaled_lie_texts(draw):
    """(.lie text, catalog name or None, u): a rotated catalog algebra or
    random antisymmetric constants, dimension 1 to 8, scaled by 10^u with u
    in [-300, 308], with a random metric of eigenvalues in [1e-2, 1e2]."""
    name = draw(st.sampled_from(sorted(LIE_BUILTINS) + [None]))
    n = catalog_fixture(name).dim if name else draw(st.integers(1, 8))
    orthogonal = [np.linalg.qr(draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0))))[0]
                  for _ in range(2)]
    if name:
        c = change_basis(catalog_fixture(name), orthogonal[0]).structure
    else:
        c = draw(arrays(float, (n, n, n), elements=st.floats(-1.0, 1.0)))
        c = c - c.transpose(1, 0, 2)
    eigs = 10.0 ** draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    g = (orthogonal[1] * eigs) @ orthogonal[1].T
    u = draw(st.floats(-300.0, 308.0))
    alg = MetricLieAlgebra(n, 10.0 ** u * c, np.triu(g) + np.triu(g, 1).T)
    return fixture_text(alg), name, u


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(PROPERTY, max_examples=30)
@given(scaled_lie_texts())
@example(case=("dim 2\nbracket 1 2 2 1e+155\n", "affine2", 155.0))
def test_every_lie_command_exits_cleanly_at_any_scale(tmp_path_factory, case):
    # a numpy warning fails the test (pyproject's filterwarnings), and a
    # traceback would escape main
    text, name, u = case
    path = tmp_path_factory.mktemp("lie") / "scaled.lie"
    path.write_text(text)
    for command in ("analyze", "lambda0", "cheeger", "quotient"):
        for fmt in ("csv", "text"):
            code, out, err = _cli([command, str(path), "--format", fmt])
            assert code in (0, 1, 3), (command, fmt, code, err)
            assert (err == "") == (code == 0), err
            if name and fmt == "csv":
                # the same exit code and analyze flags as the catalog algebra;
                # a value of scale 10^2u (lambda0, |H|^2) fits below u = 150
                ref = _cli([command, name, "--format", fmt])
                overflow = "error: a result overflows a double at this bracket scale\n"
                assert code == ref[0] or (u > 150.0 and err == overflow), (command, err, ref[2])
                if command == "analyze":
                    assert out.splitlines()[-1].split(",")[1:] == \
                        ref[1].splitlines()[-1].split(",")[1:]


@st.composite
def wide_warp_texts(draw):
    """(.warp text, grid size): a circle, or an interval of either boundary
    that starts up to two lengths either side of 0, its length and the
    warp's parameter of size 10^u with u in [-300, 300] (the parameter of
    either sign), fiber_dim 1 (the mode scan's) or up to 100 and a fiber
    lambda0 of 0 or up to 1e300, on a grid of 16 to 64 nodes."""
    wide = st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)
    length = draw(wide)
    if draw(st.booleans()):
        base = f"circle {length!r}"
    else:
        a = length * draw(st.floats(-2.0, 2.0))
        base = f"interval {a!r} {a + length!r} {draw(st.sampled_from(list(Boundary))).value}"
    kind = draw(st.sampled_from(["const", "exp", "sinshift"]))
    param = draw(st.sampled_from([1.0, -1.0])) * draw(wide)
    fiber_lambda0 = draw(st.sampled_from([0.0]) | wide)
    fiber_dim = draw(st.sampled_from([1]) | st.integers(1, 100))
    return (f"base {base}\nfiber_dim {fiber_dim}\n"
            f"fiber_lambda0 {fiber_lambda0!r}\nwarp {kind} {param!r}\n",
            draw(st.sampled_from([16, 32, 64])))


@settings(PROPERTY, max_examples=40)
@given(wide_warp_texts())
def test_every_warp_command_exits_cleanly_at_any_scale(tmp_path_factory, case):
    # a traceback would escape main, and any warning is an error here
    text, grid = case
    path = tmp_path_factory.mktemp("warp") / "wide.warp"
    path.write_text(text)
    for command in ("verify-warped", "tail-ess"):
        for fmt in ("csv", "text"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _cli([command, str(path), "--grid", str(grid),
                                       "--format", fmt])
            assert code in (0, 1, 2, 3), (command, fmt, code, err)
            assert (err == "") == (code == 0), err


@st.composite
def homothetic_warps(draw):
    """A smooth positive sampled warp on a circle or an interval of either
    boundary with 16 to 64 nodes, and k even in [-40, 40]: the spec, and the
    spec with its base and its samples scaled by 2^k."""
    n = draw(st.sampled_from([16, 32, 64]))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    x = 2.0 * np.pi * np.arange(n) / n
    samples = np.exp(sum(a * np.sin((j + 1) * x + j) for j, a in enumerate(amps)))
    boundary = draw(st.sampled_from([None, *Boundary]))
    fiber_lambda0 = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 2.0))
    k = 2 * draw(st.integers(-20, 20))

    def spec(t):
        length = 2.0 * np.pi * t
        base = CircleBase(length) if boundary is None else IntervalBase(0.0, length, boundary)
        return WarpedProductSpec(base, WarpProfile("samples", (), samples=samples * t),
                                 fiber_lambda0=fiber_lambda0)
    return spec(1.0), spec(2.0 ** k), k, n


@settings(PROPERTY, max_examples=30)
@given(homothetic_warps())
def test_the_warped_verdict_does_not_depend_on_the_unit_of_length(tmp_path_factory, case):
    # scaling the base and psi by 2^k multiplies every operator by exactly
    # 4^-k; the verdicts compare values with their certified errors, which
    # scale with them
    spec, scaled, k, n = case
    reps = [verify_warped(s, n) for s in (spec, scaled)]
    lams = [rep.lambda0_modes + (rep.lambda0_schrodinger,) for rep in reps]
    assert [lam * 4.0 ** -k for lam in lams[0]] == list(lams[1])
    assert len({(rep.inequality_passed, rep.equality_passed) for rep in reps}) == 1
    codes = set()
    for s in (spec, scaled):
        path = tmp_path_factory.mktemp("warp") / "warp.warp"
        path.write_text(fixture_text(s))
        codes.add(_cli(["verify-warped", str(path), "--grid", str(n)])[0])
    assert codes == {0 if reps[0].inequality_passed and reps[0].equality_passed else 2}


@st.composite
def drift_cases(draw):
    """A smooth positive sampled warp on a Dirichlet or Neumann interval with
    16 to 64 nodes, and j even in [-40, 40]: the spec with its base scaled by
    2^j for j = 0 and for the drawn j."""
    n = draw(st.sampled_from([16, 32, 64]))
    amps = draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
    x = np.arange(n) / n
    samples = np.exp(sum(a * np.sin((i + 1) * np.pi * x + i) for i, a in enumerate(amps)))
    boundary = draw(st.sampled_from(list(Boundary)))
    length = draw(st.floats(0.5, 20.0))
    j = 2 * draw(st.integers(-20, 20))

    def spec(t):
        return WarpedProductSpec(IntervalBase(0.0, length * t, boundary),
                                 WarpProfile("samples", (), samples=samples))
    return spec(1.0), spec(2.0 ** j), j, n


def _drift_outcome(spec, C, n):
    try:
        return drift_bound_lambda0(spec, C, n)
    except ValueError as exc:
        return str(exc).split(" ")[0]       # which hypothesis failed


@settings(PROPERTY, max_examples=30)
@given(drift_cases())
def test_the_drift_bound_does_not_depend_on_the_unit_of_length(case):
    # scaling the base by 2^j scales the drift by exactly 2^-j and the base's
    # lambda0 by 4^-j, so with C scaled by 2^-j both hypotheses hold or fail
    # alike, and the bound scales by 4^-j; drawn at each cut, just past it
    # and between the two
    spec, scaled, j, n = case
    grid, psi, psi_pad, _ = _sample(spec, n)
    slope = (psi_pad[1:] - psi_pad[:-1]) / grid.h
    ones = np.ones_like(slope)
    drift = float(np.max(np.abs(grid.fold(slope, slope) / grid.fold(ones, ones) / psi)))
    flat = WarpedProductSpec(spec.base, WarpProfile("const", (1.0,)))
    top = 2.0 * math.sqrt(max(lowest_eigenvalue(build_schrodinger(flat, n)).lambda0, 0.0))
    for C in (drift, drift * (1.0 - 2.0 ** -30), top, top * (1.0 + 2.0 ** -30),
              0.5 * (drift + top)):
        at_one, at_scale = (_drift_outcome(s, C * t, n)
                            for s, t in ((spec, 1.0), (scaled, 2.0 ** -j)))
        if isinstance(at_one, float):
            assert at_scale == at_one * 4.0 ** -j, (C, at_one, at_scale)
        else:
            assert at_scale == at_one, (C, at_one, at_scale)


# -- the warped solver ----------------------------------------------------------

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
    est = lowest_eigenvalue(form)
    M = form.dense()
    norm = np.max(np.sum(np.abs(M), axis=1))
    dense = np.linalg.eigvalsh(M)[0]
    assert abs(est.lambda0 - dense) <= 64 * EPS * norm
    # the error bound is the bracket's width plus the slack, each at most
    # ULPS eps ||M|| (the solver's own row-sum norm), and it covers the
    # dense reference with the reference's own slack
    slack = eigensolve.ULPS * EPS * eigensolve._scaled(form)[2]
    assert est.error <= 2 * slack
    assert abs(dense - est.lambda0) <= est.error + slack


@PROPERTY
@given(symmetric_forms())
def test_bracket_stays_below_lambda0(form):
    # lo only rises to certified shifts, so it never passes lambda0 by more
    # than round-off
    Mu, unit, scale = eigensolve._scaled(form)
    lo = eigensolve._bracket(Mu, 64 * EPS * scale * unit)[0] / unit
    assert lo <= np.linalg.eigvalsh(form.dense())[0] + 64 * EPS * scale


@PROPERTY
@given(st.integers(3, 512), st.sampled_from([-1.0, 1.0]), st.integers(0, 2**32 - 1))
def test_banded_lowest_matches_eigvalsh(n, corner_sign, seed):
    rng = np.random.default_rng(seed)
    form = SymmetricForm(rng.uniform(-10.0, 10.0, n), rng.uniform(-10.0, 10.0, n - 1),
                         corner_sign * rng.uniform(1e-3, 10.0), np.ones(n))
    M = form.dense()
    norm = np.max(np.sum(np.abs(M), axis=1))
    assert abs(eigensolve._banded_lowest(form) - np.linalg.eigvalsh(M)[0]) <= 64 * EPS * norm


@st.composite
def dirichlet_warps(draw):
    """An exp warp of random rate, or a smooth positive sampled warp, on a
    Dirichlet interval, with the grid size."""
    n = draw(st.integers(32, 256))
    length = draw(st.floats(1.0, 60.0))
    if draw(st.booleans()):
        warp = WarpProfile("exp", (draw(st.floats(-3.0, 3.0)),))
    else:
        amps = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
        x = np.arange(1, n + 1) / (n + 1)
        log_psi = sum(a * np.sin((k + 1) * np.pi * x + k) for k, a in enumerate(amps))
        warp = WarpProfile("samples", (), samples=np.exp(log_psi))
    base = IntervalBase(0.0, length, Boundary.DIRICHLET)
    return WarpedProductSpec(base, warp, fiber_dim=draw(st.integers(1, 40))), n


@PROPERTY
@given(dirichlet_warps())
def test_tail_is_non_decreasing(case):
    # each cutoff restricts S to a principal submatrix of the one before, so
    # the bottoms interlace
    spec, n = case
    cutoffs = np.linspace(0.0, 0.8, 9) * spec.base.b
    rep = lambda0_ess_tail(spec, cutoffs, n)
    norm = np.max(np.sum(np.abs(build_schrodinger(spec, n).dense()), axis=1))
    assert rep.monotone
    assert all(b >= a - 64 * EPS * norm for a, b in zip(rep.values, rep.values[1:]))


@PROPERTY
@given(st.integers(16, 64).flatmap(lambda n: st.tuples(
    st.floats(1.0, 10.0), st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))))
def test_schrodinger_operator_is_positive_semidefinite(case):
    length, samples = case
    spec = WarpedProductSpec(CircleBase(length),
                             WarpProfile("samples", (), samples=np.array(samples)))
    op = build_schrodinger(spec, len(samples))
    norm = np.max(np.sum(np.abs(op.dense()), axis=1))
    assert lowest_eigenvalue(op).lambda0 >= -64 * EPS * norm


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
        assert pushdown_slack(spec, f2d, f2d.shape[0]) >= -1e-8


def _bottoms(spec, n):
    """(lambda0, certified error) of S and of L_0, ..., L_4."""
    ests = [lowest_eigenvalue(build_schrodinger(spec, n)), *mode_scan(spec, n, 4)]
    return [(e.lambda0, e.error) for e in ests]


def _agree(a, b):
    return all(abs(x - y) <= ex + ey for (x, ex), (y, ey) in zip(a, b))


@settings(PROPERTY, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_coverings_keep_the_bottom_of_the_spectrum(seed):
    # a finite cyclic cover (Brooks: an amenable covering) keeps lambda0: the
    # lift of the base's positive ground state is positive, so it is the
    # cover's (Perron-Frobenius, every off-diagonal is -1/h^2)
    n = 64
    samples = smoothed_random_warp(np.random.default_rng(seed), n)
    base = _bottoms(WarpedProductSpec(CircleBase(2 * np.pi),
                                      WarpProfile("samples", (), samples=samples)), n)
    for k in (2, 3, 8):
        cover = WarpedProductSpec(CircleBase(2 * np.pi * k),
                                  WarpProfile("samples", (), samples=np.tile(samples, k)))
        assert _agree(_bottoms(cover, k * n), base), k
    # the mirror edge of the doubled circle carries no flux, as a Neumann end;
    # the ground state is even
    neumann = WarpedProductSpec(IntervalBase(0.0, np.pi, Boundary.NEUMANN),
                                WarpProfile("samples", (), samples=samples))
    double = WarpedProductSpec(CircleBase(2 * np.pi), WarpProfile(
        "samples", (), samples=np.r_[samples, samples[::-1]]))
    assert _agree(_bottoms(neumann, n), _bottoms(double, 2 * n))
    # the infinite cyclic cover: j periods of the 8-fold cover's S, Dirichlet
    # at the cuts, interlace downwards to the base's lambda0 and stay above it
    S = build_schrodinger(cover, 8 * n)
    cut = [lowest_eigenvalue(restricted(S, 0, j * n)) for j in range(1, 8)]
    lam, err = base[0]
    for a, b in zip(cut, cut[1:]):
        assert b.lambda0 <= a.lambda0 + a.error + b.error
    assert all(e.lambda0 >= lam - (e.error + err) for e in cut)


# -- the fixture parser ---------------------------------------------------------

# finite floats, with subnormal and near-overflow values drawn on purpose
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([5e-324, -2.2e-309, 1.7976931348623157e308, -1e308]))


@st.composite
def lie_algebras(draw):
    """Dimension 1 to 12, sparse random brackets and a random SPD metric."""
    n = draw(st.integers(1, 12))
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    c = np.zeros((n, n, n))
    if keys:
        for i, j, k in draw(st.lists(st.sampled_from(keys), unique=True, max_size=24)):
            c[i, j, k] = draw(FINITE)
            c[j, i, k] = -c[i, j, k]
    a = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    g = a @ a.T + np.eye(n)
    return MetricLieAlgebra(n, c, np.triu(g) + np.triu(g, 1).T)


@st.composite
def warp_specs(draw):
    positive = st.floats(1e-3, 1e3)
    if draw(st.booleans()):
        base = CircleBase(draw(positive))
    else:
        a = draw(st.floats(-1e3, 1e3))
        base = IntervalBase(a, a + draw(positive), draw(st.sampled_from(list(Boundary))))
    kind = draw(st.sampled_from(["const", "exp", "sinshift", "samples"]))
    if kind == "samples":
        samples = draw(st.lists(positive, min_size=16, max_size=40))
        warp = WarpProfile(kind, (), samples=np.array(samples))
    else:
        warp = WarpProfile(kind, (draw(positive),))
    return WarpedProductSpec(base, warp, fiber_dim=draw(st.integers(1, 8)),
                             fiber_lambda0=draw(st.floats(0.0, 1e3)))


def outcome(parse, text):
    """The error message and line, or the parsed algebra's bytes."""
    try:
        alg = parse(text)
    except FixtureParseError as err:
        return str(err), err.line
    return alg.structure.tobytes(), alg.metric.tobytes()


@PROPERTY
@given(lie_algebras())
def test_lie_fixture_text_round_trips(alg):
    back = parse_fixture_text(fixture_text(alg))
    assert back.dim == alg.dim
    assert np.array_equal(back.structure, alg.structure)
    assert np.array_equal(back.metric, alg.metric)


@PROPERTY
@given(warp_specs())
def test_warp_fixture_text_round_trips(spec):
    back = parse_fixture_text(fixture_text(spec))
    assert back.base == spec.base
    assert (back.warp.kind, back.warp.params) == (spec.warp.kind, spec.warp.params)
    assert np.array_equal(back.warp.samples, spec.warp.samples)
    assert (back.fiber_dim, back.fiber_lambda0) == (spec.fiber_dim, spec.fiber_lambda0)


CORRUPTIONS = ["not-a-number", "index", "order", "duplicate", "non-finite", "directive"]


@settings(PROPERTY, max_examples=300)
@given(lie_algebras(), st.sampled_from(CORRUPTIONS), st.data())
def test_a_corrupted_lie_file_fails_as_the_per_line_parser_says(alg, how, data):
    lines = fixture_text(alg).splitlines()
    at = data.draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
    toks = lines[at].split()
    if how == "not-a-number":
        toks[-1] = data.draw(st.sampled_from(["x", "1.0.0", "0x10", "1e", "--1"]))
    elif how == "index":
        pos = data.draw(st.integers(1, max(1, len(toks) - 2)))
        toks[pos] = data.draw(st.sampled_from(["0", "-1", str(alg.dim + 1)]))
    elif how == "order" and toks[0] == "bracket":
        toks[1], toks[2] = toks[2], data.draw(st.sampled_from([toks[1], toks[2]]))
    elif how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "non-finite":
        toks[-1] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif how == "directive":
        toks[0] = "frobnicate"
    if how != "duplicate":
        lines[at] = " ".join(toks)
    text = "\n".join(lines) + "\n"
    assert outcome(parse_fixture_text, text) == outcome(_parse_lines, text)


def _bulk_edges(toks):
    """Edits of one line's tokens (two or more) where numpy's reader and the
    per-line parser could part: tokens that one of them reads and the other
    rejects, line breaks of str.splitlines inside a line, and directive words
    out of place."""
    head, first, rest = toks[0], toks[1], toks[2:]
    for index in ("1.0", "1e0", "1_0", "+2", "07", "0000000000000001",
                  "1000000000000001", "\u0661", "\uff11"):
        yield [head, index] + rest
    for value in ("inf", "-nan", "Infinity", "+nan", "\u0661.5"):
        yield toks[:-1] + [value]
    for sep in ("\x0b", "\x0c", "\x1c", "\x1f", "\xa0"):
        yield [head + sep + first] + rest
    yield toks[1:]                                      # no directive word
    for word in ("bracket", "metric", "dim"):           # two on one line
        yield toks[:-1] + [word]
    for glued in ("x" + head, "metric" + head, head + "0", head + "s", head + "\0"):
        yield [glued, first] + rest
    for at in range(1, len(toks)):                      # a directive over two lines
        yield toks[:at] + ["\n" + toks[at]] + toks[at + 1:]


@settings(PROPERTY, max_examples=60)
@given(lie_algebras(), st.data())
def test_the_bulk_reader_parts_from_no_per_line_outcome(alg, data):
    lines = fixture_text(alg).splitlines()
    at = data.draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
    edited = [" ".join(toks) for toks in _bulk_edges(lines[at].split())]
    edited.append(" ".join(lines[at:at + 2]))          # two whole directives
    for line in edited:
        text = "\n".join(lines[:at] + [line] + lines[at + 1:]) + "\n"
        assert outcome(parse_fixture_text, text) == outcome(_parse_lines, text), line


def _loadtxt_reading_indices_through_a_float(loadtxt):
    """np.loadtxt as numpy read an integer field from 1.23 until that
    deprecation expired: a token that only float() reads is truncated, and
    the only sign is a DeprecationWarning."""
    def old_loadtxt(lines, *args, **kwargs):
        read = []
        for line in lines:
            toks = line.split()
            for f in range(1, min(4, len(toks))):
                with contextlib.suppress(ValueError):
                    int(toks[f])
                    continue
                toks[f] = str(int(float(toks[f])))
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
            read.append(" ".join(toks))
        return loadtxt(read, *args, **kwargs)
    return old_loadtxt


@pytest.mark.parametrize("index", ["2.7", "2.0", "2e0"])
def test_an_index_read_through_a_float_goes_to_the_per_line_parser(monkeypatch, index):
    # outside pytest a DeprecationWarning is ignored, so the bulk reader must
    # not rely on the warning's default action to reject such an index
    monkeypatch.setattr(np, "loadtxt", _loadtxt_reading_indices_through_a_float(np.loadtxt))
    text = f"dim 3\nbracket 1 {index} 3 1.0\nmetric 1 1 2.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        read = outcome(parse_fixture_text, text)
    assert read == outcome(_parse_lines, text)
    assert f"expected an integer, got {index!r}" in read[0] and read[1] == 2


@PROPERTY
@given(lie_algebras(), st.data())
def test_formatting_does_not_change_the_parsed_algebra(alg, data):
    # comments, blank lines, tabs, CRLF and the spellings +1 and 1_0
    def spell(tok, integer):
        forms = [tok] if tok.startswith("-") else [tok, "+" + tok]
        if integer and len(tok) > 1:
            forms.append(tok[0] + "_" + tok[1:])
        return data.draw(st.sampled_from(forms))

    clean = fixture_text(alg)
    out = [data.draw(st.sampled_from(["", "# leading comment"]))]
    for line in clean.splitlines():
        toks = line.split()
        toks = [toks[0]] + [spell(t, integer=m < len(toks) - 2 or toks[0] == "dim")
                            for m, t in enumerate(toks[1:])]
        sep = data.draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        tail = data.draw(st.sampled_from(["", " # note", "\t#", "  # bracket 1 2 3 4.0"]))
        out.append(data.draw(st.sampled_from(["", " ", "\t"])) + sep.join(toks) + tail)
        out += data.draw(st.sampled_from([[], [""], ["   "], ["# metric 1 1 2.0"]]))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(out) + eol
    assert outcome(parse_fixture_text, text) == outcome(_parse_lines, text) \
        == outcome(parse_fixture_text, clean)
    if "_" not in text:
        assert _parse_lie_bulk(text) is not None
