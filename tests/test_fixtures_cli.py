import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import specsub.cli
import specsub.group_spectra
from specsub.cli import (EXIT_INAPPLICABLE, EXIT_OK, EXIT_VALIDATION,
                         RunConfig, main, run)
from specsub.errors import FixtureParseError
from specsub.fixtures import (LIE_BUILTINS, WARP_BUILTINS, catalog_fixture,
                              catalog_ideals, fixture_text, parse_fixture_text)
from specsub.lie_core import MetricLieAlgebra, validate
from specsub.warped_spectra import CircleBase, IntervalBase, WarpedProductSpec


# -- parsing --------------------------------------------------------------------

def test_parse_minimal_dim1():
    alg = parse_fixture_text("dim 1\n")
    assert isinstance(alg, MetricLieAlgebra)
    assert alg.dim == 1
    assert np.allclose(alg.metric, 1.0)
    assert np.allclose(alg.structure, 0.0)


def test_parse_lie_with_comments():
    text = """
    # a solvable example
    dim 3
    bracket 1 2 2 1.0
    bracket 1 3 3 -1.0   # trailing comment
    metric 2 2 2.0
    """
    alg = parse_fixture_text(text)
    assert validate(alg).ok
    assert alg.metric[1, 1] == 2.0
    assert alg.structure[0, 1, 1] == 1.0
    assert alg.structure[1, 0, 1] == -1.0


def test_parse_rejects_antisymmetry_conflict():
    text = "dim 3\nbracket 1 2 3 1\nbracket 2 1 3 1\n"
    with pytest.raises(FixtureParseError) as info:
        parse_fixture_text(text)
    assert info.value.line == 3


def test_parse_rejects_duplicates():
    with pytest.raises(FixtureParseError):
        parse_fixture_text("dim 2\nbracket 1 2 2 1\nbracket 1 2 2 1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("dim 2\nmetric 1 2 0.1\nmetric 2 1 0.1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("dim 2\ndim 2\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(FixtureParseError) as info:
        parse_fixture_text("dim 2\nfrobnicate 1\n")
    assert info.value.line == 2


def test_parse_rejects_out_of_range_indices():
    with pytest.raises(FixtureParseError):
        parse_fixture_text("dim 2\nbracket 1 3 2 1\n")


def test_parse_rejects_non_spd_metric():
    with pytest.raises(FixtureParseError, match="positive definite"):
        parse_fixture_text("dim 2\nmetric 1 1 -1.0\n")


def test_parse_warp_circle():
    spec = parse_fixture_text("base circle 6.28\nfiber_dim 1\nfiber_lambda0 0\nwarp const 2\n")
    assert isinstance(spec, WarpedProductSpec)
    assert isinstance(spec.base, CircleBase)
    assert spec.warp.kind == "const"


def test_parse_warp_interval_and_samples():
    vals = " ".join(str(1.0 + 0.01 * i) for i in range(32))
    spec = parse_fixture_text(f"base interval 0 5 dirichlet\nwarp samples {vals}\n")
    assert isinstance(spec.base, IntervalBase)
    assert spec.warp.samples.size == 32
    # samples may continue over lines
    spec2 = parse_fixture_text(
        "base interval 0 5 neumann\nwarp samples\n" +
        "\n".join(str(1.0 + 0.01 * i) for i in range(32)) + "\n")
    assert spec2.warp.samples.size == 32


def test_parse_warp_errors():
    with pytest.raises(FixtureParseError):
        parse_fixture_text("base circle 1 2\nwarp const 1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("base interval 0 1 robin\nwarp const 1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("base circle 6.28\nwarp wiggle 1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("base circle 6.28\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("warp const 1\n")
    with pytest.raises(FixtureParseError):
        parse_fixture_text("")


def test_parse_error_reports_line_number():
    with pytest.raises(FixtureParseError, match="line 4"):
        parse_fixture_text("dim 2\n\n# fine\nbracket 1 2\n")


# -- catalog and round trips -------------------------------------------------------

def test_catalog_fixtures_all_validate():
    for name in LIE_BUILTINS:
        alg = catalog_fixture(name)
        assert validate(alg).ok, name


def test_catalog_ideals_are_ideals():
    for name in ("heisenberg3", "affine2", "paper_example3", "abelian4"):
        alg = catalog_fixture(name)
        ideals = catalog_ideals(name, alg)
        assert ideals, name
        for label, ideal in ideals:
            assert ideal.is_ideal(), (name, label)


@pytest.mark.parametrize("name", sorted(LIE_BUILTINS))
def test_lie_round_trip(name):
    alg = catalog_fixture(name, 0.25 if name == "affine2" else None)
    text = fixture_text(alg)
    back = parse_fixture_text(text)
    assert back.dim == alg.dim
    assert np.array_equal(back.structure, alg.structure)
    assert np.array_equal(back.metric, alg.metric)


@pytest.mark.parametrize("name", sorted(WARP_BUILTINS))
def test_warp_round_trip(name):
    spec = catalog_fixture(name, 0.5)
    text = fixture_text(spec)
    back = parse_fixture_text(text)
    assert type(back.base) is type(spec.base)
    if isinstance(spec.base, CircleBase):
        assert back.base.length == spec.base.length
    else:
        assert (back.base.a, back.base.b, back.base.boundary) == \
               (spec.base.a, spec.base.b, spec.base.boundary)
    assert back.warp.kind == spec.warp.kind
    assert back.warp.params == spec.warp.params
    assert back.fiber_dim == spec.fiber_dim
    assert back.fiber_lambda0 == spec.fiber_lambda0


def test_sampled_warp_round_trip():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.5, 2.0, 32)
    spec = WarpedProductSpec(CircleBase(2 * np.pi),
                             parse_fixture_text(
                                 "base circle 6.28\nwarp samples "
                                 + " ".join(repr(float(v)) for v in samples)).warp)
    text = fixture_text(spec)
    back = parse_fixture_text(text)
    assert np.array_equal(back.warp.samples, samples)


# -- CLI ---------------------------------------------------------------------------

def test_run_lambda0_paper_example3():
    res = run(RunConfig("lambda0", "paper_example3", fmt="csv"))
    assert res.exit_code == EXIT_OK
    assert "unimodular_amenable_zero" in res.text
    line = res.text.strip().splitlines()[-1]
    assert line.split(",")[3] == "0.0"


def test_run_lambda0_affine_value():
    res = run(RunConfig("lambda0", "affine2", c_param=1.0, fmt="csv"))
    assert res.exit_code == EXIT_OK
    assert res.text.strip().splitlines()[-1].split(",")[3] == "0.25"


def test_run_exit_code_inapplicable():
    res = run(RunConfig("lambda0", "sl2"))
    assert res.exit_code == EXIT_INAPPLICABLE


def test_run_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("dim 2\nbracket 1 2 3 1\n")
    res = run(RunConfig("analyze", str(bad)))
    assert res.exit_code == EXIT_VALIDATION
    assert "line" in res.text


def test_run_validation_failure_on_broken_jacobi(tmp_path):
    bad = tmp_path / "jac.lie"
    bad.write_text("dim 3\nbracket 1 2 3 1\nbracket 1 3 1 1\n")
    res = run(RunConfig("analyze", str(bad)))
    assert res.exit_code == EXIT_VALIDATION


def test_run_unknown_fixture():
    res = run(RunConfig("analyze", "no_such_fixture"))
    assert res.exit_code == EXIT_VALIDATION


def test_run_verify_warped_const():
    res = run(RunConfig("verify-warped", "const", grid_n=256, fmt="csv"))
    assert res.exit_code == EXIT_OK
    lines = [l for l in res.text.strip().splitlines() if not l.startswith("#")]
    # header + 9 mode rows + 1 schrodinger row
    assert len(lines) == 11
    slack = float(lines[-1].split(",")[-1])
    assert abs(slack) <= 1e-10


def test_run_rejects_bad_grid():
    res = run(RunConfig("verify-warped", "const", grid_n=100))
    assert res.exit_code == EXIT_VALIDATION
    res = run(RunConfig("verify-warped", "const", grid_n=8))
    assert res.exit_code == EXIT_VALIDATION
    res = run(RunConfig("verify-warped", "const", grid_n=2 ** 30))
    assert res.exit_code == EXIT_VALIDATION
    assert "--grid must be a power of two from 16 to 1048576" in res.text
    res = run(RunConfig("verify-warped", "const", grid_n=64, m_max=-1))
    assert res.exit_code == EXIT_VALIDATION
    assert "--modes must be nonnegative" in res.text


def test_run_quotient_with_ideal():
    res = run(RunConfig("quotient", "paper_example3", ideal=(3,), fmt="csv"))
    assert res.exit_code == EXIT_OK
    row = res.text.strip().splitlines()[-1].split(",")
    assert row[1] == "1"          # ideal dim
    assert float(row[2]) == pytest.approx(1.0)   # |H|^2
    assert row[7] == "true"       # equality expected


def test_run_quotient_default_ideal_is_derived():
    res = run(RunConfig("quotient", "affine2", c_param=4.0, fmt="csv"))
    assert res.exit_code == EXIT_OK
    row = res.text.strip().splitlines()[-1].split(",")
    assert float(row[6]) == pytest.approx(1.0)   # bound c/4 with c=4


def test_run_tail_ess_csv():
    res = run(RunConfig("tail-ess", "exp", c_param=1.0, grid_n=512, fmt="csv",
                        cutoffs=(20.0, 25.0, 30.0)))
    assert res.exit_code == EXIT_OK
    rows = [l for l in res.text.strip().splitlines() if not l.startswith(("#", "fixture"))]
    assert len(rows) == 3
    vals = [float(r.split(",")[3]) for r in rows]
    assert vals == sorted(vals)


def test_run_determinism_byte_identical():
    cfg = dict(grid_n=128, fmt="csv")
    a = run(RunConfig("verify-warped", "sinshift", c_param=1.0, **cfg))
    b = run(RunConfig("verify-warped", "sinshift", c_param=1.0, **cfg))
    assert a.exit_code == b.exit_code == EXIT_OK
    assert a.text == b.text


def test_fixture_dir_override(tmp_path, monkeypatch):
    override = tmp_path / "fixtures"
    override.mkdir()
    # shadow the built-in name with a different algebra
    (override / "so3.lie").write_text("dim 2\nbracket 1 2 2 1\n")
    monkeypatch.setenv("SPECSUB_FIXTURE_DIR", str(override))
    res = run(RunConfig("analyze", "so3", fmt="csv"))
    assert res.exit_code == EXIT_OK
    row = res.text.strip().splitlines()[-1].split(",")
    assert row[2] == "false"  # the shadowed algebra is not unimodular


def test_main_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["lambda0", "affine2", "--c", "4", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# specsub-csv v1")
    assert text.strip().splitlines()[-1].split(",")[3] == "1.0"


def test_main_exit_codes(capsys):
    assert main(["lambda0", "sl2"]) == EXIT_INAPPLICABLE
    assert main(["analyze", "heisenberg3"]) == EXIT_OK


def test_main_strict_preset(capsys):
    assert main(["analyze", "paper_example3", "--tol-preset", "strict"]) == EXIT_OK


def test_run_neumann_fixture_from_file(tmp_path):
    f = tmp_path / "neumann.warp"
    f.write_text("base interval 0 5 neumann\nfiber_dim 1\nwarp sinshift 0.5\n")
    res = run(RunConfig("verify-warped", str(f), grid_n=64, fmt="csv"))
    assert res.exit_code == EXIT_OK


def test_run_sample_count_must_match_grid(tmp_path):
    vals = " ".join("1.0" for _ in range(32))
    f = tmp_path / "sampled.warp"
    f.write_text(f"base circle 6.2831853\nwarp samples {vals}\n")
    assert run(RunConfig("verify-warped", str(f), grid_n=32)).exit_code == EXIT_OK
    assert run(RunConfig("verify-warped", str(f), grid_n=64)).exit_code == EXIT_VALIDATION


def test_run_quotient_rejects_non_ideal():
    # span{X} of the affine algebra is a subalgebra but not an ideal
    res = run(RunConfig("quotient", "affine2", ideal=(1,)))
    assert res.exit_code == EXIT_VALIDATION


def test_run_wrong_fixture_kind():
    assert run(RunConfig("verify-warped", "so3", grid_n=64)).exit_code == EXIT_VALIDATION
    assert run(RunConfig("lambda0", "const")).exit_code == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["lambda0", "cheeger"])
def test_run_classifies_once(monkeypatch, command):
    calls = []
    real = specsub.cli.classify

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(specsub.cli, "classify", counting)
    monkeypatch.setattr(specsub.group_spectra, "classify", counting)
    assert run(RunConfig(command, "affine2")).exit_code == EXIT_OK
    assert len(calls) == 1


def test_run_verify_warped_scans_modes_once(monkeypatch):
    calls = []
    real = specsub.warped_spectra.mode_scan

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(specsub.warped_spectra, "mode_scan", counting)
    assert run(RunConfig("verify-warped", "sinshift", grid_n=64)).exit_code == EXIT_OK
    assert len(calls) == 1


# -- non-finite numbers in fixture files ---------------------------------------

@pytest.mark.parametrize("text, line", [
    ("dim 2\nmetric 1 1 nan\n", 2),
    ("dim 3\nbracket 1 2 3 nan\n", 2),
    ("dim 3\nbracket 1 2 3 inf\n", 2),
], ids=["metric-nan", "bracket-nan", "bracket-inf"])
def test_run_rejects_non_finite_lie_entries(tmp_path, text, line):
    f = tmp_path / "nonfinite.lie"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(RunConfig("analyze", str(f)))
    assert res.exit_code == EXIT_VALIDATION
    assert f"line {line}: expected a finite number" in res.text


_ONES = " ".join("1.0" for _ in range(16))


@pytest.mark.parametrize("text, line", [
    ("base interval 0 inf dirichlet\nwarp exp 0.5\n", 1),
    (f"base circle 6.2831853\nwarp samples {_ONES} {_ONES[:-4]} nan\n", 2),
    (f"base circle 6.2831853\nwarp samples {_ONES}\n{_ONES[:-4]} inf\n", 3),
], ids=["interval-inf", "samples-nan", "samples-continued-inf"])
def test_run_rejects_non_finite_warp_values(tmp_path, text, line):
    f = tmp_path / "nonfinite.warp"
    f.write_text(text)
    res = run(RunConfig("verify-warped", str(f), grid_n=32))
    assert res.exit_code == EXIT_VALIDATION
    assert f"line {line}: expected a finite number" in res.text


@pytest.mark.parametrize("argv", [
    ["verify-warped", "sinshift", "--c", "nan", "--grid", "64"],
    ["verify-warped", "const", "--c", "inf", "--grid", "64"],
], ids=["sinshift-nan", "const-inf"])
def test_main_rejects_non_finite_warp_parameter(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    assert "warp must be finite and positive (node 0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["lambda0", "affine2", "--c", "inf"], "affine2 needs a finite c > 0 (--c), got inf"),
    (["verify-warped", "exp", "--c", "nan", "--grid", "64"],
     "exp warp needs a finite rate a > 0 (--c), got nan"),
], ids=["affine2-inf", "exp-nan"])
def test_main_rejects_non_finite_catalog_parameter(capsys, argv, message):
    assert main(argv) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_run_overflowing_warp_is_rejected_without_a_warning(tmp_path):
    # e^{100 t} overflows past t = 7.1; the sampler names the first such node
    f = tmp_path / "overflow.warp"
    f.write_text("base interval 0.0 10.0 dirichlet\nwarp exp 100\n")
    res = run(RunConfig("verify-warped", str(f), grid_n=64))
    assert res.exit_code == EXIT_VALIDATION
    assert "warp must be finite and positive (node 47)" in res.text


# -- the exp warp near the continuum --------------------------------------------

@pytest.mark.parametrize("c", [0.358, 0.25, 0.4])
def test_run_verify_warped_exp_small_grid(c):
    # the bottom of L_4 sits 1e-3 below the next eigenvalue; the solver must
    # not settle on that one (the dense cross-check at grid 256 would say so)
    res = run(RunConfig("verify-warped", "exp", c_param=c, grid_n=256))
    assert res.exit_code == EXIT_OK, res.text


def test_main_seed_is_accepted_and_ignored(capsys):
    outs = []
    for seed in ("0", "7"):
        assert main(["verify-warped", "sinshift", "--grid", "64", "--format", "csv",
                     "--seed", seed]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(specsub.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "specsub", "--help"], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
