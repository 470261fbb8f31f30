import argparse
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import specsub
import specsub.cli
import specsub.fixtures
import specsub.group_spectra
import specsub.warped_spectra
from conftest import (an_structure, heisenberg_type_structure, rotate_algebra,
                      rotated)
from specsub.cli import (EXIT_INAPPLICABLE, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                         RunConfig, main, run)
from specsub.eigensolve import SymmetricForm
from specsub.errors import FixtureParseError
from specsub.fixtures import (LIE_BUILTINS, WARP_BUILTINS, _parse_lines,
                              catalog_fixture, catalog_ideals, fixture_text,
                              lie_fixture_text, parse_fixture_text)
from specsub.lie_core import MetricLieAlgebra, validate
from specsub.warped_spectra import (CircleBase, IntervalBase, WarpedProductSpec,
                                    verify_warped)


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
    # an error a directive causes names its line, the value types' own
    # checks included; only what the whole file lacks names none
    circle = "base circle 6.28\n"
    for text, line in [("base circle 1 2\nwarp const 1\n", 1),
                       ("base interval 0 1 robin\nwarp const 1\n", 1),
                       ("base interval 1 0 dirichlet\nwarp const 1\n", 1),
                       ("base circle -1\nwarp const 1\n", 1),
                       (circle + "fiber_lambda0 -1\nwarp const 1\n", 2),
                       (circle + "warp const 1\nfiber_dim 0\n", 3),
                       (circle + "fiber_lambda0 1\nfiber_dim 0\nwarp const 1\n", 3),
                       (circle + "warp wiggle 1\n", 2),
                       (circle + "warp const 1 2\n", 2),
                       (circle + "warp samples 1 2 3\n", 2),
                       (circle + "warp const 1\nbase circle 1\n", 3),
                       ("frobnicate 1\n", 1),
                       (circle, None),
                       ("warp const 1\n", None),
                       ("", None)]:
        with pytest.raises(FixtureParseError) as info:
            parse_fixture_text(text)
        assert info.value.line == line, text


def test_a_bad_boundary_names_the_two_it_could_be(tmp_path, capsys):
    with pytest.raises(ValueError, match="must be dirichlet or neumann, not 'robin'"):
        IntervalBase(0.0, 1.0, "robin")
    path = tmp_path / "robin.warp"
    path.write_text("base interval 0 1 robin\nwarp const 1\n")
    assert main(["verify-warped", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: line 1: interval boundary must be dirichlet or neumann, not 'robin'\n")


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


def _lie_fixture_text_loop(alg):
    """The one-entry-at-a-time serializer that lie_fixture_text replaced."""
    lines = [f"dim {alg.dim}"]
    c, g = alg.structure, alg.metric
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                if c[i, j, k] != 0.0:
                    lines.append(f"bracket {i+1} {j+1} {k+1} {float(c[i, j, k])!r}")
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            if g[i, j] != (1.0 if i == j else 0.0):
                lines.append(f"metric {i+1} {j+1} {float(g[i, j])!r}")
    return "\n".join(lines) + "\n"


def _rotated_large():
    """Rotated AN25 and HT(24, 16), the second with a random SPD metric."""
    rng = np.random.default_rng(11)
    an25 = MetricLieAlgebra(25, rotated(an_structure(24), rng), np.eye(25))
    a = rng.standard_normal((41, 41))
    g = a @ a.T / 41 + np.eye(41)
    ht41 = MetricLieAlgebra(41, rotated(heisenberg_type_structure(24, 16, rng), rng),
                            np.triu(g) + np.triu(g, 1).T)
    return [an25, ht41]


def test_lie_fixture_text_matches_the_loop_byte_for_byte():
    algebras = [catalog_fixture(name, 0.25 if name == "affine2" else None)
                for name in sorted(LIE_BUILTINS)] + _rotated_large()
    for alg in algebras:
        assert lie_fixture_text(alg) == _lie_fixture_text_loop(alg)


def _ht41_text():
    """A rotated Heisenberg-type algebra of dimension 41 as a .lie file."""
    rng = np.random.default_rng(7)
    c = rotated(heisenberg_type_structure(24, 16, rng), rng)
    return fixture_text(MetricLieAlgebra(41, c, np.eye(41)))


def test_parse_of_a_dimension_41_file_peaks_below_eight_times_its_text():
    # a Python object per token cost 17.7 times the text at peak
    text = _ht41_text()
    tracemalloc.start()
    try:
        alg = parse_fixture_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(alg.structure, _parse_lines(text).structure)
    assert peak <= 8 * len(text), peak / len(text)


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
    # the text names the failed check: [e1, [e1, e2]] = e1 against sigma^2 = 4
    assert "Jacobi residual 2.50e-01" in res.text
    # the frozen CSV contract: a valid=false row and exit 0
    res = run(RunConfig("analyze", str(bad), fmt="csv"))
    assert res.exit_code == EXIT_OK
    assert res.text.splitlines()[-1].split(",")[1:] == ["false"] + [""] * 7


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


def test_main_reports_an_output_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    assert main(["analyze", "heisenberg3", "--out", str(out)]) == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"error: cannot write {str(out)!r}: No such file or directory\n"


def test_main_reports_a_fixture_it_cannot_read(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h.lie"
    path.write_text("dim 3\nbracket 1 2 3 1\n")

    def unreadable(*args, **kwargs):
        raise OSError(5, "Input/output error")

    # parse_fixture's open: the file exists, its read fails
    monkeypatch.setattr(specsub.fixtures, "open", unreadable, raising=False)
    assert main(["analyze", str(path)]) == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"error: cannot read {str(path)!r}: Input/output error\n"


@pytest.mark.parametrize("text, line", [("dim 1000000\n", 1), ("dim 3000000\n", 1),
                                        ("# far too large\ndim 1000000\n", 2)])
def test_main_reports_a_dimension_too_large_to_allocate(tmp_path, capsys, text, line):
    # 8e18 bytes of structure constants make numpy raise MemoryError, 2.2e20
    # bytes ValueError, at once on any host: no address space holds either.
    # A dimension that numpy can allocate, from about 700 up, fills gigabytes
    path = tmp_path / "big.lie"
    path.write_text(text)
    assert main(["analyze", str(path)]) == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    n = text.split()[-1]
    assert stdout == ""
    assert stderr == (f"error: line {line}: dimension {n} is too large: its {n}^3 "
                      "structure constants do not fit in memory\n")


def test_main_leaves_the_report_file_alone_when_the_run_fails(tmp_path, capsys):
    out = tmp_path / "report.txt"
    out.write_bytes(b"# an earlier report\n")
    assert main(["lambda0", "sl2", "--out", str(out)]) == EXIT_INAPPLICABLE
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: sl2: not amenable")
    assert out.read_bytes() == b"# an earlier report\n"


@pytest.mark.parametrize("argv", [["verify-warped", "const", "--grid", "abc"],
                                  ["analyze"],
                                  ["analyze", "heisenberg3", "--bogus"],
                                  ["verify-warped", "const", "--format", "xml"]])
def test_main_usage_errors_exit_as_validation_failures(argv, capsys):
    # exit 2 is an uncertified solve or a failed verify-warped check
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("usage: specsub")
    assert "error: " in stderr.splitlines()[-1]


def test_main_exit_codes(capsys):
    assert main(["lambda0", "sl2"]) == EXIT_INAPPLICABLE
    assert main(["analyze", "heisenberg3"]) == EXIT_OK


def test_main_strict_preset(capsys):
    assert main(["analyze", "paper_example3", "--tol-preset", "strict"]) == EXIT_OK


# tr(ad e1) = 1e-10 sigma-relative: zero at the default rank cut, not at the strict one
PRESET_DEPENDENT = "dim 3\nbracket 1 2 3 1.0\nbracket 1 3 3 1e-10\n"
PRESET_ROWS = {
    ("analyze", "default"): "x.lie,true,true,true,true,false,true,3,true",
    ("analyze", "strict"): "x.lie,true,false,true,false,false,true,3,true",
    ("lambda0", "default"): "x.lie,true,true,0.0,0.0,unimodular_amenable_zero",
    ("lambda0", "strict"): "x.lie,false,true,2.5000000000000002e-21,1e-10,amenable_formula",
    ("quotient", "default"): "x.lie,1,1.0000000000000001e-20,1.0000000000000001e-20,"
                             "0.0,0.0,2.5000000000000002e-21,true,false",
}
PRESET_ROWS[("cheeger", "default")] = PRESET_ROWS[("lambda0", "default")]
PRESET_ROWS[("cheeger", "strict")] = PRESET_ROWS[("lambda0", "strict")]
PRESET_ROWS[("quotient", "strict")] = PRESET_ROWS[("quotient", "default")]


@pytest.mark.parametrize("command, preset", sorted(PRESET_ROWS))
def test_the_preset_reaches_every_lie_decision(command, preset, tmp_path, monkeypatch, capsys):
    # the trace functional, the lower central series and lambda0 all move
    # with the preset; the quotient by [g, g] = span(e3) does not
    (tmp_path / "x.lie").write_text(PRESET_DEPENDENT)
    monkeypatch.chdir(tmp_path)
    assert main([command, "x.lie", "--format", "csv", "--tol-preset", preset]) == EXIT_OK
    stdout, stderr = capsys.readouterr()
    assert stdout.splitlines()[2:] == [PRESET_ROWS[command, preset]] and stderr == ""


@pytest.mark.parametrize("argv, kind", [(["quotient", "paper_example3", "--ideal"], "int"),
                                        (["tail-ess", "exp", "--cutoffs"], "float")])
def test_an_empty_list_option_is_a_usage_error(argv, kind, capsys):
    # not the default ideal ([g, g]) or the default cutoffs (the middle third)
    assert main(argv + [""]) == EXIT_VALIDATION
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"error: {argv[-1]} needs comma-separated {kind} values, got ''\n"


def test_c_is_rejected_where_no_fixture_takes_it(tmp_path, capsys):
    path = tmp_path / "h.lie"
    path.write_text("dim 3\nbracket 1 2 3 1\n")
    for name in ("heisenberg3", str(path)):
        assert main(["lambda0", name, "--c", "5", "--format", "csv"]) == EXIT_VALIDATION
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
        assert "--c applies to the catalog fixtures affine2, const, exp, sinshift only" in stderr


def test_run_neumann_fixture_from_file(tmp_path):
    f = tmp_path / "neumann.warp"
    f.write_text("base interval 0 5 neumann\nfiber_dim 1\nwarp sinshift 0.5\n")
    res = run(RunConfig("verify-warped", str(f), grid_n=64, fmt="csv"))
    assert res.exit_code == EXIT_OK


@pytest.mark.parametrize("name, text, head", [
    ("a.lie", "dim 2\nbracket 1 2 2 1\n", "fixture: {}\n"),
    ("w.warp", "base circle 6.28\nwarp sinshift 0.5\n", "fixture: {} (grid 64)\n")],
    ids=["lie", "warp"])
def test_a_fixture_file_is_named_by_its_input_as_typed(tmp_path, monkeypatch, name, text,
                                                        head):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / name).write_text(text)
    typed = f"./sub/{name}"
    command = "analyze" if name.endswith(".lie") else "verify-warped"
    csv = run(RunConfig(command, typed, grid_n=64, fmt="csv"))
    assert csv.exit_code == EXIT_OK
    assert {row.split(",")[0] for row in csv.text.splitlines()[2:]} == {typed}
    res = run(RunConfig(command, typed, grid_n=64))
    assert res.exit_code == EXIT_OK
    assert res.text.startswith(head.format(typed))


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
    ("dim 3\nbracket 1 2 3 1e999\n", 2),
], ids=["metric-nan", "bracket-nan", "bracket-inf", "bracket-overflow"])
def test_run_rejects_non_finite_lie_entries(tmp_path, text, line):
    f = tmp_path / "nonfinite.lie"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(RunConfig("analyze", str(f)))
    assert res.exit_code == EXIT_VALIDATION
    assert f"line {line}: expected a finite number" in res.text


@pytest.mark.parametrize("base, c, modes, code", [
    ("circle 6.283185307179586", "1e200", [], EXIT_OK),
    ("circle 6.283185307179586", "1e-160", ["--modes", "0"], EXIT_OK),
    ("interval 0.0 1.0 neumann", "3.8e-237", ["--modes", "0"], EXIT_OK),
    # m^2/psi^2 does not fit in a double
    ("circle 6.283185307179586", "1e-160", [], EXIT_VALIDATION),
    ("interval 0.0 1.0 neumann", "3.8e-237", [], EXIT_VALIDATION),
])
def test_verify_warped_at_extreme_constant_warps(tmp_path, capsys, base, c, modes, code):
    f = tmp_path / "extreme.warp"
    f.write_text(f"base {base}\nwarp const {c}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-warped", str(f), "--grid", "64", *modes]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == EXIT_OK else "error: operator has non-finite entries\n")


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
    assert "warp must be finite and positive (node 46)" in res.text


@pytest.mark.parametrize("base, warp, where", [
    # e^{100 x} overflows past x = 7.098: Dirichlet nodes sit at 10 (k + 1) / 65,
    # Neumann nodes at 10 (k + 1/2) / 64, circle nodes at 10 k / 64
    ("interval 0.0 10.0 dirichlet", "exp 100", "node 46"),
    ("interval 0.0 10.0 neumann", "exp 100", "node 45"),
    ("circle 10.0", "exp 100", "node 46"),
    # the quadratic extrapolation 3 y0 - 3 y1 + y2 to a ghost is negative
    ("interval 0.0 1.0 dirichlet", "samples 0.1" + " 1.0" * 63, "left end"),
    ("interval 0.0 1.0 dirichlet", "samples" + " 1.0" * 63 + " 0.1", "right end"),
], ids=["dirichlet", "neumann", "circle", "left-end", "right-end"])
def test_main_names_the_first_bad_warp_node(tmp_path, capsys, base, warp, where):
    f = tmp_path / "bad.warp"
    f.write_text(f"base {base}\nwarp {warp}\n")
    assert main(["verify-warped", str(f), "--grid", "64"]) == EXIT_VALIDATION
    assert f"warp must be finite and positive ({where})\n" in capsys.readouterr().err


def test_run_huge_operator_has_a_finite_residual():
    # 1/h^2 is about 4e303 at grid 64, so ||M r|| of a unit residual vector r
    # overflows unless the residual is taken on the form scaled to norm ~1
    spec = parse_fixture_text("base circle 1e-150\nwarp sinshift 1\n")
    rep = verify_warped(spec, 64)
    assert len(rep.residuals) == 10
    assert all(np.isfinite(rep.residuals))


def test_main_verify_warped_fails_alike_in_text_and_csv(tmp_path, capsys, monkeypatch):
    # the CSV used to be written with exit 0.  The mismatch comes from an S
    # shifted down by 1, far above the solves' certified errors (about 1e-11
    # here); the violation from fiber_lambda0 1 on a circle of length 2 pi,
    # which puts the right-hand side at 1/9 above the total space's lambda0
    circle = "base circle 6.283185307179586\n"
    (tmp_path / "plain.warp").write_text(circle + "warp sinshift 1\n")
    (tmp_path / "fiber.warp").write_text(circle + "fiber_lambda0 1\nwarp sinshift 1\n")
    build = specsub.warped_spectra.build_schrodinger
    for name, verdict, shift in (("plain", "MISMATCH", -1.0), ("fiber", "VIOLATED", 0.0)):
        monkeypatch.setattr(specsub.warped_spectra, "build_schrodinger",
                            lambda spec, n, shift=shift:
                            SymmetricForm((op := build(spec, n)).diag + shift, op.off,
                                          op.corner, op.weights))
        errs = []
        for fmt in ("text", "csv"):
            argv = ["verify-warped", str(tmp_path / f"{name}.warp"), "--grid", "64",
                    "--format", fmt]
            assert main(argv) == EXIT_SOLVER
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1]
        assert verdict in errs[0] and ("VIOLATED" in errs[0]) == (verdict == "VIOLATED")
    assert "inequality slack: -0.111111111111" in errs[0]


def test_main_verify_warped_passes_where_every_value_is_round_off(tmp_path, capsys):
    # at ||M|| ~ 1e304 the two routes differ by 3.2e270, round-off far below
    # the solves' certified errors; this call exited 2 with MISMATCH while
    # the verdict used an absolute tolerance
    (tmp_path / "tiny.warp").write_text("base circle 1e-150\nwarp sinshift 1\n")
    for fmt in ("text", "csv"):
        assert main(["verify-warped", str(tmp_path / "tiny.warp"), "--grid", "64",
                     "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().err == ""


def test_main_verify_warped_keeps_its_verdict_when_the_base_is_rescaled(tmp_path, capsys):
    # the sampled 2 + sin on a circle of length 2 pi / 4096 exited 2 with a
    # MISMATCH of 1.7e-6, and the Neumann fixture with fiber_lambda0 0.3, whose
    # slack times 4^k is -1/30 at every k, passed at k = 12 (slack -2.0e-9)
    wave = 2.0 + np.sin(2.0 * np.pi * np.arange(256) / 256)
    (tmp_path / "short.warp").write_text(
        f"base circle {2 * np.pi / 4096!r}\nwarp samples " + " ".join(map(repr, wave.tolist())))
    assert main(["verify-warped", str(tmp_path / "short.warp"), "--grid", "256"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    wave = 2.0 + np.sin(2.0 * np.pi * (np.arange(256) + 0.5) / 256)
    for k in (0, 12):
        path = tmp_path / f"neumann{k}.warp"
        path.write_text(f"base interval 0 {2 * np.pi * 2.0 ** k!r} neumann\n"
                        "fiber_lambda0 0.3\nwarp samples "
                        + " ".join(map(repr, (wave * 2.0 ** k).tolist())))
        assert main(["verify-warped", str(path), "--grid", "256"]) == EXIT_SOLVER
        assert "(VIOLATED)" in capsys.readouterr().err


def test_main_tail_of_a_fast_growing_warp_is_finite(tmp_path, capsys):
    # psi^{k/2} = e^{1440} overflowed while the operator is finite: the
    # potential is taken from the edge ratios of psi
    f = tmp_path / "steep.warp"
    f.write_text("base interval 0 60 dirichlet\nfiber_dim 40\nfiber_lambda0 0\n"
                 "warp exp 1.2\n")
    assert main(["tail-ess", str(f), "--grid", "256"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert "monotone non-decreasing: true" in out


@pytest.mark.parametrize("command, base, spacing", [
    ("verify-warped", "circle 1e-155", "1.5625e-157"),
    ("verify-warped", "circle 1e300", "1.5625e+298"),
    ("verify-warped", "interval 0.0 1e-160 dirichlet", "1.5384615384615385e-162"),
    ("verify-warped", "interval 0.0 1e-160 neumann", "1.5625e-162"),
    ("tail-ess", "interval 0.0 1e-160 dirichlet", "1.5384615384615385e-162"),
], ids=["circle", "circle-huge", "dirichlet", "neumann", "tail-ess"])
def test_main_rejects_a_spacing_without_finite_inverse_square(tmp_path, capsys, command,
                                                              base, spacing):
    f = tmp_path / "tiny.warp"
    f.write_text(f"base {base}\nwarp const 1\n")
    assert main([command, str(f), "--grid", "64"]) == EXIT_VALIDATION
    assert f"grid spacing {spacing} is out of range" in capsys.readouterr().err


# -- the exp warp near the continuum --------------------------------------------

@pytest.mark.parametrize("c", [0.358, 0.25, 0.4])
def test_run_verify_warped_exp_small_grid(c):
    # the bottom of L_4 sits 1e-3 below the next eigenvalue; the solver must
    # not settle on that one (the dense cross-check at grid 256 would say so)
    res = run(RunConfig("verify-warped", "exp", c_param=c, grid_n=256, fmt="csv"))
    assert res.exit_code == EXIT_OK, res.text
    rows = {int(row[2]): [float(v) for v in row[3:]]
            for row in (line.split(",") for line in res.text.splitlines()[2:])}
    assert all(slack >= -1e-8 for _, _, slack in rows.values())
    assert abs(rows[0][0] - rows[-1][0]) <= 1e-6      # L_0 and S: the two routes


def test_main_seed_is_accepted_and_ignored(capsys):
    outs = []
    for seed in ("0", "7"):
        assert main(["verify-warped", "sinshift", "--grid", "64", "--format", "csv",
                     "--seed", seed]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _run(*args, **env):
    """A fresh interpreter that imports specsub from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(specsub.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def _python(*args, **env):
    """stdout of a fresh interpreter that imports specsub from this source tree."""
    proc = _run(*args, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


HELP = """\
usage: specsub [-h]
               {analyze,lambda0,cheeger,quotient,verify-warped,tail-ess} ...

Spectral invariants of metric Lie algebras and warped-product eigenvalue checks.

positional arguments:
  {analyze,lambda0,cheeger,quotient,verify-warped,tail-ess}
    analyze             validate and classify a Lie algebra fixture
    lambda0             bottom of the spectrum of an amenable group
    cheeger             Cheeger constant (exact when amenable, else lower
                        bound)
    quotient            quotient lower bound through an ideal's mean curvature
    verify-warped       warped-product inequality and two-route equality
    tail-ess            essential-spectrum tail estimates on a truncated ray

options:
  -h, --help            show this help message and exit

CSV columns (frozen under the version tag specsub-csv v1):
  analyze        fixture,valid,unimodular,solvable,nilpotent,semisimple,amenable,radical_dim,marginal
  lambda0        fixture,unimodular,amenable,lambda0,cheeger,method
  cheeger        fixture,unimodular,amenable,lambda0,cheeger,method
  quotient       fixture,ideal_dim,H_norm2,tr_ad_H,lambda0_N,lambda0_quotient,lower_bound,equality_expected,partial
  verify-warped  fixture,grid_n,mode,lambda0,residual,slack  (mode -1 = Schrodinger row)
  tail-ess       fixture,grid_n,cutoff,lambda0,residual
Fixture names are resolved against $SPECSUB_FIXTURE_DIR, then as file
paths, then against the built-in catalog.
Exit codes: 0 ok, 1 validation/parse failure, 2 uncertified solver result or a
violated inequality or two-route mismatch in verify-warped, 3 formula inapplicable.
"""


def test_main_help_lists_the_frozen_csv_columns(capsys, monkeypatch):
    # the epilog is built from cli.HEADERS; argparse wraps at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP


def test_a_command_builds_only_its_own_subparser(monkeypatch):
    # --help and an unknown command list all six; a named command needs one
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["lambda0", "sl2"]) == EXIT_INAPPLICABLE
    assert built == ["lambda0"]
    for argv in (["--help"], ["nope"]):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == list(specsub.cli.COMMANDS), argv


def test_an_error_past_the_command_prints_the_usage_of_all_six(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["lambda0", "sl2", "--bogus"]
    with pytest.raises(SystemExit):
        specsub.cli.build_parser().parse_args(argv)
    full = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert capsys.readouterr().err == full
    assert "{analyze,lambda0,cheeger,quotient,verify-warped,tail-ess}" in full


@pytest.mark.parametrize("command", sorted(specsub.cli.HEADERS))
def test_csv_header_is_the_headers_entry(command):
    fixture = {"verify-warped": "const", "tail-ess": "exp"}.get(command, "paper_example3")
    res = run(RunConfig(command, fixture, grid_n=64, fmt="csv"))
    assert res.exit_code == EXIT_OK, res.text
    assert res.text.splitlines()[1] == ",".join(specsub.cli.HEADERS[command])


@pytest.mark.parametrize("command", list(specsub.cli.HEADERS))
def test_an_option_left_out_takes_the_run_config_default(command):
    args = specsub.cli.build_parser().parse_args([command, "x"])
    assert specsub.cli.config_from_args(args) == RunConfig(command, "x")


def test_the_command_table_follows_the_frozen_headers():
    assert list(specsub.cli.COMMANDS) == list(specsub.cli.HEADERS)


def test_verify_warped_usage_names_each_option_as_before(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["verify-warped", "--help"])
    assert capsys.readouterr().out.startswith(
        "usage: specsub verify-warped [-h] [--c C_PARAM] [--format {text,csv}]\n"
        "                             [--out OUT] [--tol-preset {default,strict}]\n"
        "                             [--seed SEED] [--grid GRID] [--modes MODES]\n"
        "                             fixture\n")


def test_tail_ess_takes_no_modes(capsys):
    # tail-ess scans no fiber modes, so an option it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["tail-ess", "exp", "--modes", "3"])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --modes 3" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    _python("-m", "specsub", "--help")


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_algebra_commands_load_no_scipy(tmp_path):
    # the Lie path needs numpy only; scipy is for the warped solver
    (tmp_path / "tiny.lie").write_text("dim 2\nbracket 1 2 2 1\n")
    argvs = [["analyze", "heisenberg3"], ["lambda0", "affine2", "--c", "4"],
             ["cheeger", "so3"], ["quotient", "paper_example3"],
             ["analyze", "tiny", "--format", "csv"], ["lambda0", "sl2"]]
    probe = ("import json, sys\nfrom specsub.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             f"print(json.dumps([codes, {_LOADED_SCIPY}]))")
    out = _python("-c", probe, json.dumps(argvs), SPECSUB_FIXTURE_DIR=str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [[EXIT_OK] * 5 + [EXIT_INAPPLICABLE], []]


def test_algebra_commands_load_no_warped_side():
    # the package resolves its names on first access, so a Lie command loads
    # neither the warped side nor its solver, nor the dataclasses they use
    argvs = [["analyze", "heisenberg3"], ["lambda0", "affine2", "--c", "4"],
             ["cheeger", "so3"], ["quotient", "paper_example3"]]
    probe = ("import json, sys\nimport specsub\n"
             "bare = sorted(m for m in sys.modules if m.startswith('specsub.'))\n"
             "from specsub.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([bare, codes, [m for m in ('specsub.warped_spectra', "
             "'specsub.eigensolve', 'dataclasses') if m in sys.modules]]))")
    out = _python("-c", probe, json.dumps(argvs))
    assert json.loads(out.splitlines()[-1]) == [[], [EXIT_OK] * 4, []]


def test_every_public_name_resolves_and_is_listed():
    names = dir(specsub)
    for name in specsub.__all__:
        assert getattr(specsub, name) is getattr(
            importlib.import_module(f"specsub.{specsub._EXPORTS[name]}"), name), name
        assert name in names, name
    assert specsub.warped_spectra.WarpProfile is specsub.WarpProfile
    with pytest.raises(AttributeError):
        specsub.no_such_name


def test_warped_commands_load_no_scipy_sparse():
    # the warped solver works on three diagonals with LAPACK's tridiagonal
    # routines, so scipy's LAPACK extension is all it loads of scipy.linalg
    argvs = [["verify-warped", "sinshift", "--grid", "64"],
             ["tail-ess", "exp", "--grid", "256"]]
    probe = ("import json, sys\nfrom specsub.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules "
             "if m.startswith('scipy.sparse'))]))")
    out = _python("-c", probe, json.dumps(argvs))
    assert json.loads(out.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]


def test_warped_commands_load_the_lapack_extension_alone():
    # the package inits of scipy and scipy.linalg (and with it
    # scipy._lib._array_api and numpy.f2py) are most of a fresh warped
    # call's import time
    argvs = [["verify-warped", "sinshift", "--grid", "64"],
             ["tail-ess", "exp", "--grid", "256"]]
    probe = ("import json, sys\nfrom specsub.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, [m for m in ('scipy', 'scipy.linalg', "
             "'scipy._lib._array_api', 'numpy.f2py') if m in sys.modules], "
             "'scipy.linalg._flapack' in sys.modules]))")
    out = _python("-c", probe, json.dumps(argvs))
    assert json.loads(out.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], [], True]


def test_lapack_extension_that_does_not_load_alone_loads_after_the_scipy_init():
    # where the extension needs scipy's init (its DLL directory on Windows),
    # the first load fails and the second follows `import scipy`
    probe = ("import importlib.machinery as machinery, json, sys\n"
             "create, seen = machinery.ExtensionFileLoader.create_module, []\n"
             "def failing_once(self, spec):\n"
             "    if spec.name != 'scipy.linalg._flapack':\n"
             "        return create(self, spec)\n"
             "    seen.append('scipy' in sys.modules)\n"
             "    if len(seen) == 1:\n"
             "        raise ImportError('simulated: a DLL is missing')\n"
             "    return create(self, spec)\n"
             "machinery.ExtensionFileLoader.create_module = failing_once\n"
             "from specsub.eigensolve import _lapack\n"
             "lapack = _lapack()\n"
             "print(json.dumps([seen, lapack.__name__, "
             "sys.modules.get('scipy.linalg._flapack') is lapack]))")
    assert json.loads(_python("-c", probe)) == [[False, True], "scipy.linalg._flapack",
                                                True]


def test_only_the_program_sets_the_openblas_thread_timeout():
    # idle OpenBLAS workers sleep in a CLI process; a user's value wins, and
    # the library sets nothing
    show = ("import os, specsub\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "import specsub.cli\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")
    unset = "import os\nos.environ.pop('OPENBLAS_THREAD_TIMEOUT', None)\n"
    assert _python("-c", unset + show) == "None\n4\n"
    assert _python("-c", show, OPENBLAS_THREAD_TIMEOUT="8") == "8\n8\n"


def test_lapack_extension_is_the_one_scipy_linalg_uses():
    probe = ("import numpy as np\nfrom specsub.eigensolve import _lapack\n"
             "ext = _lapack()\n"
             "import scipy.linalg, scipy.linalg.lapack as lapack\n"
             "print(all(getattr(ext, f) is getattr(lapack, f)\n"
             "          for f in ('dpttrf', 'dpttrs', 'dsbevx')))\n"
             "vals = scipy.linalg.eigh_tridiagonal(2.0 * np.ones(3), -np.ones(2),\n"
             "                                     eigvals_only=True)\n"
             "print(np.allclose(vals, [2 - 2 ** 0.5, 2, 2 + 2 ** 0.5]))")
    assert _python("-c", probe).splitlines() == ["True", "True"]


def test_lapack_without_an_extension_file_is_scipy_linalg_lapack(tmp_path):
    # _lapack looks for the extension beside the origin of scipy's spec, which
    # find_spec takes from sys.modules once scipy is loaded; the package
    # import goes by scipy.__path__
    probe = ("import importlib.util, sys, scipy\n"
             "scipy.__spec__ = importlib.util.spec_from_file_location('scipy', sys.argv[1])\n"
             "from specsub.eigensolve import _lapack\nprint(_lapack().__name__)")
    assert _python("-c", probe, str(tmp_path / "__init__.py")) == "scipy.linalg.lapack\n"


def test_analyze_of_lie_files_writes_nothing_to_stderr(tmp_path):
    (tmp_path / "only_dim.lie").write_text("dim 3\n")
    (tmp_path / "ht41.lie").write_text(_ht41_text())
    for name in ("only_dim.lie", "ht41.lie"):
        proc = _run("-m", "specsub", "analyze", str(tmp_path / name))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def test_bare_import_loads_no_scipy():
    assert _python("-c", f"import sys, specsub\nprint({_LOADED_SCIPY})") == "[]\n"


def test_only_the_program_freezes_the_import_heap():
    # the CLI module freezes what its imports built, so that no collection,
    # at exit or later, traverses it again; the library leaves the collector alone
    probe = ("import gc, specsub\nprint(gc.get_freeze_count())\n"
             "import specsub.cli\nprint(gc.get_freeze_count() > 0)")
    assert _python("-c", probe) == "0\nTrue\n"


# -- scale: the algebra with constants t c and the metric t g ------------------

def _outcomes(capsys, path, commands=("analyze", "lambda0", "cheeger", "quotient")):
    """command -> (exit code, CSV row without the fixture name); stderr is
    empty on success and one error line otherwise."""
    out = {}
    for command in commands:
        code = main([command, str(path), "--format", "csv"])
        stdout, stderr = capsys.readouterr()
        if code == EXIT_OK:
            assert stderr == ""
            out[command] = code, stdout.splitlines()[-1].split(",")[1:]
        else:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            out[command] = code, stderr
    return out


def _flags(outcomes):
    """The outcomes with the printed numbers dropped: exit codes and flags."""
    numbers = {"lambda0": (2, 3), "cheeger": (2, 3), "quotient": (1, 2, 3, 4, 5)}
    return {command: (code, [v for i, v in enumerate(row)
                             if i not in numbers.get(command, ())] if code == EXIT_OK else None)
            for command, (code, row) in outcomes.items()}


@pytest.mark.parametrize("name, rotate, t", [
    ("sl2", False, 1e-5), ("so3", False, 1e-5), ("sl2", False, 1e160),
    ("paper_example3", True, 1e20), ("paper_example3", True, 1e-20),
    ("affine2", True, 1e50), ("sl2+affine2", False, 1e160),
])
def test_scaled_constants_run_as_the_unscaled_algebra(tmp_path, capsys, name, rotate, t):
    parts = [catalog_fixture(part) for part in name.split("+")]
    n = sum(part.dim for part in parts)
    c, at = np.zeros((n, n, n)), 0
    for part in parts:
        block = slice(at, at + part.dim)
        c[block, block, block], at = part.structure, at + part.dim
    alg = MetricLieAlgebra(n, c, np.eye(n))
    if rotate:
        alg = rotate_algebra(alg, np.random.default_rng(5))
    plain, scaled = tmp_path / "plain.lie", tmp_path / "scaled.lie"
    plain.write_text(lie_fixture_text(alg))
    scaled.write_text(lie_fixture_text(MetricLieAlgebra(alg.dim, t * alg.structure,
                                                        alg.metric)))
    # sl2 + affine2 is neither amenable nor unimodular: its lambda0 bound,
    # of scale t^2, overflows at 1e160, and cheeger and quotient print it
    commands = ("analyze", "lambda0") if len(parts) > 1 else (
        "analyze", "lambda0", "cheeger", "quotient")
    expect = _flags(_outcomes(capsys, plain, commands))
    got = _outcomes(capsys, scaled, commands)
    assert _flags(got) == expect
    if name.startswith("sl2"):
        assert expect["lambda0"] == (EXIT_INAPPLICABLE, None)
    if len(parts) > 1:
        # |tau| = t fits in a double although its square does not
        assert "Cheeger lower bound 1e+160 (lambda0 >= inf)" in got["lambda0"][1]


def test_constants_near_the_largest_double_classify_and_overflow_cleanly(tmp_path, capsys):
    (tmp_path / "one.lie").write_text("dim 2\nbracket 1 2 2 1\n")
    (tmp_path / "big.lie").write_text("dim 2\nbracket 1 2 2 1e308\n")
    big = _outcomes(capsys, tmp_path / "big.lie")
    assert big["analyze"] == _outcomes(capsys, tmp_path / "one.lie", ("analyze",))["analyze"]
    # lambda0 = 2.5e615 does not fit in a double: an input out of range
    for command in ("lambda0", "cheeger", "quotient"):
        assert big[command] == (EXIT_VALIDATION, "error: a result overflows a double "
                                                 "at this bracket scale\n")


@pytest.mark.parametrize("t, metric, command, seed", [
    (1e308, 1.0, "lambda0", 0), (1e308, 1.0, "cheeger", 0), (1e308, 1.0, "quotient", 0),
    *[(1e307, 0.01, "quotient", seed) for seed in range(12)],
])
def test_a_rotated_an_algebra_near_the_largest_double_overflows_cleanly(
        tmp_path, capsys, t, metric, command, seed):
    # the trace functional in stored coordinates overflows at 1e308 (a numpy
    # warning), and at 1e307 with a small metric so do the constants of the
    # quotient in a g-orthonormal basis (an SVD that did not converge); on the
    # frame only lambda0 and |H|^2 do
    c = rotated(an_structure(3), np.random.default_rng(seed))
    path = tmp_path / "big.lie"
    path.write_text(lie_fixture_text(MetricLieAlgebra(4, t * c, metric * np.eye(4))))
    assert main([command, str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: a result overflows a double at this bracket scale\n"


def test_constants_near_the_smallest_double_keep_the_cheeger_constant(tmp_path, capsys):
    # |tau| = 1e-170 fits in a double, |tau|^2 = lambda0 * 4 underflows to 0
    path = tmp_path / "tiny.lie"
    path.write_text("dim 2\nbracket 1 2 2 1e-170\n")
    printed = {}
    for command in ("lambda0", "cheeger"):
        for fmt in ("csv", "text"):
            code = main([command, str(path), "--format", fmt])
            printed[command, fmt] = code, capsys.readouterr()
            assert (code, printed[command, fmt][1].err) == (EXIT_OK, "")
    for command in ("lambda0", "cheeger"):
        row = printed[command, "csv"][1].out.splitlines()[-1].split(",")
        assert row[3:] == ["0.0", "1e-170", "amenable_formula"]
    text = printed["lambda0", "text"][1].out
    assert "cheeger: 1e-170\n" in text and "maximizer: [1.0, 0.0]\n" in text
    assert "cheeger (exact): 1e-170\n" in printed["cheeger", "text"][1].out


def test_a_small_metric_is_not_degenerate(tmp_path, capsys):
    (tmp_path / "small.lie").write_text(
        "dim 2\nbracket 1 2 2 1\nmetric 1 1 1e-13\nmetric 2 2 1e-13\n")
    out = _outcomes(capsys, tmp_path / "small.lie", ("analyze", "lambda0"))
    assert out["analyze"][1][0] == "true"
    # lambda0 = |tau|^2 / 4 in the dual metric: 0.25 / 1e-13
    assert float(out["lambda0"][1][2]) == pytest.approx(0.25e13, rel=1e-12)


def test_a_singular_metric_is_rejected(tmp_path, capsys):
    (tmp_path / "singular.lie").write_text("dim 2\nmetric 1 1 1\nmetric 1 2 1\nmetric 2 2 1\n")
    for code, err in _outcomes(capsys, tmp_path / "singular.lie").values():
        assert code == EXIT_VALIDATION and "not positive definite" in err
