"""The CLI's recorded transcript: exit code, stdout and stderr of fixed calls.

``tests/data/cli_transcript.json`` holds, for each call, its argv and what
``cli.main`` returned and printed: every catalog algebra under the four Lie
commands in both formats, the three catalog warps at grids 64, 256 and 2048
in both formats, ``tail-ess exp`` at grids 512 and 2048, error paths,
``--help`` and each subcommand's ``--help`` at COLUMNS=80, and the four Lie
commands on a seeded Heisenberg-type ``.lie`` file.  The replay asserts every
byte, so an output change anywhere fails it.

The file is test data.  Regenerate it only when an output is meant to change,
and say in CHANGES.md which calls changed and why.  From the repository root:

    cd tests && PYTHONPATH=../src python -c \\
        "import json, test_transcript as t; \\
        open(t.DATA, 'w').write(json.dumps(t.record(), indent=1) + '\\n')"
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from specsub.cli import main
from specsub.fixtures import LIE_BUILTINS, WARP_BUILTINS, lie_fixture_text
from specsub.lie_core import MetricLieAlgebra

from conftest import heisenberg_type_structure

DATA = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

LIE_COMMANDS = ("analyze", "lambda0", "cheeger", "quotient")
FORMATS = (["--format", "text"], ["--format", "csv"])
LIE_FILE = "ht7"     # HT(4, 2): dimension 7, resolved through $SPECSUB_FIXTURE_DIR


def calls():
    yield ["--help"]
    for command in ("analyze", "lambda0", "cheeger", "quotient", "verify-warped", "tail-ess"):
        yield [command, "--help"]
    for name in LIE_BUILTINS:
        for command in LIE_COMMANDS:
            for fmt in FORMATS:
                yield [command, name, *fmt]
    for name in WARP_BUILTINS:
        for grid in ("64", "256", "2048"):
            for fmt in FORMATS:
                yield ["verify-warped", name, "--grid", grid, *fmt]
    for grid in ("512", "2048"):
        yield ["tail-ess", "exp", "--grid", grid]
    yield ["verify-warped", "const", "--grid", "100"]
    yield ["verify-warped", "const", "--grid", "abc"]
    yield ["verify-warped", "const", "--modes", "-1"]
    yield ["analyze", "const"]
    yield ["analyze", "no_such_fixture"]
    yield ["quotient", "heisenberg3", "--ideal", "4"]
    for command in LIE_COMMANDS:
        for fmt in FORMATS:
            yield [command, LIE_FILE, *fmt]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:          # --help and argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    """Every call's outcome, with the seeded .lie file in a temporary
    fixture directory and argparse wrapping at 80 columns."""
    c = heisenberg_type_structure(4, 2, np.random.default_rng(7))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, LIE_FILE + ".lie").write_text(
            lie_fixture_text(MetricLieAlgebra(c.shape[0], c, np.eye(c.shape[0]))))
        with mock.patch.dict(os.environ, {"COLUMNS": "80", "SPECSUB_FIXTURE_DIR": tmp}):
            return [_outcome(argv) for argv in calls()]


def test_the_cli_replays_its_transcript():
    expected = json.loads(DATA.read_text())
    got = record()
    assert [o["argv"] for o in got] == [o["argv"] for o in expected]
    for new, old in zip(got, expected):
        assert new == old, " ".join(old["argv"])
