"""Guards on the source itself: the package keeps one power-of-two rescaling,
every warped solve names its grid, and every tolerance field is one that the
presets set apart."""

import ast
from dataclasses import fields
from pathlib import Path

from specsub.tolerances import DEFAULT, STRICT, Tolerances

SRC = Path(__file__).resolve().parents[1] / "src" / "specsub"


def test_the_cli_sets_no_floating_point_error_state():
    # a result that does not fit in a double is inf by construction, and the
    # CLI rejects it by value; a suppressed warning would hide a new overflow
    assert "np.errstate" not in (SRC / "cli.py").read_text()


def test_frexp_and_ldexp_live_only_in_the_shared_helper():
    # a private rescaling with its own convention is what _pow2 replaced
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert path.name == "_pow2.py" or not ("frexp" in text or "ldexp" in text), path.name
    calls = {(fn.name, node.attr)
             for fn in ast.walk(ast.parse((SRC / "_pow2.py").read_text()))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert ("exponent", "frexp") in calls and ("times_pow2", "ldexp") in calls


def test_every_warped_solve_names_its_grid_by_keyword():
    # the benchmark's spans read the grid class of a solve from the grid_n
    # keyword; a solve without it reads as 0 calls at n256, n2048 and n16384
    calls = [node for node in ast.walk(ast.parse((SRC / "warped_spectra.py").read_text()))
             if isinstance(node, ast.Call) and "lowest_eigenvalue" in
             (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calls) >= 4
    for call in calls:
        assert "grid_n" in {kw.arg for kw in call.keywords}, f"line {call.lineno}"


def test_every_tolerance_field_is_set_apart_by_the_presets():
    # a value both presets share is a module constant of tolerances.py, and
    # a field with another field's (default, strict) pair is a second name
    pairs = [(getattr(DEFAULT, f.name), getattr(STRICT, f.name)) for f in fields(Tolerances)]
    assert all(d != s for d, s in pairs), pairs
    assert len(set(pairs)) == len(pairs), pairs
