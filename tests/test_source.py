"""Guards on the source itself: the package keeps one power-of-two rescaling."""

import ast
from pathlib import Path

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
