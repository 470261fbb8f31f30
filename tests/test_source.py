"""Guards on the source itself: the package keeps one power-of-two rescaling,
every warped solve names its grid, every tolerance field is one that the
presets set apart, and the warped verdicts read no absolute tolerance."""

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


def _verdict_nodes(function: ast.FunctionDef, within: ast.AST):
    """Every node of the comparisons in ``within``, and of the right-hand
    sides that the names they read were assigned from in ``function``,
    followed transitively."""
    sources = {}
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and node.value is not None:
                        sources.setdefault(name.id, []).append(node.value)
    todo = [node for node in ast.walk(within) if isinstance(node, ast.Compare)]
    seen, nodes = set(), []
    while todo:
        for node in ast.walk(todo.pop()):
            nodes.append(node)
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                todo.extend(sources.get(node.id, ()))
    return nodes


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_warped_verdicts_read_no_absolute_tolerance():
    # each solve certifies its own error bound in the units of its value; a
    # fixed tolerance beside it makes the verdict depend on the unit of length
    lowest = _function("eigensolve.py", "lowest_eigenvalue")
    dense_check = next(node for node in ast.walk(lowest) if isinstance(node, ast.If)
                       and "DENSE_LIMIT" in ast.unparse(node.test))
    for function, within in ((_function("warped_spectra.py", "verify_warped"), None),
                             (_function("warped_spectra.py", "lambda0_ess_tail"), None),
                             (lowest, dense_check)):
        nodes = _verdict_nodes(function, within or function)
        assert len(nodes) > 20, function.name
        floats = [n.value for n in nodes
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)]
        names = {n.id for n in nodes if isinstance(n, ast.Name)} | \
            {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        # a zero is no tolerance, and no factor of 1 or more is one below eps
        assert all(v == 0.0 or v >= 1.0 for v in floats), (function.name, floats)
        assert not {n for n in names if n.endswith("_TOL") or n == "ineq_tol"}, function.name
