"""Guards on the source itself: the package keeps one power-of-two rescaling,
every warped solve names its grid, every tolerance field is one that the
presets set apart, the tolerances are the Lie side's alone and travel with
the algebra, the warped verdicts and solves read no absolute tolerance, the
Lie side compares against no unnamed one, no Lie function takes two
Lie objects, a class that only holds values is a NamedTuple, a value
compared by value is a frozen dataclass that validates its fields, the
`.warp` reader leaves those checks to the value types, and an object
compared by identity is a plain class."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import specsub
from specsub.eigensolve import SymmetricForm, lowest_eigenvalue
from specsub.lie_core import Ideal, MetricLieAlgebra
from specsub.tolerances import DEFAULT, STRICT, Tolerances
from specsub.warped_spectra import (drift_bound_lambda0, lambda0_ess_tail, mode_scan,
                                    verify_warped)

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
    pairs = [(getattr(DEFAULT, f), getattr(STRICT, f)) for f in Tolerances._fields]
    assert all(d != s for d, s in pairs), pairs
    assert len(set(pairs)) == len(pairs), pairs


def test_the_warped_side_takes_no_tolerances():
    # every warped solve certifies its own error bound in eps ||M|| of its
    # operator, so the tolerance record holds the Lie cuts alone
    for module in ("eigensolve.py", "warped_spectra.py"):
        imported = set()
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {getattr(node, "module", None) or ""}
                imported |= {alias.name for alias in node.names}
        assert not [name for name in imported if "tolerances" in name], module
    assert list(Tolerances._fields) == ["jacobi_tol", "rank_tol"]
    for function in (lowest_eigenvalue, mode_scan, verify_warped, lambda0_ess_tail,
                     drift_bound_lambda0):
        assert "tols" not in inspect.signature(function).parameters, function.__name__


def _verdict_nodes(function: ast.FunctionDef):
    """Every node of the comparisons in ``function``, and of the right-hand
    sides that the names they read were assigned from there, followed
    transitively."""
    sources = {}
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and node.value is not None:
                        sources.setdefault(name.id, []).append(node.value)
    todo = [node for node in ast.walk(function) if isinstance(node, ast.Compare)]
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
    # fixed tolerance beside it makes the verdict depend on the unit of length.
    # lowest_eigenvalue's certification and dense check, and the drift
    # bound's two hypotheses, are comparisons of these functions too
    for module, name in (("warped_spectra.py", "verify_warped"),
                         ("warped_spectra.py", "lambda0_ess_tail"),
                         ("warped_spectra.py", "drift_bound_lambda0"),
                         ("eigensolve.py", "lowest_eigenvalue")):
        function = _function(module, name)
        nodes = _verdict_nodes(function)
        assert len(nodes) > 20, function.name
        floats = [n.value for n in nodes
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)]
        names = {n.id for n in nodes if isinstance(n, ast.Name)} | \
            {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        # a zero is no tolerance, and no factor of 1 or more is one below eps
        assert all(v == 0.0 or v >= 1.0 for v in floats), (function.name, floats)
        assert not {n for n in names if n.upper().endswith("_TOL") or n == "tols"}, function.name


def test_the_lie_side_reads_its_cuts_from_the_algebra():
    # the preset is a field of the algebra, inherited by its quotients and
    # sub-algebras, so a report cannot mix two presets; the CLI sets it once
    for module in ("lie_core.py", "group_spectra.py"):
        tree = ast.parse((SRC / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert not {a.arg for a in args} & {"tols", "tol", "rank_tol"}, node.name
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "tolerances"
                    or (node.module is None and "tolerances" in {a.name for a in node.names})):
                importers.add(path.name)
    # the package re-exports the presets through its lazy name table
    if "tolerances" in specsub._EXPORTS.values():
        importers.add("__init__.py")
    assert importers == {"lie_core.py", "cli.py", "__init__.py"}, importers


def test_the_lie_side_compares_against_no_float_literal():
    # a cut that no preset changes is a named constant of tolerances.py; the
    # one exception is _rank's two-decade window that flags a marginal cut
    for module in ("lie_core.py", "group_spectra.py"):
        for function in ast.walk(ast.parse((SRC / module).read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            floats = {n.value for n in _verdict_nodes(function)
                      if isinstance(n, ast.Constant) and isinstance(n.value, float)}
            allowed = {0.0, 1e-2, 1e2} if function.name == "_rank" else {0.0}
            assert floats <= allowed, (module, function.name, floats)


def test_each_lie_object_is_passed_once():
    # an ideal carries its algebra and a spectrum report its classification:
    # a function that took two of them could be handed a mismatched pair
    lie_type = re.compile(r"\b(MetricLieAlgebra|Ideal|ClassificationReport)\b")
    seen = 0
    for module in ("lie_core.py", "group_spectra.py"):
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                typed = [a.arg for a in args
                         if a.annotation and lie_type.search(ast.unparse(a.annotation))]
                seen += bool(typed)
                assert len(typed) < 2, (module, node.name, typed)
                assert not {a.arg for a in args} & {"report", "rep"}, (module, node.name)
    assert seen >= 12, seen


RECORDS = ("ValidationReport", "ClassificationReport", "GroupSpectrumReport",
           "QuotientBoundReport", "SpectrumEstimate", "WarpedReport", "TailReport",
           "Tolerances", "RunConfig", "RunResult")


def test_records_are_named_tuples_and_every_dataclass_validates():
    # a class that only holds values is a typing.NamedTuple, which costs the
    # import about a sixth of a dataclass; a dataclass stays only where its
    # __post_init__ checks or normalizes the inputs
    classes = [cls for path in SRC.glob("*.py") if path.stem != "__main__"
               for cls in vars(importlib.import_module(f"specsub.{path.stem}")).values()
               if isinstance(cls, type) and cls.__module__ == f"specsub.{path.stem}"]
    records = {cls.__name__: cls for cls in classes if issubclass(cls, tuple)}
    assert set(RECORDS) <= set(records), records
    for name, record in records.items():
        # a field of either name would shadow the tuple method
        assert not {"count", "index"} & set(record._fields), name
    validating = [cls for cls in classes if dataclasses.is_dataclass(cls)]
    assert {cls.__name__ for cls in validating} == {
        "CircleBase", "IntervalBase", "WarpProfile", "WarpedProductSpec"}
    for cls in validating:
        # a dataclass is a value: it compares by its fields
        assert hasattr(cls, "__post_init__") and cls.__dataclass_params__.eq, cls.__name__


def test_the_warp_reader_leaves_kinds_and_boundaries_to_the_value_types():
    # WarpProfile knows the warp kinds and IntervalBase the boundary names; a
    # copy of either list in the reader would be a second check to keep in step
    strings = [node.value for node in ast.walk(_function("fixtures.py", "_parse_warp"))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    named = [s for s in strings
             if re.search(r"\b(const|exp|sinshift|dirichlet|neumann)\b", s)]
    assert strings and not named, named


def test_identity_objects_are_plain_classes():
    # an algebra, an ideal and a symmetric form compare by identity; as
    # dataclasses their __post_init__ rewrote every field through
    # object.__setattr__, and MetricLieAlgebra's preset went through replace
    for cls in (MetricLieAlgebra, Ideal, SymmetricForm):
        assert not dataclasses.is_dataclass(cls), cls.__name__
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__
    for module in ("lie_core.py", "eigensolve.py", "cli.py"):
        text = (SRC / module).read_text()
        assert "object.__setattr__" not in text, module
        imported = {getattr(node, "module", None) or alias.name
                    for node in ast.walk(ast.parse(text))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "dataclasses" not in imported, module
