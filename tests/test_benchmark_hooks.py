"""The benchmark's traced run wraps module attributes of bbmlab by name.

perfbench/spans.py lists them in HOOKS, each with an optional count function
that reads the call's bound arguments by parameter name.  Renaming or
deleting an attribute or one of those parameters breaks only the traced
benchmark, so this checks that every listed attribute resolves and that
every argument a count function reads is a parameter of its function.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans").HOOKS


def _arguments_read(counts) -> set:
    """The names counts reads from its one argument as a["name"], from its source."""
    tree = ast.parse(Path(inspect.getsourcefile(counts)).read_text())
    (node,) = (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda))
               and n.lineno == counts.__code__.co_firstlineno)
    bound = node.args.args[0].arg
    return {n.slice.value for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == bound and isinstance(n.slice, ast.Constant)}


def test_every_benchmark_hook_resolves(monkeypatch):
    hooks = _hooks(monkeypatch)
    assert hooks
    for module, attribute, *_ in hooks:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)


def test_every_argument_a_hook_counts_is_a_parameter(monkeypatch):
    every_read = set()
    for module, attribute, _, counts in _hooks(monkeypatch):
        if counts is None:
            continue
        read = _arguments_read(counts)
        params = inspect.signature(getattr(importlib.import_module(module), attribute)).parameters
        assert read <= set(params), (module, attribute, sorted(read - set(params)))
        every_read |= read
    # evolve_W's count reads startup_steps and pde.evolve's reads cfg
    assert {"startup_steps", "cfg"} <= every_read
