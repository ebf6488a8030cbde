"""The benchmark's traced run wraps module attributes of bbmlab by name.

perfbench/spans.py lists them in HOOKS; renaming or deleting one breaks only
the traced benchmark, so this checks that every listed attribute resolves.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.HOOKS
    for module, attribute, *_ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)
