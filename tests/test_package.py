import ast
import importlib
from pathlib import Path
from types import ModuleType

import semitrans
from semitrans.pqtree import PQTree

SPANS = Path(__file__).resolve().parent.parent / "recognize_bench" / "spans.py"


def test_all_exports_no_modules():
    assert semitrans.__all__
    for name in semitrans.__all__:
        assert not isinstance(getattr(semitrans, name), ModuleType), name


def _trace_targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in the benchmark's span tracer")


def test_benchmark_trace_hooks_resolve():
    # the traced benchmark wraps these attributes; a missing one silently
    # drops that layer's per-layer data
    targets = _trace_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"
    assert callable(getattr(PQTree, "reduce", None))
