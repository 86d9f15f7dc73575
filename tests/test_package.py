import ast
import copy
import importlib
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import semitrans
from semitrans import (
    BinaryMatrix,
    Decision,
    GenSpec,
    Graph,
    Labeling,
    LabelingReport,
    Orientation,
    Refutation,
    Shape,
    ShortcutWitness,
    SplitPartition,
    TwinReduction,
)
from semitrans.pqtree import PQTree
from semitrans.recognition import Violation

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "recognize_bench" / "spans.py"
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib")


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


def _references(tree: ast.AST, outside=frozenset()):
    """Every name a module's code uses: names, attributes, imported names and
    the words of string constants (such as code run in a child interpreter),
    leaving out docstrings and uses inside the definition of the name itself."""
    if isinstance(tree, ast.Expr) and isinstance(tree.value, ast.Constant):
        return
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        outside = outside | {tree.name}
    if isinstance(tree, ast.Name):
        names = [tree.id]
    elif isinstance(tree, ast.Attribute):
        names = [tree.attr]
    elif isinstance(tree, ast.alias):
        names = [tree.name]
    elif isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        names = re.findall(r"[A-Za-z_]\w*", tree.value)
    else:
        names = []
    yield from (name for name in names if name not in outside)
    for child in ast.iter_child_nodes(tree):
        yield from _references(child, outside)


def test_every_export_has_a_library_caller():
    # an export that only tests use belongs in the tests
    files = [f for f in (ROOT / "src" / "semitrans").glob("*.py") if f.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "recognize_bench").glob("*.py")]
    used = set()
    for f in files:
        used.update(_references(ast.parse(f.read_text())))
    assert sorted(set(semitrans.__all__) - used) == []


def test_cli_import_loads_no_heavy_modules():
    # -I -S: no user environment and no site, whose .pth files may import
    # typing or pathlib before semitrans does
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import semitrans.cli; "
            f"print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == []


def _records():
    """Each record type built twice from equal fields, with one field name."""
    def build():
        g = Graph(3, [(1, 2), (2, 3)])
        o = Orientation(g, frozenset({(1, 2), (3, 2)}))
        labeling = Labeling((1, 2))
        return [
            (g, "n"), (o, "out"), (SplitPartition(g, (1, 2), (3,)), "clique"),
            (TwinReduction(g, (1, 2, 3), ()), "kept"), (BinaryMatrix(2, 1, (0b11,)), "columns"),
            (ShortcutWitness((1, 2, 3), (1, 3), (1, 3)), "path"), (labeling, "order"),
            (Shape("interval", 1, 2), "kind"), (Violation(3, (4, 5)), "vertices"),
            (LabelingReport(False, (Violation(1, (4,)),)), "ok"), (Refutation("case-a", (1, 2)), "kind"),
            (Decision(True, labeling=labeling, orientation=o, verified=True), "verified"),
            (GenSpec(k=4, t=3, seed=2, mode="planted-yes"), "mode"),
        ]
    return zip(build(), build())


def test_records_compare_and_hash_by_their_fields():
    for (a, name), (b, _) in _records():
        assert a == b and hash(a) == hash(b) and a is not b, a
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a and copy.deepcopy(a) == a, a


def test_record_reprs_name_every_field():
    # _certify and InternalConsistencyError messages print these
    g = Graph(3, [(1, 2)])
    g.edges  # the cached edge set is not a field
    assert repr(g) == "Graph(n=3, masks=(0, 2, 1, 0))"
    assert repr(Shape("interval", 1, 2)) == "Shape(kind='interval', a=1, b=2)"
    assert repr(Shape("empty")) == "Shape(kind='empty', a=0, b=0)"
    assert repr(Violation(3, (4, 5))) == "Violation(condition=3, vertices=(4, 5))"
    assert repr(ShortcutWitness((1, 2, 3), (1, 3), (2, 3))) == \
        "ShortcutWitness(path=(1, 2, 3), closing=(1, 3), missing=(2, 3))"


def test_record_validation_messages():
    g = Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    partitions = (
        (((1, 2), (3,)), "clique and independent set must partition the vertices"),
        (((1, 2, 4), (3,)), "clique vertices 1, 4 are not adjacent"),
        (((1, 2), (3, 4)), "independent vertices 3, 4 are adjacent"),
        (((1, 2, 3), (4,)), None),
        (((2, 3), (1, 4)), "independent vertex 1 is adjacent to all of the clique"),
    )
    for (clique, independent), message in partitions:
        if message is None:
            assert SplitPartition(g, clique, independent).k == len(clique)
            continue
        with pytest.raises(ValueError) as exc:
            SplitPartition(g, clique, independent)
        assert str(exc.value) == message, (clique, independent)
    with pytest.raises(ValueError) as exc:
        SplitPartition(Graph(2, []), (), (1, 2))
    assert str(exc.value) == "independent vertex 1 with empty clique violates maximality"
    specs = (
        (dict(k=-1, t=2), "k and t must be nonnegative"),
        (dict(k=2, t=-1), "k and t must be nonnegative"),
        (dict(k=2, t=2, density=1.5), "density must be a probability"),
        (dict(k=2, t=2, mode="planted"), "unknown mode 'planted'"),
        (dict(k=6, t=4, mode="exhaustive"), "exhaustive mode is bounded by k <= 5, t <= 4"),
        (dict(k=3, t=3, mode="planted-no"), "planted-no needs k >= 4 and t >= 3"),
    )
    for fields, message in specs:
        with pytest.raises(ValueError) as exc:
            GenSpec(**fields)
        assert str(exc.value) == message, fields
    assert GenSpec(2, 2) == GenSpec(k=2, t=2, density=0.5, seed=0, mode="random")
