"""Span tracing from outside the program, for the traced benchmark run.

Wrappers are installed around each layer's public functions at the module
attribute where the caller looks the function up, and removed again after
the operation; the library's source is never changed.  Each span records its
name, start, end and parent; spans of one operation share its index.  Layer
counters are taken in the same wrappers, from the wrapped call's arguments
and result.  Everything stays in memory until `write_spans` at the end.

`PQTree.reduce` runs thousands of times per operation, so it is tallied into
its caller's span (total seconds and call count) instead of getting a span
per call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli.main"

# (module, attribute, span name, counter hook or None)
TARGETS = (
    ("semitrans.cli", "parse_graph_pinned", "graphs.parse", "edges"),
    ("semitrans.cli", "split_partition", "graphs.partition", None),
    ("semitrans.cli", "normalize_partition", "graphs.partition", None),
    ("semitrans.cli", "recognize", "recognition.recognize", None),
    ("semitrans.cli", "render_decision", "recognition.render", None),
    ("semitrans.recognition", "decide_labeling", "recognition.decide", None),
    ("semitrans.recognition", "validate_labeling", "recognition.validate", None),
    ("semitrans.recognition", "construct_orientation", "recognition.construct", None),
    ("semitrans.recognition", "check_small_I", "recognition.witness", None),
    ("semitrans.recognition", "intersection_matrix_from_masks", "matrices.intersection", "columns"),
    ("semitrans.recognition", "prune_trivial_columns", "matrices.prune", "kept"),
    ("semitrans.recognition", "has_circular_ones", "matrices.circ1p", None),
    ("semitrans.matrices", "tucker_transform", "matrices.tucker", None),
    ("semitrans.recognition", "is_acyclic", "orient.acyclic", None),
    ("semitrans.recognition", "find_shortcut", "orient.shortcut", "arcs"),
)

# span name -> per-layer metric that receives the span's self time
SELF_METRIC = {
    ROOT_SPAN: "cli.self_s",
    "graphs.parse": "graphs.parse_s",
    "graphs.partition": "graphs.partition_s",
    "recognition.recognize": "recognition.self_s",
    "recognition.decide": "recognition.self_s",
    "recognition.validate": "recognition.validate_s",
    "recognition.construct": "recognition.construct_s",
    "recognition.witness": "recognition.witness_s",
    "recognition.render": "recognition.render_s",
    "matrices.intersection": "matrices.build_s",
    "matrices.prune": "matrices.build_s",
    "matrices.tucker": "matrices.build_s",
    "matrices.circ1p": "matrices.circ1p_self_s",
    "orient.acyclic": "orient.acyclic_s",
    "orient.shortcut": "orient.shortcut_s",
}
REDUCE_METRIC = "pqtree.reduce_s"
DECIDE_METRIC = "recognition.decide_s"   # inclusive: contains matrices and pqtree
COUNTERS = (
    "graphs.edges", "matrices.columns", "matrices.columns_kept", "matrices.columns_distinct",
    "matrices.rows_distinct", "pqtree.reduce_calls", "pqtree.reduce_failed", "orient.arcs",
)
LAYERS = ("cli", "graphs", "matrices", "pqtree", "recognition", "orient")
SELF_TIMES = set(SELF_METRIC.values()) | {REDUCE_METRIC}   # these add up to trace.op_s


def _distinct_rows(columns, m: int) -> int:
    rows = [0] * m
    for j, col in enumerate(columns):
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return len(set(rows))


class Tracer:
    """Spans and counters of traced operations, one operation at a time."""

    def __init__(self):
        self.ops: list[list[list]] = []   # per op: [name, start, end, parent, tallied_s]
        self.counts: list[dict] = []      # per op: counter -> value
        self.labels: list[str] = []       # per op: shape of its input
        self.missing: list[str] = []      # targets and counters that could not be traced
        self._stack: list[int] = []
        self._kept: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        spans = self.ops[-1]
        spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def _close(self, idx: int):
        self.ops[-1][idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, hook: str, args, result):
        counts = self.counts[-1]
        if hook == "edges":
            counts["graphs.edges"] += len(result[0].edges)
        elif hook == "columns":
            counts["matrices.columns"] += result.n
        elif hook == "kept":
            self._kept.append(result)   # distinct counts are taken after the operation
        elif hook == "arcs":
            counts["orient.arcs"] += len(args[0].arcs)

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    self._count(hook, args, result)
                except (AttributeError, TypeError, IndexError):
                    self._note_missing(f"{name} counter")
            return result
        return traced

    def _wrap_reduce(self, fn):
        @functools.wraps(fn)
        def reduce(tree, mask):
            t0 = time.perf_counter()
            ok = fn(tree, mask)
            dt = time.perf_counter() - t0
            self.ops[-1][self._stack[-1]][4] += dt
            counts = self.counts[-1]
            counts[REDUCE_METRIC] += dt
            counts["pqtree.reduce_calls"] += 1
            if not ok:
                counts["pqtree.reduce_failed"] += 1
            return ok
        return reduce

    def _note_missing(self, what: str):
        if what not in self.missing:
            self.missing.append(what)

    @contextmanager
    def _installed(self):
        originals = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self._note_missing(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook))
            pqtree = getattr(importlib.import_module("semitrans.pqtree"), "PQTree", None)
            if pqtree is None or not hasattr(pqtree, "reduce"):
                self._note_missing("semitrans.pqtree.PQTree.reduce")
            else:
                originals.append((pqtree, "reduce", pqtree.reduce))
                pqtree.reduce = self._wrap_reduce(pqtree.reduce)
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @contextmanager
    def operation(self, label: str):
        """Trace one operation; its root span covers the body of the block."""
        self.ops.append([])
        self.counts.append(defaultdict(float))
        self.labels.append(label)
        self._kept = []
        with self._installed():
            root = self._open(ROOT_SPAN)
            try:
                yield
            finally:
                self._close(root)
                self._stack.clear()
        counts = self.counts[-1]
        try:
            for mtx in self._kept:
                counts["matrices.columns_kept"] += mtx.n
                counts["matrices.columns_distinct"] += len(set(mtx.columns))
                counts["matrices.rows_distinct"] += _distinct_rows(mtx.columns, mtx.m)
        except (AttributeError, TypeError):
            self._note_missing("matrices.prune counter")
        self._kept = []

    def last_duration(self) -> float:
        root = self.ops[-1][0]
        return root[2] - root[1]

    # -- results -----------------------------------------------------------

    def _totals(self, label: str | None = None) -> dict[str, float]:
        """Sums over the operations (of one shape) of self times and counters."""
        totals: dict[str, float] = defaultdict(float)
        for spans, counts, op_label in zip(self.ops, self.counts, self.labels):
            if label is not None and op_label != label:
                continue
            inner = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    inner[parent] += end - start
            for (name, start, end, _, tallied), child in zip(spans, inner):
                totals[SELF_METRIC[name]] += end - start - child - tallied
                if name == "recognition.decide":
                    totals[DECIDE_METRIC] += end - start
                if name == ROOT_SPAN:
                    totals["trace.op_s"] += end - start
            for key, value in counts.items():
                totals[key] += value
        return totals

    def _shares(self, totals: dict[str, float]) -> dict[str, float]:
        return {layer: sum(v for k, v in totals.items() if k in SELF_TIMES and k.startswith(layer + "."))
                / totals["trace.op_s"] for layer in LAYERS}

    def shares_by_label(self) -> dict[str, dict[str, float]]:
        """Layer shares of each input shape's operations."""
        return {label: self._shares(self._totals(label)) for label in sorted(set(self.labels))}

    def per_layer(self) -> dict[str, float]:
        """Per-operation means of every layer time and counter, layer shares,
        and ratios with their bases."""
        n = len(self.ops)
        totals = self._totals()
        out = {key: totals[key] / n for key in sorted(SELF_TIMES) + [DECIDE_METRIC, "trace.op_s", *COUNTERS]}
        for layer, share in self._shares(totals).items():
            out[f"{layer}.share"] = share
        out["matrices.kept_frac"] = _ratio(totals["matrices.columns_kept"], totals["matrices.columns"])
        out["matrices.distinct_frac"] = _ratio(totals["matrices.columns_distinct"], totals["matrices.columns_kept"])
        out["pqtree.failed_frac"] = _ratio(totals["pqtree.reduce_failed"], totals["pqtree.reduce_calls"])
        out["trace.ops"] = n
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op, spans in enumerate(self.ops):
                for sid, (name, start, end, parent, tallied) in enumerate(spans):
                    rec = {"op": op, "span": sid, "name": name, "start": start, "end": end,
                           "parent": parent if parent >= 0 else None}
                    if tallied:
                        rec["tallied"] = {"pqtree.reduce": tallied}
                    fh.write(json.dumps(rec) + "\n")


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0
