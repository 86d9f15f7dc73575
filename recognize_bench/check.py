"""Checker for the plain output of `semitrans recognize`.

It re-reads the graph file itself and re-derives every condition from the
paper's definitions, so it shares no code with the library it checks.  Each
check returns None when the output is correct, or a one-line reason.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional


class Graph:
    """Adjacency sets of a graph file, plus its pinned clique if any."""

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        n, m = (int(x) for x in lines[0].split())
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n + 1)]
        self.pinned: Optional[tuple[int, ...]] = None
        edges = 0
        for ln in lines[1:]:
            if ln.startswith("C:"):
                self.pinned = tuple(int(x) for x in ln[2:].split())
                continue
            u, v = (int(x) for x in ln.split())
            self.adj[u].add(v)
            self.adj[v].add(u)
            edges += 1
        if edges != m:
            raise ValueError(f"graph file promises {m} edges, holds {edges}")
        self.m = m


def _shape(k: int, positions: list[int]):
    """("empty",), ("interval", lo, hi), ("wrapped", prefix_end, suffix_start) or None."""
    if not positions:
        return ("empty",)
    positions = sorted(positions)
    if positions[-1] - positions[0] + 1 == len(positions):
        return ("interval", positions[0], positions[-1])
    # otherwise exactly one gap, with position 1 before it and k after it
    gaps = [i for i in range(1, len(positions)) if positions[i] != positions[i - 1] + 1]
    if len(gaps) != 1 or positions[0] != 1 or positions[-1] != k:
        return None
    return ("wrapped", positions[gaps[0] - 1], positions[gaps[0]])


def check_labeling(g: Graph, order: list[int]) -> Optional[str]:
    """The labeled vertices form a maximal clique whose complement is
    independent, and the paper's three labeling conditions hold."""
    clique = set(order)
    if len(clique) != len(order):
        return "labeling repeats a vertex"
    if not all(1 <= u <= g.n for u in clique):
        return "labeling names a vertex outside the graph"
    for u in order:
        if not clique - {u} <= g.adj[u]:
            return f"labeled vertex {u} is not adjacent to every other labeled vertex"
    rest = [v for v in range(1, g.n + 1) if v not in clique]
    for v in rest:
        if g.adj[v] - clique:
            return f"unlabeled vertex {v} has an unlabeled neighbour"
        if clique and clique <= g.adj[v]:
            return f"unlabeled vertex {v} sees the whole clique (clique not maximal)"
    k = len(order)
    pos = {u: i + 1 for i, u in enumerate(order)}
    shapes = {}
    for v in rest:
        s = _shape(k, [pos[u] for u in g.adj[v]])
        if s is None:
            return f"condition 1: N({v}) is neither an interval nor a prefix plus a suffix"
        if s[0] != "empty":
            shapes[v] = s
    wrapped = [(v, s) for v, s in shapes.items() if s[0] == "wrapped"]
    intervals = [(v, s) for v, s in shapes.items() if s[0] == "interval"]
    for w, (_, a, b) in wrapped:
        for v, (_, lo, hi) in intervals:
            if lo <= a and hi >= b:
                return f"condition 2: interval N({v}) covers both ends of the gap of N({w})"
    for (w1, (_, a1, b1)), (w2, (_, a2, b2)) in combinations(wrapped, 2):
        if not (a1 < b2 and a2 < b1):
            return f"condition 3: prefix of one of N({w1}), N({w2}) reaches the other's suffix"
    return None


def expected_orientation(g: Graph, order: list[int]) -> set[tuple[int, int]]:
    """The orientation the paper constructs from a valid labeling: clique arcs
    by increasing position, a wrapped vertex receives from its prefix and sends
    to its suffix, an interval vertex is a source."""
    pos = {u: i + 1 for i, u in enumerate(order)}
    arcs = {(u, v) if pos[u] < pos[v] else (v, u) for u, v in combinations(order, 2)}
    k = len(order)
    for v in range(1, g.n + 1):
        if v in pos or not g.adj[v]:
            continue
        s = _shape(k, [pos[u] for u in g.adj[v]])
        for u in g.adj[v]:
            arcs.add((u, v) if s[0] == "wrapped" and pos[u] <= s[1] else (v, u))
    return arcs


_CASE_SIZES = {"case-a": [0, 2, 2, 2], "case-b": [2, 2, 2, 3], "case-c": [1, 1, 1, 3]}


def check_witness(g: Graph, kind: str, vertices: list[int]) -> Optional[str]:
    """The seven vertices induce the named forbidden configuration: an
    independent triple and a 4-clique whose traces on the triple are four
    distinct sets of the sizes the case names."""
    if kind not in _CASE_SIZES:
        return f"unknown witness kind {kind!r}"
    if len(set(vertices)) != 7 or not all(1 <= v <= g.n for v in vertices):
        return f"{kind} witness needs seven distinct vertices, got {vertices}"
    for triple in combinations(vertices, 3):
        if any(b in g.adj[a] for a, b in combinations(triple, 2)):
            continue
        quad = [u for u in vertices if u not in triple]
        if any(b not in g.adj[a] for a, b in combinations(quad, 2)):
            continue
        traces = {frozenset(g.adj[u] & set(triple)) for u in quad}
        if len(traces) == 4 and sorted(len(tr) for tr in traces) == _CASE_SIZES[kind]:
            return None
    return f"vertices {vertices} do not induce {kind}"


def check_output(graph_text: str, out: str, rc: int, semi_transitive: bool, oriented: bool) -> Optional[str]:
    """Check one `semitrans recognize` run: exit code, verdict and certificate."""
    g = Graph(graph_text)
    lines = out.splitlines()
    if not lines:
        return f"no output (exit code {rc})"
    verdict = {"SEMI-TRANSITIVE": True, "NOT-SEMI-TRANSITIVE": False}.get(lines[0])
    if verdict is None:
        return f"unknown verdict line {lines[0]!r}"
    if rc != (0 if verdict else 1):
        return f"exit code {rc} does not match verdict {lines[0]}"
    if verdict != semi_transitive:
        return f"verdict {lines[0]} contradicts the planted answer"
    if not verdict:
        if len(lines) != 2 or not lines[1].startswith("witness: "):
            return "NO answer without a single witness line"
        kind, *rest = lines[1][len("witness: "):].split()
        if kind == "circ1p-fail":
            t = None if g.pinned is None else g.n - len(g.pinned)
            if rest or (t is not None and t <= 3):
                return "circ1p-fail witness where a seven-vertex witness is due"
            return None
        return check_witness(g, kind, [int(x) for x in rest])
    if len(lines) < 2 or not lines[1].startswith("labeling:"):
        return "YES answer without a labeling"
    order = []
    for i, tok in enumerate(lines[1][len("labeling:"):].split(), start=1):
        u, _, p = tok.partition(":")
        if int(p) != i:
            return f"labeling position {p} out of order"
        order.append(int(u))
    bad = check_labeling(g, order)
    if bad is not None:
        return bad
    if not oriented:
        return None if len(lines) == 2 else "orientation printed with --no-verify"
    if len(lines) < 3 or lines[2] != "orientation:":
        return "verified YES answer without an orientation"
    arcs = []
    for ln in lines[3:]:
        u, sep, v = ln.partition(" > ")
        if not sep:
            return f"malformed arc line {ln!r}"
        arcs.append((int(u), int(v)))
    if len(arcs) != g.m or len(set(arcs)) != g.m:
        return f"orientation has {len(arcs)} arcs ({len(set(arcs))} distinct) for {g.m} edges"
    if set(arcs) != expected_orientation(g, order):
        return "orientation differs from the construction from the labeling"
    return None
