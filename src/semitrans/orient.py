"""Orientations of undirected graphs and semi-transitivity checking.

An orientation is semi-transitive when it is acyclic and no directed path
u1 -> ... -> ut with the closing edge u1 -> ut present misses a transitive
edge ui -> uj.  Such a violating configuration is a shortcut.

The detector uses the pair criterion: with reach-or-equal written as ~>, a
shortcut exists iff there are an edge (x, y) and a non-adjacent ordered pair
(a, b) with x ~> a ~> b ~> y.  Splicing explicit x~>a, a~>b, b~>y paths gives
the witness path (walks in a DAG have no repeated vertices across segments,
since a repeat would close a cycle), and conversely any violating path yields
such a pair, so the criterion is exact.

One Kahn pass gives the only vertex order the checks use: its existence
proves acyclicity, and the reach masks are swept over it from its end.
Existence is tested per vertex a, grouping the pairs by a: with Y(a) the
heads of all arcs whose tail reaches a, a shortcut exists iff some b in
reach(a), b != a and not adjacent to a, reaches a vertex of Y(a).  The Y sets
cost O(|E|) mask ORs over the same order.  The ordered scan over (arc, a)
pairs runs only when a shortcut exists, to build the smallest witness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, bits
from .matrices import SizeGuardError, data_lines


@dataclass(frozen=True)
class Orientation:
    """A direction (tail, head) for every edge of the base graph.

    Validation builds one out-mask per vertex (bit v-1 set for every arc
    (u, v)): every arc must be a bit of the graph's adjacency masks, no edge
    may be oriented both ways, and there must be one arc per edge.
    """

    graph: Graph
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        n, adj = self.graph.n, self.graph.masks
        out = [0] * (n + 1)
        for u, v in self.arcs:
            if not (1 <= u <= n and 1 <= v and adj[u] >> (v - 1) & 1):
                raise ValueError(f"arc ({u}, {v}) is not an edge of the base graph")
            if out[v] >> (u - 1) & 1:
                raise ValueError(f"edge {(u, v) if u < v else (v, u)} oriented twice")
            out[u] |= 1 << (v - 1)
        if 2 * len(self.arcs) != sum(m.bit_count() for m in adj):
            raise ValueError("some edges are missing a direction")
        object.__setattr__(self, "_out_masks", out)

    def out_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Sorted out-neighbors of every vertex; cached and shared, do not mutate."""
        cached = self.__dict__.get("_out_neighbors")
        if cached is None:
            out = self.__dict__["_out_masks"]
            cached = {v: tuple(bits(out[v])) for v in self.graph.vertices()}
            object.__setattr__(self, "_out_neighbors", cached)
        return cached

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs


@dataclass(frozen=True)
class ShortcutWitness:
    """A violating path, its closing edge, and one missing transitive edge."""

    path: tuple[int, ...]
    closing: tuple[int, int]
    missing: tuple[int, int]


def orient_by_order(g: Graph, order: Sequence[int]) -> Orientation:
    """Direct every edge from the earlier to the later vertex of a linear order."""
    if sorted(order) != list(g.vertices()):
        raise ValueError("order is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    return Orientation(g, frozenset((u, v) for u in order for v in bits(g.masks[u]) if pos[u] < pos[v]))


def topological_order(o: Orientation) -> Optional[list[int]]:
    """Kahn topological order, smallest ready vertex first, or None if there
    is a directed cycle."""
    out = o.out_neighbors()
    indeg = [0] * (o.graph.n + 1)
    for heads in out.values():
        for w in heads:
            indeg[w] += 1
    queue = [v for v in o.graph.vertices() if indeg[v] == 0]
    heapq.heapify(queue)
    order = []
    while queue:
        v = heapq.heappop(queue)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(queue, w)
    return order if len(order) == o.graph.n else None


def is_acyclic(o: Orientation) -> bool:
    return topological_order(o) is not None


def _reach_masks(o: Orientation, order: Sequence[int]) -> list[int]:
    """reach[v] = bitmask of vertices reachable from v, including v itself,
    swept over a topological order from its end."""
    out = o.out_neighbors()
    reach = [0] * (o.graph.n + 1)
    for v in reversed(order):
        mask = 1 << (v - 1)
        for w in out[v]:
            mask |= reach[w]
        reach[v] = mask
    return reach


def _shortest_path(o: Orientation, src: int, dst: int) -> list[int]:
    if src == dst:
        return [src]
    out = o.out_neighbors()
    parent = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in out[v]:
                if w not in parent:
                    parent[w] = v
                    if w == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    raise AssertionError(f"no directed path {src} -> {dst}; the reach masks are wrong, this is a bug")


def _has_shortcut(o: Orientation, order: Sequence[int], reach: list[int]) -> bool:
    """Per-vertex pair criterion: some a, and some non-adjacent b != a that a
    reaches, with b reaching the head of an arc whose tail reaches a.  order
    is a topological order, so every tail reaching a is visited before a."""
    out = o.out_neighbors()
    adj = o.graph.masks
    heads = [0] * (o.graph.n + 1)  # heads of arcs whose tail strictly reaches v
    for a in order:
        bit = 1 << (a - 1)
        ys = heads[a] | (adj[a] & reach[a])
        for w in out[a]:
            heads[w] |= ys
        if any(reach[b] & ys for b in bits(reach[a] & ~adj[a] & ~bit)):
            return True
    return False


def find_shortcut(o: Orientation) -> Optional[ShortcutWitness]:
    """Smallest-witness shortcut of an acyclic orientation, or None.

    Deterministic: arcs are scanned in sorted order, then pair endpoints in
    ascending order.  Raises ValueError on a cyclic input, and on nothing
    else: an internal inconsistency raises AssertionError.
    """
    n = o.graph.n
    order = topological_order(o)
    if order is None:
        raise ValueError("orientation contains a directed cycle")
    reach = _reach_masks(o, order)
    if not _has_shortcut(o, order, reach):
        return None
    adj = o.graph.masks
    co_reach = [0] * (n + 1)
    for v in o.graph.vertices():
        bit = 1 << (v - 1)
        for u in o.graph.vertices():
            if reach[u] & bit:
                co_reach[v] |= 1 << (u - 1)
    universe = (1 << n) - 1
    for x, y in sorted(o.arcs):
        for a in bits(reach[x]):
            bs = reach[a] & co_reach[y] & ~adj[a] & ~(1 << (a - 1)) & universe
            if bs:
                b = next(bits(bs))
                seg1 = _shortest_path(o, x, a)
                seg2 = _shortest_path(o, a, b)
                seg3 = _shortest_path(o, b, y)
                path = seg1 + seg2[1:] + seg3[1:]
                return ShortcutWitness(tuple(path), (x, y), (a, b))
    raise AssertionError("per-vertex test found a shortcut the ordered scan missed; this is a bug")


def is_semi_transitive_orientation(o: Orientation) -> bool:
    order = topological_order(o)
    return order is not None and not _has_shortcut(o, order, _reach_masks(o, order))


def reverse_orientation(o: Orientation) -> Orientation:
    return Orientation(o.graph, frozenset((v, u) for u, v in o.arcs))


def _search_semi_transitive_order(g: Graph) -> Optional[list[int]]:
    """Lexicographically first vertex order whose orientation is shortcut-free.

    Prefix-pruned DFS with three cuts, none of which can skip the first valid
    permutation: a prefix whose induced orientation already contains a
    shortcut cannot extend to a shortcut-free orientation (induced
    sub-orientations of a shortcut-free orientation are shortcut-free); only
    the lexicographically least topological sort of each orientation is
    explored (the first valid permutation is necessarily its orientation's
    least topological sort); and prefixes whose every completion must create
    a shortcut are rejected by a one-step lookahead.
    """
    n = g.n
    if n == 0:
        return []
    adj = g.masks
    order: list[int] = []
    reach = [0] * (n + 1)
    co_reach = [0] * (n + 1)
    placed = 0
    universe = (1 << n) - 1

    def canonical(v: int) -> bool:
        # v may be appended only if every placed vertex after v's last placed
        # neighbor is smaller than v; otherwise the same orientation has a
        # lexicographically smaller topological sort already explored
        av = adj[v]
        for u in reversed(order):
            if av & (1 << (u - 1)):
                return True
            if u > v:
                return False
        return True

    def extend(v: int) -> bool:
        """Place v last; reject iff the prefix can no longer complete validly."""
        nonlocal placed
        bit = 1 << (v - 1)
        in_mask = adj[v] & placed
        gained = bit  # vertices that now reach v (v itself included)
        for u in order:
            if reach[u] & in_mask:
                reach[u] |= bit
                gained |= 1 << (u - 1)
        reach[v] = bit
        co_reach[v] = gained
        placed |= bit
        order.append(v)
        if not in_mask:
            return True
        # exact check: any new shortcut uses v as the closing-arc head: an arc
        # (x, v) and a non-adjacent ordered pair (a, b) with x ~> a ~> b ~> v
        m = 0
        for x in bits(in_mask):
            m |= reach[x]
        for a in bits(m):
            if reach[a] & gained & ~adj[a] & ~(1 << (a - 1)):
                return False
        # lookahead on the new pairs (a, v): an unplaced y adjacent to v and to
        # any placed x reaching a will close an unavoidable shortcut once
        # placed (x -> y arises by placement order, v -> y by adjacency)
        future = adj[v] & ~placed & universe
        if future:
            for a in bits(gained & ~adj[v] & ~bit):
                xs = co_reach[a]
                if any(adj[y] & xs for y in bits(future)):
                    return False
        return True

    def retract(v: int):
        nonlocal placed
        bit = 1 << (v - 1)
        order.pop()
        placed &= ~bit
        for u in order:
            reach[u] &= ~bit
        reach[v] = 0
        co_reach[v] = 0

    def dfs() -> bool:
        if len(order) == n:
            return True
        for v in range(1, n + 1):
            if placed & (1 << (v - 1)):
                continue
            if not canonical(v):
                continue
            if extend(v):
                if dfs():
                    return True
            retract(v)
        return False

    return order if dfs() else None


def oracle_semi_transitive(
    g: Graph, max_vertices: int = 9, reduce_twins: bool = True
) -> Optional[Orientation]:
    """Exhaustive oracle: a semi-transitive orientation of g, or None.

    Searches vertex orders (every acyclic orientation arises from one), so
    absence is a proof that g is not semi-transitive.  With reduce_twins on,
    twin vertices (N(a)\\{b} == N(b)\\{a}) are removed first and the reduced
    orientation is extended back by giving each removed twin the arcs of its
    keeper; semi-transitivity is preserved both ways, and the extended result
    is re-verified before being returned.  With reduce_twins off the result is
    exactly orient_by_order of the lexicographically first valid permutation.
    """
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"n={n} exceeds the oracle guard {max_vertices}")
    if not reduce_twins:
        found = _search_semi_transitive_order(g)
        return orient_by_order(g, found) if found is not None else None

    from .graphs import twin_reduce  # local import: graphs does not need orient

    reduction = twin_reduce(g)
    found = _search_semi_transitive_order(reduction.graph)
    if found is None:
        return None
    back = {new: old for new, old in enumerate(reduction.kept, start=1)}
    arcs = {(back[u], back[v]) for u, v in orient_by_order(reduction.graph, found).arcs}
    direction: dict[int, dict[int, bool]] = {}
    for u, v in arcs:
        direction.setdefault(u, {})[v] = True
        direction.setdefault(v, {})[u] = False
    for keeper, removed in reversed(reduction.removals):
        dirs = dict(direction.get(keeper, {}))
        for x, outward in dirs.items():
            if x == removed:
                continue
            if not g.has_edge(removed, x):
                continue
            arcs.add((removed, x) if outward else (x, removed))
            direction.setdefault(removed, {})[x] = outward
            direction.setdefault(x, {})[removed] = not outward
        if g.has_edge(keeper, removed):
            arcs.add((keeper, removed))
            direction.setdefault(keeper, {})[removed] = True
            direction.setdefault(removed, {})[keeper] = False
    out = Orientation(g, frozenset(arcs))
    if not is_semi_transitive_orientation(out):
        raise AssertionError("twin extension broke semi-transitivity; this is a bug")
    return out


def parse_orientation(text: str) -> Orientation:
    """Parse "n m" followed by m arc lines "u > v"."""
    lines = data_lines(text)
    if not lines:
        raise ValueError("line 1: empty input")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"line {head_no}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {head_no}: non-integer header") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} arcs, found {len(lines) - 1}")
    arcs = set()
    masks = [0] * (n + 1)
    for line_no, ln in lines[1:]:
        toks = ln.replace(">", " > ").split()
        if len(toks) != 3 or toks[1] != ">":
            raise ValueError(f"line {line_no}: expected 'u > v'")
        try:
            u, v = int(toks[0]), int(toks[2])
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer vertex id") from None
        if u == v:
            raise ValueError(f"line {line_no}: self-loop at {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {line_no}: vertex out of range 1..{n}")
        if masks[u] >> (v - 1) & 1:
            raise ValueError(f"line {line_no}: edge {(min(u, v), max(u, v))} oriented twice")
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
        arcs.add((u, v))
    if n < 0:  # only reachable with m == 0: any arc line fails the range check
        raise ValueError("vertex count must be nonnegative")
    return Orientation(Graph._from_masks(n, tuple(masks)), frozenset(arcs))


def format_orientation(o: Orientation) -> str:
    lines = [f"{o.graph.n} {len(o.arcs)}"]
    lines.extend(f"{u} > {v}" for u, v in sorted(o.arcs))
    return "\n".join(lines) + "\n"
