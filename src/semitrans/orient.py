"""Orientations of undirected graphs and semi-transitivity checking.

An orientation is semi-transitive when it is acyclic and no directed path
u1 -> ... -> ut with the closing edge u1 -> ut present misses a transitive
edge ui -> uj.  Such a violating configuration is a shortcut.

An orientation is one out-mask per vertex (bit w-1 set for every arc (v, w));
the arc set is derived on request.  The detector uses the pair criterion:
with reach-or-equal written as ~>, a shortcut exists iff there are an edge
(x, y) and a non-adjacent ordered pair (a, b) with x ~> a ~> b ~> y.
Splicing explicit x~>a, a~>b, b~>y paths gives the witness path (walks in a
DAG have no repeated vertices across segments, since a repeat would close a
cycle), and conversely any violating path yields such a pair, so the
criterion is exact.

The criterion is evaluated over the out-masks relabelled by position in a
topological order, so that every arc points to a higher position.  An
orientation built from a labeling follows a vertex order and comes with it,
its windows checked against the out-masks by O(n) mask tests; any other
orientation gets one from a depth-first pass.
One sweep from the end of the order computes, for each vertex x, reach(x)
(x included) and S(x): the union, over every a in reach(x), of the reach of
B(a), the vertices a reaches that are neither a nor adjacent to it.  x
closes a shortcut iff an out-arc (x, y) ends in S(x), since then
x ~> a ~> b ~> y with b in B(a).  Each union over a set of vertices takes
its lowest uncovered member, ORs in its reach and drops what that covers
(the reach-and-skip rule of Goralcikova and Koubek), so the members taken
are pairwise incomparable: a union costs at most w mask ORs, w the
orientation's width, and the sweep O(n * w).  The smallest witness is read
off the sweep's masks only when a shortcut exists.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from .graphs import Graph, _pairs_file, _read_pairs, bits, twin_reduce
from .matrices import GraphFormatError, SizeGuardError, read_header


class Orientation(namedtuple("Orientation", "graph out")):
    """A direction (tail, head) for every edge of the base graph.

    out[v] has bit w-1 set for every arc (v, w), and out[0] is 0.  Equality
    and hashing use (graph, out); the arc set and the topological order are
    derived on demand and cached in the instance dict.  Built from arcs,
    every arc must be a bit of the graph's adjacency masks, no edge may be
    oriented both ways, and there must be one arc per edge.
    """

    def __new__(cls, graph: Graph, arcs: frozenset[tuple[int, int]]):
        n, adj = graph.n, graph.masks
        out = [0] * (n + 1)
        for u, v in arcs:
            if not (1 <= u <= n and 1 <= v and adj[u] >> (v - 1) & 1):
                raise ValueError(f"arc ({u}, {v}) is not an edge of the base graph")
            if out[v] >> (u - 1) & 1:
                raise ValueError(f"edge {(u, v) if u < v else (v, u)} oriented twice")
            out[u] |= 1 << (v - 1)
        if 2 * sum(m.bit_count() for m in out) != sum(m.bit_count() for m in adj):
            raise ValueError("some edges are missing a direction")
        return tuple.__new__(cls, (graph, tuple(out)))

    @classmethod
    def _from_masks(cls, graph: Graph, out: tuple[int, ...]) -> Orientation:
        """Wrap out-masks the caller has already validated against graph."""
        return tuple.__new__(cls, (graph, out))

    def __reduce__(self):
        return self._from_masks, tuple(self)

    @classmethod
    def _from_windows(cls, graph: Graph, order: Sequence[int], windows: Sequence[tuple[int, int]],
                      clique: int) -> Orientation:
        """orient_by_order(graph, order), with its out-masks relabelled by
        position in the order read off windows: order[j] has an arc to every
        vertex of order[lo:hi], (lo, hi) = windows[j], that lies in the vertex
        mask clique, or to all of them if order[j] lies in it.

        Acyclicity and one arc per edge hold by construction; each window is
        checked against its vertex's out-mask, in O(n) mask operations in all,
        raising ValueError on a mismatch.
        """
        o = orient_by_order(graph, order)
        before = [0]  # before[j]: the vertices order[:j]
        inner = 0     # positions of clique vertices in the order
        for j, v in enumerate(order):
            before.append(before[-1] | 1 << (v - 1))
            if clique >> (v - 1) & 1:
                inner |= 1 << j
        fwd = []
        for v, (lo, hi) in zip(order, windows):
            mask, span = before[hi] ^ before[lo], ((1 << hi) - 1) ^ ((1 << lo) - 1)
            if not clique >> (v - 1) & 1:
                mask &= clique
                span &= inner
            if mask != o.out[v]:
                raise ValueError(f"the window of vertex {v} does not match its out-mask")
            fwd.append(span)
        o.__dict__["_topo"] = (list(order), fwd)
        return o

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Every arc (u, v); built on first use and cached."""
        return frozenset((u, v) for u in self.graph.vertices() for v in bits(self.out[u]))

    def has_arc(self, u: int, v: int) -> bool:
        return 1 <= u <= self.graph.n and 1 <= v and bool(self.out[u] >> (v - 1) & 1)

    @cached_property
    def _topo(self) -> tuple[list[int], list[int]] | None:
        """A topological order, and for each position i the out-mask of
        order[i] with bit j set for an arc to order[j]; None if there is a
        directed cycle.  One depth-first pass over the out-masks: a vertex is
        placed before everything placed so far when it is finished, and an
        arc into the current path is a cycle."""
        n, out = self.graph.n, self.out
        order, fwd = [0] * n, [0] * n
        at = [0] * (n + 1)       # position of every finished vertex
        fresh = (1 << n) - 1     # vertices not yet entered
        free = n
        while fresh:
            path = fresh & -fresh   # the vertices on the stack
            fresh ^= path
            stack = [path.bit_length()]
            while stack:
                v = stack[-1]
                ahead = out[v] & fresh
                if ahead:
                    w = ahead & -ahead
                    fresh ^= w
                    path |= w
                    stack.append(w.bit_length())
                    continue
                stack.pop()
                path ^= 1 << (v - 1)
                if out[v] & path:
                    return None
                free -= 1
                span = 0
                for w in bits(out[v]):
                    span |= 1 << at[w]
                at[v], order[free], fwd[free] = free, v, span
        return order, fwd


class ShortcutWitness(namedtuple("ShortcutWitness", "path closing missing")):
    """A violating path, its closing edge, and one missing transitive edge."""

    __slots__ = ()


def orient_by_order(g: Graph, order: Sequence[int]) -> Orientation:
    """Direct every edge from the earlier to the later vertex of a linear order."""
    if sorted(order) != list(g.vertices()):
        raise ValueError("order is not a permutation of the vertices")
    out = [0] * (g.n + 1)
    placed = 0
    for u in order:
        placed |= 1 << (u - 1)
        out[u] = g.masks[u] & ~placed
    return Orientation._from_masks(g, tuple(out))


def is_acyclic(o: Orientation) -> bool:
    return o._topo is not None


def _sweep(fwd: Sequence[int]) -> tuple[list[int], list[int]]:
    """reach[i] and S[i] for every position i of masks fwd[i] whose bits all
    lie above i (see the module docstring), swept from the end."""
    n = len(fwd)
    reach, below = [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        r, s = 1 << i, 0
        todo = fwd[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            r |= reach[j]
            s |= below[j]
            todo &= ~reach[j]
        todo = r ^ fwd[i] ^ 1 << i  # B: reached, neither i nor an out-neighbor of i
        while todo:
            j = (todo & -todo).bit_length() - 1
            s |= reach[j]
            todo &= ~reach[j]
        reach[i], below[i] = r, s
    return reach, below


def _shortest_path(o: Orientation, src: int, dst: int) -> list[int]:
    """A shortest directed path, each vertex reached first from the earliest
    vertex of the previous layer, heads taken in ascending order."""
    if src == dst:
        return [src]
    out = o.out
    parent = {}
    seen = 1 << (src - 1)
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            new = out[v] & ~seen
            if new >> (dst - 1) & 1:
                path = [dst, v]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            seen |= new
            for w in bits(new):
                parent[w] = v
                nxt.append(w)
        frontier = nxt
    raise AssertionError(f"no directed path {src} -> {dst}; the reach masks are wrong, this is a bug")


def find_shortcut(o: Orientation) -> ShortcutWitness | None:
    """Smallest-witness shortcut of an acyclic orientation, or None.

    Deterministic: the closing arc (x, y) is the smallest in sorted order,
    then a and b are the smallest ids that complete it.  Raises ValueError on
    a cyclic input, and on nothing else: an internal inconsistency raises
    AssertionError.
    """
    topo = o._topo
    if topo is None:
        raise ValueError("orientation contains a directed cycle")
    order, fwd = topo
    reach, below = _sweep(fwd)
    tails = [i for i, m in enumerate(fwd) if m & below[i]]
    if not tails:
        return None
    i = min(tails, key=order.__getitem__)
    x = order[i]
    y = min(order[j - 1] for j in bits(fwd[i] & below[i]))
    at_y = order.index(y)
    to_y = sum(1 << j for j in range(at_y + 1) if reach[j] >> at_y & 1)  # the positions that reach y

    def ends(j: int) -> int:  # the b that complete a = order[j]: reached from a, not adjacent, reaching y
        return (reach[j] ^ fwd[j] ^ 1 << j) & to_y

    starts = [j - 1 for j in bits(reach[i]) if ends(j - 1)]
    if not starts:
        raise AssertionError("the sweep found a shortcut the witness scan cannot rebuild; this is a bug")
    j = min(starts, key=order.__getitem__)
    a, b = order[j], min(order[e - 1] for e in bits(ends(j)))
    path = _shortest_path(o, x, a) + _shortest_path(o, a, b)[1:] + _shortest_path(o, b, y)[1:]
    return ShortcutWitness(tuple(path), (x, y), (a, b))


def is_semi_transitive_orientation(o: Orientation) -> bool:
    return is_acyclic(o) and find_shortcut(o) is None


def _search_semi_transitive_order(g: Graph) -> list[int] | None:
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
) -> Orientation | None:
    """Exhaustive oracle: a semi-transitive orientation of g, or None.

    Searches vertex orders (every acyclic orientation arises from one), so
    absence is a proof that g is not semi-transitive.  With reduce_twins on,
    twin vertices (N(a)\\{b} == N(b)\\{a}) are removed first, and the order
    found for the reduced graph is extended back by placing each removed twin
    right after its keeper, so the twin takes the keeper's direction to every
    other vertex, plus keeper -> twin; semi-transitivity is preserved both
    ways, and the extended result is re-verified before being returned.  In
    both cases the result is orient_by_order of a vertex order; with
    reduce_twins off it is the lexicographically first valid permutation.
    """
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"n={n} exceeds the oracle guard {max_vertices}")
    if not reduce_twins:
        found = _search_semi_transitive_order(g)
        return orient_by_order(g, found) if found is not None else None

    reduction = twin_reduce(g)
    found = _search_semi_transitive_order(reduction.graph)
    if found is None:
        return None
    order = [reduction.kept[v - 1] for v in found]
    for keeper, removed in reversed(reduction.removals):
        order.insert(order.index(keeper) + 1, removed)
    out = orient_by_order(g, order)
    if not is_semi_transitive_orientation(out):
        raise AssertionError("twin extension broke semi-transitivity; this is a bug")
    return out


def parse_orientation(text: str) -> Orientation:
    """Parse "n m" followed by m arc lines "u > v".

    A dense file in the layout `format_orientation` writes ("n m\\n", then
    "u > v\\n" lines, no tail) is read first by the graph parser's pair
    reader, which sums each run of arcs leaving the same u into one out-mask
    and rules out repeated arcs.  Every other arc sets two bits of the
    undirected masks, but two arcs of one edge set two in all and a
    self-loop sets one, so undirected popcounts summing to 2m rule both out.
    Any other file, and every file with an error, is read by the line loop
    below, the only source of error messages.
    """
    pairs = _read_pairs(text, " > ")
    if pairs is not None:
        n, out, masks, tail = pairs
        if tail is None and sum(map(int.bit_count, masks)) == 2 * sum(map(int.bit_count, out)):
            return Orientation._from_masks(Graph._from_masks(n, masks), tuple(out))
    n, m, lines = read_header(text, "n m")
    if len(lines) != m:
        raise ValueError(f"expected {m} arcs, found {len(lines)}")
    masks = [0] * (n + 1)
    out = [0] * (n + 1)
    for line_no, ln in lines:
        toks = ln.replace(">", " > ").split()
        if len(toks) != 3 or toks[1] != ">":
            raise GraphFormatError(line_no, "expected 'u > v'")
        try:
            u, v = int(toks[0]), int(toks[2])
        except ValueError:
            raise GraphFormatError(line_no, "non-integer vertex id") from None
        if u == v:
            raise GraphFormatError(line_no, f"self-loop at {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(line_no, f"vertex out of range 1..{n}")
        if masks[u] >> (v - 1) & 1:
            raise GraphFormatError(line_no, f"edge {(min(u, v), max(u, v))} oriented twice")
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
        out[u] |= 1 << (v - 1)
    # every arc is an edge of the graph built from the arcs, oriented once
    return Orientation._from_masks(Graph._from_masks(n, tuple(masks)), tuple(out))


def format_orientation(o: Orientation) -> str:
    return _pairs_file(o.graph.n, o.out, " > ")
