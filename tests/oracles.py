"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: exhaustive bipartitions, exhaustive
path enumeration, exhaustive permutation sweeps.  These implementations must
stay independent of the library code paths they are used to check.
"""

from itertools import combinations, permutations

from semitrans import Graph, Orientation, orient_by_order


def bipartition_split_oracle(g: Graph):
    """All (clique, independent) bipartitions of g, by exhaustive subsets."""
    verts = list(g.vertices())
    found = []
    for r in range(len(verts) + 1):
        for cset in combinations(verts, r):
            iset = [v for v in verts if v not in cset]
            if all(g.has_edge(u, v) for u, v in combinations(cset, 2)) and not any(
                g.has_edge(u, v) for u, v in combinations(iset, 2)
            ):
                found.append((set(cset), set(iset)))
    return found


def shortcut_by_path_enumeration(o: Orientation) -> bool:
    """True iff some directed path plus its closing edge misses a transitive
    edge, found by enumerating every directed path."""
    out = o.out_neighbors()

    def walk(path):
        u1 = path[0]
        for w in out[path[-1]]:
            if w in path:
                continue
            nxt = path + [w]
            if len(nxt) >= 3 and o.has_arc(u1, w):
                for i in range(len(nxt)):
                    for j in range(i + 1, len(nxt)):
                        if not o.has_arc(nxt[i], nxt[j]):
                            return True
            if walk(nxt):
                return True
        return False

    return any(walk([v]) for v in o.graph.vertices())


def assert_shortcut_witness(o: Orientation, w) -> None:
    """A witness is a directed path of arcs, closed by the arc from its first
    to its last vertex, with a non-adjacent pair (a, b), a before b, on it."""
    assert len(set(w.path)) == len(w.path) >= 3
    for u, v in zip(w.path, w.path[1:]):
        assert o.has_arc(u, v)
    assert o.has_arc(*w.closing)
    assert w.closing == (w.path[0], w.path[-1])
    a, b = w.missing
    ia, ib = w.path.index(a), w.path.index(b)
    assert ia < ib
    assert not o.has_arc(a, b) and not o.has_arc(b, a)


def naive_semi_transitive_oracle(g: Graph):
    """First semi-transitive orientation over all n! vertex orders, literally."""
    for order in permutations(sorted(g.vertices())):
        o = orient_by_order(g, order)
        if not shortcut_by_path_enumeration(o):
            return o
    return None


def random_graph(rng, n: int, density: float) -> Graph:
    edges = frozenset(
        (u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density
    )
    return Graph(n, edges)
