"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: exhaustive bipartitions, exhaustive
path enumeration, exhaustive permutation sweeps.  These implementations must
stay independent of the library code paths they are used to check.
"""

from functools import reduce
from itertools import combinations, permutations
from operator import and_

from semitrans import BinaryMatrix, Graph, Orientation, orient_by_order
from semitrans.graphs import bits, vertex_mask
from semitrans.pqtree import PQTree
from semitrans.recognition import Shape, forbidden_types


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
    out = {v: [] for v in o.graph.vertices()}
    for u, v in sorted(o.arcs):
        out[u].append(v)

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


def has_cycle_by_peeling(o: Orientation) -> bool:
    """True iff repeatedly deleting the vertices without in-arcs leaves some."""
    left = set(o.graph.vertices())
    while True:
        sources = {v for v in left if not any((u, v) in o.arcs for u in left)}
        if not sources:
            return bool(left)
        left -= sources


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


def forbidden_subgraph_reference(g: Graph):
    """(case tag, sorted vertex set) of the first forbidden configuration over
    every non-adjacent vertex triple in ascending order, with the quadruple
    first in ascending order of its four vertices; or None."""
    masks = g.masks
    universe = (1 << g.n) - 1
    for triple in combinations(g.vertices(), 3):
        a, b, c = triple
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        others = universe & ~vertex_mask(triple)
        for tag, req in forbidden_types(a, b, c).items():
            pools = [reduce(and_, (masks[x] if x in r else ~masks[x] for x in triple), others) for r in req]
            for u1 in bits(pools[0]):
                for u2 in bits(pools[1] & masks[u1]):
                    for u3 in bits(pools[2] & masks[u1] & masks[u2]):
                        for u4 in bits(pools[3] & masks[u1] & masks[u2] & masks[u3]):
                            return f"case-{tag}", tuple(sorted(triple + (u1, u2, u3, u4)))
    return None


def shape_reference(k: int, positions) -> "Shape | None":
    """Shape of a set of positions in 1..k, by trying every interval [a, b]
    and then every prefix+suffix pair [1, a] u [b, k] with a gap between."""
    positions = set(positions)
    if not positions:
        return Shape("empty")
    for a in range(1, k + 1):
        for b in range(a, k + 1):
            if len(positions) == b - a + 1 and positions == set(range(a, b + 1)):
                return Shape("interval", a, b)
    for a in range(1, k + 1):
        for b in range(a + 2, k + 1):
            if len(positions) == a + k - b + 1 and positions == set(range(1, a + 1)) | set(range(b, k + 1)):
                return Shape("wrapped", a, b)
    return None


def random_graph(rng, n: int, density: float) -> Graph:
    edges = frozenset(
        (u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < density
    )
    return Graph(n, edges)


def reference_parse_graph(text: str):
    """(graph, pinned clique or None) from a graph file, or the message of
    the first error, read the plain way: each line stripped, then tested in
    turn as blank or comment, header, "C:" line or edge; edges kept as a set
    of pairs."""
    header = None
    edges = set()
    pinned = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 2:
                return f"line {line_no}: expected header 'n m'"
            try:
                n, m = int(toks[0]), int(toks[1])
            except ValueError:
                return f"line {line_no}: non-integer header"
            if n < 0 or m < 0:
                return f"line {line_no}: negative header value"
            header = (n, m)
        elif line.startswith("C:"):
            if pinned is not None:
                return f"line {line_no}: duplicate 'C:' line"
            try:
                pins = tuple(int(tok) for tok in line[2:].split())
            except ValueError:
                return f"line {line_no}: non-integer vertex id in 'C:' line"
            outside = [v for v in pins if not 1 <= v <= n]
            if outside:
                return f"line {line_no}: clique vertex {outside[0]} out of range 1..{n}"
            if len(set(pins)) != len(pins):
                return f"line {line_no}: repeated vertex in 'C:' line"
            pinned = pins
        elif len(toks) != 2:
            return f"line {line_no}: expected edge 'u v', got {line!r}"
        else:
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                return f"line {line_no}: non-integer vertex id"
            if u == v:
                return f"line {line_no}: self-loop at {u}"
            if not 1 <= u < v <= n:
                return f"line {line_no}: edge ({u}, {v}) must satisfy 1 <= u < v <= {n}"
            if (u, v) in edges:
                return f"line {line_no}: duplicate edge ({u}, {v})"
            if len(edges) == m:
                return f"line {line_no}: more than {m} edges"
            edges.add((u, v))
    if header is None:
        return "line 1: empty input"
    if len(edges) != m:
        return f"line 1: header promised {m} edges, found {len(edges)}"
    return Graph(n, edges), pinned


def format_graph_reference(g: Graph, clique=None) -> str:
    """The graph file text, written the plain way: the header, every edge of
    the sorted edge set on its own line, then the optional "C:" line."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    if clique is not None:
        lines.append("C: " + " ".join(str(v) for v in clique))
    return "\n".join(lines) + "\n"


def consecutive_ones_reference(mtx: BinaryMatrix):
    """Certificate of the consecutive-ones PQ-tree pipeline, in its plain
    form: columns stably sorted by decreasing number of ones, vacuous ones
    (at most one 1, or all ones) skipped inside the loop.  Pins the order in
    which has_consecutive_ones reduces its columns."""
    if mtx.m == 0:
        return ()
    tree = PQTree(mtx.m)
    for c in sorted(mtx.columns, key=lambda c: -c.bit_count()):
        ones = c.bit_count()
        if ones <= 1 or ones >= mtx.m:
            continue
        if not tree.reduce(c):
            return None
    return tree.frontier()


def circular_ones_reference(mtx: BinaryMatrix):
    """consecutive_ones_reference after complementing every column with a 1
    in the first row."""
    if mtx.m == 0:
        return ()
    full = (1 << mtx.m) - 1
    cols = tuple(c ^ full if c & 1 else c for c in mtx.columns)
    return consecutive_ones_reference(BinaryMatrix(mtx.m, mtx.n, cols))


def neighborhood_columns_reference(p):
    """Columns of neighborhood_matrix(p), one bit at a time: bit r-1 of
    column j is set when the r-th clique vertex is adjacent to the j-th
    independent vertex."""
    g = p.graph
    return tuple(
        sum(1 << r for r, u in enumerate(p.clique) if g.has_edge(u, v)) for v in p.independent
    )
