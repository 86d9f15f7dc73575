"""Undirected graphs, split partitions, twin reduction and neighborhood matrices.

Vertices are dense integers 1..n so that clique/independent orderings can be
used directly as matrix row/column indices.  A graph is stored as one
adjacency bitmask per vertex (bit u-1 set for neighbor u); every layer reads
those masks.  All values are immutable after construction; every operation
here is a pure function.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import compress
from operator import lt

from .matrices import BinaryMatrix, GraphFormatError, read_header


def bits(mask: int) -> Iterator[int]:
    """Ids of the set bits of mask in ascending order (bit u-1 stands for u)."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v-1 set for every v in vertices."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


class Graph(namedtuple("Graph", "n masks")):
    """Simple undirected graph on vertices 1..n.

    masks[v] has bit u-1 set for every neighbor u of v, and masks[0] is 0.
    Equality and hashing use (n, masks); the edge set is derived on demand
    and cached in the instance dict.
    """

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        return tuple.__new__(cls, (n, tuple(masks)))

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> Graph:
        """Wrap adjacency masks the caller has already validated: symmetric,
        no self-loops, no bit at or above n, masks[0] == 0."""
        return tuple.__new__(cls, (n, masks))

    def __reduce__(self):
        return self._from_masks, tuple(self)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as (u, v) with u < v; built on first use and cached."""
        return frozenset((u, u + w) for u in self.vertices() for w in bits(self.masks[u] >> u))

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.n and 1 <= v and bool(self.masks[u] >> (v - 1) & 1)

    def vertices(self) -> range:
        return range(1, self.n + 1)


class SplitPartition(namedtuple("SplitPartition", "graph clique independent")):
    """A graph together with a certified clique/independent-set bipartition.

    The clique and independent tuples are ordered; their order is the row and
    column order of every matrix derived from the partition.  The clique is
    required to be maximal in the sense that no independent vertex is adjacent
    to all of it.
    """

    __slots__ = ()

    def __new__(cls, graph: Graph, clique: tuple[int, ...], independent: tuple[int, ...]):
        g, c, i = graph, clique, independent
        if sorted(c + i) != list(g.vertices()):
            raise ValueError("clique and independent set must partition the vertices")
        _check_sides(g, c, i)
        cmask = vertex_mask(c)
        for v in i:
            if cmask and cmask & g.masks[v] == cmask:
                raise ValueError(f"independent vertex {v} is adjacent to all of the clique")
            if not cmask:
                raise ValueError(f"independent vertex {v} with empty clique violates maximality")
        return tuple.__new__(cls, (graph, clique, independent))

    @property
    def k(self) -> int:
        return len(self.clique)

    @property
    def t(self) -> int:
        return len(self.independent)


def _check_sides(g: Graph, clique: Sequence[int], independent: Sequence[int]):
    """Raise ValueError naming the first non-adjacent clique pair or adjacent
    independent pair.

    Each vertex is tested against its side's mask; the pair is looked up only
    on failure.  The first failing vertex has no bad partner before it (that
    partner would have failed first), so it names the same pair as a scan
    over all pairs in order.
    """
    masks = g.masks
    side = vertex_mask(clique)
    for x_idx, x in enumerate(clique):
        bad = side & ~masks[x] & ~(1 << (x - 1))
        if bad:
            y = next(y for y in clique[x_idx + 1:] if bad >> (y - 1) & 1)
            raise ValueError(f"clique vertices {x}, {y} are not adjacent")
    side = vertex_mask(independent)
    for x_idx, x in enumerate(independent):
        bad = side & masks[x]
        if bad:
            y = next(y for y in independent[x_idx + 1:] if bad >> (y - 1) & 1)
            raise ValueError(f"independent vertices {x}, {y} are adjacent")


class TwinReduction(namedtuple("TwinReduction", "graph kept removals")):
    """Result of iterated twin removal: the reduced graph plus bookkeeping.
    kept[i] is the original id of new vertex i+1; removals holds (kept
    original id, removed original id) pairs."""

    __slots__ = ()


def parse_graph_pinned(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse a graph file, returning the optional pinned clique from a "C:" line.

    Format: first data line "n m", then m lines "u v" with 1 <= u < v <= n,
    and at most one line "C: i1 i2 ..." anywhere after the header (edge lines
    may follow it).  Blank lines and lines starting with "#" are ignored.

    A file in the layout `format_graph` writes is read in bulk by
    `_parse_canonical`.  Every other file, and every file with an error, is
    read by `read_header` and the line loop below, which give the same result
    and are the only source of error messages.
    """
    parsed = _parse_canonical(text)
    if parsed is not None:
        return parsed
    n, m, lines = read_header(text, "n m")
    masks = [0] * (n + 1)
    count = 0
    pinned: tuple[int, ...] | None = None
    for line_no, line in lines:
        if line.startswith("C:"):
            if pinned is not None:
                raise GraphFormatError(line_no, "duplicate 'C:' line")
            try:
                pinned = _pins(line[2:].split(), n)
            except ValueError as exc:
                raise GraphFormatError(line_no, str(exc)) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(line_no, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(line_no, "non-integer vertex id") from None
        if u == v:
            raise GraphFormatError(line_no, f"self-loop at {u}")
        if not (1 <= u < v <= n):
            raise GraphFormatError(line_no, f"edge ({u}, {v}) must satisfy 1 <= u < v <= {n}")
        bit = 1 << (v - 1)
        if masks[u] & bit:
            raise GraphFormatError(line_no, f"duplicate edge ({u}, {v})")
        if count >= m:
            raise GraphFormatError(line_no, f"more than {m} edges")
        masks[u] |= bit
        masks[v] |= 1 << (u - 1)
        count += 1
    if count != m:
        raise GraphFormatError(1, f"header promised {m} edges, found {count}")
    return Graph._from_masks(n, tuple(masks)), pinned


def _pins(tokens: list[str], n: int) -> tuple[int, ...]:
    """The pinned clique a "C:" line's tokens name; ValueError says what is wrong."""
    try:
        pins = tuple(map(int, tokens))
    except ValueError:
        raise ValueError("non-integer vertex id in 'C:' line") from None
    for v in pins:
        if not (1 <= v <= n):
            raise ValueError(f"clique vertex {v} out of range 1..{n}")
    if len(set(pins)) != len(pins):
        raise ValueError("repeated vertex in 'C:' line")
    return pins


_NOT_DIGITS = str.maketrans("", "", "0123456789")
_CHUNK = 1 << 14  # characters of edge lines per bulk pass: bounds the token lists held at once


def _spaced(line: str) -> list[str] | None:
    """The tokens of line if it is them joined by single spaces, else None."""
    tokens = line.split()
    return tokens if " ".join(tokens) == line else None


def _parse_canonical(text: str) -> tuple[Graph, tuple[int, ...] | None] | None:
    """Read a graph file in the layout `format_graph` writes, in bulk.

    The layout is "n m\\n", then m lines "u v\\n", then optionally one final
    line "C: i1 ... ik\\n", with one space between tokens.  The edge ids are
    ASCII digits; every number is read by int(), as the line loop reads it,
    so a spelling such as a leading zero is taken and the values are checked.
    Returns what the line loop returns for the same text, or None for any
    other text and for every text the line loop rejects; it raises only where
    the line loop raises on the same header (the masks list of a header
    asking for too many vertices).

    Edge lines are read in chunks of about _CHUNK characters, each with the
    line loop's checks done in bulk: the layout by deleting the digits, ids
    through one int() per distinct token, the range by min and max, u < v
    (which excludes self-loops) by one map, the edge count by lines.  A
    duplicate edge sets no new bit, so the masks' popcounts then sum to less
    than 2m.
    """
    eol = text.find("\n")
    header = _spaced(text[:eol]) if eol >= 0 else None
    if header is None or len(header) != 2:
        return None
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:  # not a number, or more digits than int() reads
        return None
    if n < 0 or m < 0:
        return None
    pinned = None
    stop = text.find("C", eol)
    if stop < 0:
        stop = len(text)
    else:  # no edge line holds a "C", so it must start the one final line
        line = text[stop:]
        if not line.startswith("C: ") or line.find("\n") != len(line) - 1:
            return None
        pins = _spaced(line[3:-1])
        if pins is None:
            return None
        try:
            pinned = _pins(pins, n)
        except ValueError:
            return None
    masks = [0] * (n + 1)  # masks[u] gets bit v, not v - 1: shifted once at the end
    count = 0
    start = eol + 1
    while start < stop:
        end = text.find("\n", start + _CHUNK, stop) + 1 or stop
        lines = _read_edge_lines(text[start:end], n, masks)
        if lines is None:
            return None
        count += lines
        start = end
    final = tuple(mask >> 1 for mask in masks)
    if count != m or sum(map(int.bit_count, final)) != 2 * m:
        return None
    return Graph._from_masks(n, final), pinned


def _read_edge_lines(chunk: str, n: int, masks: list[int]) -> int | None:
    """OR the edges of whole "u v\\n" lines into masks (bit v of masks[u]) and
    return the number of lines, or None if a line breaks the layout or holds
    an id that is not in 1..n or not less than the other.  Its token lists
    die with the call, so one chunk's are held at once.

    A chunk that ends in "\\n" and passes the translate check is lines of
    digits, one space, digits; the token count then finds an empty side
    (" \\n", "\\n " or a leading space).  Without the final "\\n" the last
    line has a third, uncounted digit slot that would hide a moved space."""
    lines = chunk.count("\n")
    if chunk[-1:] != "\n" or chunk.translate(_NOT_DIGITS) != " \n" * lines:
        return None
    tokens = chunk.split()
    if len(tokens) != 2 * lines:
        return None
    distinct = set(tokens)
    try:
        ids = dict(zip(distinct, map(int, distinct)))
    except ValueError:  # more digits than int() reads
        return None
    if min(ids.values()) < 1 or max(ids.values()) > n:
        return None
    values = list(map(ids.__getitem__, tokens))
    us, vs = values[::2], values[1::2]
    if not all(map(lt, us, vs)):
        return None
    for u, v in zip(us, vs):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return lines


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def format_pairs(masks: Sequence[int], arrow: str, sep: str) -> str:
    """Every pair (u, v) with bit v-1 of masks[u] set, u >= 1, as
    u + arrow + v in sorted order, joined by sep.

    The ids come from one table of strings, and a vertex's partners are
    selected from it by the binary digits of its mask, so no pair costs an
    integer operation."""
    names = [str(v) for v in range(1, len(masks))]
    chunks = []
    for u, heads in zip(names, masks[1:]):
        if heads:
            lead = u + arrow
            flags = format(heads, "b")[::-1].encode().translate(_DIGIT_FLAGS)
            chunks.append(lead + (sep + lead).join(compress(names, flags)))
    return sep.join(chunks)


def format_graph(g: Graph, clique: Iterable[int] | None = None) -> str:
    """Render a graph (and optionally a pinned clique) in the graph file format."""
    upper = [mask >> u << u for u, mask in enumerate(g.masks)]  # the edges (u, v) with u < v
    edges = format_pairs(upper, " ", "\n")
    text = f"{g.n} {sum(map(int.bit_count, upper))}\n" + (edges + "\n" if edges else "")
    if clique is not None:
        text += "C: " + " ".join(map(str, clique)) + "\n"
    return text


def normalize_partition(graph: Graph, clique: Iterable[int], independent: Iterable[int]) -> SplitPartition:
    """Restore clique maximality by moving into the clique the independent
    vertex adjacent to all of it, if there is one.

    The input must already satisfy the clique/independent invariants.
    """
    c = list(clique)
    i = sorted(independent)
    if sorted(c + i) != list(graph.vertices()):
        raise ValueError("clique and independent set must partition the vertices")
    _check_sides(graph, c, i)
    cmask = vertex_mask(c)
    # at most one vertex moves: a second one would have to be adjacent to the
    # first, and both lie on the independent side that _check_sides has checked
    v = next((v for v in i if cmask & graph.masks[v] == cmask), None)
    if v is not None:
        c.append(v)
        i.remove(v)
    return SplitPartition(graph, tuple(c), tuple(i))


def split_partition(g: Graph) -> SplitPartition | None:
    """Find a split partition of g, or None if g is not a split graph.

    Uses the degree-sequence characterization: with degrees sorted descending,
    take h = max{i : d_i >= i-1}; g is split iff the h top-degree vertices form
    a clique and the rest are independent.  The candidate is verified once,
    by `normalize_partition`, which then restores maximality.
    """
    if g.n == 0:
        return SplitPartition(g, (), ())
    masks = g.masks
    order = sorted(g.vertices(), key=lambda v: -masks[v].bit_count())  # stable: ties by id
    degs = [masks[v].bit_count() for v in order]
    h = 0
    for idx, d in enumerate(degs, start=1):
        if d >= idx - 1:
            h = idx
    try:
        return normalize_partition(g, sorted(order[:h]), sorted(order[h:]))
    except ValueError:
        return None


def twin_reduce(g: Graph) -> TwinReduction:
    """Repeatedly remove one vertex of any twin pair (N(a)\\{b} == N(b)\\{a}).

    Covers both adjacent and non-adjacent twins; the smaller id is kept.  The
    reduced graph is relabeled to dense ids 1..n' with the original ids in
    `kept`; `removals` logs (kept, removed) pairs in original ids.
    """
    live = list(g.vertices())
    removed_pairs: list[tuple[int, int]] = []
    # restricting neighborhoods to live vertices as we go
    neigh = list(g.masks)
    while True:
        pair = next(((a, b) for ai, a in enumerate(live) for b in live[ai + 1:]
                     if neigh[a] & ~(1 << (b - 1)) == neigh[b] & ~(1 << (a - 1))), None)
        if pair is None:
            break
        a, b = pair
        live.remove(b)
        for v in bits(neigh[b]):
            neigh[v] &= ~(1 << (b - 1))
        removed_pairs.append(pair)
    return TwinReduction(induced_subgraph(g, live)[0], tuple(live), tuple(removed_pairs))


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertex set s, relabeled 1..|s| in sorted order.

    Returns the graph and the map new id -> original id.
    """
    svert = sorted(set(s))
    for v in svert:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} not in graph")
    relabel = {old: new for new, old in enumerate(svert, start=1)}
    keep = vertex_mask(svert)
    masks = [0] + [vertex_mask(relabel[u] for u in bits(g.masks[v] & keep)) for v in svert]
    return Graph._from_masks(len(svert), tuple(masks)), {new: old for old, new in relabel.items()}


def neighborhood_matrix(p: SplitPartition) -> BinaryMatrix:
    """The k x t adjacency matrix between clique rows and independent columns.

    Row order is p.clique, column order is p.independent; columns are labeled
    with the independent vertex ids.  An id-run is a stretch of clique rows
    r..r+L holding consecutive ids u..u+L.  Each column copies, from its
    highest neighbor down, the run that neighbor lies in with one shift, so a
    clique pinned as 1..k costs one copy per column, and any order is exact.
    """
    clique, k = p.clique, p.k
    run_of = [None] * (p.graph.n + 1)  # clique id -> (first id - 1, first row - 1) of its run
    starts = [r for r in range(k) if r == 0 or clique[r] != clique[r - 1] + 1]
    for start, end in zip(starts, starts[1:] + [k]):
        first = clique[start]
        run_of[first:first + end - start] = [(first - 1, start)] * (end - start)
    masks = p.graph.masks
    cols = []
    for v in p.independent:
        mask, col = masks[v], 0
        while mask:  # every set bit of mask >> shift lies in the run of the highest one
            shift, row_shift = run_of[mask.bit_length()]
            piece = mask >> shift
            col |= piece << row_shift
            mask ^= piece << shift
        cols.append(col)
    return BinaryMatrix(k, p.t, tuple(cols), tuple(p.independent))
