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
from itertools import compress, groupby
from operator import or_

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

    A dense file in the layout `format_graph` writes is read in bulk by
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


def _dense(n: int, text: str) -> bool:
    """Whether the pair reader's id table and transpose cells, each about n²
    bits or characters, are small beside the text itself."""
    return (n + 1) ** 2 <= 16 * len(text)


def _parse_canonical(text: str) -> tuple[Graph, tuple[int, ...] | None] | None:
    """Read a dense graph file in the layout `format_graph` writes, in bulk:
    `_read_pairs`'s with sep " " and u < v, then maybe one final line
    "C: i1 ... ik\\n" spelled as format_graph spells it.  Returns what the
    line loop returns for the same text, or None for a sparse file, for any
    other text (a number respelled as "07" or "+7" included) and for every
    text the line loop rejects."""
    pairs = _read_pairs(text, " ")
    if pairs is None:
        return None
    n, upper, masks, line = pairs
    # no row carried (the popcounts), so u < v is a test of the bits at or below u's
    if any(row & ((1 << u) - 1) for u, row in enumerate(upper)):
        return None
    if line is None:
        return Graph._from_masks(n, masks), None
    try:
        pinned = _pins(line[3:].split(), n)
    except ValueError:
        return None
    if line != "C: " + " ".join(map(str, pinned)) + "\n":
        return None
    return Graph._from_masks(n, masks), pinned


def _read_pairs(text: str, sep: str) -> tuple[int, list[int], tuple[int, ...], str | None] | None:
    """Read a dense file (see `_dense`) in the pair layout in bulk: "n m\\n",
    then m lines "u" + sep + "v\\n", every number spelled as str() spells
    it.  Returns n, rows[u] with bit v-1 set for every pair line, masks =
    rows OR their transpose, and the tail from the first "C" on (None if
    there is none); or None for a sparse file, a repeated pair, an id
    outside 1..n, a respelled number or text before the tail that is not
    the layout.  An id is looked up in one table keyed by the strings
    "1".."n", so no int() runs on a pair line.

    The pair lines are cut after line ends into chunks of about _CHUNK
    characters, each read by `_add_runs`; a chunk's token lists die with its
    call, so one chunk's are held at once.  Each run of lines that share the
    token u costs one sum of the bits of its v tokens, added to rows[u].  A
    repeated v carries into a higher bit, and a sum of powers of two has as
    many set bits as terms only when they are all distinct, so popcounts
    summing to m rule repeats out, within a run and across runs.
    """
    eol = text.find("\n")
    try:
        n, m = map(int, text[:eol].split(" "))
    except ValueError:  # not two numbers, or more digits than int() reads
        return None
    if eol < 0 or text[:eol] != f"{n} {m}" or n < 0 or m < 0 or not _dense(n, text):
        return None
    start, stop = eol + 1, text.find("C", eol)
    tail = text[stop:] if stop >= 0 else None
    stop = stop if stop >= 0 else len(text)
    table = {str(v): 1 << (v - 1) for v in range(1, n + 1)}
    rows = [0] * (n + 1)
    count = 0
    while start < stop:
        end = text.find("\n", start + _CHUNK, stop) + 1 or stop
        lines = _add_runs(text[start:end], sep, table.__getitem__, rows)
        if lines is None:
            return None
        count += lines
        start = end
    if count != m or sum(map(int.bit_count, rows)) != m:
        return None
    return n, rows, tuple(map(or_, rows, _transpose(rows))), tail


def _add_runs(chunk: str, sep: str, bit, rows: list[int]) -> int | None:
    """Add the bits of each run's v tokens to rows[u] and return the number
    of lines, or None if chunk is not whole lines "u" + sep + "v\\n" with u
    and v ASCII digits, or if a line holds a token bit() has no entry for.

    A chunk that ends in "\\n", whose residue after deleting the digits is
    sep + "\\n" per line and which holds sep once per line, is lines of
    digits, sep, digits with a side perhaps empty; the token count then
    finds the empty side (such as " \\n", "\\n " or a leading space).
    Without the final "\\n" the last line would have a third, uncounted
    digit slot that could hide a moved space."""
    lines = chunk.count("\n")
    if (chunk[-1:] != "\n" or chunk.translate(_NOT_DIGITS) != (sep + "\n") * lines
            or chunk.count(sep) != lines):
        return None
    per = len(sep.split()) + 2  # tokens per line
    tokens = chunk.split()
    if len(tokens) != per * lines:
        return None
    vs = tokens[per - 1::per]
    a = 0
    try:
        for u, run in groupby(tokens[::per]):
            b = a + len(list(run))
            rows[bit(u).bit_length()] += sum(map(bit, vs[a:b]))
            a = b
    except KeyError:
        return None
    return lines


def _transpose(rows: list[int]) -> list[int]:
    """cols[v] with bit u-1 set for every rows[u] with bit v-1 set, for rows
    whose bits all lie below len(rows) - 1 and rows[0] == 0.  One string of
    n² cells holds row n down to row 1 as n binary digits each, so the cells
    of column v, every n-th one from cell n - v, are its binary digits."""
    n = len(rows) - 1
    spec = f"0{n}b"
    cells = "".join([format(row, spec) for row in reversed(rows[1:])])
    return [0] + [int(cells[p::n], 2) for p in range(n - 1, -1, -1)]


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


def _pairs_file(n: int, rows: Sequence[int], sep: str) -> str:
    """The pair layout `_read_pairs` reads: "n m\\n", then a line
    u + sep + v for each of the m pairs of rows, in sorted order."""
    pairs = format_pairs(rows, sep, "\n")
    return f"{n} {sum(map(int.bit_count, rows))}\n" + (pairs + "\n" if pairs else "")


def format_graph(g: Graph, clique: Iterable[int] | None = None) -> str:
    """Render a graph (and optionally a pinned clique) in the graph file format."""
    text = _pairs_file(g.n, [mask >> u << u for u, mask in enumerate(g.masks)], " ")  # pairs u < v
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
    # at most one vertex moves, and the clique is maximal after it: a second one
    # would be adjacent to the first, on the side _check_sides has checked as
    # independent.  So every check of SplitPartition holds, and none is repeated.
    v = next((v for v in i if cmask & graph.masks[v] == cmask), None)
    if v is not None:
        c.append(v)
        i.remove(v)
    return tuple.__new__(SplitPartition, (graph, tuple(c), tuple(i)))


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

    Row order is p.clique, column order is p.independent.  An id-run is a
    stretch of clique rows r..r+L holding consecutive ids u..u+L.  Each
    column copies, from its highest neighbor down, the run that neighbor lies
    in with one shift, so a clique pinned as 1..k costs one copy per column,
    and any order is exact.
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
    return BinaryMatrix(k, p.t, tuple(cols))
