import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings

from semitrans import (
    Graph,
    GraphFormatError,
    format_graph,
    induced_subgraph,
    neighborhood_matrix,
    normalize_partition,
    parse_graph_pinned,
    split_partition,
    twin_reduce,
)
from semitrans.generate import GenSpec, forbidden_configuration, generate, split_graph_from_types
from semitrans.graphs import _dense, _parse_canonical, bits

from graph_texts import CANONICAL_EDITS, canonical_graph_text, line_number, mutated_graph_text
from oracles import (
    bipartition_split_oracle,
    format_graph_reference,
    neighborhood_columns_reference,
    random_graph,
    reference_parse_graph,
)
from strategies import edge_sets, graphs, split_partitions


def complete_graph(n):
    return Graph(n, frozenset(combinations(range(1, n + 1), 2)))


def cycle_graph(n):
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return Graph(n, frozenset(edges))


# -- parsing ---------------------------------------------------------------

def test_parse_path():
    g = parse_graph_pinned("3 2\n1 2\n2 3\n")[0]
    assert g.n == 3 and g.edges == frozenset({(1, 2), (2, 3)})


def test_parse_isolated_vertex():
    g = parse_graph_pinned("1 0\n")[0]
    assert g.n == 1 and not g.edges


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_pinned("2 1\n1 1\n")
    assert "self-loop" in str(exc.value) and "line 2" in str(exc.value)


def test_parse_comments_blank_lines_and_pin():
    text = "# comment\n\n4 2\n1 2\n\n3 4\nC: 1 2\n"
    g, pinned = parse_graph_pinned(text)
    assert g.n == 4 and pinned == (1, 2)
    # a "#" or "C:" glued to the next token still starts a comment or a pin
    # line; an id is whatever int() accepts
    edge = Graph(3, {(1, 2)})
    assert parse_graph_pinned("3 1\n#1 2\n1 2\n") == (edge, None)
    assert parse_graph_pinned("3 1\nC:1 2\n1 2\n") == (edge, (1, 2))
    assert parse_graph_pinned("3 1\n01 +2\n") == (edge, None)


# input -> (short tag, full message): every GraphFormatError branch, with
# comments, blank lines, CRLF line ends and a "C:" line that is not last
PARSE_ERRORS = {
    "": ("empty", "line 1: empty input"),
    "# comment\n\n   \n": ("empty", "line 1: empty input"),
    "3\n": ("header", "line 1: expected header 'n m'"),
    "# c\n\n3 1 2\n": ("header", "line 3: expected header 'n m'"),
    "2 x\n": ("non-integer", "line 1: non-integer header"),
    "1.5 0\n": ("non-integer header", "line 1: non-integer header"),
    "-1 0\n": ("negative", "line 1: negative header value"),
    "3 -2\n": ("negative m", "line 1: negative header value"),
    "3 1\nC: 1\nC: 2\n1 2\n": ("C: twice", "line 3: duplicate 'C:' line"),
    "3 1\n1 2\nC: 1 x\n": ("C: non-integer", "line 3: non-integer vertex id in 'C:' line"),
    "3 1\n1 2\nC: 4\n": ("C: range", "line 3: clique vertex 4 out of range 1..3"),
    "3 1\r\nC: 0 1\r\n1 2\r\n": ("C: zero", "line 2: clique vertex 0 out of range 1..3"),
    "3 1\n1 2\nC: 1 2 1\n": ("C: repeated", "line 3: repeated vertex in 'C:' line"),
    "3 1\n 1 2 3 \n": ("three tokens", "line 2: expected edge 'u v', got '1 2 3'"),
    "3 1\r\n# c\r\n7\r\n": ("one token", "line 3: expected edge 'u v', got '7'"),
    "2 1\n1 \n2": ("space moved to line end", "line 2: expected edge 'u v', got '1'"),
    "2 1\n 1\n2": ("space moved to line start", "line 2: expected edge 'u v', got '1'"),
    "3 2\n1 2\n1 \n3": ("space moved, second edge", "line 3: expected edge 'u v', got '1'"),
    "3 1\n1 2\n3": ("one token, no final newline", "line 3: expected edge 'u v', got '3'"),
    "3 1\na b\n": ("non-integer id", "line 2: non-integer vertex id"),
    "3 1\n1 #\n": ("'#' second", "line 2: non-integer vertex id"),
    "11 1\n1_0 2\n": ("'_' in id", "line 2: edge (10, 2) must satisfy 1 <= u < v <= 11"),
    "3 1\n\n2 2\n": ("self-loop", "line 3: self-loop at 2"),
    "2 1\n2 1\n": ("u < v", "line 2: edge (2, 1) must satisfy 1 <= u < v <= 2"),
    "2 1\n1 3\n": ("u < v", "line 2: edge (1, 3) must satisfy 1 <= u < v <= 2"),
    "3 1\n0 1\n": ("zero id", "line 2: edge (0, 1) must satisfy 1 <= u < v <= 3"),
    "2 2\n1 2\n1 2\n": ("duplicate", "line 3: duplicate edge (1, 2)"),
    "3 2\r\n# c\r\n1 2\r\n\r\nC: 1 2\r\n1 2\r\n": ("duplicate CRLF", "line 6: duplicate edge (1, 2)"),
    "3 1\n1 2\n1 2\n": ("duplicate first", "line 3: duplicate edge (1, 2)"),
    "3 1\n1 2\n1 3\n": ("more than", "line 3: more than 1 edges"),
    "3 2\n1 2\nC: 1 2\n": ("promised", "line 1: header promised 2 edges, found 1"),
    "# c\n4 0\n\n1 2\n": ("promised zero", "line 4: more than 0 edges"),
}


@pytest.mark.parametrize("text,fragment", [(text, tag) for text, (tag, _) in PARSE_ERRORS.items()])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_pinned(text)
    assert str(exc.value) == PARSE_ERRORS[text][1]
    assert exc.value.line_no == line_number(PARSE_ERRORS[text][1])


RESPELLED = ("leading-zero", "header-respelled", "pin-respelled")  # edits that keep every value, not its spelling


def _parser_inputs(isolated=0):
    """(kind, text): seeded mutated files (odd line ends and whitespace,
    respelled and bad ids, glued comments and "C:" lines, wrong token counts,
    bad values), then files in format_graph's layout with one edit each, and
    (without isolated vertices) numerals longer than int() reads by default
    (4300 digits).  The headers count `isolated` vertices more than the
    graphs touch."""
    rng = random.Random(8)
    for _ in range(3000):
        yield "mutated", mutated_graph_text(rng, isolated=isolated)
    rng = random.Random(11)
    for edit in CANONICAL_EDITS:
        for _ in range(60):
            yield edit, canonical_graph_text(rng, edit, isolated=isolated)
    if not isolated:
        long = "9" * 5000
        for text in (f"{long} 0\n", f"3 {long}\n", f"3 1\n1 {long}\n", f"3 0\nC: {long}\n"):
            yield "long", text


def _check_against_reference_parser(inputs):
    outcomes = set()
    for kind, text in inputs:
        expected = reference_parse_graph(text)
        try:
            got = parse_graph_pinned(text)
        except GraphFormatError as exc:
            got = str(exc)
        assert got == expected, text
        outcomes.add(expected.split(": ", 1)[1].split()[0] if isinstance(expected, str) else "ok")
        # the bulk pass gives the line loop's result or leaves the text to it:
        # it leaves every sparse file and every file with a respelled number,
        # and it takes every unedited dense file that ends in a line end
        bulk = _parse_canonical(text)
        if isinstance(expected, str) or not _dense(expected[0].n, text) or kind in RESPELLED:
            assert bulk is None, text
        elif kind == "none" and text.endswith("\n"):
            assert bulk == expected, text
        else:
            assert bulk in (None, expected), text
    assert len(outcomes) >= 12, outcomes  # accepted files and most error branches


def test_parse_matches_reference_parser():
    _check_against_reference_parser(_parser_inputs())


def test_parse_matches_reference_parser_on_sparse_files():
    # 200 isolated vertices make every fuzz file sparse: (n + 1)² is above
    # 16 times its length, so the bulk pass leaves it to the line loop
    _check_against_reference_parser(_parser_inputs(isolated=200))


def test_canonical_pass_reads_format_graph_output():
    rng = random.Random(5)
    cases = [(Graph(0, ()), None), (Graph(0, ()), ()), (Graph(3, ()), None), (Graph(3, ()), (2,))]
    for n in range(1, 30):
        g = random_graph(rng, n, rng.random())
        cases.append((g, None))
        cases.append((g, tuple(rng.sample(range(1, n + 1), rng.randint(0, n)))))
    for g, clique in cases:
        text = format_graph(g, clique=clique)
        assert _parse_canonical(text) == (g, clique) == reference_parse_graph(text), text
    # the test generator's unedited files are format_graph's layout
    for _ in range(200):
        text = canonical_graph_text(rng, "none")
        g, clique = reference_parse_graph(text)
        assert format_graph(g, clique=clique) == text


def test_format_graph_matches_reference_writer():
    rng = random.Random(4)
    for _ in range(2400):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, rng.random())
        pins = rng.choice((None, (), tuple(rng.sample(range(1, n + 1), rng.randint(0, n)))))
        assert format_graph(g, clique=pins) == format_graph_reference(g, clique=pins)


def _peak_bytes(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_route_allocates_like_the_line_loop():
    # n = 20000 with one edge, and with 10000 distinct ids: a table of
    # 1 << i for every i < n (~25 MB), or an id table or cells sized by n²,
    # would take far more than the masks the line loop builds (0.16 MB)
    for text in ("20000 1\n1 2\n",
                 "20000 10000\n" + "".join(f"{i} {i + 10000}\n" for i in range(1, 10001))):
        assert parse_graph_pinned(text) == parse_graph_pinned(text.replace("\n", "\r\n"))
        lf = _peak_bytes(parse_graph_pinned, text)
        line_loop = _peak_bytes(parse_graph_pinned, text.replace("\n", "\r\n"))
        assert lf <= 3 * line_loop, (text[:12], lf, line_loop)


def test_dense_route_allocates_no_more_than_the_sparse_one():
    # the benchmark's `tall` shape (k=240, t=20) at its seed-1 stream: one
    # chunk's tokens, the id table and the n² cells, against the line loop
    # that reads every sparse file
    p = next(iter(generate(GenSpec(k=240, t=20, seed=9, mode="planted-yes"), 1)))
    text = format_graph(p.graph)
    crlf = text.replace("\n", "\r\n")
    assert _dense(p.graph.n, text)
    assert _parse_canonical(text) == (p.graph, None) == parse_graph_pinned(crlf)
    dense = _peak_bytes(_parse_canonical, text)
    line_loop = _peak_bytes(parse_graph_pinned, crlf)
    assert dense <= line_loop, (dense, line_loop)


def test_format_round_trip():
    g = parse_graph_pinned("4 3\n1 2\n2 3\n1 4\n")[0]
    g2, pinned = parse_graph_pinned(format_graph(g, clique=(1, 2)))
    assert g2 == g and pinned == (1, 2)


@settings(max_examples=200, deadline=None)
@given(edge_sets(max_n=8), edge_sets(max_n=8))
def test_graph_api_against_plain_edge_set(case, other):
    n, edges = case
    g = Graph(n, edges)
    assert g.edges == edges
    for v in range(1, n + 1):
        expected = {u for e in edges if v in e for u in e if u != v}
        assert set(bits(g.masks[v])) == expected
    for u in range(0, n + 2):  # 0 and n+1 are out of range; u == v is never an edge
        for v in range(0, n + 2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    same = Graph(n, sorted(edges, reverse=True))
    assert same == g and hash(same) == hash(g)
    h = Graph(*other)
    assert (h == g) == (other == case)
    if other == case:
        assert hash(h) == hash(g)
    if n >= 2:
        toggled = edges ^ {(1, 2)}
        assert Graph(n, toggled) != g
    assert parse_graph_pinned(format_graph(g))[0] == g


# -- split partitions ------------------------------------------------------

def test_split_complete_graph():
    p = split_partition(complete_graph(4))
    assert sorted(p.clique) == [1, 2, 3, 4] and p.independent == ()


def test_split_c5_absent():
    g = cycle_graph(5)
    # brute force over all 2^5 bipartitions confirms C5 is not split
    assert bipartition_split_oracle(g) == []
    assert split_partition(g) is None


def test_split_star():
    g = Graph(4, frozenset({(1, 2), (1, 3), (1, 4)}))
    p = split_partition(g)
    assert p is not None
    # brute force agrees something exists, and any valid partition here has
    # the center plus one leaf as the clique
    assert bipartition_split_oracle(g)
    assert 1 in p.clique and len(p.clique) == 2 and len(p.independent) == 2


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7))
def test_split_partition_matches_bipartition_oracle(g):
    p = split_partition(g)
    assert (p is not None) == bool(bipartition_split_oracle(g))


@settings(max_examples=150, deadline=None)
@given(split_partitions())
def test_split_partition_finds_valid_partition_on_split_graphs(p):
    regained = split_partition(p.graph)
    assert regained is not None  # construction already validated invariants


# -- normalization ---------------------------------------------------------

def test_normalize_moves_dominating_vertex():
    g = Graph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    p = normalize_partition(g, [1, 2], [3])
    assert sorted(p.clique) == [1, 2, 3] and p.independent == ()


def test_normalize_fixpoint():
    g = Graph(3, frozenset({(1, 2), (2, 3)}))
    p = normalize_partition(g, [1, 2], [3])
    assert sorted(p.clique) == [1, 2] and p.independent == (3,)


def test_normalize_two_candidates_moves_smallest_only():
    # vertices 3 and 4 both adjacent to all of C = {1, 2}; they are not
    # adjacent to each other, so moving 3 disqualifies 4
    g = Graph(4, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)}))
    p = normalize_partition(g, [1, 2], [3, 4])
    assert sorted(p.clique) == [1, 2, 3] and p.independent == (4,)


def test_normalize_rejects_invalid_input():
    g = Graph(3, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        normalize_partition(g, [1, 3], [2])  # 1-3 not an edge


# -- twin reduction --------------------------------------------------------

def test_twin_reduce_triangle():
    red = twin_reduce(complete_graph(3))
    assert red.graph.n == 1 and len(red.removals) == 2


def test_twin_reduce_two_isolated():
    red = twin_reduce(Graph(2, frozenset()))
    assert red.graph.n == 1 and red.removals == ((1, 2),)


def test_twin_reduce_forbidden_configuration_unchanged():
    g = forbidden_configuration("a").graph
    # derived: no pair satisfies the twin condition
    for a, b in combinations(g.vertices(), 2):
        assert set(bits(g.masks[a])) - {b} != set(bits(g.masks[b])) - {a}
    red = twin_reduce(g)
    assert red.graph.n == g.n and red.removals == ()


def test_twin_reduce_confluent_final_size():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]))
        baseline = twin_reduce(g).graph.n
        # randomized removal order: repeatedly delete a random twin
        live = sorted(g.vertices())
        neigh = {v: set(bits(g.masks[v])) for v in live}
        while True:
            pairs = [
                (a, b)
                for a, b in combinations(live, 2)
                if neigh[a] - {b} == neigh[b] - {a}
            ]
            if not pairs:
                break
            a, b = rng.choice(pairs)
            drop = rng.choice([a, b])
            live.remove(drop)
            for v in neigh[drop]:
                neigh[v].discard(drop)
            del neigh[drop]
        assert len(live) == baseline


# -- induced subgraphs -----------------------------------------------------

def test_induced_full_set_is_copy():
    g = Graph(4, frozenset({(1, 2), (3, 4)}))
    sub, mapping = induced_subgraph(g, [1, 2, 3, 4])
    assert sub == g and mapping == {1: 1, 2: 2, 3: 3, 4: 4}


def test_induced_pair_of_k4():
    sub, _ = induced_subgraph(complete_graph(4), [2, 4])
    assert sub.n == 2 and sub.edges == frozenset({(1, 2)})


def test_induced_deletion_filters_edges():
    g = forbidden_configuration("b").graph
    keep = [v for v in g.vertices() if v != 4]
    sub, mapping = induced_subgraph(g, keep)
    back = {new: old for new, old in mapping.items()}
    expected = {(u, v) for u, v in g.edges if 4 not in (u, v)}
    got = {tuple(sorted((mapping[u], mapping[v]))) for u, v in sub.edges}
    assert got == expected and sub.n == 6


def test_induced_rejects_foreign_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(complete_graph(3), [1, 5])


# -- neighborhood matrix ---------------------------------------------------

def test_neighborhood_matrix_interval_system():
    p = split_graph_from_types([{1}, {1, 2}, {2, 3}, {3}], 3)
    m = neighborhood_matrix(p)
    assert m.m == 4 and m.n == 3
    assert [set(bits(c)) for c in m.columns] == [{1, 2}, {2, 3}, {3, 4}]


def test_neighborhood_matrix_empty_independent():
    p = split_graph_from_types([set(), set()], 0)
    m = neighborhood_matrix(p)
    assert (m.m, m.n) == (2, 0)


def test_neighborhood_matrix_singleton_types():
    # clique types {a}, {b}, {c}, {a,b,c}: columns (1001), (0101), (0011)
    p = forbidden_configuration("c")
    m = neighborhood_matrix(p)
    assert [set(bits(c)) for c in m.columns] == [{1, 4}, {2, 4}, {3, 4}]


def test_neighborhood_matrix_any_clique_order():
    # pinned cliques in ascending, reversed and shuffled order, with gaps in
    # their ids, vertices that normalize_partition appends, t = 0 and
    # independent vertices without clique neighbors
    rng = random.Random(7)
    orders = {"ascending": sorted, "reversed": lambda c: sorted(c, reverse=True),
              "shuffled": lambda c: rng.sample(c, len(c))}
    seen = {"appended": 0, "t=0": 0, "empty": 0, "gaps": 0}
    for _ in range(400):
        n = rng.randint(1, 40)
        clique = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        independent = [v for v in range(1, n + 1) if v not in clique]
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        edges = set(combinations(clique, 2))
        edges |= {(min(u, v), max(u, v)) for v in independent for u in clique if rng.random() < density}
        g = Graph(n, edges)
        for name, order in orders.items():
            p = normalize_partition(g, order(clique), independent)
            mtx = neighborhood_matrix(p)
            assert mtx.columns == neighborhood_columns_reference(p), (name, format_graph(g, p.clique))
            assert (mtx.m, mtx.n) == (p.k, p.t)
            seen["appended"] += p.k > len(clique)
            seen["t=0"] += p.t == 0
            seen["empty"] += 0 in mtx.columns
            seen["gaps"] += max(p.clique) - min(p.clique) >= p.k
    assert min(seen.values()) >= 30, seen
