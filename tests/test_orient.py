import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from semitrans import (
    Graph,
    Orientation,
    SizeGuardError,
    find_shortcut,
    format_orientation,
    induced_subgraph,
    is_acyclic,
    is_semi_transitive_orientation,
    oracle_semi_transitive,
    orient_by_order,
    parse_orientation,
    recognize,
    twin_reduce,
)
from semitrans.generate import GenSpec, forbidden_configuration, generate
from semitrans.graphs import _dense, _read_pairs

from oracles import (
    assert_shortcut_witness,
    has_cycle_by_peeling,
    naive_semi_transitive_oracle,
    random_graph,
    reference_parse_orientation,
    shortcut_by_path_enumeration,
)
from graph_texts import NEGATIVE_HEADERS, ORIENTATION_EDITS, line_number, orientation_text
from strategies import graphs


def complete_graph(n):
    return Graph(n, frozenset(combinations(range(1, n + 1), 2)))


def orientation(n, arcs):
    edges = frozenset((min(u, v), max(u, v)) for u, v in arcs)
    return Orientation(Graph(n, edges), frozenset(arcs))


# -- orient_by_order / acyclicity -------------------------------------------

def test_orient_triangle_by_identity():
    o = orient_by_order(complete_graph(3), [1, 2, 3])
    assert o.arcs == frozenset({(1, 2), (1, 3), (2, 3)})


def test_orient_edgeless():
    o = orient_by_order(Graph(3, frozenset()), [3, 1, 2])
    assert o.arcs == frozenset()


def test_orient_path_middle_first():
    g = Graph(3, frozenset({(1, 2), (2, 3)}))
    o = orient_by_order(g, [2, 1, 3])
    assert o.arcs == frozenset({(2, 1), (2, 3)})


def test_orient_rejects_non_permutation():
    with pytest.raises(ValueError):
        orient_by_order(complete_graph(3), [1, 2, 2])


def test_cycle_not_acyclic():
    o = orientation(3, [(1, 2), (2, 3), (3, 1)])
    assert not is_acyclic(o)


def test_empty_orientation_acyclic():
    assert is_acyclic(Orientation(Graph(2, frozenset()), frozenset()))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6))
def test_orderings_always_acyclic(g):
    order = sorted(g.vertices(), reverse=True)
    assert is_acyclic(orient_by_order(g, order))


# -- shortcut detection ------------------------------------------------------

def test_minimal_shortcut_witness():
    o = orientation(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    w = find_shortcut(o)
    assert w is not None
    assert w.path == (1, 2, 3, 4)
    assert w.closing == (1, 4)
    assert w.missing == (1, 3)


def test_transitive_tournament_has_no_shortcut():
    o = orient_by_order(complete_graph(4), [1, 2, 3, 4])
    assert find_shortcut(o) is None


def test_open_path_is_fine():
    o = orientation(3, [(1, 2), (2, 3)])
    assert find_shortcut(o) is None


def test_find_shortcut_raises_on_cycle():
    o = orientation(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        find_shortcut(o)


def test_is_semi_transitive_examples():
    assert not is_semi_transitive_orientation(orientation(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    assert is_semi_transitive_orientation(orient_by_order(complete_graph(4), [1, 2, 3, 4]))
    assert is_semi_transitive_orientation(orientation(3, [(1, 2), (2, 3)]))
    assert not is_semi_transitive_orientation(orientation(3, [(1, 2), (2, 3), (3, 1)]))


def _random_acyclic_orientation(rng, n, density):
    g = random_graph(rng, n, density)
    order = rng.sample(sorted(g.vertices()), n)
    return orient_by_order(g, order)


def test_pair_criterion_equals_path_enumeration():
    rng = random.Random(11)
    # exhaustive over n <= 4 (all graphs, all orders), random up to n = 6
    for n in range(1, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1))
            for order in permutations(range(1, n + 1)):
                o = orient_by_order(g, order)
                assert (find_shortcut(o) is not None) == shortcut_by_path_enumeration(o)
    for _ in range(300):
        o = _random_acyclic_orientation(rng, rng.choice([5, 6]), rng.choice([0.3, 0.5, 0.8]))
        assert (find_shortcut(o) is not None) == shortcut_by_path_enumeration(o)


def test_witness_invariants_on_random_orientations():
    rng = random.Random(23)
    found = 0
    while found < 60:
        o = _random_acyclic_orientation(rng, rng.choice([5, 6, 7]), 0.5)
        w = find_shortcut(o)
        if w is None:
            continue
        found += 1
        assert_shortcut_witness(o, w)


def test_one_arc_flips_of_planted_orientations_against_path_enumeration():
    # a flipped arc of a shortcut-free orientation often leaves a single
    # shortcut, the case an existence test can miss
    flips = {True: 0, False: 0}
    for seed in range(60):
        rng = random.Random(seed)
        spec = GenSpec(k=rng.randint(3, 7), t=rng.randint(1, 4), density=0.5,
                       seed=seed, mode="planted-yes")
        p = next(generate(spec, count=1))
        arcs = recognize(p).orientation.arcs
        for u, v in sorted(arcs):
            o = Orientation(p.graph, arcs - {(u, v)} | {(v, u)})
            if not is_acyclic(o):
                continue
            expected = shortcut_by_path_enumeration(o)
            assert (find_shortcut(o) is not None) == expected, (seed, (u, v))
            assert is_semi_transitive_orientation(o) == (not expected), (seed, (u, v))
            flips[expected] += 1
    assert flips[True] >= 50 and flips[False] >= 50, flips


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_against_path_enumeration_on_random_orientations(seed):
    # random acyclic orientations with n <= 11, every other one with one arc
    # flipped (which may close a cycle), empty and edgeless graphs included
    rng = random.Random(seed)
    seen = {"shortcut": 0, "free": 0, "cyclic": 0, "empty": 0, "edgeless": 0}
    for trial in range(3000):
        o = _random_acyclic_orientation(rng, rng.randint(0, 11), rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
        if trial % 2 and o.arcs:
            u, v = rng.choice(sorted(o.arcs))
            o = Orientation(o.graph, o.arcs - {(u, v)} | {(v, u)})
        seen["empty"] += o.graph.n == 0
        seen["edgeless"] += o.graph.n > 0 and not o.arcs
        if has_cycle_by_peeling(o):
            assert not is_acyclic(o) and not is_semi_transitive_orientation(o)
            with pytest.raises(ValueError):
                find_shortcut(o)
            seen["cyclic"] += 1
            continue
        expected = shortcut_by_path_enumeration(o)
        w = find_shortcut(o)
        assert is_acyclic(o)
        assert (w is not None) == expected == (not is_semi_transitive_orientation(o)), sorted(o.arcs)
        if w is not None:
            assert_shortcut_witness(o, w)
        seen["shortcut" if expected else "free"] += 1
    assert min(seen.values()) >= 20 and seen["shortcut"] >= 500 and seen["free"] >= 500, seen


def test_reversal_preserves_semi_transitivity():
    rng = random.Random(5)
    for _ in range(120):
        o = _random_acyclic_orientation(rng, rng.choice([4, 5, 6]), 0.6)
        reverse = Orientation(o.graph, frozenset((v, u) for u, v in o.arcs))
        assert is_semi_transitive_orientation(o) == is_semi_transitive_orientation(reverse)


# -- oracle ------------------------------------------------------------------

def test_oracle_complete_graph():
    o = oracle_semi_transitive(complete_graph(5))
    assert o is not None and is_semi_transitive_orientation(o)


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_oracle_rejects_forbidden_configurations(case):
    g = forbidden_configuration(case).graph
    assert oracle_semi_transitive(g) is None
    assert oracle_semi_transitive(g, reduce_twins=False) is None


def test_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        oracle_semi_transitive(Graph(10, frozenset()), max_vertices=9)
    assert oracle_semi_transitive(Graph(10, frozenset()), max_vertices=10) is not None


def test_oracle_matches_naive_enumeration_exactly():
    rng = random.Random(77)
    for n in range(0, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1))
            mine = oracle_semi_transitive(g, reduce_twins=False)
            naive = naive_semi_transitive_oracle(g)
            assert (mine is None) == (naive is None)
            if mine is not None:
                assert mine.arcs == naive.arcs  # identical first hit
    for _ in range(80):
        g = random_graph(rng, rng.choice([5, 6]), rng.choice([0.3, 0.5, 0.7]))
        mine = oracle_semi_transitive(g, reduce_twins=False)
        naive = naive_semi_transitive_oracle(g)
        assert (mine is None) == (naive is None)
        if mine is not None:
            assert mine.arcs == naive.arcs


def test_oracle_twin_reduction_agrees_with_raw_search():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.choice([5, 6, 7]), rng.choice([0.3, 0.5, 0.7]))
        fast = oracle_semi_transitive(g)
        raw = oracle_semi_transitive(g, reduce_twins=False)
        assert (fast is None) == (raw is None)
        if fast is not None:
            assert is_semi_transitive_orientation(fast)


def test_oracle_orientations_pinned():
    # the twin-reduced oracle extends the order found for the reduced graph
    # back to every twin; this pins the orientation it returns, not only its
    # validity.  Many of these graphs have twins, and in some a keeper is
    # itself removed later, so a twin must be placed after a removed vertex
    rng = random.Random(14)
    digest = hashlib.sha256()
    twins = chained = 0
    for _ in range(4000):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6, 0.8)))
        removals = twin_reduce(g).removals
        twins += bool(removals)
        chained += any(keeper == gone for keeper, _ in removals for _, gone in removals)
        o = oracle_semi_transitive(g)
        digest.update(repr(None if o is None else sorted(o.arcs)).encode())
    assert twins >= 2000 and chained >= 500
    assert digest.hexdigest() == "bcc3dea37fd4e1bcc00337fcfa1469b6d34727474a1d7024709256a876af3804"


def test_semi_transitivity_invariant_under_twin_reduce():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, rng.choice([5, 6, 7]), rng.choice([0.4, 0.6]))
        red = twin_reduce(g)
        a = oracle_semi_transitive(g, reduce_twins=False) is not None
        b = oracle_semi_transitive(red.graph, reduce_twins=False) is not None
        assert a == b


def test_semi_transitivity_is_hereditary():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, 6, rng.choice([0.4, 0.6]))
        if oracle_semi_transitive(g) is None:
            continue
        for drop in g.vertices():
            sub, _ = induced_subgraph(g, [v for v in g.vertices() if v != drop])
            assert oracle_semi_transitive(sub) is not None


# -- orientation files -------------------------------------------------------

def test_orientation_round_trip():
    o = orientation(4, [(1, 2), (3, 2), (3, 4)])
    back = parse_orientation(format_orientation(o))
    assert back == o


def test_parse_orientation_compact_arrows():
    o = parse_orientation("2 1\n1>2\n")
    assert o.arcs == frozenset({(1, 2)})


@pytest.mark.parametrize("arcs,message", [
    ({(1, 2), (1, 3)}, "arc (1, 3) is not an edge of the base graph"),
    ({(1, 2), (2, 2)}, "arc (2, 2) is not an edge of the base graph"),
    ({(1, 2), (2, 3), (3, 4)}, "arc (3, 4) is not an edge of the base graph"),
    ({(1, 2), (0, 1)}, "arc (0, 1) is not an edge of the base graph"),
    ({(1, 2), (2, 0)}, "arc (2, 0) is not an edge of the base graph"),
    ({(1, 2), (-1, 3)}, "arc (-1, 3) is not an edge of the base graph"),
    ({(1, 2), (2, 3), (3, 2)}, "edge (2, 3) oriented twice"),
    ({(1, 2)}, "some edges are missing a direction"),
    (set(), "some edges are missing a direction"),
])
def test_orientation_rejects_non_orientations(arcs, message):
    g = Graph(3, {(1, 2), (2, 3)})
    with pytest.raises(ValueError) as exc:
        Orientation(g, frozenset(arcs))
    assert str(exc.value) == message


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7))
def test_out_masks_against_plain_arc_set(g):
    # orient_by_order builds masks directly; the arc-set constructor, the
    # derived arcs and has_arc must all agree with arcs taken edge by edge
    order = sorted(g.vertices(), key=lambda v: (v * 5) % 7)
    pos = {v: i for i, v in enumerate(order)}
    expected = {(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges}
    o = orient_by_order(g, order)
    assert o.arcs == expected
    assert o.out[0] == 0 and len(o.out) == g.n + 1
    for u in g.vertices():
        assert o.out[u] == sum(1 << (v - 1) for x, v in expected if x == u)
        for v in range(0, g.n + 2):
            assert o.has_arc(u, v) == ((u, v) in expected)
    assert Orientation(g, frozenset(expected)) == o
    assert hash(Orientation(g, frozenset(expected))) == hash(o)


def test_parse_orientation_errors():
    with pytest.raises(ValueError):
        parse_orientation("2 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_orientation("2 2\n1 > 2\n2 > 1\n")
    # full messages; line numbers count blank and comment lines too
    cases = {
        "": "line 1: empty input",
        "# c\n\n2 1\n\n1 > 1\n": "line 5: self-loop at 1",
        "2 x\n": "line 1: non-integer header",
        "# c\n2.0 1\n": "line 2: non-integer header",
        "\n2 1 0\n": "line 2: expected header 'n m'",
        "2 1\n1 > x\n": "line 2: non-integer vertex id",
        "2 1\r\n# c\r\n1 < 2\r\n": "line 3: expected 'u > v'",
        "2 1\n\n1 > 3\n": "line 3: vertex out of range 1..2",
        "3 2\n1 > 2\n# c\n2 > 1\n": "line 4: edge (1, 2) oriented twice",
        "2 2\n1 > 2\n": "expected 2 arcs, found 1",
        **NEGATIVE_HEADERS,
    }
    for text, message in cases.items():
        with pytest.raises(ValueError) as exc:
            parse_orientation(text)
        assert str(exc.value) == message, text
        assert getattr(exc.value, "line_no", None) == line_number(message), text


DROP_DIGITS = str.maketrans("", "", "0123456789")


def test_parse_orientation_matches_reference_parser():
    rng = random.Random(12)
    outcomes = set()
    for edit in ORIENTATION_EDITS:
        for _ in range(150):
            text = orientation_text(rng, edit)
            expected = reference_parse_orientation(text)
            try:
                o = parse_orientation(text)
                got = (o.graph.n, o.graph.masks, o.out)
            except ValueError as exc:
                got = str(exc)
            assert got == expected, text
            outcomes.add(expected.split(": ", 1)[-1].translate(DROP_DIGITS) if isinstance(expected, str) else "ok")
            # the pair reader takes every dense file in the layout, in any arc
            # order, and leaves every file with a respelled id to the line loop
            if edit in ("none", "shuffled") and text.endswith("\n") and _dense(expected[0], text):
                n, out, masks, tail = _read_pairs(text, " > ")
                assert (n, masks, tuple(out), tail) == (*expected, None), text
            elif edit == "leading-zero" and _dense(expected[0], text):
                assert _read_pairs(text, " > ") is None, text
    assert len(outcomes) >= 8, outcomes  # accepted files and every error branch of the line loop
