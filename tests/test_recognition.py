import gc
import random
from graphlib import TopologicalSorter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from semitrans import (
    Graph,
    Labeling,
    Orientation,
    Shape,
    check_small_I,
    construct_orientation,
    decide_labeling,
    enumerate_labelings_oracle,
    find_forbidden_subgraph,
    find_shortcut,
    has_circular_ones,
    induced_subgraph,
    is_acyclic,
    is_semi_transitive_orientation,
    neighborhood_matrix,
    oracle_semi_transitive,
    prune_trivial_columns,
    recognize,
    render_decision,
    split_partition,
    validate_labeling,
)
from semitrans.generate import (
    GenSpec, forbidden_configuration, generate, planted_yes_masks, split_graph_from_types, stream_for_instance,
)
from semitrans.graphs import bits, format_graph, normalize_partition, parse_graph_pinned
from semitrans.recognition import _labeling_shapes, intersection_matrix_from_masks, shapes_under_order

from oracles import (
    assert_shortcut_witness,
    enumerate_valid_perms,
    forbidden_subgraph_reference,
    shape_reference,
    validate_matrix_form,
)
from strategies import split_partitions


def interval_system():
    # clique 1..4; independent neighborhoods {1,2}, {2,3}, {3,4}
    return split_graph_from_types([{1}, {1, 2}, {2, 3}, {3}], 3)


def pair_matrix(p):
    """The intersection matrix of p's neighborhoods, columns labeled by independent pairs."""
    return intersection_matrix_from_masks(p.k, neighborhood_matrix(p).columns, p.independent)


def labeling_shapes(p, labeling):
    return _labeling_shapes(p, labeling, neighborhood_matrix(p).columns)


# -- intersection matrix -----------------------------------------------------

def test_intersection_matrix_columns():
    p = split_graph_from_types([{1}, {1, 2}, {2}], 2)
    m = pair_matrix(p)
    assert (m.m, m.n) == (3, 3)
    by_label = {lab: m.columns[j] for j, lab in enumerate(m.labels)}
    va, vb = p.independent
    assert by_label[(va, va)] == 0b011   # rows 1, 2
    assert by_label[(va, vb)] == 0b010   # row 2
    assert by_label[(vb, vb)] == 0b110   # rows 2, 3


def test_intersection_matrix_no_independent():
    p = split_graph_from_types([set(), set(), set()], 0)
    m = pair_matrix(p)
    assert (m.m, m.n) == (3, 0)


def test_intersection_matrix_column_count():
    p = split_graph_from_types([{1, 2, 3}, {1, 2}, {2, 3}, set()], 3)
    assert pair_matrix(p).n == 6  # (t^2 + t) / 2 for t = 3


def test_prune_trivial_columns():
    p = split_graph_from_types([{1}, {2}, {3}], 3)
    m = pair_matrix(p)
    assert prune_trivial_columns(m).n == 0  # all unit columns
    q = pair_matrix(interval_system())
    pruned = prune_trivial_columns(q)
    assert pruned.n < q.n
    assert all(c.bit_count() >= 2 for c in pruned.columns)
    assert len(pruned.labels) == pruned.n


def test_prune_keeps_heavy_matrix_unchanged():
    p = split_graph_from_types([{1, 2}, {1, 2}, {1, 2}], 2)
    m = pair_matrix(p)
    assert prune_trivial_columns(m) == m


# -- shapes ------------------------------------------------------------------

def test_shape_interval():
    p = split_graph_from_types([set(), {1}, {1}, {1}, set()], 1)
    lab = Labeling(p.clique)
    assert labeling_shapes(p, lab)[0] == Shape("interval", 2, 4)


def test_shape_wrapped():
    p = split_graph_from_types([{1}, set(), set(), set(), {1}], 1)
    lab = Labeling(p.clique)
    assert labeling_shapes(p, lab)[0] == Shape("wrapped", 1, 5)


def test_shape_violation():
    p = split_graph_from_types([{1}, set(), {1}, set()], 1)
    lab = Labeling(p.clique)
    assert labeling_shapes(p, lab)[0] is None


def test_shape_empty():
    p = split_graph_from_types([{1}, set()], 2)
    lab = Labeling(p.clique)
    assert labeling_shapes(p, lab)[1] == Shape("empty")


def test_shapes_under_order_match_reference():
    # every position set for k <= 10 under the identity row order
    for k in range(11):
        masks = range(1 << k)
        assert shapes_under_order(k, masks, range(1, k + 1)) == [shape_reference(k, bits(m)) for m in masks]
    # seeded masks at the benchmark's (k, t): planted YES masks under the
    # pipeline's row order, and circular runs and random masks under a shuffled one
    rng = random.Random(17)
    kinds = set()
    for k, t in ((40, 48), (240, 20), (72, 16)):
        yes = planted_yes_masks(stream_for_instance(17, k), k, t)
        shuffled = rng.sample(range(1, k + 1), k)
        runs = [sum(1 << (shuffled[(start + i) % k] - 1) for i in range(length))
                for start, length in ((rng.randrange(k), rng.randint(1, k)) for _ in range(t))]
        noise = [rng.getrandbits(k) for _ in range(t)]
        for masks, order in ((yes, decide_labeling(k, yes)), (runs + noise + [0, (1 << k) - 1], shuffled)):
            position = {r: p for p, r in enumerate(order, start=1)}
            shapes = shapes_under_order(k, masks, order)
            assert shapes == [shape_reference(k, (position[r] for r in bits(m))) for m in masks]
            kinds |= {s.kind if s is not None else None for s in shapes}
    assert kinds == {"empty", "interval", "wrapped", None}


# -- labeling validation -------------------------------------------------------

def test_validate_six_type_order():
    # one clique vertex per nonempty proper type, labeled in the canonical
    # circular order; all three conditions hold
    p = split_graph_from_types([{1}, {1, 2}, {2}, {2, 3}, {3}, {1, 3}], 3)
    lab = Labeling(p.clique)  # construction order is already that circular order
    report = validate_labeling(p, lab)
    assert report.ok, report.violations


def test_validate_condition2_violation():
    # interval [1,4] against wrapped [1,2] u [4,6]
    p = split_graph_from_types(
        [{1, 2}, {1, 2}, {1}, {1, 2}, {2}, {2}], 2
    )
    lab = Labeling(p.clique)
    report = validate_labeling(p, lab)
    assert not report.ok
    assert any(v.condition == 2 for v in report.violations)


def test_validate_condition3_violation():
    # wrapped [1,3] u [5,6] against wrapped [1,1] u [3,6]
    p = split_graph_from_types(
        [{1, 2}, {1}, {1, 2}, {2}, {1, 2}, {1, 2}], 2
    )
    lab = Labeling(p.clique)
    report = validate_labeling(p, lab)
    assert not report.ok
    assert any(v.condition == 3 for v in report.violations)


def test_validate_reports_shape_violation_vertex():
    p = split_graph_from_types([{1}, set(), {1}, set()], 1)
    report = validate_labeling(p, Labeling(p.clique))
    assert not report.ok
    assert report.violations[0].condition == 1
    assert report.violations[0].vertices == (p.independent[0],)


def test_validate_rejects_non_bijection():
    p = interval_system()
    with pytest.raises(ValueError):
        validate_labeling(p, Labeling((1, 1, 2, 3)))


# -- matrix-form validation ------------------------------------------------------

def test_matrix_form_rejects_pair_cover_configuration():
    # neighborhoods {1,2,4}, {1,3,4}, {2,3,4}: no permutation passes (the
    # all-pairs-plus-top configuration), exhaustively over 24 permutations
    p = forbidden_configuration("b")
    m = neighborhood_matrix(p)
    for perm in permutations(range(1, 5)):
        assert not validate_matrix_form(m, perm)


def test_matrix_form_accepts_interval_system():
    p = interval_system()
    m = neighborhood_matrix(p)
    assert validate_matrix_form(m, (1, 2, 3, 4))


def test_matrix_form_accepts_example_matrix_identity():
    from test_matrices import example_matrix

    m = example_matrix(4)
    assert validate_matrix_form(m, (1, 2, 3, 4))


def test_matrix_form_equals_labeling_conditions():
    # the matrix-level form and the three labeling conditions agree on every
    # permutation of every exhaustive profile
    count = 0
    for p in generate(GenSpec(k=4, t=3, mode="exhaustive")):
        m = neighborhood_matrix(p)
        row_of = {u: r + 1 for r, u in enumerate(p.clique)}
        for order in permutations(p.clique):
            perm = tuple(row_of[u] for u in order)
            assert validate_labeling(p, Labeling(order)).ok == validate_matrix_form(m, perm)
            count += 1
    assert count > 1000


# -- orientation construction ------------------------------------------------------

def test_construct_wrapped_vertex_orientation():
    p = split_graph_from_types([{1}, set(), {1}], 1)
    lab = Labeling(p.clique)
    o = construct_orientation(p, lab)
    v = p.independent[0]
    assert o.arcs == frozenset({(1, 2), (1, 3), (2, 3), (1, v), (v, 3)})
    assert find_shortcut(o) is None


def test_construct_interval_vertices_are_sources():
    p = interval_system()
    o = construct_orientation(p, Labeling(p.clique))
    for v in p.independent:
        for u in bits(p.graph.masks[v]):
            assert o.has_arc(v, u)
    assert is_semi_transitive_orientation(o)


def test_construct_empty_independent_gives_tournament():
    p = split_graph_from_types([set(), set(), set()], 0)
    o = construct_orientation(p, Labeling(p.clique))
    assert o.arcs == frozenset({(1, 2), (1, 3), (2, 3)})
    assert is_semi_transitive_orientation(o)


def test_construct_rejects_invalid_labeling():
    p = split_graph_from_types([{1}, set(), {1}, set()], 1)
    with pytest.raises(ValueError):
        construct_orientation(p, Labeling(p.clique))


def test_reversed_construction_also_semi_transitive():
    # reversing a constructed orientation turns every interval source into a
    # sink, which is the other legal attachment; both must verify
    rng = random.Random(71)
    for _ in range(40):
        k, t = rng.randint(2, 6), rng.randint(1, 3)
        types = [{i for i in range(1, t + 1) if rng.random() < 0.5} for _ in range(k)]
        p = split_graph_from_types(types, t)
        d = recognize(p)
        if d.semi_transitive:
            reverse = Orientation(p.graph, frozenset((v, u) for u, v in d.orientation.arcs))
            assert is_semi_transitive_orientation(reverse)


# -- recognize -----------------------------------------------------------------

def test_recognize_interval_system():
    p = interval_system()
    d = recognize(p)
    assert d.semi_transitive and d.verified
    assert validate_labeling(p, Labeling(p.clique)).ok  # identity is also valid
    assert is_semi_transitive_orientation(d.orientation)


@pytest.mark.parametrize("case", ["a", "b", "c"])
def test_recognize_rejects_forbidden_configurations(case):
    d = recognize(forbidden_configuration(case))
    assert not d.semi_transitive
    # small independent set: the refutation is the explicit witness
    assert d.refutation.kind == f"case-{case}"
    assert d.refutation.vertices == tuple(range(1, 8))


def test_recognize_reports_matrix_refutation_for_wider_independent_sets():
    # a forbidden configuration plus an isolated independent vertex: t = 4,
    # so the refutation stays at the matrix level
    p = split_graph_from_types([{1, 2}, {1, 3}, {2, 3}, set()], 4)
    assert p.t == 4
    d = recognize(p)
    assert not d.semi_transitive
    assert d.refutation.kind == "circ1p-fail"


def test_recognize_small_independent_always_yes():
    rng = random.Random(2)
    for _ in range(150):
        k = rng.randint(1, 6)
        types = [
            {i for i in (1, 2) if rng.random() < 0.6 and i <= 2}
            for _ in range(k)
        ]
        p = split_graph_from_types(types, 2)
        assert recognize(p).semi_transitive


def test_recognize_no_verify_skips_orientation():
    d = recognize(interval_system(), verify=False)
    assert d.semi_transitive and not d.verified and d.orientation is None
    assert d.labeling is not None


def test_decide_labeling_empty_cases():
    assert decide_labeling(0, []) == ()
    assert decide_labeling(3, []) is not None


def test_decide_labeling_matches_the_composed_pipeline():
    # the fused column pass must give the frontier, or None, of the matrix
    # stages run one after the other
    rng = random.Random(19)
    yes = 0
    for case in range(3000):
        k, t = rng.randint(0, 40), rng.randint(0, 30)
        full = (1 << k) - 1
        if case % 3 == 0:
            masks = planted_yes_masks(stream_for_instance(19, case), k, t)
        elif case % 3 == 1:  # sparse, even or dense random masks, some empty or full
            draw = rng.choice([lambda: rng.getrandbits(k) & rng.getrandbits(k), lambda: rng.getrandbits(k),
                               lambda: rng.getrandbits(k) | rng.getrandbits(k)])
            masks = [rng.choice([0, full]) if rng.random() < 0.1 else draw() for _ in range(t)]
        else:  # duplicate-heavy: t draws from a pool of a few masks with the empty and the full one
            pool = [0, full] + [rng.getrandbits(k) for _ in range(rng.randint(1, 4))]
            masks = [rng.choice(pool) for _ in range(t)]
        expected = has_circular_ones(prune_trivial_columns(intersection_matrix_from_masks(k, masks)))
        assert decide_labeling(k, masks) == expected, (k, masks)
        yes += expected is not None
    assert 1000 < yes < 2500  # both answers are well represented


def test_decide_labeling_rejects_masks_outside_its_rows():
    for masks in ([0b11, -1], [-4], [0b11, 1 << 3], [0b1111]):
        with pytest.raises(ValueError, match="column mask out of range for row count"):
            decide_labeling(3, masks)


def test_decisions_leave_no_cyclic_garbage():
    # a PQ tree holds no reference cycle, so every decision's tree is freed
    # when it is dropped; under DEBUG_SAVEALL the cyclic collector keeps
    # whatever it would have freed in gc.garbage
    from semitrans.generate import planted_yes_masks, stream_for_instance
    from semitrans.pqtree import _Node

    yes = [planted_yes_masks(stream_for_instance(16, i), 40, 48) for i in range(4)]
    no = next(generate(GenSpec(k=40, t=20, seed=16, mode="planted-no")))
    no_masks = neighborhood_matrix(no).columns
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert all(decide_labeling(40, masks) is not None for masks in yes)
        assert decide_labeling(no.k, no_masks) is None
        gc.collect()
        nodes = sum(isinstance(obj, _Node) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert nodes == 0


def test_recognize_empty_graph():
    p = split_partition(Graph(0, frozenset()))
    d = recognize(p)
    assert d.semi_transitive and d.labeling.order == () and d.orientation.arcs == frozenset()


def test_render_decision_formats():
    d = recognize(interval_system())
    text = render_decision(d)
    assert text.startswith("SEMI-TRANSITIVE\nlabeling: ")
    assert "orientation:" in text
    machine = render_decision(d, machine=True)
    assert machine.startswith("outcome=semi-transitive\n")
    assert "verified=true" in machine
    nd = recognize(forbidden_configuration("a"))
    assert "witness: case-a 1 2 3 4 5 6 7" in render_decision(nd)
    machine_no = render_decision(nd, machine=True)
    assert "witness=case-a" in machine_no and "vertices=1 2 3 4 5 6 7" in machine_no
    wide = recognize(split_graph_from_types([{1, 2}, {1, 3}, {2, 3}, set()], 4))
    assert "witness: circ1p-fail" in render_decision(wide)
    assert "witness=circ1p-fail" in render_decision(wide, machine=True)


# -- labeling oracle --------------------------------------------------------------

def test_labeling_oracle_absent_on_forbidden():
    assert enumerate_labelings_oracle(forbidden_configuration("b")) is None


def test_labeling_oracle_finds_interval_system():
    p = interval_system()
    lab = enumerate_labelings_oracle(p)
    assert lab is not None and validate_labeling(p, lab).ok


def test_labeling_oracle_empty_independent():
    p = split_graph_from_types([set(), set(), set()], 0)
    lab = enumerate_labelings_oracle(p)
    assert lab is not None and lab.order == p.clique  # first permutation works


# -- small independent sets ---------------------------------------------------------

@pytest.mark.parametrize("case,tag", [("a", "case-a"), ("b", "case-b"), ("c", "case-c")])
def test_check_small_I_rejects_with_witness(case, tag):
    p = forbidden_configuration(case)
    d = check_small_I(p)
    assert not d.semi_transitive
    assert d.refutation.kind == tag
    assert d.refutation.vertices == tuple(sorted(p.graph.vertices()))


def test_check_small_I_six_type_order():
    p = split_graph_from_types([{1}, {1, 2}, {2}, {2, 3}, {3}, {1, 3}], 3)
    d = check_small_I(p)
    assert d.semi_transitive
    assert d.labeling.order == p.clique  # already a circular order, which the pipeline keeps
    assert is_semi_transitive_orientation(d.orientation)


def test_check_small_I_guard():
    p = split_graph_from_types([{1}, {2}, {3}, {4}], 4)
    with pytest.raises(ValueError):
        check_small_I(p)


def test_check_small_I_handles_duplicate_types():
    p = split_graph_from_types([{1, 2}, {1, 2}, {1}, set()], 3)
    d = check_small_I(p)
    assert d.semi_transitive and is_semi_transitive_orientation(d.orientation)


def test_check_small_I_agrees_with_recognize_exhaustively():
    all_types = [frozenset(s) for r in range(4) for s in combinations((1, 2, 3), r)]
    for bits in range(1, 256):
        profile = [set(ty) for i, ty in enumerate(all_types) if (bits >> i) & 1]
        p = split_graph_from_types(profile, 3)
        if p.t > 3:
            continue
        assert check_small_I(p).semi_transitive == recognize(p).semi_transitive


# -- forbidden subgraph search ---------------------------------------------------------

def test_find_forbidden_in_itself():
    for case in ("a", "b", "c"):
        g = forbidden_configuration(case).graph
        found = find_forbidden_subgraph(g)
        assert found == (f"case-{case}", tuple(range(1, 8)))


def test_find_forbidden_absent_for_small_independent():
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randint(1, 5)
        types = [{i for i in (1, 2) if rng.random() < 0.5} for _ in range(k)]
        p = split_graph_from_types(types, 2)
        assert find_forbidden_subgraph(p.graph) is None


def test_find_forbidden_with_padding_vertex():
    base = forbidden_configuration("a")
    # an extra clique vertex adjacent to nothing of the independent set
    types = [{1, 2}, {1, 3}, {2, 3}, set(), set()]
    p = split_graph_from_types(types, 3)
    found = find_forbidden_subgraph(p.graph)
    assert found is not None and found[0] == "case-a"
    # heredity: the padded graph is itself non-semi-transitive
    assert oracle_semi_transitive(p.graph, max_vertices=12) is None
    assert not recognize(p).semi_transitive
    # and the witness vertices induce a subgraph rejected by the oracle
    sub, _ = induced_subgraph(p.graph, found[1])
    assert oracle_semi_transitive(sub) is None
    assert base.graph.n == 7


def test_find_forbidden_matches_all_triples_scan():
    # the search reads the independent side of one split partition, the
    # reference every vertex triple; shuffled ids put the two sides in any
    # order.  check_small_I must give the same witness when t <= 3
    rng = random.Random(8)
    found = 0
    for idx in range(2000):
        k, t = rng.randint(1, 8), rng.randint(0, 6)
        mode = "planted-no" if idx % 3 == 0 and k >= 4 and t >= 3 else "random"
        p = next(generate(GenSpec(k=k, t=t, density=rng.choice((0.3, 0.5, 0.7)), seed=idx, mode=mode)))
        ids = rng.sample(range(1, p.graph.n + 1), p.graph.n)
        g = Graph(p.graph.n, [tuple(sorted((ids[u - 1], ids[v - 1]))) for u, v in p.graph.edges])
        expected = forbidden_subgraph_reference(g)
        assert find_forbidden_subgraph(g) == expected
        q = split_partition(g)
        if q.t <= 3:
            d = check_small_I(q, verify=False)
            assert (d.refutation and (d.refutation.kind, d.refutation.vertices)) == expected
        found += expected is not None
    assert found >= 300


def test_find_forbidden_rejects_non_split():
    g = Graph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))
    with pytest.raises(ValueError):
        find_forbidden_subgraph(g)


# -- cross-method properties -------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(split_partitions(max_k=5, max_t=3))
def test_three_way_agreement(p):
    r = recognize(p).semi_transitive
    assert r == (enumerate_labelings_oracle(p) is not None)
    assert r == (oracle_semi_transitive(p.graph, max_vertices=10) is not None)


@settings(max_examples=100, deadline=None)
@given(split_partitions(max_k=5, max_t=4))
def test_success_certificates_verify(p):
    d = recognize(p)
    if d.semi_transitive:
        assert validate_labeling(p, d.labeling).ok
        assert is_acyclic(d.orientation)
        assert find_shortcut(d.orientation) is None


def test_problem_reduction_equivalence():
    # existence of a valid labeling coincides with existence of a circular
    # row permutation of the unpruned intersection matrix
    for p in generate(GenSpec(k=4, t=3, mode="exhaustive")):
        if p.k > 5:
            continue
        have_labeling = enumerate_labelings_oracle(p) is not None
        count, _ = enumerate_valid_perms(pair_matrix(p), "circular")
        assert have_labeling == (count > 0)


def test_every_circular_certificate_yields_valid_labeling():
    # stronger than presence: each certificate permutation, read as clique
    # positions, passes the labeling conditions
    for p in generate(GenSpec(k=4, t=3, mode="exhaustive")):
        mtx = prune_trivial_columns(pair_matrix(p))
        count, perms = enumerate_valid_perms(mtx, "circular", collect=True)
        for perm in perms[:12]:
            order = tuple(p.clique[r - 1] for r in perm)
            assert validate_labeling(p, Labeling(order)).ok


def test_recognize_full_verification_at_realistic_scale():
    # planted accepted instances well beyond oracle range, with the complete
    # certificate pipeline (orientation construction + shortcut verifier)
    for seed in range(5):
        p = next(generate(GenSpec(k=60, t=12, density=0.5, seed=seed, mode="planted-yes"), count=1))
        d = recognize(p)
        assert d.semi_transitive and d.verified
        assert len(d.orientation.arcs) == len(p.graph.edges)


def test_verified_yes_and_flip_witness_at_benchmark_sizes():
    # the benchmark's YES shapes with verify on; swapping two vertices that
    # are consecutive in a topological order keeps the orientation acyclic,
    # and the first swap that creates a shortcut must yield a valid witness
    for k, t in [(400, 20), (72, 16), (40, 48)]:
        p = next(generate(GenSpec(k=k, t=t, density=0.5, seed=1, mode="planted-yes"), count=1))
        d = recognize(p)
        assert d.semi_transitive and d.verified
        arcs = d.orientation.arcs
        preds = {v: set() for v in p.graph.vertices()}
        for u, v in arcs:
            preds[v].add(u)
        order = list(TopologicalSorter(preds).static_order())
        for u, v in zip(order, order[1:]):
            if (u, v) not in arcs:
                continue
            o = Orientation(p.graph, arcs - {(u, v)} | {(v, u)})
            assert is_acyclic(o)
            w = find_shortcut(o)
            if w is not None:
                assert_shortcut_witness(o, w)
                break
        else:
            pytest.fail(f"no flip of a consecutive arc creates a shortcut at k={k}, t={t}")


@pytest.mark.parametrize("verify", [False, True])
def test_recognize_path_never_builds_the_edge_set(verify):
    # the recognize path reads adjacency masks only; Graph.edges is derived
    # and cached on first use, which would show in the instance dict
    for spec in (GenSpec(k=40, t=8, seed=3, mode="planted-yes"), GenSpec(k=12, t=3, seed=4, mode="planted-no"),
                 GenSpec(k=12, t=6, seed=5, mode="planted-no")):
        for p in generate(spec, count=3):
            for pinned in (p.clique, None):
                g, clique = parse_graph_pinned(format_graph(p.graph, clique=pinned))
                part = split_partition(g) if clique is None else normalize_partition(
                    g, clique, [v for v in g.vertices() if v not in clique])
                render_decision(recognize(part, verify=verify), machine=verify)
                assert "edges" not in g.__dict__
    assert g.edges == p.graph.edges and "edges" in g.__dict__  # built on demand, then cached


def test_wrapped_heavy_instances_against_oracle():
    # force many wrapped neighborhoods and compare against the search oracle
    from semitrans.generate import planted_yes_masks, masks_to_partition, stream_for_instance

    for seed in range(40):
        rng = stream_for_instance(5000 + seed, 0)
        masks = planted_yes_masks(rng, 6, 4, wrap_prob=0.9)
        p = masks_to_partition(6, masks)
        d = recognize(p)
        assert d.semi_transitive  # valid by construction
        assert oracle_semi_transitive(p.graph, max_vertices=10) is not None


def test_recognition_hereditary_on_induced_split_subgraphs():
    rng = random.Random(8)
    taken = 0
    while taken < 40:
        k = rng.randint(2, 5)
        t = rng.randint(1, 3)
        types = [{i for i in range(1, t + 1) if rng.random() < 0.5} for _ in range(k)]
        p = split_graph_from_types(types, t)
        if not recognize(p).semi_transitive:
            continue
        taken += 1
        for drop in p.graph.vertices():
            sub, _ = induced_subgraph(p.graph, [v for v in p.graph.vertices() if v != drop])
            sp = split_partition(sub)
            assert sp is not None and recognize(sp).semi_transitive


def _arcs_by_the_labeling_rule(p, labeling):
    """The orientation of a valid labeling, arc by arc as the paper states
    it: clique edges by increasing position, the prefix of a wrapped
    independent vertex into it, every other edge out of the independent
    vertex."""
    pos = {u: i for i, u in enumerate(labeling.order, start=1)}
    arcs = {(u, v) for u in p.clique for v in p.clique if pos[u] < pos[v]}
    for v in p.independent:
        ps = {pos[u] for u in bits(p.graph.masks[v])}
        wrapped = 1 in ps and p.k in ps and len(ps) < p.k
        prefix = 0
        while prefix + 1 in ps:
            prefix += 1
        for u in bits(p.graph.masks[v]):
            arcs.add((u, v) if wrapped and pos[u] <= prefix else (v, u))
    return arcs


def test_recognized_orientation_follows_the_labeling_rule():
    # the certificate built as windows of its topological order against the
    # arcs derived edge by edge from the labeling and the neighborhoods
    instances = [
        split_graph_from_types([set(), set(), set()], 0),
        split_graph_from_types([{1}, set(), {1}], 2),
        split_graph_from_types([{1}, {1, 2}, {2, 3}, {3}], 4),
    ]
    rng = random.Random(3)
    for seed in range(160):
        spec = GenSpec(k=rng.randint(1, 8), t=rng.randint(0, 5), density=rng.choice([0.3, 0.5, 0.8]),
                       seed=seed, mode="planted-yes")
        instances.append(next(generate(spec, count=1)))
    for k, t in [(72, 16), (240, 20), (40, 48)]:
        instances.append(next(generate(GenSpec(k=k, t=t, seed=1, mode="planted-yes"), count=1)))
    seen = set()
    for p in instances:
        d = recognize(p)
        assert d.semi_transitive and d.verified
        assert d.orientation.arcs == _arcs_by_the_labeling_rule(p, d.labeling)
        kinds = {s.kind for s in labeling_shapes(p, d.labeling)}
        seen |= kinds
        if len(kinds) == 1:
            seen.add("only-" + next(iter(kinds)))
        if not kinds:
            seen.add("t=0")
    assert seen >= {"t=0", "empty", "only-wrapped", "only-interval", "wrapped", "interval"}, seen
