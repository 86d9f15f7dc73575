"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 2 counts, on a worked example, the raw
circular row permutations (k!) and the valid orders of distinct row types
that the wrapped-cover condition leaves (2k); a row's type is its entries
over the columns holding at least two ones, so the raw count of valid
permutations is 2k*(k-2)!, the type orders times the interchanges of the
k-2 rows that share a type.
"""

import random
import time
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest

from semitrans import (
    BinaryMatrix,
    Labeling,
    enumerate_labelings_oracle,
    find_shortcut,
    has_circular_ones,
    has_consecutive_ones,
    induced_subgraph,
    is_acyclic,
    neighborhood_matrix,
    oracle_semi_transitive,
    recognize,
    split_partition,
    tucker_transform,
    validate_labeling,
)
from semitrans.generate import GenSpec, forbidden_configuration, generate
from semitrans.harness import bench

from oracles import check_circ_under_perm, enumerate_valid_perms, validate_matrix_form


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


# -- criterion 1: minimal obstructions ----------------------------------------

def test_criterion_1_forbidden_configurations_and_minimality():
    t0 = time.perf_counter()
    failures = []
    for case in ("a", "b", "c"):
        p = forbidden_configuration(case)
        g = p.graph
        if recognize(p).semi_transitive:
            failures.append(f"{case}: recognize accepted")
        if enumerate_labelings_oracle(p) is not None:
            failures.append(f"{case}: labeling oracle accepted")
        if oracle_semi_transitive(g, max_vertices=10) is not None:
            failures.append(f"{case}: orientation oracle accepted")
        for drop in g.vertices():
            sub, _ = induced_subgraph(g, [v for v in g.vertices() if v != drop])
            sp = split_partition(sub)
            if sp is None:
                failures.append(f"{case} minus {drop}: not split")
                continue
            if not recognize(sp).semi_transitive:
                failures.append(f"{case} minus {drop}: recognize rejected")
            if enumerate_labelings_oracle(sp) is None:
                failures.append(f"{case} minus {drop}: labeling oracle rejected")
            if oracle_semi_transitive(sub, max_vertices=10) is None:
                failures.append(f"{case} minus {drop}: orientation oracle rejected")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok, f"three obstructions rejected, all 21 one-vertex deletions accepted "
                  f"by all three methods in {elapsed:.2f}s (< 10 s)")
    assert not failures, failures
    assert elapsed < 10.0


# -- criterion 2: published example counts -------------------------------------

def _example_matrix(k):
    cols = [1 << r for r in range(k)]
    cols.append((1 << (k - 1)) - 1)   # ones everywhere except the last row
    cols.append(((1 << k) - 1) & ~1)  # ones everywhere except the first row
    return BinaryMatrix(k, k + 2, tuple(cols))


def _row_types(m):
    # a row's type is its entries over the columns with at least two ones;
    # columns with at most one one are circular under every order and never
    # cover a wrapped column's zone, so rows of one type are interchangeable
    heavy = [c for c in m.columns if c.bit_count() >= 2]
    return {r: tuple((c >> (r - 1)) & 1 for c in heavy) for r in range(1, m.m + 1)}


def test_criterion_2_example_counts():
    t0 = time.perf_counter()
    got = {}
    raw = {}
    quotient = {}
    for k in (4, 5):
        m = _example_matrix(k)
        circ, _ = enumerate_valid_perms(m, "circular")
        form, perms = enumerate_valid_perms(
            m, "circular", extra=lambda perm, m=m: validate_matrix_form(m, perm),
            collect=True,
        )
        row_type = _row_types(m)
        type_orders = {tuple(row_type[r] for r in perm) for perm in perms}
        interchanges = prod(factorial(c) for c in Counter(row_type.values()).values())
        got[k] = (circ, len(type_orders))
        raw[k] = form
        quotient[k] = len(type_orders) * interchanges
    elapsed = time.perf_counter() - t0
    expected = {4: (24, 8), 5: (120, 10)}
    ok = got == expected and raw == quotient == {4: 16, 5: 60} and elapsed < 1.0
    report(2, ok, f"example-matrix counts (circular permutations, valid orders of "
                  f"distinct row types): stated {expected}, measured {got}; raw valid "
                  f"permutations {raw} = 2k*(k-2)!, in {elapsed:.2f}s (< 1 s)")
    assert elapsed < 1.0
    assert got[4][0] == 24 and got[5][0] == 120
    assert got == expected, (
        "the wrapped-cover condition should leave 2k valid orders of distinct row "
        f"types out of k! circular permutations: {got}"
    )
    assert raw == {4: 16, 5: 60}, raw
    assert raw == quotient, (
        "valid permutations should number the valid type orders times the "
        f"interchanges of rows sharing a type: {raw} != {quotient}"
    )


def test_example_count_derivation_frozen():
    # independent derivation: a permutation passes the wrapped-cover condition
    # exactly when the two heavy-column zeros sit in circularly adjacent
    # positions, giving 2k ordered placements times (k-2)! fillings
    for k in (4, 5):
        m = _example_matrix(k)
        manual = 0
        for perm in permutations(range(1, k + 1)):
            pos = {r: i + 1 for i, r in enumerate(perm)}
            p, q = pos[k], pos[1]
            inner_p_ok = not (2 <= p <= k - 1) or abs(p - q) == 1
            inner_q_ok = not (2 <= q <= k - 1) or abs(p - q) == 1
            if inner_p_ok and inner_q_ok:
                manual += 1
        count, _ = enumerate_valid_perms(
            m, "circular", extra=lambda perm, m=m: validate_matrix_form(m, perm)
        )
        assert count == manual == 2 * k * (1 if k == 3 else (2 if k == 4 else 6))


# -- criteria 3 and 6: differential corpus ---------------------------------------

DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)
RANDOM_CORPUS = 10_000


@pytest.fixture(scope="module")
def differential_corpus():
    t0 = time.perf_counter()
    disagreements = []
    decisions = []  # (partition, success decision) pairs for criterion 6
    instances = 0

    def run(p, oracle_guard=10):
        nonlocal instances
        instances += 1
        d = recognize(p)
        lab = enumerate_labelings_oracle(p) is not None
        orient = oracle_semi_transitive(p.graph, max_vertices=oracle_guard) is not None
        if not (d.semi_transitive == lab == orient):
            disagreements.append((p, d.semi_transitive, lab, orient))
        if d.semi_transitive:
            decisions.append((p, d))

    for t in range(0, 4):
        for p in generate(GenSpec(k=4, t=t, mode="exhaustive")):
            run(p)
    exhaustive_count = instances
    for i in range(RANDOM_CORPUS):
        k = 1 + (i % 6)
        t = (i // 6) % 5
        density = DENSITIES[(i // 30) % 5]
        spec = GenSpec(k=k, t=t, density=density, seed=900_000 + i)
        run(next(generate(spec, count=1)))
    return {
        "elapsed": time.perf_counter() - t0,
        "instances": instances,
        "exhaustive": exhaustive_count,
        "disagreements": disagreements,
        "decisions": decisions,
    }


def test_criterion_3_three_way_differential(differential_corpus):
    c = differential_corpus
    ok = not c["disagreements"] and c["elapsed"] < 300.0
    report(3, ok, f"{c['instances']} instances ({c['exhaustive']} exhaustive profiles "
                  f"+ {RANDOM_CORPUS} random), {len(c['disagreements'])} disagreements, "
                  f"{c['elapsed']:.1f}s (< 300 s)")
    assert not c["disagreements"], c["disagreements"][:3]
    assert c["elapsed"] < 300.0


def test_criterion_6_certificate_soundness(differential_corpus):
    decisions = list(differential_corpus["decisions"])
    rng = random.Random(55)
    for _ in range(1000):
        k, t = rng.randint(1, 8), rng.randint(0, 2)
        types = [{i for i in range(1, t + 1) if rng.random() < 0.5} for _ in range(k)]
        p = next(generate(GenSpec(k=k, t=t, density=0.5, seed=rng.randrange(2**32),
                                  mode="planted-yes"), count=1))
        d = recognize(p)
        assert d.semi_transitive
        decisions.append((p, d))
    checked = 0
    bad = 0
    for p, d in decisions:
        if not validate_labeling(p, d.labeling).ok:
            bad += 1
        elif not is_acyclic(d.orientation):
            bad += 1
        elif find_shortcut(d.orientation) is not None:
            bad += 1
        checked += 1
    ok = bad == 0
    report(6, ok, f"{checked} success decisions re-verified "
                  f"(labeling conditions + acyclicity + shortcut-freeness), {bad} failures")
    assert bad == 0 and checked > 5000


# -- criterion 4: labeling conditions vs matrix form -------------------------------

def test_criterion_4_labeling_matrix_equivalence():
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0

    def sweep(p):
        nonlocal checked, mismatches
        m = neighborhood_matrix(p)
        row_of = {u: r + 1 for r, u in enumerate(p.clique)}
        for order in permutations(p.clique):
            perm = tuple(row_of[u] for u in order)
            if validate_labeling(p, Labeling(order)).ok != validate_matrix_form(m, perm):
                mismatches += 1
            checked += 1

    graphs = 0
    for t in range(0, 4):
        for p in generate(GenSpec(k=5, t=t, mode="exhaustive")):
            sweep(p)
            graphs += 1
    for i in range(400):  # wider independent sets, random profiles
        spec = GenSpec(k=5, t=4, density=DENSITIES[i % 5], seed=40_000 + i)
        p = next(generate(spec, count=1))
        if p.k <= 5:
            sweep(p)
            graphs += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(4, ok, f"exact agreement on {checked} (graph, permutation) pairs over "
                  f"{graphs} split graphs with k <= 5, in {elapsed:.1f}s")
    assert mismatches == 0 and checked > 40_000


# -- criterion 5: circular-to-consecutive reduction ----------------------------------

def test_criterion_5_reduction_equivalence():
    rng = random.Random(12345)
    t0 = time.perf_counter()
    enum_checked = 0
    for _ in range(10_000):
        m = rng.randint(1, 8)
        n = rng.randint(0, 8)
        mtx = BinaryMatrix(m, n, tuple(rng.getrandbits(m) for _ in range(n)))
        circ = has_circular_ones(mtx)
        cons = has_consecutive_ones(tucker_transform(mtx))
        assert (circ is None) == (cons is None)
        if circ is not None:
            assert check_circ_under_perm(mtx, circ)
        if m <= 5:
            enum_circ, _ = enumerate_valid_perms(mtx, "circular")
            assert (enum_circ > 0) == (circ is not None)
            m1 = tucker_transform(mtx)
            enum_cons, _ = enumerate_valid_perms(m1, "consecutive")
            assert (enum_cons > 0) == (cons is not None)
            enum_checked += 1
    elapsed = time.perf_counter() - t0
    report(5, True, f"10000 random matrices (m, n <= 8): reduction equivalence exact; "
                    f"{enum_checked} of them re-checked by full enumeration, "
                    f"{elapsed:.1f}s")
    assert enum_checked > 5000


# -- criterion 7: independent sets of size at most two --------------------------------

def test_criterion_7_small_independent_always_accepted():
    rng = random.Random(777)
    accepted = 0
    for _ in range(1000):
        k = rng.randint(1, 7)
        t = rng.randint(0, 2)
        types = [{i for i in range(1, t + 1) if rng.random() < rng.choice((0.3, 0.6, 0.9))}
                 for _ in range(k)]
        from semitrans.generate import split_graph_from_types
        p = split_graph_from_types(types, t)
        if p.t > 2:
            continue
        d = recognize(p)
        if d.semi_transitive:
            accepted += 1
        else:
            report(7, False, f"rejected a split graph with t={p.t}")
            assert False, (types, t)
    report(7, True, f"{accepted}/1000 random split graphs with t <= 2 accepted (exact)")
    assert accepted == 1000


# -- criterion 8: scaling envelope ------------------------------------------------------

def test_criterion_8_scaling_envelope():
    t0 = time.perf_counter()
    t_grid = bench(ks=[64], ts=[25, 50, 100, 200], reps=3, seed=0)
    k_grid = bench(ks=[250, 500, 1000, 2000], ts=[32], reps=3, seed=0)
    elapsed = time.perf_counter() - t0
    slope_t, slope_k = t_grid.slope_t, k_grid.slope_k
    ok = 1.6 <= slope_t <= 2.4 and 0.7 <= slope_k <= 1.5
    report(8, ok, f"decision-core slopes: t-slope {slope_t:.2f} in [1.6, 2.4], "
                  f"k-slope {slope_k:.2f} in [0.7, 1.5] (grids to t=200, k=2000), "
                  f"{elapsed:.0f}s")
    assert 1.6 <= slope_t <= 2.4, t_grid.render()
    assert 0.7 <= slope_k <= 1.5, k_grid.render()
