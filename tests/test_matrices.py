import hashlib
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings

from semitrans import (
    BinaryMatrix,
    SizeGuardError,
    has_circular_ones,
    has_consecutive_ones,
    parse_matrix,
    tucker_transform,
)
from semitrans.pqtree import PQTree

from graph_texts import NEGATIVE_HEADERS, line_number
from oracles import (
    check_c1p_under_perm,
    check_circ_under_perm,
    circular_ones_reference,
    consecutive_ones_reference,
    enumerate_valid_perms,
)
from strategies import binary_matrices


def from_rows(rows):
    """The matrix whose row r is rows[r - 1], a list of 0/1 entries."""
    n = len(rows[0]) if rows else 0
    return BinaryMatrix(len(rows), n, tuple(sum(row[j] << r for r, row in enumerate(rows)) for j in range(n)))


def rows_of(mtx):
    return [[(c >> r) & 1 for c in mtx.columns] for r in range(mtx.m)]


def brute_c1p(mtx):
    return any(check_c1p_under_perm(mtx, p) for p in permutations(range(1, mtx.m + 1)))


def brute_circ(mtx):
    return any(check_circ_under_perm(mtx, p) for p in permutations(range(1, mtx.m + 1)))


# -- consecutive ones --------------------------------------------------------

def test_identity_matrix_consecutive():
    mtx = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    perm = has_consecutive_ones(mtx)
    assert perm is not None and check_c1p_under_perm(mtx, perm)


def test_triple_overlap_not_consecutive():
    mtx = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert not brute_c1p(mtx)  # brute force over all 6 row permutations
    assert has_consecutive_ones(mtx) is None


def test_staircase_consecutive():
    mtx = from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])
    perm = has_consecutive_ones(mtx)
    assert perm is not None and check_c1p_under_perm(mtx, perm)


def test_empty_matrices_trivially_consecutive():
    assert has_consecutive_ones(BinaryMatrix(0, 0, ())) == ()
    assert has_consecutive_ones(BinaryMatrix(3, 0, ())) is not None
    assert has_consecutive_ones(BinaryMatrix(0, 2, (0, 0))) == ()


# -- tucker transform --------------------------------------------------------

def test_tucker_inverts_first_row_columns():
    mtx = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    out = tucker_transform(mtx)
    assert rows_of(out) == [[0, 0, 0], [1, 0, 1], [0, 1, 1]]


def test_tucker_all_zero_unchanged():
    mtx = from_rows([[0, 0], [0, 0]])
    assert rows_of(tucker_transform(mtx)) == rows_of(mtx)


def test_tucker_single_entry():
    assert rows_of(tucker_transform(from_rows([[1]]))) == [[0]]


def test_tucker_rejects_empty():
    with pytest.raises(ValueError):
        tucker_transform(BinaryMatrix(0, 1, (0,)))


# -- circular ones -----------------------------------------------------------

def test_triple_overlap_is_circular():
    mtx = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # each column's ones are circularly contiguous on 3 rows under identity
    assert check_circ_under_perm(mtx, (1, 2, 3))
    perm = has_circular_ones(mtx)
    assert perm is not None and check_circ_under_perm(mtx, perm)


def test_consecutive_implies_circular():
    mtx = from_rows([[1, 0], [1, 1], [0, 1]])
    perm = has_circular_ones(mtx)
    assert perm is not None and check_circ_under_perm(mtx, perm)


def test_two_columns_always_circular():
    # any two columns can be blocked as A\B, A&B, B\A, rest, so even the
    # alternating 4x2 matrix has the property (brute force agrees)
    mtx = from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
    assert brute_circ(mtx)
    perm = has_circular_ones(mtx)
    assert perm is not None and check_circ_under_perm(mtx, perm)


def test_pair_triple_on_four_rows_not_circular():
    # columns {1,2}, {1,3}, {2,3} wrap fine on 3 rows, but the extra row
    # breaks the cycle: brute force over all 24 permutations finds nothing
    mtx = from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]])
    assert not brute_circ(mtx)
    assert has_circular_ones(mtx) is None


# -- literal per-permutation verifiers ----------------------------------------

def test_checks_on_identity():
    mtx = from_rows([[1, 0], [0, 1]])
    assert check_c1p_under_perm(mtx, (1, 2))
    assert check_circ_under_perm(mtx, (1, 2))


def test_wrapped_column_circular_not_consecutive():
    mtx = from_rows([[1], [0], [1]])
    assert not check_c1p_under_perm(mtx, (1, 2, 3))
    assert check_circ_under_perm(mtx, (1, 2, 3))


def test_checks_reject_malformed_permutation():
    mtx = from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        check_c1p_under_perm(mtx, (1, 1))
    with pytest.raises(ValueError):
        check_circ_under_perm(mtx, (1,))


# -- enumeration oracle --------------------------------------------------------

def example_matrix(k):
    """k unit columns plus the two one-zero columns (zero in rows k and 1)."""
    cols = [1 << r for r in range(k)]
    cols.append((1 << (k - 1)) - 1)
    cols.append(((1 << k) - 1) & ~1)
    return BinaryMatrix(k, k + 2, tuple(cols))


def test_example_matrix_every_permutation_circular():
    count, _ = enumerate_valid_perms(example_matrix(4), "circular")
    assert count == 24


def test_single_cell_matrix_counts():
    mtx = from_rows([[1]])
    assert enumerate_valid_perms(mtx, "circular")[0] == 1
    assert enumerate_valid_perms(mtx, "consecutive")[0] == 1


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        enumerate_valid_perms(BinaryMatrix(9, 0, ()), "circular")


def test_enumeration_collect_returns_sound_permutations():
    mtx = from_rows([[1, 1], [1, 0], [0, 1]])
    count, perms = enumerate_valid_perms(mtx, "consecutive", collect=True)
    assert count == len(perms) > 0
    for p in perms:
        assert check_c1p_under_perm(mtx, p)


# -- engine vs brute force -----------------------------------------------------

def test_exhaustive_small_matrices_match_enumeration():
    # every matrix up to 3 rows x 4 columns, both modes, full brute force
    for m in range(1, 4):
        for n in range(0, 5):
            for code in range(1 << (m * n)):
                cols = tuple((code >> (m * j)) & ((1 << m) - 1) for j in range(n))
                mtx = BinaryMatrix(m, n, cols)
                assert (has_consecutive_ones(mtx) is not None) == brute_c1p(mtx)
                assert (has_circular_ones(mtx) is not None) == brute_circ(mtx)


def test_exhaustive_four_by_four_complete():
    # all 2^16 four-by-four matrices: a returned certificate is itself the
    # presence proof; every absence is confirmed by the 24-permutation sweep
    for code in range(1 << 16):
        cols = ((code >> 0) & 15, (code >> 4) & 15, (code >> 8) & 15, (code >> 12) & 15)
        mtx = BinaryMatrix(4, 4, cols)
        perm = has_consecutive_ones(mtx)
        if perm is None:
            assert not brute_c1p(mtx)
        else:
            assert check_c1p_under_perm(mtx, perm)
        cperm = has_circular_ones(mtx)
        if cperm is None:
            assert not brute_circ(mtx)
        else:
            assert check_circ_under_perm(mtx, cperm)


def test_randomized_five_by_five_complete():
    rng = random.Random(99)
    for _ in range(600):
        mtx = BinaryMatrix(5, 5, tuple(rng.getrandbits(5) for _ in range(5)))
        assert (has_consecutive_ones(mtx) is not None) == brute_c1p(mtx)
        assert (has_circular_ones(mtx) is not None) == brute_circ(mtx)


def test_random_larger_matrices_match_enumeration():
    rng = random.Random(9)
    for _ in range(1500):
        m = rng.randint(4, 6)
        n = rng.randint(0, 6)
        mtx = BinaryMatrix(m, n, tuple(rng.getrandbits(m) for _ in range(n)))
        perm = has_consecutive_ones(mtx)
        assert (perm is not None) == brute_c1p(mtx)
        if perm is not None:
            assert check_c1p_under_perm(mtx, perm)
        cperm = has_circular_ones(mtx)
        assert (cperm is not None) == brute_circ(mtx)
        if cperm is not None:
            assert check_circ_under_perm(mtx, cperm)


@settings(max_examples=300, deadline=None)
@given(binary_matrices())
def test_certificates_always_verify(mtx):
    perm = has_consecutive_ones(mtx)
    if perm is not None:
        assert check_c1p_under_perm(mtx, perm)
    cperm = has_circular_ones(mtx)
    if cperm is not None:
        assert check_circ_under_perm(mtx, cperm)


@settings(max_examples=200, deadline=None)
@given(binary_matrices(max_m=5, max_n=5))
def test_column_order_irrelevant(mtx):
    rng = random.Random(1)
    cols = list(mtx.columns)
    rng.shuffle(cols)
    shuffled = BinaryMatrix(mtx.m, mtx.n, tuple(cols))
    assert (has_consecutive_ones(mtx) is None) == (has_consecutive_ones(shuffled) is None)
    assert (has_circular_ones(mtx) is None) == (has_circular_ones(shuffled) is None)


@settings(max_examples=200, deadline=None)
@given(binary_matrices(max_m=5, max_n=4))
def test_duplicate_and_trivial_columns_irrelevant(mtx):
    extra = list(mtx.columns) + list(mtx.columns[:1]) + [0]
    if mtx.m >= 1:
        extra.append(1)  # single-one column
    padded = BinaryMatrix(mtx.m, len(extra), tuple(extra))
    assert (has_consecutive_ones(mtx) is None) == (has_consecutive_ones(padded) is None)
    assert (has_circular_ones(mtx) is None) == (has_circular_ones(padded) is None)


def test_cycle_pair_family_medium_scale():
    # columns {i, i+1} around a cycle: the wrap column kills consecutiveness
    # for every n >= 3 (the other columns force the cycle order), while the
    # whole family is circular by construction; dropping the wrap column
    # leaves a path system, which is consecutive again
    for n in (5, 9, 16, 33, 60):
        cols = [(1 << i) | (1 << ((i + 1) % n)) for i in range(n)]
        cyc = BinaryMatrix(n, n, tuple(cols))
        assert has_consecutive_ones(cyc) is None
        cperm = has_circular_ones(cyc)
        assert cperm is not None and check_circ_under_perm(cyc, cperm)
        path = BinaryMatrix(n, n - 1, tuple(cols[:-1]))
        perm = has_consecutive_ones(path)
        assert perm is not None and check_c1p_under_perm(path, perm)


def test_planted_interval_systems_medium_scale():
    # random interval columns under a hidden row order are consecutive by
    # construction; the engine must find some certificate
    rng = random.Random(21)
    for _ in range(150):
        m = rng.randint(5, 40)
        hidden = list(range(m))
        rng.shuffle(hidden)
        cols = []
        for _ in range(rng.randint(1, 25)):
            lo = rng.randrange(m)
            hi = rng.randrange(lo, m)
            mask = 0
            for pos in range(lo, hi + 1):
                mask |= 1 << hidden[pos]
            cols.append(mask)
        mtx = BinaryMatrix(m, len(cols), tuple(cols))
        perm = has_consecutive_ones(mtx)
        assert perm is not None and check_c1p_under_perm(mtx, perm)


def test_planted_arc_systems_medium_scale():
    # random circular arcs under a hidden order are circular by construction
    rng = random.Random(34)
    for _ in range(150):
        m = rng.randint(5, 40)
        hidden = list(range(m))
        rng.shuffle(hidden)
        cols = []
        for _ in range(rng.randint(1, 25)):
            start = rng.randrange(m)
            length = rng.randint(1, m - 1)
            mask = 0
            for off in range(length):
                mask |= 1 << hidden[(start + off) % m]
            cols.append(mask)
        mtx = BinaryMatrix(m, len(cols), tuple(cols))
        perm = has_circular_ones(mtx)
        assert perm is not None and check_circ_under_perm(mtx, perm)


def test_tucker_equivalence_on_random_matrices():
    rng = random.Random(17)
    for _ in range(2000):
        m = rng.randint(1, 7)
        n = rng.randint(0, 7)
        mtx = BinaryMatrix(m, n, tuple(rng.getrandbits(m) for _ in range(n)))
        assert (has_circular_ones(mtx) is not None) == (
            has_consecutive_ones(tucker_transform(mtx)) is not None
        )


def _tie_heavy_matrix(rng):
    """A matrix of few distinct columns, many sharing a number of ones: arcs of
    a hidden circular row order (so YES is common) and random columns, with
    0, 1, m-1 and m ones mixed in."""
    m = rng.choice((0, 1, 2, rng.randint(3, 12), rng.randint(3, 12)))
    full = (1 << m) - 1
    hidden = list(range(m))
    rng.shuffle(hidden)

    def arc(ones):
        start = rng.randrange(m) if m else 0
        return sum(1 << hidden[(start + off) % m] for off in range(ones))

    pool = [0, full]
    if m:
        pool += [1 << rng.randrange(m), full ^ (1 << rng.randrange(m))]
    for ones in rng.sample(range(m + 1), min(m + 1, rng.randint(1, 3))):
        pool += [arc(ones) for _ in range(rng.randint(1, 4))]
    pool += [rng.getrandbits(m) if m else 0 for _ in range(rng.randint(0, 4))]
    cols = tuple(rng.choice(pool) for _ in range(rng.randint(0, 30)))
    return BinaryMatrix(m, len(cols), cols)


def test_reduction_order_matches_sorted_reference():
    # the columns reach the PQ-tree in the same order as a stable sort by
    # decreasing number of ones, so the frontier (or None) is the same
    rng = random.Random(20211015)
    answers = {"c1p": [0, 0], "circ1p": [0, 0]}
    for _ in range(3000):
        mtx = _tie_heavy_matrix(rng)
        for name, engine, reference in (("c1p", has_consecutive_ones, consecutive_ones_reference),
                                        ("circ1p", has_circular_ones, circular_ones_reference)):
            perm = engine(mtx)
            assert perm == reference(mtx), (name, mtx)
            answers[name][perm is None] += 1
    assert min(answers["c1p"] + answers["circ1p"]) >= 200, answers


def _frontier_matrix(rng):
    """A matrix of 2..14 rows whose columns follow a hidden row order:
    intervals, arcs, random columns and sparse ones of 2 or 3 rows, in one of
    five mixes; or disjoint blocks of the hidden order followed by sparse
    columns across them, which make P roots with three partial children."""
    m = rng.randint(2, 14)
    hidden = rng.sample(range(m), m)

    def run(start, length):  # length rows of the hidden order, wrapping
        return sum(1 << hidden[(start + off) % m] for off in range(length))

    cols = []
    if rng.random() < 0.2:
        start = 0
        while start < m:
            size = rng.randint(2, 4)
            cols.append(run(start, min(size, m - start)))
            start += size
        mix = (0, 0, 0, 1)
    else:
        mix = rng.choice(((1, 0, 0, 0), (0, 1, 0, 0), (4, 4, 1, 1), (1, 1, 1, 1), (3, 0, 0, 1)))
    for kind in rng.choices(("interval", "arc", "random", "sparse"), mix, k=rng.randint(1, 24)):
        if kind == "interval":
            lo = rng.randrange(m)
            cols.append(run(lo, rng.randint(1, m - lo)))
        elif kind == "arc":
            cols.append(run(rng.randrange(m), rng.randint(1, m)))
        elif kind == "random":
            cols.append(rng.getrandbits(m))
        else:
            cols.append(sum(1 << r for r in rng.sample(range(m), min(m, rng.randint(2, 3)))))
    return BinaryMatrix(m, len(cols), tuple(cols))


def test_pqtree_frontiers_pinned():
    # the other tests only check that a certificate is valid; this one pins
    # which one the engine returns, since every printed labeling is read off
    # it.  Over these 2000 matrices the pertinent root is a P-node with 0, 1,
    # 2 and 3 partial children, and a Q-node whose run has a partial child at
    # neither end, at the left, at the right and at both; each case both
    # reduces and fails, except that a P root with no partial child never
    # fails and one with three always does
    rng = random.Random(13)
    digest = hashlib.sha256()
    for _ in range(2000):
        mtx = _frontier_matrix(rng)
        digest.update(repr((has_consecutive_ones(mtx), has_circular_ones(mtx))).encode())
    assert digest.hexdigest() == "a3266f112954e979eba1c5a94e33fbf854879e6babce982ceace50477b6b3e8b"


# -- pq-tree internals ---------------------------------------------------------

def test_pqtree_frontier_is_permutation():
    tree = PQTree(5)
    assert sorted(tree.frontier()) == [1, 2, 3, 4, 5]


def test_pqtree_failure_keeps_reducing_consistent():
    tree = PQTree(3)
    assert tree.reduce(0b011)
    assert tree.reduce(0b110)
    assert not tree.reduce(0b101)


def test_pqtree_deep_partial_chain_needs_no_recursion():
    # nested prefixes build a chain of nodes about k deep; the column {1, k}
    # then makes every node on that chain partial
    k = 400
    cols = [(1 << i) - 1 for i in range(2, k)] + [1 | (1 << (k - 1))]
    mtx = BinaryMatrix(k, len(cols), tuple(cols))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        perm = has_consecutive_ones(mtx)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(old_limit)
    assert perm is not None and check_c1p_under_perm(mtx, perm)
    assert limit == 200


def test_pqtree_vacuous_masks():
    tree = PQTree(4)
    assert tree.reduce(0)
    assert tree.reduce(0b0001)
    assert tree.reduce(0b1111)
    assert sorted(tree.frontier()) == [1, 2, 3, 4]


def _pqtree_fields(tree):
    """Check what a reduction keeps on the tree and return every field.

    Every leaf's rows mask is its own row's bit, every internal node's is the
    OR of its children's, and the leaves' rows are a permutation of 1..m.
    The result lists each node's identity and fields, root first.
    """
    order = [tree.root]
    for node in order:  # grows while read: breadth-first
        order.extend(node.children)
    for node in order:
        if node.children:
            union = 0
            for ch in node.children:
                union |= ch.rows
            assert node.rows == union
        else:
            assert node.rows == 1 << (node.row - 1)
    leaves = [node for node in order if not node.children]
    assert sorted(leaf.row for leaf in leaves) == list(range(1, tree.m + 1))
    return [(id(n), n.kind, n.row, n.rows, [id(ch) for ch in n.children]) for n in order]


def _reduce_checked(tree, mask):
    before, frontier = _pqtree_fields(tree), tree.frontier()
    ok = tree.reduce(mask)
    after = _pqtree_fields(tree)
    if not ok:
        assert after == before and tree.frontier() == frontier
    return ok


def test_pqtree_structure_after_every_reduction():
    # random masks (many rejected) and shuffled interval systems with
    # duplicates (all accepted, building deep Q-node chains), then random
    # masks again on the structured tree
    rng = random.Random(40)
    outcomes = set()
    for _ in range(60):
        m = rng.randint(2, 40)
        tree = PQTree(m)
        for _ in range(rng.randint(1, 30)):
            mask = rng.getrandbits(m) if rng.random() < 0.5 else (1 << rng.randrange(m)) | (1 << rng.randrange(m))
            outcomes.add(_reduce_checked(tree, mask))
    for _ in range(60):
        m = rng.randint(2, 40)
        hidden = list(range(m))
        rng.shuffle(hidden)
        cols = []
        for _ in range(rng.randint(1, 30)):
            lo = rng.randrange(m)
            hi = rng.randrange(lo, m)
            cols.append(sum(1 << hidden[pos] for pos in range(lo, hi + 1)))
        cols += rng.choices(cols, k=len(cols) // 2)
        rng.shuffle(cols)
        tree = PQTree(m)
        for mask in cols:
            assert _reduce_checked(tree, mask)
        perm = tree.frontier()
        assert check_c1p_under_perm(BinaryMatrix(m, len(cols), tuple(cols)), perm)
        for _ in range(5):
            outcomes.add(_reduce_checked(tree, rng.getrandbits(m)))
    assert outcomes == {True, False}


def test_pqtree_rejects_rows_outside_the_tree():
    tree = PQTree(4)
    for mask in (0b110000, 0b10011, -6):
        with pytest.raises(ValueError):
            tree.reduce(mask)
    assert tree.frontier() == (1, 2, 3, 4)


# -- construction checks -----------------------------------------------------

def test_binary_matrix_rejects_bad_input():
    cases = (
        ((-1, 0, ()), "matrix dimensions must be nonnegative"),
        ((2, -1, ()), "matrix dimensions must be nonnegative"),
        ((2, 2, (1,)), "column count mismatch"),
        ((2, 0, (1,)), "column count mismatch"),
        ((3, 2, (0b011, -1)), "column mask out of range for row count"),
        ((3, 2, (1 << 3, 0b001)), "column mask out of range for row count"),
        ((3, 1, (0b1111,)), "column mask out of range for row count"),
        ((0, 2, (0, 1)), "column mask out of range for row count"),
        ((2, 2, (0b01, 0b10), ("a",)), "label list must have one entry per column"),
    )
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            BinaryMatrix(*args)
        assert str(exc.value) == message, args


def test_binary_matrix_accepts_masks_within_its_rows():
    for m in range(5):
        full = (1 << m) - 1
        assert BinaryMatrix(m, 3, (full, 0, full)).columns == (full, 0, full)
    assert BinaryMatrix(0, 2, (0, 0)).n == 2
    assert BinaryMatrix(3, 0, ()).columns == ()
    assert BinaryMatrix(3, 1, (0b101,), ("x",)).labels == ("x",)


# -- matrix file format ----------------------------------------------------------

def test_parse_matrix_shapes():
    # an m x 0 matrix is its header plus m empty lines
    texts = {"2 3\n101\n011\n": from_rows([[1, 0, 1], [0, 1, 1]]), "2 0\n\n\n": BinaryMatrix(2, 0, ()),
             "0 3\n": BinaryMatrix(0, 3, (0, 0, 0))}
    for text, mtx in texts.items():
        assert parse_matrix(text) == mtx


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n10\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1x\n")
    # full messages; line numbers count blank and comment lines too
    cases = {
        "": "line 1: empty input",
        "# c\n\n2 2\n\n10\n1x\n": "line 6: expected 2 characters over 0/1",
        "2 x\n": "line 1: non-integer header",
        "# c\n2 x\n": "line 2: non-integer header",
        "\n\n2\n": "line 3: expected header 'm n'",
        "1 2\n# c\n101\n": "line 3: expected 2 characters over 0/1",
        "2 2\n10\n": "expected 2 matrix rows, found 1",
        **NEGATIVE_HEADERS,
    }
    for text, message in cases.items():
        with pytest.raises(ValueError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message, text
        assert getattr(exc.value, "line_no", None) == line_number(message), text
