"""Recognition of semi-transitively orientable split graphs, with certificates.

The pipeline: build the pairwise-intersection matrix of the independent
vertices' neighborhoods over the clique rows, prune constraint-free columns,
and ask the circular-ones engine for a certificate row permutation.  The
permutation read off as clique positions is a valid labeling (each vertex of
the independent set sees an interval or a wrapped prefix+suffix of positions,
and the pairwise cover conditions hold), from which an explicit orientation is
constructed and re-verified.  A refutation is either the circular-ones failure
itself or, for independent sets of size at most 3, one of the three forbidden
seven-vertex configurations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations, permutations

from .graphs import Graph, SplitPartition, bits, format_pairs, neighborhood_matrix, split_partition, vertex_mask
from .matrices import BinaryMatrix, SizeGuardError, _ones_consecutive, reduce_buckets
from .matrices import has_circular_ones  # noqa: F401  not called here; recognize_bench/spans.py traces this name
from .orient import Orientation, find_shortcut
from .orient import is_acyclic  # noqa: F401  not called here; recognize_bench/spans.py traces this name


class InternalConsistencyError(AssertionError):
    """A certified pipeline step failed its own re-validation (a bug, never input)."""


class Labeling(namedtuple("Labeling", "order")):
    """Bijection clique vertices -> positions 1..k, stored as the position
    order: order[p-1] is the vertex at position p."""

    __slots__ = ()


class Shape(namedtuple("Shape", "kind a b", defaults=(0, 0))):
    """Neighborhood of an independent vertex under a labeling.

    kind "interval" means positions [a, b]; kind "wrapped" means
    [1, a] u [b, k] with a < b; kind "empty" has no parameters.
    """

    __slots__ = ()


class Violation(namedtuple("Violation", "condition vertices")):
    """condition 1 = shape, 2 = interval/wrapped, 3 = wrapped/wrapped."""

    __slots__ = ()


class LabelingReport(namedtuple("LabelingReport", "ok violations", defaults=((),))):
    """Truthy exactly when ok; violations is a tuple of Violation."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class Refutation(namedtuple("Refutation", "kind vertices", defaults=((),))):
    """kind is "circ1p-fail", "case-a", "case-b" or "case-c"."""

    __slots__ = ()


class Decision(namedtuple("Decision", "semi_transitive labeling orientation refutation verified",
                          defaults=(None, None, None, False))):
    """A YES carries a Labeling and, when verified, a shortcut-checked
    Orientation; a NO carries a Refutation."""

    __slots__ = ()


def _pair_ok(u_shape: Shape, v_shape: Shape) -> int | None:
    """Violated condition number for a shape pair, or None if fine."""
    if u_shape.kind == "empty" or v_shape.kind == "empty":
        return None
    if u_shape.kind == "interval" and v_shape.kind == "interval":
        return None
    if u_shape.kind == "wrapped" and v_shape.kind == "wrapped":
        # both prefixes must stop before the other's suffix begins
        if v_shape.a < u_shape.b and u_shape.a < v_shape.b:
            return None
        return 3
    interval = u_shape if u_shape.kind == "interval" else v_shape
    wrapped = v_shape if u_shape.kind == "interval" else u_shape
    if interval.a > wrapped.a or interval.b < wrapped.b:
        return None
    return 2


def _labeling_shapes(p: SplitPartition, labeling: Labeling, masks: Sequence[int]) -> list[Shape | None]:
    """Shape of every independent vertex's neighborhood, in p.independent
    order; masks are the columns of neighborhood_matrix(p)."""
    if sorted(labeling.order) != sorted(p.clique):
        raise ValueError("labeling is not a bijection on the clique")
    row_of = {u: r for r, u in enumerate(p.clique, start=1)}
    return shapes_under_order(p.k, masks, [row_of[u] for u in labeling.order])


def _violations(shapes: Sequence[Shape | None], ids: Sequence[int]) -> Iterator[Violation]:
    """Labeling violations in report order: every vertex whose shape is None
    (condition 1), then every failing pair of the other vertices."""
    for v, s in zip(ids, shapes):
        if s is None:
            yield Violation(1, (v,))
    real = [(v, s) for v, s in zip(ids, shapes) if s is not None and s.kind != "empty"]
    for i, (u, u_shape) in enumerate(real):
        for v, v_shape in real[i + 1:]:
            cond = _pair_ok(u_shape, v_shape)
            if cond is not None:
                yield Violation(cond, (u, v))


def validate_shapes(shapes: Sequence[Shape | None]) -> bool:
    """Whether the shapes of all neighborhoods form a valid labeling."""
    return next(_violations(shapes, range(1, len(shapes) + 1)), None) is None


def validate_labeling(p: SplitPartition, labeling: Labeling) -> LabelingReport:
    """Check the three labeling conditions, reporting each violation found."""
    found = tuple(_violations(_labeling_shapes(p, labeling, neighborhood_matrix(p).columns), p.independent))
    return LabelingReport(not found, found)


def intersection_matrix_from_masks(
    k: int, masks: Sequence[int], ids: Sequence[int] | None = None
) -> BinaryMatrix:
    """Characteristic vectors of all pairwise intersections of the k-row
    masks: one column per pair i <= j, labeled (ids[i], ids[j]) if ids given."""
    cols = tuple([mi & mj for i, mi in enumerate(masks) for mj in masks[i:]])
    labels = None if ids is None else tuple([(a, b) for i, a in enumerate(ids) for b in ids[i:]])
    return BinaryMatrix(k, len(cols), cols, labels)


def prune_trivial_columns(mtx: BinaryMatrix) -> BinaryMatrix:
    """Drop columns with at most one 1; they are circular under every permutation."""
    cols = tuple([c for c in mtx.columns if c.bit_count() >= 2])
    labels = None if mtx.labels is None else tuple([
        lab for c, lab in zip(mtx.columns, mtx.labels) if c.bit_count() >= 2])
    return BinaryMatrix(mtx.m, len(cols), cols, labels)


def decide_labeling(k: int, neighborhood_masks: Sequence[int]) -> tuple[int, ...] | None:
    """Decision core: a clique row order making every pairwise intersection
    circularly contiguous, or None.  This is the O(t^2 k) path that bench times.
    One pass over the pairs i <= j prunes, complements and buckets their
    intersections as has_circular_ones(prune_trivial_columns(...)) would."""
    if neighborhood_masks and (min(neighborhood_masks) < 0 or max(neighborhood_masks) >> k):
        raise ValueError("column mask out of range for row count")
    full = (1 << k) - 1
    buckets: list[list[int]] = [[] for _ in range(k + 1)]
    for i, mi in enumerate(neighborhood_masks):
        for mj in neighborhood_masks[i:]:
            c = mi & mj
            ones = c.bit_count()
            if ones > 1:
                if c & 1:
                    c ^= full
                    ones = k - ones
                buckets[ones].append(c)
    return reduce_buckets(k, buckets)


def shapes_under_order(k: int, neighborhood_masks: Sequence[int], row_order: Sequence[int]) -> list[Shape | None]:
    """Shape of every neighborhood mask when clique rows are placed in row_order."""
    place = [0] * (k + 1)  # place[r]: the position bit of row r, bit p-1 for position p
    for pos, r in enumerate(row_order):
        place[r] = 1 << pos
    full = (1 << k) - 1
    return [_shape(sum(map(place.__getitem__, bits(mask))), full) for mask in neighborhood_masks]


def _shape(positions: int, full: int) -> Shape | None:
    """Shape of a position mask within full: empty, one run of ones, or one
    run of zeros strictly inside (the ones wrap around); None otherwise."""
    if not positions:
        return Shape("empty")
    if _ones_consecutive(positions):
        return Shape("interval", (positions & -positions).bit_length(), positions.bit_length())
    gap = full ^ positions
    if _ones_consecutive(gap):  # positions is not one run, so it holds both ends of full
        return Shape("wrapped", (gap & -gap).bit_length() - 1, gap.bit_length() + 1)
    return None


def construct_orientation(p: SplitPartition, labeling: Labeling) -> Orientation:
    """The explicit orientation certified by a valid labeling.

    Clique edges follow increasing position.  A wrapped vertex receives its
    prefix and feeds its suffix: the opposite choice would close a directed
    cycle through the clique tournament.  Interval vertices are uniformly made
    sources; empty ones stay isolated.
    """
    return _orient_labeling(p, labeling, _valid_shapes(p, labeling, neighborhood_matrix(p).columns))


def _valid_shapes(p: SplitPartition, labeling: Labeling, masks: Sequence[int]) -> list[Shape]:
    """The shapes of a valid labeling; ValueError naming the violations otherwise."""
    shapes = _labeling_shapes(p, labeling, masks)
    found = tuple(_violations(shapes, p.independent))
    if found:
        raise ValueError(f"labeling does not satisfy the conditions: {found}")
    return shapes


def _orient_labeling(p: SplitPartition, labeling: Labeling, shapes: Sequence[Shape]) -> Orientation:
    """construct_orientation for shapes already computed and found valid.

    Its topological order lists the interval and empty independent vertices,
    then the clique by position, each wrapped vertex right after the end of
    its prefix.  The orientation follows that order, and every out-set is a
    window of it: a clique vertex feeds everything after it, an independent
    vertex the clique vertices of its interval or of its suffix.  O(k + t)
    mask operations in all.
    """
    shape = dict(zip(p.independent, shapes))
    after = [[] for _ in range(p.k + 1)]  # after[i]: wrapped vertices whose prefix ends at position i
    order = []
    for v, s in shape.items():
        (after[s.a] if s.kind == "wrapped" else order).append(v)
    at = [0] * (p.k + 1)  # at[i]: the place of clique position i in the order
    for i, u in enumerate(labeling.order, start=1):
        at[i] = len(order)
        order.append(u)
        order.extend(after[i])
    n = len(order)

    def window(j: int, v: int) -> tuple[int, int]:
        s = shape.get(v)
        if s is None:  # a clique vertex
            return j + 1, n
        if s.kind == "interval":
            return at[s.a], at[s.b] + 1
        return (at[s.b], n) if s.kind == "wrapped" else (0, 0)

    windows = [window(j, v) for j, v in enumerate(order)]
    return Orientation._from_windows(p.graph, order, windows, vertex_mask(p.clique))


def recognize(p: SplitPartition, verify: bool = True) -> Decision:
    """Full recognition with certificates.

    With verify on (the default) a success decision carries an orientation
    that follows a vertex order built from the labeling, so it is acyclic by
    construction, and that passed the shortcut check, all in O(n * (t + 1))
    mask operations.
    Failures carry the circular-ones refutation, upgraded to a case-tagged
    seven-vertex witness when the independent set has at most three vertices.
    verify=False skips the orientation and its checks; it is meant for
    scaling measurements of the decision core.
    """
    masks = neighborhood_matrix(p).columns
    perm = decide_labeling(p.k, masks)
    if perm is None:
        if p.t <= 3:
            # small independent sets admit an explicit witness: one of the
            # three forbidden type quadruples must be present
            return check_small_I(p, verify=False)
        return Decision(False, refutation=Refutation("circ1p-fail"))
    return _certify(p, masks, perm, verify)


def _certify(p: SplitPartition, masks: Sequence[int], perm: Sequence[int], verify: bool) -> Decision:
    """The YES decision for a circular-ones row order of the neighborhood
    masks: its labeling, re-validated, and with verify on its orientation,
    checked for shortcuts."""
    labeling = Labeling(tuple(p.clique[r - 1] for r in perm))
    orientation = witness = None
    try:
        # masks and shapes are computed once and shared by validation and construction
        shapes = _valid_shapes(p, labeling, masks)
        if verify:
            orientation = _orient_labeling(p, labeling, shapes)
            witness = find_shortcut(orientation)
    except ValueError as exc:  # a failed check or a cycle: the certificate is wrong, the input is not
        raise InternalConsistencyError(f"circular-ones certificate is invalid: {exc}") from exc
    if witness is not None:
        raise InternalConsistencyError(f"constructed orientation has a shortcut: {witness}")
    return Decision(True, labeling=labeling, orientation=orientation, verified=verify)


def enumerate_labelings_oracle(p: SplitPartition, guard: int = 8) -> Labeling | None:
    """Independent oracle: first valid labeling in lexicographic vertex order, or None."""
    if p.k > guard:
        raise SizeGuardError(f"k={p.k} exceeds the labeling oracle guard {guard}")
    masks = neighborhood_matrix(p).columns
    row_of = {u: r + 1 for r, u in enumerate(p.clique)}
    for order in permutations(sorted(p.clique)):
        shapes = shapes_under_order(p.k, masks, [row_of[u] for u in order])
        if validate_shapes(shapes):
            return Labeling(order)
    return None


def forbidden_types(a: int, b: int, c: int) -> dict[str, list[frozenset[int]]]:
    """The paper's three forbidden configurations on the independent triple
    (a, b, c): case tag -> the neighborhoods in the triple of the four
    pairwise-adjacent clique vertices."""
    return {
        "a": [frozenset(), frozenset({a, b}), frozenset({a, c}), frozenset({b, c})],
        "b": [frozenset({a, b, c}), frozenset({a, b}), frozenset({a, c}), frozenset({b, c})],
        "c": [frozenset({a, b, c}), frozenset({a}), frozenset({b}), frozenset({c})],
    }


def check_small_I(p: SplitPartition, verify: bool = True) -> Decision:
    """Decision for independent sets of size at most 3, by the paper's
    characterization.

    The graph is rejected exactly when one of the three forbidden seven-vertex
    configurations is present (the witness lists its vertices; with at most
    two independent vertices there is none).  Otherwise the matrix pipeline
    must accept it, and its certificate is returned: a rejection there is an
    internal error, never a second decision.
    """
    if p.t > 3:
        raise ValueError(f"|I|={p.t} exceeds 3; reduce twins first")
    found = _first_forbidden(p.graph, p.independent)
    if found is not None:
        return Decision(False, refutation=Refutation(*found))
    masks = neighborhood_matrix(p).columns
    perm = decide_labeling(p.k, masks)
    if perm is None:
        raise InternalConsistencyError("matrix pipeline rejected an instance free of the forbidden configurations")
    return _certify(p, masks, perm, verify)


def find_forbidden_subgraph(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Search for one of the three forbidden seven-vertex configurations.

    Returns (case tag, sorted vertex set) for the first witness in
    deterministic order, or None.  The search runs over the independent side
    of a split partition only: a configuration's triple lies in the
    independent side of every split partition, since a clique vertex in it
    would put a quadruple vertex that misses it on the independent side,
    adjacent to a vertex already there.
    """
    p = split_partition(g)
    if p is None:
        raise ValueError("not a split graph")
    return _first_forbidden(g, p.independent)


def _first_forbidden(g: Graph, independent: Sequence[int]) -> tuple[str, tuple[int, ...]] | None:
    """Anchor on the triples of an independent set in ascending order, class
    every other vertex by its adjacency into the triple, and look for a
    pairwise-adjacent quadruple with the four types of a case: (case tag,
    sorted vertex set) for the first one found, or None."""
    masks = g.masks
    universe = (1 << g.n) - 1
    for triple in combinations(sorted(independent), 3):
        classes = [universe & ~vertex_mask(triple)]
        for x in triple:  # classes[s]: the other vertices adjacent to triple[i] exactly for the bits i of s
            classes = [cl & ~masks[x] for cl in classes] + [cl & masks[x] for cl in classes]
        for tag, req in _CASE_CLASSES.items():
            pools = [classes[s] for s in req]
            if not all(pools):
                continue
            quad = _adjacent_quad(masks, pools)
            if quad is not None:
                return f"case-{tag}", tuple(sorted(triple + quad))
    return None


# per case, the adjacency class of each quadruple vertex: bit i set for adjacency to triple[i]
_CASE_CLASSES = {tag: [vertex_mask(r) for r in req] for tag, req in forbidden_types(1, 2, 3).items()}


def _adjacent_quad(masks: Sequence[int], pools: list[int]) -> tuple[int, ...] | None:
    """First pairwise-adjacent (u1, u2, u3, u4) with u_i in pool i, ascending u1, then u2, u3, u4."""
    for u1 in bits(pools[0]):
        for u2 in bits(pools[1] & masks[u1]):
            for u3 in bits(pools[2] & masks[u1] & masks[u2]):
                for u4 in bits(pools[3] & masks[u1] & masks[u2] & masks[u3]):
                    return (u1, u2, u3, u4)
    return None


def render_decision(d: Decision, machine: bool = False) -> str:
    """External text form of a decision (plain or key=value record)."""
    if d.semi_transitive:
        labeling = " ".join(f"{u}:{i}" for i, u in enumerate(d.labeling.order, start=1))
        if machine:
            lines = ["outcome=semi-transitive", "labeling=" + labeling]
            if d.orientation is not None:
                lines.append("orientation=" + format_pairs(d.orientation.out, ">", " "))
            lines.append(f"verified={'true' if d.verified else 'false'}")
        else:
            lines = ["SEMI-TRANSITIVE", "labeling: " + labeling]
            if d.orientation is not None:
                lines.append("orientation:")
                arcs = format_pairs(d.orientation.out, " > ", "\n")
                if arcs:
                    lines.append(arcs)
    else:
        kind, vertices = d.refutation.kind, " ".join(map(str, d.refutation.vertices))
        if machine:
            lines = ["outcome=not-semi-transitive", "witness=" + kind]
            if vertices:
                lines.append("vertices=" + vertices)
        else:
            lines = ["NOT-SEMI-TRANSITIVE", f"witness: {kind} {vertices}".rstrip()]
    return "\n".join(lines) + "\n"
