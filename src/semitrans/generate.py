"""Reproducible split-graph instance generators.

Randomness comes from SplitMix64 (the standard 64-bit mixer), giving identical
corpora on every platform; each instance index derives its own stream from the
base seed, so instances can be regenerated independently.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .graphs import Graph, SplitPartition, bits, normalize_partition, vertex_mask
from .recognition import forbidden_types

_MASK64 = (1 << 64) - 1
MODES = ("random", "exhaustive", "planted-yes", "planted-no")


class SplitMix64:
    """SplitMix64 stream: x += 0x9E3779B97F4A7C15, then two xor-shift-multiplies."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next64()
            if x <= limit:
                return x % n

    def uniform(self) -> float:
        return (self.next64() >> 11) * (2.0 ** -53)

    def chance(self, p: float) -> bool:
        return self.uniform() < p

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffled(self, seq: Iterable) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def stream_for_instance(seed: int, index: int) -> SplitMix64:
    """Independent per-instance stream: mix the index through the base stream."""
    mixer = SplitMix64(seed ^ (index * 0x9E3779B97F4A7C15 & _MASK64))
    return SplitMix64(mixer.next64())


class GenSpec(namedtuple("GenSpec", "k t density seed mode")):
    """Instance-generation parameters; mode is one of MODES."""

    __slots__ = ()

    def __new__(cls, k: int, t: int, density: float = 0.5, seed: int = 0, mode: str = "random"):
        if k < 0 or t < 0:
            raise ValueError("k and t must be nonnegative")
        if not (0.0 <= density <= 1.0):
            raise ValueError("density must be a probability")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "exhaustive" and (k > 5 or t > 4):
            raise ValueError("exhaustive mode is bounded by k <= 5, t <= 4")
        if mode == "planted-no" and (k < 4 or t < 3):
            raise ValueError("planted-no needs k >= 4 and t >= 3")
        return tuple.__new__(cls, (k, t, density, seed, mode))


def split_graph_from_types(types: Sequence[Iterable[int]], t: int) -> SplitPartition:
    """Split graph with clique vertices 1..k typed by their independent-side
    neighborhoods (subsets of 1..t); independent vertices are k+1..k+t.

    The partition is normalized, so the returned clique/independent sizes may
    differ from (len(types), t).
    """
    k = len(types)
    n = k + t
    clique = (1 << k) - 1
    masks = [0] * (n + 1)
    for u, ty in enumerate(types, start=1):
        masks[u] = clique & ~(1 << (u - 1))
        for i in ty:
            if not (1 <= i <= t):
                raise ValueError(f"type element {i} outside 1..{t}")
            masks[u] |= 1 << (k + i - 1)
            masks[k + i] |= 1 << (u - 1)
    g = Graph._from_masks(n, tuple(masks))
    return normalize_partition(g, range(1, k + 1), range(k + 1, n + 1))


def masks_to_partition(k: int, masks: Sequence[int]) -> SplitPartition:
    """Materialize neighborhood masks (bit r-1 = clique row r) as a partition."""
    t = len(masks)
    type_sets: list[set[int]] = [set() for _ in range(k)]
    for j, mask in enumerate(masks, start=1):
        for r in bits(mask):
            type_sets[r - 1].add(j)
    return split_graph_from_types(type_sets, t)


def random_masks(rng: SplitMix64, k: int, t: int, density: float) -> list[int]:
    masks = []
    for _ in range(t):
        m = 0
        for r in range(k):
            if rng.chance(density):
                m |= 1 << r
        masks.append(m)
    return masks


def planted_yes_masks(rng: SplitMix64, k: int, t: int, wrap_prob: float = 0.25) -> list[int]:
    """Neighborhood masks that admit a valid labeling under the identity order.

    Wrapped vertices draw their prefix end at or below A and suffix start at or
    above B for fixed cut points A < B - 1, which settles the pairwise cover
    conditions; interval vertices avoid covering [A+1, B] by staying inside
    [1, B-1] or [A+1, k].  The identity labeling is then hidden by shuffling
    which vertex sits at which position.
    """
    if k < 4:
        wrap_prob = 0.0
    A = max(1, k // 3)
    B = min(k, A + 2 + max(1, k // 3)) if k >= 4 else k
    masks = []
    for _ in range(t):
        if rng.chance(0.05):
            masks.append(0)
            continue
        if k == 0:
            masks.append(0)
            continue
        if rng.chance(wrap_prob) and k >= 4:
            a = 1 + rng.below(A)
            b = B + rng.below(k - B + 1)
            mask = ((1 << a) - 1) | (((1 << (k - b + 1)) - 1) << (b - 1))
        else:
            if rng.chance(0.5):
                lo_min, hi_max = 1, max(1, B - 1)
            else:
                lo_min, hi_max = min(A + 1, k), k
            lo = lo_min + rng.below(hi_max - lo_min + 1)
            hi = lo + rng.below(hi_max - lo + 1)
            if lo == 1 and hi == k:       # adjacent to the whole clique: trim
                hi = k - 1
            mask = ((1 << (hi - lo + 1)) - 1) << (lo - 1)
        masks.append(mask)
    # hide the planted order
    perm = rng.shuffled(range(k))
    return [vertex_mask(perm[r - 1] + 1 for r in bits(mask)) for mask in masks]


def planted_no_types(rng: SplitMix64, k: int, t: int, density: float) -> list[set[int]]:
    """Clique types embedding one forbidden configuration on a random triple,
    padded with random adjacencies elsewhere."""
    triple = sorted(rng.shuffled(range(1, t + 1))[:3])
    core = forbidden_types(*triple)[rng.choice("abc")]
    slots = sorted(rng.shuffled(range(k))[:4])
    types: list[set[int]] = []
    slot_pos = {s: i for i, s in enumerate(slots)}
    rest = [i for i in range(1, t + 1) if i not in triple]
    for u in range(k):
        if u in slot_pos:
            ty = set(core[slot_pos[u]])
            for i in rest:
                if rng.chance(density):
                    ty.add(i)
        else:
            ty = {i for i in range(1, t + 1) if rng.chance(density)}
            # keep the embedded configuration induced: free vertices may meet
            # the triple arbitrarily; only the four slot vertices are pinned
        types.append(ty)
    return types


def generate(spec: GenSpec, count: int = 1) -> Iterator[SplitPartition]:
    """Deterministic instance stream for a generation spec.

    random: Bernoulli(density) clique/independent adjacencies, normalized.
    planted-yes: instances accepted by construction; planted-no: instances
    containing a forbidden configuration.  exhaustive: every subset-type
    profile with at most k clique vertices over exactly t independent ones,
    deduplicated after normalization (count must still be at least 1).
    """
    if count < 1:
        raise ValueError(f"count={count} is below 1")
    if spec.mode == "exhaustive":
        yield from _exhaustive(spec)
        return
    for idx in range(count):
        rng = stream_for_instance(spec.seed, idx)
        if spec.mode == "random":
            masks = random_masks(rng, spec.k, spec.t, spec.density)
            yield masks_to_partition(spec.k, masks)
        elif spec.mode == "planted-yes":
            masks = planted_yes_masks(rng, spec.k, spec.t)
            yield masks_to_partition(spec.k, masks)
        else:
            types = planted_no_types(rng, spec.k, spec.t, spec.density)
            yield split_graph_from_types(types, spec.t)


def _exhaustive(spec: GenSpec) -> Iterator[SplitPartition]:
    seen = set()
    all_types = [frozenset(s) for r in range(spec.t + 1) for s in combinations(range(1, spec.t + 1), r)]
    for size in range(1, spec.k + 1):
        for profile in combinations(all_types, size):
            p = split_graph_from_types([set(ty) for ty in profile], spec.t)
            key = _canonical_key(p)
            if key in seen:
                continue
            seen.add(key)
            yield p


def _canonical_key(p: SplitPartition):
    imask = vertex_mask(p.independent)
    i_index = {v: i for i, v in enumerate(sorted(p.independent), start=1)}
    profile = tuple(sorted(
        tuple(i_index[w] for w in bits(p.graph.masks[u] & imask)) for u in p.clique
    ))
    return (p.k, p.t, profile)


def forbidden_configuration(case: str) -> SplitPartition:
    """The minimal seven-vertex obstruction for the given case tag.

    Clique 1..4, independent 5..7; the clique takes the four types of
    forbidden_types for the case rotated left by one, so vertex 4 gets the
    empty type (case "a") or the full triple (cases "b" and "c").
    """
    table = forbidden_types(1, 2, 3)
    if case not in table:
        raise ValueError(f"unknown case {case!r}")
    quad = table[case]
    return split_graph_from_types(quad[1:] + quad[:1], 3)
