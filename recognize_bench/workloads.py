"""Workload definitions and corpus generation for the recognize benchmark.

Every input comes from the library's seeded SplitMix64 generators
(`semitrans.generate`), so one benchmark seed gives byte-identical graph files
on every machine.  Each workload cycles through a fixed corpus of distinct
graphs, interleaving instances of a few shapes; the corpus is large enough
that its mean cost moves little from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CORPUS_SIZE = 32
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Shape:
    """One family of generated instances."""

    label: str                  # names the shape in traced output
    mode: str                   # "planted-yes" | "planted-no"
    k: int
    t: int
    pinned: bool                # write the clique as a "C:" line
    dominant: tuple[str, ...]   # layers expected to take most of its time

    @property
    def semi_transitive(self) -> bool:
        return self.mode == "planted-yes"


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[Shape, ...]   # corpus cycles through these in order
    flags: tuple[str, ...]      # extra `semitrans recognize` arguments


# big clique, few independent vertices, split discovered from degrees
TALL = Shape("tall", "planted-yes", 240, 20, pinned=False, dominant=("graphs",))
# many independent vertices: t(t+1)/2 intersection columns, mostly duplicates
WIDE = Shape("wide", "planted-yes", 40, 48, pinned=True, dominant=("matrices", "pqtree"))
# the default verify on: orientation and shortcut re-verification
VERIFY = Shape("verify", "planted-yes", 72, 16, pinned=True, dominant=("orient",))
# the NO path: seven-vertex case witnesses, and PQ reductions failing part-way
REJECT_SMALL = Shape("reject", "planted-no", 120, 3, pinned=True, dominant=())
REJECT_WIDE = Shape("reject", "planted-no", 64, 200, pinned=True, dominant=())

# Why each workload exists is recorded in BENCHMARK.json and README.md.  Each
# corpus mixes shapes of clearly different cost so that the median lies in
# the upper part of a fast mode of the latency distribution: `wide` (3 of 5
# operations) in `decide`, the t=200 `reject` (3 of 7) in `verify`.  On a
# shared host whose speed drifts, the upper part of a mode reads much steadier
# from run to run than its middle (README.md has the measurements).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide", (WIDE, TALL, WIDE, TALL, WIDE), flags=("--no-verify",)),
        Workload("verify", (VERIFY, REJECT_WIDE, VERIFY, REJECT_WIDE, VERIFY, REJECT_WIDE, REJECT_SMALL),
                 flags=()),
    )
}


def shape_seed(seed: int, index: int) -> int:
    """Generator seed of shape `index` of a workload run with `seed`."""
    return seed * 8 + index


def write_corpus(workload: Workload, seed: int, directory: Path) -> list[dict]:
    """Write the workload's graph files; return one plan entry per file."""
    from semitrans.generate import GenSpec, generate
    from semitrans.graphs import format_graph

    directory.mkdir(parents=True, exist_ok=True)
    per_shape = CORPUS_SIZE // len(workload.shapes)
    streams = [
        list(generate(GenSpec(k=s.k, t=s.t, seed=shape_seed(seed, i), mode=s.mode), count=per_shape))
        for i, s in enumerate(workload.shapes)
    ]
    entries = []
    for idx in range(per_shape):
        for shape, stream in zip(workload.shapes, streams):
            p = stream[idx]
            path = directory / f"{workload.name}-{len(entries):03d}.txt"
            path.write_text(format_graph(p.graph, clique=p.clique if shape.pinned else None))
            entries.append({"path": str(path), "semi_transitive": shape.semi_transitive,
                            "shape": shape.label})
    return entries
