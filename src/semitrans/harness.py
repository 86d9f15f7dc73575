"""Differential-test campaigns and scaling benchmarks."""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

from .generate import GenSpec, generate, planted_yes_masks, stream_for_instance
from .graphs import SplitPartition, format_graph
from .orient import oracle_semi_transitive
from .recognition import (
    InternalConsistencyError,
    decide_labeling,
    enumerate_labelings_oracle,
    recognize,
    shapes_under_order,
    validate_shapes,
)

METHODS = ("recognize", "labeling-oracle", "orientation-oracle")


class DiffReport:
    def __init__(self, spec: GenSpec, methods: tuple[str, ...]):
        self.spec, self.methods = spec, methods
        self.instances = self.agreements = 0
        self.disagreements: list = []                       # (index, {method: bool}, dump)
        self.timings: dict = {m: [] for m in methods}       # method -> [seconds]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def timing_quantiles(self) -> dict[str, dict[str, float]]:
        out = {}
        for method, xs in self.timings.items():
            if not xs:
                continue
            s = sorted(xs)
            out[method] = {
                "p50": s[len(s) // 2],
                "p90": s[min(len(s) - 1, (len(s) * 9) // 10)],
                "max": s[-1],
            }
        return out

    def render(self, include_timing: bool = True) -> str:
        lines = [
            f"spec: k={self.spec.k} t={self.spec.t} density={self.spec.density}"
            f" seed={self.spec.seed} mode={self.spec.mode}",
            f"methods: {' '.join(self.methods)}",
            f"instances: {self.instances}",
            f"agreements: {self.agreements}",
            f"disagreements: {len(self.disagreements)}",
        ]
        for idx, results, dump in self.disagreements:
            verdicts = " ".join(f"{m}={'yes' if r else 'no'}" for m, r in results.items())
            lines.append(f"disagreement at instance {idx}: {verdicts}")
            lines.append(dump.rstrip("\n"))
        if include_timing:
            for method, q in self.timing_quantiles().items():
                lines.append(
                    f"timing {method}: p50={q['p50']:.6f}s p90={q['p90']:.6f}s max={q['max']:.6f}s"
                )
        return "\n".join(lines) + "\n"


def run_method(method: str, p: SplitPartition, oracle_guard: int) -> bool:
    if method == "recognize":
        return recognize(p).semi_transitive
    if method == "labeling-oracle":
        return enumerate_labelings_oracle(p) is not None
    if method == "orientation-oracle":
        return oracle_semi_transitive(p.graph, max_vertices=oracle_guard) is not None
    raise ValueError(f"unknown method {method!r}")


def difftest(
    spec: GenSpec,
    count: int = 100,
    methods: Sequence[str] = METHODS,
    oracle_guard: int = 10,
) -> DiffReport:
    """Run every selected method on every instance and collect disagreements.

    Disagreeing instances are dumped in the graph file format with the clique
    pinned, so they replay through the CLI byte-for-byte.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    report = DiffReport(spec, methods)
    for idx, p in enumerate(generate(spec, count)):
        results = {}
        for m in methods:
            t0 = time.perf_counter()
            results[m] = run_method(m, p, oracle_guard)
            report.timings[m].append(time.perf_counter() - t0)
        report.instances += 1
        if len(set(results.values())) <= 1:
            report.agreements += 1
        else:
            dump = format_graph(p.graph, clique=p.clique)
            report.disagreements.append((idx, results, dump))
    return report


class BenchReport:
    def __init__(self, rows: list, slope_t: float | None, slope_k: float | None):
        self.rows = rows                # (k, t, median_seconds)
        self.slope_t, self.slope_k = slope_t, slope_k

    def render(self) -> str:
        lines = ["k t median_s"]
        for k, t, med in self.rows:
            lines.append(f"{k} {t} {med:.6f}")
        lines.append(f"slope_t: {self.slope_t:.3f}" if self.slope_t is not None else "slope_t: n/a")
        lines.append(f"slope_k: {self.slope_k:.3f}" if self.slope_k is not None else "slope_k: n/a")
        return "\n".join(lines) + "\n"


def _fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) against log(x)."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _mean_slope(lines: list[list[tuple[float, float]]]) -> float | None:
    """Mean log-log slope over the grid lines that have one (positive times only)."""
    slopes = []
    for pts in lines:
        s = _fit_slope([(x, y) for x, y in pts if y > 0])
        if s is not None:
            slopes.append(s)
    return sum(slopes) / len(slopes) if slopes else None


def bench(
    ks: Sequence[int],
    ts: Sequence[int],
    reps: int = 3,
    seed: int = 0,
) -> BenchReport:
    """Median decision-core wall times over a k x t grid of accepted instances.

    Times the circular-ones decision plus labeling validation; certificate
    materialization (the quadratic-size orientation) is excluded since its cost
    is dominated by writing out the clique tournament, not by the decision.
    Slopes are log-log fits against the grid axes, averaged over rows/columns.
    """
    for name, values in (("k", ks), ("t", ts), ("reps", [reps])):
        if min(values, default=1) < 1:
            raise ValueError(f"{name}={min(values)} is below 1")
    rows = []
    cells: dict[tuple[int, int], float] = {}
    for k in ks:
        for t in ts:
            times = []
            for rep in range(reps):
                rng = stream_for_instance(seed, (k * 1_000_003 + t) * 31 + rep)
                masks = planted_yes_masks(rng, k, t)
                t0 = time.perf_counter()
                perm = decide_labeling(k, masks)
                ok = perm is not None and validate_shapes(shapes_under_order(k, masks, perm))
                elapsed = time.perf_counter() - t0
                if not ok:
                    raise InternalConsistencyError("planted-yes bench instance was rejected")
                times.append(elapsed)
            med = sorted(times)[len(times) // 2]
            rows.append((k, t, med))
            cells[(k, t)] = med
    slope_t = _mean_slope([[(t, cells[(k, t)]) for t in ts] for k in ks])
    slope_k = _mean_slope([[(k, cells[(k, t)]) for k in ks] for t in ts])
    return BenchReport(rows=rows, slope_t=slope_t, slope_k=slope_k)
