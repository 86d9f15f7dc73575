"""Closed-loop client for the recognize benchmark.

Runs in its own interpreter, which holds only the plan (graph file paths and
their planted answers), so the corpus generator never sets its memory
high-water mark.  One client issues `semitrans.cli.main(["recognize", ...])`
calls back to back, each after the previous one returned, with stdout
captured, until the measuring time is up.  Outputs are checked after the
timed loop.

Usage: worker.py PLAN_JSON RESULT_JSON
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import semitrans.cli as cli  # noqa: E402

from check import check_output  # noqa: E402
from spans import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident memory of this interpreter.

    On Linux, getrusage's ru_maxrss survives exec and so would report the
    parent's peak, which includes the corpus generator; VmHWM belongs to this
    process image alone.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Loop:
    """Issues operations, keeping each distinct (file, exit code, output)
    with the number of operations that produced it."""

    def __init__(self, plan: dict):
        self.files = plan["files"]
        self.flags = plan["flags"]
        self.results: Counter = Counter()
        self.raised: list[str] = []
        self.attempted = 0

    def argv(self, i: int) -> list[str]:
        return ["recognize", self.files[i % len(self.files)]["path"], *self.flags]

    def run(self, i: int, tracer: Tracer | None = None):
        """One operation; returns (exit code, output, seconds), exit code None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc, out = _call(self.argv(i))
                dt = time.perf_counter() - t0
            else:
                with tracer.operation(self.files[i % len(self.files)]["shape"]):
                    rc, out = _call(self.argv(i))
                dt = tracer.last_duration()
        except Exception as exc:   # a crash is a failed operation, not the end of the run
            self.raised.append(f"{self.argv(i)[1]}: raised {type(exc).__name__}: {exc}")
            return None, "", time.perf_counter() - t0
        self.results[(i % len(self.files), rc, out)] += 1
        return rc, out, dt

    def check(self, oriented: bool) -> list[str]:
        """Reasons for every failed operation (one line each, with its count)."""
        reasons = list(self.raised)
        for (idx, rc, out), count in self.results.items():
            entry = self.files[idx]
            try:
                bad = check_output(Path(entry["path"]).read_text(), out, rc,
                                   entry["semi_transitive"], oriented)
            except ValueError as exc:
                bad = f"unparsable output: {exc}"
            if bad is not None:
                reasons.extend([f"{entry['path']}: {bad}"] * count)
        return reasons


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    loop = Loop(plan)
    seconds = plan["seconds"]
    oriented = "--no-verify" not in loop.flags
    try:
        _call(loop.argv(0))  # warm-up, not counted
    except Exception:
        pass   # the timed loop runs this file again and counts the failure
    result: dict = {}
    if not plan["trace"]:
        latencies = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            latencies.append(loop.run(i)[2])
            i += 1
        result["elapsed_s"] = time.perf_counter() - start
        result["latencies_s"] = latencies
        result["peak_rss_mb"] = peak_rss_mb()
        mismatches = []
    else:
        # each file runs untraced and traced: the pair must print the same
        # bytes, and their times give the tracing overhead.  The second run of
        # a file is faster, so which goes first alternates every two files
        # (not every file, which would tie the order to a two-shape corpus)
        tracer = Tracer()
        plain_s = traced_s = 0.0
        mismatches = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            if (i // 2) % 2:
                rc2, out2, dt2 = loop.run(i, tracer)
                rc, out, dt = loop.run(i)
            else:
                rc, out, dt = loop.run(i)
                rc2, out2, dt2 = loop.run(i, tracer)
            if rc is not None and rc2 is not None:
                plain_s += dt
                traced_s += dt2
                if (rc, out) != (rc2, out2):
                    mismatches.append(f"{loop.argv(i)[1]}: traced output differs from untraced")
            i += 1
        result["per_layer"] = tracer.per_layer()
        result["per_layer"]["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
        result["shares_by_shape"] = tracer.shares_by_label()
        result["missing_targets"] = tracer.missing
        tracer.write_spans(plan["spans_path"])
    failures = loop.check(oriented) + mismatches
    result["attempted"] = loop.attempted
    result["failed"] = min(len(failures), loop.attempted)
    result["failures"] = failures[:10]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
