#!/usr/bin/env python3
"""Benchmark of the `semitrans recognize` user path.

    python3 recognize_bench/run.py --workload decide --seed 1 --seconds 60 --trace 0

Writes the workload's graph files from --seed, then runs one closed-loop
client (worker.py) in a fresh interpreter for --seconds.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics of a traced run instead.  Every metric is printed with its unit; the
last line is one JSON object.  The exit code is 0 when a result was printed,
even if some operations failed (they show in "failed").  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPS = 9
TIME_LIMIT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _env() -> dict:
    """Environment of the child interpreters: the checkout's sources, and a
    bytecode cache kept inside the benchmark's work directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing semitrans.cli, which
    every CLI invocation pays.  A first, untimed import fills the bytecode
    cache, as an installed package has one."""
    cmd = [sys.executable, "-c", "import semitrans.cli"]
    env = _env()
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith(".share"):
        return "frac"
    return "count"


def _dominance(shape, shares: dict) -> str:
    ranked = ", ".join(f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))
    line = f"{shape.label} operations, layer shares: {ranked}"
    if not shape.dominant:
        return line
    expected = sum(shares[layer] for layer in shape.dominant)
    verdict = "as expected" if expected > 0.5 else "NOT as expected: they hold half the time or less"
    return f"{line}; {'+'.join(shape.dominant)} take {expected:.1%}, {verdict}"


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import DEFAULT_SEED, WORKLOADS, write_corpus

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (ROOT / "src" / "semitrans" / "cli.py").is_file():
        print(f"error: no semitrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        files = write_corpus(workload, args.seed, run_dir)
        setup_s = None if args.trace else measure_setup()
        plan = {
            "files": files,
            "flags": list(workload.flags),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_path": str(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"),
        }
        plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
        plan_path.write_text(json.dumps(plan))
        budget = TIME_LIMIT_S - (time.perf_counter() - began)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
            env=_env(), timeout=budget,
        )
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    kinds = "/".join(dict.fromkeys(shape.label for shape in workload.shapes))
    print(f"workload {workload.name}: seed {args.seed}, {len(files)} graph files ({kinds}), "
          f"{' '.join(workload.flags) or 'default flags'}; closed loop, 1 client")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    print(f"fail_rate = {failed / attempted:.6f} ({failed} of {attempted} operations)")
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["per_layer"].items()}
        for name in result["missing_targets"]:
            print(f"note: {name} could not be traced: its time counts to its caller, its counters read 0")
        shapes = {shape.label: shape for shape in workload.shapes}
        for label, shares in result["shares_by_shape"].items():
            print(_dominance(shapes[label], shares))
        print(f"spans written to {plan['spans_path']}")
    else:
        lat = result["latencies_s"]
        values = {
            "ops_per_s": len(lat) / result["elapsed_s"],
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        beyond = len(lat) - int(0.9 * len(lat))
        print(f"latency samples: {len(lat)} ({beyond} above p90); setup_s: median of {SETUP_REPS} fresh interpreters")
        if beyond < 10:
            print("note: fewer than ten samples lie above p90")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
