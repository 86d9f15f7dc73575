"""Command-line front end.

Exit codes follow the recognize convention: 0 for the positive outcome
(semi-transitive / certificate found / all methods agree), 1 for the negative
outcome, 2 for errors such as malformed input or guard violations, 3 for an
internal error (a failed consistency check or any other bug), which is never
an answer.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .generate import MODES, GenSpec, generate
from .graphs import format_graph, format_pairs, parse_graph_pinned, normalize_partition, split_partition
from .harness import METHODS, bench, difftest
from .matrices import format_permutation, has_circular_ones, has_consecutive_ones, parse_matrix
from .orient import (
    find_shortcut,
    format_orientation,
    oracle_semi_transitive,
    parse_orientation,
)
from .recognition import find_forbidden_subgraph, recognize, render_decision


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _partition_from_file(path: str):
    g, pinned = parse_graph_pinned(_read(path))
    if pinned is not None:
        pins = set(pinned)
        rest = [v for v in g.vertices() if v not in pins]
        return normalize_partition(g, pinned, rest)
    p = split_partition(g)
    if p is None:
        raise ValueError("input graph is not a split graph")
    return p


def _cmd_recognize(args) -> int:
    p = _partition_from_file(args.graph)
    decision = recognize(p, verify=args.verify)
    sys.stdout.write(render_decision(decision, machine=args.machine))
    return 0 if decision.semi_transitive else 1


def _cmd_check_orientation(args) -> int:
    o = parse_orientation(_read(args.orientation))
    try:
        w = find_shortcut(o)
    except ValueError:  # a directed cycle, found by the depth-first pass that orders the vertices
        sys.stdout.write("cyclic=true\n" if args.machine else "NOT-SEMI-TRANSITIVE\ncyclic\n")
        return 1
    if w is None:
        sys.stdout.write("outcome=semi-transitive\n" if args.machine else "SEMI-TRANSITIVE\n")
        return 0
    if args.machine:
        sys.stdout.write(
            "outcome=not-semi-transitive\n"
            f"path={' '.join(str(v) for v in w.path)}\n"
            f"closing={w.closing[0]}>{w.closing[1]}\n"
            f"missing={w.missing[0]} {w.missing[1]}\n"
        )
    else:
        sys.stdout.write(
            "NOT-SEMI-TRANSITIVE\n"
            f"shortcut path: {' '.join(str(v) for v in w.path)}\n"
            f"closing: {w.closing[0]} > {w.closing[1]}\n"
            f"missing: {w.missing[0]} {w.missing[1]}\n"
        )
    return 1


def _cmd_oracle(args) -> int:
    g, _ = parse_graph_pinned(_read(args.graph))
    o = oracle_semi_transitive(g, max_vertices=args.max_vertices)
    if o is None:
        sys.stdout.write("outcome=not-semi-transitive\n" if args.machine else "none\n")
        return 1
    if args.machine:
        sys.stdout.write("outcome=semi-transitive\n")
        sys.stdout.write("orientation=" + format_pairs(o.out, ">", " ") + "\n")
    else:
        sys.stdout.write(format_orientation(o))
    return 0


def _cmd_ones(args, circular: bool) -> int:
    mtx = parse_matrix(_read(args.matrix))
    perm = has_circular_ones(mtx) if circular else has_consecutive_ones(mtx)
    sys.stdout.write(format_permutation(perm) + "\n")
    return 0 if perm is not None else 1


def _cmd_forbidden(args) -> int:
    g, _ = parse_graph_pinned(_read(args.graph))
    found = find_forbidden_subgraph(g)
    if found is None:
        sys.stdout.write("witness=none\n" if args.machine else "none\n")
        return 0
    tag, vertices = found
    if args.machine:
        sys.stdout.write(f"witness={tag}\nvertices={' '.join(str(v) for v in vertices)}\n")
    else:
        sys.stdout.write(f"witness: {tag} {' '.join(str(v) for v in vertices)}\n")
    return 1


def _cmd_gen(args) -> int:
    spec = GenSpec(k=args.k, t=args.t, density=args.density, seed=args.seed, mode=args.mode)
    for idx, p in enumerate(generate(spec, count=args.count)):
        sys.stdout.write(f"# instance {idx}\n")
        sys.stdout.write(format_graph(p.graph, clique=p.clique))
    return 0


def _parse_spec_string(text: str) -> GenSpec:
    """Compact generation spec: "k=6,t=4,density=0.5,seed=1,mode=random"."""
    fields: dict = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key in ("k", "t", "seed"):
            fields[key] = int(value)
        elif key == "density":
            fields[key] = float(value)
        elif key == "mode":
            fields[key] = value.strip()
        else:
            raise ValueError(f"unknown spec field {key!r}")
    for key in ("k", "t"):
        if key not in fields:
            raise ValueError(f"spec field {key!r} is missing")
    return GenSpec(**fields)


def _cmd_difftest(args) -> int:
    if args.spec is not None:
        spec = _parse_spec_string(args.spec)
    else:
        if args.k is None or args.t is None:
            raise ValueError("difftest needs --spec or both --k and --t")
        spec = GenSpec(k=args.k, t=args.t, density=args.density, seed=args.seed, mode=args.mode)
    methods = [m.strip() for m in args.methods.split(",")]
    report = difftest(spec, count=args.count, methods=methods, oracle_guard=args.oracle_guard)
    sys.stdout.write(report.render(include_timing=not args.no_timing))
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    ks = [int(x) for x in args.k.split(",")]
    ts = [int(x) for x in args.t.split(",")]
    report = bench(ks, ts, reps=args.reps, seed=args.seed)
    sys.stdout.write(report.render())
    return 0


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitrans",
        description="Semi-transitive orientability of split graphs, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--machine", action="store_true", help="structured key=value output")

    sp = sub.add_parser("recognize", help="decide a split graph from a graph file")
    sp.add_argument("graph")
    add_common(sp)
    sp.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True,
                    help="re-verify certificates (default on)")
    sp.set_defaults(func=_cmd_recognize)

    sp = sub.add_parser("check-orientation", help="verify a directed orientation file")
    sp.add_argument("orientation")
    add_common(sp)
    sp.set_defaults(func=_cmd_check_orientation)

    sp = sub.add_parser("oracle", help="brute-force semi-transitivity of a small graph")
    sp.add_argument("graph")
    add_common(sp)
    sp.add_argument("--max-vertices", type=int, default=9)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("c1p", help="consecutive-ones certificate of a matrix file")
    sp.add_argument("matrix")
    sp.set_defaults(func=lambda a: _cmd_ones(a, circular=False))

    sp = sub.add_parser("circ1p", help="circular-ones certificate of a matrix file")
    sp.add_argument("matrix")
    sp.set_defaults(func=lambda a: _cmd_ones(a, circular=True))

    sp = sub.add_parser("forbidden", help="search for a forbidden seven-vertex configuration")
    sp.add_argument("graph")
    add_common(sp)
    sp.set_defaults(func=_cmd_forbidden)

    sp = sub.add_parser("gen", help="emit reproducible instances")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", default="random", choices=MODES)
    sp.add_argument("--count", type=int, default=1)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("difftest", help="differential test campaign")
    sp.add_argument("--spec", default=None,
                    help="compact form: k=6,t=4,density=0.5,seed=1,mode=random")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", default="random", choices=MODES)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--methods", default=",".join(METHODS))
    sp.add_argument("--oracle-guard", type=int, default=10)
    sp.add_argument("--no-timing", action="store_true",
                    help="omit timing lines (byte-stable reports)")
    sp.set_defaults(func=_cmd_difftest)

    sp = sub.add_parser("bench", help="decision-core scaling across a k x t grid")
    sp.add_argument("--k", required=True, help="comma-separated clique sizes")
    sp.add_argument("--t", required=True, help="comma-separated independent-set sizes")
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):  # a header that asks for 10^12 vertices, or more than an index holds
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed consistency check, or any other bug: never an answer
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
