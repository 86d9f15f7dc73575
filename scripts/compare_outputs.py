"""Check that two source trees of semitrans print byte-identical CLI output.

Usage:
    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1,20211015]

OLD_SRC and NEW_SRC are directories that contain the `semitrans` package
(the `src/` of two checkouts).  For every seed, the recognize benchmark's
`decide` and `verify` corpora are written into a temporary directory by
`recognize_bench.workloads.write_corpus` under each tree, and the two sets of
files must be identical.  Then each tree runs, in its own interpreter:

- `recognize` plain, `--machine`, `--no-verify` and both, on every corpus file,
  and on two copies of every corpus file that pins its clique: one with the
  `C:` line reversed and one with it shuffled (seeded by the file's path), so
  the clique rows come in descending and in arbitrary id order;
- `check-orientation` plain and `--machine` on random small orientations,
  on the orientation of every verified YES, on a copy with one arc flipped
  and on a copy with a directed triangle closed by flipping one arc;
- `c1p` and `circ1p` on seeded matrix files with up to 60 rows and at least
  one column: random, duplicate-heavy, planted interval and arc systems, and
  planted NO cases (a cycle of pairs, or a triangle of pairs among four or
  more rows, inside an interval system), so both PQ-tree commands run full
  reductions and failing ones; and on the empty shapes `0 3`, `2 0` (its
  two rows blank) and `0 0`;
- `recognize` on seeded mutated graph files (`tests/graph_texts.py`, the
  generator of the parser's differential test): odd line ends and
  whitespace, respelled and non-integer ids, comments and `C:` lines glued
  to their content, lines of one or three tokens, bad header and edge values;
  and on files in `format_graph`'s layout, the one the parser reads in bulk,
  unedited or with one edit each (a swapped, looping, repeated or
  out-of-range edge, a leading zero, header m +- 1, a missing final newline,
  a trailing space, a CR, a tab, a space or line end moved past the digits
  beside it, a moved, doubled, repeating, out-of-range or empty `C:` line),
  some of them also without the final newline;
- `forbidden` plain and `--machine` on seeded small split graphs whose
  clique and independent ids are shuffled together;
- `oracle` plain and `--machine` on seeded graphs with at most 9 vertices,
  half of them grown by planting twins, and on one graph above its guard;
- every error of the graph, orientation and matrix readers, through
  `recognize`, `check-orientation` (plain and `--machine`), `c1p` and
  `circ1p`, the orientation and matrix ones after a comment line, a blank
  line and CRLF line ends;
- `gen` (up to k=240 and t=200), `forbidden` and `difftest --no-timing` on a
  fixed list of inputs.

Stdout, stderr and exit code of every run are compared.  Each mismatch is
printed as one line (files, arguments, exit codes), and the script exits 1
on any mismatch, 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECOGNIZE_FLAGS = ((), ("--machine",), ("--no-verify",), ("--machine", "--no-verify"))

# malformed graph files: one per parser error branch, plus layout variants
BAD_GRAPHS = (
    "", "# only a comment\n\n", "3\n", "3 x\n", "-1 0\n", "3 -2\n",
    "3 1\n1 2\nC: 1 1\n", "3 1\n1 2\nC: 1 x\n", "3 1\n1 2\nC: 4\n", "3 1\nC: 1\nC: 2\n1 2\n",
    "3 1\n1 2 3\n", "3 1\na b\n", "3 1\n2 2\n", "3 1\n2 1\n", "3 1\n1 4\n", "3 1\n0 1\n",
    "3 2\n1 2\n1 2\n", "3 1\n1 2\n1 3\n", "3 2\n1 2\n", "3 2\r\n# c\r\n1 2\r\n\r\n2 3\r\n2 3\r\n",
    "3 2\nC: 2 3\n1 2\n2 3\n", "  # indented comment\n4 3\n 1 2 \n1 3\n\t1 4\nC: 1\n",
    "2 1\n1 \n2", "2 1\n 1\n2", "3 2\n1 2\n1 \n3",
)
# malformed orientation and matrix files: one per reader error branch, the
# faulty line after a comment line, a blank line and CRLF line ends
_BEFORE = "# c\r\n\r\n"
NEGATIVE_HEADERS = ("-2 3", "1 -1", "-1 0", "0 -1")
BAD_ORIENTATIONS = (
    _BEFORE, _BEFORE + "2 1 0\r\n", _BEFORE + "2 x\r\n",
    *(_BEFORE + header + "\r\n" for header in NEGATIVE_HEADERS),
    "2 2\r\n" + _BEFORE + "1 > 2\r\n", "2 1\r\n" + _BEFORE + "1 < 2\r\n",
    "2 1\r\n" + _BEFORE + "1 > x\r\n", "2 1\r\n" + _BEFORE + "1 > 1\r\n",
    "2 1\r\n" + _BEFORE + "1 > 3\r\n", "3 2\r\n1 > 2\r\n" + _BEFORE + "2 > 1\r\n",
)
BAD_MATRICES = (
    _BEFORE, _BEFORE + "2\r\n", _BEFORE + "2 x\r\n",
    *(_BEFORE + header + "\r\n" for header in NEGATIVE_HEADERS),
    "2 2\r\n" + _BEFORE + "10\r\n", "1 2\r\n" + _BEFORE + "1x\r\n", "1 2\r\n" + _BEFORE + "101\r\n",
)
EMPTY_MATRICES = ("0 3\n", "2 0\n\n\n", "0 0\n")
GEN_ARGS = (
    ("--k", "6", "--t", "4", "--seed", "3", "--count", "3"),
    ("--k", "8", "--t", "5", "--mode", "planted-yes", "--seed", "1", "--count", "3"),
    ("--k", "8", "--t", "5", "--mode", "planted-no", "--seed", "2", "--count", "3"),
    ("--k", "3", "--t", "2", "--mode", "exhaustive"),
    ("--k", "240", "--t", "20", "--mode", "planted-yes", "--count", "2"),
    ("--k", "64", "--t", "200", "--mode", "planted-no", "--count", "1"),
)
RANDOM_ORIENTATIONS = 200   # small random digraphs: cyclic, shortcut-free or with shortcuts
MATRIX_KINDS = ("random", "duplicates", "intervals", "arcs", "cycle", "triangle")
MATRICES_PER_SEED = 180
FUZZ_GRAPHS_PER_SEED = 300
CANONICAL_GRAPHS_PER_EDIT = 5    # per seed, files in format_graph's layout with one edit each
SPLIT_GRAPHS_PER_SEED = 120      # small split graphs for `forbidden`
ORACLE_GRAPHS_PER_SEED = 150     # graphs on at most 9 vertices for `oracle`
DIFFTEST_SPECS = (
    "k=5,t=3,density=0.5,seed=21,mode=random",
    "k=6,t=4,density=0.4,seed=2,mode=planted-no",
    "k=3,t=2,mode=exhaustive",
)


def _worker(src: str, job: str, out: str):
    """Run every argv list of the job file through semitrans.cli.main."""
    sys.path[:0] = [src]
    from semitrans.cli import main

    results = []
    for argv in json.loads(Path(job).read_text()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:  # an escape from main is output to compare too
                rc = f"raised {type(exc).__name__}: {exc}"
        results.append([rc, stdout.getvalue(), stderr.getvalue()])
    Path(out).write_text(json.dumps(results))


def _corpus_worker(src: str, directory: str, seeds: str):
    sys.path[:0] = [src, str(REPO)]
    from recognize_bench.workloads import WORKLOADS, write_corpus

    for seed in (int(s) for s in seeds.split(",")):
        for name in ("decide", "verify"):
            write_corpus(WORKLOADS[name], seed, Path(directory) / f"seed{seed}" / name)


def _run_both(trees: list[str], argvs: list[list[str]], tmp: Path, tag: str) -> list[list]:
    """Run the argv lists under every tree, concurrently, one interpreter each."""
    job = tmp / f"{tag}.json"
    job.write_text(json.dumps(argvs))
    procs = []
    for idx, src in enumerate(trees):
        out = tmp / f"{tag}.{idx}.out.json"
        procs.append((out, subprocess.Popen([sys.executable, __file__, "--worker", src, str(job), str(out)])))
    results = []
    for out, proc in procs:
        if proc.wait() != 0:
            raise SystemExit(f"worker for {tag} exited with {proc.returncode}")
        results.append(json.loads(out.read_text()))
    return results


def _compare(argvs, results, mismatches: list[str]):
    old, new = results
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            parts = [name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
            mismatches.append(f"{' '.join(argv)}: {', '.join(parts)} differ (exit {a[0]} vs {b[0]})")


def _reordered_clique_files(files: list[Path], directory: Path) -> list[Path]:
    """Copies of every pinned corpus file with the `C:` line reversed and shuffled."""
    out = []
    for graph in files:
        lines = graph.read_text().splitlines(keepends=True)
        at = next((idx for idx, ln in enumerate(lines) if ln.startswith("C:")), None)
        if at is None:
            continue
        ids = lines[at].split()[1:]
        tag = f"{graph.parent.parent.name}-{graph.parent.name}-{graph.stem}"
        orders = {"reversed": ids[::-1], "shuffled": random.Random(tag).sample(ids, len(ids))}
        for name, order in orders.items():
            path = directory / f"{tag}.{name}.txt"
            path.write_text("".join(lines[:at] + ["C: " + " ".join(order) + "\n"] + lines[at + 1:]))
            out.append(path)
    return out


def _header_n(path: Path) -> int:
    return int(next(ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")).split()[0])


def _orientation_files(graph: Path, plain_out: str, directory: Path) -> list[Path]:
    """The verified orientation, a one-arc flip of it, and a cyclic variant."""
    arcs = [tuple(map(int, ln.split(" > "))) for ln in plain_out.split("orientation:\n", 1)[1].splitlines()]
    flipped = list(arcs)
    a, b = flipped[len(flipped) // 2]
    flipped[len(flipped) // 2] = (b, a)
    variants = {"verified": arcs, "flipped": flipped}
    heads: dict[int, set[int]] = {}
    for u, v in arcs:
        heads.setdefault(u, set()).add(v)
    # u > v > w plus u > w: turning u > w around closes a directed triangle
    closing = next(((u, w) for u, v in arcs for w in heads.get(v, ()) if w in heads[u]), None)
    if closing is not None:
        u, w = closing
        variants["cyclic"] = [(w, u) if arc == closing else arc for arc in arcs]
    files = []
    for name, lst in variants.items():
        path = directory / f"{graph.parent.parent.name}-{graph.stem}.{name}.orient"
        path.write_text(f"{_header_n(graph)} {len(lst)}\n" + "".join(f"{u} > {v}\n" for u, v in lst))
        files.append(path)
    return files


def _random_orientation_files(directory: Path) -> list[Path]:
    """Random graphs on at most 12 vertices with every edge given a random direction."""
    rng = random.Random(20211015)
    files = []
    for idx in range(RANDOM_ORIENTATIONS):
        n = rng.randint(1, 12)
        density = rng.choice((0.3, 0.5, 0.8))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < density]
        path = directory / f"random{idx:03d}.orient"
        path.write_text(f"{n} {len(arcs)}\n" + "".join(f"{u} > {v}\n" for u, v in arcs))
        files.append(path)
    return files


def _matrix_columns(rng: random.Random, kind: str, m: int) -> list[int]:
    """Column masks (bit r-1 = row r) of one matrix of the given kind."""
    hidden = list(range(m))
    rng.shuffle(hidden)

    def run(start: int, length: int) -> int:  # length rows of the hidden order, wrapping
        return sum(1 << hidden[(start + off) % m] for off in range(length))

    n = rng.randint(1, 40)
    if kind == "random":
        return [rng.getrandbits(m) for _ in range(n)]
    if kind == "duplicates":
        base = [rng.getrandbits(m) for _ in range(rng.randint(1, 4))]
        return [rng.choice(base) for _ in range(n)]
    if kind == "arcs":
        return [run(rng.randrange(m), rng.randint(1, m)) for _ in range(n)]
    cols = []
    for _ in range(n):
        lo = rng.randrange(m)
        cols.append(run(lo, rng.randint(1, m - lo)))
    if kind == "intervals":
        return cols
    # NO cases: the pairs {r_i, r_i+1} of a cycle admit no row order; the
    # three pairs of a triangle among four or more rows admit no circular one
    rows = rng.sample(range(m), rng.randint(3, m) if kind == "cycle" else 3)
    cols += [(1 << a) | (1 << b) for a, b in zip(rows, rows[1:] + rows[:1])]
    rng.shuffle(cols)
    return cols


def _matrix_files(seeds: str, directory: Path) -> list[Path]:
    files = []
    for seed in (int(s) for s in seeds.split(",")):
        rng = random.Random(seed)
        for idx in range(MATRICES_PER_SEED):
            kind = MATRIX_KINDS[idx % len(MATRIX_KINDS)]
            m = rng.randint(4, 60)
            cols = _matrix_columns(rng, kind, m)
            rows = ("".join("1" if (c >> r) & 1 else "0" for c in cols) for r in range(m))
            path = directory / f"seed{seed}-{idx:03d}-{kind}.matrix"
            path.write_text(f"{m} {len(cols)}\n" + "".join(row + "\n" for row in rows))
            files.append(path)
    return files


def _fuzz_graph_files(seeds: str, directory: Path) -> list[Path]:
    sys.path.insert(0, str(REPO / "tests"))
    from graph_texts import CANONICAL_EDITS, canonical_graph_text, mutated_graph_text

    files = []
    for seed in (int(s) for s in seeds.split(",")):
        rng = random.Random(seed)
        for idx in range(FUZZ_GRAPHS_PER_SEED):
            path = directory / f"seed{seed}-{idx:03d}.graph"
            path.write_bytes(mutated_graph_text(rng).encode())
            files.append(path)
        for edit in CANONICAL_EDITS:
            for idx in range(CANONICAL_GRAPHS_PER_EDIT):
                path = directory / f"seed{seed}-{edit}-{idx}.graph"
                path.write_bytes(canonical_graph_text(rng, edit).encode())
                files.append(path)
    return files


def _split_graph_files(seeds: str, directory: Path) -> list[Path]:
    """Split graphs on at most 16 vertices: a clique, an independent set and
    random edges between them, with the ids of the two sides interleaved."""
    files = []
    for seed in (int(s) for s in seeds.split(",")):
        rng = random.Random(seed)
        for idx in range(SPLIT_GRAPHS_PER_SEED):
            k, t = rng.randint(1, 10), rng.randint(0, 6)
            ids = rng.sample(range(1, k + t + 1), k + t)
            density = rng.choice((0.3, 0.5, 0.7))
            edges = [(a, b) for a in ids[:k] for b in ids[:k] if a < b]
            edges += [tuple(sorted((u, v))) for u in ids[:k] for v in ids[k:] if rng.random() < density]
            path = directory / f"seed{seed}-split{idx:03d}.graph"
            path.write_text(f"{k + t} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))
            files.append(path)
    return files


def _oracle_graph_files(seeds: str, directory: Path) -> list[Path]:
    """Graphs on at most 9 vertices with their ids shuffled; in every other
    one, the vertices past a random base each copy the neighborhood of an
    earlier vertex, adjacent to it or not, so the oracle removes twins and
    puts them back.  Plus one graph on 10 vertices, above the oracle's guard."""
    files = []
    for seed in (int(s) for s in seeds.split(",")):
        rng = random.Random(seed)
        for idx in range(ORACLE_GRAPHS_PER_SEED):
            n = rng.randint(1, 9)
            base = n if idx % 2 == 0 else rng.randint(1, n)
            density = rng.choice((0.3, 0.5, 0.7))
            adj: list[set[int]] = [set() for _ in range(n)]
            for u, v in combinations(range(base), 2):
                if rng.random() < density:
                    adj[u].add(v)
                    adj[v].add(u)
            for w in range(base, n):
                v = rng.randrange(w)
                for x in adj[v] | ({v} if rng.random() < 0.5 else set()):
                    adj[w].add(x)
                    adj[x].add(w)
            ids = rng.sample(range(1, n + 1), n)
            edges = sorted(tuple(sorted((ids[u], ids[v]))) for u in range(n) for v in adj[u] if u < v)
            path = directory / f"seed{seed}-oracle{idx:03d}.graph"
            path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            files.append(path)
    path = directory / "oracle-over-guard.graph"
    path.write_text("10 0\n")
    return files + [path]


def _write_forbidden_configurations(src: str, directory: Path):
    code = ("import sys; sys.path[:0] = [sys.argv[1]]\n"
            "from pathlib import Path\n"
            "from semitrans.generate import forbidden_configuration\n"
            "from semitrans.graphs import format_graph\n"
            "for case in 'abc':\n"
            "    p = forbidden_configuration(case)\n"
            "    Path(sys.argv[2], f'forbidden-{case}.graph').write_text(format_graph(p.graph))\n")
    subprocess.run([sys.executable, "-c", code, src, str(directory)], check=True)


def _other_cases(trees: list[str], files: list[Path], plain: list[list], tmp: Path, seeds: str) -> list[list[str]]:
    """check-orientation, c1p, circ1p, reader-error, parser-fuzz, gen, forbidden, oracle and difftest runs."""
    argvs = []
    matrix_dir = tmp / "matrices"
    matrix_dir.mkdir()
    argvs += [[cmd, str(path)] for path in _matrix_files(seeds, matrix_dir) for cmd in ("c1p", "circ1p")]
    for idx, text in enumerate(EMPTY_MATRICES):
        path = matrix_dir / f"empty{idx}.matrix"
        path.write_text(text)
        argvs += [[cmd, str(path)] for cmd in ("c1p", "circ1p")]
    orient_dir = tmp / "orient"
    orient_dir.mkdir()
    orientations = _random_orientation_files(orient_dir)
    for graph, (rc, out, _) in zip(files, plain):
        if rc == 0:
            orientations += _orientation_files(graph, out, orient_dir)
    argvs += [["check-orientation", str(path), *flags] for path in orientations for flags in ((), ("--machine",))]
    inputs = tmp / "inputs"
    inputs.mkdir()
    for idx, text in enumerate(BAD_GRAPHS):
        path = inputs / f"bad{idx:02d}.graph"
        path.write_bytes(text.encode())
        argvs.append(["recognize", str(path)])
    argvs += [["recognize", str(path)] for path in _fuzz_graph_files(seeds, inputs)]
    for idx, text in enumerate(BAD_ORIENTATIONS):
        path = inputs / f"bad{idx:02d}.orient"
        path.write_bytes(text.encode())
        argvs += [["check-orientation", str(path), *flags] for flags in ((), ("--machine",))]
    for idx, text in enumerate(BAD_MATRICES):
        path = inputs / f"bad{idx:02d}.matrix"
        path.write_bytes(text.encode())
        argvs += [[cmd, str(path)] for cmd in ("c1p", "circ1p")]
    argvs += [["gen", *gen] for gen in GEN_ARGS]
    _write_forbidden_configurations(trees[0], inputs)
    argvs += [["forbidden", str(inputs / f"forbidden-{case}.graph")] for case in "abc"]
    # trees older than the search over one split side scan every vertex
    # triple, cubic in n: the t=200 rejects (n=264) stay left out for them
    argvs += [["forbidden", str(f), *flags] for f in files if f.parent.name == "verify" and _header_n(f) <= 130
              for flags in ((), ("--machine",))]
    argvs += [["forbidden", str(f), *flags] for f in _split_graph_files(seeds, inputs)
              for flags in ((), ("--machine",))]
    argvs += [["oracle", str(f), *flags] for f in _oracle_graph_files(seeds, inputs)
              for flags in ((), ("--machine",))]
    argvs += [["difftest", "--spec", spec, "--count", "20", "--no-timing"] for spec in DIFFTEST_SPECS]
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", default="1,20211015")
    args = parser.parse_args(argv)
    trees = [str(Path(args.old_src).resolve()), str(Path(args.new_src).resolve())]
    mismatches: list[str] = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        corpora = [tmp / "old", tmp / "new"]
        for src, directory in zip(trees, corpora):
            subprocess.run([sys.executable, __file__, "--corpus", src, str(directory), args.seeds], check=True)
        graphs = sorted(p.relative_to(corpora[0]) for p in corpora[0].rglob("*.txt"))
        if graphs != sorted(p.relative_to(corpora[1]) for p in corpora[1].rglob("*.txt")):
            mismatches.append("corpus: the trees write different file lists")
        mismatches.extend(f"corpus: {g} differs" for g in graphs
                          if (corpora[0] / g).read_bytes() != (corpora[1] / g).read_bytes())
        files = [corpora[0] / g for g in graphs]

        argvs = [["recognize", str(f), *flags] for f in files for flags in RECOGNIZE_FLAGS]
        results = _run_both(trees, argvs, tmp, "recognize")
        _compare(argvs, results, mismatches)
        runs = len(argvs)
        reordered_dir = tmp / "reordered"
        reordered_dir.mkdir()
        reordered = [["recognize", str(f), *flags]
                     for f in _reordered_clique_files(files, reordered_dir) for flags in RECOGNIZE_FLAGS]
        _compare(reordered, _run_both(trees, reordered, tmp, "reordered"), mismatches)
        runs += len(reordered)
        argvs = _other_cases(trees, files, results[0][::len(RECOGNIZE_FLAGS)], tmp, args.seeds)
        _compare(argvs, _run_both(trees, argvs, tmp, "other"), mismatches)
        runs += len(argvs)
        print(f"compared {runs} runs per tree ({len(files)} corpus files, {len(reordered) // len(RECOGNIZE_FLAGS)} reordered copies)")
    for line in mismatches:
        print("MISMATCH", line)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
    elif sys.argv[1:2] == ["--corpus"]:
        _corpus_worker(*sys.argv[2:5])
    else:
        sys.exit(main())
