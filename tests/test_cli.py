import pytest

from semitrans.cli import main
from semitrans.generate import GenSpec, forbidden_configuration, generate
from semitrans.graphs import format_graph, parse_graph_pinned, split_partition
from semitrans.orient import Orientation, parse_orientation
from semitrans.recognition import InternalConsistencyError, check_small_I


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


PATH_GRAPH = "3 2\n1 2\n2 3\n"


def test_recognize_yes(write, capsys):
    rc = main(["recognize", write("g.graph", PATH_GRAPH)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("SEMI-TRANSITIVE\nlabeling: ")
    assert "orientation:" in out


def test_recognize_no_with_exit_code(write, capsys):
    p = forbidden_configuration("a")
    rc = main(["recognize", write("g.graph", format_graph(p.graph, p.clique))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NOT-SEMI-TRANSITIVE" in out and "witness: case-a 1 2 3 4 5 6 7" in out


def test_recognize_matrix_witness_for_wider_independent_set(write, capsys):
    from semitrans.generate import split_graph_from_types

    p = split_graph_from_types([{1, 2}, {1, 3}, {2, 3}, set()], 4)
    rc = main(["recognize", write("g.graph", format_graph(p.graph, p.clique))])
    out = capsys.readouterr().out
    assert rc == 1 and "witness: circ1p-fail" in out


def test_recognize_machine_output(write, capsys):
    rc = main(["recognize", "--machine", write("g.graph", PATH_GRAPH)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["outcome"] == "semi-transitive"
    assert lines["verified"] == "true"
    assert "labeling" in lines and "orientation" in lines


def test_recognize_no_verify(write, capsys):
    rc = main(["recognize", "--no-verify", "--machine", write("g.graph", PATH_GRAPH)])
    out = capsys.readouterr().out
    assert rc == 0 and "verified=false" in out and "orientation" not in out


def test_recognize_errors_exit_2(write, capsys):
    assert main(["recognize", write("bad.graph", "2 1\n1 1\n")]) == 2
    assert "error:" in capsys.readouterr().err
    # C5 is not split
    assert main(["recognize", write("c5.graph", "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")]) == 2
    assert "split" in capsys.readouterr().err
    assert main(["recognize", "/nonexistent/file.graph"]) == 2


def test_recognize_out_of_memory_exit_2(write, capsys, monkeypatch):
    # a header such as "1000000000000 0" makes the parser allocate a mask per
    # vertex; running out of memory is an input error, not an answer (exit 1)
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("semitrans.cli.parse_graph_pinned", exhausted)
    assert main(["recognize", write("huge.graph", "1000000000000 0\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


@pytest.mark.parametrize("exc", [
    InternalConsistencyError("certificate failed"),
    RecursionError("too deep"),
    KeyError("stage"),
    pytest.param(None, id="cyclic-certificate"),
    pytest.param("rejected", id="pipeline-rejects-small-yes"),
])
def test_internal_error_exit_3(write, capsys, monkeypatch, exc):
    if exc == "rejected":
        # a t <= 3 graph free of the three forbidden configurations that the
        # matrix pipeline rejects is a disagreement, never a NO: check_small_I
        # raises it, both when recognize calls it and when called directly
        monkeypatch.setattr("semitrans.recognition.decide_labeling", lambda k, masks: None)
        with pytest.raises(InternalConsistencyError):
            check_small_I(split_partition(parse_graph_pinned(PATH_GRAPH)[0]))
        expected = "internal error: InternalConsistencyError"
    elif exc is None:
        # the verifier raises ValueError on a cycle; recognize must report a
        # cyclic certificate as an internal error, not as bad input (exit 2)
        cyclic = parse_orientation("3 3\n1 > 2\n2 > 3\n3 > 1\n")
        monkeypatch.setattr("semitrans.recognition._orient_labeling", lambda p, labeling, shapes: cyclic)
        expected = "internal error: InternalConsistencyError"
    else:
        def broken(p, verify=True):
            raise exc

        monkeypatch.setattr("semitrans.cli.recognize", broken)
        expected = str(exc)
    assert main(["recognize", write("g.graph", PATH_GRAPH)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and expected in captured.err


def _corrupt_windows(defect, order, windows, clique):
    """One defect in the windows of a labeling's certificate (see
    Orientation._from_windows): an arc to a non-neighbor, an arc back to the
    previous vertex of the order, or an edge left without a direction."""
    windows = list(windows)
    in_clique = [j for j, v in enumerate(order) if clique >> (v - 1) & 1]
    if defect == "non-edge":  # an independent vertex is never adjacent to the whole clique
        windows[next(j for j in range(len(order)) if j not in in_clique)] = (0, len(order))
    elif defect == "backward":  # the vertex before the last clique vertex is adjacent to it
        j = in_clique[-1]
        windows[j] = (j - 1, j)
    else:  # the vertex after the first clique vertex is adjacent to it
        j = in_clique[0]
        windows[j] = (j + 2, len(order))
    return windows


@pytest.mark.parametrize("defect,message", [
    ("non-edge", "is not an edge of the base graph"),
    ("backward", "back to a vertex not after it in the order"),
    ("missing-edge", "some edges are missing a direction"),
    ("shortcut", "constructed orientation has a shortcut"),
])
def test_corrupted_certificate_exit_3(write, capsys, monkeypatch, defect, message):
    # the certificate's own checks catch a bad construction; it is an
    # internal error (exit 3), never an answer and never bad input
    if defect == "shortcut":
        # identity labeling of clique 1..5 with wrapped 6 (prefix 1, suffix 3..5)
        # and 7 (prefix 1..3, suffix 5): condition 3 fails, so 6 > 3 > 7 > 5
        # closed by 6 > 5 misses the pair 6, 7; the labeling check is off
        text = "7 18\n" + "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6))
        text += "1 6\n3 6\n4 6\n5 6\n1 7\n2 7\n3 7\n5 7\nC: 1 2 3 4 5\n"
        monkeypatch.setattr("semitrans.recognition.decide_labeling", lambda k, masks: tuple(range(1, k + 1)))
        monkeypatch.setattr("semitrans.recognition._violations", lambda shapes, ids: iter(()))
    else:
        p = next(generate(GenSpec(k=8, t=4, seed=2, mode="planted-yes"), count=1))
        text = format_graph(p.graph, clique=p.clique)
        build = Orientation._from_windows.__func__
        monkeypatch.setattr(Orientation, "_from_windows", classmethod(
            lambda cls, g, order, windows, clique: build(
                cls, g, order, _corrupt_windows(defect, order, windows, clique), clique)))
    assert main(["recognize", write("g.graph", text)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: InternalConsistencyError") and message in captured.err


@pytest.mark.parametrize("command", ["recognize", "check-orientation"])
def test_header_beyond_an_index_exit_2(write, capsys, command):
    # a vertex count that no list index holds raises OverflowError where the
    # parser allocates a mask per vertex; that is an input error, not an answer
    assert main([command, write("huge.txt", "100000000000000000000 0\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_recognize_respects_pinned_clique(write, capsys):
    text = "3 2\n1 2\n2 3\nC: 2 3\n"
    rc = main(["recognize", write("g.graph", text), "--machine"])
    out = capsys.readouterr().out
    assert rc == 0
    labeling = out.splitlines()[1]
    assert labeling.startswith("labeling=")
    labeled = {tok.split(":")[0] for tok in labeling.split("=", 1)[1].split()}
    assert labeled == {"2", "3"}


def test_check_orientation(write, capsys):
    good = "3 2\n1 > 2\n2 > 3\n"
    assert main(["check-orientation", write("o1.orient", good)]) == 0
    assert capsys.readouterr().out == "SEMI-TRANSITIVE\n"
    bad = "4 4\n1 > 2\n2 > 3\n3 > 4\n1 > 4\n"
    assert main(["check-orientation", write("o2.orient", bad)]) == 1
    out = capsys.readouterr().out
    assert "shortcut path: 1 2 3 4" in out
    assert "closing: 1 > 4" in out and "missing: 1 3" in out
    cyclic = "4 4\n1 > 2\n2 > 3\n3 > 1\n3 > 4\n"
    assert main(["check-orientation", write("o3.orient", cyclic)]) == 1
    assert capsys.readouterr().out == "NOT-SEMI-TRANSITIVE\ncyclic\n"
    assert main(["check-orientation", write("o3.orient", cyclic), "--machine"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "cyclic=true\n" and captured.err == ""


def test_oracle_command(write, capsys):
    assert main(["oracle", write("g.graph", PATH_GRAPH)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 2\n")
    p = forbidden_configuration("c")
    assert main(["oracle", write("f.graph", format_graph(p.graph))]) == 1
    assert capsys.readouterr().out == "none\n"
    big = "\n".join(["12 0"]) + "\n"
    assert main(["oracle", write("big.graph", big)]) == 2
    assert "guard" in capsys.readouterr().err


def test_c1p_and_circ1p(write, capsys):
    consecutive = "3 2\n10\n11\n01\n"
    assert main(["c1p", write("m1.matrix", consecutive)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("perm: ")
    wrapped = "3 3\n110\n011\n101\n"
    assert main(["c1p", write("m2.matrix", wrapped)]) == 1
    assert capsys.readouterr().out == "none\n"
    assert main(["circ1p", write("m3.matrix", wrapped)]) == 0
    assert capsys.readouterr().out.startswith("perm: ")
    not_circ = "4 3\n110\n101\n011\n000\n"
    assert main(["circ1p", write("m4.matrix", not_circ)]) == 1
    assert capsys.readouterr().out == "none\n"


def test_forbidden_command(write, capsys):
    p = forbidden_configuration("b")
    assert main(["forbidden", write("f.graph", format_graph(p.graph))]) == 1
    assert capsys.readouterr().out == "witness: case-b 1 2 3 4 5 6 7\n"
    assert main(["forbidden", write("g.graph", PATH_GRAPH)]) == 0
    assert capsys.readouterr().out == "none\n"
    assert main(["forbidden", "--machine", write("f2.graph", format_graph(p.graph))]) == 1
    out = capsys.readouterr().out
    assert "witness=case-b" in out and "vertices=1 2 3 4 5 6 7" in out


def test_gen_deterministic(write, capsys):
    args = ["gen", "--k", "4", "--t", "3", "--density", "0.5", "--seed", "1", "--count", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.count("# instance") == 3
    assert "C: " in first
    assert main(["gen", "--k", "4", "--t", "3", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: count=-1 is below 1\n"


def test_gen_replayable_through_recognize(write, capsys, tmp_path):
    assert main(["gen", "--k", "4", "--t", "2", "--seed", "7", "--count", "1"]) == 0
    out = capsys.readouterr().out
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#")) + "\n"
    rc = main(["recognize", write("replay.graph", body)])
    capsys.readouterr()
    assert rc in (0, 1)


def test_difftest_command(write, capsys):
    args = [
        "difftest", "--k", "4", "--t", "3", "--density", "0.5", "--seed", "3",
        "--count", "25", "--methods", "recognize,labeling-oracle,orientation-oracle",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "instances: 25" in out and "disagreements: 0" in out
    assert "timing recognize:" in out
    for count in ("0", "-3"):
        assert main(["difftest", "--k", "4", "--t", "3", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: count={count} is below 1\n"


def test_difftest_no_timing_byte_stable(capsys):
    args = ["difftest", "--k", "4", "--t", "2", "--seed", "5", "--count", "10", "--no-timing"]
    assert main(args) == 0
    a = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == a


def test_difftest_compact_spec_flag(capsys):
    args = ["difftest", "--spec", "k=4,t=2,density=0.5,seed=5", "--count", "10", "--no-timing"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "instances: 10" in out and "disagreements: 0" in out
    assert main(["difftest", "--count", "1"]) == 2  # neither --spec nor --k/--t
    assert "error:" in capsys.readouterr().err
    for spec, field in (("k=4", "'t'"), ("t=2,seed=1", "'k'")):
        assert main(["difftest", "--spec", spec, "--count", "1"]) == 2
        assert capsys.readouterr().err == f"error: spec field {field} is missing\n"


def test_bench_command(capsys):
    assert main(["bench", "--k", "16,32", "--t", "8", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k t median_s")
    assert "slope_k:" in out
    for argv, bad in ((["--k", "4", "--t", "2", "--reps", "0"], "reps=0"),
                      (["--k", "4", "--t", "2", "--reps", "-1"], "reps=-1"),
                      (["--k", "-1", "--t", "2"], "k=-1"),
                      (["--k", "0,4", "--t", "2"], "k=0"),
                      (["--k", "4", "--t", "0,2"], "t=0")):
        assert main(["bench", *argv]) == 2
        assert capsys.readouterr().err == f"error: {bad} is below 1\n"


def test_cli_rejects_bad_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--k", "2", "--t", "1", "--mode", "bogus"])
    assert exc.value.code == 2
