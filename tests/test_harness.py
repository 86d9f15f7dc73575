import pytest

from semitrans.generate import GenSpec
from semitrans.harness import METHODS, DiffReport, bench, difftest


def test_difftest_exhaustive_tiny_all_methods():
    report = difftest(GenSpec(k=3, t=2, mode="exhaustive"), methods=METHODS)
    assert report.ok
    assert report.instances == report.agreements > 0


def test_difftest_random_agrees():
    report = difftest(GenSpec(k=5, t=3, density=0.5, seed=21), count=60)
    assert report.ok and report.instances == 60
    q = report.timing_quantiles()
    assert set(q) == set(METHODS)
    for stats in q.values():
        assert stats["p50"] <= stats["p90"] <= stats["max"]


def test_timing_quantiles_are_nearest_rank():
    report = DiffReport(GenSpec(k=3, t=2), ("recognize",))
    report.timings["recognize"] = [float(x) for x in (7, 3, 10, 1, 5, 9, 2, 8, 4, 6)]
    assert report.timing_quantiles() == {"recognize": {"p50": 5.0, "p90": 9.0, "max": 10.0}}
    report.timings["recognize"] = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert report.timing_quantiles() == {"recognize": {"p50": 3.0, "p90": 5.0, "max": 5.0}}


def test_difftest_single_planted_no_all_reject():
    report = difftest(
        GenSpec(k=4, t=3, density=0.3, seed=2, mode="planted-no"), count=3
    )
    assert report.ok  # all methods say no, which is agreement


def test_difftest_render_stable_without_timing():
    spec = GenSpec(k=4, t=3, density=0.5, seed=33)
    a = difftest(spec, count=20).render(include_timing=False)
    b = difftest(spec, count=20).render(include_timing=False)
    assert a == b
    assert "timing" not in a
    assert "timing" in difftest(spec, count=5).render()


def test_difftest_rejects_unknown_method():
    with pytest.raises(ValueError):
        difftest(GenSpec(k=3, t=2, seed=0), count=1, methods=("recognize", "nope"))


def test_bench_report_structure():
    report = bench(ks=[16, 32], ts=[8, 16], reps=2, seed=1)
    assert len(report.rows) == 4
    assert all(med >= 0 for _, _, med in report.rows)
    text = report.render()
    assert "slope_t" in text and "slope_k" in text


def test_bench_single_cell_has_no_slopes():
    report = bench(ks=[16], ts=[8], reps=1, seed=1)
    assert report.slope_t is None and report.slope_k is None
    assert "n/a" in report.render()


def _min_cells(ks, ts, grids=3):
    """Per-cell minimum of the bench medians over repeated grids on the same
    instances: a cell slowed by another process in one grid is timed again
    in the next, so the ratio reflects the code rather than the host."""
    cells = {}
    for _ in range(grids):
        for k, t, med in bench(ks=ks, ts=ts, reps=3, seed=2).rows:
            cells[k, t] = min(med, cells.get((k, t), med))
    return cells


def test_bench_doubling_ratios():
    # doubling t at fixed k lands near the quadratic model; doubling k near
    # the linear one (generous envelopes for constant factors)
    t_cells = _min_cells([64], [64, 128])
    ratio_t = t_cells[64, 128] / t_cells[64, 64]
    assert 2.0 <= ratio_t <= 6.0, ratio_t
    k_cells = _min_cells([512, 1024], [24])
    ratio_k = k_cells[1024, 24] / k_cells[512, 24]
    assert 1.3 <= ratio_k <= 4.0, ratio_k


def test_disagreement_dumps_are_replayable(monkeypatch, tmp_path, capsys):
    import semitrans.harness as harness
    from semitrans.cli import main
    from semitrans.generate import GenSpec

    real = harness.run_method

    def skewed(method, p, oracle_guard):
        if method == "labeling-oracle":
            return not real(method, p, oracle_guard)
        return real(method, p, oracle_guard)

    monkeypatch.setattr(harness, "run_method", skewed)
    report = harness.difftest(GenSpec(k=4, t=2, density=0.5, seed=6), count=5,
                              methods=("recognize", "labeling-oracle"))
    assert not report.ok and len(report.disagreements) == 5
    monkeypatch.undo()
    for idx, results, dump in report.disagreements:
        path = tmp_path / f"replay{idx}.graph"
        path.write_text(dump)
        rc = main(["recognize", str(path)])
        capsys.readouterr()
        expected = 0 if results["recognize"] else 1
        assert rc == expected
