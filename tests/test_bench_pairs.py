"""tools/bench_pairs.py with its benchmark runs stubbed: no subprocess runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_SPEC = {"end_to_end": [{"name": "wall_cal", "unit": "cal", "better": "lower", "bound": 0.2},
                        {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.2}]}


def _result(wall_cal, speed=1.0):
    return {"correct": True, "failed": 0,
            "metrics": {"wall_cal": {"value": wall_cal}, "speed": {"value": speed}}}


def _trees(tmp_path, sides=("parent", "change")):
    trees = {}
    for side in sides:
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    return trees


def _main(trees, out, seeds):
    control = ["--control", str(trees["control"])] if "control" in trees else []
    return bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             *control, "--workload", "fv_stiff", "--seeds", seeds,
                             "--seconds", "1", "--out", str(out)])


@pytest.mark.parametrize("seeds", ["5", "5-5", "7-6"])
def test_fewer_than_two_seeds_are_refused_before_any_run(tmp_path, monkeypatch, capsys, seeds):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: calls.append(args))
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        _main(_trees(tmp_path), out, seeds)
    assert exc.value.code == 2
    assert "at least two" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_runs_alternate_and_are_written(tmp_path, monkeypatch):
    calls = []

    def run_bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return _result(100.0 if tree.name == "parent" else 90.0 + seed)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    trees, out = _trees(tmp_path), tmp_path / "pairs.json"
    assert _main(trees, out, "1-3") == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    report = json.loads(out.read_text())["fv_stiff"]
    assert report["seeds"] == [1, 2, 3] and report["first"] == ["parent", "change", "parent"]
    assert report["correct_failed"] == {"parent": [[True, 0]] * 3, "change": [[True, 0]] * 3}
    wall = report["metrics"]["wall_cal"]
    assert wall["change"]["runs"] == [91.0, 92.0, 93.0] and wall["change"]["median"] == 92.0
    assert wall["change_better_in"] == "3 of 3" and wall["gain_rule_met"] is True
    # "speed" is 1.0 on both sides in every pair: ties, no gain
    assert report["metrics"]["speed"]["change_better_in"] == "0 of 3"
    assert report["metrics"]["speed"]["gain_rule_met"] is False


def _summary(parent, change, speeds=None, control=None):
    runs = {"parent": [_result(p) for p in parent],
            "change": [_result(c, s) for c, s in zip(change, speeds or [1.0] * len(change))]}
    if control is not None:
        runs["control"] = [_result(c) for c in control]
    return bench_pairs.summarize(runs, _SPEC)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


def test_gain_rule_needs_nine_wins_of_ten():
    nine = [95.0] * 9 + [102.0]
    assert _summary(PARENT, nine)["wall_cal"]["gain_rule_met"] is True
    eight = [95.0] * 8 + [102.0, 102.0]
    assert _summary(PARENT, eight)["wall_cal"]["change_better_in"] == "8 of 10"
    assert _summary(PARENT, eight)["wall_cal"]["gain_rule_met"] is False


def test_a_tie_counts_for_neither_side():
    ties = [95.0] * 8 + [PARENT[8], PARENT[9]]
    m = _summary(PARENT, ties)["wall_cal"]
    assert m["change_better_in"] == "8 of 10" and m["gain_rule_met"] is False


def test_gain_rule_needs_a_median_gap_above_the_parent_iqr():
    m = _summary(PARENT, [p - 0.1 for p in PARENT])["wall_cal"]
    assert m["change_better_in"] == "10 of 10"
    assert m["parent_iqr"] == pytest.approx(0.75)
    assert m["gain_rule_met"] is False
    m = _summary(PARENT, [p - 1.0 for p in PARENT])["wall_cal"]
    assert m["gain_rule_met"] is True


def test_gain_rule_of_a_metric_where_higher_is_better():
    m = _summary(PARENT, PARENT, speeds=[1.5] * 10)["speed"]
    assert m["change_better_in"] == "10 of 10" and m["gain_rule_met"] is True
    m = _summary(PARENT, PARENT, speeds=[0.5] * 10)["speed"]
    assert m["change_better_in"] == "0 of 10" and m["gain_rule_met"] is False


def test_a_control_runs_in_the_same_alternating_pairs(tmp_path, monkeypatch):
    calls = []

    def run_bench(tree, workload, seed, seconds):
        calls.append(tree.name)
        return _result({"parent": 100.0, "change": 90.0, "control": 101.0}[tree.name])

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    trees, out = _trees(tmp_path, ("parent", "change", "control")), tmp_path / "pairs.json"
    assert _main(trees, out, "1-2") == 0
    assert calls == ["parent", "change", "control", "control", "change", "parent"]
    report = json.loads(out.read_text())["fv_stiff"]
    assert report["first"] == ["parent", "control"]
    assert report["correct_failed"]["control"] == [[True, 0]] * 2
    wall = report["metrics"]["wall_cal"]
    assert wall["control"]["runs"] == [101.0, 101.0]
    assert wall["control_change"] == pytest.approx(0.01)
    assert wall["gain_rule_met"] is True


def test_without_a_control_no_control_figures_are_written():
    m = _summary(PARENT, [p - 1.0 for p in PARENT])["wall_cal"]
    assert "control" not in m and "control_change" not in m


def test_gain_rule_needs_a_median_move_above_the_controls():
    # 10 of 10 pairs and a gap of 1.0 cal, above the parent IQR of 0.75
    change = [p - 1.0 for p in PARENT]
    m = _summary(PARENT, change, control=[p - 0.5 for p in PARENT])["wall_cal"]
    assert m["control_change"] == pytest.approx(-0.005) and m["gain_rule_met"] is True
    # an identical tree that moved as far, either way, leaves no gain
    for offset in (-1.0, 1.5):
        m = _summary(PARENT, change, control=[p + offset for p in PARENT])["wall_cal"]
        assert m["change_better_in"] == "10 of 10" and m["gain_rule_met"] is False
