"""tools/bit_identity.py with its child processes stubbed: no subprocess runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bit_identity.py"
_spec = importlib.util.spec_from_file_location("bit_identity", _TOOL)
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)


def _trees(tmp_path, without=None):
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        (trees[side] / "src" / "accelwave").mkdir(parents=True)
        (trees[side] / "bench").mkdir()
        (trees[side] / "bench" / "workloads.py").write_text("")
    if without:
        target = trees["change"] / without
        target.rmdir() if target.is_dir() else target.unlink()
    return trees


_TRACE = {"t": [0.0, 1.0], "measured_pi": [2.0, 4.0]}
_CSV = "t,measured_pi\n0.0,2.0\n1.0,4.0\n# {}\n"


def _stub(monkeypatch, digest="d", stdout="out", snapshot="x,v", pi=4.0, csv=_CSV):
    """A fake _python: the change tree's FV digest and last measured_pi of
    op 1 of fv_stiff seed 7, stdout of amplitude rubber json and of
    simulate newtonian csv, and the snapshot file of simulate rubber --out
    are the given values; every other output is the same in both."""
    calls = []

    def python(tree, args, cwd):
        calls.append((tree.name, args[0]))
        change = tree.name == "change"
        if args[0] == "-c":
            names, seeds = args[2].split(","), args[3].split(",")
            assert args[4].split(",") == list(bit_identity.TRACE)
            items = {f"{n} seed {s} op {i} (simulate)": ["d", _TRACE] for n in names
                     for s in seeds for i in range(2)}
            if change and "fv_stiff seed 7 op 1 (simulate)" in items:
                items["fv_stiff seed 7 op 1 (simulate)"] = [
                    digest, {**_TRACE, "measured_pi": [2.0, pi]}]
            return 0, json.dumps(items), ""
        argv = args[2:]
        if "--out" in argv:
            (cwd / "out.csv").write_text("t,measured_pi")
            rubber = change and "rubber.json" in argv
            (cwd / "out.csv.snapshot.csv").write_text(snapshot if rubber else "x,v")
        if change and argv[:3] == ["amplitude", "--config", "rubber.json"] and "json" in argv:
            return 0, stdout, ""
        if argv[:3] == ["simulate", "--config", "newtonian.json"] and "csv" in argv:
            return 0, csv if change else _CSV, ""
        return 0, "out", ""

    monkeypatch.setattr(bit_identity, "_python", python)
    return calls


def _main(trees, *extra):
    return bit_identity.main(["--parent", str(trees["parent"]),
                              "--change", str(trees["change"]), *extra])


def test_equal_trees_exit_0_and_every_item_is_counted(tmp_path, monkeypatch, capsys):
    calls = _stub(monkeypatch)
    assert _main(_trees(tmp_path)) == 0
    # 2 workloads x 2 default seeds x 2 stub ops, 31 CLI commands
    assert capsys.readouterr().out == "39 of 39 items equal\n"
    assert len(bit_identity.cli_commands()) == 31
    assert [c for c in calls if c[1] == "-c"] == [("parent", "-c"), ("change", "-c")]


def test_each_differing_item_is_named_and_exits_1(tmp_path, monkeypatch, capsys):
    _stub(monkeypatch, digest="other", stdout="other", snapshot="x,v,F", pi=5.0,
          csv=_CSV.replace("1.0,4.0", "1.0,4.000001"))
    assert _main(_trees(tmp_path), "--seeds", "1,7") == 1
    # a trace item is sized column by column: 1/4 and 1e-6/4 of the
    # columns' largest values; the --out trace did not move, its snapshot did
    assert capsys.readouterr().out.splitlines() == [
        "differs: fv_stiff seed 7 op 1 (simulate)",
        "  max|change|/max|value|: t 0, measured_pi 0.25",
        "differs: simulate rubber --out",
        "  max|change|/max|value|: t 0, measured_pi 0",
        "differs: amplitude rubber json",
        "differs: simulate newtonian csv",
        "  max|change|/max|value|: t 0, measured_pi 2.5e-07",
        "35 of 39 items equal"]


def test_trace_columns_read_csv_json_and_out_files():
    json_text = json.dumps({"columns": ["t", "measured_pi"], "meta": {},
                            "rows": [{"t": 0.0, "measured_pi": "nan"},
                                     {"t": 1.0, "measured_pi": 4.0}]})
    got = bit_identity.trace_columns("simulate rubber json", (0, json_text, "", {}))
    assert got["t"] == [0.0, 1.0] and got["measured_pi"][1] == 4.0
    assert math.isnan(got["measured_pi"][0])
    assert bit_identity.trace_columns("simulate rubber csv", (0, _CSV, "", {})) == _TRACE
    out = (0, "", "", {"out.csv": _CSV, "out.csv.snapshot.csv": "x,v"})
    assert bit_identity.trace_columns("simulate rubber --out", out) == _TRACE
    assert bit_identity.trace_columns("fv_oracle seed 1 op 0 (simulate n=500)",
                                      ["d", _TRACE]) == _TRACE
    # a failed command's output and a command that writes no trace
    assert bit_identity.trace_columns("simulate rubber csv", (3, "", "error", {})) is None
    assert bit_identity.trace_columns("simulate rubber csv", (0, "t\nx\n", "", {})) is None
    assert bit_identity.trace_columns("analyze rubber csv", (0, _CSV, "", {})) is None


@pytest.mark.parametrize("parent, change, want", [
    ([1.0, -2.0, 4.0], [1.0, -2.0, 4.0], 0.0),
    ([1.0, -2.0, 4.0], [1.0, -2.5, 4.0], 0.125),
    ([math.nan, 2.0], [math.nan, 2.5], 0.25),            # NaN on both sides: skipped
    ([math.inf, 2.0], [math.inf, 2.0], 0.0),
    ([0.0, -0.0], [-0.0, 0.0], 0.0),                      # zeros of either sign are equal
    ([0.0, 0.0], [0.0, 1e-300], math.inf),                # a zero column moved
    ([math.nan, 2.0], [1.0, 2.0], math.nan),              # NaN on one side only
    ([1.0, 2.0], [1.0], math.nan),                        # lengths differ
])
def test_column_change(parent, change, want):
    got = bit_identity.column_change(parent, change)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_seeds_reach_the_fv_runs(tmp_path, monkeypatch, capsys):
    _stub(monkeypatch)
    assert _main(_trees(tmp_path), "--seeds", "3") == 0
    assert capsys.readouterr().out == "35 of 35 items equal\n"


@pytest.mark.parametrize("without", ["src/accelwave", "bench/workloads.py"])
def test_a_tree_without_sources_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                       without):
    calls = _stub(monkeypatch)
    assert _main(_trees(tmp_path, without)) == 2
    assert without in capsys.readouterr().err
    assert calls == []


def test_failed_fv_runs_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bit_identity, "_python", lambda tree, args, cwd: (1, "", "boom"))
    assert _main(_trees(tmp_path)) == 1
    assert "boom" in capsys.readouterr().err
