"""tools/bit_identity.py with its child processes stubbed: no subprocess runs."""

import importlib.util
import json
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


def _stub(monkeypatch, digest="d", stdout="out", snapshot="x,v"):
    """A fake _python: the change tree's FV digest of op 1 of fv_stiff seed
    7, stdout of amplitude rubber json and snapshot file of simulate rubber
    --out are the given values; every other output is the same in both."""
    calls = []

    def python(tree, args, cwd):
        calls.append((tree.name, args[0]))
        change = tree.name == "change"
        if args[0] == "-c":
            names, seeds = args[2].split(","), args[3].split(",")
            digests = {f"{n} seed {s} op {i} (simulate)": "d" for n in names for s in seeds
                       for i in range(2)}
            if change and "fv_stiff seed 7 op 1 (simulate)" in digests:
                digests["fv_stiff seed 7 op 1 (simulate)"] = digest
            return 0, json.dumps(digests), ""
        argv = args[2:]
        if "--out" in argv:
            (cwd / "out.csv").write_text("t,measured_pi")
            rubber = change and "rubber.json" in argv
            (cwd / "out.csv.snapshot.csv").write_text(snapshot if rubber else "x,v")
        if change and argv[:3] == ["amplitude", "--config", "rubber.json"] and "json" in argv:
            return 0, stdout, ""
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
    _stub(monkeypatch, digest="other", stdout="other", snapshot="x,v,F")
    assert _main(_trees(tmp_path), "--seeds", "1,7") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: fv_stiff seed 7 op 1 (simulate)",
        "differs: simulate rubber --out",
        "differs: amplitude rubber json",
        "36 of 39 items equal"]


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
