"""Bit-identity check of two source trees: FV runs and CLI outputs.

    python3 tools/bit_identity.py --parent DIR --change DIR [--seeds 1,7]

FV check: every `fv_oracle` and `fv_stiff` operation of the benchmark, built
at each seed by the tree's own `bench/workloads.py` (imported, not changed),
is run and its `digest` (the trace columns and final state, bit for bit)
compared.  CLI check: the exit code, stdout, stderr and written files of
`python3 -m accelwave.cli` for `simulate` (csv, json, and `--out` with its
snapshot file), `analyze` and `amplitude --pi0 50` (csv and json) on the
four bundled configs, `sweep --config shear_thickening_eps.json` (csv and
json) and `paper-tables`.

Each tree runs its own src/ in child processes, one at a time, and each CLI
command in a new empty directory.  Exits 0 when every item is equal, 1
naming each item that differs (or when a tree's FV runs cannot be made),
and 2 when a tree has no src/accelwave or bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("rubber.json", "newtonian.json", "shear_thinning.json",
           "shear_thickening_eps.json")
WORKLOADS = ("fv_oracle", "fv_stiff")
REQUIRED = ("src/accelwave", "bench/workloads.py")

# run in a tree's root: the digest of every operation, by item name, as JSON
_FV_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "bench")
import workloads
names, seeds = sys.argv[1].split(","), [int(s) for s in sys.argv[2].split(",")]
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in names:
        for seed in seeds:
            w = workloads.make(name, seed, Path(tmp))
            for i, op in enumerate(w.ops()):
                try:
                    digest = w.digest(op.run())
                except Exception as exc:
                    digest = f"raised {type(exc).__name__}: {exc}"
                digests[f"{name} seed {seed} op {i} ({op.label})"] = digest
print(json.dumps(digests))
"""


def cli_commands() -> dict[str, list[str]]:
    """The CLI arguments of each item of the CLI check, by item name."""
    cmds = {}
    for config in CONFIGS:
        stem = config.removesuffix(".json")
        for fmt in ("csv", "json"):
            cmds[f"simulate {stem} {fmt}"] = ["simulate", "--config", config, "--format", fmt]
        cmds[f"simulate {stem} --out"] = ["simulate", "--config", config, "--out", "out.csv"]
        for fmt in ("csv", "json"):
            cmds[f"analyze {stem} {fmt}"] = ["analyze", "--config", config, "--format", fmt]
            cmds[f"amplitude {stem} {fmt}"] = ["amplitude", "--config", config, "--pi0", "50",
                                               "--format", fmt]
    for fmt in ("csv", "json"):
        cmds[f"sweep shear_thickening_eps {fmt}"] = [
            "sweep", "--config", "shear_thickening_eps.json", "--format", fmt]
    cmds["paper-tables"] = ["paper-tables"]
    return cmds


def _python(tree: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of python3 args, run in cwd on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fv_items(tree: Path, seeds: list[int]) -> dict[str, str]:
    """The digest of every FV operation of tree, by item name."""
    rc, out, err = _python(tree, ["-c", _FV_SCRIPT, ",".join(WORKLOADS),
                                  ",".join(map(str, seeds))], tree)
    if rc != 0:
        raise RuntimeError(f"the FV runs in {tree} exited {rc}:\n{err.strip()}")
    return json.loads(out)


def cli_items(tree: Path) -> dict[str, tuple]:
    """(exit code, stdout, stderr, {file: text}) of every CLI command of
    tree, by item name."""
    items = {}
    for name, argv in cli_commands().items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = Path(tmp)
            result = _python(tree, ["-m", "accelwave.cli", *argv], cwd)
            files = {p.name: p.read_text() for p in sorted(cwd.iterdir())}
        items[name] = (*result, files)
    return items


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                   default=[1, 7], help="comma-separated benchmark seeds (default 1,7)")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        missing = [m for m in REQUIRED if not (tree / m).exists()]
        if missing:
            print(f"error: the {side} tree {tree} has no {' or '.join(missing)}",
                  file=sys.stderr)
            return 2
    try:
        results = {side: {**fv_items(tree, args.seeds), **cli_items(tree)}
                   for side, tree in trees.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parent, change = results["parent"], results["change"]
    names = list(parent) + [n for n in change if n not in parent]
    differ = [n for n in names if n not in parent or n not in change or parent[n] != change[n]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} items equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
