"""Paired benchmark runs of two source trees.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload fv_stiff [--workload fv_oracle ...] --seeds 71-80 \
        --seconds 35 --out BENCH_name.json [--what "..."]

For each workload and seed, runs `python3 bench/run.py --workload W --seed S
--seconds T` once in each tree, one run at a time, and alternates which tree
runs first from seed to seed: on a shared machine a fixed order biases one
side by the drift between the two runs.  Each tree runs its own bench/ and
src/ and is given by its root directory (a clone or export of a commit).

The JSON written to --out has, per workload, the seeds, which side ran
first, each run's `correct` and `failed`, and per end-to-end metric of the
change tree's BENCHMARK.json: each side's runs, median and quartiles
(linear interpolation, as numpy.percentile), the relative change of the
median, the parent's interquartile range, the pairs in which the change is
better (a tie counts for neither side), whether the change's median is
within the metric's bound, and `gain_rule_met`: whether the change is
better in at least nine pairs of ten and its median better than the
parent's by more than the parent's interquartile range.  A gain is claimed
only where that holds.  At least two seeds are needed for the quartiles.

Two identical trees in different directories have read about 2% apart on
`fv_oracle` `wall_cal` (slower in 4 of 4 pairs), far more than the parent's
interquartile range, so a claimed gain of a few percent is to be read
against an A/A control: the same command with --change a second copy of
the parent tree.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'71-80' or '1,7,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result (last stdout line) of one benchmark run in tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per-metric figures of the paired runs, for the end-to-end metrics of
    spec (a BENCHMARK.json)."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(v)), runs=v)
                 for side, v in values.items()}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        rel = change / parent - 1.0
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        pairs = len(values["parent"])
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = parent - change if lower else change - parent
        out[name] = {
            "unit": metric["unit"], **stats,
            "median_change": rel,
            "parent_iqr": iqr,
            "change_better_in": f"{wins} of {pairs}",
            "bound": metric["bound"],
            "within_bound": (rel if lower else -rel) <= metric["bound"],
            "gain_rule_met": 10 * wins >= 9 * pairs and gap > iqr,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--what", default="")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error(f"--seeds names {len(args.seeds)} seed(s); the quartiles need at least two")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    import numpy
    report = {"what": args.what, "python": platform.python_version(),
              "numpy": numpy.__version__, "machine": platform.machine()}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        first = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(run_bench(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"wall_cal {runs[side][-1]['metrics']['wall_cal']['value']:.2f}",
                      file=sys.stderr)
        report[workload] = {
            "command": f"python3 bench/run.py --workload {workload} --seed S "
                       f"--seconds {args.seconds:g}",
            "seeds": args.seeds, "first": first,
            "correct_failed": {side: [[r["correct"], r["failed"]] for r in rs]
                               for side, rs in runs.items()},
            "metrics": summarize(runs, spec),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
