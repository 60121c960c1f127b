"""Per-phase wall time of an FV benchmark workload, in one process.

    python3 tools/phase_budget.py --tree DIR --workload {fv_stiff,fv_oracle} \
        [--seed N] [--passes P] [--out FILE]

Imports the tree's `src/accelwave` and `bench/workloads.py` (read-only: no
bytecode is written into the tree) and wraps the private phases of the FV
step loop in perf_counter spans: `_Stepper.advance_to`, `_Stepper._source`,
`_Plan.__init__`, `_hyperbolic_step`, `_Stepper._grow_span`, `_Record.add`,
`_Record.columns` and `_Stepper.kink` of `accelwave.wavefront`.  Runs one
warm pass of the workload's operations (seed N, default 1), then P timed
passes (default 3), and writes one JSON object to FILE (default stdout): the
pass time, and per phase the calls a pass, the inclusive time and its share
of the pass, and the self time (the span less the spans it encloses) and its
share.  A phase nested in another (a plan built in advance_to or kink, the
source in advance_to) counts in both inclusive times, once in self times.
Exits 2 naming each phase the tree does not have.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

# (owner, attribute) in accelwave.wavefront; owner None is the module
PHASES = (
    ("_Stepper", "advance_to"),
    ("_Stepper", "_source"),
    ("_Plan", "__init__"),
    (None, "_hyperbolic_step"),
    ("_Stepper", "_grow_span"),
    ("_Record", "add"),
    ("_Record", "columns"),
    ("_Stepper", "kink"),
)
WORKLOADS = ("fv_stiff", "fv_oracle")


def phase_name(owner: str | None, attr: str) -> str:
    return attr if owner is None else f"{owner}.{attr}"


def load(tree: Path):
    """The tree's accelwave.wavefront and bench/workloads.py modules."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    return importlib.import_module("accelwave.wavefront"), importlib.import_module("workloads")


def missing_phases(wavefront) -> list[str]:
    return [phase_name(owner, attr) for owner, attr in PHASES
            if not hasattr(wavefront if owner is None else getattr(wavefront, owner, None),
                           attr)]


class Spans:
    """Per phase: calls, inclusive and self seconds, while installed."""

    def __init__(self):
        self.stats = {phase_name(*p): [0, 0.0, 0.0] for p in PHASES}
        self.stack: list[list[float]] = []   # [start, child seconds] of each open span

    def clear(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]

    def _wrap(self, name: str, fn):
        st, stack, clock = self.stats[name], self.stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]

        return timed

    def install(self, wavefront) -> None:
        """Replace each phase by its timed wrapper (for good: the tool's
        process ends with the measurement)."""
        for owner, attr in PHASES:
            name = phase_name(owner, attr)
            if owner is None:
                setattr(wavefront, attr, self._wrap(name, getattr(wavefront, attr)))
                continue
            cls = getattr(wavefront, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))


def budget(wavefront, workloads, workload: str, seed: int, passes: int) -> dict:
    """The phase split of passes timed passes of the workload, after one
    warm pass."""
    spans = Spans()
    spans.install(wavefront)
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.make(workload, seed, Path(tmp)).ops()
        for op in ops:
            op.run()
        spans.clear()
        t0 = time.perf_counter()
        for _ in range(passes):
            for op in ops:
                op.run()
        pass_s = (time.perf_counter() - t0) / passes
    phases = {name: {"calls": calls / passes,
                     "ms_per_pass": 1e3 * total / passes,
                     "share": total / passes / pass_s,
                     "self_ms_per_pass": 1e3 * own / passes,
                     "self_share": own / passes / pass_s}
              for name, (calls, total, own) in spans.stats.items()}
    return {"workload": workload, "seed": seed, "passes": passes,
            "pass_ms": 1e3 * pass_s, "phases": phases}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, required=True)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be >= 1")
    wavefront, workloads = load(args.tree.resolve())
    missing = missing_phases(wavefront)
    if missing:
        print(f"error: accelwave.wavefront of {args.tree} has no phase {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import numpy
    report = {"tree": str(args.tree), "python": platform.python_version(),
              "numpy": numpy.__version__, "machine": platform.machine(),
              **budget(wavefront, workloads, args.workload, args.seed, args.passes)}
    text = json.dumps(report, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
