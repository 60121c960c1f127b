"""accelwave benchmark harness.

    python3 bench/run.py --workload {fv_oracle,fv_stiff,cli_mix,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
`src/`.  The workload's fixed list of operations is repeated, one operation
after another, until S seconds have passed (and at least a workload-specific
number of passes, so every percentile below is defined).  The outputs of the
first pass are checked, and every later pass must repeat them bit for bit;
a failed check counts the operation as failed and does not stop the run, so
`attempted` and `failed` depend on the seed only.

--trace 0 measures the end-to-end metrics with tracing off.  Between
operations it times a fixed numpy kernel (`calibration_s`), and the timed
metrics are in units of that kernel ("cal"): each operation's time divided
by the mean of the kernel times just before and just after it.  The speed
of the shared machine drifts by up to 1.7x within a minute, and the kernel
drifts with it; the program's own cost does not.  --trace 1
alternates untraced and traced passes: the traced ones wrap the library's
layer functions (see tracer.py) and give the per-layer metrics, and their
outputs must be bit-identical to the untraced ones.

A readable report goes to stdout first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  `--workload all` runs
the three workloads one after another in this process, S seconds each, and
ends with one JSON object whose metrics are named `<workload>.<metric>`
(`peak_rss_mb` is then the process's peak so far).  The run record (seed,
machine, versions, input digest) and every figure, including the ones that
only the readable report shows, are saved under .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"

WORKLOAD_NAMES = ("fv_oracle", "fv_stiff", "cli_mix")
# Passes at least: fv_oracle needs 11 so that the ten slowest of its
# operations are all n = 2000 runs and op_tail_ms stays within that size.
MIN_PASSES = {"fv_oracle": 11, "fv_stiff": 3, "cli_mix": 3}
SETUP_PROBES = 6          # fresh processes timed for setup_s, besides this one,
                          # spread evenly over the run
PROBE_TIMEOUT_S = 60.0
DEFAULT_THREADS = 4       # the program's own default for ACCELWAVE_THREADS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> dict:
    """Cap ACCELWAVE_THREADS at the usable core count, so the sweep's pool
    does not oversubscribe the machine; returns what was decided."""
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get("ACCELWAVE_THREADS", "")
    requested = int(raw) if raw.strip() else DEFAULT_THREADS
    used = max(1, min(requested, nproc))
    os.environ["ACCELWAVE_THREADS"] = str(used)
    return {"requested": requested, "cap": nproc, "used": used}


def set_up(name: str, seed: int, workdir: Path):
    """Import the library, make the inputs, make one warm-up call."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and accelwave
    wl = workloads.make(name, seed, workdir)
    wl.warmup()
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh process (`subprocess.run` waits for it, and
    kills it on timeout)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_s(steps: int = 40, n: int = 800) -> float:
    """Time of a fixed reference kernel, the best of two: MUSCL-Rusanov steps
    of Burgers' equation on n periodic cells, in numpy on arrays the size of
    the FV grids.  It uses nothing of accelwave, so only the machine moves
    it.  Changing it re-bases every metric in "cal"."""
    import numpy as np
    best = math.inf
    for _ in range(2):
        u = 1.5 + np.sin(np.linspace(0.0, 2.0 * np.pi, n + 4))
        t0 = time.perf_counter()
        for _ in range(steps):
            du = np.diff(u)
            slope = np.where(du[1:] * du[:-1] > 0.0,
                             np.sign(du[1:]) * np.minimum(np.abs(du[1:]), np.abs(du[:-1])),
                             0.0)
            ul = u[1:-2] + 0.5 * slope[:-1]
            ur = u[2:-1] - 0.5 * slope[1:]
            speed = np.maximum(np.abs(ul), np.abs(ur))
            flux = 0.25 * (ul * ul + ur * ur) - 0.5 * speed * (ur - ul)
            u[2:-2] -= 0.1 * np.diff(flux)
            u[:2] = u[-4:-2]
            u[-2:] = u[2:4]
        best = min(best, time.perf_counter() - t0)
    return best


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_ops(ops, tracer=None, calibrate=False):
    """Run operations one after another; returns (op times, op costs in cal,
    outputs).  With `calibrate`, the reference kernel is timed before the
    first operation and after each one; otherwise the costs are empty."""
    times, costs, outputs = [], [], []
    gc.collect()
    cal = calibration_s() if calibrate else None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation
            out = exc
        t = time.perf_counter() - t0
        times.append(t)
        outputs.append(out)
        if calibrate:
            after = calibration_s()
            costs.append(t / (0.5 * (cal + after)))
            cal = after
    return times, costs, outputs


class Ledger:
    """Checks the first outputs of each list of operations and counts each
    operation once; every later pass of the list must repeat them bit for
    bit, traced passes included."""

    def __init__(self, wl):
        self.wl = wl
        self.first_digests: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.nondeterministic = 0
        self.reference_failures = 0
        self.messages: dict[str, int] = {}
        self.summary: dict = {}

    def add(self, key: str, outputs, check) -> None:
        digests = [None if isinstance(o, BaseException) else self.wl.digest(o)
                   for o in outputs]
        first = self.first_digests.setdefault(key, digests)
        if first is not digests:
            self.nondeterministic += digests != first
            return
        report = check(outputs)
        self.summary.update(report.summary)
        self.attempted += len(outputs)
        for op_fails in report.failures:
            self.failed += bool(op_fails)
            for kind, msg in op_fails:
                self.reference_failures += kind == "reference"
                self.messages[msg] = self.messages.get(msg, 0) + 1

    @property
    def correct(self) -> bool:
        return self.reference_failures == 0 and self.nondeterministic == 0


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: the value,
    the percentile and the sample count."""
    n = len(values)
    if n < 11:
        raise ValueError(f"tail needs at least 11 samples, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def measure(wl, ledger, name: str, seed: int, seconds: float):
    """Calibrated passes for `seconds`, with the set-up probes spread evenly
    over them; returns per-pass and per-operation figures."""
    m = {"wall_s": [], "wall_cal": [], "op_s": [], "op_cal": [], "by_label": {},
         "setup_s": []}
    labels = [op.label for op in wl.ops()]
    start = time.perf_counter()
    while (len(m["wall_s"]) < MIN_PASSES[name]
           or time.perf_counter() - start < seconds):
        times, costs, outputs = run_ops(wl.ops(), calibrate=True)
        ledger.add("passes", outputs, wl.check)
        m["wall_s"].append(sum(times))
        m["wall_cal"].append(sum(costs))
        m["op_s"] += times
        m["op_cal"] += costs
        for label, t in zip(labels, times):
            m["by_label"].setdefault(label, []).append(t)
        due = (len(m["setup_s"]) + 0.5) * seconds / SETUP_PROBES
        if len(m["setup_s"]) < SETUP_PROBES and time.perf_counter() - start >= due:
            m["setup_s"].append(probe_setup(name, seed))
    while len(m["setup_s"]) < SETUP_PROBES:
        m["setup_s"].append(probe_setup(name, seed))
    return m


def measure_traced(wl, ledger, seconds: float):
    from tracer import Tracer, layer_stats
    tracer = Tracer()
    plain_walls, traced_walls, stats, first_spans = [], [], [], None
    nan_fracs = []
    start = time.perf_counter()
    while len(traced_walls) < 2 or time.perf_counter() - start < seconds:
        times, _, outputs = run_ops(wl.ops())
        ledger.add("passes", outputs, wl.check)
        plain_walls.append(sum(times))
        tracer.clear()
        with tracer.installed():
            times, _, outputs = run_ops(wl.ops(), tracer)
        ledger.add("passes", outputs, wl.check)
        traced_walls.append(sum(times))
        stats.append(layer_stats(tracer.spans))
        nan_fracs.append(_measure_nan_frac(outputs))
        if first_spans is None:
            first_spans = tracer.spans
    return plain_walls, traced_walls, stats, nan_fracs, first_spans


def _measure_nan_frac(outputs) -> float:
    import numpy as np
    total = nan = 0
    for out in outputs:
        trace = getattr(out, "trace", None)
        if trace is not None:
            total += trace.measured_pi.size
            nan += int(np.count_nonzero(np.isnan(trace.measured_pi)))
    return nan / total if total else 0.0


def per_layer_metrics(stats, nan_fracs, plain_walls, traced_walls) -> dict:
    from tracer import LAYER_NAMES
    first = stats[0]
    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.calls"] = (first[name]["calls"], "count")
        m[f"{name}.self_s"] = (statistics.median(s[name]["self_s"] for s in stats), "s")
    sims = first["wavefront.simulate"]["calls"]
    m["materials.elastic_derivs.calls_per_simulate"] = (
        first["materials.elastic_derivs"]["calls"] / sims if sims else 0.0, "count")
    record = ("wavefront.measure_front_slope", "wavefront.detect_front_position",
              "wavefront.entropy_monitor")
    m["wavefront.record_s"] = (
        statistics.median(sum(s[n]["total_s"] for n in record) for s in stats), "s")
    m["wavefront.measure_nan_frac"] = (statistics.median(nan_fracs), "ratio")
    m["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "accelwave" / "__init__.py").is_file():
        print(f"error: no accelwave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = cap_threads()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}-") as tmp:
            wl, setup_main = set_up(name, args.seed, Path(tmp))
            import accelwave
            if Path(accelwave.__file__).resolve().parent != (SRC / "accelwave").resolve():
                print(f"error: imported accelwave from {accelwave.__file__}, not {SRC}",
                      file=sys.stderr)
                return 2
            if args.setup_probe:
                print(repr(setup_main))
                return 0
            results[name] = run(args, name, wl, setup_main, threads)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


def run(args, name: str, wl, setup_main: float, threads: dict) -> dict:
    """Measure one workload, print its readable report, save it, and return
    its JSON result."""
    import numpy as np
    import workloads
    ledger = Ledger(wl)
    extra: dict = {}
    if args.trace:
        plain, traced, stats, nan_fracs, spans = measure_traced(wl, ledger, args.seconds)
        metrics = per_layer_metrics(stats, nan_fracs, plain, traced)
        from tracer import write_spans
        spans_path = OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl"
        write_spans(spans, spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        extra["passes"] = {"untraced": len(plain), "traced": len(traced)}
        extra["inclusive_us_per_call"] = {
            name: 1e6 * st["total_s"] / st["calls"]
            for name, st in stats[0].items() if st["calls"]}
    else:
        m = measure(wl, ledger, name, args.seed, args.seconds)
        setups = [setup_main] + m["setup_s"]
        tail_cal, tail_pct, n_ops = tail(m["op_cal"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_cal": (statistics.median(m["wall_cal"]), "cal"),
            "op_p50_cal": (statistics.median(m["op_cal"]), "cal"),
            "op_tail_cal": (tail_cal, "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        # wall-clock figures: printed and saved, not in the JSON result,
        # because they move with the machine's speed (see calibration_s)
        extra["wall_clock"] = {
            "wall_s": statistics.median(m["wall_s"]),
            "op_p50_ms": 1e3 * statistics.median(m["op_s"]),
            "op_tail_ms": 1e3 * tail(m["op_s"])[0],
            "cal_ms": 1e3 * statistics.median(
                t / c for t, c in zip(m["op_s"], m["op_cal"])),
        }
        extra["op_tail"] = {"percentile": tail_pct, "samples": n_ops}
        extra["passes"] = len(m["wall_s"])
        extra["setup_s_samples"] = setups
        extra["op_p50_ms_by_label"] = {k: 1e3 * statistics.median(v)
                                       for k, v in m["by_label"].items()}
        extra["command_p50_ms"] = {k: 1e3 * statistics.median(v) for k, v in
                                   getattr(wl, "command_times", {}).items()}
    if hasattr(wl, "final_ops"):
        _, _, outputs = run_ops(wl.final_ops())
        ledger.add("final", outputs, wl.check_final)
    failed_frac = ledger.failed / ledger.attempted
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": threads["cap"],
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(), "inputs_sha256": workloads.inputs_digest(wl),
        "ACCELWAVE_THREADS": threads,
    }
    report = {"record": record, "metrics": metrics_json,
              "failed_frac": failed_frac, "attempted": ledger.attempted,
              "failed": ledger.failed, "nondeterministic_passes": ledger.nondeterministic,
              "summary": ledger.summary, "failures": ledger.messages, **extra}

    print(f"accelwave benchmark: {json.dumps(record)}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<48} {v:>14.6g} {u}")
    if "wall_clock" in extra:
        units = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "cal_ms": "ms"}
        for k, v in extra["wall_clock"].items():
            print(f"  {k + ' (wall clock)':<48} {v:>14.6g} {units[k]}")
        print(f"  op_tail_* is p{extra['op_tail']['percentile']:.2f} of "
              f"{extra['op_tail']['samples']} operations over {extra['passes']} passes")
        for label, v in extra["op_p50_ms_by_label"].items():
            print(f"  median {label:<41} {v:>14.6g} ms")
        for cmd, v in extra["command_p50_ms"].items():
            print(f"  median command {cmd:<33} {v:>14.6g} ms")
    if "inclusive_us_per_call" in extra:
        for name, v in extra["inclusive_us_per_call"].items():
            print(f"  inclusive per call {name:<29} {v:>14.6g} us")
    if "max_rel_err" in ledger.summary:
        print(f"  {'max_rel_err (n=2000)':<48} {ledger.summary['max_rel_err']:>14.6g} 1")
    print(f"  {'failed_frac':<48} {failed_frac:>14.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for msg, count in ledger.messages.items():
        print(f"  failed x{count}: {msg}")
    if ledger.nondeterministic:
        print(f"  {ledger.nondeterministic} passes gave outputs that differ from "
              "the first pass (traced passes must be bit-identical)")
    path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    return {"correct": ledger.correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics_json}


if __name__ == "__main__":
    sys.exit(main())
