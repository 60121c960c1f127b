"""Command-line front end.

Subcommands: analyze, amplitude, simulate, sweep, paper-tables.  Reports are
deterministic: floats are written with their shortest round-trip form in CSV
and with 17 significant digits in JSON, and no timestamps enter the data
streams.  Tables pass to `write_table` as columns; a float column is a
float64 array, formatted straight from the array with no row tuples.  Exit
codes: 0 success, 1 stdout closed before the report was written (quietly),
2 config error or bad flag, 3 numerical error.  The argument parser is built
once per process, on the first `main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .amplitude import classify, closed_form, integrate
from .characteristics import (
    Degenerate,
    DegenerateWaveError,
    DissipativeFinite,
    SingularLimit,
    SingularLimitError,
    WaveCoefficients,
    coefficients_ab,
    k_condition,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_sweep_value,
    load_scenario,
    material_from_dict,
    material_to_dict,
)
from .materials import (
    FluidParams,
    MooneyRivlin,
    Newtonian,
    PowerLaw,
    RegularizedPowerLaw,
)
from .wavefront import SimulationError, simulate

G_ACCEL = 9.81  # m/s^2, used only for the "in g" display

_UNITS = {"lambda0": "m/s", "a": "s/m", "b": "1/s", "pi_cr": "m/s^2",
          "t_c": "s", "pi0": "m/s^2"}


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return f'"{x!r}"'   # "nan", "inf" or "-inf"
    return format(x, ".17g")


def json_dumps(obj, indent: int | None = 2) -> str:
    """JSON text with floats at 17 significant digits (lossless round-trip)."""

    def rec(o, depth):
        pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
        end = "" if indent is None else "\n" + " " * (indent * depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{pad}{json.dumps(str(k))}: {rec(v, depth + 1)}"
                     for k, v in o.items()]
            return "{" + ",".join(items) + end + "}"
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = list(o)
            if not seq:
                return "[]"
            items = [f"{pad}{rec(v, depth + 1)}" for v in seq]
            return "[" + ",".join(items) + end + "]"
        return _json_scalar(o)

    return rec(obj, 0)


def _csv_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv_column(column) -> list[str]:
    """The CSV fields of one column.  A float64 array goes to text in one
    C-level pass: a float's repr holds no ", ", so the repr of its list splits
    back into the cells' reprs.  Any other column goes a cell at a time."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return repr(column.tolist())[1:-1].split(", ") if column.size else []
    return list(map(_csv_field, column))


# A pipe takes a write of at most PIPE_BUF bytes (4096 on Linux) whole or
# not at all.  A longer write to an unbuffered stdout (python -u) whose reader
# closes part-way is cut short without an error, and exit 1 would be lost.
_WRITE_CHUNK = 4096


def _emit(stream, text: str) -> None:
    """Write a report's text in _WRITE_CHUNK slices; every report goes out
    through here."""
    for i in range(0, len(text), _WRITE_CHUNK):
        stream.write(text[i:i + _WRITE_CHUNK])


def write_table(stream, header: list[str], columns: list, footer: dict | None,
                fmt: str) -> None:
    """Delimited table (or JSON records) with an optional '#' metadata footer,
    written through _emit.

    The table passes as columns, one per header name: float64 arrays (which
    go to text straight from the array, see _csv_column) or sequences of
    cells.  The CSV rows are joined once; JSON builds its row records from
    the same columns.
    """
    if fmt == "json":
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        payload = {"columns": header,
                   "rows": [dict(zip(header, row)) for row in zip(*cells)]}
        if footer:
            payload["meta"] = footer
        _emit(stream, json_dumps(payload) + "\n")
        return
    lines = [",".join(header), *map(",".join, zip(*map(_csv_column, columns)))]
    if footer:
        lines.append("# " + json_dumps(footer, indent=None))
    _emit(stream, "\n".join(lines) + "\n")


@contextmanager
def _output(path: str | None):
    """stdout, or the file at path (closed on exit)."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _case_name(wc: WaveCoefficients) -> str:
    return {DissipativeFinite: "dissipative_finite", Degenerate: "degenerate",
            SingularLimit: "singular_limit"}[type(wc.case)]


def analysis_report(cfg: ScenarioConfig, pi0: float | None) -> dict:
    wc = coefficients_ab(cfg.material)
    kc = k_condition(cfg.material)
    report = {
        "input": material_to_dict(cfg.material),
        "equilibrium": {"v": 0.0, "F": 1.0, "sigma": 0.0},
        "lambda0": wc.lambda0,
        "a": wc.a,
        "b": wc.b,
        "pi_cr": wc.pi_cr,
        "case": _case_name(wc),
        "k_condition": {
            "full_K": kc.full_K,
            "weak_K": kc.weak_K,
            "families": {name: asdict(fam) for name, fam in
                         (("minus", kc.minus), ("zero", kc.zero), ("plus", kc.plus))},
        },
        "units": dict(_UNITS),
    }
    if isinstance(wc.case, SingularLimit):
        report["case_params"] = {"n": wc.case.n, "b0": wc.case.b0}
    if pi0 is not None:
        outcome = classify(wc.a, wc.b, pi0)
        report["pi0"] = pi0
        report["outcome"] = {"global_existence": outcome.global_existence,
                             "t_c": outcome.t_c}
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    cfg = load_scenario(args.config)
    pi0 = args.pi0 if args.pi0 is not None else cfg.pi0
    report = analysis_report(cfg, pi0)
    with _output(args.out or cfg.out) as stream:
        if args.format == "csv":
            keys = ["lambda0", "a", "b", "pi_cr", "case"]
            row = [report[k] for k in keys]
            if "outcome" in report:
                keys += ["pi0", "global_existence", "t_c"]
                row += [report["pi0"], report["outcome"]["global_existence"],
                        report["outcome"]["t_c"]]
            keys += ["weak_K", "full_K"]
            row += [report["k_condition"]["weak_K"], report["k_condition"]["full_K"]]
            write_table(stream, keys, [[x] for x in row], {"input": report["input"]},
                        "csv")
        else:
            _emit(stream, json_dumps(report) + "\n")
    return 0


def cmd_amplitude(args) -> int:
    cfg = load_scenario(args.config)
    pi0 = args.pi0 if args.pi0 is not None else cfg.pi0
    if pi0 is None:
        raise ConfigError("amplitude needs --pi0 (or 'pi0' in the config)")
    wc = coefficients_ab(cfg.material)
    if math.isinf(wc.b):
        raise SingularLimitError(
            "amplitude trajectory is not defined in the singular limit; "
            "sweep the regularization parameter instead")
    outcome = classify(wc.a, wc.b, pi0)
    t_end = args.t_end
    if t_end is None:
        if outcome.t_c == math.inf:
            raise OverflowError(f"the critical time t_c overflows to inf at "
                                f"pi0={pi0!r}; give --t-end")
        t_end = (0.99 * outcome.t_c if not outcome.global_existence
                 else (5.0 / wc.b if wc.b > 0.0 else 1.0))
    dt = args.dt if args.dt is not None else t_end / 1000.0
    traj = integrate(wc.a, wc.b, pi0, t_end, dt)
    cf = np.full(traj.t.size, math.nan)   # pi(t) is undefined from t_c on
    defined = slice(None) if outcome.t_c is None else traj.t < outcome.t_c
    cf[defined] = closed_form(wc.a, wc.b, pi0, traj.t[defined])
    footer = {"a": wc.a, "b": wc.b, "pi_cr": wc.pi_cr, "pi0": pi0,
              "global_existence": outcome.global_existence, "t_c": outcome.t_c,
              "blew_up": traj.blew_up, "t_blowup": traj.t_blowup,
              "units": {"t": "s", "pi": "m/s^2"}}
    with _output(args.out or cfg.out) as stream:
        write_table(stream, ["t", "pi_closed_form", "pi_rk4"], [traj.t, cf, traj.pi],
                    footer, args.format)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    if cfg.sim is None:
        raise ConfigError("simulate needs a 'sim' block in the config")
    sim = cfg.sim
    result = simulate(cfg.material, sim.grid, sim.kink, sim.t_end,
                      output_every=sim.output_every)
    tr = result.trace
    footer = {"lambda0": tr.lambda0, "a": tr.a, "b": tr.b,
              "steepening_time": tr.steepening_time,
              "n_cells": sim.grid.n_cells, "dx": sim.grid.dx, "cfl": sim.grid.cfl,
              "pi0": sim.kink.pi0}
    out = args.out or cfg.out
    with _output(out) as stream:
        write_table(stream,
                    ["t", "measured_pi", "predicted_pi", "front_x", "energy",
                     "max_sigma_production"],
                    [tr.t, tr.measured_pi, tr.predicted_pi, tr.front_x, tr.energy,
                     tr.max_sigma_production], footer, args.format)
    if out is not None:
        snap = result.final
        with _output(out + ".snapshot.csv") as fh:
            write_table(fh, ["x", "v", "F", "sigma"],
                        [snap.x, snap.v, snap.F, snap.sigma], {"t": snap.t}, "csv")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_scenario(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep needs a 'sweep' block in the config")
    sw = cfg.sweep
    space = np.geomspace if sw.scale == "log" else np.linspace
    values = space(sw.min, sw.max, sw.count)
    material_dict = material_to_dict(cfg.material)

    wcs, kcs = [], []
    for value in values.tolist():
        model = apply_sweep_value(material_dict, sw.param, value)
        wcs.append(coefficients_ab(model))
        kcs.append(k_condition(model))
    lambda0, a, b, pi_cr = np.array([(wc.lambda0, wc.a, wc.b, wc.pi_cr) for wc in wcs],
                                    dtype=float).T

    if sw.param.endswith(".eps"):
        # singular-limit structure: pi_cr must fall and 1/b rise with eps
        by_eps = pi_cr[np.unique(values, return_index=True)[1]]   # per distinct eps
        if np.any(by_eps[1:] >= by_eps[:-1]):
            raise SimulationError("eps sweep violated pi_cr monotonicity")
    footer = {"param": sw.param, "scale": sw.scale,
              "input": material_dict}
    with _output(args.out or cfg.out) as stream:
        write_table(stream,
                    [sw.param, "lambda0", "a", "b", "pi_cr", "case",
                     "weak_K", "full_K"],
                    [values, lambda0, a, b, pi_cr, list(map(_case_name, wcs)),
                     [kc.weak_K for kc in kcs], [kc.full_K for kc in kcs]],
                    footer, args.format)
    return 0


# ---------------------------------------------------------------------------
# Built-in benchmark tables
# ---------------------------------------------------------------------------

_RUBBER = {"kind": "solid",
           "solid": {"rho_star": 929.0, "E1": 2.12e6, "E2": 3.0e6, "tau0": 0.1,
                     "elastic": {"kind": "quadratic_cubic", "R": 1.63}}}

_PENN_MR = MooneyRivlin(C1=0.092e6, C2=0.237e6, k_bulk=2000.20e6, nu_bar=0.4998)

# reference values and relative tolerances for the rubber benchmark
_RUBBER_REFS = {
    "lambda0": (74.21, 0.005),
    "a": (-0.009, 0.05),
    "b": (2.93, 0.005),
    "pi_cr": (321.41, 0.005),
    "pi_cr_in_g": (32.80, 0.01),
}
_MR_REFS = {"W2": (2.12e6, 0.15), "W3": (-6.93e6, 0.15)}


def _check_line(name: str, value: float, ref: float, rtol: float, unit: str) -> tuple[str, bool]:
    ok = abs(value - ref) <= rtol * abs(ref)
    status = "PASS" if ok else "FAIL"
    return (f"  {name:<12} {value:>14.6g} {unit:<7} "
            f"(reference {ref:g}, tol {rtol:.1%})  {status}"), ok


def cmd_paper_tables(args) -> int:
    lines = []
    all_ok = True

    model = material_from_dict(_RUBBER)
    wc = coefficients_ab(model)
    kc = k_condition(model)
    lines.append("Vulcanized-rubber benchmark (quadratic-cubic potential)")
    lines.append("  inputs: E1=2.12 MPa, R=1.63, E2=3 MPa, tau0=0.1 s, rho*=929 kg/m^3")
    checks = [("lambda0", wc.lambda0, "m/s"), ("a", wc.a, "s/m"),
              ("b", wc.b, "1/s"), ("pi_cr", wc.pi_cr, "m/s^2"),
              ("pi_cr_in_g", wc.pi_cr / G_ACCEL, "g")]
    for name, value, unit in checks:
        line, ok = _check_line(name, value, *_RUBBER_REFS[name], unit)
        lines.append(line)
        all_ok &= ok
    lines.append(f"  coupling condition: full_K={kc.full_K} weak_K={kc.weak_K}")
    lines.append("")

    w2, w3 = _PENN_MR.W2(1.0), _PENN_MR.W3(1.0)
    lines.append("Mooney-Rivlin potential derivatives at F=1 (Penn rubber constants)")
    lines.append("  C1=0.092 MPa, C2=0.237 MPa, k_bulk=2000.20 MPa, nu_bar=0.4998")
    for name, value in (("W2", w2), ("W3", w3)):
        line, ok = _check_line(name, value, *_MR_REFS[name], "Pa")
        lines.append(line)
        all_ok &= ok
    lines.append(f"  implied cubic coefficient R = {-w3 / (2.0 * w2):.4f}")
    lines.append("")

    lines.append("Fluid case classification (rho*=1, R_gas=1, tau0=1, mu0=1)")
    base = dict(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0)
    cases = [
        ("m=1 (Newtonian)", FluidParams(**base, production=Newtonian())),
        ("m=0.5 (shear-thinning)", FluidParams(**base, production=PowerLaw(k_cons=1.0, m=0.5))),
        ("m=2 (unregularized)", FluidParams(**base, production=PowerLaw(k_cons=1.0, m=2.0))),
        ("m=2, eps=0.01 (regularized)",
         FluidParams(**base, production=RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=0.01))),
    ]
    for label, fluid in cases:
        wcf = coefficients_ab(fluid)
        kcf = k_condition(fluid)
        lines.append(f"  {label:<30} case={_case_name(wcf):<19} "
                     f"b={_csv_field(wcf.b):<22} pi_cr={_csv_field(wcf.pi_cr):<22} "
                     f"weak_K={kcf.weak_K}")
    lines.append("")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")

    with _output(args.out) as stream:
        _emit(stream, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of the numeric flags: a float other than nan and +-inf."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


_finite_float.__name__ = "float"   # argparse's "invalid float value: ..." message


# argparse before Python 3.12 reads a negative number with an exponent, such
# as -1e-3, and -inf or -nan, as an option string and not as the value of the
# flag before it; the non-finite words then fail as values, naming the flag
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$",
                              re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelwave",
        description="Acceleration-wave analysis of 1-D relaxation models: "
                    "characteristic structure, amplitude blow-up, and a "
                    "finite-volume wavefront cross-check.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--config", required=True,
                       help="scenario config (JSON); bundled names like "
                            "'rubber.json' are resolved automatically")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("analyze", help="wave coefficients and coupling verdicts")
    add_common(p)
    p.add_argument("--pi0", type=_finite_float, default=None,
                   help="initial jump for the blow-up classification [m/s^2]")
    p.set_defaults(func=cmd_analyze, default_format="json")

    p = sub.add_parser("amplitude", help="closed-form and RK4 amplitude trajectory")
    add_common(p)
    p.add_argument("--pi0", type=_finite_float, default=None)
    p.add_argument("--t-end", type=_finite_float, default=None, dest="t_end")
    p.add_argument("--dt", type=_finite_float, default=None)
    p.set_defaults(func=cmd_amplitude, default_format="csv")

    p = sub.add_parser("simulate", help="finite-volume wavefront experiment")
    add_common(p)
    p.set_defaults(func=cmd_simulate, default_format="csv")

    p = sub.add_parser("sweep", help="parameter sweep of the wave coefficients")
    add_common(p)
    p.set_defaults(func=cmd_sweep, default_format="csv")

    p = sub.add_parser("paper-tables",
                       help="built-in benchmark report: rubber constants and "
                            "fluid case classifications")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_paper_tables, default_format="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "format", None) is None:
        args.format = args.default_format
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (as by `| head`): keep the exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateWaveError, SimulationError, ValueError,
            ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
