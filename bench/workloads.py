"""The benchmark's three workloads: inputs made from a seed, the fixed list
of operations, and the checks on each operation's output.

Every workload is a closed loop with a single client: the harness starts an
operation only after the previous one has returned.  The library is always
reached through module attributes (`wavefront.simulate`, `cli.main`), so a
traced run sees the patched layer functions.  See README.md in this
directory for why each workload was chosen and which layers it stresses.

Checks come in two kinds.  A *reference* check compares an output with an
answer the harness knows independently (the closed-form amplitude, an exit
code, a parse, the acceptance bounds of the oracle); if one fails, the run
is not correct.  A *property* check tests a law the output must obey but has
no reference value for (energy decay, dissipation sign, finiteness).  Both
kinds mark the operation as failed; neither aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from accelwave import characteristics, cli, config, materials, wavefront

REFERENCE = "reference"
PROPERTY = "property"


@dataclass
class Op:
    label: str          # what kind of operation this is, e.g. "simulate n=2000"
    run: Callable[[], object]


@dataclass
class CheckReport:
    failures: list[list[tuple[str, str]]]   # per op: (kind, message)
    summary: dict = field(default_factory=dict)


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _sim_digest(res) -> str:
    tr, fin = res.trace, res.final
    st = math.nan if tr.steepening_time is None else tr.steepening_time
    return _digest_arrays(tr.t, tr.measured_pi, tr.predicted_pi, tr.front_x,
                          tr.energy, tr.max_sigma_production, [st],
                          fin.x, fin.v, fin.F, fin.sigma)


def _unit_fluid(production) -> materials.FluidParams:
    return materials.FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                                 production=production)


def _all_finite(res) -> bool:
    tr, fin = res.trace, res.final
    return all(bool(np.all(np.isfinite(a))) for a in
               (tr.measured_pi, tr.predicted_pi, tr.front_x, tr.energy,
                tr.max_sigma_production, fin.v, fin.F, fin.sigma))


# ---------------------------------------------------------------------------
# fv_oracle: the acceptance oracle, rubber at n = 500, 1000, 2000
# ---------------------------------------------------------------------------

class FvOracle:
    """Time to solution of the paper's FV cross-check at a stated accuracy.

    Fixed constants; the seed is recorded but changes nothing.
    """

    name = "fv_oracle"
    sizes = (500, 1000, 2000)
    max_rel_err_bound = 0.05
    min_order = 0.8

    def __init__(self, seed: int, workdir: Path):
        self.model = materials.SolidParams(
            rho_star=929.0, E2=3.0e6, tau0=0.1,
            elastic=materials.QuadraticCubic(R=1.63), E1=2.12e6)
        wc = characteristics.coefficients_ab(self.model)
        self.ic = wavefront.KinkIC(x_front=13.0, pi0=0.1 * wc.pi_cr, ramp_width=6.0)
        self.t_end = 2.0 / wc.b
        self.inputs = {"material": "rubber", "kink": [13.0, 0.1 * wc.pi_cr, 6.0],
                       "domain": [0.0, 68.0], "t_end": self.t_end,
                       "outputs": 40, "n_cells": list(self.sizes)}

    def _run(self, n: int, t_end: float):
        grid = wavefront.Grid(x_min=0.0, x_max=68.0, n_cells=n, cfl=0.9)
        return wavefront.simulate(self.model, grid, self.ic, t_end=t_end,
                                  output_every=self.t_end / 40)

    def warmup(self) -> None:
        self._run(100, self.t_end / 40)

    def ops(self) -> list[Op]:
        return [Op(f"simulate n={n}", lambda n=n: self._run(n, self.t_end))
                for n in self.sizes]

    digest = staticmethod(_sim_digest)

    def check(self, outputs) -> CheckReport:
        failures = [[] for _ in outputs]
        errs, speeds = [], []
        for i, res in enumerate(outputs):
            if isinstance(res, BaseException):
                failures[i].append((PROPERTY, f"raised {type(res).__name__}: {res}"))
                errs.append(math.nan)
                speeds.append(math.nan)
                continue
            if not _all_finite(res):
                failures[i].append((PROPERTY, "non-finite trace or final state"))
            tr = res.trace
            errs.append(float(np.max(np.abs(tr.measured_pi - tr.predicted_pi)
                                     / np.abs(tr.predicted_pi))))
            speeds.append(float(np.polyfit(tr.t, tr.front_x, 1)[0]))
        with np.errstate(all="ignore"):
            order = math.log2((speeds[1] - speeds[0]) / (speeds[2] - speeds[1]))
        last = failures[-1]
        if not errs[0] > errs[1] > errs[2]:
            last.append((REFERENCE, f"errors do not fall with n: {errs}"))
        if not errs[-1] <= self.max_rel_err_bound:
            last.append((REFERENCE, f"max_rel_err {errs[-1]:.4g} > {self.max_rel_err_bound}"))
        if not order >= self.min_order:
            last.append((REFERENCE, f"front-speed order {order:.3g} < {self.min_order}"))
        return CheckReport(failures, {"max_rel_err": errs[-1], "errs": errs,
                                      "speed_order": order})


# ---------------------------------------------------------------------------
# fv_stiff: the eps-regularized power-law fluid, source-bound
# ---------------------------------------------------------------------------

# Strata pairing of the fv_stiff design: two fixed permutations of 0..11
# (numpy.random.default_rng(0).permutation(12), twice).
M_CELLS = (9, 2, 7, 4, 5, 11, 0, 3, 6, 10, 8, 1)
PI0_CELLS = (10, 9, 5, 4, 2, 7, 6, 1, 3, 11, 8, 0)


class FvStiff:
    """Many independent stiff runs on one grid: the Newton-sub-cycled source."""

    name = "fv_stiff"
    runs = 12
    energy_rtol = 1e-9

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.grid = wavefront.Grid(x_min=0.0, x_max=30.0, n_cells=800, cfl=0.9)
        # A fixed Latin-hypercube design: run j lies in the j-th twelfth of
        # the log-eps range and in the twelfths M_CELLS[j] and PI0_CELLS[j]
        # of the m and pi0 ranges.  The seed places each run at random inside
        # its cell and shuffles the run order, so every seed covers the whole
        # box and the work in a pass (set by eps and m through the sub-cycle
        # and Newton iteration counts) barely changes from seed to seed.
        cells = np.array([range(self.runs), M_CELLS, PI0_CELLS], dtype=float)
        u = (cells + rng.uniform(size=cells.shape)) / self.runs
        lo = np.array([[-4.0], [1.5], [0.03]])
        hi = np.array([[-2.0], [3.0], [0.3]])
        log_eps, m, pi0 = lo + (hi - lo) * u[:, rng.permutation(self.runs)]
        self.cases = [{"eps": float(10.0 ** le), "m": float(mm), "pi0": float(p)}
                      for le, mm, p in zip(log_eps, m, pi0)]
        self.models = [_unit_fluid(materials.RegularizedPowerLaw(k_cons=1.0, m=c["m"],
                                                                 eps=c["eps"]))
                       for c in self.cases]
        self.inputs = {"grid": [0.0, 30.0, 800, 0.9], "t_end": 3.0,
                       "output_every": 0.25, "kink": [12.0, 2.0], "cases": self.cases}

    def _run(self, i: int, grid, t_end: float):
        ic = wavefront.KinkIC(x_front=12.0, pi0=self.cases[i]["pi0"], ramp_width=2.0)
        return wavefront.simulate(self.models[i], grid, ic, t_end=t_end,
                                  output_every=0.25)

    def warmup(self) -> None:
        self._run(0, wavefront.Grid(x_min=0.0, x_max=30.0, n_cells=100, cfl=0.9), 0.25)

    def ops(self) -> list[Op]:
        return [Op("simulate", lambda i=i: self._run(i, self.grid, 3.0))
                for i in range(self.runs)]

    digest = staticmethod(_sim_digest)

    def check(self, outputs) -> CheckReport:
        failures = [[] for _ in outputs]
        worst_rise = -math.inf
        energy_failures = 0
        for i, res in enumerate(outputs):
            if isinstance(res, BaseException):
                failures[i].append((PROPERTY, f"raised {type(res).__name__}: {res}"))
                continue
            tr, fin = res.trace, res.final
            rise = np.diff(tr.energy) / np.abs(tr.energy[:-1])
            worst = float(np.max(rise))
            worst_rise = max(worst_rise, worst)
            if not worst <= self.energy_rtol:
                energy_failures += 1
                c = self.cases[i]
                failures[i].append((PROPERTY,
                    f"energy rose by {worst:.3g} (relative) between outputs at "
                    f"eps={c['eps']:.3g}, m={c['m']:.3g}, pi0={c['pi0']:.3g}"))
            if not float(np.max(tr.max_sigma_production)) <= 0.0:
                failures[i].append((PROPERTY, "max_sigma_production > 0"))
            if not all(bool(np.all(np.isfinite(a))) for a in (fin.v, fin.F, fin.sigma)):
                failures[i].append((PROPERTY, "non-finite final state"))
        return CheckReport(failures, {"energy_rise_failures": energy_failures,
                                      "worst_energy_rise": worst_rise})


# ---------------------------------------------------------------------------
# cli_mix: seeded scenario configs through accelwave.cli.main
# ---------------------------------------------------------------------------

FAMILIES = ("quadratic_cubic", "mooney_rivlin", "newtonian", "power_law", "regularized")
# Sizes of the twelve sweeps (every regularized scenario and every other
# quadratic-cubic one), dealt out in a seeded order: the total sweep work of
# a pass is the same for every seed.
SWEEP_COUNTS = (5, 6, 7, 8, 9) * 2 + (7, 7)


@dataclass
class Scenario:
    family: str
    path: Path
    config: dict
    expect_global: bool       # the branch pi0 was drawn on
    expect_amplitude_rc: int  # 3 where the material is in the singular limit
    sweep_count: int | None


def _draw_material(family: str, k: int, rng) -> dict:
    u = rng.uniform
    if family == "quadratic_cubic":
        return {"kind": "solid", "solid": {
            "rho_star": 10.0 ** u(2.5, 3.5), "E1": 10.0 ** u(5.5, 7.0),
            "E2": 10.0 ** u(5.5, 7.0), "tau0": 10.0 ** u(-2.0, 0.0),
            "elastic": {"kind": "quadratic_cubic", "R": u(0.5, 3.0)}}}
    if family == "mooney_rivlin":
        return {"kind": "solid", "solid": {
            "rho_star": 10.0 ** u(2.5, 3.5), "E2": 10.0 ** u(5.5, 7.0),
            "tau0": 10.0 ** u(-2.0, 0.0),
            "elastic": {"kind": "mooney_rivlin", "C1": u(0.05, 0.2) * 1e6,
                        "C2": u(0.1, 0.3) * 1e6, "k_bulk": u(500.0, 3000.0) * 1e6,
                        "nu_bar": u(0.45, 0.4999)}}}
    fluid = {"rho_star": 10.0 ** u(-0.5, 0.5), "R_gas": 10.0 ** u(-0.5, 0.5),
             "tau0": 10.0 ** u(-0.5, 0.5), "mu0": 10.0 ** u(-0.5, 0.5)}
    if family == "newtonian":
        fluid["production"] = {"kind": "newtonian"}
    elif family == "power_law":
        # alternate shear-thinning (b = 0) and the singular limit (m > 1)
        m = u(0.3, 0.9) if k % 2 == 0 else u(1.2, 3.0)
        fluid["production"] = {"kind": "power_law", "k_cons": 10.0 ** u(-1.0, 1.0), "m": m}
    else:
        fluid["production"] = {"kind": "regularized", "k_cons": 10.0 ** u(-1.0, 1.0),
                               "m": u(1.2, 3.0), "eps": 10.0 ** u(-4.0, -2.0)}
    return {"kind": "fluid", "fluid": fluid}


class CliMix:
    """About forty scenarios across five material families, in-process CLI."""

    name = "cli_mix"
    per_family = 8
    rk4_rtol = 1e-4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.command_times: dict[str, list[float]] = {}
        self.scenarios: list[Scenario] = []
        sweep_counts = iter(rng.permutation(SWEEP_COUNTS).tolist())
        for i in range(self.per_family * len(FAMILIES)):
            family = FAMILIES[i % len(FAMILIES)]
            k = i // len(FAMILIES)
            cfg = _draw_material(family, k, rng)
            wc = characteristics.coefficients_ab(config.material_from_dict(cfg))
            # canonical frame: s*pi0 > pi_cr blows up (s = -sign(a))
            s = 1.0 if wc.a < 0.0 else -1.0
            blow_up = k % 2 == 1
            if math.isinf(wc.b):
                pi0 = float(rng.uniform(0.1, 10.0))
                expect_global = True
            elif wc.b == 0.0:
                scale = float(rng.uniform(0.1, 10.0))
                pi0 = s * scale if blow_up else -s * scale
                expect_global = not blow_up
            else:
                factor = rng.uniform(1.2, 3.0) if blow_up else rng.uniform(0.2, 0.9)
                pi0 = s * float(factor) * wc.pi_cr
                expect_global = not blow_up
            cfg["pi0"] = pi0
            sweep_count = None
            if family == "regularized" or (family == "quadratic_cubic" and k % 2 == 0):
                sweep_count = next(sweep_counts)
                if family == "regularized":
                    eps = cfg["fluid"]["production"]["eps"]
                    cfg["sweep"] = {"param": "fluid.production.eps", "min": eps / 10.0,
                                    "max": eps * 10.0, "count": sweep_count, "scale": "log"}
                else:
                    tau0 = cfg["solid"]["tau0"]
                    cfg["sweep"] = {"param": "solid.tau0", "min": 0.5 * tau0,
                                    "max": 2.0 * tau0, "count": sweep_count,
                                    "scale": "linear"}
            singular = family == "power_law" and cfg["fluid"]["production"]["m"] > 1.0
            path = workdir / f"scenario_{i:02d}_{family}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
            self.scenarios.append(Scenario(family, path, cfg, expect_global,
                                           3 if singular else 0, sweep_count))
        self.inputs = [sc.config for sc in self.scenarios]

    def _call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        self.command_times.setdefault(argv[0], []).append(time.perf_counter() - t0)
        return rc, out.getvalue(), err.getvalue()

    def _scenario(self, sc: Scenario):
        cfg = str(sc.path)
        results = [("analyze", *self._call(["analyze", "--config", cfg])),
                   ("amplitude", *self._call(["amplitude", "--config", cfg]))]
        if sc.sweep_count is not None:
            results.append(("sweep", *self._call(["sweep", "--config", cfg])))
        return results

    def warmup(self) -> None:
        self._call(["analyze", "--config", str(self.scenarios[0].path)])
        self.command_times.clear()

    def ops(self) -> list[Op]:
        return [Op(f"scenario {sc.family}", lambda sc=sc: self._scenario(sc))
                for sc in self.scenarios]

    def final_ops(self) -> list[Op]:
        return [Op("paper-tables", lambda: [("paper-tables", *self._call(["paper-tables"]))])]

    @staticmethod
    def digest(output) -> str:
        return hashlib.sha256(repr(output).encode()).hexdigest()

    @staticmethod
    def _parse_csv(text: str) -> tuple[list[str], list[list[str]], dict]:
        lines = text.splitlines()
        footer = [ln for ln in lines if ln.startswith("# ")]
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        if len(footer) != 1 or lines[-1] != footer[0]:
            raise ValueError("CSV needs exactly one trailing '#' footer")
        header = lines[0].split(",")
        if any(len(r) != len(header) for r in rows):
            raise ValueError("ragged CSV rows")
        return header, rows, json.loads(footer[0][2:])

    def _check_scenario(self, sc: Scenario, results) -> list[tuple[str, str]]:
        fails = []
        for cmd, rc, out, err in results:
            expect = sc.expect_amplitude_rc if cmd == "amplitude" else 0
            if rc != expect:
                fails.append((REFERENCE, f"{cmd} exit {rc}, expected {expect}: {err.strip()}"))
                continue
            if rc != 0:
                continue
            try:
                if cmd == "analyze":
                    rep = json.loads(out)
                    if rep["outcome"]["global_existence"] != sc.expect_global:
                        fails.append((REFERENCE, "analyze outcome is on the wrong branch"))
                elif cmd == "amplitude":
                    fails += self._check_amplitude(out)
                else:
                    _, rows, _ = self._parse_csv(out)
                    if len(rows) != sc.sweep_count:
                        fails.append((REFERENCE, f"sweep has {len(rows)} rows, "
                                                 f"expected {sc.sweep_count}"))
            except (ValueError, KeyError, IndexError) as exc:
                fails.append((REFERENCE, f"{cmd} output does not parse: {exc}"))
        return fails

    def _check_amplitude(self, out: str) -> list[tuple[str, str]]:
        header, rows, _ = self._parse_csv(out)
        if header != ["t", "pi_closed_form", "pi_rk4"] or len(rows) < 2:
            return [(REFERENCE, "amplitude table has the wrong shape")]
        table = np.array(rows, dtype=float)
        cf, rk = table[:, 1], table[:, 2]
        defined = np.isfinite(cf)
        if not np.all(np.isfinite(rk)) or not np.any(defined):
            return [(REFERENCE, "amplitude table has no comparable rows")]
        rel = np.abs(rk[defined] - cf[defined]) / np.maximum(np.abs(cf[defined]), 1e-300)
        worst = float(np.max(rel))
        if not worst <= self.rk4_rtol:
            return [(REFERENCE, f"RK4 column departs from closed form by {worst:.3g}")]
        return []

    def check(self, outputs) -> CheckReport:
        failures = []
        for sc, res in zip(self.scenarios, outputs):
            if isinstance(res, BaseException):
                failures.append([(REFERENCE, f"raised {type(res).__name__}: {res}")])
            else:
                failures.append(self._check_scenario(sc, res))
        return CheckReport(failures)

    def check_final(self, outputs) -> CheckReport:
        """paper-tables: exit 0 and a report that ends with overall: PASS."""
        (res,) = outputs
        if isinstance(res, BaseException):
            return CheckReport([[(REFERENCE, f"raised {type(res).__name__}: {res}")]])
        (_, rc, out, err), = res
        lines = out.splitlines()
        if rc != 0 or not lines or lines[-1] != "overall: PASS":
            return CheckReport([[(REFERENCE, f"paper-tables exit {rc} does not end "
                                             f"with overall: PASS: {err.strip()}")]])
        return CheckReport([[]])


WORKLOADS = {w.name: w for w in (FvOracle, FvStiff, CliMix)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)


def inputs_digest(workload) -> str:
    text = json.dumps(workload.inputs, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()
