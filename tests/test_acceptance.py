"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.
"""

import math
import time

import numpy as np

from accelwave import (
    FluidParams,
    Grid,
    KinkIC,
    PowerLaw,
    RegularizedPowerLaw,
    assemble_ab_numeric,
    classify,
    closed_form,
    coefficients_ab,
    elastic_derivs,
    integrate,
    k_condition,
    load_scenario,
    simulate,
)
from conftest import (
    penn_solid,
    random_fluid,
    random_mr_solid,
    random_solid,
    rubber_solid,
    unit_fluid,
)

G_ACCEL = 9.81


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"\n[acceptance] criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------

def test_criterion_1_rubber_golden_numbers():
    model = rubber_solid()
    t0 = time.perf_counter_ns()
    reps = 200
    for _ in range(reps):
        wc = coefficients_ab(model)
        kc = k_condition(model)
    per_call = (time.perf_counter_ns() - t0) / reps / 1e6  # ms
    checks = [
        abs(wc.lambda0 - 74.21) <= 0.005 * 74.21,
        abs(wc.a - (-0.009)) <= 0.05 * 0.009,
        abs(wc.a - (-0.00909)) <= 0.001 * 0.00909,
        abs(wc.b - 2.93) <= 0.005 * 2.93,
        abs(wc.pi_cr - 321.41) <= 0.005 * 321.41,
        abs(wc.pi_cr / G_ACCEL - 32.8) <= 0.01 * 32.8,
        kc.full_K,
        per_call < 1.0,
    ]
    _verdict(1, f"rubber golden numbers, {per_call:.3f} ms/call", all(checks))


def test_criterion_2_mooney_rivlin_derivatives():
    model = penn_solid()
    d = elastic_derivs(model, 1.0)
    loose = (abs(d.W2 - 2.12e6) <= 0.15 * 2.12e6
             and abs(d.W3 - (-6.93e6)) <= 0.15 * 6.93e6)
    # strict self-consistency: 5-point stencils on the implemented stress
    T = lambda F: elastic_derivs(model, F).W1
    h1 = 1e-2
    fd_w2 = (T(1 - 2 * h1) - 8 * T(1 - h1) + 8 * T(1 + h1) - T(1 + 2 * h1)) / (12 * h1)
    h2 = 1e-3
    fd_w3 = (-T(1 - 2 * h2) + 16 * T(1 - h2) - 30 * T(1.0)
             + 16 * T(1 + h2) - T(1 + 2 * h2)) / (12 * h2 ** 2)
    strict = (abs(fd_w2 - d.W2) <= 1e-5 * abs(d.W2)
              and abs(fd_w3 - d.W3) <= 1e-5 * abs(d.W3))
    _verdict(2, f"Mooney-Rivlin W2={d.W2/1e6:.4g} MPa, W3={d.W3/1e6:.4g} MPa",
             loose and strict)


def test_criterion_3_closed_form_pipeline_equivalence(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        pick = i % 4
        if pick == 0:
            model = random_solid(rng)
        elif pick == 1:
            model = random_mr_solid(rng)
        elif pick == 2:
            model = random_fluid(rng, kind="newtonian")
        else:
            model = random_fluid(rng, kind="regularized")
        wc = coefficients_ab(model)
        a_num, b_num = assemble_ab_numeric(model)
        worst = max(worst, abs(a_num - wc.a) / abs(wc.a))
        if wc.b != 0.0:
            worst = max(worst, abs(b_num - wc.b) / wc.b)
        elif b_num != 0.0:
            worst = math.inf
    elapsed = time.perf_counter() - t0
    _verdict(3, f"closed-form vs assembled a,b: worst rel {worst:.2e}, {elapsed:.2f}s",
             worst <= 1e-10 and elapsed < 1.0)


def test_criterion_4_fluid_case_classification(rng):
    ok = True
    # Newtonian: weak K holds and b matches the closed form to 1e-12
    # (mu_tilde - 1 evaluated as the ratio itself to avoid cancellation)
    for _ in range(50):
        fl = random_fluid(rng, kind="newtonian")
        wc = coefficients_ab(fl)
        x = fl.mu0 / (fl.R_gas * fl.rho_star * fl.tau0)
        b_ref = x / (2.0 * (1.0 + x) * fl.tau0)
        ok &= abs(wc.b - b_ref) <= 1e-12 * b_ref
        ok &= bool(k_condition(fl).weak_K)
    # shear-thinning: degenerate, weak K violated, explicit critical time
    for _ in range(50):
        base = random_fluid(rng, kind="newtonian")
        fl = FluidParams(rho_star=base.rho_star, R_gas=base.R_gas, tau0=base.tau0,
                         mu0=base.mu0, production=PowerLaw(k_cons=1.3, m=0.5))
        wc = coefficients_ab(fl)
        ok &= wc.b == 0.0
        ok &= not k_condition(fl).weak_K
        pi0 = 10.0 ** rng.uniform(-2, 2)
        t_c = classify(wc.a, wc.b, pi0).t_c
        t_ref = math.sqrt(fl.R_gas * fl.mu_tilde ** 3) / pi0
        ok &= abs(t_c - t_ref) <= 1e-12 * t_ref
    # shear-thickening: threshold grows as eps^(-1/2)
    eps_list = [1e-2, 1e-3, 1e-4]
    pi_crs = [coefficients_ab(unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0,
                                                             eps=e))).pi_cr
              for e in eps_list]
    slope = np.polyfit(np.log(eps_list), np.log(pi_crs), 1)[0]
    ok &= bool(abs(slope - (-0.5)) <= 0.01)
    _verdict(4, f"fluid cases (eps slope {slope:+.4f})", ok)


def test_criterion_5_bernoulli_ode(rng):
    t0 = time.perf_counter()
    # accuracy away from blow-up
    a, b, pi0, t_end = -1.0, 1.0, 0.5, 2.0
    traj = integrate(a, b, pi0, t_end, dt=t_end / 1e5)
    exact = closed_form(a, b, pi0, traj.t)
    acc = float(np.max(np.abs(traj.pi - exact) / np.abs(exact)))
    # blow-up bracketing over randomized supercritical problems
    worst_tc = 0.0
    for _ in range(100):
        aa = -(10.0 ** rng.uniform(-3, 1))
        bb = 10.0 ** rng.uniform(-2, 2)
        p0 = rng.uniform(1.1, 50.0) * bb / abs(aa)
        t_c = classify(aa, bb, p0).t_c
        traj = integrate(aa, bb, p0, t_end=1.5 * t_c, dt=t_c / 400.0)
        if not traj.blew_up:
            worst_tc = math.inf
            break
        worst_tc = max(worst_tc, abs(traj.t_blowup - t_c) / t_c)
    elapsed = time.perf_counter() - t0
    _verdict(5, f"RK4 acc {acc:.1e}, worst t_c err {worst_tc:.2%}, {elapsed:.1f}s",
             acc <= 1e-8 and worst_tc <= 0.01 and elapsed < 10.0)


def test_criterion_6_simulator_oracle():
    model = rubber_solid()
    wc = coefficients_ab(model)
    ic = KinkIC(x_front=13.0, pi0=0.1 * wc.pi_cr, ramp_width=6.0)
    t_end = 2.0 / wc.b
    errs = {}
    speeds = {}
    runtimes = {}
    for n in (500, 1000, 2000):
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=n, cfl=0.9)
        t0 = time.perf_counter()
        res = simulate(model, grid, ic, t_end=t_end, output_every=t_end / 40)
        runtimes[n] = time.perf_counter() - t0
        tr = res.trace
        errs[n] = float(np.max(np.abs(tr.measured_pi - tr.predicted_pi)
                               / np.abs(tr.predicted_pi)))
        speeds[n] = float(np.polyfit(tr.t, tr.front_x, 1)[0])
    monotone = errs[500] > errs[1000] > errs[2000]
    order = math.log2((speeds[1000] - speeds[500]) / (speeds[2000] - speeds[1000]))
    # steepening surrogate: the conservative scheme turns the blow-up into a
    # shock; its formation time brackets t_c only in order of magnitude
    pi0 = 4.0 * wc.pi_cr
    t_c = classify(wc.a, wc.b, pi0).t_c
    grid = Grid(x_min=0.0, x_max=16.0, n_cells=4000, cfl=0.9)
    res = simulate(model, grid, KinkIC(x_front=2.5, pi0=pi0, ramp_width=1.0),
                   t_end=1.6 * t_c, output_every=t_c / 50)
    st = res.trace.steepening_time
    ok = (monotone and errs[2000] <= 0.05 and order >= 0.8
          and runtimes[2000] < 60.0
          and st is not None and abs(st - t_c) / t_c <= 0.2)
    _verdict(6, f"oracle errs {errs[500]:.3f}>{errs[1000]:.3f}>{errs[2000]:.3f}, "
                f"speed order {order:.2f}, steepening err {abs(st - t_c)/t_c:.2%}, "
                f"{runtimes[2000]:.1f}s at n=2000", ok)


def test_criterion_7_entropy_dissipation():
    ok = True
    for name in ("rubber.json", "newtonian.json", "shear_thinning.json",
                 "shear_thickening_eps.json"):
        cfg = load_scenario(name)
        res = simulate(cfg.material, cfg.sim.grid, cfg.sim.kink, t_end=cfg.sim.t_end,
                       output_every=cfg.sim.output_every)
        tr = res.trace
        ok &= bool(np.max(tr.max_sigma_production) <= 0.0)
        E = tr.energy
        ok &= bool(np.all(np.diff(E) <= 1e-9 * E[:-1]))
    _verdict(7, "cellwise dissipation and energy monotonicity", ok)
