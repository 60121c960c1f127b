"""Finite-volume wavefront experiment: oracle agreement, conservation, fronts."""

import dataclasses
import importlib.util
import logging
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accelwave import (
    Grid,
    KinkIC,
    Newtonian,
    PowerLaw,
    QuadraticCubic,
    RegularizedPowerLaw,
    SimulationError,
    Snapshot,
    assemble_ab_numeric,
    classify,
    closed_form,
    coefficients_ab,
    detect_front_position,
    eigensystem,
    entropy_monitor,
    equilibrium_state,
    integrate,
    load_scenario,
    measure_front_slope,
    simulate,
)
from accelwave import amplitude, cli, wavefront
from accelwave.amplitude import _output_times
from accelwave.materials import Maxwell
from accelwave.wavefront import (
    _CHUNK,
    _FIT_HALF_WIDTH,
    _NG,
    _fit_operator,
    _front_fits,
    _front_windows,
    _ghost_views,
    _hyperbolic_step,
    _initial_span,
    _minmod,
    _Plan,
    _Stepper,
    _window,
    _work,
)
from conftest import penn_solid, relaxed, rubber_solid, unit_fluid

_ROOT = Path(__file__).resolve().parent.parent


def _rubber_setup(n_cells, pi0_frac, x_max=68.0):
    model = rubber_solid()
    wc = coefficients_ab(model)
    grid = Grid(x_min=0.0, x_max=x_max, n_cells=n_cells, cfl=0.9)
    ic = KinkIC(x_front=13.0, pi0=pi0_frac * wc.pi_cr, ramp_width=6.0)
    return model, wc, grid, ic


def _linear_rubber(tau0=0.1):
    """Rubber with the linear potential: R = 0 makes the fast field linearly
    degenerate (a = 0), and tau0 = inf switches the relaxation off (b = 0)."""
    return dataclasses.replace(rubber_solid(), elastic=QuadraticCubic(R=0.0), tau0=tau0)


def _fill_ghosts(q):
    """Zero-gradient ghosts, as the stepper fills them."""
    for ghosts, cell in _ghost_views(q):
        np.copyto(ghosts, cell)


def _step(q, dt, dx, model):
    """One whole-row step of q in place, on its own scratch."""
    _hyperbolic_step(_Plan(q, (0, q.shape[1]), _work(q.shape[1])), dt, dx, model)


def _simulate_from(fields, model, grid, ic, t_end, **kw):
    """simulate from the cell values fields = (v, F, sigma) in place of the
    kink profile; ic still anchors the front tracking."""
    kink = _Stepper.kink

    def custom(model, grid, ic):
        stepper, run = _Stepper(model, grid, _padded_state(model, fields)), kink(model, grid, ic)
        stepper.x, stepper.lam0 = run.x, run.lam0
        return stepper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Stepper, "kink", staticmethod(custom))
        return simulate(model, grid, ic, t_end, **kw)


class TestEquilibriumAndMeasurement:
    def test_equilibrium_is_preserved_exactly(self):
        model, _, grid, _ = _rubber_setup(500, 0.0)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        res = simulate(model, grid, ic, t_end=0.1, output_every=0.05)
        assert np.max(np.abs(res.final.v)) <= 1e-12
        assert np.max(np.abs(res.final.F - 1.0)) <= 1e-12
        assert np.max(np.abs(res.final.sigma)) <= 1e-12
        assert res.trace.measured_pi[-1] == pytest.approx(0.0, abs=1e-12)

    def test_initial_kink_amplitude_recovered_exactly(self):
        # piecewise-linear data make the one-sided fits exact
        model, wc, grid, ic = _rubber_setup(1000, 0.1)
        res = simulate(model, grid, ic, t_end=1e-7, output_every=1e-7)
        assert res.trace.measured_pi[0] == pytest.approx(ic.pi0, rel=1e-10)
        assert res.trace.front_x[0] == pytest.approx(13.0, abs=1e-9)
        # and through the public measurement of the final snapshot
        pi_est = measure_front_slope(model, res.final, 13.0 + wc.lambda0 * 1e-7)
        assert pi_est == pytest.approx(ic.pi0, rel=1e-6)

    def test_front_too_close_to_boundary_raises(self):
        model, _, grid, ic = _rubber_setup(500, 0.1)
        res = simulate(model, grid, ic, t_end=1e-7, output_every=1e-7)
        with pytest.raises(SimulationError):
            measure_front_slope(model, res.final, grid.x_max - grid.dx)

    def test_determinism_bit_identical(self):
        model, _, grid, ic = _rubber_setup(500, 0.1)
        r1 = simulate(model, grid, ic, t_end=0.05, output_every=0.01)
        r2 = simulate(model, grid, ic, t_end=0.05, output_every=0.01)
        assert np.array_equal(r1.final.v, r2.final.v)
        assert np.array_equal(r1.trace.measured_pi, r2.trace.measured_pi)


def _polyfit_fits(x, v, windows, front_x, degree):
    """The (slope, value) at front_x of each window's fit as np.polyfit,
    np.polyder and np.polyval give them."""
    out = []
    for sl in windows:
        xs = x[sl] - front_x
        coef = np.polyfit(xs, v[sl], min(degree, xs.size - 1))
        out.append((float(np.polyval(np.polyder(coef), 0.0)), float(np.polyval(coef, 0.0))))
    return out


_EPS = np.finfo(float).eps
_KAPPA = 43.0   # condition number of the fits' Vandermonde in u = j - 7.5 (42.8)


def _assert_pi_and_front(got, fx, fits, d_slope, d_value):
    """(pi, front) of _front_fits with lam0 = 1 against the fits ((slope,
    value) behind, (slope, value) ahead) at the guess fx, whose slopes and
    values are each known within d_slope and d_value: pi = sa - sb within
    2*d_slope, and the linearized crossing fx + (ca - cb)/(sb - sa), where
    the slope jump exceeds 4*d_slope, within its first-order error bound
    (doubled for the second-order term)."""
    (sb, cb), (sa, ca) = fits
    pi, front = got
    assert abs(pi - (sa - sb)) <= 2.0 * d_slope + _EPS * abs(sa - sb)
    jump = sb - sa
    if abs(jump) > 4.0 * d_slope:
        ref = fx + (ca - cb) / jump
        first_order = (2.0 * d_value + abs((ca - cb) / jump) * 2.0 * d_slope) / abs(jump)
        assert abs(front - ref) <= 2.0 * first_order + 4.0 * _EPS * max(abs(ref), abs(fx))


class TestFrontFits:
    """The fits are one least-squares operator on windows of equally spaced
    cells, so they agree with np.polyfit's fits to rounding."""

    def test_operator_inverts_its_vandermonde_and_is_read_only(self):
        op = _fit_operator()
        u = np.arange(_FIT_HALF_WIDTH) - 7.5
        assert op.shape == (3, _FIT_HALF_WIDTH) and _fit_operator() is op
        assert np.abs(op @ np.vander(u, 3) - np.eye(3)).max() <= 1e-13
        assert np.linalg.cond(np.vander(u, 3)) <= _KAPPA
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("t", [0.0, 1.0, 30.0])
    @pytest.mark.parametrize("frac", [-0.5, -0.125, 0.0, 0.25, 0.375])
    def test_quadratic_data_give_exact_slope_and_value(self, scale, t, frac):
        # a dyadic grid and guess make the offsets exact; each window holds
        # v = scale*(c + s*y + k*y**2), y = x - fx, whose slope and value at
        # the guess are scale*s and scale*c.  The coefficients are off by at
        # most ~1e-14 of the window's largest |v| (op times its Vandermonde
        # is I to 1.04e-14, the 16-term sums round to ~16*eps), and evaluating
        # at offset u scales that by at most (1 + 2|u|)/dx for the slope and
        # 1 + |u| + u**2 for the value: 1e-13 in place of 1e-14 is the bound
        dx = 0.125
        x = (np.arange(400) + 0.5) * dx
        fx = x[150] + frac * dx
        windows = _front_windows(x, fx, 1.0, t)
        exact = ((-3.0, 2.5, 0.75), (0.5, -1.25, -0.375))   # (s, c, k) behind, ahead
        vs, fits, d_slope, d_value = [], [], 0.0, 0.0
        for w, (slope, value, curv) in zip(windows, exact):
            y = x[w] - fx
            vs.append(scale * (value + slope * y + curv * y * y))
            u = abs((fx - x[w.start]) / dx - 7.5)
            big = np.abs(vs[-1]).max()
            fits.append((scale * slope, scale * value))
            d_slope = max(d_slope, 1e-13 * big * (1.0 + 2.0 * u) / dx)
            d_value = max(d_value, 1e-13 * big * (1.0 + u + u * u))
        got = _front_fits(x[[w.start for w in windows]][None], dx, np.array(vs)[None],
                          np.array([fx]), 1.0)
        _assert_pi_and_front([c.item() for c in got], fx, fits, d_slope, d_value)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-320.0, 300.0),
           zeros=st.sampled_from(["none", "signed", "all", "subnormal"]),
           gap=st.integers(0, 12))
    def test_fits_agree_with_polyfit(self, seed, log_scale, zeros, gap):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5.0, 80.0) + (np.arange(120) + 0.5) * rng.uniform(0.01, 1.0)
        v = rng.standard_normal(120) * 10.0 ** log_scale
        if zeros == "signed":
            v[rng.random(120) < 0.5] = -0.0
        elif zeros == "all":
            v = rng.choice([0.0, -0.0], 120)
        elif zeros == "subnormal":
            v = rng.choice([0.0, -0.0, 1e-320, -1e-320], 120)
        dx = x[1] - x[0]
        front_x = float(x[60] + rng.uniform(-0.5, 0.5) * dx)
        windows = (slice(60 - gap - 16, 60 - gap), slice(61 + gap, 61 + gap + 16))
        got = [c.item() for c in _front_fits(x[[w.start for w in windows]][None], dx,
                                             np.stack([v[w] for w in windows])[None],
                                             np.array([front_x]), 1.0)]
        if zeros == "all":
            assert got[0] == 0.0 and got[1] == front_x
            return
        # the fits take the cells at offsets j from the first, polyfit at
        # (x - x0)/dx, which differ by up to eps*max|x|/dx; the fits amplify
        # such a relative change of the design by about its condition
        # number, so each coefficient is off by at most kappa*eps*(1 +
        # max|x|/dx) of the window's largest |v| (at least the least normal
        # number, as quanta of subnormals are absolute), times the weight of
        # the evaluation at offset u: (1 + 2|u|)/dx, and 1 + |u| + u**2
        rel = _KAPPA * _EPS * (1.0 + np.abs(x).max() / dx)
        d_slope = d_value = 0.0
        for w in windows:
            u = abs((front_x - x[w.start]) / dx - 7.5)
            big = max(np.abs(v[w]).max(), np.finfo(float).tiny)
            d_slope = max(d_slope, rel * big * (1.0 + 2.0 * u) / dx)
            d_value = max(d_value, rel * big * (1.0 + u + u * u))
        _assert_pi_and_front(got, front_x, _polyfit_fits(x, v, windows, front_x, 2),
                             d_slope, d_value)


class TestOracleAgreement:
    def test_subcritical_front_tracks_closed_form(self):
        model, wc, grid, ic = _rubber_setup(1000, 0.1)
        t_end = 2.0 / wc.b
        res = simulate(model, grid, ic, t_end=t_end, output_every=t_end / 40)
        tr = res.trace
        rel = np.abs(tr.measured_pi - tr.predicted_pi) / np.abs(tr.predicted_pi)
        assert np.max(rel) < 0.06
        assert np.mean(rel) < 0.02

    def test_front_position_tracks_characteristic_speed(self):
        model, wc, grid, ic = _rubber_setup(1000, 0.1)
        t_end = 1.0 / wc.b
        res = simulate(model, grid, ic, t_end=t_end, output_every=t_end / 20)
        tr = res.trace
        expected = 13.0 + wc.lambda0 * tr.t
        assert np.max(np.abs(tr.front_x - expected)) <= grid.dx

    def test_linearized_sourceless_advection_keeps_amplitude(self):
        # d'Alembert: under a linear stress with no relaxation the jump rides
        # along unchanged
        _, wc, grid, _ = _rubber_setup(1500, 0.0)
        ic = KinkIC(x_front=13.0, pi0=30.0, ramp_width=6.0)
        t_half = (grid.x_max - ic.x_front) / wc.lambda0 / 2.0
        res = simulate(_linear_rubber(tau0=math.inf), grid, ic, t_end=t_half,
                       output_every=t_half / 20)
        tr = res.trace
        assert np.all(tr.predicted_pi == 30.0)
        assert np.max(np.abs(tr.measured_pi - 30.0)) / 30.0 < 0.02

    def test_linear_law_predicts_exponential_decay(self):
        # a = 0: the amplitude law is pi' + b*pi = 0, with rubber's b
        model = _linear_rubber()
        _, wc, grid, _ = _rubber_setup(1500, 0.0)
        ic = KinkIC(x_front=13.0, pi0=30.0, ramp_width=6.0)
        res = simulate(model, grid, ic, t_end=1.0 / wc.b, output_every=0.25 / wc.b)
        tr = res.trace
        assert tr.a == 0.0 and tr.b == wc.b
        b = assemble_ab_numeric(model)[1]
        assert tr.predicted_pi == pytest.approx(30.0 * np.exp(-b * tr.t), rel=1e-12)
        assert np.max(np.abs(tr.measured_pi / tr.predicted_pi - 1.0)) < 0.02

    def test_newtonian_fluid_tracks_closed_form(self):
        model = unit_fluid()
        wc = coefficients_ab(model)
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=600, cfl=0.9)
        ic = KinkIC(x_front=12.0, pi0=0.1 * wc.pi_cr, ramp_width=2.0)
        t_end = 1.0 / wc.b
        res = simulate(model, grid, ic, t_end=t_end, output_every=t_end / 16)
        tr = res.trace
        rel = np.abs(tr.measured_pi - tr.predicted_pi) / np.abs(tr.predicted_pi)
        assert np.max(rel) < 0.05

    def test_steepening_time_brackets_analytic_blowup(self):
        model, wc, _, _ = _rubber_setup(500, 0.0)
        pi0 = 4.0 * wc.pi_cr
        t_c = classify(wc.a, wc.b, pi0).t_c
        grid = Grid(x_min=0.0, x_max=16.0, n_cells=2000, cfl=0.9)
        ic = KinkIC(x_front=2.5, pi0=pi0, ramp_width=1.0)
        res = simulate(model, grid, ic, t_end=1.6 * t_c, output_every=t_c / 50)
        st = res.trace.steepening_time
        assert st is not None
        assert abs(st - t_c) / t_c < 0.2

    def test_subcritical_run_never_steepens(self):
        model, wc, grid, ic = _rubber_setup(500, 0.1)
        res = simulate(model, grid, ic, t_end=1.0 / wc.b, output_every=0.05 / wc.b)
        assert res.trace.steepening_time is None


_ENERGY_MODELS = [rubber_solid(), penn_solid(), unit_fluid(),
                  unit_fluid(PowerLaw(k_cons=1.0, m=0.5)),
                  unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))]


@st.composite
def _energy_snapshots(draw):
    """A model of each of the five laws and a snapshot of n cells, whose
    stresses include +-0, subnormals and, for the regularized law, -eps."""
    model = draw(st.sampled_from(_ENERGY_MODELS))
    n = draw(st.integers(2, 40))
    scale = 1e4 if model in _ENERGY_MODELS[:2] else 1.0   # the solids' stresses
    stress = st.floats(-scale, scale) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, -1e-2])
    cells = lambda elements: arrays(np.float64, n, elements=elements)
    v, F, sigma = (draw(cells(st.floats(-10.0, 10.0))), draw(cells(st.floats(0.5, 2.0))),
                   draw(cells(stress)))
    x = draw(st.floats(-10.0, 10.0)) + np.arange(n) * draw(st.floats(1e-3, 1.0))
    return model, Snapshot(t=0.0, x=x, v=v, F=F, sigma=sigma)


class TestEnergyAndDissipation:
    def test_energy_never_increases_between_outputs(self):
        model, wc, grid, ic = _rubber_setup(800, 0.1)
        res = simulate(model, grid, ic, t_end=2.0 / wc.b, output_every=0.05 / wc.b)
        E = res.trace.energy
        assert np.all(np.diff(E) <= 1e-9 * E[:-1])

    def test_dissipation_sign_holds_cellwise_all_sources(self):
        fluids = [unit_fluid(),
                  unit_fluid(PowerLaw(k_cons=1.0, m=0.5)),
                  unit_fluid(PowerLaw(k_cons=1.0, m=2.0)),
                  unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=0.01))]
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=400, cfl=0.9)
        ic = KinkIC(x_front=12.0, pi0=0.05, ramp_width=2.0)
        for model in fluids:
            res = simulate(model, grid, ic, t_end=2.0, output_every=0.25)
            assert np.max(res.trace.max_sigma_production) <= 0.0
            E = res.trace.energy
            assert np.all(np.diff(E) <= 1e-9 * E[:-1])
        model, wc, grid, ic = _rubber_setup(600, 0.1)
        res = simulate(model, grid, ic, t_end=1.0 / wc.b, output_every=0.1 / wc.b)
        assert np.max(res.trace.max_sigma_production) <= 0.0

    def test_sourceless_energy_change_is_boundary_flux_only(self):
        # smooth compact pulse, waves stay interior: boundary flux integral is
        # zero and the residual is the scheme's own dissipation
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=60.0, n_cells=4000, cfl=0.9)
        x = grid.x_min + (np.arange(grid.n_cells) + 0.5) * grid.dx
        v0 = np.exp(-((x - 30.0) / 3.0) ** 2)
        fields = (v0, np.ones_like(x), np.zeros_like(x))
        ic = KinkIC(x_front=30.0, pi0=0.0, ramp_width=1.0)
        res = _simulate_from(fields, dataclasses.replace(model, tau0=math.inf), grid, ic,
                             t_end=0.02, output_every=0.01)
        E = res.trace.energy
        assert abs(E[-1] - E[0]) <= 1e-6 * E[0]

    def test_entropy_monitor_on_equilibrium_snapshot(self):
        model, _, grid, _ = _rubber_setup(500, 0.0)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        res = simulate(model, grid, ic, t_end=0.02, output_every=0.01)
        rep = entropy_monitor(model, res.final)
        assert rep.total_energy == pytest.approx(0.0, abs=1e-12)
        assert rep.max_sigma_production == 0.0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(snap=_energy_snapshots())
    def test_entropy_monitor_is_its_plain_expressions(self, snap):
        # bit for bit, zero signs and subnormal stresses included
        model, snap = snap
        rho, om, W, P = model.rho_star, model.omega, model.elastic.W, model.production.P
        v, F, sigma = snap.v, snap.F, snap.sigma
        rep = entropy_monitor(model, snap)
        energy = np.sum(0.5 * rho * v ** 2 + W(F, model) + 0.5 * om * sigma ** 2) \
            * (snap.x[1] - snap.x[0])
        assert np.float64(rep.total_energy).tobytes() == np.float64(energy).tobytes()
        assert np.float64(rep.max_sigma_production).tobytes() == \
            np.max(sigma * P(F, sigma, model)).tobytes()


class TestValidation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=0.0, n_cells=100, cfl=0.5)
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, n_cells=8, cfl=0.5)
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, n_cells=100, cfl=1.0)

    @pytest.mark.parametrize("name", ["x_min", "x_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_grid_rejects_non_finite_ends(self, name, value):
        # Grid(0, inf, ...) would make dx inf and every x NaN
        ends = {"x_min": 0.0, "x_max": 30.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            Grid(**ends, n_cells=400, cfl=0.9)

    def test_grid_rejects_a_width_or_cell_width_that_is_not_a_finite_normal_float(self):
        # an inf width gave dx = inf, and simulate failed converting NaN to an
        # integer; a subnormal dx gave steps too small to end the run
        with pytest.raises(ValueError, match=r"must be a finite normal float, got inf$"):
            Grid(x_min=-1e308, x_max=1e308, n_cells=400, cfl=0.9)
        with pytest.raises(ValueError, match=r"must be a finite normal float, got 2\.5e-323$"):
            Grid(x_min=0.0, x_max=1e-320, n_cells=400, cfl=0.9)

    @pytest.mark.parametrize("n_cells", [400.5, 400.0, np.float64(400.0), True,
                                         np.bool_(True), "400", None])
    def test_grid_rejects_a_cell_count_that_is_not_an_integer(self, n_cells):
        # 400.5 would step 401 cells of dx = 30/400.5, past x_max
        with pytest.raises(TypeError, match="^n_cells must be an integer, got "):
            Grid(x_min=0.0, x_max=30.0, n_cells=n_cells, cfl=0.9)

    @pytest.mark.parametrize("n_cells", [400, np.int64(400), np.uint16(400)])
    def test_grid_takes_numpy_integers_as_ints(self, n_cells):
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=n_cells, cfl=0.9)
        assert type(grid.n_cells) is int and grid.n_cells == 400
        assert grid == Grid(x_min=0.0, x_max=30.0, n_cells=400, cfl=0.9)

    def test_kink_must_fit_domain(self):
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=60.0, n_cells=500, cfl=0.9)
        with pytest.raises(ValueError):
            simulate(model, grid, KinkIC(x_front=8.0, pi0=1.0, ramp_width=6.0),
                     t_end=0.01)

    @pytest.mark.parametrize("law", [RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2),
                                     Newtonian()])
    def test_kink_whose_start_overflows_is_refused(self, law):
        # pi0*d0*ramp_width overflows: the regularized law's sub-step count
        # raised a bare OverflowError, the Newtonian run "stretch F must be > 0"
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=400, cfl=0.9)
        with pytest.raises(ValueError, match="^initial amplitude overflows the kink's state"):
            simulate(unit_fluid(law), grid, KinkIC(x_front=14.0, pi0=-1e308, ramp_width=6.0),
                     t_end=1.0)

    def test_kink_validation(self):
        with pytest.raises(ValueError):
            KinkIC(x_front=1.0, pi0=1.0, ramp_width=0.0)

    @pytest.mark.parametrize("name", ["x_front", "pi0", "ramp_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_kink_rejects_non_finite(self, name, value):
        kw = {"x_front": 13.0, "pi0": 1.0, "ramp_width": 6.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            KinkIC(**kw)

    def test_time_arguments(self):
        model, _, grid, ic = _rubber_setup(500, 0.1)
        with pytest.raises(ValueError):
            simulate(model, grid, ic, t_end=0.0)
        with pytest.raises(ValueError):
            simulate(model, grid, ic, t_end=1.0, output_every=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_time_arguments_are_named(self, value):
        model, _, grid, ic = _rubber_setup(500, 0.1)
        with pytest.raises(ValueError, match=r"^t_end must be finite and > 0, got "):
            simulate(model, grid, ic, t_end=value)
        with pytest.raises(ValueError,
                           match=r"^output_every must be finite and > 0, got "):
            simulate(model, grid, ic, t_end=1.0, output_every=value)

    def test_output_grid_is_capped(self, monkeypatch):
        model, _, grid, ic = _rubber_setup(500, 0.1)
        with pytest.raises(ValueError, match=r"^t_end/output_every asks for inf output points, "
                                             r"over 1000001$"):
            simulate(model, grid, ic, t_end=1.0, output_every=5e-324)  # ratio inf
        monkeypatch.setattr(amplitude, "MAX_POINTS", 4)
        res = simulate(model, grid, ic, t_end=1e-3, output_every=2.5e-4)
        assert res.trace.t.size == 5
        with pytest.raises(ValueError, match=r"^t_end/output_every asks for 6 output points, "
                                             r"over 5$"):
            simulate(model, grid, ic, t_end=1e-3, output_every=2e-4)

    @pytest.mark.parametrize("t_end, step", [(1e-3, 2.5e-4), (1.0, 0.25), (0.3, 0.1),
                                             (1e-3, 2e-4), (2e-3, 7e-4)])
    def test_both_trajectories_take_the_one_output_grid(self, t_end, step):
        # exact multiples, a ratio just below one (0.3/0.1) and a last step
        # cut short at t_end: integrate and simulate output at the same times
        times = _output_times(t_end, step, "dt")
        assert integrate(-1.0, 1.0, 0.5, t_end, step).t.tobytes() == times.tobytes()
        model, _, grid, ic = _rubber_setup(200, 0.1)
        res = simulate(model, grid, ic, t_end, output_every=step)
        assert res.trace.t.tobytes() == times.tobytes()

    def test_a_run_that_needs_over_max_steps_is_refused_before_its_first(self, monkeypatch):
        # rubber.json's kink on a 2.6e-289-long row: its t_end*lam0/(cfl*dx)
        # is about 6e292 steps, so at MAX_STEPS = 10**6 it would step for
        # minutes before the in-loop cap stopped it
        model = load_scenario("rubber.json").material
        grid = Grid(x_min=0.0, x_max=2.6e-289, n_cells=800, cfl=0.9)
        ic = KinkIC(x_front=4.5e-290, pi0=32.0, ramp_width=2e-290)
        steps, step = [], wavefront._hyperbolic_step
        monkeypatch.setattr(wavefront, "_hyperbolic_step",
                            lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(wavefront, "MAX_STEPS", 1000)
        with pytest.raises(SimulationError, match=r"^the run needs at least t_end\*lam0/"
                                                  r"\(cfl\*dx\) = \S+ steps \(lam0=74\.2381\), "
                                                  r"over MAX_STEPS = 1000$"):
            simulate(model, grid, ic, 0.25, output_every=0.0125)
        assert steps == []

    @pytest.mark.parametrize("x_front", [11.9, 0.0, 68.0, 80.0])
    def test_kink_must_fit_inside_the_domain(self, x_front):
        # the front, and the return to equilibrium 2*ramp_width behind it
        model, _, grid, ic = _rubber_setup(500, 0.1)
        with pytest.raises(ValueError, match=r"^kink profile does not fit inside the domain$"):
            simulate(model, grid, dataclasses.replace(ic, x_front=x_front), t_end=1e-3)


# ---------------------------------------------------------------------------
# Bit-for-bit reference: the FV step as it was before edge pairs
# ---------------------------------------------------------------------------

def _reference_minmod(a, b):
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def _reference_hyperbolic_step(q, dt, dx, rho, om, T_fn, lam_fn):
    def flux(qc):
        v = qc[0] / rho
        F = qc[1]
        sig = qc[2] / om
        return np.stack([-(T_fn(F) + sig), -v, -v])

    dql = q[:, 1:-1] - q[:, :-2]
    dqr = q[:, 2:] - q[:, 1:-1]
    slope = _reference_minmod(dql, dqr)
    qL = q[:, 1:-1] - 0.5 * slope
    qR = q[:, 1:-1] + 0.5 * slope
    shift = 0.5 * dt / dx * (flux(qL) - flux(qR))
    qLb = qL + shift
    qRb = qR + shift
    left = qRb[:, :-1]
    right = qLb[:, 1:]
    s_max = np.maximum(lam_fn(left[1]), lam_fn(right[1]))
    f_iface = 0.5 * (flux(left) + flux(right)) - 0.5 * s_max * (right - left)
    out = q.copy()
    out[:, _NG:-_NG] -= dt / dx * (f_iface[:, 1:] - f_iface[:, :-1])
    return out


def _random_state(rng, model, n_cells, v_scale, F_scale, sigma_scale):
    """Conserved state (rho*v, F, omega*sigma) near equilibrium, ghosts filled."""
    om = model.omega
    q = np.stack([model.rho_star * v_scale * rng.standard_normal(n_cells),
                  1.0 + F_scale * rng.standard_normal(n_cells),
                  om * sigma_scale * rng.standard_normal(n_cells)])
    q[:, :_NG] = q[:, _NG:_NG + 1]
    q[:, -_NG:] = q[:, -_NG - 1:-_NG]
    return q


def _limiter_corners(q, rng):
    """Write the limiter's corner cases into the v and omega*sigma rows of q:
    an exact ramp (|a| == |b| ties), a mix of +0.0, -0.0 and +-1, and
    same-signed values near 1e-170, whose slope products underflow."""
    for row, scale in ((0, q[0].std()), (2, q[2].std())):
        q[row, 4:12] = scale * 0.125 * np.arange(8.0)
        q[row, 14:24] = [0.0, -0.0, 0.0, 0.0, -0.0, -0.0, scale, -0.0, 0.0, -scale]
        q[row, 26:40] = 1e-170 * np.cumsum(rng.uniform(0.5, 2.0, 14))
        q[row, 40:46] = -1e-170 * np.array([1.0, 2.0, 3.5, 3.0, 1.0, 1.0])
    q[1, 50:58] = 1.0 + 2.0 ** -10 * np.arange(8.0)


# every pair of these: ties of equal and opposite sign, zeros of both signs,
# and products that underflow (1e-170 * 3e-170) or do not
_LIMITER_VALUES = np.array([-2.0, -1.0, -3e-170, -1e-170, -1e-300, -0.0, 0.0,
                            1e-300, 1e-170, 3e-170, 1.0, 2.0, 5e-324])


_STEP_CASES = [
    ("rubber", rubber_solid(), (0.05, 0.01, 2e4)),
    ("penn", penn_solid(), (0.05, 0.01, 2e4)),
    ("fluid", unit_fluid(), (0.05, 0.05, 0.05)),
    ("rubber_linear", _linear_rubber(), (0.05, 0.01, 2e4)),
    ("regularized", unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2)),
     (0.05, 0.05, 0.05)),
]


def _lam_fn(model):
    rho, om = model.rho_star, model.omega
    return lambda F: np.sqrt((om * model.elastic.W2(F, model) + 1.0) / (rho * om))


def _assert_step_matches_reference(rng, model, scales, corners):
    om = model.omega
    rho = model.rho_star
    lam_fn = _lam_fn(model)

    dx = 0.05
    for _ in range(5):
        q = _random_state(rng, model, 64 + 2 * _NG, *scales)
        q[:, 20:26] = q[:, 20:21]          # a flat stretch: zero slopes
        if corners:
            _limiter_corners(q, rng)
        dt = 0.9 * dx / float(np.max(lam_fn(q[1])))
        ref = _reference_hyperbolic_step(q.copy(), dt, dx, rho, om,
                                         lambda F: model.elastic.T(F, model), lam_fn)
        new = q.copy()
        _step(new, dt, dx, model)
        assert new.tobytes() == ref.tobytes()


class TestBitIdenticalFastStep:
    @pytest.mark.parametrize("name, model, scales", _STEP_CASES)
    def test_hyperbolic_step_matches_reference(self, rng, name, model, scales):
        _assert_step_matches_reference(rng, model, scales, corners=False)

    @pytest.mark.parametrize("name, model, scales", _STEP_CASES)
    def test_hyperbolic_step_matches_reference_on_limiter_corners(
            self, rng, name, model, scales):
        _assert_step_matches_reference(rng, model, scales, corners=True)

    def test_minmod_matches_reference_on_corner_pairs(self):
        a, b = np.meshgrid(_LIMITER_VALUES, _LIMITER_VALUES)
        assert _minmod(a, b).tobytes() == _reference_minmod(a, b).tobytes()
        # the zero rule: +0.0 for zeros of either sign and underflowing products
        assert np.signbit(_minmod(np.array([-0.0, 1e-170, -1e-170]),
                                  np.array([1.0, 1e-170, -3e-170]))).sum() == 0
        assert not _minmod(np.array([1e-170]), np.array([3e-170]))[0]

    def test_minmod_zero_rule_matches_the_masked_copy(self):
        # the zero rule as a product, out *= (a*b > 0); out += 0.0, against
        # the masked copy it replaced, on every pair of zeros of both signs,
        # subnormals, normals whose products underflow, and NaNs of both signs
        def copyto_minmod(a, b):
            out = np.minimum(b, 0.0)
            np.maximum(a, out, out=out)
            np.minimum(out, np.maximum(b, 0.0), out=out)
            np.copyto(out, 0.0, where=np.less_equal(a * b, 0.0))
            return out

        values = np.concatenate([_LIMITER_VALUES, -_LIMITER_VALUES,
                                 [math.nan, -math.nan, 1e-310, -1e-310, 1e-160, -2e-160]])
        a, b = np.meshgrid(values, values)
        out, scratch, mask = (np.empty_like(a) for _ in range(3))
        expect = copyto_minmod(a, b).tobytes()
        assert _minmod(a, b).tobytes() == expect
        assert _minmod(a, b, out, scratch, mask) is out and out.tobytes() == expect

    def test_minmod_matches_reference_on_random_slopes(self, rng):
        # signs, magnitudes across the whole exponent range, and exact ties
        a = rng.standard_normal(4000) * 10.0 ** rng.uniform(-320, 300, 4000)
        b = rng.standard_normal(4000) * 10.0 ** rng.uniform(-320, 300, 4000)
        b[::7] = -a[::7]
        b[1::7] = a[1::7]
        a[2::11] = -0.0
        with np.errstate(over="ignore"):
            assert _minmod(a, b).tobytes() == _reference_minmod(a, b).tobytes()


# rows of positive cells: any magnitude down to the least subnormal, so
# neighbour ratios reach 1e300 and more, in runs of equal neighbours
_positive_cells = st.lists(
    st.tuples(st.one_of(st.floats(min_value=5e-324, max_value=1e300),
                        st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308,
                                         1e-300, 1.0, 1e300])),
              st.integers(1, 3)),
    min_size=3, max_size=24,
).map(lambda runs: np.repeat([v for v, _ in runs], [k for _, k in runs]))


# 1-D rows and (2, n) pairs of rows with NaN anywhere, and infinities and
# zeros of both signs
_any_rows = arrays(
    float, st.tuples(st.integers(1, 24)) | st.tuples(st.just(2), st.integers(1, 12)),
    elements=st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=_any_rows)
def test_argmin_and_argmax_read_min_and_max(x):
    # _checked_W2 reads a row's least and largest value as the entry that
    # argmin and argmax pick: the first NaN wherever min and max give NaN,
    # and else an equal value (a zero may differ in sign, which neither
    # F > 0 nor om*W'' + 1 tells apart)
    for got, want in ((x.item(x.argmin()), x.min()), (x.item(x.argmax()), x.max())):
        assert got == want or (math.isnan(got) and math.isnan(want))
    if np.isnan(x).any():
        assert x.argmin() == x.argmax() == np.flatnonzero(np.isnan(x))[0]


class TestCheckPaths:
    """The stepper checks the stretch of the cells and of the interface
    states once each per step."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(F=_positive_cells)
    def test_edges_of_positive_cells_are_positive(self, F):
        # why the cell edges take no check: as in _hyperbolic_step, an edge
        # is its cell -+ half its minmod-limited slope
        d = F[1:] - F[:-1]
        with np.errstate(over="ignore"):   # slope products of 1e300 scale
            half = _minmod(d[:-1], d[1:])
        half *= 0.5
        qc = F[1:-1]
        assert np.all(qc - half > 0.0) and np.all(qc + half > 0.0)

    @pytest.mark.parametrize("where", ["interface"])
    def test_stretch_lost_in_one_state_array(self, where):
        # F is flat at 1, so the cells and their edges keep F = 1, and a
        # steep compression of v inside cells 21..38 shifts each predicted
        # interface F by 0.5*dt/dx * (-4*dx/dt) = -2, to -1.
        model = unit_fluid()
        rho, om = model.rho_star, model.omega
        dx = 0.05
        dt = 0.9 * dx / float(_lam_fn(model)(1.0))
        q = np.zeros((3, 64 + 2 * _NG))
        q[1] = 1.0
        q[0, 20:40] = rho * -4.0 * dx / dt * np.arange(20.0)
        with pytest.raises(ValueError, match=r"^stretch F must be > 0$"):
            _step(q, dt, dx, model)

    @pytest.mark.parametrize("past_last", [False, True])
    def test_stretch_lost_at_the_last_interface_of_a_window(self, past_last):
        # as above, but a velocity kink in cell c alone drives both its
        # predicted F edges to -1.  With c = b - 2 its left edge is the right
        # state of the last interface of the window [a, b); with c = b - 1
        # the window holds no edge of c, and the step goes through.
        model = unit_fluid()
        dx = 0.05
        dt = 0.9 * dx / float(_lam_fn(model)(1.0))
        n = 64 + 2 * _NG
        a, b = _CHUNK, 3 * _CHUNK
        c = b - 2 + past_last
        q = np.zeros((3, n))
        q[1] = 1.0
        q[0, c] = model.rho_star * -4.0 * dx / dt
        q[0, c + 1:] = 2.0 * q[0, c]
        plan = _Plan(q, (a, b), _work(n))
        if past_last:
            _hyperbolic_step(plan, dt, dx, model)
            return
        with pytest.raises(ValueError, match=r"^stretch F must be > 0$"):
            _hyperbolic_step(plan, dt, dx, model)
        with pytest.raises(ValueError, match=r"^stretch F must be > 0$"):
            _step(q, dt, dx, model)

    def test_negative_stretch_in_a_cell_is_rejected(self):
        model = _linear_rubber(tau0=math.inf)
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        F = np.ones(200)
        F[50] = -0.5
        with pytest.raises(ValueError, match=r"^stretch F must be > 0$"):
            _simulate_from((np.zeros(200), F, np.zeros(200)), model, grid, ic, t_end=0.01)

    def test_nan_sigma_names_the_cell(self):
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        sigma = np.zeros(200)
        sigma[50] = math.nan
        with pytest.raises(SimulationError,
                           match=r"^non-finite state at t=0\.00412187, cell 48$"):
            _simulate_from((np.zeros(200), np.ones(200), sigma), model, grid, ic, t_end=1.0)

    def test_nan_velocity_is_caught_by_the_interface_checks(self):
        # the predictor carries the NaN into the interface F before the
        # finiteness check could see it
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        v = np.zeros(200)
        v[50] = math.nan
        with pytest.raises(ValueError, match=r"^stretch F must be > 0$"):
            _simulate_from((v, np.ones(200), np.zeros(200)), model, grid, ic, t_end=1.0)


class TestStallAndMeasurementTrace:
    def test_zero_time_step_raises_naming_the_cell(self):
        # p_ref/F**2 overflows at F = 1e-200: lambda = inf, so the CFL step is 0
        model = unit_fluid()
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=12.0, pi0=0.0, ramp_width=2.0)
        F = np.ones(grid.n_cells)
        F[100] = 1e-200
        fields = (np.zeros(grid.n_cells), F, np.zeros(grid.n_cells))
        with np.errstate(divide="ignore", over="ignore"), \
                pytest.raises(SimulationError,
                              match=r"does not advance t=0 after 0 steps .*cell 100\)"):
            _simulate_from(fields, model, grid, ic, t_end=1.0, output_every=0.5)

    def test_failed_front_measurement_is_logged(self, caplog):
        # the front starts too close to the right boundary for the stencil
        model = unit_fluid()
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=28.0, pi0=0.05, ramp_width=2.0)
        with caplog.at_level(logging.DEBUG, logger="accelwave"):
            res = simulate(model, grid, ic, t_end=0.02, output_every=0.01)
        assert np.all(np.isnan(res.trace.measured_pi))
        msgs = [r.getMessage() for r in caplog.records if r.name == "accelwave"]
        assert len(msgs) == res.trace.t.size
        assert msgs[0].startswith("front measurement failed at t=0: ")
        assert "too close to the boundary" in msgs[0]


# ---------------------------------------------------------------------------
# Merged Strang half-steps against the loop that relaxed twice per step
# ---------------------------------------------------------------------------

def _two_half_step_snapshots(model, grid, ic, t_end, out_dt):
    """The stepping loop before adjacent source half-steps were merged:
    relax(dt/2), hyperbolic step, relax(dt/2) on every step.  Returns the
    snapshot at t = 0 and at every output time."""
    rho, om = model.rho_star, model.omega
    lam_fn = _lam_fn(model)

    dx = grid.dx
    stepper = _Stepper.kink(model, grid, ic)
    q = stepper.q

    def snapshot(t):
        return Snapshot(t=t, x=stepper.x.copy(), v=(q[0, _NG:-_NG] / rho).copy(),
                        F=q[1, _NG:-_NG].copy(), sigma=(q[2, _NG:-_NG] / om).copy())

    snaps = [snapshot(0.0)]
    t = 0.0
    for k in range(1, int(math.ceil(t_end / out_dt - 1e-12)) + 1):
        target = min(k * out_dt, t_end)
        while t < target - 1e-14 * t_end:
            dt = min(grid.cfl * dx / float(np.max(lam_fn(q[1]))), target - t)
            q[2] = om * relaxed(model, q[1], q[2] / om, 0.5 * dt)
            _step(q, dt, dx, model)
            _fill_ghosts(q)
            q[2] = om * relaxed(model, q[1], q[2] / om, 0.5 * dt)
            t += dt
        t = target
        snaps.append(snapshot(t))
    return snaps


def _trace_from_snapshots(model, snaps, ic):
    """The trace columns simulate() records, computed from snapshots."""
    lam0 = eigensystem(model, equilibrium_state()).lam
    cols = {"measured_pi": [], "front_x": [], "energy": [], "max_sigma_production": []}
    for snap in snaps:
        fx = ic.x_front + lam0 * snap.t
        cols["measured_pi"].append(measure_front_slope(model, snap, fx))
        cols["front_x"].append(detect_front_position(model, snap, fx))
        rep = entropy_monitor(model, snap)
        cols["energy"].append(rep.total_energy)
        cols["max_sigma_production"].append(rep.max_sigma_production)
    return {k: np.array(v) for k, v in cols.items()}


def _merge_case(name):
    if name == "rubber":
        model, wc, grid, ic = _rubber_setup(400, 0.1)
        return model, grid, ic, 0.5 / wc.b
    law = {"newtonian": Newtonian(), "power_law_0.5": PowerLaw(k_cons=1.0, m=0.5),
           "power_law_2": PowerLaw(k_cons=1.0, m=2.0)}[name]
    grid = Grid(x_min=0.0, x_max=30.0, n_cells=400, cfl=0.9)
    return unit_fluid(law), grid, KinkIC(x_front=12.0, pi0=0.05, ramp_width=2.0), 2.0


class TestMergedHalfSteps:
    """The exact source steps compose, S(a) S(b) = S(a + b), so merging the
    trailing half-step of one step with the leading half-step of the next
    changes results by rounding only."""

    @pytest.mark.parametrize("name", ["rubber", "newtonian", "power_law_0.5",
                                      "power_law_2"])
    def test_matches_two_half_steps_to_rounding(self, name):
        model, grid, ic, t_end = _merge_case(name)
        res = simulate(model, grid, ic, t_end=t_end, output_every=t_end / 4)
        snaps = _two_half_step_snapshots(model, grid, ic, t_end, t_end / 4)
        for field in ("v", "F", "sigma"):
            got, ref = getattr(res.final, field), getattr(snaps[-1], field)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), field
        ref_trace = _trace_from_snapshots(model, snaps, ic)
        assert np.array_equal(res.trace.t, [s.t for s in snaps])
        for col, ref in ref_trace.items():
            got = getattr(res.trace, col)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), col


# ---------------------------------------------------------------------------
# Failures name the interior cell
# ---------------------------------------------------------------------------

class TestFailureNamesInteriorCell:
    def test_hyperbolicity_loss_in_cfl_speeds(self):
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        F = np.ones(200)
        F[50] = 2.0
        with pytest.raises(SimulationError, match=r"hyperbolicity lost at cell 50$"):
            _simulate_from((np.zeros(200), F, np.zeros(200)), model, grid, ic, t_end=0.01)

    def test_hyperbolicity_loss_at_an_interface(self):
        # the cells stay just inside the hyperbolic range (om*W2 + 1 > 0);
        # the velocity slope of cell 50 alone lifts its predicted F edges out
        model = rubber_solid()
        F_c = 1.0 + (1.0 + model.E2 / model.E1) / (2.0 * model.elastic.R)
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        v = np.zeros(200)
        v[:50], v[51:] = -1.0, 1.0
        F = np.ones(200)
        F[45:56] = F_c - 2e-4
        with pytest.raises(SimulationError, match=r"hyperbolicity lost at cell 50$"):
            _simulate_from((v, F, np.zeros(200)), model, grid, ic, t_end=0.01)

    @pytest.mark.parametrize("from_end", [3, 2])
    def test_hyperbolicity_loss_at_the_last_interface_of_a_window(self, from_end):
        # the recipe above, stepped directly on the window [a, b), with the
        # velocity kink in padded cell c = b - 3 (the left state of the last
        # interface fails) or c = b - 2 (only its right state is in the
        # window): either way the cell named is c, as by a whole-row step
        model = rubber_solid()
        F_c = 1.0 + (1.0 + model.E2 / model.E1) / (2.0 * model.elastic.R)
        n = 64 + 2 * _NG
        a, b = _CHUNK, 3 * _CHUNK
        c = b - from_end
        q = np.zeros((3, n))
        q[0, :c], q[0, c + 1:] = -model.rho_star, model.rho_star
        q[1] = 1.0
        q[1, c - 5:c + 6] = F_c - 2e-4
        dx = 68.0 / 200
        dt = 0.9 * dx / float(_lam_fn(model)(q[1]).max())
        named = rf"^hyperbolicity lost at cell {c - _NG}$"
        with pytest.raises(SimulationError, match=named):
            _hyperbolic_step(_Plan(q, (a, b), _work(n)), dt, dx, model)
        with pytest.raises(SimulationError, match=named):
            _step(q, dt, dx, model)


# ---------------------------------------------------------------------------
# The disturbed span: steps on its window against steps of the whole row
# ---------------------------------------------------------------------------

def _span_case(name):
    """(model, grid, ic, t_end, initial cell values or None) of a run with a
    window."""
    if name in ("rubber", "rubber_linear", "rubber_linear_no_relax"):
        model, wc, grid, ic = _rubber_setup(400, 0.1)
        model = {"rubber_linear": _linear_rubber(),
                 "rubber_linear_no_relax": _linear_rubber(tau0=math.inf)}.get(name, model)
        return model, grid, ic, 0.5 / wc.b, None
    if name == "penn":
        model = penn_solid()
        wc = coefficients_ab(model)
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.1 * wc.pi_cr, ramp_width=6.0)
        return model, grid, ic, 10.0 / wc.lambda0, None
    if name.endswith(".json"):
        cfg = load_scenario(name)
        return cfg.material, cfg.sim.grid, cfg.sim.kink, cfg.sim.t_end, None
    if name == "oracle_500":
        # the acceptance oracle run of the benchmark's fv_oracle, at n = 500
        model, wc, grid, ic = _rubber_setup(500, 0.1)
        return model, grid, ic, 2.0 / wc.b, None
    if name == "initial_fields":
        # a bump at the left boundary, so the window reaches the ghosts, and
        # two different tail states meeting in a jump of F; zeros of both signs
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=300, cfl=0.9)
        v = np.zeros(300)
        v[150:] = -0.0
        v[3:12] = 0.01 * np.sin(np.arange(9.0))
        F = np.ones(300)
        F[200:] = 1.001
        sigma = np.full(300, -0.0)
        sigma[5:9] = 100.0
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        return model, grid, ic, 0.02, (v, F, sigma)
    law = {"newtonian": Newtonian(), "power_law_0.5": PowerLaw(k_cons=1.0, m=0.5),
           "regularized": RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2)}[name]
    grid = Grid(x_min=0.0, x_max=30.0, n_cells=400, cfl=0.9)
    return unit_fluid(law), grid, KinkIC(x_front=12.0, pi0=0.05, ramp_width=2.0), 2.0, None


def _result_bytes(res):
    tr, fin = res.trace, res.final
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in (
        tr.t, tr.measured_pi, tr.predicted_pi, tr.front_x, tr.energy,
        tr.max_sigma_production, [math.nan if tr.steepening_time is None
                                  else tr.steepening_time],
        fin.x, fin.v, fin.F, fin.sigma))


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated during fn()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _stepper_of(model, q):
    """A stepper on the ghost-padded state q, at dx = 0.05."""
    n_cells = q.shape[1] - 2 * _NG
    return _Stepper(model, Grid(x_min=0.0, x_max=0.05 * n_cells, n_cells=n_cells, cfl=0.9), q)


def _tailed_state(seed, model, scales, n, lo, hi, right_differs):
    """A padded state whose cells outside [lo, hi) hold two constant tail
    states with sigma = +-0 (and some -0.0 in v), random in between."""
    rng = np.random.default_rng(seed)
    q = _random_state(rng, model, n, *scales)
    zeros = np.array([0.0, -0.0])
    left = [rng.choice([rng.choice(zeros), q[0, 0]]), q[1, 0], rng.choice(zeros)]
    right = [rng.choice(zeros), q[1, -1], rng.choice(zeros)] if right_differs else left
    q[:, :lo] = np.array(left)[:, None]
    q[:, hi:] = np.array(right)[:, None]
    q[2, lo:hi:3] = rng.choice(zeros)
    _fill_ghosts(q)
    return q


class TestDisturbedSpan:
    """Cells outside the span equal their tail state bit for bit, and a
    step, whose update of a cell with a constant stencil is +0, and every
    relax, for which sigma = +-0 is a fixed point, leave them so."""

    @pytest.mark.parametrize("name", [
        "rubber", "penn", "newtonian", "power_law_0.5", "regularized",
        "rubber_linear", "rubber_linear_no_relax", "initial_fields", "oracle_500",
        "rubber.json", "newtonian.json", "shear_thinning.json",
        "shear_thickening_eps.json"])
    def test_windowed_run_matches_whole_row_run(self, monkeypatch, name):
        model, grid, ic, t_end, fields = _span_case(name)
        spans, windows = [], []

        def found(q, model):
            spans.append(_initial_span(q, model))
            return spans[-1]

        def planned(q, cells, work):
            windows.append(cells)
            return _Plan(q, cells, work)

        def run():
            if fields is None:
                return simulate(model, grid, ic, t_end=t_end, output_every=t_end / 4)
            return _simulate_from(fields, model, grid, ic, t_end=t_end,
                                  output_every=t_end / 4)

        monkeypatch.setattr(wavefront, "_initial_span", found)
        monkeypatch.setattr(wavefront, "_Plan", planned)
        windowed = run()
        lo, hi = spans[0]
        assert hi - lo < grid.n_cells   # the run did step a window
        n = grid.n_cells + 2 * _NG
        # ... rounded out to whole chunks, or to the ends of the row
        assert any(b - a < n for a, b in windows)
        assert all(a % _CHUNK == 0 and (b % _CHUNK == 0 or b == n) for a, b in windows)
        monkeypatch.setattr(wavefront, "_initial_span", lambda q, model: (0, q.shape[1]))
        assert _result_bytes(windowed) == _result_bytes(run())

    def test_plan_is_built_once_per_window(self, monkeypatch):
        # the window grows by one cell a side per step, so its
        # chunk-rounded ends change far less often than once a step
        model, wc, grid, ic = _rubber_setup(1000, 0.1)
        built, steps = [], []
        step = wavefront._hyperbolic_step

        def planned(q, cells, work):
            built.append(cells)
            return _Plan(q, cells, work)

        monkeypatch.setattr(wavefront, "_Plan", planned)
        monkeypatch.setattr(wavefront, "_hyperbolic_step",
                            lambda *args: steps.append(args[0]) or step(*args))
        simulate(model, grid, ic, t_end=2.0 / wc.b, output_every=0.05 / wc.b)
        assert len(built) <= grid.n_cells // _CHUNK + 2
        assert len(steps) > 10 * len(built)

    def test_a_kink_run_whose_span_reaches_neither_end_steps_no_whole_row(
            self, monkeypatch):
        # every step, the first included, steps the window of the span
        model, _, _, ic = _rubber_setup(400, 0.1)
        grid = Grid(x_min=-20.0, x_max=68.0, n_cells=400, cfl=0.9)
        n, built, steps = grid.n_cells + 2 * _NG, [], []
        step = wavefront._hyperbolic_step

        def planned(q, cells, work):
            built.append(cells)
            return _Plan(q, cells, work)

        monkeypatch.setattr(wavefront, "_Plan", planned)
        monkeypatch.setattr(wavefront, "_hyperbolic_step",
                            lambda *args: steps.append(args[0].cells) or step(*args))
        simulate(model, grid, ic, t_end=0.02, output_every=0.01)
        assert steps and set(steps) == set(built)
        assert all(0 < a and b < n for a, b in built)

    @pytest.mark.parametrize("tail, cell", [(slice(None, 50), 0), (slice(150, None), 150)],
                             ids=["left", "right"])
    def test_failing_tail_state_is_named_as_by_a_whole_row_step(self, tail, cell):
        # a boundary state at F = 2 has lost hyperbolicity, so it bounds no
        # tail, and the window holds the first failing cell of the row
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        v, F = np.zeros(200), np.ones(200)
        v[100] = 1e-3
        F[tail] = 2.0
        with pytest.raises(SimulationError, match=rf"hyperbolicity lost at cell {cell}$"):
            _simulate_from((v, F, np.zeros(200)), model, grid, ic, t_end=0.01)

    @pytest.mark.parametrize("F", [math.nan, 0.0, -1.0, -math.inf])
    def test_tail_rule_is_checked_before_hyperbolicity(self, F):
        # W'' of a Mooney-Rivlin solid at F <= 0 or NaN warns (an error
        # here): it is evaluated only on states that pass the tail rule
        n = 16 + 2 * _NG
        q = np.stack([np.zeros(n), np.ones(n), np.zeros(n)])
        q[1, 0] = q[1, -1] = F
        assert _initial_span(q, penn_solid()) == (0, n)

    def test_span_of_rows_without_tails(self):
        n = 16 + 2 * _NG
        q = np.stack([np.zeros(n), np.ones(n), np.zeros(n)])
        model = rubber_solid()
        assert _initial_span(q, model) == (n, n)   # constant: empty
        q[2, 0] = 1e-3                              # sigma != 0: no left tail
        assert _initial_span(q, model) == (0, 1)
        q[0, -1] = math.nan                         # nor a right one
        assert _initial_span(q, model) == (0, n)
        q = np.stack([np.zeros(n), np.full(n, 2.0), np.zeros(n)])
        assert _initial_span(q, model) == (0, n)   # om*W''(2) + 1 < 0: not hyperbolic

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(_STEP_CASES), seed=st.integers(0, 2 ** 32 - 1),
           width=st.integers(0, 24), start=st.floats(0.0, 1.0),
           right_differs=st.booleans(), k=st.integers(1, 8))
    # two different tails that meet with no cell between them
    @example(case=_STEP_CASES[0], seed=0, width=0, start=0.5, right_differs=True, k=8)
    def test_windowed_steps_equal_whole_row_steps(self, case, seed, width, start,
                                                  right_differs, k):
        _, model, scales = case
        rho, om = model.rho_star, model.omega
        n = 32 + 2 * _NG
        lo = int(start * (n - width))
        full = _tailed_state(seed, model, scales, n, lo, lo + width, right_differs)
        win = full.copy()
        tails = [c.tobytes() for c in (win[:, 0], win[:, -1])]
        span = _stepper_of(model, win)   # holds win's span
        lo, hi = span.span
        work = _work(n)
        dx = 0.05
        for _ in range(k):
            dt = 0.9 * dx / float(_lam_fn(model)(full[1]).max())
            full[2] = om * relaxed(model, full[1], full[2] / om, 0.5 * dt)
            _step(full, dt, dx, model)
            _fill_ghosts(full)
            a, b = _window(lo, hi, n)
            win[2, a:b] = om * relaxed(model, win[1, a:b], win[2, a:b] / om, 0.5 * dt)
            _hyperbolic_step(_Plan(win, (a, b), work), dt, dx, model)
            span._grow_span()
            lo, hi = span.span
            assert win.tobytes() == full.tobytes()
            assert all(c.tobytes() == tails[0] for c in win[:, :lo].T)
            assert all(c.tobytes() == tails[1] for c in win[:, hi:].T)

    def test_buffered_step_allocates_no_pair_array(self):
        # nor any other array of a grid row (numpy's small cast buffer aside)
        n = 4000
        model = unit_fluid()
        q = _random_state(np.random.default_rng(7), model, n + 2 * _NG, 0.05, 0.05, 0.05)
        plan = _Plan(q, (0, q.shape[1]), _work(q.shape[1]))
        assert _traced_peak(lambda: _hyperbolic_step(plan, 1e-3, 0.05, model)) < 8 * n

    @pytest.mark.parametrize("name, model, scales",
                             [c for c in _STEP_CASES
                              if c[0] in ("rubber", "penn", "fluid", "regularized")])
    def test_step_loop_iteration_allocates_less_than_a_row(self, name, model, scales):
        # one step of the stepper (the CFL step, the source half-steps, the
        # hyperbolic step, the span growth and the finiteness check) on the
        # whole row of n = 4000 cells; the regularized law's relax takes the
        # plan's scratch
        n = 4000
        q = _random_state(np.random.default_rng(7), model, n + 2 * _NG, *scales)
        grid = Grid(x_min=0.0, x_max=0.05 * n, n_cells=n, cfl=0.9)
        stepper = _Stepper(model, grid, q)
        dt = 0.5 * grid.cfl * grid.dx / float(_lam_fn(model)(q[1]).max())

        def iteration():
            n_steps = stepper.n_steps
            stepper.advance_to(stepper.t + dt, 1.0)
            assert stepper.n_steps == n_steps + 1

        iteration()   # numpy sets up its loops on a first call
        assert _traced_peak(iteration) < 8 * n

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_span_growth_refills_only_the_ghosts_it_reaches(self, side):
        model = rubber_solid()
        n = 64 + 2 * _NG
        lo, hi = (1, 40) if side == "left" else (24, n - 1)
        q = _tailed_state(3, model, (0.05, 0.01, 2e4), n, lo, hi, right_differs=True)
        stepper = _stepper_of(model, q)
        lo, hi = stepper.span
        assert (lo <= 2 * _NG) == (side == "left") and (hi >= n - 2 * _NG) == (side == "right")
        reached, other = (slice(0, _NG), slice(n - _NG, n)) if side == "left" else \
            (slice(n - _NG, n), slice(0, _NG))
        edge = _NG if side == "left" else n - _NG - 1
        q[:, edge] += 1.0             # a step that moved the cell at the boundary
        q[:, other] = math.nan        # ghosts that a refill would overwrite
        stepper._grow_span()
        assert np.isnan(q[:, other]).all()
        assert (q[:, reached] == q[:, edge:edge + 1]).all()


# ---------------------------------------------------------------------------
# The stepper without simulate's record
# ---------------------------------------------------------------------------

def _padded_state(model, fields):
    """The ghost-padded state (rho*v, F, omega*sigma) of the cell values
    fields = (v, F, sigma)."""
    v, F, sigma = (np.pad(np.asarray(f, dtype=float), _NG, mode="edge") for f in fields)
    return np.stack([model.rho_star * v, F, model.omega * sigma])


class TestStepper:
    @pytest.mark.parametrize("name", ["rubber", "newtonian", "regularized"])
    def test_advanced_through_the_outputs_it_ends_on_simulates_final_state(self, name):
        # so the record never writes the state
        model, grid, ic, t_end, _ = _span_case(name)
        out_dt = t_end / 4
        final = simulate(model, grid, ic, t_end=t_end, output_every=out_dt).final
        stepper = _Stepper.kink(model, grid, ic)
        for k in range(1, 5):
            target = min(k * out_dt, t_end)
            stepper.advance_to(target, t_end)
            assert stepper.pending == 0.0 and stepper.t == target
        q = stepper.q[:, _NG:-_NG]
        assert (q[0] / model.rho_star).tobytes() == final.v.tobytes()
        assert q[1].tobytes() == final.F.tobytes()
        assert (q[2] / model.omega).tobytes() == final.sigma.tobytes()

    @pytest.mark.parametrize("name, row, cell, value, match", [
        ("rubber", 1, 50, 2.0, r"^hyperbolicity lost at cell 50$"),
        ("fluid", 1, 100, 1e-200,
         r"^time step dt=0 does not advance t=0 after 0 steps \(CFL limited by cell 100\)$"),
    ])
    def test_failures_keep_their_messages(self, name, row, cell, value, match):
        # the cell that loses hyperbolicity, and p_ref/F**2 overflowing to a
        # CFL step of 0
        model = {"rubber": rubber_solid(), "fluid": unit_fluid()}[name]
        fields = [np.zeros(200), np.ones(200), np.zeros(200)]
        fields[row][cell] = value
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=200, cfl=0.9)
        stepper = _Stepper(model, grid, _padded_state(model, fields))
        with np.errstate(divide="ignore", over="ignore"), \
                pytest.raises(SimulationError, match=match):
            stepper.advance_to(1.0, 1.0)

    def test_a_run_may_take_max_steps_and_no_more(self, monkeypatch):
        model, _, grid, ic = _rubber_setup(200, 0.1)
        stepper = _Stepper.kink(model, grid, ic)
        stepper.advance_to(0.02, 0.02)
        n = stepper.n_steps
        assert n > 1
        monkeypatch.setattr(wavefront, "MAX_STEPS", n)
        stepper = _Stepper.kink(model, grid, ic)
        stepper.advance_to(0.02, 0.02)
        assert stepper.n_steps == n and stepper.t == 0.02
        monkeypatch.setattr(wavefront, "MAX_STEPS", n - 1)
        stepper = _Stepper.kink(model, grid, ic)
        with pytest.raises(SimulationError, match=rf"^{n - 1} steps, the most a run may take, "
                                                  rf"end at t=\S+, short of t=0.02$"):
            stepper.advance_to(0.02, 0.02)
        assert stepper.n_steps == n - 1

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan_sigma"])
    @pytest.mark.parametrize("name, model, sigma_scale", [
        ("rubber", rubber_solid(), 2e4), ("penn", penn_solid(), 2e4),
        ("newtonian", unit_fluid(), 0.05),
        ("power_law_0.5", unit_fluid(PowerLaw(k_cons=1.0, m=0.5)), 0.05),
        ("power_law_2", unit_fluid(PowerLaw(k_cons=1.0, m=2.0)), 0.05),
        ("regularized", unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2)), 0.05)])
    def test_source_step_is_the_relax_of_copies(self, name, model, sigma_scale, nan):
        # _source relaxes the window's omega*sigma row in place, with the
        # plan's scratch, as relax steps copies of the rows, NaN included
        n = 64 + 2 * _NG
        q = _random_state(np.random.default_rng(5), model, n, 0.05, 0.01, sigma_scale)
        q[2, ::5], q[2, 1::5] = 0.0, -0.0
        if nan:
            q[2, 2 * _CHUNK + 3] = math.nan
        stepper = _stepper_of(model, q)
        a, b = _CHUNK, 4 * _CHUNK
        stepper.plan = _Plan(q, (a, b), stepper.work)
        om, h = model.omega, 0.5 * model.tau0
        expected = q.copy()
        F, sigma = q[1, a:b].copy(), q[2, a:b] / om
        expected[2, a:b] = om * relaxed(model, F, sigma, h)
        stepper._source(h)
        assert q.tobytes() == expected.tobytes()

    def test_every_source_step_gets_finite_rows_with_positive_stretch(self, monkeypatch,
                                                                      capsys, tmp_path):
        # relax's contract, on fv_stiff's seed-1 runs and the bundled simulate
        # configs: _source passes rows that are finite, with F > 0
        calls = []
        for law in (Maxwell, Newtonian, PowerLaw, RegularizedPowerLaw):
            def checked(self, F, sigma, h, model, scratch, relax=law.relax):
                calls.append((type(self).__name__, bool(
                    np.isfinite(F).all() and np.isfinite(sigma).all() and (F > 0.0).all())))
                return relax(self, F, sigma, h, model, scratch)
            monkeypatch.setattr(law, "relax", checked)
        spec = importlib.util.spec_from_file_location("workloads",
                                                      _ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)   # for its dataclasses
        spec.loader.exec_module(workloads)
        for op in workloads.make("fv_stiff", 1, tmp_path).ops():
            op.run()
        for name in ("rubber", "newtonian", "shear_thinning", "shear_thickening_eps"):
            assert cli.main(["simulate", "--config", f"{name}.json"]) == 0
        capsys.readouterr()
        assert {name for name, _ in calls} == {"Maxwell", "Newtonian", "PowerLaw",
                                               "RegularizedPowerLaw"}
        assert all(ok for _, ok in calls)

    @staticmethod
    def _poisoned_stepper(monkeypatch, where, poison):
        """A stepper of a small pulse in rubber, one step on, whose next
        hyperbolic step ends with poison(w, j) on its window w, j the
        window's first, a middle or its last cell (where); returns the
        stepper and the list that gets that cell's interior index."""
        model = rubber_solid()
        fields = [np.zeros(200), np.ones(200), np.zeros(200)]
        fields[0][100] = 1e-3
        grid = Grid(x_min=0.0, x_max=30.0, n_cells=200, cfl=0.9)
        stepper = _Stepper(model, grid, _padded_state(model, fields))
        stepper.advance_to(1e-6, 1.0)
        step, cells = wavefront._hyperbolic_step, []

        def poisoned(p, dt, dx, model):
            step(p, dt, dx, model)
            a, b = p.cells
            assert b - a < grid.n_cells + 2 * _NG   # a window, not the whole row
            j = {"first": 0, "middle": (b - a) // 2, "last": b - a - 1}[where]
            poison(p.w, j)
            cells.append(a + j - _NG)

        monkeypatch.setattr(wavefront, "_hyperbolic_step", poisoned)
        return stepper, cells

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_finiteness_check_names_the_non_finite_cell(self, monkeypatch, row, value, where):
        def poison(w, j):
            w[row, j] = value

        stepper, cells = self._poisoned_stepper(monkeypatch, where, poison)
        with pytest.raises(SimulationError,
                           match=r"^non-finite state at t=2e-06, cell \d+$") as exc:
            stepper.advance_to(2e-6, 1.0)
        assert str(exc.value).endswith(f"cell {cells[0]}")

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_finite_window_whose_row_sums_overflow_does_not_raise(self, monkeypatch, where):
        def poison(w, j):
            w[0, [j, j - 1 if j else 1]] = 1e308   # momentum: the source leaves it

        stepper, cells = self._poisoned_stepper(monkeypatch, where, poison)
        stepper.advance_to(2e-6, 1.0)
        assert cells and math.isinf(sum(stepper.plan.w[0].tolist()))
        assert np.isfinite(stepper.q).all()


# ---------------------------------------------------------------------------
# simulate's record against the record of a snapshot at every output
# ---------------------------------------------------------------------------

def _record_case(name):
    """(model, grid, ic, t_end, output_every) of a run for the record tests.
    "both_ends": a super-critical rubber kink whose back ramp starts at the
    left end and whose front runs out at the right, so the span reaches both
    ends (their ghosts are refilled), the fits leave the domain (NaN) and
    the prediction passes its blow-up time t_c (NaN)."""
    if name == "both_ends":
        model = rubber_solid()
        ic = KinkIC(x_front=12.0, pi0=1.5 * coefficients_ab(model).pi_cr, ramp_width=6.0)
        return model, Grid(x_min=0.0, x_max=24.0, n_cells=240, cfl=0.9), ic, 0.45, 0.025
    model, grid, ic, t_end, _ = _span_case(name)
    return model, grid, ic, t_end, t_end / 8


def _snapshot_record(model, grid, ic, t_end, out_dt):
    """The trace columns (t, measured, predicted, front, energy, max
    sigma*P, max|v_X|) that entropy_monitor, measure_front_slope,
    detect_front_position and closed_form give on the stepper's snapshot at
    every output, and the stepper."""
    lam0, wc = eigensystem(model, equilibrium_state()).lam, coefficients_ab(model)
    stepper = _Stepper.kink(model, grid, ic)
    rows = []
    for k in range(int(math.ceil(t_end / out_dt - 1e-12)) + 1):
        t = min(k * out_dt, t_end)
        stepper.advance_to(t, t_end)
        snap = stepper.snapshot(t)
        fx = ic.x_front + lam0 * t
        try:
            pi_m = measure_front_slope(model, snap, fx)
            front = detect_front_position(model, snap, fx)
        except SimulationError:
            pi_m = front = math.nan
        try:
            predicted = closed_form(wc.a, wc.b, ic.pi0, t)
        except ValueError:
            predicted = math.nan
        rep = entropy_monitor(model, snap)
        rows.append((t, pi_m, predicted, front, rep.total_energy,
                     rep.max_sigma_production, np.abs(np.diff(snap.v)).max() / grid.dx))
    return [np.array(c) for c in zip(*rows)], stepper


class TestRecord:
    """The record reads only the stepper's window and one fit pass per run,
    and gives every column bit for bit as the snapshot of each output does."""

    @pytest.mark.parametrize("name", ["rubber", "newtonian", "regularized", "both_ends"])
    def test_every_column_is_that_of_the_snapshots(self, name):
        model, grid, ic, t_end, out_dt = _record_case(name)
        tr = simulate(model, grid, ic, t_end=t_end, output_every=out_dt).trace
        cols, stepper = _snapshot_record(model, grid, ic, t_end, out_dt)
        t, measured, predicted, front, energy, max_sp, vx = cols
        for got, ref in [(tr.t, t), (tr.measured_pi, measured), (tr.predicted_pi, predicted),
                         (tr.front_x, front), (tr.energy, energy),
                         (tr.max_sigma_production, max_sp)]:
            assert got.tobytes() == ref.tobytes()
        vx0 = max(vx[0], 1e-300)
        assert tr.steepening_time == next(
            (s for s, v in zip(t.tolist(), vx) if v > wavefront.STEEPENING_FACTOR * vx0), None)
        if name == "both_ends":
            assert stepper.span == (0, grid.n_cells + 2 * _NG)
            assert np.isnan(measured[-1]) and not np.isnan(measured[0])
            assert np.isnan(predicted[-1]) and not np.isnan(predicted[0])
        else:
            assert not np.isnan(measured).any()
            assert stepper.plan.cells[1] - stepper.plan.cells[0] < grid.n_cells

    def test_outputs_take_no_snapshot(self, monkeypatch):
        model, grid, ic, t_end, out_dt = _record_case("regularized")
        taken = []
        snapshot = _Stepper.snapshot
        monkeypatch.setattr(_Stepper, "snapshot",
                            lambda self, t: taken.append(t) or snapshot(self, t))
        monkeypatch.setattr(wavefront, "entropy_monitor", None)
        simulate(model, grid, ic, t_end=t_end, output_every=out_dt)
        assert taken == [t_end]   # the final state's


class TestOneMeasurement:
    """measure_front_slope and detect_front_position are simulate's own
    front measurement: on the stepper's snapshot at each output, about the
    guess x_front + lam0*t, they give its measured_pi and front_x bit for
    bit, and raise SimulationError where its columns are NaN."""

    @pytest.mark.parametrize("name", ["rubber", "newtonian", "regularized", "both_ends"])
    def test_public_functions_give_simulates_columns(self, name):
        model, grid, ic, t_end, out_dt = _record_case(name)
        tr = simulate(model, grid, ic, t_end=t_end, output_every=out_dt).trace
        stepper = _Stepper.kink(model, grid, ic)
        failed = 0
        for t, measured, front in zip(tr.t.tolist(), tr.measured_pi, tr.front_x):
            stepper.advance_to(t, t_end)
            snap, fx = stepper.snapshot(t), ic.x_front + stepper.lam0 * t
            if math.isnan(measured):
                assert math.isnan(front)
                for fn in (measure_front_slope, detect_front_position):
                    with pytest.raises(SimulationError, match="too close to the boundary"):
                        fn(model, snap, fx)
                failed += 1
                continue
            assert np.float64(measure_front_slope(model, snap, fx)).tobytes() == \
                measured.tobytes()
            assert np.float64(detect_front_position(model, snap, fx)).tobytes() == \
                front.tobytes()
        assert (failed > 0) == (name == "both_ends")

    @pytest.mark.parametrize("cells, value, window", [
        (slice(60, 80), math.nan, "77 to 92"), (slice(100, 101), -math.inf, "98 to 113")])
    def test_a_non_finite_window_raises(self, cells, value, window):
        # the behind and the ahead window of the kink's front at t = 1e-7
        model, wc, grid, ic = _rubber_setup(500, 0.1)
        snap = simulate(model, grid, ic, t_end=1e-7, output_every=1e-7).final
        v = snap.v.copy()
        v[cells] = value
        snap = dataclasses.replace(snap, v=v)
        for fn in (measure_front_slope, detect_front_position):
            with pytest.raises(SimulationError, match=f"^non-finite v in the front fit "
                                                      f"window of cells {window}$"):
                fn(model, snap, ic.x_front + wc.lambda0 * snap.t)

    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_windows_may_reach_either_end_of_the_domain(self, t):
        # the gap is set by t, lam0 and dx alone: 2 cells at t = 0, 4 at t = 2
        x, lam0 = (np.arange(100) + 0.5) * 0.1, 1.0
        behind, ahead = _front_windows(x, x[50], lam0, t)
        gap = ahead.start - 51
        assert (50 - behind.stop, behind.stop - behind.start, ahead.stop - ahead.start) == \
            (gap, 16, 16)
        assert gap == (2 if t == 0.0 else 4)
        assert _front_windows(x, x[gap + 16], lam0, t)[0].start == 0
        assert _front_windows(x, x[x.size - gap - 17], lam0, t)[1].stop == x.size
        for i in (gap + 15, x.size - gap - 16):
            with pytest.raises(SimulationError, match="too close to the boundary"):
                _front_windows(x, x[i], lam0, t)
