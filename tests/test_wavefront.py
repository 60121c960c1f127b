"""Finite-volume wavefront experiment: oracle agreement, conservation, fronts."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    coefficients_ab,
    detect_front_position,
    eigensystem,
    entropy_monitor,
    equilibrium_state,
    load_scenario,
    measure_front_slope,
    simulate,
)
from accelwave import wavefront
from accelwave.wavefront import (
    _CHUNK,
    _NG,
    _auto_gap,
    _disturbed_span,
    _fill_ghosts,
    _grow_span,
    _hyperbolic_step,
    _initial_profile,
    _minmod,
    _Plan,
    _side_slopes,
    _Stepper,
    _tail_states,
    _window,
    _work,
)
from conftest import penn_solid, rubber_solid, unit_fluid


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


def _step(q, dt, dx, model):
    """One whole-row step of q in place, on its own scratch."""
    _hyperbolic_step(_Plan(q, (0, q.shape[1]), _work(q.shape[1])), dt, dx, model)


def _simulate_from(fields, model, grid, ic, t_end, **kw):
    """simulate from the cell values fields = (v, F, sigma) in place of the
    kink profile; ic still anchors the front tracking."""
    padded = [np.pad(np.asarray(f, dtype=float), _NG, mode="edge") for f in fields]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavefront, "_initial_profile", lambda *args: padded)
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
        # and through the standalone operation with its plain defaults
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


def _polyfit_side_slopes(snapshot, front_x, half_width, gap, degree):
    """The front fits as np.polyfit, np.polyder and np.polyval give them."""
    out = []
    for sl in wavefront._front_windows(snapshot, front_x, half_width, gap):
        x = snapshot.x[sl] - front_x
        coef = np.polyfit(x, snapshot.v[sl], min(degree, x.size - 1))
        out.append((float(np.polyval(np.polyder(coef), 0.0)), float(np.polyval(coef, 0.0))))
    return out


class TestFrontFits:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-320.0, 300.0),
           zeros=st.sampled_from(["none", "signed", "all", "subnormal"]),
           stencil=st.sampled_from([(16, 3, 2), (4, 2, 1), (1, 2, 2), (3, 0, 2), (2, 1, 0)]))
    def test_fits_equal_polyfit(self, seed, log_scale, zeros, stencil):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5.0, 80.0) + (np.arange(120) + 0.5) * rng.uniform(0.01, 1.0)
        v = rng.standard_normal(120) * 10.0 ** log_scale
        if zeros == "signed":
            v[rng.random(120) < 0.5] = -0.0
        elif zeros == "all":
            v = rng.choice([0.0, -0.0], 120)
        elif zeros == "subnormal":
            v = rng.choice([0.0, -0.0, 1e-320, -1e-320], 120)
        snap = Snapshot(t=0.0, x=x, v=v, F=np.ones(120), sigma=np.zeros(120))
        front_x = float(x[60] + rng.uniform(-0.5, 0.5) * (x[1] - x[0]))
        new = _side_slopes(snap, front_x, *stencil)
        assert np.array(new).tobytes() == np.array(
            _polyfit_side_slopes(snap, front_x, *stencil)).tobytes()

    def test_rank_deficient_fit_warns(self):
        # cells far behind the front make the columns (x**2, x, 1) collinear
        x = np.arange(100.0)
        x[45:48] = 1e9 + np.array([0.0, 1e-6, 2e-6])
        snap = Snapshot(t=0.0, x=x, v=x ** 2, F=np.ones(100), sigma=np.zeros(100))
        with pytest.warns(wavefront._RankWarning, match="poorly conditioned"):
            _side_slopes(snap, 50.2, 3, 2, 2)


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
        x = grid.centers()
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


class TestValidation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=0.0, n_cells=100, cfl=0.5)
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, n_cells=8, cfl=0.5)
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, n_cells=100, cfl=1.0)

    def test_kink_must_fit_domain(self):
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=60.0, n_cells=500, cfl=0.9)
        with pytest.raises(ValueError):
            simulate(model, grid, KinkIC(x_front=8.0, pi0=1.0, ramp_width=6.0),
                     t_end=0.01)

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
        with pytest.raises(ValueError, match=r"asks for more than 1000001 output records"):
            simulate(model, grid, ic, t_end=1.0, output_every=5e-324)  # ratio inf
        monkeypatch.setattr(wavefront, "MAX_POINTS", 4)
        res = simulate(model, grid, ic, t_end=1e-3, output_every=2.5e-4)
        assert res.trace.t.size == 5
        with pytest.raises(ValueError, match=r"asks for more than 5 output records"):
            simulate(model, grid, ic, t_end=1e-3, output_every=2e-4)


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
    x_all = grid.x_min + (np.arange(grid.n_cells + 2 * _NG) - _NG + 0.5) * dx
    v, F, sig = _initial_profile(model, grid, ic, x_all)
    q = np.stack([rho * v, F, om * sig])
    _fill_ghosts(q)

    def snapshot(t):
        return Snapshot(t=t, x=x_all[_NG:-_NG].copy(), v=(q[0, _NG:-_NG] / rho).copy(),
                        F=q[1, _NG:-_NG].copy(), sigma=(q[2, _NG:-_NG] / om).copy())

    snaps = [snapshot(0.0)]
    t = 0.0
    for k in range(1, int(math.ceil(t_end / out_dt - 1e-12)) + 1):
        target = min(k * out_dt, t_end)
        while t < target - 1e-14 * t_end:
            dt = min(grid.cfl * dx / float(np.max(lam_fn(q[1]))), target - t)
            q[2] = om * model.production.relax(q[1], q[2] / om, 0.5 * dt, model)
            _step(q, dt, dx, model)
            _fill_ghosts(q)
            q[2] = om * model.production.relax(q[1], q[2] / om, 0.5 * dt, model)
            t += dt
        t = target
        snaps.append(snapshot(t))
    return snaps


def _trace_from_snapshots(model, snaps, ic, dx):
    """The trace columns simulate() records, computed from snapshots."""
    lam0 = eigensystem(model, equilibrium_state()).lam
    cols = {"measured_pi": [], "front_x": [], "energy": [], "max_sigma_production": []}
    for snap in snaps:
        fx = ic.x_front + lam0 * snap.t
        gap = _auto_gap(lam0, snap.t, dx)
        cols["measured_pi"].append(measure_front_slope(model, snap, fx, 16, gap, degree=2))
        cols["front_x"].append(detect_front_position(snap, fx, 16, gap))
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
        ref_trace = _trace_from_snapshots(model, snaps, ic, grid.dx)
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

        def found(q, tails):
            spans.append(_disturbed_span(q, tails))
            return spans[-1]

        def planned(q, cells, work):
            windows.append(cells)
            return _Plan(q, cells, work)

        def run():
            if fields is None:
                return simulate(model, grid, ic, t_end=t_end, output_every=t_end / 4)
            return _simulate_from(fields, model, grid, ic, t_end=t_end,
                                  output_every=t_end / 4)

        monkeypatch.setattr(wavefront, "_disturbed_span", found)
        monkeypatch.setattr(wavefront, "_Plan", planned)
        windowed = run()
        lo, hi = spans[0]
        assert hi - lo < grid.n_cells   # the run did step a window
        n = grid.n_cells + 2 * _NG
        # ... rounded out to whole chunks, or to the ends of the row
        assert any(b - a < n for a, b in windows)
        assert all(a % _CHUNK == 0 and (b % _CHUNK == 0 or b == n) for a, b in windows)
        monkeypatch.setattr(wavefront, "_disturbed_span", lambda q, tails: (0, q.shape[1]))
        assert _result_bytes(windowed) == _result_bytes(run())

    def test_plan_is_built_once_per_window(self, monkeypatch):
        # the window grows by at most two cells a side per step, so its
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

    def test_failing_tail_state_is_named_as_by_a_whole_row_step(self):
        # the first step takes the whole row: the left tail at F = 2 has lost
        # hyperbolicity, and cell 0 is the first failing cell
        model = rubber_solid()
        grid = Grid(x_min=0.0, x_max=68.0, n_cells=200, cfl=0.9)
        ic = KinkIC(x_front=13.0, pi0=0.0, ramp_width=6.0)
        v, F = np.zeros(200), np.ones(200)
        v[100] = 1e-3
        F[:50] = 2.0
        with pytest.raises(SimulationError, match=r"hyperbolicity lost at cell 0$"):
            _simulate_from((v, F, np.zeros(200)), model, grid, ic, t_end=0.01)

    def test_span_of_rows_without_tails(self):
        n = 16 + 2 * _NG
        q = np.stack([np.zeros(n), np.ones(n), np.zeros(n)])
        assert _disturbed_span(q, _tail_states(q)) == (n, n)   # constant: empty
        q[2, 0] = 1e-3                                          # sigma != 0
        q[0, -1] = math.nan
        assert _tail_states(q) == (None, None)
        assert _disturbed_span(q, _tail_states(q)) == (0, n)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(_STEP_CASES), seed=st.integers(0, 2 ** 32 - 1),
           width=st.integers(0, 24), start=st.floats(0.0, 1.0),
           right_differs=st.booleans(), k=st.integers(1, 8))
    def test_windowed_steps_equal_whole_row_steps(self, case, seed, width, start,
                                                  right_differs, k):
        _, model, scales = case
        rho, om = model.rho_star, model.omega
        n = 32 + 2 * _NG
        lo = int(start * (n - width))
        full = _tailed_state(seed, model, scales, n, lo, lo + width, right_differs)
        win = full.copy()
        tails = _tail_states(win)
        lo, hi = _disturbed_span(win, tails)
        work = _work(n)
        dx = 0.05
        for _ in range(k):
            dt = 0.9 * dx / float(_lam_fn(model)(full[1]).max())
            full[2] = om * model.production.relax(full[1], full[2] / om, 0.5 * dt, model)
            _step(full, dt, dx, model)
            _fill_ghosts(full)
            a, b = _window(lo, hi, n)
            win[2, a:b] = om * model.production.relax(win[1, a:b], win[2, a:b] / om,
                                                      0.5 * dt, model)
            _hyperbolic_step(_Plan(win, (a, b), work), dt, dx, model)
            lo, hi = _grow_span(win, lo, hi, tails)
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
                             [c for c in _STEP_CASES if c[0] in ("rubber", "penn", "fluid")])
    def test_step_loop_iteration_allocates_less_than_a_row(self, name, model, scales):
        # one step of the stepper (the CFL step, the source half-steps, the
        # hyperbolic step, the span growth and the finiteness check) on the
        # whole row of n = 4000 cells
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
        tails = _tail_states(q)
        lo, hi = _disturbed_span(q, tails)
        assert (lo <= 2 * _NG) == (side == "left") and (hi >= n - 2 * _NG) == (side == "right")
        reached, other = (slice(0, _NG), slice(n - _NG, n)) if side == "left" else \
            (slice(n - _NG, n), slice(0, _NG))
        edge = _NG if side == "left" else n - _NG - 1
        q[:, edge] += 1.0             # a step that moved the cell at the boundary
        q[:, other] = math.nan        # ghosts that a refill would overwrite
        _grow_span(q, lo, hi, tails)
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
        x_all = grid.x_min + (np.arange(grid.n_cells + 2 * _NG) - _NG + 0.5) * grid.dx
        fields = [f[_NG:-_NG] for f in _initial_profile(model, grid, ic, x_all)]
        stepper = _Stepper(model, grid, _padded_state(model, fields))
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
