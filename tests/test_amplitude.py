"""Amplitude evolution: closed form, classification, RK4 companion."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from accelwave import (
    classify,
    closed_form,
    coefficients_ab,
    integrate,
)
from accelwave import amplitude
from accelwave.amplitude import MAX_POINTS
from accelwave.config import material_from_dict
from conftest import rubber_solid, unit_fluid

# a shear-thinning fluid with a = -1000 and b = 0, whose a*pi0 overflows at
# pi0 = 1e308
_OVERFLOW_FLUID = {"rho_star": 1.0, "R_gas": 1e-6, "tau0": 1e6, "mu0": 1e-6,
                   "production": {"kind": "power_law", "k_cons": 1.0, "m": 0.5}}

# RK4 oracle at dt=1e-5 for (a, b, pi0) = (-1, 1, 0.5) evaluated at t=2,
# frozen from a 30-digit mpmath run (matches the closed form to 3.5e-23)
PI_AT_2 = 0.119202922022117556


class TestClassify:
    def test_rubber_supercritical_critical_time(self):
        wc = coefficients_ab(rubber_solid())
        out = classify(wc.a, wc.b, 2.0 * wc.pi_cr)
        assert not out.global_existence
        assert out.t_c == pytest.approx(math.log(2.0) / wc.b, rel=1e-12)
        # independent RK4 bracketing of the same critical time
        traj = integrate(wc.a, wc.b, 2.0 * wc.pi_cr, t_end=2.0 * out.t_c,
                         dt=out.t_c / 500.0)
        assert traj.blew_up
        assert traj.t_blowup == pytest.approx(out.t_c, rel=0.01)

    @pytest.mark.parametrize("ratio", [2.0, 3.7, 1e3, 1e8, 1e15, 1e16, 1e17, 1e19,
                                       1e50, 1e150, 1e300])
    def test_supercritical_critical_time_matches_mpmath(self, ratio):
        # t_c = -log(1 - pi_cr/pi0)/b: far above pi_cr, 1 - pi_cr/pi0 rounds
        # to 1 and t_c to -0.0 unless the logarithm is taken as log1p
        mpmath = pytest.importorskip("mpmath")
        wc = coefficients_ab(rubber_solid())
        for a, pi0 in ((wc.a, ratio * wc.pi_cr), (-wc.a, -ratio * wc.pi_cr)):
            with mpmath.workdps(60):
                x = mpmath.mpf(wc.b) / abs(mpmath.mpf(a)) / abs(mpmath.mpf(pi0))
                ref = float(-mpmath.log1p(-x) / mpmath.mpf(wc.b))
            t_c = classify(a, wc.b, pi0).t_c
            assert t_c == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert ref == pytest.approx(1.0 / (abs(wc.a) * ratio * wc.pi_cr),
                                    rel=1.0 / ratio + 1e-15, abs=0.0)

    def test_zero_damping_critical_time(self):
        out = classify(-0.01, 0.0, 100.0)
        assert not out.global_existence
        assert out.t_c == pytest.approx(1.0, rel=1e-15)
        assert out.pi_cr == 0.0

    def test_zero_damping_rate_underflow_is_an_infinite_critical_time(self):
        # a*pi0 underflows to -0.0: t_c = -1/(a*pi0) would divide by zero
        for a, pi0 in ((-0.5, 5e-324), (0.5, -5e-324), (-1e-300, 1e-30)):
            out = classify(a, 0.0, pi0)
            assert not out.global_existence and out.t_c == math.inf

    def test_zero_damping_critical_time_is_unchanged(self, rng):
        # away from the underflow t_c keeps its one expression, bit for bit
        for _ in range(200):
            a = -(10.0 ** rng.uniform(-150, 150))
            pi0 = 10.0 ** rng.uniform(-150, 150)
            assert classify(a, 0.0, pi0).t_c == -1.0 / (a * pi0)
            assert classify(-a, 0.0, -pi0).t_c == -1.0 / (-a * -pi0)

    def test_overflowing_rate_keeps_its_critical_time(self):
        # b = 0 and a*pi0 overflows: -1/(a*pi0) was 0.0
        for a, pi0 in ((-4.0, 1e308), (4.0, -1e308)):
            assert classify(a, 0.0, pi0).t_c == pytest.approx(2.5e-309, rel=1e-12, abs=0.0)

    def test_underflowing_threshold_takes_the_zero_damping_limit(self):
        # pi_cr = b/|a| underflows to 0, and -log1p(-pi_cr/pi0)/b was 0.0;
        # t_c tends to 1/(|a|*pi0) as b -> 0
        out = classify(-10.0, 5e-324, 1.0)
        assert not out.global_existence and out.pi_cr == 0.0
        assert out.t_c == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("a, b, pi0", [(-3.0, 1e-320, 1.0), (-7.0, 3e-322, 1.0),
                                           (7.0, 3e-322, -1.0), (-1e10, 1e-300, 2e-310),
                                           (-1e-10, 1e-318, 1e-3), (-1e15, 1e-310, 1e-323)])
    def test_subnormal_threshold_keeps_its_critical_time(self, a, b, pi0):
        # pi_cr = b/|a| rounded to a subnormal lost its bits before
        # -log1p(-pi_cr/pi0)/b divided by b again: t_c was 0.33350 for
        # a = -3 and 0.14754 for a = -7.  At pi_cr/pi0 = 0.5 (a = -1e10) the
        # b -> 0 limit 1/(|a|*pi0) is 28% short, and 0.5% short where pi_cr
        # underflows to 0 at pi_cr/pi0 = 0.01 (a = -1e15)
        with mp.workdps(50):
            A, B, P = (mp.mpf(x) for x in (a, b, pi0))
            t_c = float(-mp.log1p(-B / abs(A * P)) / B)
        out = classify(a, b, pi0)
        assert out.pi_cr < sys.float_info.min
        assert out.t_c == pytest.approx(t_c, rel=4 * sys.float_info.epsilon)

    def test_finite_nonzero_critical_time_is_unchanged(self, rng):
        for _ in range(200):
            a = -(10.0 ** rng.uniform(-150, 150))
            b = 10.0 ** rng.uniform(-150, 150)
            pi0 = rng.uniform(1.0 + 1e-9, 1e6) * (b / -a)
            t_c = -math.log1p(-(b / -a) / pi0) / b
            assert 0.0 < t_c < math.inf and classify(a, b, pi0).t_c == t_c

    def test_negative_amplitude_decays(self):
        out = classify(-0.009, 2.93, -50.0)
        assert out.global_existence
        assert out.t_c is None

    def test_subcritical_decays(self):
        out = classify(-1.0, 1.0, 0.5)
        assert out.global_existence and out.pi_cr == 1.0

    def test_mirrored_sign_convention(self):
        # a > 0 blows up for sufficiently negative amplitudes
        out = classify(1.0, 1.0, -2.0)
        assert not out.global_existence
        assert out.t_c == pytest.approx(math.log(2.0), rel=1e-12)
        assert classify(1.0, 1.0, 2.0).global_existence

    def test_infinite_damping_always_global(self):
        out = classify(-1.0, math.inf, 1e9)
        assert out.global_existence and math.isinf(out.pi_cr)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            classify(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            classify(-1.0, -0.5, 1.0)

    @pytest.mark.parametrize("a, b", [(-1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (-math.inf, 0.0)])
    def test_rejects_nan_or_infinite_coefficients(self, a, b):
        # classify(-1, nan, 1) gave a blow-up with t_c = 1.0
        with pytest.raises(ValueError):
            classify(a, b, 1.0)
        with pytest.raises(ValueError):
            closed_form(a, b, 1.0, 0.5)

    @pytest.mark.parametrize("pi0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitude(self, pi0):
        # a NaN pi0 used to classify as a blow-up with t_c = NaN
        with pytest.raises(ValueError, match="pi0 must be finite"):
            classify(-1.0, 1.0, pi0)


class TestClosedForm:
    def test_zero_initial_amplitude(self):
        t = np.linspace(0.0, 10.0, 11)
        assert np.all(closed_form(-1.0, 1.0, 0.0, t) == 0.0)

    def test_small_amplitude_linearizes(self):
        t = np.linspace(0.0, 3.0, 10)
        pi0 = 1e-8
        vals = closed_form(-2.0, 1.0, pi0, t)
        assert np.allclose(vals, pi0 * np.exp(-t), rtol=1e-7)

    def test_frozen_oracle_value(self):
        assert closed_form(-1.0, 1.0, 0.5, 2.0) == pytest.approx(PI_AT_2, rel=1e-12)

    def test_rejects_evaluation_beyond_blowup(self):
        out = classify(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            closed_form(-1.0, 1.0, 2.0, out.t_c)
        with pytest.raises(ValueError):
            closed_form(-1.0, 0.0, 1.0, np.array([0.5, 1.0]))

    def test_scaling_symmetry(self, rng):
        # s*pi(t; a, b, pi0) = pi(t; a/s, b, s*pi0), exact algebra
        for _ in range(50):
            a = -(10.0 ** rng.uniform(-2, 2))
            b = 10.0 ** rng.uniform(-2, 2)
            pi0 = rng.uniform(-0.9, 0.9) * b / abs(a)
            s = 10.0 ** rng.uniform(-2, 2)
            t = rng.uniform(0.0, 3.0 / b)
            lhs = closed_form(a / s, b, s * pi0, t)
            rhs = s * closed_form(a, b, pi0, t)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_continuity_to_zero_damping(self):
        a, pi0 = -1.0, 1.0
        t_c = -1.0 / (a * pi0)
        for t in np.linspace(0.0, 0.9 * t_c, 10):
            tiny_b = closed_form(a, 1e-12, pi0, float(t))
            zero_b = closed_form(a, 0.0, pi0, float(t))
            assert abs(tiny_b - zero_b) <= 1e-8

    def test_subcritical_monotone_decay_with_bound(self):
        a, b, pi0 = -0.5, 2.0, 1.5
        pi_cr = b / abs(a)
        assert pi0 < pi_cr
        t = np.linspace(0.0, 5.0 / b, 200)
        vals = closed_form(a, b, pi0, t)
        assert np.all(np.diff(vals) < 0.0)
        bound = pi0 * np.exp(-b * t) / (1.0 - pi0 / pi_cr)
        assert np.all(vals <= bound + 1e-15)

    @pytest.mark.parametrize("pi0", [1e300, 1.7e308, sys.float_info.max, 5e-324])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("model", [rubber_solid, unit_fluid])
    def test_initial_value_is_pi0_up_to_the_largest_float(self, model, sign, pi0):
        # (a/b)*pi0 overflows for the Newtonian fluid (|a/b| = 1.41) from
        # |pi0| of about 1.3e308 on, and (a/b)*pi0*growth was inf*0 = nan at t = 0
        wc = coefficients_ab(model())
        pi0 *= sign
        assert closed_form(wc.a, wc.b, pi0, 0.0) == pi0
        if classify(wc.a, wc.b, pi0).global_existence:
            vals = closed_form(wc.a, wc.b, pi0, np.linspace(0.0, 5.0 / wc.b, 6))
            assert vals[0] == pi0 and np.all(np.abs(vals[1:]) <= np.abs(vals[:-1]))

    def test_overflowing_ratio_tracks_the_scaled_problem(self):
        # pi(t; a, b, pi0) = s*pi(t; a*s, b, pi0/s), exact for a power of two s
        wc = coefficients_ab(unit_fluid())
        pi0, s = 1.7e308, 2.0 ** 1000
        assert math.isinf((wc.a / wc.b) * pi0)
        t_c = classify(wc.a, wc.b, pi0).t_c
        t = np.linspace(0.0, 0.05 * t_c, 50)    # pi(t) < 1.79e308
        scaled = s * closed_form(wc.a * s, wc.b, pi0 / s, t)
        assert closed_form(wc.a, wc.b, pi0, t) == pytest.approx(scaled, rel=1e-14)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_overflowing_rate_at_zero_damping(self, sign):
        # a*pi0 overflows, and pi0/(1 + a*pi0*t) was [nan, -0.0]
        a, pi0, t = -4.0 * sign, 1e308 * sign, np.array([0.0, 1e-312])
        out = closed_form(a, 0.0, pi0, t)
        assert out[0] == pi0
        assert out[1] == pytest.approx(pi0 / (1.0 - 4e-4), rel=1e-12)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_overflowing_ratio_takes_the_zero_damping_limit(self, sign):
        # a/b overflows, and the scaled form gave [nan, -0.0]
        a, pi0, t = -1.0 * sign, 1.0 * sign, np.array([0.0, 1e-3])
        assert math.isinf(a / 1e-320)
        out = closed_form(a, 1e-320, pi0, t)
        assert out[0] == pi0
        assert out[1] == pytest.approx(pi0 / (1.0 - 1e-3), rel=1e-15)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_scaled_coefficient_that_still_overflows(self, b, sign):
        # k*p0 overflows with k = a (b = 0) or a/b and p0 = 1.9 in [1, 2):
        # the scaled form gave [nan, -0.0] and a RuntimeWarning
        a, pi0, t = -1.7e308 * sign, 1.9 * sign, np.array([0.0, 1e-309])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = closed_form(a, b, pi0, t)
        assert out[0] == pi0
        # e**(-b*t) = 1 and -expm1(-b*t) = t at t = 1e-309
        assert out[1] == pytest.approx(pi0 / (1.0 + (a * t[1]) * pi0), rel=1e-15)
        assert abs(out[1]) == pytest.approx(2.8065, rel=1e-4)

    def test_bit_identical_at_zero_damping_where_the_rate_is_finite(self, rng):
        for _ in range(200):
            a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            pi0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            t_c = classify(a, 0.0, pi0).t_c if math.isfinite(a * pi0) else math.inf
            if t_c == math.inf:
                continue
            t = np.array([0.0, rng.uniform() * (t_c if t_c is not None else 1e3)])
            with np.errstate(all="ignore"):
                old = pi0 / (1.0 + a * pi0 * t)
            assert closed_form(a, 0.0, pi0, t).tobytes() == old.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-1e300, 1e300).filter(lambda x: x != 0.0),
           b=st.floats(1e-300, 1e300), pi0=st.floats(-1e308, 1e308),
           frac=st.floats(0.0, 1.0))
    def test_bit_identical_where_the_ratio_is_finite(self, a, b, pi0, frac):
        assume(math.isfinite((a / b) * pi0))
        t_c = classify(a, b, pi0).t_c
        t = np.array([0.0, frac * (t_c if t_c is not None else 10.0 / b)])
        t = t[t < t_c] if t_c is not None else t
        with np.errstate(all="ignore"):
            growth = -np.expm1(-b * t)
            old = pi0 * np.exp(-b * t) / (1.0 + (a / b) * pi0 * growth)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            new = closed_form(a, b, pi0, t)
        assert new.tobytes() == old.tobytes()


class TestIntegrate:
    def test_linear_decay_exact(self):
        traj = integrate(0.0, 1.0, 3.0, t_end=1.0, dt=1e-3)
        exact = 3.0 * np.exp(-traj.t)
        assert np.max(np.abs(traj.pi - exact)) < 1e-10

    def test_matches_closed_form_subcritical(self):
        a, b, pi0, t_end = -1.0, 1.0, 0.5, 2.0
        traj = integrate(a, b, pi0, t_end, dt=t_end / 1e5)
        exact = closed_form(a, b, pi0, traj.t)
        rel = np.abs(traj.pi - exact) / np.abs(exact)
        assert np.max(rel) < 1e-8
        assert traj.pi[-1] == pytest.approx(PI_AT_2, rel=1e-8)

    def test_blowup_detection_zero_damping(self):
        traj = integrate(-1.0, 0.0, 1.0, t_end=2.0, dt=0.01)
        assert traj.blew_up
        assert traj.t_blowup == pytest.approx(1.0, rel=0.01)

    def test_randomized_blowup_bracketing(self, rng):
        for _ in range(20):
            a = -(10.0 ** rng.uniform(-3, 1))
            b = 10.0 ** rng.uniform(-2, 2)
            pi0 = rng.uniform(1.2, 20.0) * b / abs(a)
            out = classify(a, b, pi0)
            traj = integrate(a, b, pi0, t_end=1.5 * out.t_c, dt=out.t_c / 400.0)
            assert traj.blew_up
            assert traj.t_blowup == pytest.approx(out.t_c, rel=0.01)

    def test_trajectory_at_the_largest_float_is_a_blow_up(self):
        # BLOWUP_FACTOR*|pi0| is inf, and pi reaches the largest float at
        # t = 44.37; the run crept on there in steps of about 3e-15.  In a
        # subprocess, so that a run without bound fails instead of hanging.
        code = ("from accelwave import integrate\n"
                "traj = integrate(-1e-310, 0.0, 1e308, 50.0, 1.0)\n"
                "print(traj.blew_up, repr(traj.t_blowup), traj.t.size)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        blew_up, t_blowup, size = proc.stdout.split()
        assert blew_up == "True" and size == "45"
        # the exact solution 1e308/(1 - 1e-2*t) leaves the float range at 44.35
        assert float(t_blowup) == pytest.approx(100.0 * (1.0 - 1e308 / sys.float_info.max),
                                                rel=1e-3)

    @pytest.mark.parametrize("pi0", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_amplitudes_whose_square_overflows_track_the_closed_form(self, pi0, sign):
        # a*pi0**2 overflows for rubber from |pi0| of about 1.4e155 on, which
        # made every first stage inf and declared a blow-up at dt*2**-60
        wc = coefficients_ab(rubber_solid())
        a = sign * abs(wc.a)
        pi0 = -math.copysign(pi0, a)           # on the blow-up side
        t_c = classify(a, wc.b, pi0).t_c
        traj = integrate(a, wc.b, pi0, 0.99 * t_c, 0.99 * t_c / 1000.0)
        assert not traj.blew_up and traj.t.size == 1001
        exact = closed_form(a, wc.b, pi0, traj.t)
        assert np.max(np.abs(traj.pi / exact - 1.0)) < 1e-4

    def test_cli_report_of_an_overflowing_amplitude(self, capsys):
        from accelwave.cli import main
        assert main(["amplitude", "--config", "rubber.json", "--pi0", "1e300",
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["blew_up"] is False and report["meta"]["t_blowup"] is None
        assert len(report["rows"]) == 1001

    def test_overflowing_rate_blows_up_where_pi_leaves_the_float_range(self):
        # |a*pi0| = 1e311 overflows, so every trial step h*|a*pi0| was inf
        # and the blow-up came at the step floor, t = 5e-324, though
        # pi0/(1 + a*pi0*t) is finite up to 4.437e-312
        wc = coefficients_ab(material_from_dict({"kind": "fluid", "fluid": _OVERFLOW_FLUID}))
        pi0 = 1e308
        t_c = classify(wc.a, wc.b, pi0).t_c
        traj = integrate(wc.a, wc.b, pi0, 0.99 * t_c, 0.99 * t_c / 1000.0)
        t_star = (1.0 - pi0 / sys.float_info.max) / (abs(wc.a) * pi0)
        assert traj.blew_up and traj.t_blowup == pytest.approx(t_star, rel=0.01)
        exact = closed_form(wc.a, wc.b, pi0, traj.t)
        assert traj.t.size > 1 and np.max(np.abs(traj.pi / exact - 1.0)) < 1e-9

    def test_cli_report_of_an_overflowing_rate(self, capsys, tmp_path):
        from accelwave.cli import main
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"kind": "fluid", "fluid": _OVERFLOW_FLUID}))
        assert main(["amplitude", "--config", str(path), "--pi0", "1e308"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert not any("nan" in row for row in out.splitlines()[1:3])   # t = 0 and dt

    @pytest.mark.parametrize("pi0", [-1e155, -1e300])
    @pytest.mark.parametrize("model", [rubber_solid, unit_fluid])
    def test_unresolvable_decay_is_an_error_not_a_blow_up(self, model, pi0):
        # global existence, but |a*pi0|*dt*2**-60 is 1e130 or more: the trial
        # taken at the step floor went non-finite and was called a blow-up
        wc = coefficients_ab(model())
        assert classify(wc.a, wc.b, pi0).global_existence
        with pytest.raises(ArithmeticError, match=r"rate \|a\*pi \+ b\| = .* 1/s "
                                                  r"times the step floor h_min = "):
            integrate(wc.a, wc.b, pi0, 5.0 / wc.b, 5e-3 / wc.b)

    @pytest.mark.parametrize("dt", [3.0, 10.0])
    def test_decay_side_keeps_the_sign_of_pi0(self, dt):
        # RK4 on pi took pi' = pi**2 from -1 to +0.68 at a step of 2.5, and the
        # amplitude then blew up on the positive side
        assert classify(-1.0, 0.0, -1.0).global_existence
        traj = integrate(-1.0, 0.0, -1.0, 20.0, dt)
        assert not traj.blew_up and np.all(traj.pi < 0.0)
        assert np.all(np.diff(np.abs(traj.pi)) < 0.0)
        exact = closed_form(-1.0, 0.0, -1.0, traj.t)
        assert np.max(np.abs(traj.pi / exact - 1.0)) < 0.2

    @pytest.mark.parametrize("b, pi0, t_end, dt", [
        (1.4476539909982218, -0.5581363809918632, 13.88, 1.388),
        (7.158925736252973, -26.29150668000137, 10 * 0.10592554774723378,
         0.10592554774723378),
    ])
    def test_decay_that_rk4_on_pi_took_across_zero(self, b, pi0, t_end, dt):
        # RK4 on pi returned +0.435 at t = 1.388 in the first run, and jumped
        # from -26.3 to +7.160, just above pi_cr, in one row of the second
        traj = integrate(-1.0, b, pi0, t_end, dt)
        assert not traj.blew_up and traj.t.size == 11 and np.all(traj.pi < 0.0)
        # the second run takes its first row in one step, with |dz| = 1.9,
        # and that step makes its largest error
        exact = closed_form(-1.0, b, pi0, traj.t)
        assert np.max(np.abs(traj.pi / exact - 1.0)) < 0.1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(a=st.sampled_from([-1.0, 1.0]), log_a=st.floats(-2.0, 2.0),
           b=st.sampled_from([0.0, 1.0]), log_b=st.floats(-1.0, 1.0),
           frac=st.floats(-30.0, 1.0), log_dt=st.floats(-1.0, math.log10(5.0)))
    def test_decay_side_draws_keep_their_sign(self, a, log_a, b, log_b, frac, log_dt):
        # pi0 = -frac*pi_cr*sgn(a): below pi_cr on the blow-up side's sign
        # (0 < frac <= 1), or of the other sign (frac < 0), where |pi| falls
        # like 1/(|a|*t); b = 0 takes pi_cr = 1/|a| as the scale
        a *= 10.0 ** log_a
        b *= 10.0 ** log_b
        pi0 = -frac * math.copysign((b if b else 1.0) / abs(a), a)
        assume(pi0 != 0.0 and classify(a, b, pi0).global_existence)
        dt = 10.0 ** log_dt
        traj = integrate(a, b, pi0, 10.0 * dt, dt)
        assert not traj.blew_up and traj.t.size == 11
        assert np.all(np.sign(traj.pi) == math.copysign(1.0, pi0))
        assert np.all(np.diff(np.abs(traj.pi)) <= 0.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(a=st.sampled_from([-1.0, 1.0]), b=st.sampled_from([0.0, 1.0]),
           log_pi0=st.floats(-3.0, 300.0), log_dt=st.floats(-3.0, 1.0))
    def test_global_existence_never_reports_a_blow_up(self, a, b, log_pi0, log_dt):
        pi0 = math.copysign(10.0 ** log_pi0, a)    # on the decay side
        assert classify(a, b, pi0).global_existence
        try:
            traj = integrate(a, b, pi0, 20.0 * 10.0 ** log_dt, 10.0 ** log_dt)
        except ArithmeticError:
            return
        assert not traj.blew_up and np.all(np.isfinite(traj.pi))

    def test_subnormal_step_never_gives_a_zero_length_step(self):
        # dt = 0.99*t_c/1000 is subnormal and dt*2**-60 underflows to 0, so
        # the step floor is the least positive float.  The stage sum of pi
        # overflowed at every h, which declared the blow-up at t = 5e-324;
        # pi = pi0/(1 + a*pi0*t) (b*t is below 1e-300) reaches the largest
        # float at t*, 55 rows on
        wc = coefficients_ab(unit_fluid())
        pi0 = 1.7e308
        t_c = classify(wc.a, wc.b, pi0).t_c
        assert 0.99 * t_c / 1000.0 * 2.0 ** -60 == 0.0
        traj = integrate(wc.a, wc.b, pi0, 0.99 * t_c, 0.99 * t_c / 1000.0)
        t_star = (pi0 / sys.float_info.max - 1.0) / (wc.a * pi0)
        assert traj.blew_up and traj.t.size == 55
        assert traj.t_blowup == pytest.approx(t_star, rel=1e-12, abs=0.0)
        assert np.all(np.isfinite(traj.pi))
        exact = closed_form(wc.a, wc.b, pi0, traj.t)
        assert np.max(np.abs(traj.pi / exact - 1.0)) < 1e-12

    @pytest.mark.parametrize("a", [-1e10, 1e10])
    def test_overflowing_rate_is_a_blow_up(self, a):
        # |a*pi0| overflows: the blow-up comes at the step floor, long before
        # the first grid point, and the mirrored decay cannot be resolved
        pi0 = -math.copysign(1e300, a)
        assert math.isinf(a * pi0) and not classify(a, 0.5, pi0).global_existence
        traj = integrate(a, 0.5, pi0, 1.0, 0.1)
        assert traj.blew_up and traj.t.size == 1 and traj.t_blowup <= 0.1 * 2.0 ** -60
        with pytest.raises(ArithmeticError, match="cannot resolve the decay"):
            integrate(a, 0.5, -pi0, 1.0, 0.1)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            integrate(-1.0, 1.0, 0.5, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate(-1.0, math.inf, 0.5, t_end=1.0, dt=0.1)

    @pytest.mark.parametrize("a, b", [(-1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (-math.inf, 0.0)])
    def test_rejects_nan_or_infinite_coefficients(self, a, b):
        # integrate(-1, nan, 1, 1, 0.5) gave blew_up=True; a = 0 stays valid
        with pytest.raises(ValueError, match="finite a and b"):
            integrate(a, b, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_rejects_negative_damping(self, a):
        # integrate(-1, -1, 0.5, 1, 0.25) gave a growing pi with blew_up
        # False, where classify and closed_form refuse b < 0
        with pytest.raises(ValueError, match=r"b must be >= 0, got -1\.0"):
            integrate(a, -1.0, 0.5, 1.0, 0.25)
        assert not integrate(a, 0.0, 0.5, 1.0, 0.25).blew_up

    @pytest.mark.parametrize("pi0, t_end, dt", [
        (math.nan, 1.0, 0.1), (0.5, math.inf, 0.1), (0.5, 1.0, math.nan),
        (0.5, math.nan, 0.1), (-math.inf, 1.0, 0.1)])
    def test_rejects_non_finite_inputs(self, pi0, t_end, dt):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(-1.0, 1.0, pi0, t_end, dt)

    def test_output_grid_ceiling(self, monkeypatch):
        # 10**7 steps would run for tens of seconds and build 10**7 rows
        assert MAX_POINTS >= 10 ** 5   # test_matches_closed_form_subcritical
        with pytest.raises(ValueError, match=r"^t_end/dt asks for 10000001 output points, "
                                             r"over 1000001$"):
            integrate(-1.0, 1.0, 0.5, t_end=1.0, dt=1e-7)
        with pytest.raises(ValueError, match="output points"):
            integrate(-1.0, 1.0, 0.5, t_end=1.0, dt=1.0 / (MAX_POINTS + 1))
        # the ceiling is amplitude.MAX_POINTS, the one simulate's grid meets too
        monkeypatch.setattr(amplitude, "MAX_POINTS", 4)
        assert integrate(-1.0, 1.0, 0.5, t_end=1e-3, dt=2.5e-4).t.size == 5
        with pytest.raises(ValueError, match=r"^t_end/dt asks for 6 output points, over 5$"):
            integrate(-1.0, 1.0, 0.5, t_end=1e-3, dt=2e-4)

    def test_overflowing_grid_ratio_is_refused(self):
        # t_end/dt = inf: the ceil raised OverflowError before the comparison
        with pytest.raises(ValueError, match=r"^t_end/dt asks for inf output points, "
                                             r"over 1000001$"):
            integrate(-1.0, 1.0, 0.5, t_end=1e300, dt=1e-300)
