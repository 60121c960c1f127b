"""Config ingestion, serialization round-trips, CLI contracts."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelwave import (
    ConfigError,
    Grid,
    KinkIC,
    SimConfig,
    SingularLimitError,
    SweepConfig,
    bundled_config_path,
    coefficients_ab,
    load_scenario,
    material_from_dict,
    material_to_dict,
    scenario_from_dict,
    simulate,
)
import accelwave
from accelwave import cli
from accelwave.amplitude import MAX_POINTS
from accelwave.cli import build_parser, main
from conftest import rubber_solid, unit_fluid

RUBBER_DICT = {
    "kind": "solid",
    "solid": {"rho_star": 929.0, "E1": 2.12e6, "E2": 3.0e6, "tau0": 0.1,
              "elastic": {"kind": "quadratic_cubic", "R": 1.63}},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fluid_dict(production):
    return {"kind": "fluid",
            "fluid": {"rho_star": 1.0, "R_gas": 1.0, "tau0": 1.0, "mu0": 1.0,
                      "production": production}}


# canonical dict form of each law kind: every key written, in output order
CANONICAL_DICTS = {
    "quadratic_cubic": {
        "kind": "solid",
        "solid": {"rho_star": 929.0, "E1": 2.12e6, "E2": 3.0e6, "tau0": 0.1,
                  "nu_bar": 0.5, "elastic": {"kind": "quadratic_cubic", "R": 1.63}}},
    "mooney_rivlin": {
        "kind": "solid",
        "solid": {"rho_star": 929.0, "E2": 3.0e6, "tau0": 0.1, "nu_bar": 0.4998,
                  "elastic": {"kind": "mooney_rivlin", "C1": 0.092e6, "C2": 0.237e6,
                              "k_bulk": 2000.2e6, "nu_bar": 0.4998}}},
    "newtonian": _fluid_dict({"kind": "newtonian"}),
    "power_law": _fluid_dict({"kind": "power_law", "k_cons": 0.7, "m": 0.5}),
    "regularized": _fluid_dict({"kind": "regularized", "k_cons": 1.0, "m": 2.0,
                                "eps": 0.01}),
}


class TestConfig:
    def test_material_roundtrip_identity(self):
        for d in CANONICAL_DICTS.values():
            m1 = material_from_dict(d)
            out = material_to_dict(m1)
            assert material_from_dict(out) == m1
            # key for key and in order: analyze and the CSV footers print this form
            assert json.dumps(out) == json.dumps(d)

    def test_scenario_roundtrip_identity(self):
        d = dict(RUBBER_DICT)
        d["sim"] = {"x_min": 0.0, "x_max": 26.0, "n_cells": 100, "cfl": 0.9,
                    "x_front": 4.5, "pi0": 32.0, "ramp_width": 2.0, "t_end": 0.1}
        d["sweep"] = {"param": "solid.tau0", "min": 0.01, "max": 1.0,
                      "count": 5, "scale": "log"}
        d["pi0"] = 10.0
        cfg = scenario_from_dict(d)
        assert cfg.material == rubber_solid()
        assert cfg.sim == SimConfig(Grid(x_min=0.0, x_max=26.0, n_cells=100, cfl=0.9),
                                    KinkIC(x_front=4.5, pi0=32.0, ramp_width=2.0),
                                    t_end=0.1, output_every=None)
        assert cfg.sweep == SweepConfig(param="solid.tau0", min=0.01, max=1.0,
                                        count=5, scale="log")
        assert cfg.pi0 == 10.0 and cfg.out is None

    def test_rubber_config_matches_library_model(self):
        assert material_from_dict(RUBBER_DICT) == rubber_solid()

    def test_bundled_configs_load(self):
        for name in ("rubber.json", "newtonian.json", "shear_thinning.json",
                     "shear_thickening_eps.json"):
            cfg = load_scenario(bundled_config_path(name))
            coefficients_ab(cfg.material)

    def test_bare_bundled_name_resolves(self):
        cfg = load_scenario("rubber.json")
        assert cfg.material == rubber_solid()

    def test_missing_bundled_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no bundled config named 'nope.json'"):
            bundled_config_path("nope.json")

    @pytest.mark.parametrize("broken", [
        {"kind": "plasma"},
        {"kind": "solid"},
        {"kind": "solid", "solid": {"rho_star": 929.0, "E1": 1.0, "E2": 1.0,
                                    "tau0": 0.1, "elastic": {"kind": "quadratic_cubic"}}},
        {"kind": "solid", "solid": {"rho_star": -1.0, "E1": 1.0, "E2": 1.0, "tau0": 0.1,
                                    "elastic": {"kind": "quadratic_cubic", "R": 1.0}}},
        {"kind": "solid", "typo_key": {},
         "solid": {"rho_star": 1.0, "E1": 1.0, "E2": 1.0, "tau0": 0.1,
                   "elastic": {"kind": "quadratic_cubic", "R": 1.0}}},
        {"kind": "fluid", "fluid": {"rho_star": 1.0, "R_gas": 1.0, "tau0": 1.0,
                                    "mu0": 1.0, "production": {"kind": "dilatant"}}},
        # constants a law class rejects are config errors too
        {"kind": "solid", "solid": {"rho_star": 929.0, "E1": 1.0, "E2": 1.0, "tau0": 0.1,
                                    "elastic": {"kind": "quadratic_cubic", "R": -1.0}}},
        _fluid_dict({"kind": "regularized", "k_cons": 1.0, "m": 0.5, "eps": 0.01}),
        # json.load accepts Infinity and NaN
        {"kind": "solid", "solid": {"rho_star": 929.0, "E1": 1.0, "E2": 1.0, "tau0": 0.1,
                                    "elastic": {"kind": "quadratic_cubic", "R": math.inf}}},
    ])
    def test_schema_violations_rejected(self, broken):
        with pytest.raises(ConfigError):
            scenario_from_dict(broken)

    def test_sweep_param_must_exist(self):
        d = dict(RUBBER_DICT)
        d["sweep"] = {"param": "solid.viscosity", "min": 1.0, "max": 2.0, "count": 3}
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_sweep_count_is_capped_at_the_output_grid(self):
        # only parsed: a sweep of this many points is never run
        d = dict(RUBBER_DICT)
        d["sweep"] = {"param": "solid.tau0", "min": 0.1, "max": 0.2, "count": MAX_POINTS + 1}
        assert scenario_from_dict(d).sweep.count == MAX_POINTS + 1
        d["sweep"] = dict(d["sweep"], count=MAX_POINTS + 2)
        with pytest.raises(ConfigError, match="'count' in 'sweep'"):
            scenario_from_dict(d)

    def test_ramp_width_defaults_to_tenth_of_domain(self):
        d = dict(RUBBER_DICT)
        d["sim"] = {"x_min": 0.0, "x_max": 40.0, "n_cells": 100, "cfl": 0.9,
                    "x_front": 10.0, "pi0": 1.0, "t_end": 0.1}
        cfg = scenario_from_dict(d)
        assert cfg.sim.kink.ramp_width == 4.0


class TestAnalyzeCommand:
    def test_rubber_reference_report(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 0
        report = json.loads(out)
        wc = coefficients_ab(rubber_solid())
        assert report["lambda0"] == wc.lambda0          # lossless 17-digit floats
        assert report["a"] == wc.a
        assert report["b"] == wc.b
        assert report["pi_cr"] == wc.pi_cr
        assert report["case"] == "dissipative_finite"
        assert report["k_condition"]["full_K"] is True

    def test_outcome_block_with_pi0(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        wc = coefficients_ab(rubber_solid())
        code, out, _ = run_cli(capsys, "analyze", "--config", str(path),
                               "--pi0", repr(2.0 * wc.pi_cr))
        report = json.loads(out)
        assert report["outcome"]["global_existence"] is False
        assert report["outcome"]["t_c"] == pytest.approx(math.log(2.0) / wc.b,
                                                         rel=1e-12)

    def test_determinism_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        _, out1, _ = run_cli(capsys, "analyze", "--config", str(path))
        _, out2, _ = run_cli(capsys, "analyze", "--config", str(path))
        assert out1 == out2

    @pytest.mark.parametrize("production", [
        {"kind": "regularized", "k_cons": 1.0, "m": 100.0, "eps": 5e-324},
        {"kind": "power_law", "k_cons": 1e-200, "m": 0.5},
        {"kind": "regularized", "k_cons": 5e-324, "m": 1.001, "eps": 1.0}])
    def test_constants_that_overflow_are_a_config_error(self, capsys, tmp_path, production):
        # c = 2**(1/m - 1)*k_cons**(-1/m), or c*eps**(-n), overflows: a bare
        # OverflowError exited 3 naming neither the law nor its constants
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_fluid_dict(production)))
        code, out, err = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: non-physical {production['kind']} constants: "
                              f"k_cons={production['k_cons']:g}")
        assert "overflow" in err

    def test_exit_code_on_missing_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--config",
                               str(tmp_path / "nope.json"))
        assert code == 2 and "config error" in err

    def test_exit_code_on_a_directory_as_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--config", str(tmp_path))
        assert code == 2 and err.startswith(f"config error: cannot read config file {tmp_path}")

    def test_exit_code_on_non_utf8_config(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(RUBBER_DICT).replace("solid", "s\xf6lid").encode("latin-1"))
        code, _, err = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2 and err.startswith(f"config error: cannot read config file {path}")

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_exit_code_on_unwritable_output(self, capsys, tmp_path, command):
        out = tmp_path / "missing" / "report.csv"
        code, _, err = run_cli(capsys, command, "--config", "rubber.json", "--out", str(out))
        assert code == 2 and err.startswith(f"config error: cannot write output file {out}")

    def test_exit_code_on_a_nan_wave_speed(self, capsys, tmp_path):
        # R = 1e308 makes W''(1) NaN: analyze printed NaN coefficients and exit 0
        d = json.loads(json.dumps(RUBBER_DICT))
        d["solid"]["elastic"]["R"] = 1e308
        path = tmp_path / "huge_R.json"
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "analyze", "--config", str(path), "--pi0", "1")
        assert code == 3 and out == "" and "not hyperbolic" in err

    def test_exit_code_on_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2

    def test_exit_code_on_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "solid", "solid": {}}))
        code, _, _ = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2

    def test_exit_code_on_non_physical_constants(self, capsys, tmp_path):
        d = {"kind": "solid",
             "solid": {"rho_star": 1.0, "E1": 1.0, "E2": 1.0, "tau0": 1.0,
                       "elastic": {"kind": "quadratic_cubic", "R": -1.0}}}
        path = tmp_path / "negative_R.json"
        path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2 and "config error" in err

    def test_exit_code_on_degenerate_model(self, capsys, tmp_path):
        d = {"kind": "solid",
             "solid": {"rho_star": 1.0, "E1": 1.0, "E2": 1.0, "tau0": 1.0,
                       "elastic": {"kind": "quadratic_cubic", "R": 0.0}}}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 3 and "numerical error" in err

    def test_overflowed_b_reads_as_the_singular_limit(self, capsys, tmp_path):
        # b overflows to inf: analyze called it dissipative_finite, while
        # amplitude refused it as the singular limit
        path = tmp_path / "overflow.json"
        d = _fluid_dict({"kind": "regularized", "k_cons": 1e-300, "m": 1.0001, "eps": 1.0})
        d["fluid"]["tau0"] = 1e-100
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["case"] == "singular_limit" and report["b"] == "inf"
        assert "case_params" not in report
        code, _, err = run_cli(capsys, "amplitude", "--config", str(path), "--pi0", "1")
        assert code == 3 and "singular limit" in err

    def test_tiny_regularization_runs(self, capsys, tmp_path):
        # the slope's sigma term overflowed at sigma = 0, where it is exactly 0
        path = tmp_path / "tiny_eps.json"
        path.write_text(json.dumps(_fluid_dict(
            {"kind": "regularized", "k_cons": 1.0, "m": 2.0, "eps": 1e-210})))
        code, out, err = run_cli(capsys, "analyze", "--config", str(path), "--format", "csv")
        assert code == 0 and err == ""
        row = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        assert row["b"] == "1.767766952966369e+104" and row["case"] == "dissipative_finite"


class TestAmplitudeCommand:
    def test_decaying_trajectory_cross_check(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        wc = coefficients_ab(rubber_solid())
        code, out, _ = run_cli(capsys, "amplitude", "--config", str(path),
                               "--pi0", repr(0.5 * wc.pi_cr))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,pi_closed_form,pi_rk4"
        assert lines[-1].startswith("# ")
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:-1]])
        rel = np.abs(rows[:, 1] - rows[:, 2]) / np.abs(rows[:, 1])
        assert np.max(rel[rows[:, 1] != 0.0]) <= 1e-8
        footer = json.loads(lines[-1][2:])
        assert footer["global_existence"] is True and footer["t_c"] is None

    def test_supercritical_footer_reports_critical_time(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        wc = coefficients_ab(rubber_solid())
        code, out, _ = run_cli(capsys, "amplitude", "--config", str(path),
                               "--pi0", repr(2.0 * wc.pi_cr))
        assert code == 0
        footer = json.loads(out.strip().split("\n")[-1][2:])
        assert footer["t_c"] == pytest.approx(math.log(2.0) / wc.b, rel=1e-12)

    @pytest.mark.parametrize("pi0", ["1e19", "1e300"])
    def test_far_supercritical_amplitude_has_its_critical_time(self, capsys, pi0):
        # far above pi_cr, 1 - pi_cr/pi0 rounds to 1: t_c must still come out
        # near 1/(|a|*pi0), or the default t_end = 0.99*t_c is no valid time
        code, out, err = run_cli(capsys, "amplitude", "--config", "rubber.json",
                                 "--pi0", pi0)
        assert code == 0 and err == ""
        wc = coefficients_ab(rubber_solid())
        t_c = json.loads(out.strip().split("\n")[-1][2:])["t_c"]
        assert t_c == pytest.approx(1.0 / (abs(wc.a) * float(pi0)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pi0", ["-1e155", "-1e300"])
    @pytest.mark.parametrize("config", ["rubber.json", "newtonian.json"])
    def test_unresolvable_decay_exits_3(self, capsys, config, pi0):
        # global existence: this used to print "blew_up": true, with no RK4 row
        # after t = 0
        code, out, err = run_cli(capsys, "amplitude", "--config", config, "--pi0", pi0)
        assert code == 3 and out == ""
        assert err.startswith("numerical error: RK4 cannot resolve the decay at t = 0.0: ")
        assert "1/s times the step floor h_min = " in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_largest_amplitude_report_starts_at_pi0(self, capsys, fmt):
        # (a/b)*pi0 overflows: the closed form at t = 0 was nan, with a numpy
        # RuntimeWarning, and the blow-up came at a zero-length step, with
        # one row; pi reaches the largest float 55 rows on
        code, out, err = run_cli(capsys, "amplitude", "--config", "newtonian.json",
                                 "--pi0", "1.7e308", "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "csv":
            lines = out.splitlines()
            assert lines[1] == "0.0,1.7e+308,1.7e+308"
            rows = [ln.split(",") for ln in lines[1:-1]]
            meta = json.loads(lines[-1][2:])
        else:
            report = json.loads(out)
            assert report["rows"][0] == {"t": 0, "pi_closed_form": 1.7e308,
                                         "pi_rk4": 1.7e308}
            rows = [list(map(str, r.values())) for r in report["rows"]]
            meta = report["meta"]
        assert len(rows) == 55 and all(float(v) < math.inf for r in rows for v in r)
        wc = coefficients_ab(unit_fluid())
        t_star = (1.7e308 / sys.float_info.max - 1.0) / (wc.a * 1.7e308)
        assert meta["blew_up"] is True
        assert meta["t_blowup"] == pytest.approx(t_star, rel=1e-12, abs=0.0)

    def test_zero_amplitude_is_identically_zero(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        code, out, _ = run_cli(capsys, "amplitude", "--config", str(path),
                               "--pi0", "0.0", "--t-end", "1.0")
        rows = [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]
        vals = np.array([[float(v) for v in ln.split(",")] for ln in rows])
        assert np.all(vals[:, 1:] == 0.0)

    def test_requires_pi0(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        code, _, _ = run_cli(capsys, "amplitude", "--config", str(path))
        assert code == 2

    def test_overflowing_critical_time_asks_for_t_end(self, capsys):
        # b = 0: t_c = -1/(a*pi0) overflows for a subnormal pi0
        code, out, err = run_cli(capsys, "amplitude", "--config", "shear_thinning.json",
                                 "--pi0=2.2e-313")
        assert code == 3 and out == ""
        assert err == ("numerical error: the critical time t_c overflows to inf "
                       "at pi0=2.2e-313; give --t-end\n")
        code, out, _ = run_cli(capsys, "amplitude", "--config", "shear_thinning.json",
                               "--pi0=2.2e-313", "--t-end", "1")
        assert code == 0
        assert json.loads(out.strip().split("\n")[-1][2:])["t_c"] == "inf"

    def test_underflowing_rate_asks_for_t_end(self, capsys):
        # b = 0: a*pi0 underflows to zero, so t_c = inf as in the overflow
        code, out, err = run_cli(capsys, "amplitude", "--config", "shear_thinning.json",
                                 "--pi0", "5e-324")
        assert code == 3 and out == ""
        assert err == ("numerical error: the critical time t_c overflows to inf "
                       "at pi0=5e-324; give --t-end\n")
        code, out, err = run_cli(capsys, "amplitude", "--config", "shear_thinning.json",
                                 "--pi0", "5e-324", "--t-end", "2")
        assert code == 0 and err == ""
        assert json.loads(out.strip().split("\n")[-1][2:])["t_c"] == "inf"
        code, out, err = run_cli(capsys, "analyze", "--config", "shear_thinning.json",
                                 "--pi0", "5e-324")
        assert code == 0 and err == ""
        assert json.loads(out)["outcome"] == {"global_existence": False, "t_c": "inf"}

    def test_singular_limit_has_no_trajectory(self, capsys, tmp_path):
        d = {"kind": "fluid",
             "fluid": {"rho_star": 1.0, "R_gas": 1.0, "tau0": 1.0, "mu0": 1.0,
                       "production": {"kind": "power_law", "k_cons": 1.0, "m": 2.0}}}
        path = tmp_path / "thick.json"
        path.write_text(json.dumps(d))
        argv = ["amplitude", "--config", str(path), "--pi0", "1.0", "--t-end", "1.0"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("numerical error: amplitude trajectory is not defined in "
                       "the singular limit; sweep the regularization parameter "
                       "instead\n")
        # its own class: the fast field is genuinely nonlinear (a != 0)
        args = build_parser().parse_args(argv)
        with pytest.raises(SingularLimitError):
            args.func(args)


class TestNumericFlags:
    """--pi0, --t-end and --dt take finite floats; anything else is an
    argparse error (exit 2) that names the flag."""

    @pytest.mark.parametrize("argv, flag", [
        (["amplitude", "--pi0", "nan"], "--pi0"),
        (["amplitude", "--pi0=-inf"], "--pi0"),
        (["amplitude", "--pi0", "161", "--t-end", "inf"], "--t-end"),
        (["amplitude", "--pi0", "161", "--dt", "nan"], "--dt"),
        (["analyze", "--pi0", "nan"], "--pi0"),
    ])
    def test_non_finite_flag_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", "rubber.json", *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err

    def test_malformed_number_message_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--config", "rubber.json", "--pi0", "abc"])
        assert exc.value.code == 2
        assert "argument --pi0: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, dest", [("--pi0", "pi0"), ("--t-end", "t_end"),
                                            ("--dt", "dt")])
    @pytest.mark.parametrize("word, value", [("-1e-3", -1e-3), ("-1E+2", -100.0),
                                             ("-.5e1", -5.0), ("-2.5", -2.5)])
    def test_negative_number_in_exponent_form_is_a_value(self, capsys, flag, dest,
                                                         word, value):
        argv = ["amplitude", "--config", "rubber.json", flag, word]
        if flag == "--pi0":
            assert getattr(build_parser().parse_args(argv), dest) == value
            return
        # read as the flag's value, and refused as one: not "expected one argument"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be > 0, got {word!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, word", [("--dt", "0"), ("--dt", "-1"),
                                            ("--t-end", "0"), ("--t-end", "-1e-3"),
                                            ("--dt", "-0.0")])
    def test_non_positive_step_or_end_exits_2(self, capsys, flag, word):
        # a bad flag, not the numerical error (exit 3) that integrate raises
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--config", "rubber.json", "--pi0", "1", flag, word])
        assert exc.value.code == 2
        assert f"argument {flag}: must be > 0, got {word!r}" in capsys.readouterr().err

    def test_negative_exponent_form_after_a_flag_runs(self, capsys):
        separate = run_cli(capsys, "amplitude", "--config", "rubber.json", "--pi0", "-1e-3")
        joined = run_cli(capsys, "amplitude", "--config", "rubber.json", "--pi0=-1e-3")
        assert separate == joined and separate[0] == 0

    @pytest.mark.parametrize("word, message", [
        ("-1e", "expected one argument"), ("-x", "expected one argument"),
        ("1e-3x", "invalid float value: '1e-3x'"),
        ("-inf", "must be finite, got '-inf'"), ("-nan", "must be finite, got '-nan'"),
        ("-Infinity", "must be finite, got '-Infinity'")])
    def test_non_number_after_a_flag_exits_2(self, capsys, word, message):
        with pytest.raises(SystemExit) as exc:
            main(["amplitude", "--config", "rubber.json", "--dt", word])
        assert exc.value.code == 2
        assert f"argument --dt: {message}" in capsys.readouterr().err

    def test_overflowing_grid_ratio_is_a_numerical_error(self, capsys):
        # t_end/dt = inf exited 3 with "cannot convert float infinity to integer"
        code, out, err = run_cli(capsys, "amplitude", "--config", "rubber.json",
                                 "--pi0", "1", "--t-end", "1e300", "--dt", "1e-300")
        assert code == 3 and out == ""
        assert "asks for inf output points" in err

    def test_oversized_output_grid_is_a_numerical_error(self, capsys):
        # 2.5e8 rows at the default t_end = 5/b; refused before any step
        code, out, err = run_cli(capsys, "amplitude", "--config", "rubber.json",
                                 "--pi0", "161", "--dt", "1e-9")
        assert code == 3 and out == ""
        assert "output points" in err


class TestParserReuse:
    """One parser serves every main() call of a process: a sequence of calls
    gives the bytes and exit codes of fresh interpreters."""

    def test_in_process_sequence_matches_fresh_interpreters(self, capsys, tmp_path):
        cfg = tmp_path / "with_pi0.json"
        cfg.write_text(json.dumps({**RUBBER_DICT, "pi0": 400.0}))
        report = tmp_path / "report.json"
        sequence = [
            ["amplitude", "--config", "rubber.json", "--pi0", "100", "--format", "json"],
            ["amplitude", "--config", str(cfg)],                 # pi0 from the config
            ["analyze", "--config", str(cfg), "--out", str(report)],
            ["amplitude", "--config", str(cfg), "--dt", "nan"],  # argparse error
            ["analyze", "--config", "rubber.json", "--pi0", "-3"],
            ["analyze", "--config", str(cfg), "--format", "csv"],
            ["analyze", "--config", str(cfg)],                   # stdout again
            ["amplitude", "--config", "rubber.json"],            # no pi0 anywhere
            ["sweep", "--config", "shear_thickening_eps.json"],
        ]
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(accelwave.__file__))}

        def take(path):   # the file a call wrote, removed for the next call
            if not path.exists():
                return None
            text = path.read_text()
            path.unlink()
            return text

        expected = []
        for argv in sequence:
            proc = subprocess.run([sys.executable, "-m", "accelwave.cli", *argv],
                                  capture_output=True, text=True, env=env)
            expected.append((proc.returncode, proc.stdout, proc.stderr, take(report)))
        got = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err, take(report)))
        assert [e[0] for e in expected] == [0, 0, 0, 2, 0, 0, 0, 2, 0]
        assert got == expected


class TestSweepCommand:
    def _write(self, tmp_path, d):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        return str(path)

    def test_relaxation_time_scaling(self, capsys, tmp_path):
        d = dict(RUBBER_DICT)
        d["sweep"] = {"param": "solid.tau0", "min": 0.01, "max": 1.0,
                      "count": 9, "scale": "log"}
        code, out, _ = run_cli(capsys, "sweep", "--config", self._write(tmp_path, d))
        assert code == 0
        lines = [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]
        vals = np.array([[float(x) for x in ln.split(",")[:5]] for ln in lines])
        slope = np.polyfit(np.log(vals[:, 0]), np.log(vals[:, 4]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_regularization_scaling(self, capsys, tmp_path):
        cfg = str(bundled_config_path("shear_thickening_eps.json"))
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]
        vals = np.array([[float(x) for x in ln.split(",")[:5]] for ln in lines])
        slope = np.polyfit(np.log(vals[:, 0]), np.log(vals[:, 4]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_single_point_sweep_matches_analyze(self, capsys, tmp_path):
        d = dict(RUBBER_DICT)
        d["sweep"] = {"param": "solid.tau0", "min": 0.1, "max": 0.1, "count": 1}
        code, out, _ = run_cli(capsys, "sweep", "--config", self._write(tmp_path, d))
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        wc = coefficients_ab(rubber_solid())
        assert float(row[1]) == wc.lambda0
        assert float(row[2]) == wc.a
        assert float(row[3]) == wc.b
        assert float(row[4]) == wc.pi_cr

    def test_repeated_eps_is_no_monotonicity_violation(self, capsys, tmp_path):
        # min == max repeats one eps three times, with one pi_cr
        d = json.loads(bundled_config_path("shear_thickening_eps.json").read_text())
        d["sweep"] = {"param": "fluid.production.eps", "min": 0.01, "max": 0.01,
                      "count": 3}
        code, out, err = run_cli(capsys, "sweep", "--config", self._write(tmp_path, d))
        assert code == 0 and err == ""
        rows = [ln.split(",") for ln in out.splitlines()[1:-1]]
        assert len(rows) == 3 and len({tuple(r) for r in rows}) == 1

    def test_near_equal_eps_sweep_exits_0(self, capsys, tmp_path):
        # distinct eps one part in 1e15 apart may round to one pi_cr; a
        # monotonicity self-check refused that sweep, exiting 3
        d = json.loads(bundled_config_path("shear_thickening_eps.json").read_text())
        d["sweep"] = {"param": "fluid.production.eps", "min": 0.01,
                      "max": 0.01 * (1.0 + 1e-15), "count": 5}
        code, out, err = run_cli(capsys, "sweep", "--config", self._write(tmp_path, d))
        assert code == 0 and err == ""
        assert len(out.splitlines()[1:-1]) == 5

    def test_sweep_block_required(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep",
                             "--config", self._write(tmp_path, dict(RUBBER_DICT)))
        assert code == 2


class TestSimulateCommand:
    def test_a_source_step_of_too_many_substeps_exits_3(self, capsys, tmp_path):
        # eps = 1e-30 asks for about 3.3e12 sub-steps in the first source
        # step, which ran for ever
        d = json.loads(bundled_config_path("shear_thickening_eps.json").read_text())
        d["fluid"]["production"]["eps"] = 1e-30
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3 and out == ""
        assert err.startswith("numerical error: the regularized source step over h=")
        assert "sub-steps at eps=1e-30, more than 1000000" in err

    def test_writes_trace_and_snapshot(self, capsys, tmp_path):
        d = dict(RUBBER_DICT)
        d["sim"] = {"x_min": 0.0, "x_max": 26.0, "n_cells": 200, "cfl": 0.9,
                    "x_front": 4.5, "pi0": 32.0, "ramp_width": 2.0,
                    "t_end": 0.05, "output_every": 0.025}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path),
                             "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,measured_pi,predicted_pi,front_x,energy,max_sigma_production"
        assert lines[-1].startswith("# ")
        snap = (tmp_path / "trace.csv.snapshot.csv").read_text().strip().split("\n")
        assert snap[0] == "x,v,F,sigma"
        assert len(snap) == 200 + 2  # header + cells + footer
        assert snap[-1].startswith("# ") and json.loads(snap[-1][2:]) == {"t": 0.05}
        cfg = load_scenario(str(path))
        final = simulate(cfg.material, cfg.sim.grid, cfg.sim.kink, cfg.sim.t_end,
                         output_every=cfg.sim.output_every).final
        cells = np.array([[float(c) for c in line.split(",")] for line in snap[1:-1]])
        assert cells.tobytes() == np.column_stack(
            [final.x, final.v, final.F, final.sigma]).tobytes()

    @pytest.mark.parametrize("name", ["rubber.json", "newtonian.json",
                                      "shear_thinning.json", "shear_thickening_eps.json"])
    def test_every_bundled_config_simulates(self, capsys, name):
        code, out, err = run_cli(capsys, "simulate", "--config", name)
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        sim = load_scenario(name).sim
        assert len(lines) == round(sim.t_end / sim.output_every) + 3  # t = 0, header, footer
        assert json.loads(lines[-1][2:])["n_cells"] == sim.grid.n_cells

    def test_sim_block_required(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(RUBBER_DICT))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("key, value", [("t_end", 0.0), ("t_end", -1.0),
                                            ("output_every", 0.0),
                                            ("output_every", -0.025)])
    def test_non_positive_time_is_a_config_error(self, capsys, tmp_path, key, value):
        d = dict(RUBBER_DICT)
        d["sim"] = {"x_min": 0.0, "x_max": 26.0, "n_cells": 200, "cfl": 0.9,
                    "x_front": 4.5, "pi0": 32.0, "t_end": 0.05,
                    "output_every": 0.025, key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"config error: invalid 'sim' block: {key} must be finite and > 0, " \
            f"got {value!r}\n"

    @pytest.mark.parametrize("ends, message", [
        ((-1e308, 1e308), "must be a finite normal float, got inf"),
        ((0.0, 1e-320), "must be a finite normal float, got 2.5e-323")])
    def test_a_width_that_is_not_a_finite_normal_float_is_a_config_error(
            self, capsys, tmp_path, ends, message):
        d = dict(RUBBER_DICT)
        d["sim"] = {"x_min": ends[0], "x_max": ends[1], "n_cells": 400, "cfl": 0.9,
                    "x_front": 0.0, "pi0": 32.0, "t_end": 0.05}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("config error: invalid 'sim' block: ") and message in err

    @pytest.mark.parametrize("key, value, message", [
        ("x_front", 40.0, "kink profile does not fit inside the domain"),
        ("x_front", 3.9, "kink profile does not fit inside the domain"),
        ("output_every", 1e-9, "t_end/output_every asks for 250000001 output points, "
                               "over 1000001")])
    def test_a_run_error_of_the_sim_block_is_a_config_error(self, capsys, tmp_path, key,
                                                            value, message):
        # simulate's own checks, run when the config is read
        d = json.loads(bundled_config_path("rubber.json").read_text())
        d["sim"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match=f"^invalid 'sim' block: {message}$"):
            load_scenario(path)
        for command in ("simulate", "analyze"):
            code, out, err = run_cli(capsys, command, "--config", str(path))
            assert (code, out, err) == (2, "", f"config error: invalid 'sim' block: {message}\n")

    def test_a_failed_allocation_is_a_numerical_error(self, capsys, monkeypatch):
        message = "Unable to allocate 7.28 TiB for an array with shape (3, 1000000000004)"

        def simulate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate", simulate)
        code, out, err = run_cli(capsys, "simulate", "--config", "rubber.json")
        assert (code, out, err) == (3, "", f"numerical error: {message}\n")

    def test_a_run_at_the_step_limit_is_a_numerical_error(self, capsys, monkeypatch):
        # rubber.json needs at least t_end*lam0/(cfl*dx) = 634.5 steps: refused
        # before the first
        monkeypatch.setattr(accelwave.wavefront, "MAX_STEPS", 3)
        code, out, err = run_cli(capsys, "simulate", "--config", "rubber.json")
        assert (code, out, err) == (3, "", "numerical error: the run needs at least "
                                    "t_end*lam0/(cfl*dx) = 634.514 steps (lam0=74.2381), "
                                    "over MAX_STEPS = 3\n")


class TestPaperTablesCommand:
    def test_report_passes_all_reference_checks(self, capsys):
        code, out, _ = run_cli(capsys, "paper-tables")
        assert code == 0
        assert "overall: PASS" in out
        assert "FAIL" not in out.replace("overall: PASS", "")
        assert "weak_K=False" in out   # shear-thinning row
        assert "singular_limit" in out

    def test_entry_point_subprocess(self):
        proc = subprocess.run([sys.executable, "-m", "accelwave.cli", "paper-tables"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt, first_line", [("csv", b"t,pi_closed_form,pi_rk4\n"),
                                                 ("json", b"{\n")], ids=["csv", "json"])
    def test_closed_pipe_ends_quietly(self, fmt, first_line, unbuffered):
        # about 0.5 MB of rows (1.3 MB as JSON): the report is still being
        # written when the reader stops after one line, as `| head -n 1`
        # does.  With an unbuffered stdout a write longer than PIPE_BUF would
        # be cut short without an error.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "accelwave.cli", "amplitude", "--config",
             "rubber.json", "--pi0", "-1e-3", "--t-end", "1", "--dt", "1e-4",
             "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""


class _WriteLog(io.StringIO):
    """A stream that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestOneWriter:
    """Every report leaves in writes of at most _WRITE_CHUNK characters."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--config", "rubber.json", "--pi0", "50"],
        ["analyze", "--config", "shear_thickening_eps.json", "--format", "csv"],
        ["amplitude", "--config", "rubber.json", "--pi0", "50", "--format", "json"],
        ["paper-tables"],
    ], ids=["analyze-json", "analyze-csv", "amplitude-json", "paper-tables"])
    def test_reports_go_out_in_slices(self, monkeypatch, argv):
        whole = io.StringIO()
        with contextlib.redirect_stdout(whole):
            assert main(argv) == 0
        monkeypatch.setattr(cli, "_WRITE_CHUNK", 64)
        stub = _WriteLog()
        with contextlib.redirect_stdout(stub):
            assert main(argv) == 0
        assert stub.getvalue() == whole.getvalue()
        assert len(stub.writes) > 1 and max(map(len, stub.writes)) <= 64


class TestPackageExports:
    def test_every_module_name_is_exported(self):
        for module in (accelwave.amplitude, accelwave.characteristics, accelwave.config,
                       accelwave.materials, accelwave.wavefront):
            for name in module.__all__:
                assert getattr(accelwave, name) is getattr(module, name), name
                assert name in accelwave.__all__, name
        # a name in two modules' __all__ would shadow one of them silently
        assert len(accelwave.__all__) == len(set(accelwave.__all__))


class TestOutputFormats:
    def test_csv_uses_lf_and_comma(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        code, out, _ = run_cli(capsys, "analyze", "--config", str(path),
                               "--format", "csv")
        assert code == 0
        assert "\r" not in out
        header = out.split("\n")[0]
        assert header.split(",")[0] == "lambda0"

    def test_json_floats_roundtrip_losslessly(self, capsys, tmp_path):
        path = tmp_path / "rubber.json"
        path.write_text(json.dumps(RUBBER_DICT))
        _, out, _ = run_cli(capsys, "analyze", "--config", str(path))
        report = json.loads(out)
        wc = coefficients_ab(rubber_solid())
        for key, val in (("lambda0", wc.lambda0), ("a", wc.a),
                         ("b", wc.b), ("pi_cr", wc.pi_cr)):
            assert report[key] == val

    @pytest.mark.parametrize("name", ["rubber.json", "newtonian.json", "shear_thinning.json",
                                      "shear_thickening_eps.json"])
    def test_json_rows_and_footer_carry_the_csv_floats(self, capsys, name):
        # one float rule: a JSON row's float tokens are the CSV cells' text,
        # and the footer's floats are in the same shortest round-trip form
        argv = ("amplitude", "--config", name, "--pi0", "50", "--format")
        _, csv_out, _ = run_cli(capsys, *argv, "csv")
        _, json_out, _ = run_cli(capsys, *argv, "json")
        lines = csv_out.splitlines()
        rows = json.loads(json_out, parse_float=str)["rows"]
        assert [[row[c] for c in lines[0].split(",")] for row in rows] == \
            [line.split(",") for line in lines[1:-1]]
        footer = json.loads(lines[-1].removeprefix("# "), parse_float=str)
        assert footer["pi0"] == "50.0"
        for key in ("a", "b", "pi_cr"):
            assert footer[key] == repr(float(footer[key])), key

    def test_json_report_echoes_the_config_floats(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--config", "rubber.json", "--format", "json")
        solid = json.loads(out, parse_float=str)["input"]["solid"]
        assert (solid["tau0"], solid["elastic"]["R"]) == ("0.1", "1.63")
        report = json.loads(out)
        assert type(report["equilibrium"]["F"]) is float
        assert type(report["input"]["solid"]["rho_star"]) is float


_DOUBLES = (st.floats(allow_subnormal=True)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
            | st.floats(1e16, 1e17, exclude_max=True))   # integral: "%.17g" writes no point


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_DOUBLES, max_size=8), as_array=st.booleans())
def test_json_dumps_writes_each_float_as_its_repr(xs, as_array):
    # a finite float is the token repr(x) and loads back to its bits; a
    # non-finite one is the string of its repr; an array's items alike
    tokens = [repr(x) if math.isfinite(x) else f'"{x!r}"' for x in xs]
    text = cli.json_dumps({"x": np.array(xs) if as_array else xs}, indent=None)
    assert text == '{"x": [' + ",".join(tokens) + "]}"
    for x, y in zip(xs, json.loads(text)["x"]):
        if math.isfinite(x):
            assert type(y) is float and np.float64(y).tobytes() == np.float64(x).tobytes()
        else:
            assert y == repr(x)


_NESTED = {"a": [1, 2.5, None, True, "s"], "b": {}, "c": [],
           "d": {"e": (np.int64(3), np.float64(-0.0), 1.0, math.inf)}, 7: np.array([math.nan])}


@pytest.mark.parametrize("indent, golden", [
    (2, '{\n  "a": [\n    1,\n    2.5,\n    null,\n    true,\n    "s"\n  ],\n  "b": {},\n'
        '  "c": [],\n  "d": {\n    "e": [\n      3,\n      -0.0,\n      1.0,\n'
        '      "inf"\n    ]\n  },\n  "7": [\n    "nan"\n  ]\n}'),
    (None, '{"a": [1,2.5,null,true,"s"],"b": {},"c": [],"d": {"e": [3,-0.0,1.0,"inf"]},'
           '"7": ["nan"]}'),
])
def test_json_dumps_layout(indent, golden):
    assert cli.json_dumps(_NESTED, indent=indent) == golden
