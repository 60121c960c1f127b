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

    def test_exit_code_on_missing_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--config",
                               str(tmp_path / "nope.json"))
        assert code == 2 and "config error" in err

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
        args.format = args.default_format
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
    def test_negative_number_in_exponent_form_is_a_value(self, flag, dest, word, value):
        args = build_parser().parse_args(["amplitude", "--config", "rubber.json",
                                          flag, word])
        assert getattr(args, dest) == value

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
        # min == max repeats one eps three times, with one pi_cr: the check
        # compared the repeats and exited 3
        d = json.loads(bundled_config_path("shear_thickening_eps.json").read_text())
        d["sweep"] = {"param": "fluid.production.eps", "min": 0.01, "max": 0.01,
                      "count": 3}
        code, out, err = run_cli(capsys, "sweep", "--config", self._write(tmp_path, d))
        assert code == 0 and err == ""
        rows = [ln.split(",") for ln in out.splitlines()[1:-1]]
        assert len(rows) == 3 and len({tuple(r) for r in rows}) == 1

    def test_sweep_block_required(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep",
                             "--config", self._write(tmp_path, dict(RUBBER_DICT)))
        assert code == 2


class TestSimulateCommand:
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
        assert f"config error: '{key}' in 'sim' must be > 0, got {value!r}" in err


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
