"""The `amplitude` report against a copy of its per-row form.

`cmd_amplitude` evaluates the closed-form column with one array call, and
`write_table` takes the table as columns and formats a float64 array column
straight from the array.  The reference below is the earlier form: a scalar
`closed_form` call per row, `float()` per cell, and a field function per cell
of each row, on the trajectory of `integrate`.  The CSV and JSON bytes must
be identical.
"""

import contextlib
import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelwave import classify, closed_form, coefficients_ab, integrate
from accelwave import cli
from accelwave.amplitude import BLOWUP_FACTOR, GROWTH_LIMIT
from conftest import rubber_solid


def _reference_csv_field(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _reference_report(wc, pi0, t_end, dt, fmt):
    """Exit code and text of the amplitude report built one row at a time."""
    try:
        return 0, _reference_text(wc, pi0, t_end, dt, fmt)
    except (ValueError, ArithmeticError):   # the CLI's exit 3
        return 3, ""


def _reference_text(wc, pi0, t_end, dt, fmt):
    outcome = classify(wc.a, wc.b, pi0)
    if t_end is None:
        t_end = (0.99 * outcome.t_c if not outcome.global_existence
                 else (5.0 / wc.b if wc.b > 0.0 else 1.0))
    dt = dt if dt is not None else t_end / 1000.0
    traj = integrate(wc.a, wc.b, pi0, t_end, dt)
    rows = []
    for t, p in zip(traj.t, traj.pi):
        if outcome.t_c is not None and t >= outcome.t_c:
            cf = math.nan
        else:
            cf = closed_form(wc.a, wc.b, pi0, float(t))
        rows.append([float(t), cf, float(p)])
    footer = {"a": wc.a, "b": wc.b, "pi_cr": wc.pi_cr, "pi0": pi0,
              "global_existence": outcome.global_existence, "t_c": outcome.t_c,
              "blew_up": traj.blew_up, "t_blowup": traj.t_blowup,
              "units": {"t": "s", "pi": "m/s^2"}}
    header = ["t", "pi_closed_form", "pi_rk4"]
    if fmt == "json":
        payload = {"columns": header, "rows": [dict(zip(header, r)) for r in rows],
                   "meta": footer}
        return cli.json_dumps(payload) + "\n"
    lines = [",".join(header)] + [",".join(_reference_csv_field(x) for x in r)
                                  for r in rows]
    return "\n".join(lines) + "\n# " + cli.json_dumps(footer, indent=None) + "\n"


def _cli_report(wc, pi0, t_end, dt, fmt):
    """Exit code and stdout of `accelwave amplitude` with the coefficients
    replaced by wc."""
    argv = ["amplitude", "--config", "rubber.json", f"--pi0={pi0!r}", "--format", fmt]
    if t_end is not None:
        argv.append(f"--t-end={t_end!r}")
    if dt is not None:
        argv.append(f"--dt={dt!r}")
    out = io.StringIO()
    with mock.patch.object(cli, "coefficients_ab", lambda material: wc), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@st.composite
def amplitude_problems(draw):
    """(a, b, pi0, t_end, dt): both signs of a, b = 0 or not, pi0 on either
    side of pi_cr, and t_end from the CLI default or up to 3x past t_c."""
    a = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 1.0))
    b = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 2.0))
    scale = b / abs(a) if b > 0.0 else 10.0 ** draw(st.floats(-1.0, 1.0))
    pi0 = draw(st.floats(-3.0, 3.0)) * scale
    t_end = dt = None
    if draw(st.booleans()):
        t_c = classify(a, b, pi0).t_c
        span = t_c if t_c is not None else (5.0 / b if b > 0.0 else 1.0)
        t_end = draw(st.floats(0.3, 3.0)) * span
        if draw(st.booleans()):
            dt = t_end / draw(st.integers(3, 400))
    return a, b, pi0, t_end, dt


_RUBBER_WC = coefficients_ab(rubber_solid())


def _wave(a, b):
    return replace(_RUBBER_WC, a=a, b=b)


class TestBitIdenticalAmplitudeReport:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(problem=amplitude_problems(), fmt=st.sampled_from(["csv", "json"]))
    def test_report_matches_reference(self, problem, fmt):
        a, b, pi0, t_end, dt = problem
        wc = _wave(a, b)
        assert _cli_report(wc, pi0, t_end, dt, fmt) == \
            _reference_report(wc, pi0, t_end, dt, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("a, b, pi0, t_end, dt", [
        (-1.0, 0.0, 1.0, 3.0, 0.05),           # b = 0, a grid point at t_c = 1
        (1.0, 0.0, -1.0, 3.0, 0.05),           # the same, mirrored
        (-1.0, 1.0, 4.0, 2.0, 0.013),          # b > 0, past t_c = log(4/3)
        (0.5, 2.0, -9.0, None, None),          # mirrored blow-up, default grid
        (-0.009, 2.93, 160.0, None, None),     # rubber-like decay, default grid
        (-2.0, 0.0, -0.7, None, 0.01),         # b = 0, global
    ])
    def test_named_branches_match_reference(self, fmt, a, b, pi0, t_end, dt):
        wc = _wave(a, b)
        rc, text = _cli_report(wc, pi0, t_end, dt, fmt)
        assert rc == 0 and (rc, text) == _reference_report(wc, pi0, t_end, dt, fmt)

    @pytest.mark.parametrize("a, b, pi0, t_end, dt", [
        # the stage sum k1 + 2*k2 + 2*k3 + k4 of pi overflowed for every h
        pytest.param(0.0, 1.0, 1.7e308, 1.0, 0.01, id="near-largest-float-decay"),
        # 0.5*h*k1 of pi overflowed at h = 30, though the trial did not
        pytest.param(-1e-320, 0.1, 1e308, 30.0, 30.0, id="growth-limit-overflow-inf-trial"),
    ])
    def test_power_of_two_scale_of_pi0_scales_the_trajectory(self, a, b, pi0, t_end, dt):
        # pi(t; a, b, pi0) = s*pi(t; a*s, b, pi0/s) for the power of two
        # s = 2**1023: (a*s)*(pi0/s) rounds as a*pi0 does, so the steps on
        # log|pi| are the same, and the amplitude of order 1 runs as pi0
        s = 2.0 ** 1023
        new, scaled = integrate(a, b, pi0, t_end, dt), integrate(a * s, b, pi0 / s, t_end, dt)
        assert not new.blew_up and not scaled.blew_up
        assert new.t.tobytes() == scaled.t.tobytes()
        assert new.pi.tobytes() == (scaled.pi * s).tobytes()
        if a == 0.0:
            assert new.pi == pytest.approx(pi0 * np.exp(-b * new.t), rel=1e-9)

    def test_extreme_cases_take_the_named_paths(self):
        assert BLOWUP_FACTOR * 1e300 == math.inf
        assert GROWTH_LIMIT * 1e308 == math.inf
        traj = integrate(-1.0, 0.0, 1e100, 1.0, 1.0)
        assert traj.blew_up and traj.t_blowup == 2.0 ** -60
        traj = integrate(-1e-310, 0.0, 1e308, 1.0, 0.1)
        assert not traj.blew_up and traj.pi[-1] > traj.pi[0]
        # RK4 on pi amplified by 1.375 at b*h = 3; on log|pi| the step
        # halves once (b*h > log(GROWTH_LIMIT)) and follows the decay
        traj = integrate(-1e-320, 0.1, 1e308, 30.0, 30.0)
        exact = closed_form(-1e-320, 0.1, 1e308, 30.0)
        assert not traj.blew_up and traj.pi[-1] == pytest.approx(exact, rel=1e-9)

    def test_rows_from_the_critical_time_on_are_nan(self):
        # the halving steps reach the grid point t = t_c = 1 before |pi| > 1e12
        a, b, pi0 = -1.0, 0.0, 1.0
        traj = integrate(a, b, pi0, 3.0, 0.05)
        assert traj.blew_up and traj.t[-1] == 1.0 < traj.t_blowup
        _, text = _cli_report(_wave(a, b), pi0, 3.0, 0.05, "csv")
        rows = [ln.split(",") for ln in text.splitlines()[1:-1]]
        assert rows[-1][:2] == ["1.0", "nan"]
        assert all(r[1] != "nan" for r in rows[:-1])


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_cells = st.one_of(_floats, _floats.map(np.float64),
                   st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(),
                   st.booleans(), st.none(), st.text("abc_ ", max_size=4))


@st.composite
def tables(draw):
    """(header, columns, footer): float64 arrays, lists of Python floats or
    lists of mixed cells, side by side, with zero rows, one row (as in the
    analyze table) or more."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(0, 30))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["array", "floats", "cells"]))
        cells = draw(st.lists(_cells if kind == "cells" else _floats,
                              min_size=n_rows, max_size=n_rows))
        columns.append(np.array(cells, dtype=np.float64) if kind == "array" else cells)
    header = [f"c{i}" for i in range(n_cols)]
    footer = draw(st.none() | st.just({"pi0": 1e-5, "t_c": None}))
    return header, columns, footer


def _row_form(columns):
    """The table's rows as the CLI built them before it passed columns: the
    cells of each array column as Python floats."""
    return [list(r) for r in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in columns))]


def _reference_table(header, rows, footer):
    lines = [",".join(header)] + [",".join(_reference_csv_field(x) for x in r)
                                  for r in rows]
    if footer:
        lines.append("# " + cli.json_dumps(footer, indent=None))
    return "\n".join(lines) + "\n"


def _reference_json(header, rows, footer):
    payload = {"columns": header, "rows": [dict(zip(header, row)) for row in rows]}
    if footer:
        payload["meta"] = footer
    return cli.json_dumps(payload) + "\n"


def _written(header, columns, footer, fmt):
    out = io.StringIO()
    cli.write_table(out, header, columns, footer, fmt)
    return out.getvalue()


class TestColumnWiseTable:
    """`write_table` takes columns; the bytes are those of the per-row,
    per-cell form."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(table=tables())
    def test_matches_per_row_reference(self, table):
        header, columns, footer = table
        assert _written(header, columns, footer, "csv") == \
            _reference_table(header, _row_form(columns), footer)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(table=tables())
    def test_json_matches_the_row_form_payload(self, table):
        header, columns, footer = table
        assert _written(header, columns, footer, "json") == \
            _reference_json(header, _row_form(columns), footer)

    def test_special_floats_in_arrays(self):
        x = np.array(_SPECIAL_FLOATS)
        columns = [x, -x, list(_SPECIAL_FLOATS), [str(v) for v in _SPECIAL_FLOATS]]
        header = ["x", "minus_x", "as_list", "text"]
        text = _written(header, columns, {"n": 8}, "csv")
        assert text == _reference_table(header, _row_form(columns), {"n": 8})
        assert text.splitlines()[1:4] == ["nan,nan,nan,nan", "inf,-inf,inf,inf",
                                          "-inf,inf,-inf,-inf"]
        assert text.splitlines()[6:9] == ["5e-324,-5e-324,5e-324,5e-324",
                                          "1e+16,-1e+16,1e+16,1e+16",
                                          "1e-05,-1e-05,1e-05,1e-05"]

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", 'x,y,name\n# {"t": 0.5}\n'),
        ("json", cli.json_dumps({"columns": ["x", "y", "name"], "rows": [],
                                 "meta": {"t": 0.5}}) + "\n"),
    ])
    def test_zero_length_columns_give_the_header_alone(self, fmt, expected):
        # the repr of an empty list splits into one empty field, not none
        columns = [np.empty(0), np.array([], dtype=np.float64), []]
        assert _written(["x", "y", "name"], columns, {"t": 0.5}, fmt) == expected

    def test_long_table_goes_out_in_pipe_buf_slices(self):
        columns = [np.arange(2000.0), np.arange(2000) / 7.0]
        rows = [[float(i), i / 7.0] for i in range(2000)]
        out = io.StringIO()
        writes = []
        with mock.patch.object(out, "write", side_effect=writes.append):
            cli.write_table(out, ["x", "y"], columns, {"n": 2000}, "csv")
        assert len(writes) > 1 and max(map(len, writes)) == cli._WRITE_CHUNK
        assert "".join(writes) == _reference_table(["x", "y"], rows, {"n": 2000})
