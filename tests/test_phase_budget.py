"""tools/phase_budget.py on a stub tree: no accelwave run, no child process."""

import importlib.util
import json
import types
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "phase_budget.py"
_spec = importlib.util.spec_from_file_location("phase_budget", _TOOL)
phase_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_budget)

# a stand-in for accelwave.wavefront: one run is a kink (one plan), two
# outputs of three steps each (a plan, a source, a step and a span growth a
# step, and the pending source at each output), and the columns
_WAVEFRONT = '''
class _Plan:
    def __init__(self):
        pass

def _hyperbolic_step(plan):
    pass

class _Stepper:
    @classmethod
    def kink(cls):
        stepper = cls()
        stepper.plan = _Plan()
        return stepper

    def _source(self):
        pass

    def _grow_span(self):
        pass

    def advance_to(self):
        for _ in range(3):
            self.plan = _Plan()
            self._source()
            _hyperbolic_step(self.plan)
            self._grow_span()
        self._source()

class _Record:
    def add(self):
        pass

    def columns(self):
        pass

def simulate():
    stepper, record = _Stepper.kink(), _Record()
    for _ in range(2):
        stepper.advance_to()
        record.add()
    record.columns()
'''


def _stub(without=None):
    wavefront = types.ModuleType("stub_wavefront")
    exec(_WAVEFRONT, wavefront.__dict__)
    if without:
        owner, attr = without
        delattr(wavefront if owner is None else getattr(wavefront, owner), attr)
    runs = types.SimpleNamespace(ops=lambda: [types.SimpleNamespace(run=wavefront.simulate)] * 4)
    made = []
    workloads = types.ModuleType("stub_workloads")
    workloads.make = lambda name, seed, workdir: made.append((name, seed)) or runs
    return wavefront, workloads, made


def test_every_phase_is_counted_per_timed_pass():
    wavefront, workloads, made = _stub()
    report = phase_budget.budget(wavefront, workloads, "fv_oracle", 7, passes=2)
    assert made == [("fv_oracle", 7)]
    assert report["workload"] == "fv_oracle" and report["seed"] == 7 and report["passes"] == 2
    calls = {name: p["calls"] for name, p in report["phases"].items()}
    # four runs a pass; the warm pass is not counted
    assert calls == {"_Stepper.advance_to": 8, "_Stepper._source": 32, "_Plan.__init__": 28,
                     "_hyperbolic_step": 24, "_Stepper._grow_span": 24, "_Record.add": 8,
                     "_Record.columns": 4, "_Stepper.kink": 4}
    for p in report["phases"].values():
        assert 0.0 <= p["self_ms_per_pass"] <= p["ms_per_pass"] <= report["pass_ms"]
        assert 0.0 <= p["self_share"] <= p["share"] <= 1.0
    # a plan built in advance_to counts in advance_to's time, not its self time
    adv = report["phases"]["_Stepper.advance_to"]
    assert adv["self_ms_per_pass"] < adv["ms_per_pass"]


def test_main_writes_the_report(tmp_path, monkeypatch):
    monkeypatch.setattr(phase_budget, "load", lambda tree: _stub()[:2])
    out = tmp_path / "budget.json"
    assert phase_budget.main(["--tree", str(tmp_path), "--workload", "fv_stiff",
                              "--passes", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workload"] == "fv_stiff" and report["seed"] == 1
    assert set(report["phases"]) == {phase_budget.phase_name(*p) for p in phase_budget.PHASES}
    assert all(p["calls"] > 0 for p in report["phases"].values())


@pytest.mark.parametrize("without", [("_Stepper", "_grow_span"), (None, "_hyperbolic_step"),
                                     ("_Record", "columns")])
def test_a_missing_phase_exits_2_naming_it(tmp_path, monkeypatch, capsys, without):
    wavefront, workloads, made = _stub(without)
    monkeypatch.setattr(phase_budget, "load", lambda tree: (wavefront, workloads))
    out = tmp_path / "budget.json"
    assert phase_budget.main(["--tree", str(tmp_path), "--workload", "fv_stiff",
                              "--out", str(out)]) == 2
    assert phase_budget.phase_name(*without) in capsys.readouterr().err
    assert made == [] and not out.exists()
