"""Layer spans recorded from outside the library.

`Tracer.installed()` replaces each named public function of the accelwave
modules by a wrapper that records a span (name, parent span, operation id,
start, end, raised) and restores every original on exit.  A function is
patched in every accelwave namespace that holds it, because callers look it
up there: the stepper's closures call `accelwave.wavefront.elastic_derivs`,
`closed_form` calls `accelwave.amplitude.classify`, and the CLI calls its
own imported names.  Code that wants its calls traced must look the function
up through a module attribute at call time, as the benchmark does.

Spans are kept in memory; `layer_stats` reduces them and `write_spans` dumps
them once the measurement is over.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager

# The layers the per-layer metrics name, as (module, public function).
LAYERS = (
    ("materials", "elastic_derivs"),
    ("materials", "production"),
    ("materials", "production_jacobian"),
    ("wavefront", "simulate"),
    ("wavefront", "measure_front_slope"),
    ("wavefront", "detect_front_position"),
    ("wavefront", "entropy_monitor"),
    ("characteristics", "eigensystem"),
    ("characteristics", "coefficients_ab"),
    ("characteristics", "k_condition"),
    ("amplitude", "closed_form"),
    ("amplitude", "classify"),
    ("amplitude", "integrate"),
    ("config", "load_scenario"),
    ("config", "apply_sweep_value"),
    ("cli", "main"),
    ("cli", "write_table"),
    ("cli", "json_dumps"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)

# span record fields (a list per span, so children can point at their parent)
_NAME, _PARENT, _OP, _T0, _T1, _RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None           # set by the caller before each operation
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_ident = threading.get_ident()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread (the sweep pool): its root span is a child
                # of the span the main thread has open, which submitted it
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [name, parent, tracer.op_id, clock(), 0.0, False]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_T1] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer function in every accelwave namespace; undo on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "accelwave" or key.startswith("accelwave."))]
        patched = []
        try:
            for mod_name, fn_name in LAYERS:
                original = getattr(sys.modules[f"accelwave.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def clear(self) -> None:
        self.spans = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_s (span time not covered by child spans) and
    total_s (inclusive span time)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[_PARENT] is not None:
            children.setdefault(id(s[_PARENT]), []).append((s[_T0], s[_T1]))
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYER_NAMES}
    for s in spans:
        dur = s[_T1] - s[_T0]
        kids = children.get(id(s))
        st = out[s[_NAME]]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - (_covered(kids, s[_T0], s[_T1]) if kids else 0.0)
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span; parents are referenced by line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            parent = index.get(id(s[_PARENT])) if s[_PARENT] is not None else None
            fh.write(json.dumps({"id": i, "name": s[_NAME], "parent": parent,
                                 "op": s[_OP], "t0": s[_T0], "t1": s[_T1],
                                 "raised": s[_RAISED]}) + "\n")
