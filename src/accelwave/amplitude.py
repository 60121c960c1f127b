"""Amplitude evolution of the front jump: pi' = -a*pi^2 - b*pi.

Closed-form solution, blow-up classification and critical time, and a
sign-preserving RK4 companion on log|pi| with step refinement near blow-up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AmplitudeOutcome",
    "Trajectory",
    "classify",
    "closed_form",
    "integrate",
]

BLOWUP_FACTOR = 1e12          # |pi| > BLOWUP_FACTOR*max(1, |pi0|) declares blow-up
GROWTH_LIMIT = 10.0           # halve the step when |pi| changes more than this-fold
MAX_POINTS = 10 ** 6          # ceiling on the steps of an output grid (_output_times)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    pi: np.ndarray
    blew_up: bool
    t_blowup: float | None


@dataclass(frozen=True)
class AmplitudeOutcome:
    global_existence: bool
    t_c: float | None          # present iff global_existence is False
    pi_cr: float               # blow-up threshold (0.0 when b = 0, inf when b = inf)


def _check_ab(a: float, b: float) -> None:
    if not math.isfinite(a) or a == 0.0:
        raise ValueError(f"a must be finite and nonzero (genuinely nonlinear field), got {a}")
    if not b >= 0.0:
        raise ValueError(f"damping coefficient b must be >= 0, got {b}")


def classify(a: float, b: float, pi0: float) -> AmplitudeOutcome:
    """Global existence vs finite-time blow-up, with the critical time.

    The convention a < 0 makes positive super-critical amplitudes blow up;
    a > 0 is handled by the mirror symmetry pi -> -pi.  Raises ValueError for
    a = 0, a non-finite a, b < 0, a NaN b or a non-finite pi0.
    """
    _check_ab(a, b)
    if not math.isfinite(pi0):
        raise ValueError(f"initial amplitude pi0 must be finite, got {pi0}")
    if math.isinf(b):
        return AmplitudeOutcome(global_existence=True, t_c=None, pi_cr=math.inf)
    p0 = pi0 if a < 0.0 else -pi0   # the amplitude in the canonical frame
    pi_cr = b / abs(a)     # 0.0 when b = 0
    if p0 <= pi_cr:   # pi0 = pi_cr rides the unstable constant solution
        return AmplitudeOutcome(global_existence=True, t_c=None, pi_cr=pi_cr)
    rate = abs(a) * p0     # b = 0: t_c = 1/rate, inf where rate underflows
    if not b:
        t_c = 1.0 / rate if rate else math.inf
    elif pi_cr >= sys.float_info.min:
        t_c = -math.log1p(-pi_cr / p0) / b
    else:   # pi_cr is subnormal or 0 and has lost bits: x = pi_cr/p0 from b,
        # and where x < eps, log1p(-x) = -x and t_c = 1/(|a|*p0)
        x = b / p0 / abs(a)
        t_c = -math.log1p(-x) / b if x > sys.float_info.epsilon else (1.0 / abs(a)) / p0
    if t_c == 0.0:   # |a|*pi0 overflowed, or pi_cr/pi0 underflowed: the b -> 0 limit
        t_c = (1.0 / abs(a)) / p0
    return AmplitudeOutcome(global_existence=False, t_c=t_c, pi_cr=pi_cr)


def closed_form(a: float, b: float, pi0: float, t):
    """Exact solution pi(t); accepts scalar or array t.

    Raises for evaluation at or beyond the critical time of a blow-up
    solution.  b = 0 uses the algebraic branch pi0/(1 + a*pi0*t), and so does
    a b so small that a/b overflows, as its b -> 0 limit; the general branch
    is continuous in b down to 0 (expm1 keeps it accurate).  A coefficient
    a*pi0 or (a/b)*pi0 that overflows is taken in a frame scaled by pi0's
    power of two.
    """
    outcome = classify(a, b, pi0)
    if math.isinf(b):
        raise ValueError("closed_form needs a finite b; evaluate at finite eps instead")
    t = np.asarray(t, dtype=float)
    if not outcome.global_existence and np.any(t >= outcome.t_c):
        raise ValueError(f"solution blows up at t_c = {outcome.t_c:.6g}; "
                         "closed_form evaluated at t >= t_c")
    if b == 0.0 or math.isinf(a / b):   # a/b overflows: the b -> 0 limit
        k, decay, growth = a, 1.0, t
    else:
        k, decay, growth = a / b, np.exp(-b * t), -np.expm1(-b * t)
    c = k * pi0
    if math.isfinite(c):
        out = pi0 * decay / (1.0 + c * growth)
    else:
        # c*growth would be inf*0 at t = 0: divide numerator and
        # denominator by the power of two s that takes pi0's exponent, so
        # p0 lies in [1, 2), and by 2s where k*p0 still overflows
        s = math.ldexp(1.0, math.frexp(pi0)[1] - 1)
        p0, inv_s = pi0 / s, 1.0 / s
        if math.isinf(k * p0):
            p0, inv_s = 0.5 * p0, 0.5 * inv_s
        out = p0 * decay / (inv_s + k * p0 * growth)
    return float(out) if out.ndim == 0 else out


def _predicted(a: float, b: float, pi0: float, t: np.ndarray) -> np.ndarray:
    """pi at the times t: closed_form before a blow-up's t_c, NaN from t_c
    on (pi is undefined there), in one closed_form call; pi0*exp(-b*t)
    where a = 0, and pi0 at t = 0, else 0, where b = inf.  Otherwise invalid
    a, b or pi0 raise classify's ValueError."""
    if math.isinf(b):
        return np.where(t == 0.0, pi0, 0.0)
    if a == 0.0:
        return np.array([pi0 * math.exp(-b * s) for s in t.tolist()])
    t_c = classify(a, b, pi0).t_c
    out = np.full(t.size, math.nan)
    live = slice(None) if t_c is None else t < t_c
    out[live] = closed_form(a, b, pi0, t[live])
    return out


def _output_times(t_end: float, step: float, name: str) -> np.ndarray:
    """The output times 0, step, 2*step, ..., t_end of integrate and simulate
    (a point a rounding error short of t_end is dropped).  Raises ValueError
    for a t_end or step (called name) not finite and > 0, or over MAX_POINTS steps."""
    for arg, value in (("t_end", t_end), (name, step)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{arg} must be finite and > 0, got {value!r}")
    if (ratio := t_end / step - 1e-12) > MAX_POINTS:   # before the ceil: it may be inf
        raise ValueError(f"t_end/{name} asks for {np.ceil(ratio) + 1:.0f} output points, "
                         f"over {MAX_POINTS + 1}")
    return np.minimum(np.arange(math.ceil(ratio) + 1) * step, t_end)


def integrate(a: float, b: float, pi0: float, t_end: float, dt: float) -> Trajectory:
    """Sign-preserving RK4 on log|pi| on the output grid 0, dt, 2*dt, ..., t_end.

    pi = 0 is an equilibrium, so pi keeps pi0's sign: the steps run on
    z = log(pi/pi0), z' = -a*pi0*exp(z) - b, with both rates divided by
    r = max(|a*pi0|, b) and each stage formed as an increment (h*r)*k_i
    (h/tau with tau = (1/|a|)/|pi0| where r overflows), and the output is
    pi0*exp(z).  A trial that changes z by more than
    log(GROWTH_LIMIT) or leaves the float range is retried at half the step.
    Blow-up is declared, and the trajectory truncated, once |pi| >
    BLOWUP_FACTOR * max(1, |pi0|), or where a trial still fails at the step
    floor h_min = dt*2**-60 (at least the least positive float).  On the decay
    side (-a*pi0 <= b, global existence) every stage lowers z.

    Raises ValueError for a non-finite pi0, a or b, for b < 0 (a = 0 is
    valid) and where _output_times refuses t_end or dt, and ArithmeticError,
    never reporting a blow-up, where a decay-side step fails at the floor.
    """
    if not math.isfinite(pi0):
        raise ValueError(f"initial amplitude pi0 must be finite, got {pi0}")
    times = _output_times(t_end, dt, "dt")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate needs a finite a and b, got a={a!r}, b={b!r}")
    if b < 0.0:
        raise ValueError(f"damping coefficient b must be >= 0, got {b}")
    na = -a * pi0
    r = max(abs(na), b) or 1.0     # pi' = 0 when a*pi0 and b are 0
    c = na / r if r < math.inf else math.copysign(1.0, na)   # a*pi0 overflows
    # tau = 0: r is finite, or no finite tau exists and h*r = inf
    tau = (1.0 / abs(a)) / abs(pi0) if r == math.inf else 0.0
    beta = b / r    # |pi| grows iff c > beta, and then blows up
    z_max = math.log(BLOWUP_FACTOR) - math.log(min(abs(pi0), 1.0)) if pi0 else math.inf
    dz_max, h_min = math.log(GROWTH_LIMIT), max(dt * 2.0 ** -60, math.ulp(0.0))
    exp = math.exp
    ts, ps = [0.0], [pi0]
    t, z, e, p = 0.0, 0.0, 1.0, pi0
    for target in times[1:].tolist():
        while t < target:
            h = target - t
            ce = c * e
            k1 = ce - beta
            while True:
                hr = h / tau if tau else h * r
                try:
                    d2 = hr * (ce * exp(0.5 * hr * k1) - beta)
                    d3 = hr * (ce * exp(0.5 * d2) - beta)
                    d4 = hr * (ce * exp(d3) - beta)
                    dz = (hr * k1 + 2.0 * (d2 + d3) + d4) / 6.0
                    zn = z + dz
                    e = exp(zn)
                    q = pi0 * e
                    # p = 0 is the equilibrium; a rise of z lost to rounding
                    # fails, or the steps would creep on at the float limit
                    if p == 0.0 or (abs(dz) <= dz_max and (zn > z or dz <= 0.0)
                                    and abs(q) < math.inf):
                        break
                except OverflowError:
                    pass
                if h <= h_min:
                    if c <= beta:
                        rate = abs(k1) / tau if tau else abs(r * k1)
                        raise ArithmeticError(
                            f"RK4 cannot resolve the decay at t = {t!r}: its rate "
                            f"|a*pi + b| = {rate!r} 1/s times the step floor "
                            f"h_min = {h_min!r} s is {rate * h_min:.3g}")
                    zn = q = math.inf   # no step resolves the growth: a blow-up
                    break
                h *= 0.5
            t, z, p = t + h, zn, q
            if z > z_max:
                return Trajectory(t=np.array(ts), pi=np.array(ps), blew_up=True, t_blowup=t)
        ts.append(t)
        ps.append(p)
    return Trajectory(t=np.array(ts), pi=np.array(ps), blew_up=False, t_blowup=None)
