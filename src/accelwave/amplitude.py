"""Amplitude evolution of the front jump: pi' = -a*pi^2 - b*pi.

Closed-form solution, blow-up classification and critical time, a
sign-preserving RK4 companion on log|pi| with step refinement near blow-up,
and the scan of the singular damping limit b(eps) = b0/eps**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AmplitudeOutcome",
    "Trajectory",
    "ScanRow",
    "classify",
    "closed_form",
    "integrate",
    "singular_limit_scan",
]

BLOWUP_FACTOR = 1e12          # |pi| > BLOWUP_FACTOR*max(1, |pi0|) declares blow-up
GROWTH_LIMIT = 10.0           # halve the step when |pi| changes more than this-fold
MAX_POINTS = 10 ** 6          # ceiling on the output grid of one integrate call


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
    if a == 0.0:
        raise ValueError("a must be nonzero (genuinely nonlinear field)")
    if b < 0.0:
        raise ValueError(f"damping coefficient b must be >= 0, got {b}")


def classify(a: float, b: float, pi0: float) -> AmplitudeOutcome:
    """Global existence vs finite-time blow-up, with the critical time.

    The convention a < 0 makes positive super-critical amplitudes blow up;
    a > 0 is handled by the mirror symmetry pi -> -pi.  Raises ValueError for
    a = 0, b < 0 or a non-finite pi0.
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
    t_c = -math.log1p(-pi_cr / p0) / b if b else (1.0 / rate if rate else math.inf)
    if t_c == 0.0:   # |a|*pi0 overflowed, or pi_cr/pi0 underflowed: the b -> 0 limit
        t_c = (1.0 / abs(a)) / p0
    return AmplitudeOutcome(global_existence=False, t_c=t_c, pi_cr=pi_cr)


def closed_form(a: float, b: float, pi0: float, t):
    """Exact solution pi(t); accepts scalar or array t.

    Raises for evaluation at or beyond the critical time of a blow-up
    solution.  b = 0 uses the algebraic branch pi0/(1 + a*pi0*t); the general
    branch is continuous in b down to 0 (expm1 keeps it accurate).
    """
    outcome = classify(a, b, pi0)
    if math.isinf(b):
        raise ValueError("closed_form needs a finite b; evaluate at finite eps instead")
    t = np.asarray(t, dtype=float)
    if not outcome.global_existence and np.any(t >= outcome.t_c):
        raise ValueError(f"solution blows up at t_c = {outcome.t_c:.6g}; "
                         "closed_form evaluated at t >= t_c")
    if b == 0.0:
        out = pi0 / (1.0 + a * pi0 * t)
    else:
        growth = -np.expm1(-b * t)    # 1 - exp(-b t), accurate for small b*t
        c = (a / b) * pi0
        if math.isfinite(c):
            out = pi0 * np.exp(-b * t) / (1.0 + c * growth)
        else:
            # c*growth would be inf*0 at t = 0: divide numerator and
            # denominator by the power of two s that takes pi0's exponent
            s = math.ldexp(1.0, math.frexp(pi0)[1] - 1)
            p0 = pi0 / s
            out = p0 * np.exp(-b * t) / (1.0 / s + (a / b) * p0 * growth)
    return float(out) if out.ndim == 0 else out


def integrate(a: float, b: float, pi0: float, t_end: float, dt: float) -> Trajectory:
    """Sign-preserving RK4 on log|pi| on the output grid 0, dt, 2*dt, ..., t_end.

    pi = 0 is an equilibrium, so pi keeps pi0's sign: the steps run on
    z = log(pi/pi0), z' = -a*pi0*exp(z) - b, with both rates divided by
    r = max(|a*pi0|, b) and each stage formed as an increment (h*r)*k_i, and
    the output is pi0*exp(z).  A trial that changes z by more than
    log(GROWTH_LIMIT) or leaves the float range is retried at half the step.
    Blow-up is declared, and the trajectory truncated, once |pi| >
    BLOWUP_FACTOR * max(1, |pi0|), or where a trial still fails at the step
    floor h_min = dt*2**-60 (at least the least positive float).  On the decay
    side (-a*pi0 <= b, global existence) every stage lowers z.

    Raises ValueError for a non-finite pi0, t_end or dt, for t_end or dt <= 0,
    for an infinite b, or for more than MAX_POINTS steps, and ArithmeticError,
    never reporting a blow-up, where a decay-side step fails at the floor.
    """
    if not (math.isfinite(pi0) and 0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ValueError("pi0, t_end and dt must be finite, and t_end and dt > 0")
    if math.isinf(b):
        raise ValueError("integrate needs a finite b")
    ratio = t_end / dt - 1e-12     # compared before the ceil: it may be inf
    if ratio > MAX_POINTS:
        raise ValueError(f"t_end/dt asks for {np.ceil(ratio) + 1:.0f} output points, "
                         f"over {MAX_POINTS + 1}")
    na = -a * pi0
    r = max(abs(na), b) or 1.0     # pi' = 0 when a*pi0 and b are 0
    c = na / r if r < math.inf else math.copysign(1.0, na)   # a*pi0 overflows
    beta = b / r    # |pi| grows iff c > beta, and then blows up
    z_max = math.log(BLOWUP_FACTOR) - math.log(min(abs(pi0), 1.0)) if pi0 else math.inf
    dz_max, h_min = math.log(GROWTH_LIMIT), max(dt * 2.0 ** -60, math.ulp(0.0))
    exp = math.exp
    ts, ps = [0.0], [pi0]
    t, z, e, p = 0.0, 0.0, 1.0, pi0
    for target in np.minimum(np.arange(1, math.ceil(ratio) + 1) * dt, t_end).tolist():
        while t < target:
            h = target - t
            ce = c * e
            k1 = ce - beta
            while True:
                hr = h * r
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
                        rate = abs(r * k1)
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


@dataclass(frozen=True)
class ScanRow:
    eps: float
    b: float
    pi_cr: float
    decay_time: float          # 1/b, the fast damping scale
    global_existence: bool
    t_c: float | None


def singular_limit_scan(b0: float, n: float, eps_list, a: float, pi0: float) -> list[ScanRow]:
    """Table of b(eps) = b0/eps**n, pi_cr(eps) and decay time over eps_list.

    pi_cr decreases and the decay time grows as eps increases; each row also
    classifies the given initial jump pi0 at that eps.
    """
    if b0 <= 0.0 or n <= 0.0:
        raise ValueError("b0 and n must be > 0")
    _check_ab(a, b0)
    rows = []
    for eps in eps_list:
        if eps <= 0.0:
            raise ValueError(f"eps values must be > 0, got {eps}")
        b = b0 / eps ** n
        outcome = classify(a, b, pi0)
        rows.append(ScanRow(eps=float(eps), b=b, pi_cr=b / abs(a),
                            decay_time=1.0 / b,
                            global_existence=outcome.global_existence,
                            t_c=outcome.t_c))
    return rows
