"""Amplitude evolution of the front jump: pi' = -a*pi^2 - b*pi.

Closed-form solution, blow-up classification and critical time, a fixed-grid
RK4 companion with step refinement near blow-up, and the scan of the singular
damping limit b(eps) = b0/eps**n.
"""

from __future__ import annotations

import math
import sys
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
GROWTH_LIMIT = 10.0           # halve the step when |pi| grows by more than this
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
    s = 1.0 if a < 0.0 else -1.0   # s*pi0 is the amplitude in the canonical frame
    p0 = s * pi0
    if b > 0.0:
        pi_cr = b / abs(a)
        if p0 <= pi_cr:   # pi0 = pi_cr rides the unstable constant solution
            return AmplitudeOutcome(global_existence=True, t_c=None, pi_cr=pi_cr)
        t_c = -math.log1p(-pi_cr / p0) / b
        return AmplitudeOutcome(global_existence=False, t_c=t_c, pi_cr=pi_cr)
    # b = 0: every amplitude on the blow-up side has a critical time, which
    # overflows to inf where a*pi0 underflows to zero
    if p0 > 0.0:
        rate = a * pi0
        return AmplitudeOutcome(global_existence=False,
                                t_c=-1.0 / rate if rate else math.inf, pi_cr=0.0)
    return AmplitudeOutcome(global_existence=True, t_c=None, pi_cr=0.0)


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
    """RK4 on the output grid 0, dt, 2*dt, ..., t_end with internal refinement.

    A trial step whose amplitude grows more than GROWTH_LIMIT-fold (or goes
    non-finite) is retried at half the step; blow-up is declared once
    |pi| > BLOWUP_FACTOR * max(1, |pi0|) or |pi| reaches the largest float
    (a trajectory pinned there would creep on in steps of about 1e-15), and
    the trajectory is truncated there.  Coefficient a may be zero here
    (plain linear decay).  The first RK4 stage and the growth limit
    GROWTH_LIMIT * max(|pi|, 1e-300) depend only on the accepted amplitude,
    so each is computed once per accepted step, not once per halving.

    For |pi0| >= 1 the steps run on p = pi/s, where the power of two s
    takes pi0's exponent, and p' = -(a*s)*p**2 - b*p, so that a*pi**2 need
    not be finite: a*pi0**2 overflows from |pi0| of about 1e154/sqrt(|a|)
    on.  Scaling by a power of two is exact, so every operation rounds as
    on pi wherever nothing overflows or underflows.

    Raises ValueError for a non-finite pi0, t_end or dt, for t_end or dt <= 0,
    for an infinite b, and for a grid of more than MAX_POINTS steps.  Raises
    ArithmeticError, never reporting a blow-up, for a pi0 on the decay side
    (-a*pi0 <= b, global existence) whose step still fails the growth limit
    at the floor h_min = dt*2**-60 (at least the least positive float), or
    whose RK4 steps overshoot into a blow-up.
    """
    if not (math.isfinite(pi0) and 0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ValueError("pi0, t_end and dt must be finite, and t_end and dt > 0")
    if math.isinf(b):
        raise ValueError("integrate needs a finite b")
    n_out = int(math.ceil(t_end / dt - 1e-12))
    if n_out > MAX_POINTS:
        raise ValueError(f"t_end/dt asks for {n_out + 1} output points, over {MAX_POINTS + 1}")
    scale = math.ldexp(1.0, max(math.frexp(pi0)[1] - 1, 0))
    threshold = BLOWUP_FACTOR * (max(1.0, abs(pi0)) / scale)
    h_min = max(dt * 2.0 ** -60, math.ulp(0.0))   # never a zero-length step
    ts, ps = [0.0], [pi0]
    t, p, t_blowup = 0.0, pi0 / scale, None
    na = -a * scale
    grows = na * p > b    # |pi| grows iff -a*pi > b, and then blows up
    ap = abs(p)
    fmax = sys.float_info.max / scale   # |p| <= fmax iff pi is finite
    tiny = 1e-300 / scale
    for k in range(1, n_out + 1):
        target = t_end if t_end < k * dt else k * dt
        while t < target:
            k1 = na * p * p - b * p
            limit = GROWTH_LIMIT * (ap if ap > tiny else tiny)
            if limit > fmax:
                limit = fmax
            h = target - t
            while True:
                x = p + 0.5 * h * k1
                k2 = na * x * x - b * x
                x = p + 0.5 * h * k2
                k3 = na * x * x - b * x
                x = p + h * k3
                k4 = na * x * x - b * x
                trial = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if abs(trial) <= limit:
                    break
                if h <= h_min:
                    if not grows:
                        rate = abs(na * p - b)
                        raise ArithmeticError(
                            f"RK4 cannot resolve the decay at t = {t!r}: its rate "
                            f"|a*pi + b| = {rate!r} 1/s times the step floor "
                            f"h_min = {h_min!r} s is {rate * h_min:.3g}")
                    break
                h *= 0.5
            t, p = t + h, trial
            ap = abs(p)
            if ap > threshold or not ap < fmax:
                if not grows:
                    raise ArithmeticError(
                        f"RK4 overshoot: pi0 = {pi0!r} lies on the global-existence "
                        f"branch, yet the RK4 amplitude reached {p * scale!r} at "
                        f"t = {t!r}; take a smaller dt")
                t_blowup = t
                break
        if t_blowup is not None:
            break
        ts.append(t)
        ps.append(p * scale)
    return Trajectory(t=np.array(ts), pi=np.array(ps),
                      blew_up=t_blowup is not None, t_blowup=t_blowup)


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
