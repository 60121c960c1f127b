"""Finite-volume cross-check: launch a derivative-jump along the fast
characteristic and track the front-slope amplitude against the closed-form
prediction.

The balance system is solved in conserved variables (rho*v, F, omega*sigma)
with MUSCL-Hancock reconstruction (minmod limiter), a Rusanov interface flux,
and Strang splitting for the relaxation source, which each law's relax()
integrates exactly (solid, Newtonian, plain power law) or by sub-cycled
backward Euler (regularized power law): its cells take Newton steps together
until each passes the step test in the same iteration, and a cell bisects
only when a step leaves its bracket.  The trailing source half-step of one
step and the leading half-step of the next are merged into one relax() call
(the source leaves F, and so the CFL step, unchanged); the pending half-step
is applied before every output, so outputs are synchronized states.
sigma = 0 is a fixed point of every law's source step, so cells at
sigma = +-0 come out of it untouched, sign bit included, and a non-finite
sigma passes through to the finiteness check.  Boundaries are zero-gradient.

The minmod limiter is taken in clip form, min(max(a, min(b, 0)), max(b, 0)),
with the zero rule that it is +0.0 wherever a*b <= 0, also where the product
of two same-signed slopes underflows.  The CFL step and the Rusanov speeds
compare the discriminants om*W'' + 1 before the square root: division by
rho*om > 0 and sqrt are correctly rounded and monotone, so the root of the
largest discriminant is bit for bit the largest speed.  Each step checks the
stretch F > 0 once in each of three state arrays (the cells, for the CFL
step; the cell edges; the predicted interface states), by one reduction that
also rejects NaN; linearized runs take no stretch check.

A source step whose implicit solve does not converge raises SimulationError
naming t and the cell, as does a state that turns non-finite or loses
hyperbolicity; a CFL step that is not finite and positive, or too small to
advance t, raises instead of stalling.  Front measurements that fail are
recorded as NaN and logged at debug level on the ``accelwave`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .amplitude import closed_form
from .characteristics import (
    DegenerateWaveError,
    coefficients_ab,
    eigensystem,
    equilibrium_state,
)
from .materials import (
    MaterialModel,
    RelaxationError,
    _require_stretch,
    elastic_derivs,
    production,
    viscous_omega,
)

__all__ = [
    "Grid",
    "KinkIC",
    "Snapshot",
    "FrontTrace",
    "SimResult",
    "EnergyReport",
    "SimulationError",
    "simulate",
    "measure_front_slope",
    "detect_front_position",
    "entropy_monitor",
]

_NG = 2  # ghost cells per side

_log = logging.getLogger("accelwave")

STEEPENING_FACTOR = 10.0  # max|v_X| above this multiple of its t=0 value flags steepening


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_cells: int
    cfl: float

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_cells < 16:
            raise ValueError(f"n_cells must be >= 16, got {self.n_cells}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class KinkIC:
    """Derivative-jump initial data for the fast family.

    Ahead of x_front the state is the equilibrium (0, 1, 0).  Behind, the
    state ramps linearly over ramp_width with spatial derivative pi0 * d0
    (d0 the fast right eigenvector at equilibrium), then returns linearly to
    equilibrium over another ramp_width so the far field is quiescent and the
    boundaries stay flux-free.
    """

    x_front: float
    pi0: float
    ramp_width: float

    def __post_init__(self):
        if self.ramp_width <= 0.0:
            raise ValueError("ramp_width must be > 0")


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    v: np.ndarray
    F: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class FrontTrace:
    """Per-output samples of the measured and predicted front amplitude."""

    t: np.ndarray
    measured_pi: np.ndarray
    predicted_pi: np.ndarray
    front_x: np.ndarray               # detected kink position (asymptote crossing)
    energy: np.ndarray                # discrete total energy over the domain
    max_sigma_production: np.ndarray  # cellwise max of sigma*P (dissipation check)
    steepening_time: float | None
    lambda0: float
    a: float                          # effective coefficients behind predicted_pi
    b: float


@dataclass(frozen=True)
class SimResult:
    trace: FrontTrace
    final: Snapshot


@dataclass(frozen=True)
class EnergyReport:
    total_energy: float
    max_sigma_production: float


# ---------------------------------------------------------------------------
# Model-dependent closures
# ---------------------------------------------------------------------------

def _flux_functions(model: MaterialModel, linearize: bool):
    """Return (T(F), W2(F), W(F)) vectorized callables, honoring linearization;
    otherwise the elastic part's own functions.  None of them checks the
    stretch: the callers check each state array once (:func:`_check_stretch`)."""
    if not linearize:
        el = model.elastic
        return (lambda F: el.T(F, model), lambda F: el.W2(F, model),
                lambda F: el.W(F, model))
    d0 = elastic_derivs(model, 1.0)
    T1, W2_1 = float(d0.W1), float(d0.W2)

    def T(F):
        return T1 + W2_1 * (F - 1.0)

    def W2(F):
        return W2_1 + 0.0 * F

    def W(F):
        e = F - 1.0
        return T1 * e + 0.5 * W2_1 * e * e

    return T, W2, W


def _check_stretch(F: np.ndarray) -> None:
    # one reduction; a NaN stretch fails it too
    if not F.min() > 0.0:
        _require_stretch(F)


def _interior(i: int, n_cells: int) -> int:
    """Interior cell of ghost-padded index i (a ghost names its neighbour)."""
    return min(max(i - _NG, 0), n_cells - 1)


def _discriminant(F: np.ndarray, om: float, W2_fn, check_stretch: bool,
                  n_cells: int) -> np.ndarray:
    """om*W''(F) + 1, the squared wave speed times rho*om, after the stretch
    check (with check_stretch).  F is the ghost-padded row of cells, or the
    (left, right) state rows of the interfaces, where interface j takes its
    left state from padded cell j + 1 and its right state from j + 2.  Where
    it is not > 0, raises SimulationError naming the first failing cell of
    the first failing row."""
    if check_stretch:
        _check_stretch(F)
    disc = om * W2_fn(F) + 1.0
    if not disc.min() > 0.0:
        bad = np.argwhere(~(disc > 0.0))[0]
        i = int(bad[0]) if disc.ndim == 1 else int(bad[1] + bad[0]) + 1
        raise SimulationError(f"hyperbolicity lost at cell {_interior(i, n_cells)}")
    return disc


# ---------------------------------------------------------------------------
# Hyperbolic step: MUSCL-Hancock + Rusanov
# ---------------------------------------------------------------------------

def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """minmod in clip form, min(max(a, min(b, 0)), max(b, 0)), with the zero
    rule: +0.0 wherever a*b <= 0.  The rule covers the -0.0 the clip form
    gives for some mixes of zeros and signs, and same-signed slopes whose
    product underflows to 0, which the clip form alone would keep."""
    out = np.minimum(b, 0.0)
    np.maximum(a, out, out=out)
    np.minimum(out, np.maximum(b, 0.0), out=out)
    np.copyto(out, 0.0, where=a * b <= 0.0)
    return out


def _edge_flux(e: np.ndarray, rho: float, om: float, T_fn):
    """Rows of the edge states e = (rho*v, F, omega*sigma), shape (3, 2, M):
    T(F) + sigma, and v.  The flux is their negative: the momentum row
    -(T + sigma), and -v, which the F and omega*sigma rows share."""
    f_mom = T_fn(e[1])
    f_mom += e[2] / om
    return f_mom, e[0] / rho


def _hyperbolic_step(q: np.ndarray, dt: float, dx: float, rho: float, om: float,
                     T_fn, W2_fn, check_stretch: bool) -> None:
    """One conservative MUSCL-Hancock update of q = (rho*v, F, omega*sigma),
    in place.

    Edge states are held as (3, 2, M) pairs, so T and the wave speeds are
    evaluated once per pair: the (left, right) edges of each cell for the
    predictor, then the (left, right) states of each interface for the
    Rusanov flux.  With check_stretch, the F row of each pair is checked
    once (the caller checks the cells).  The Rusanov speed is
    0.5*sqrt(max(d_L, d_R)/(rho*om)) of the discriminants d = om*W'' + 1,
    bit for bit the larger of the two speeds: correctly rounded division by
    a positive constant and sqrt are both monotone.
    """
    # limited slopes on cells 1 .. NT-2
    d = q[:, 1:] - q[:, :-1]
    half = _minmod(d[:, :-1], d[:, 1:])
    half *= 0.5
    qc = q[:, 1:-1]
    e = np.empty((3, 2, qc.shape[1]))
    np.subtract(qc, half, out=e[:, 0])
    np.add(qc, half, out=e[:, 1])
    # half-step predictor from the rows g = -flux: c*(f_L - f_R) = c*(g_R - g_L)
    # exactly; the shift of the F and omega*sigma rows is the same
    if check_stretch:
        _check_stretch(e[1])
    g_mom, g_v = _edge_flux(e, rho, om, T_fn)
    c = 0.5 * dt / dx
    sh_mom = c * (g_mom[1] - g_mom[0])
    sh_v = c * (g_v[1] - g_v[0])
    # interface states: right edge of cell i vs left edge of cell i+1
    p = np.empty((3, 2, qc.shape[1] - 1))
    np.add(e[0, 1, :-1], sh_mom[:-1], out=p[0, 0])
    np.add(e[1:, 1, :-1], sh_v[:-1], out=p[1:, 0])
    np.add(e[0, 0, 1:], sh_mom[1:], out=p[0, 1])
    np.add(e[1:, 0, 1:], sh_v[1:], out=p[1:, 1])
    disc = _discriminant(p[1], om, W2_fn, check_stretch, q.shape[1] - 2 * _NG)
    half_s = np.maximum(disc[0], disc[1])
    half_s /= rho * om
    np.sqrt(half_s, out=half_s)
    half_s *= 0.5
    # the interface flux in negated form: folding the negation into the
    # difference below would flip the sign of some zeros of du
    f_mom, f_v = _edge_flux(p, rho, om, T_fn)
    np.negative(f_mom, out=f_mom)
    np.negative(f_v, out=f_v)
    jump = p[:, 1] - p[:, 0]
    jump *= half_s
    f_iface = np.empty_like(jump)
    np.add(f_mom[0], f_mom[1], out=f_iface[0])
    np.add(f_v[0], f_v[1], out=f_iface[1])
    f_iface[:2] *= 0.5
    f_iface[2] = f_iface[1]
    f_iface -= jump
    du = f_iface[:, 1:] - f_iface[:, :-1]
    du *= dt / dx
    q[:, _NG:-_NG] -= du


def _fill_ghosts(q: np.ndarray) -> None:
    q[:, 0] = q[:, _NG]
    q[:, 1] = q[:, _NG]
    q[:, -1] = q[:, -_NG - 1]
    q[:, -2] = q[:, -_NG - 1]


# ---------------------------------------------------------------------------
# Front measurement
# ---------------------------------------------------------------------------

def _front_windows(snapshot: Snapshot, front_x: float, half_width: int, gap: int):
    x = snapshot.x
    dx = x[1] - x[0]
    i_f = int(math.floor((front_x - (x[0] - 0.5 * dx)) / dx))
    lo_b = i_f - gap - half_width
    hi_b = i_f - gap
    lo_a = i_f + 1 + gap
    hi_a = i_f + 1 + gap + half_width
    if lo_b < 0 or hi_a > x.size:
        raise SimulationError(
            f"front at x={front_x:.6g} too close to the boundary for a "
            f"{half_width}-cell stencil with gap {gap}")
    return slice(lo_b, hi_b), slice(lo_a, hi_a)


def _side_slopes(snapshot: Snapshot, front_x: float, half_width: int, gap: int,
                 degree: int):
    """One-sided fits of v; returns (slope, value) of each side at front_x."""
    behind, ahead = _front_windows(snapshot, front_x, half_width, gap)
    x, v = snapshot.x, snapshot.v
    out = []
    for sl in (behind, ahead):
        deg = min(degree, len(x[sl]) - 1)
        coef = np.polyfit(x[sl] - front_x, v[sl], deg)
        out.append((float(np.polyval(np.polyder(coef), 0.0)),
                    float(np.polyval(coef, 0.0))))
    return out


def measure_front_slope(model: MaterialModel, snapshot: Snapshot, front_x: float,
                        stencil_half_width: int = 4, gap: int = 2,
                        degree: int = 1) -> float:
    """Front amplitude -lambda0*(slope_behind - slope_ahead) at front_x.

    One-sided polynomial fits of v on each side, skipping gap cells around
    the numerically smeared kink.  degree=1 averages the slope over each
    window (exact on piecewise-linear data); degree=2 extrapolates the
    derivative to the front itself, which removes the window-offset bias of
    curved profiles and is what the simulation driver uses.
    """
    (sb, _), (sa, _) = _side_slopes(snapshot, front_x, stencil_half_width, gap, degree)
    lam0 = eigensystem(model, equilibrium_state()).lam
    return -lam0 * (sb - sa)


def detect_front_position(snapshot: Snapshot, front_x_guess: float,
                          stencil_half_width: int = 4, gap: int = 2,
                          degree: int = 2) -> float:
    """Kink location from the crossing of the one-sided fit extrapolations,
    linearized about the guess.

    Falls back to the guess when the side slopes are indistinguishable
    (vanished amplitude).
    """
    (sb, cb), (sa, ca) = _side_slopes(snapshot, front_x_guess,
                                      stencil_half_width, gap, degree)
    if abs(sb - sa) <= 1e-14 * (abs(sb) + abs(sa) + 1e-300):
        return front_x_guess
    return front_x_guess + (ca - cb) / (sb - sa)


def _auto_gap(lam0: float, t: float, dx: float) -> int:
    # A second-order scheme smears the kink over ~ (lam0 * dx^2 * t)^(1/3)
    # plus a few cells of limiter bump; keep the fit windows clear of it
    # (in cells the zone grows like (lam0*t/dx)^(1/3)).
    if t <= 0.0:
        return 2
    return max(2, int(math.ceil(1.4 * (lam0 * t / dx) ** (1.0 / 3.0))))


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------

def entropy_monitor(model: MaterialModel, snapshot: Snapshot, *,
                    linearize: bool = False, with_source: bool = True) -> EnergyReport:
    """Discrete total energy and the cellwise dissipation sign check.

    total_energy = sum(rho*v^2/2 + W(F) + omega*sigma^2/2) * dx;
    max_sigma_production is max over cells of sigma*P(F, sigma) (<= 0 for
    every admissible model; reported as 0 when the source is disabled).
    """
    _, _, W_fn = _flux_functions(model, linearize)
    if not linearize:
        _require_stretch(snapshot.F)
    om = viscous_omega(model)
    dx = snapshot.x[1] - snapshot.x[0]
    dens = 0.5 * model.rho_star * snapshot.v ** 2 + W_fn(snapshot.F) \
        + 0.5 * om * snapshot.sigma ** 2
    total = float(np.sum(dens) * dx)
    if with_source:
        sp = snapshot.sigma * production(model, snapshot.F, snapshot.sigma)
        max_sp = float(np.max(sp))
    else:
        max_sp = 0.0
    return EnergyReport(total_energy=total, max_sigma_production=max_sp)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _initial_profile(model: MaterialModel, grid: Grid, ic: KinkIC,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eig = eigensystem(model, equilibrium_state())
    d0 = eig.d_plus
    w = wb = ic.ramp_width
    if ic.x_front - w - wb < grid.x_min or not grid.x_min < ic.x_front < grid.x_max:
        raise ValueError("kink profile does not fit inside the domain")
    s = x - ic.x_front
    # piecewise: equilibrium ahead; mandated ramp pi0*d0*s on [-w, 0];
    # linear return to equilibrium on [-w-wb, -w]
    ramp = np.clip(s, -w, 0.0)
    back = np.clip((s + w + wb) / wb, 0.0, 1.0)
    amp = np.where(s >= -w, ramp, -w * back)
    v = ic.pi0 * d0[0] * amp
    F = 1.0 + ic.pi0 * d0[1] * amp
    sig = ic.pi0 * d0[2] * amp
    if np.any(F <= 0.0):
        raise ValueError("initial amplitude drives the deformation gradient non-positive")
    return v, F, sig


def simulate(model: MaterialModel, grid: Grid, ic: KinkIC, t_end: float, *,
             output_every: float | None = None, stencil_half_width: int = 16,
             linearize: bool = False, with_source: bool = True,
             initial_fields: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
             ) -> SimResult:
    """Run the wavefront experiment and sample the front amplitude.

    The predicted amplitude uses the effective coefficients of the run:
    a = 0 under linearization, b = 0 with the source disabled.  Output
    samples land exactly on multiples of output_every (default t_end/50).
    initial_fields overrides the kink profile with caller-supplied (v, F,
    sigma) cell values (diagnostics hook; ic still anchors the front
    tracking).
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be > 0")
    out_dt = t_end / 50.0 if output_every is None else float(output_every)
    if out_dt <= 0.0:
        raise ValueError("output_every must be > 0")

    rho = model.rho_star
    om = viscous_omega(model)
    T_fn, W2_fn, _ = _flux_functions(model, linearize)
    check_stretch = not linearize
    n_cells = grid.n_cells

    lam0 = eigensystem(model, equilibrium_state()).lam

    # effective amplitude coefficients for the prediction column
    a_eff = 0.0
    b_eff = 0.0
    if not linearize or with_source:
        try:
            wc = coefficients_ab(model)
        except DegenerateWaveError:
            wc = None
        if not linearize and wc is not None:
            a_eff = wc.a
        if with_source and wc is not None:
            b_eff = wc.b

    def predict(t: float) -> float:
        if math.isinf(b_eff):
            return ic.pi0 if t == 0.0 else 0.0
        if a_eff == 0.0:
            return ic.pi0 * math.exp(-b_eff * t)
        try:
            return closed_form(a_eff, b_eff, ic.pi0, t)
        except ValueError:
            return math.nan

    dx = grid.dx
    x_all = grid.x_min + (np.arange(grid.n_cells + 2 * _NG) - _NG + 0.5) * dx
    x_int = x_all[_NG:-_NG]
    if initial_fields is None:
        v, F, sig = _initial_profile(model, grid, ic, x_all)
    else:
        v0, F0, s0 = (np.asarray(f, dtype=float) for f in initial_fields)
        if v0.shape != x_int.shape or F0.shape != x_int.shape or s0.shape != x_int.shape:
            raise ValueError("initial_fields must match the grid cell count")
        v = np.concatenate([v0[:1].repeat(_NG), v0, v0[-1:].repeat(_NG)])
        F = np.concatenate([F0[:1].repeat(_NG), F0, F0[-1:].repeat(_NG)])
        sig = np.concatenate([s0[:1].repeat(_NG), s0, s0[-1:].repeat(_NG)])

    q = np.stack([rho * v, F, om * sig])
    _fill_ghosts(q)

    def snapshot(t: float) -> Snapshot:
        return Snapshot(t=t, x=x_int.copy(), v=(q[0, _NG:-_NG] / rho).copy(),
                        F=q[1, _NG:-_NG].copy(), sigma=(q[2, _NG:-_NG] / om).copy())

    def vx_max() -> float:
        vv = q[0, _NG:-_NG] / rho
        return float(np.max(np.abs(np.diff(vv)))) / dx

    ts, measured, predicted, fronts, energies, max_sps = [], [], [], [], [], []
    steepening_time = None
    vx0 = max(vx_max(), 1e-300)

    def record(t: float) -> None:
        nonlocal steepening_time
        snap = snapshot(t)
        gap = _auto_gap(lam0, t, dx)
        fx = ic.x_front + lam0 * t
        try:
            pi_m = measure_front_slope(model, snap, fx, stencil_half_width, gap,
                                       degree=2)
            fd = detect_front_position(snap, fx, stencil_half_width, gap)
        except SimulationError as exc:
            _log.debug("front measurement failed at t=%.6g: %s", t, exc)
            pi_m, fd = math.nan, math.nan
        rep = entropy_monitor(model, snap, linearize=linearize, with_source=with_source)
        if steepening_time is None and vx_max() > STEEPENING_FACTOR * vx0:
            steepening_time = t
        ts.append(t)
        measured.append(pi_m)
        predicted.append(predict(t))
        fronts.append(fd)
        energies.append(rep.total_energy)
        max_sps.append(rep.max_sigma_production)

    def source(h: float) -> None:
        try:
            q[2] = om * model.production.relax(q[1], q[2] / om, h, model)
        except RelaxationError as exc:
            raise SimulationError(f"source step failed at t={t:.6g}, cell "
                                  f"{_interior(exc.cell, n_cells)}: {exc}") from exc

    record(0.0)
    t = 0.0
    n_steps = 0
    pending = 0.0  # trailing source half-step not yet applied
    n_out = int(math.ceil(t_end / out_dt - 1e-12))
    for k in range(1, n_out + 1):
        target = min(k * out_dt, t_end)
        while t < target - 1e-14 * t_end:
            # CFL step from the largest discriminant: one scalar sqrt (exact,
            # as sqrt and division by rho*om > 0 are monotone)
            disc = _discriminant(q[1], om, W2_fn, check_stretch, n_cells)
            dt = min(grid.cfl * dx / math.sqrt(float(disc.max()) / (rho * om)),
                     target - t)
            if not (math.isfinite(dt) and dt > 0.0) or t + dt == t:
                # the first largest speed, not discriminant: rounding can
                # make distinct discriminants give equal speeds
                i_cfl = int(np.argmax(np.sqrt(disc / (rho * om))))
                raise SimulationError(
                    f"time step dt={dt:.6g} does not advance t={t:.6g} after "
                    f"{n_steps} steps (CFL limited by cell "
                    f"{_interior(i_cfl, n_cells)})")
            if with_source:
                # the last step's trailing half-step merged with this one's
                # leading half-step: relax leaves F, and so dt, unchanged
                source(pending + 0.5 * dt)
                pending = 0.5 * dt
            _hyperbolic_step(q, dt, dx, rho, om, T_fn, W2_fn, check_stretch)
            _fill_ghosts(q)
            t += dt
            n_steps += 1
            # the sum is finite unless some entry is (or the sum overflows)
            if not math.isfinite(q.sum()):
                bad = np.argwhere(~np.isfinite(q))
                if bad.size:
                    raise SimulationError(f"non-finite state at t={t:.6g}, "
                                          f"cell {_interior(int(bad[0][1]), n_cells)}")
        if pending:
            source(pending)
            pending = 0.0
        t = target
        record(t)

    trace = FrontTrace(
        t=np.array(ts), measured_pi=np.array(measured),
        predicted_pi=np.array(predicted), front_x=np.array(fronts),
        energy=np.array(energies), max_sigma_production=np.array(max_sps),
        steepening_time=steepening_time, lambda0=lam0, a=a_eff, b=b_eff,
    )
    return SimResult(trace=trace, final=snapshot(t_end))
