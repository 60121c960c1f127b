"""Finite-volume cross-check: launch a derivative-jump along the fast
characteristic and track the front-slope amplitude against the closed-form
prediction.

The balance system is solved in conserved variables (rho*v, F, omega*sigma)
with MUSCL-Hancock reconstruction (minmod limiter), a Rusanov interface flux,
and Strang splitting for the relaxation source, which each law's relax()
integrates exactly (solid, Newtonian, plain power law) or by sub-cycled
explicit exponential midpoint steps (regularized power law), which keep the
sign of sigma and never grow |sigma|.  The trailing source half-step of one
step and the leading half-step of the next are merged into one relax() call
(the source leaves F, and so the CFL step, unchanged).  simulate advances a
private stepper, which owns the state, its span and window plan, t and the
pending half-step, to each output time, where the pending half-step is
applied; its record then reads a snapshot of that synchronized state (front
fits, energy audit, max|v_X|) and never writes the state.
sigma = 0 is a fixed point of every law's source step, so cells at
sigma = +-0 come out of it untouched, sign bit included, and a non-finite
sigma passes through to the finiteness check.  Boundaries are zero-gradient.

The minmod limiter is taken in clip form, min(max(a, min(b, 0)), max(b, 0)),
with the zero rule that it is +0.0 wherever a*b <= 0, also where the product
of two same-signed slopes underflows.  The CFL step and the Rusanov speeds
reduce W'' first and then scale: the largest discriminant om*W'' + 1 of the
cells is om*max(W'') + 1, and that of an interface om*max(W''_L, W''_R) + 1,
as x -> fl(fl(om*x) + 1) is monotone for om > 0; division by rho*om > 0 and
sqrt are correctly rounded and monotone too, so the root of the largest
discriminant is bit for bit the largest speed.  The discriminants are checked
> 0 by om*min(W'') + 1 in the same way.  Each step checks the stretch F > 0
once on the cells (for the CFL step) and once on the predicted interface
states, by one reduction that also rejects NaN.  The cell edges need none: a
minmod-limited edge lies between its cell and the mean with a neighbour, so
positive cells give positive edges.  A linear or non-relaxing
run is a choice of material, not of solver: QuadraticCubic(R=0) has a = 0,
and a solid with tau0 = inf has b = 0.

A step advances only the span between two tails of cells equal bit for bit
to their boundary state (finite, F > 0, sigma = +-0, as ahead of a kink and
behind its ramp), and two cells on each side.  The tails stay constant: by
the zero rule a cell whose 5-cell stencil is constant gets an update of
exactly +0, and sigma = +-0 is a fixed point of every relax.  The CFL step,
the source and the finiteness check see the same window, which holds cells
of both tails, and the first step the whole row, so a failing tail state is
named as before.  The window is rounded out to multiples of _CHUNK padded
cells, clipped to the row, and its views of q and of per-run scratch are
built only when the rounded window changes (it grows by at most two cells
a side a step).  Rounding changes no bit: the extra cells are tail cells,
whose update is +0 and whose sigma relax keeps, and the window already
holds their states, so the largest CFL discriminant and the regularized
law's sub-cycle count (from the largest F) stay the same.

A step allocates no array of the window's size: the CFL row's W'', the
source's sigma and every array of the hyperbolic step are views of work
buffers allocated once per run, and the laws write T, W'' and the exact
relax into them (see :mod:`accelwave.materials`; the power laws' relax still
makes its own temporaries).  numpy itself buffers an
operation on (3, M) views whose rows it cannot join into one (up to 64 KB a
call), so the differences of shifted views are taken row by row, and the
limiter and the flux difference run on their rows laid end to end.

A state that turns non-finite or loses hyperbolicity raises SimulationError
naming the cell; a CFL step that is not finite and positive, or too small to
advance t, raises instead of stalling.  Front measurements that fail are
recorded as NaN and logged at debug level on the ``accelwave`` logger.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitude import MAX_POINTS, closed_form
from .characteristics import (
    DegenerateWaveError,
    coefficients_ab,
    eigensystem,
    equilibrium_state,
)
from .materials import MaterialModel, _require_stretch, production

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
_CHUNK = 16  # a step's window is rounded out to multiples of this many padded cells
_FIT_HALF_WIDTH = 16  # cells of each one-sided front fit in the trace
_EPS = np.finfo(float).eps
_RankWarning = getattr(np, "exceptions", np).RankWarning  # np.RankWarning before numpy 1.25

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
        for name in ("x_front", "pi0", "ramp_width"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
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


def _interior(i: int, n_cells: int) -> int:
    """Interior cell of ghost-padded index i (a ghost names its neighbour)."""
    return min(max(i - _NG, 0), n_cells - 1)


def _discriminant(F: np.ndarray, model: MaterialModel, n_cells: int,
                  first: int = 0) -> np.ndarray:
    """om*W''(F) + 1, the squared wave speed times rho*om, after the stretch
    check (one reduction, which also rejects NaN).  F is the ghost-padded
    row of cells from padded cell first on, or the (left, right) state rows
    of the interfaces, where interface j takes its left state from padded
    cell first + j + 1 and its right state from the next.
    Where it is not > 0, raises SimulationError naming the first failing
    cell of the first failing row."""
    if not F.min() > 0.0:
        _require_stretch(F)
    disc = model.omega * model.elastic.W2(F, model) + 1.0
    if not disc.min() > 0.0:
        bad = np.argwhere(~(disc > 0.0))[0]
        i = int(bad[0]) if disc.ndim == 1 else int(bad[1] + bad[0]) + 1
        raise SimulationError(f"hyperbolicity lost at cell {_interior(first + i, n_cells)}")
    return disc


def _checked_W2(F: np.ndarray, model: MaterialModel, n_cells: int, first: int,
                out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """W''(F) into out (scratch: a second array of F's shape), after the
    checks of :func:`_discriminant`, which a failing F goes through to name
    the cell.  The discriminants are checked by their least value
    om*min(W'') + 1: x -> fl(fl(om*x) + 1) is monotone for om > 0."""
    if not F.min() > 0.0:
        _require_stretch(F)
    W2 = model.elastic.W2(F, model, out=out, scratch=scratch)
    if not model.omega * W2.min() + 1.0 > 0.0:
        _discriminant(F, model, n_cells, first)
    return W2


def _tail_states(q: np.ndarray) -> tuple[bytes | None, bytes | None]:
    """The bits of each boundary state of q that can bound a tail (finite,
    F > 0, sigma = +-0), else None."""
    return tuple(c.tobytes() if np.isfinite(c).all() and c[1] > 0.0 and c[2] == 0.0
                 else None for c in (q[:, 0], q[:, -1]))


def _disturbed_span(q: np.ndarray, tails) -> tuple[int, int]:
    """[lo, hi): the padded cells of q between the leading run of cells equal
    to the left tail state bit for bit and the trailing run equal to the right."""
    n = q.shape[1]
    off = [np.ones(n, dtype=bool) if tail is None else
           (q.view(np.int64) != np.frombuffer(tail, np.int64)[:, None]).any(axis=0)
           for tail in tails]
    lo = int(off[0].argmax()) if off[0].any() else n
    hi = n - int(off[1][::-1].argmax()) if off[1].any() else 0
    return lo, max(lo, hi)


def _window(lo: int, hi: int, n: int) -> tuple[int, int]:
    """The padded cells a step of the span [lo, hi) reads, rounded out to
    multiples of _CHUNK and clipped to the row."""
    a, b = max(lo - 2 * _NG, 0), hi + 2 * _NG
    return a - a % _CHUNK, min(b + -b % _CHUNK, n)


def _grow_span(q: np.ndarray, lo: int, hi: int, tails) -> tuple[int, int]:
    """The span after a step of _window(lo, hi): the new cells on each side
    (two, or all up to a boundary, whose ghosts are refilled here) that
    differ from their tail state are taken in.  The ghosts of a boundary
    the span does not reach already equal its tail cells."""
    n = q.shape[1]
    new_lo = lo - _NG if lo > 2 * _NG else 0
    new_hi = hi + _NG if hi < n - 2 * _NG else n
    _fill_ghosts(q, new_lo == 0, new_hi == n)
    while new_lo < lo and q[:, new_lo].tobytes() == tails[0]:
        new_lo += 1
    while new_hi > hi and q[:, new_hi - 1].tobytes() == tails[1]:
        new_hi -= 1
    return new_lo, new_hi


# ---------------------------------------------------------------------------
# Hyperbolic step: MUSCL-Hancock + Rusanov
# ---------------------------------------------------------------------------

def _work(n: int) -> dict[str, np.ndarray]:
    """Flat scratch of the step plans for windows of up to n padded cells, by
    rows per cell: a plan reshapes a leading part of each to its shape."""
    rows = {"d": 3, "half": 3, "s": 3, "mask": 3, "e": 6, "g": 4, "sh": 2, "face": 6,
            "speed": 1, "jump": 3, "flux": 3, "du": 3, "w2": 2, "tmp": 2}
    return {k: np.empty(r * n) for k, r in rows.items()}


class _Plan:
    """The views of q and of the work buffers (see :func:`_work`) that a step
    of the window cells = (a, b) of padded cells takes, built once per
    window.  The M = b - a - 2 inner cells have (3, 2, M) pairs of (left,
    right) edge states, and their M - 1 interfaces (3, 2, M - 1) pairs.
    w2 and tmp hold the laws' results and scratch: W'' of the window's cells
    for the CFL step (tmp also sigma for the source), the edge and interface
    T, and the interface W''."""

    def __init__(self, q: np.ndarray, cells: tuple[int, int],
                 work: dict[str, np.ndarray]):
        def buf(key, *shape):
            return work[key][:math.prod(shape)].reshape(shape)

        a, b = self.cells = cells
        self.n_cells = q.shape[1] - 2 * _NG
        M = b - a - 2
        # the window itself: the CFL step, the source and the finiteness check
        self.w = w = q[:, a:b]
        self.F, self.sigma = w[1], w[2]
        self.w_mid, self.w_in = w[:, 1:-1], w[:, _NG:-_NG]
        self.w2, self.tmp = buf("w2", b - a), buf("tmp", b - a)
        # the slopes d row by row, and the limiter on d as one flat row,
        # whose pairs across a row end give two junk values that half skips
        self.slope_rows = tuple(zip(w[:, 1:], w[:, :-1], buf("d", 3, M + 1)))
        d, half, s, mask = (buf(k, 3 * (M + 1)) for k in ("d", "half", "s", "mask"))
        self.limiter = (d[:-1], d[1:], half[:-1], s[:-1], mask[:-1])
        self.half = half.reshape(3, M + 1)[:, :M]
        e, g, self.sh = buf("e", 3, 2, M), buf("g", 2, 2, M), buf("sh", 2, M)
        self.e_left, self.e_right = e[:, 0], e[:, 1]
        self.g_left, self.g_right = g[:, 0], g[:, 1]
        self.edge_rows = (*e, *g, buf("tmp", 2, M))
        # interface states: right edge of cell i vs left edge of cell i+1,
        # each an edge plus its cell's shift (shared by the F and omega*sigma
        # rows), out of place: numpy copies an in-place operand it broadcasts
        face, sh = buf("face", 3, 2, M - 1), self.sh
        self.shifted = ((e[0, 1, :-1], sh[0, :-1], face[0, 0]),
                        (e[1:, 1, :-1], sh[1, :-1], face[1:, 0]),
                        (e[0, 0, 1:], sh[0, 1:], face[0, 1]),
                        (e[1:, 0, 1:], sh[1, 1:], face[1:, 1]))
        self.face_F = face[1]
        self.f = f = buf("g", 2, 2, M - 1)
        self.f_left, self.f_right = f[:, 0], f[:, 1]
        self.face_w2, self.face_tmp = buf("w2", 2, M - 1), buf("tmp", 2, M - 1)
        self.face_rows = (*face, *f, self.face_tmp)
        # the jump (right - left)*speed, row by row
        self.jump = buf("jump", 3, M - 1)
        self.jump_rows = tuple(zip(face[:, 1], face[:, 0], buf("s", 3, M - 1), self.jump))
        self.speed = buf("speed", M - 1)
        self.flux = fl = buf("flux", 3, M - 1)
        self.flux_sv, self.flux_F, self.flux_s = fl[:2], fl[1], fl[2]
        # the flux difference as one flat row too, with two junk values
        # that du skips
        fl, du = buf("flux", 3 * (M - 1)), buf("du", 3 * (M - 1))
        self.flux_diff = (fl[1:], fl[:-1], du[:-1])
        self.du = du.reshape(3, M - 1)[:, :M - 2]


def _minmod(a: np.ndarray, b: np.ndarray, out=None, scratch=None,
            mask=None) -> np.ndarray:
    """minmod in clip form, min(max(a, min(b, 0)), max(b, 0)), with the zero
    rule: +0.0 wherever a*b <= 0.  The rule covers the -0.0 the clip form
    gives for some mixes of zeros and signs, and same-signed slopes whose
    product underflows to 0, which the clip form alone would keep.  It is
    applied as out *= (a*b > 0), then out += 0.0, which turns -0.0 into +0.0
    and changes nothing else; a NaN slope gives NaN either way, and a zero
    clip form at a*b = 0*inf comes out +0.0.  out, scratch and mask are
    optional float arrays of the shape of a (a float mask spares the
    product a buffered cast)."""
    out = np.minimum(b, 0.0, out=out)
    np.maximum(a, out, out=out)
    np.minimum(out, np.maximum(b, 0.0, out=scratch), out=out)
    out *= np.greater(np.multiply(a, b, out=scratch), 0.0, out=mask)
    out += 0.0
    return out


def _edge_flux(mom, F, osig, out_s, out_v, scratch, model: MaterialModel) -> None:
    """From the rows (rho*v, F, omega*sigma) of edge states, T(F) + sigma
    into out_s and v into out_v (scratch: an array of their shape).  The
    flux is their negative: the momentum row -(T + sigma), and -v, which the
    F and omega*sigma rows share."""
    T = model.elastic.T(F, model, out=out_s, scratch=scratch)
    np.add(T, np.divide(osig, model.omega, out=scratch), out=out_s)
    np.divide(mom, model.rho_star, out=out_v)


def _hyperbolic_step(p: _Plan, dt: float, dx: float, model: MaterialModel) -> None:
    """One conservative MUSCL-Hancock update of q = (rho*v, F, omega*sigma),
    in place, on all but the two padded cells at each end of the window of
    the plan p, whose views hold every array of the step.

    Edge states are held as (3, 2, M) pairs, so T and the wave speeds are
    evaluated once per pair: the (left, right) edges of each cell for the
    predictor, then the (left, right) states of each interface for the
    Rusanov flux.  The F row of the interface states is checked once (the
    caller checks the cells, whose edges then need no check).  The Rusanov
    speed is 0.5*sqrt((om*max(W''_L, W''_R) + 1)/(rho*om)), bit for bit the
    larger of the two speeds: x -> fl(fl(om*x) + 1), correctly rounded
    division by a positive constant and sqrt are all monotone.  Every array
    of the step is a view of the plan, so the step allocates none.
    """
    rho, om = model.rho_star, model.omega
    # limited slopes on cells 1 .. m-2
    for nxt, prev, d in p.slope_rows:
        np.subtract(nxt, prev, out=d)
    half = _minmod(*p.limiter)
    half *= 0.5
    np.subtract(p.w_mid, p.half, out=p.e_left)
    np.add(p.w_mid, p.half, out=p.e_right)
    # half-step predictor from the rows g = -flux: c*(f_L - f_R) = c*(g_R - g_L)
    # exactly; the shift of the F and omega*sigma rows is the same
    _edge_flux(*p.edge_rows, model)
    sh = np.subtract(p.g_right, p.g_left, out=p.sh)
    sh *= 0.5 * dt / dx
    for edge, shift, state in p.shifted:
        np.add(edge, shift, out=state)
    W2 = _checked_W2(p.face_F, model, p.n_cells, p.cells[0], p.face_w2, p.face_tmp)
    half_s = np.maximum(W2[0], W2[1], out=p.speed)
    half_s *= om
    half_s += 1.0
    half_s /= rho * om
    np.sqrt(half_s, out=half_s)
    half_s *= 0.5
    # the interface flux in negated form: folding the negation into the
    # difference below would flip the sign of some zeros of du
    _edge_flux(*p.face_rows, model)
    np.negative(p.f, out=p.f)
    for right, left, diff, jump in p.jump_rows:
        np.multiply(np.subtract(right, left, out=diff), half_s, out=jump)
    np.add(p.f_left, p.f_right, out=p.flux_sv)
    p.flux_sv *= 0.5
    p.flux_s[:] = p.flux_F
    p.flux -= p.jump
    du = np.subtract(*p.flux_diff)
    du *= dt / dx
    p.w_in -= p.du


def _fill_ghosts(q: np.ndarray, left: bool = True, right: bool = True) -> None:
    """Zero-gradient ghosts: those of each side asked for copy its last cell."""
    if left:
        q[:, :_NG] = q[:, _NG:_NG + 1]
    if right:
        q[:, -_NG:] = q[:, -_NG - 1:-_NG]


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
    """One-sided fits of v; returns (slope, value) of each side at front_x.

    Each fit is np.polyfit's without its argument checks: x + 0.0 and
    v + 0.0, the least-squares solve of its column-scaled Vandermonde system
    with its rcond, and its RankWarning when the system is rank deficient.
    The fit is evaluated at front_x by the Horner steps of np.polyval and
    np.polyder, so each value is bit for bit theirs."""
    behind, ahead = _front_windows(snapshot, front_x, half_width, gap)
    x, v = snapshot.x, snapshot.v
    out = []
    for sl in (behind, ahead):
        xs = x[sl] - front_x + 0.0
        deg = min(degree, xs.size - 1)
        lhs = np.vander(xs, deg + 1)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs /= scale
        coef, _, rank, _ = np.linalg.lstsq(lhs, v[sl] + 0.0, xs.size * _EPS)
        if rank != deg + 1:
            warnings.warn("Polyfit may be poorly conditioned", _RankWarning, stacklevel=2)
        slope = value = 0.0
        for i, c in enumerate((coef / scale).tolist()):
            value = value * 0.0 + c
            if i < deg:
                slope = slope * 0.0 + c * (deg - i)
        out.append((slope, value))
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
    return _crossing(front_x_guess, sb, cb, sa, ca)


def _crossing(front_x_guess: float, sb: float, cb: float, sa: float, ca: float) -> float:
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

def entropy_monitor(model: MaterialModel, snapshot: Snapshot) -> EnergyReport:
    """Discrete total energy and the cellwise dissipation sign check.

    total_energy = sum(rho*v^2/2 + W(F) + omega*sigma^2/2) * dx;
    max_sigma_production is max over cells of sigma*P(F, sigma) (<= 0 for
    every admissible model).
    """
    _require_stretch(snapshot.F)
    om = model.omega
    dx = snapshot.x[1] - snapshot.x[0]
    dens = 0.5 * model.rho_star * snapshot.v ** 2 + model.elastic.W(snapshot.F, model) \
        + 0.5 * om * snapshot.sigma ** 2
    total = float(np.sum(dens) * dx)
    sp = snapshot.sigma * production(model, snapshot.F, snapshot.sigma)
    return EnergyReport(total_energy=total, max_sigma_production=float(np.max(sp)))


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


class _Stepper:
    """The step loop on grid's ghost-padded state q = (rho*v, F, omega*sigma),
    in place, with q's tails and span, the work buffers and window plan, t,
    the step count and the pending half-step."""

    def __init__(self, model: MaterialModel, grid: Grid, q: np.ndarray):
        _fill_ghosts(q)
        self.model, self.grid, self.q = model, grid, q
        self.tails = _tail_states(q)
        self.span = _disturbed_span(q, self.tails)
        self.work = _work(q.shape[1])
        # the first step takes the whole row: a failing tail state fails there
        self.plan = _Plan(q, (0, q.shape[1]), self.work)
        self.t, self.n_steps = 0.0, 0
        self.pending = 0.0  # trailing source half-step not yet applied

    def _source(self, h: float) -> None:
        """The relaxation source over h on the plan's window, in place:
        om*relax(F, sigma, h) into its omega*sigma row."""
        p, model, om = self.plan, self.model, self.model.omega
        model.production.relax(p.F, np.divide(p.sigma, om, out=p.tmp), h, model, out=p.sigma)
        p.sigma *= om

    def advance_to(self, target: float, t_end: float) -> None:
        """Step q to t = target, to within 1e-14*t_end (t_end the run's end),
        and apply the pending half-step, so q is the synchronized state."""
        model, grid, q = self.model, self.grid, self.q
        rho, om, n_cells, dx = model.rho_star, model.omega, grid.n_cells, grid.dx
        while self.t < target - 1e-14 * t_end:
            if self.n_steps and (cells := _window(*self.span, q.shape[1])) != self.plan.cells:
                self.plan = _Plan(q, cells, self.work)
            p, t = self.plan, self.t
            # the largest speed is the root of the largest discriminant
            W2 = _checked_W2(p.F, model, n_cells, p.cells[0], p.w2, p.tmp)
            speed = math.sqrt((om * float(W2.max()) + 1.0) / (rho * om))
            dt = min(grid.cfl * dx / speed, target - t)
            if not (math.isfinite(dt) and dt > 0.0) or t + dt == t:
                # the first largest speed of the row, not discriminant:
                # rounding can make distinct discriminants give equal speeds
                disc = _discriminant(q[1], model, n_cells)
                i_cfl = int(np.argmax(np.sqrt(disc / (rho * om))))
                raise SimulationError(
                    f"time step dt={dt:.6g} does not advance t={t:.6g} after "
                    f"{self.n_steps} steps (CFL limited by cell "
                    f"{_interior(i_cfl, n_cells)})")
            # the last step's trailing half-step merged with this one's
            # leading half-step: relax leaves F, and so dt, unchanged
            self._source(self.pending + 0.5 * dt)
            self.pending = 0.5 * dt
            _hyperbolic_step(p, dt, dx, model)
            self.span = _grow_span(q, *self.span, self.tails)
            self.t = t = t + dt
            self.n_steps += 1
            # the sum is finite unless some entry is (or the sum overflows);
            # row by row, as numpy buffers a sum over a strided window
            if not math.isfinite(p.w.sum(axis=1).sum()):
                bad = np.argwhere(~np.isfinite(p.w))
                if bad.size:
                    cell = _interior(p.cells[0] + int(bad[0][1]), n_cells)
                    raise SimulationError(f"non-finite state at t={t:.6g}, cell {cell}")
        if self.pending:
            # the last step's window still covers the span, which grew by at
            # most two cells a side, and holds cells of the same tails
            self._source(self.pending)
            self.pending = 0.0
        self.t = target


def simulate(model: MaterialModel, grid: Grid, ic: KinkIC, t_end: float, *,
             output_every: float | None = None) -> SimResult:
    """Run the wavefront experiment from the kink ic on grid and sample the
    front amplitude.

    The predicted amplitude uses the material's coefficients a and b; a
    linearly degenerate material (a = 0) is predicted to decay as
    pi0*exp(-b*t).  Output samples land exactly on multiples of
    output_every (default t_end/50), at most MAX_POINTS after t = 0.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    out_dt = t_end / 50.0 if output_every is None else float(output_every)
    if not 0.0 < out_dt < math.inf:
        raise ValueError(f"output_every must be finite and > 0, got {out_dt!r}")
    ratio = t_end / out_dt - 1e-12
    if ratio > MAX_POINTS:
        raise ValueError(f"t_end/output_every asks for more than {MAX_POINTS + 1} "
                         f"output records")
    n_out = int(math.ceil(ratio))

    rho, om, dx = model.rho_star, model.omega, grid.dx
    lam0 = eigensystem(model, equilibrium_state()).lam

    # the material's amplitude coefficients for the prediction column
    try:
        wc = coefficients_ab(model)
        a_eff, b_eff = wc.a, wc.b
    except DegenerateWaveError as exc:
        a_eff, b_eff = 0.0, exc.b

    def predict(t: float) -> float:
        if math.isinf(b_eff):
            return ic.pi0 if t == 0.0 else 0.0
        if a_eff == 0.0:
            return ic.pi0 * math.exp(-b_eff * t)
        try:
            return closed_form(a_eff, b_eff, ic.pi0, t)
        except ValueError:
            return math.nan

    x_all = grid.x_min + (np.arange(grid.n_cells + 2 * _NG) - _NG + 0.5) * dx
    v, F, sig = _initial_profile(model, grid, ic, x_all)
    stepper = _Stepper(model, grid, np.stack([rho * v, F, om * sig]))
    q = stepper.q

    def snapshot(t: float) -> Snapshot:
        return Snapshot(t=t, x=x_all[_NG:-_NG].copy(), v=q[0, _NG:-_NG] / rho,
                        F=q[1, _NG:-_NG].copy(), sigma=q[2, _NG:-_NG] / om)

    ts, measured, predicted, fronts, energies, max_sps, vx_maxes = ([] for _ in range(7))

    def record(t: float) -> None:
        snap = snapshot(t)
        gap = _auto_gap(lam0, t, dx)
        fx = ic.x_front + lam0 * t
        try:
            # one fit of each side serves measure_front_slope (degree 2) and
            # detect_front_position alike
            (sb, cb), (sa, ca) = _side_slopes(snap, fx, _FIT_HALF_WIDTH, gap, 2)
            pi_m = -lam0 * (sb - sa)
            fd = _crossing(fx, sb, cb, sa, ca)
        except SimulationError as exc:
            _log.debug("front measurement failed at t=%.6g: %s", t, exc)
            pi_m, fd = math.nan, math.nan
        rep = entropy_monitor(model, snap)
        ts.append(t)
        measured.append(pi_m)
        predicted.append(predict(t))
        fronts.append(fd)
        energies.append(rep.total_energy)
        max_sps.append(rep.max_sigma_production)
        vx_maxes.append(float(np.max(np.abs(np.diff(snap.v)))) / dx)

    record(0.0)
    for k in range(1, n_out + 1):
        target = min(k * out_dt, t_end)
        stepper.advance_to(target, t_end)
        record(target)

    vx0 = max(vx_maxes[0], 1e-300)
    steepening_time = next((t for t, vx in zip(ts, vx_maxes)
                            if vx > STEEPENING_FACTOR * vx0), None)
    trace = FrontTrace(
        t=np.array(ts), measured_pi=np.array(measured),
        predicted_pi=np.array(predicted), front_x=np.array(fronts),
        energy=np.array(energies), max_sigma_production=np.array(max_sps),
        steepening_time=steepening_time, lambda0=lam0, a=a_eff, b=b_eff,
    )
    return SimResult(trace=trace, final=snapshot(t_end))
