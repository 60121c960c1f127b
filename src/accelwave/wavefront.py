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
private stepper (see :class:`_Stepper`) to each output time, where the
pending half-step is applied; its record (see :class:`_Record`) then reads
that synchronized state, at a cost of the order of the span, and never
writes it.  After the run one matrix product fits the front windows of all
outputs (see :func:`_fit_operator`), and one closed_form call gives the
prediction column (amplitude._predicted).
There is one front measurement: measure_front_slope(model, snapshot,
front_x) and detect_front_position(model, snapshot, front_x_guess) are its
one-output case, so on a snapshot at an output time t, about the guess
x_front + lambda0*t, they give exactly simulate's measured_pi and front_x.
sigma = 0 is a fixed point of every law's source step, so cells at
sigma = +-0 come out of it untouched, sign bit included.  It gets finite
rows with F > 0: a kink's start must be finite, and each step checks F > 0
before it and finiteness after.  Boundaries are zero-gradient.

The minmod limiter is taken in clip form, min(max(a, min(b, 0)), max(b, 0)),
with the zero rule that it is +0.0 wherever a*b <= 0, also where the product
of two same-signed slopes underflows.  One W'' per step serves both the CFL
step and the Rusanov speeds, those of the faster of each interface's two
cells (local Lax-Friedrichs: Rusanov 1961; LeVeque 2002).  Each step
evaluates W'' once, on its window's cells, after checking F > 0, and checks
om*W'' + 1 > 0, each by one reduction that also rejects NaN; the source
leaves F unchanged.  The largest discriminant is om*max(W'') + 1, as x ->
fl(fl(om*x) + 1) is monotone for om > 0, and division by rho*om > 0 and sqrt
are correctly rounded, so its root is bit for bit the largest speed.  The
predicted interface states, on which T is evaluated, take the stretch check
only (it catches a NaN velocity too); the cell edges take none: a limited
edge lies between its cell and the mean with a neighbour.  A linear or
non-relaxing run is a choice of material, not of solver: QuadraticCubic(R=0)
has a = 0, and a solid with tau0 = inf has b = 0.

Every step, the first included, steps the window _window(*span): the span
and two cells on each side.  The span is the padded cells between two tails
of cells equal bit for bit to their boundary state, which bounds a tail only
if it is finite, with F > 0 and sigma = +-0, and then hyperbolic (as ahead
of a kink and behind its ramp).  It is found from q once; after that it is
the scheme's numerical domain of dependence, one cell more a side a step,
and growing it reads no cell.  An interface reads the edge states of its two
cells, and by the zero rule a cell next to an equal cell has a slope of +0,
so the cell two beyond the span sees tail states at both its interfaces and
gets an update of exactly +0, as every cell whose 5-cell stencil is constant
does; and sigma = +-0 is a fixed point of every relax.  So every cell
outside the span holds its t = 0 state.  Within 2*_NG cells of a boundary
the span takes the rest of the row, and that boundary's ghosts are refilled
after each step.  The CFL step, the source and the finiteness check see the
same window, which holds cells of both tails; a tail state is finite and
hyperbolic, so the window holds the row's first failing cell, the one a
whole-row step names.  The window is rounded out to multiples of _CHUNK
padded cells, clipped to the row, and its views of q and of per-run scratch
are built only when the rounded window changes.  Rounding changes no bit:
the extra cells are tail cells, whose update is +0 and whose sigma relax
keeps, and the window already holds their states, so the largest CFL
discriminant and the regularized law's sub-cycle count (from the largest F)
stay the same.

A step allocates no array of the window's size: the cells' W'' and every
array of the hyperbolic step are views of work buffers allocated once per
run, and the laws write T, W'' and the source step into them (see
:mod:`accelwave.materials`): the source divides the window's omega*sigma
row by omega in place, relaxes it there and multiplies it back.  numpy
itself buffers an operation on (3, M) views whose rows it cannot join into
one (up to 64 KB a call), so the differences of shifted views are taken
row by row, and the limiter and the flux difference run on their rows laid
end to end; the finiteness check is one product of the window with weights.

On a window of a few hundred cells most of a step is the fixed cost of its
about 90 numpy calls.  So every constant operand is a 0-d float64 array,
which a ufunc takes for about 0.35 us against 0.6 us for a Python float,
with the same bits: the material's (see :mod:`accelwave.materials`) and the
plan's 0.5*dt/dx and dt/dx.  And the checks and the CFL step read a row's
least or largest value as the entry argmin or argmax picks, at a third of
the cost of min or max: the first NaN wherever those give NaN, else an
equal value (a zero's sign may differ, which F > 0 and om*W'' + 1 ignore).
The work around the calls is kept small too: a plan is about 90 views,
built about 20 times a run, and views that are free at some point of a step
serve as scratch there (see :class:`_Plan`).

A state that turns non-finite, loses its stretch (F NaN or <= 0) or
hyperbolicity raises SimulationError naming the cell, and so do a CFL step
that is not finite and positive or too small to advance t, a run of
MAX_STEPS steps and one bound to need more.
A fit window that leaves the domain makes simulate's measurement NaN,
logged at debug level on the ``accelwave`` logger; the public measurement
raises SimulationError there and on a window with a non-finite v.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .amplitude import _output_times, _predicted
from .characteristics import (
    DegenerateWaveError,
    coefficients_ab,
    eigensystem,
    equilibrium_state,
)
from .materials import _NUM, MaterialModel, _require_stretch

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
_FIT_HALF_WIDTH = 16  # cells of each one-sided front fit
# the rows of an array by index, at half the cost of iterating over it
_rows, _pair = operator.itemgetter(0, 1, 2), operator.itemgetter(0, 1)

_log = logging.getLogger("accelwave")

STEEPENING_FACTOR = 10.0  # max|v_X| above this multiple of its t=0 value flags steepening
MAX_STEPS = 10**6  # steps of one run, far above any run's needs: a run that reaches it raises


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_cells: int
    cfl: float

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, (int, np.integer)):
            raise TypeError(f"n_cells must be an integer, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_cells < 16:
            raise ValueError(f"n_cells must be >= 16, got {self.n_cells}")
        # an inf dx makes every x NaN, and a subnormal one steps too small to end a run
        if not np.finfo(float).tiny <= self.dx < math.inf:
            raise ValueError(f"cell width (x_max - x_min)/n_cells must be a finite normal "
                             f"float, got {self.dx!r}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells


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


def _require_fits(grid: Grid, ic: KinkIC) -> None:
    """Refuse a kink whose front, or its return to equilibrium 2*ramp_width
    behind the front, leaves the domain of grid."""
    if ic.x_front - ic.ramp_width - ic.ramp_width < grid.x_min \
            or not grid.x_min < ic.x_front < grid.x_max:
        raise ValueError("kink profile does not fit inside the domain")


def _outputs(t_end: float, output_every: float | None) -> np.ndarray:
    """simulate's output times, every output_every (t_end/50 by default); config
    builds them too (at most MAX_POINTS + 1 floats) to check a sim block."""
    step = t_end / 50.0 if output_every is None else float(output_every)
    return _output_times(t_end, step, "output_every")


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


def _check_stretch(F: np.ndarray, n_cells: int, first: int) -> None:
    """Check F > 0 by one reduction, which also rejects NaN, else raise
    SimulationError naming the first cell with a state of F NaN or <= 0.  F
    is the padded row of cells from padded cell first on, or the (left,
    right) interface state rows: column j, edges of cells first + j + 1, + 2."""
    if F.item(F.argmin()) > 0.0:
        return
    hits = np.nonzero(~(F > 0.0))
    cells = hits[-1] + (hits[0] + 1 if F.ndim == 2 else 0)
    k = int(cells.argmin())
    lost = "is NaN" if math.isnan(F[tuple(h[k] for h in hits)]) else "<= 0"
    raise SimulationError(f"stretch F {lost} at cell {_interior(first + int(cells[k]), n_cells)}")


def _checked_W2(F: np.ndarray, model: MaterialModel, n_cells: int, first: int = 0,
                out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """W''(F) of the ghost-padded row F of cells from padded cell first on,
    into out if given (scratch: a second array of F's shape), after the
    stretch check and the check om*W'' + 1 > 0 of the discriminants, which
    raises SimulationError naming the first failing cell.  One W'' row a
    step serves both the CFL step and the Rusanov speeds."""
    _check_stretch(F, n_cells, first)
    W2 = model.elastic.W2(F, model, out=out, scratch=scratch)
    if not model.omega * W2.item(W2.argmin()) + 1.0 > 0.0:
        i = int(np.argmin(model.omega * W2 + 1.0 > 0.0))
        raise SimulationError(f"hyperbolicity lost at cell {_interior(first + i, n_cells)}")
    return W2


def _initial_span(q: np.ndarray, model: MaterialModel) -> tuple[int, int]:
    """[lo, hi): the padded cells of q between the leading run of cells equal
    bit for bit to its left boundary state and the trailing run equal to its
    right one.  A boundary state bounds a tail only if it is finite, with
    F > 0 and sigma = +-0, and then hyperbolic, om*W''(F) + 1 > 0 as
    :func:`_checked_W2` computes it; else its run is empty."""
    bits, n = q.view(np.int64), q.shape[1]
    off = [(bits != bits[:, [i]]).any(axis=0) if np.isfinite(q[:, i]).all()
           and q[1, i] > 0.0 and q[2, i] == 0.0 and model.omega * model.elastic.W2(
               q[1, [i]], model, out=np.empty(1), scratch=np.empty(1)).item() + 1.0 > 0.0
           else np.ones(n, dtype=bool) for i in (0, -1)]
    lo = int(off[0].argmax()) if off[0].any() else n
    hi = n - int(off[1][::-1].argmax()) if off[1].any() else 0
    return lo, max(lo, hi)


def _window(lo: int, hi: int, n: int) -> tuple[int, int]:
    """The padded cells a step of the span [lo, hi) reads, rounded out to
    multiples of _CHUNK and clipped to the row."""
    a, b = max(lo - 2 * _NG, 0), hi + 2 * _NG
    return a - a % _CHUNK, min(b + -b % _CHUNK, n)


# ---------------------------------------------------------------------------
# Hyperbolic step: MUSCL-Hancock + Rusanov
# ---------------------------------------------------------------------------

def _work(n: int) -> dict[str, np.ndarray]:
    """Flat scratch of the step plans for windows of up to n padded cells, by
    rows per cell: a plan reshapes a leading part of each to its shape."""
    rows = {"d": 3, "half": 3, "s": 3, "mask": 3, "e": 6, "g": 4, "sh": 2, "face": 6,
            "speed": 1, "jump": 3, "flux": 3, "du": 3, "w2": 1, "tmp": 1}
    # the finiteness check's weights 2**-k, 2**k > 2n: a finite row's sum never overflows
    return {"weights": np.full(n, 0.5 ** (n.bit_length() + 1)),
            "half_dt_dx": np.empty(()), "dt_dx": np.empty(()),   # of a step
            **{k: np.empty(r * n) for k, r in rows.items()}}


class _Plan:
    """The views of q and of the work buffers (see :func:`_work`) that a step
    of the window cells = (a, b) of padded cells takes, built once per
    window.  The M = b - a - 2 inner cells have (3, 2, M) pairs of (left,
    right) edge states, and their M - 1 interfaces (3, 2, M - 1) pairs.
    w2 and tmp hold W'' of the window's cells, for both the CFL step and
    the Rusanov speeds, and its scratch.  Views free at some point of a step
    are scratch there: tmp and rows of speed and jump, which the step writes
    before it reads, for the source's relax, sh for the edge T, and a row
    pair of the jump for the interface T.  The finiteness check takes a row
    of weights."""

    def __init__(self, q: np.ndarray, cells: tuple[int, int],
                 work: dict[str, np.ndarray]):
        # each view is a leading part of its flat work buffer, reshaped
        a, b = self.cells = cells
        self.n_cells = q.shape[1] - 2 * _NG
        m = b - a
        M, K = m - 2, 3 * (m - 3)
        # the window itself: the CFL step, the source and the finiteness check
        self.w = w = q[:, a:b]
        self.F, self.sigma = w[1], w[2]
        self.w_mid, self.w_in = w[:, 1:-1], w[:, _NG:-_NG]
        self.w2, self.tmp, self.weights = work["w2"][:m], work["tmp"][:m], work["weights"][:m]
        self.relax_scratch = (self.tmp, work["speed"][:m], work["jump"][:m])
        self.w2_pair = (self.w2[1:-2], self.w2[2:-1])   # of each interface's cells
        # the slopes d row by row, and the limiter on d as one flat row,
        # whose pairs across a row end give two junk values that half skips
        d, half = work["d"], work["half"]
        self.slope_rows = tuple(zip(_rows(w[:, 1:]), _rows(w[:, :-1]),
                                    _rows(d[:3 * (M + 1)].reshape(3, M + 1))))
        self.limiter = (d[:3 * M + 2], d[1:3 * M + 3], half[:3 * M + 2], work["s"][:3 * M + 2],
                        work["mask"][:3 * M + 2])
        self.half = half[:3 * (M + 1)].reshape(3, M + 1)[:, :M]
        e, g = work["e"][:6 * M].reshape(3, 2, M), work["g"][:4 * M].reshape(2, 2, M)
        self.sh = sh = work["sh"][:2 * M].reshape(2, M)
        self.e_left, self.e_right = e[:, 0], e[:, 1]
        self.g_left, self.g_right = g[:, 0], g[:, 1]
        self.edge_rows = (*_rows(e), *_pair(g), sh)
        # interface states: right edge of cell i vs left edge of cell i+1,
        # each an edge plus its cell's shift (shared by the F and omega*sigma
        # rows), out of place: numpy copies an in-place operand it broadcasts
        face = work["face"][:2 * K].reshape(3, 2, M - 1)
        left, right = face[:, 0], face[:, 1]
        lefts, rights = _rows(left), _rows(right)
        self.shifted = ((e[0, 1, :-1], sh[0, :-1], lefts[0]),
                        (e[1:, 1, :-1], sh[1, :-1], left[1:]),
                        (e[0, 0, 1:], sh[0, 1:], rights[0]),
                        (e[1:, 0, 1:], sh[1, 1:], right[1:]))
        self.f = f = work["g"][:4 * (M - 1)].reshape(2, 2, M - 1)
        self.f_left, self.f_right = f[:, 0], f[:, 1]
        # the jump (right - left)*speed, row by row, in place
        self.jump = work["jump"][:K].reshape(3, M - 1)
        face_mom, self.face_F, face_osig = _rows(face)
        self.face_rows = (face_mom, self.face_F, face_osig, *_pair(f), self.jump[:2])
        jumps = _rows(self.jump)
        self.jump_rows = tuple(zip(rights, lefts, jumps, jumps))
        self.speed = work["speed"][:M - 1]
        fl, du = work["flux"][:K], work["du"][:K]
        self.flux = fl2 = fl.reshape(3, M - 1)
        self.flux_sv, self.flux_F, self.flux_s = fl2[:2], fl2[1], fl2[2]
        # the flux difference as one flat row too, with two junk values
        # that du skips
        self.flux_diff = (fl[1:], fl[:-1], du[:-1])
        self.du = du.reshape(3, M - 1)[:, :M - 2]
        # 0.5*dt/dx and dt/dx of the step
        self.half_dt_dx, self.dt_dx = work["half_dt_dx"], work["dt_dx"]


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
    zero = _NUM.zero
    out = np.minimum(b, zero, out=out)
    np.maximum(a, out, out=out)
    np.minimum(out, np.maximum(b, zero, out=scratch), out=out)
    out *= np.greater(np.multiply(a, b, out=scratch), zero, out=mask)
    out += zero
    return out


def _edge_flux(mom, F, osig, out_s, out_v, scratch, model: MaterialModel) -> None:
    """From the rows (rho*v, F, omega*sigma) of edge states, T(F) + sigma
    into out_s and v into out_v (scratch: an array of their shape).  The
    flux is their negative: the momentum row -(T + sigma), and -v, which the
    F and omega*sigma rows share."""
    T = model.elastic.T(F, model, out=out_s, scratch=scratch)
    np.add(T, np.divide(osig, model._consts.om, out=scratch), out=out_s)
    np.divide(mom, model._consts.rho, out=out_v)


def _hyperbolic_step(p: _Plan, dt: float, dx: float, model: MaterialModel) -> None:
    """One conservative MUSCL-Hancock update of q = (rho*v, F, omega*sigma),
    in place, on all but the two padded cells at each end of the window of
    the plan p, whose views hold every array of the step.  Precondition:
    p.w2 holds the checked W'' of the window's cells (see :func:`_checked_W2`).

    Edge states are held as (3, 2, M) pairs, so T is evaluated once per
    pair: the (left, right) edges of each cell for the predictor, then the
    (left, right) states of each interface for the Rusanov flux, whose F
    row is checked once.  The Rusanov speed between cells i and i+1 is
    0.5*sqrt((om*max(W''_i, W''_i+1) + 1)/(rho*om)), bit for bit the larger
    of their two speeds.  Every array of the step is a view of the plan, so
    the step allocates none.
    """
    k = model._consts
    # limited slopes on cells 1 .. m-2
    for nxt, prev, d in p.slope_rows:
        np.subtract(nxt, prev, out=d)
    half = _minmod(*p.limiter)
    half *= _NUM.half
    np.subtract(p.w_mid, p.half, out=p.e_left)
    np.add(p.w_mid, p.half, out=p.e_right)
    # half-step predictor from the rows g = -flux: c*(f_L - f_R) = c*(g_R - g_L)
    # exactly; the shift of the F and omega*sigma rows is the same
    _edge_flux(*p.edge_rows, model)
    sh = np.subtract(p.g_right, p.g_left, out=p.sh)
    p.half_dt_dx[()] = 0.5 * dt / dx
    sh *= p.half_dt_dx
    for edge, shift, state in p.shifted:
        np.add(edge, shift, out=state)
    _check_stretch(p.face_F, p.n_cells, p.cells[0])
    half_s = np.maximum(*p.w2_pair, out=p.speed)
    half_s *= k.om
    half_s += _NUM.one
    half_s /= k.rho_om
    np.sqrt(half_s, out=half_s)
    half_s *= _NUM.half
    # the interface flux in negated form: folding the negation into the
    # difference below would flip the sign of some zeros of du
    _edge_flux(*p.face_rows, model)
    np.negative(p.f, out=p.f)
    for right, left, diff, jump in p.jump_rows:
        np.multiply(np.subtract(right, left, out=diff), half_s, out=jump)
    np.add(p.f_left, p.f_right, out=p.flux_sv)
    p.flux_sv *= _NUM.half
    p.flux_s[:] = p.flux_F
    p.flux -= p.jump
    du = np.subtract(*p.flux_diff)
    p.dt_dx[()] = dt / dx
    du *= p.dt_dx
    p.w_in -= p.du


def _ghost_views(q: np.ndarray):
    """(ghosts, last cell) views of q's left and right sides: zero-gradient
    ghosts copy the last cell."""
    return (q[:, :_NG], q[:, _NG:_NG + 1]), (q[:, -_NG:], q[:, -_NG - 1:-_NG])


# ---------------------------------------------------------------------------
# Front measurement
# ---------------------------------------------------------------------------

def _front_windows(x: np.ndarray, front_x: float, lam0: float, t: float):
    """The (behind, ahead) slices of the cell centres x of the two one-sided
    fits of the front at time t about the guess front_x: _FIT_HALF_WIDTH
    cells each, gap cells clear of front_x's cell (dx = x[1] - x[0]).  A
    second-order scheme smears the kink over ~ (lam0*dx^2*t)^(1/3) plus a
    few cells of limiter bump, so the gap grows like (lam0*t/dx)^(1/3)."""
    dx = x[1] - x[0]
    gap = max(2, int(math.ceil(1.4 * (lam0 * t / dx) ** (1.0 / 3.0)))) if t > 0.0 else 2
    i_f = int(math.floor((front_x - (x[0] - 0.5 * dx)) / dx))
    behind, ahead = i_f - gap - _FIT_HALF_WIDTH, i_f + 1 + gap
    if behind < 0 or ahead + _FIT_HALF_WIDTH > x.size:
        raise SimulationError(
            f"front at x={front_x:.6g} too close to the boundary for a "
            f"{_FIT_HALF_WIDTH}-cell stencil with gap {gap}")
    return slice(behind, behind + _FIT_HALF_WIDTH), slice(ahead, ahead + _FIT_HALF_WIDTH)


@functools.cache
def _fit_operator() -> np.ndarray:
    """The read-only (3, _FIT_HALF_WIDTH) operator that takes the values of
    any window of equally spaced cells to the coefficients (c2, c1, c0) of
    their degree-2 least-squares fit in the centred cell offsets u = j - 7.5
    (Savitzky & Golay, 1964); its Vandermonde's condition number is about 43."""
    u = np.arange(_FIT_HALF_WIDTH) - 0.5 * (_FIT_HALF_WIDTH - 1)
    op = np.linalg.pinv(np.vander(u, 3))
    op.flags.writeable = False
    return op


def _front_fits(x0: np.ndarray, dx: float, vs: np.ndarray, fxs: np.ndarray,
                lam0: float) -> tuple[np.ndarray, np.ndarray]:
    """(measured pi, front x) of K outputs from the first cell centres x0
    (K, 2) and v values vs (K, 2, _FIT_HALF_WIDTH) of their (behind, ahead)
    fit windows of cells of width dx, and their front guesses fxs: pi =
    -lam0*(slope_behind - slope_ahead) of the degree-2 fits (see
    :func:`_fit_operator`) at the guess, free of the window-offset bias of
    curved profiles; and the crossing of the two fits linearized about the
    guess, or the guess where the slopes are indistinguishable.  matmul
    multiplies each output's block by itself, so its bits do not depend on K."""
    c2, c1, c0 = np.moveaxis(vs @ _fit_operator().T, -1, 0)
    u = (fxs[:, None] - x0) / dx - 0.5 * (_FIT_HALF_WIDTH - 1)
    slope, value = (c1 + 2.0 * c2 * u) / dx, c0 + u * (c1 + u * c2)
    front = [fx if abs(sb - sa) <= 1e-14 * (abs(sb) + abs(sa) + 1e-300)
             else fx + (ca - cb) / (sb - sa)
             for fx, (sb, sa), (cb, ca) in zip(fxs.tolist(), slope.tolist(), value.tolist())]
    return -lam0 * (slope[:, 0] - slope[:, 1]), np.array(front)


def _measure(model: MaterialModel, snapshot: Snapshot, front_x: float) -> tuple[float, float]:
    """(measured pi, front x) of snapshot about the front guess front_x, bit
    for bit as simulate's record measures its output at snapshot.t.  Raises
    SimulationError where a fit window leaves the domain or holds a
    non-finite v."""
    lam0 = eigensystem(model, equilibrium_state()).lam
    x, v = snapshot.x, snapshot.v
    windows = _front_windows(x, front_x, lam0, snapshot.t)
    for w in windows:
        if not np.isfinite(v[w]).all():
            raise SimulationError(f"non-finite v in the front fit window of cells "
                                  f"{w.start} to {w.stop - 1}")
    measured, front = _front_fits(x[[w.start for w in windows]][None], x[1] - x[0],
                                  np.stack([v[w] for w in windows])[None],
                                  np.array([front_x]), lam0)
    return measured.item(), front.item()


def measure_front_slope(model: MaterialModel, snapshot: Snapshot, front_x: float) -> float:
    """Front amplitude -lambda0*(slope_behind - slope_ahead) about the front
    guess front_x: simulate's measured_pi of snapshot (see :func:`_front_fits`).
    Raises SimulationError as :func:`_measure` does."""
    return _measure(model, snapshot, front_x)[0]


def detect_front_position(model: MaterialModel, snapshot: Snapshot,
                          front_x_guess: float) -> float:
    """Kink location from the crossing of the one-sided fits, linearized about
    the guess: simulate's front_x of snapshot (see :func:`_front_fits`).
    Raises SimulationError as :func:`_measure` does."""
    return _measure(model, snapshot, front_x_guess)[1]


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------

def _audit_rows(model: MaterialModel, v, F, sigma, dens=None, sp=None):
    """The energy density rho*v^2/2 + W(F) + omega*sigma^2/2 and sigma*P(F,
    sigma) of each cell, whose F the caller has checked > 0, into the arrays
    dens and sp if given (only W and P then make temporaries)."""
    dens = np.multiply(v, v, out=dens)
    dens *= 0.5 * model.rho_star
    dens += model.elastic.W(F, model)
    dens += np.multiply(np.multiply(sigma, sigma, out=sp), 0.5 * model.omega, out=sp)
    return dens, np.multiply(sigma, model.production.P(F, sigma, model), out=sp)


def entropy_monitor(model: MaterialModel, snapshot: Snapshot) -> EnergyReport:
    """Discrete total energy and the cellwise dissipation sign check.

    total_energy = sum(rho*v^2/2 + W(F) + omega*sigma^2/2) * dx;
    max_sigma_production is max over cells of sigma*P(F, sigma) (<= 0 for
    every admissible model).
    """
    _require_stretch(snapshot.F)
    dens, sp = _audit_rows(model, snapshot.v, snapshot.F, snapshot.sigma)
    total = float(dens.sum() * (snapshot.x[1] - snapshot.x[0]))
    return EnergyReport(total_energy=total, max_sigma_production=float(sp.max()))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _Stepper:
    """The step loop on grid's ghost-padded state q = (rho*v, F, omega*sigma),
    in place, with q's span, the work buffers, the plan of the span's window,
    t, the step count and the pending half-step (and x and lam0, see kink)."""

    def __init__(self, model: MaterialModel, grid: Grid, q: np.ndarray):
        self.model, self.grid, self.q, self.ghosts = model, grid, q, _ghost_views(q)
        for ghosts, cell in self.ghosts:
            np.copyto(ghosts, cell)
        self.span = _initial_span(q, model)
        self.work = _work(q.shape[1])
        self.plan = _Plan(q, _window(*self.span, q.shape[1]), self.work)
        self.t, self.n_steps = 0.0, 0
        self.pending = 0.0  # trailing source half-step not yet applied

    @classmethod
    def kink(cls, model: MaterialModel, grid: Grid, ic: KinkIC) -> _Stepper:
        """The stepper of the kink ic on grid (see :class:`KinkIC`), with the
        interior cell centres x, which snapshot and the record read, and
        lam0, the fast speed at equilibrium."""
        eig = eigensystem(model, equilibrium_state())
        _require_fits(grid, ic)
        w = wb = ic.ramp_width
        x = grid.x_min + (np.arange(grid.n_cells) + 0.5) * grid.dx
        s = x - ic.x_front
        # piecewise: equilibrium ahead; mandated ramp pi0*d0*s on [-w, 0];
        # linear return to equilibrium on [-w-wb, -w]
        ramp = s.clip(-w, 0.0)
        back = ((s + w + wb) / wb).clip(0.0, 1.0)
        amp = np.where(s >= -w, ramp, -w * back)
        # row i: (pi0*d_i*amp)*(rho, 1, omega)[i], and F = 1 + row 1
        q = np.empty((3, grid.n_cells + 2 * _NG))   # the ghosts are filled by __init__
        with np.errstate(over="ignore"):   # refused below
            for d, c, row in zip(eig.d_plus, (model.rho_star, 1.0, model.omega), q[:, _NG:-_NG]):
                np.multiply(np.multiply(ic.pi0 * d, amp, out=row), c, out=row)
        F = np.add(q[1, _NG:-_NG], 1.0, out=q[1, _NG:-_NG])
        if not np.isfinite(q[:, _NG:-_NG]).all():
            raise ValueError("initial amplitude overflows the kink's state to a non-finite value")
        if (F <= 0.0).any():
            raise ValueError("initial amplitude drives the deformation gradient non-positive")
        stepper = cls(model, grid, q)
        stepper.x, stepper.lam0 = x, eig.lam
        return stepper

    def snapshot(self, t: float) -> Snapshot:
        """The state at time t, in new arrays."""
        q, model = self.q, self.model
        return Snapshot(t=t, x=self.x.copy(), v=q[0, _NG:-_NG] / model.rho_star,
                        F=q[1, _NG:-_NG].copy(), sigma=q[2, _NG:-_NG] / model.omega)

    def _source(self, h: float) -> None:
        """The relaxation source over h on the plan's window, in place:
        om*relax(F, sigma, h) into its omega*sigma row."""
        p, model, om = self.plan, self.model, self.model._consts.om
        sigma = np.divide(p.sigma, om, out=p.sigma)
        model.production.relax(p.F, sigma, h, model, p.relax_scratch)
        sigma *= om

    def _grow_span(self) -> None:
        """The span after a step of _window(*span), from the span alone: one
        cell more a side, or all cells up to a boundary within 2*_NG of it,
        whose ghosts are refilled here.  The ghosts of a boundary the span
        does not reach already equal its tail cells."""
        (lo, hi), n = self.span, self.q.shape[1]
        lo = lo - 1 if lo > 2 * _NG else 0
        hi = hi + 1 if hi < n - 2 * _NG else n
        if lo == 0:
            np.copyto(*self.ghosts[0])
        if hi == n:
            np.copyto(*self.ghosts[1])
        self.span = lo, hi

    def advance_to(self, target: float, t_end: float) -> None:
        """Step q to t = target, to within 1e-14*t_end (t_end the run's end),
        and apply the pending half-step, so q is the synchronized state."""
        model, grid, q = self.model, self.grid, self.q
        rho, om, n_cells, dx = model.rho_star, model.omega, grid.n_cells, grid.dx
        while self.t < target - 1e-14 * t_end:
            if self.n_steps >= MAX_STEPS:
                raise SimulationError(f"{self.n_steps} steps, the most a run may take, end "
                                      f"at t={self.t:.6g}, short of t={target:.6g}")
            if (cells := _window(*self.span, q.shape[1])) != self.plan.cells:
                self.plan = _Plan(q, cells, self.work)
            p, t = self.plan, self.t
            # the largest speed is the root of the largest discriminant
            W2 = _checked_W2(p.F, model, n_cells, p.cells[0], p.w2, p.tmp)
            speed = math.sqrt((om * W2.item(W2.argmax()) + 1.0) / (rho * om))
            dt = min(grid.cfl * dx / speed, target - t)
            if not (math.isfinite(dt) and dt > 0.0) or t + dt == t:
                # the first largest speed of the row, not discriminant:
                # rounding can make distinct discriminants give equal speeds
                W2 = _checked_W2(q[1], model, n_cells)
                i_cfl = int(np.argmax(np.sqrt((om * W2 + 1.0) / (rho * om))))
                raise SimulationError(
                    f"time step dt={dt:.6g} does not advance t={t:.6g} after "
                    f"{self.n_steps} steps (CFL limited by cell "
                    f"{_interior(i_cfl, n_cells)})")
            # the last step's trailing half-step merged with this one's
            # leading half-step: relax leaves F, and so dt and p.w2, unchanged
            self._source(self.pending + 0.5 * dt)
            self.pending = 0.5 * dt
            _hyperbolic_step(p, dt, dx, model)
            self._grow_span()
            self.t = t = t + dt
            self.n_steps += 1
            # the weighted row sums, all of them one product, are finite
            # unless some entry is (their total may overflow, silently)
            if not math.isfinite(sum(p.w.dot(p.weights).tolist())):
                bad = np.argwhere(~np.isfinite(p.w))
                if bad.size:
                    cell = _interior(p.cells[0] + int(bad[0][1]), n_cells)
                    raise SimulationError(f"non-finite state at t={t:.6g}, cell {cell}")
        if self.pending:
            # the last step's window still covers the span, which grew by
            # one cell a side, and holds cells of the same tails
            self._source(self.pending)
            self.pending = 0.0
        self.t = target


class _Record:
    """simulate's trace columns, at a cost per output of the order of the
    stepper's span.

    At each output the record copies the v values of the two front-fit
    windows from q (the snapshot's bits; a window that leaves the domain
    gives NaN, logged at debug level) and refreshes per-run rows of the
    energy density, sigma*P and |v(i+1) - v(i)|: the whole rows at its
    first output, then the span and one cell beyond each side, so every
    pair of neighbours with a cell in the span.  The energy, max sigma*P and
    max|v_X| are reductions of the whole rows, so they are bit for bit those
    of a snapshot: every cell outside the span holds its t = 0 state.  The
    fits of all outputs are one matrix product after the run, placed by the
    windows' first cell centres (see :func:`_front_fits`)."""

    def __init__(self, stepper: _Stepper, x_front: float, n_outputs: int):
        x, n = stepper.x, stepper.grid.n_cells
        self.stepper, self.x, self.lam0, self.x_front = stepper, x, stepper.lam0, x_front
        self.dx = x[1] - x[0]   # the cell width of entropy_monitor and _front_windows
        self.dens, self.sp, self.dv = np.empty(n), np.empty(n), np.empty(n - 1)
        self.v, self.sigma = np.empty(n), np.empty(n)
        self.rows = []   # (t, energy, max sigma*P, max|v_X|) of each output
        self.fits = []   # (output, front x, first cells of the windows) of each fit
        self.fit_mom = np.empty((n_outputs, 2, _FIT_HALF_WIDTH))   # rho*v of the windows

    def add(self, t: float) -> None:
        """The record of the stepper's synchronized state at time t."""
        st = self.stepper
        q, model, grid = st.q, st.model, st.grid
        fx = self.x_front + self.lam0 * t
        try:
            behind, ahead = _front_windows(self.x, fx, self.lam0, t)
        except SimulationError as exc:
            _log.debug("front measurement failed at t=%.6g: %s", t, exc)
        else:
            k, mom = len(self.rows), q[0, _NG:-_NG]
            self.fit_mom[k, 0], self.fit_mom[k, 1] = mom[behind], mom[ahead]
            self.fits.append((k, fx, (behind.start, ahead.start)))
        # the whole rows at t = 0, then the span and one cell beyond each side
        a, b = st.span if self.rows else (0, q.shape[1])
        lo, hi = max(a - 1 - _NG, 0), min(b + 1 - _NG, grid.n_cells)
        row, c = q[:, _NG + lo:_NG + hi], model._consts
        if row.size:
            _check_stretch(row[1], grid.n_cells, _NG + lo)
        v = np.divide(row[0], c.rho, out=self.v[lo:hi])
        _audit_rows(model, v, row[1], np.divide(row[2], c.om, out=self.sigma[lo:hi]),
                    self.dens[lo:hi], self.sp[lo:hi])
        dv = np.subtract(v[1:], v[:-1], out=self.dv[lo:hi - 1])
        np.abs(dv, out=dv)
        # argmax reads the max at a third of the cost: no NaN, no -0.0
        self.rows.append((t, float(self.dens.sum() * self.dx), float(self.sp.max()),
                          self.dv.item(self.dv.argmax()) / grid.dx))

    def columns(self):
        """The output times, measured amplitude, front position, energy, max
        sigma*P and max|v_X| as arrays."""
        t, energy, max_sp, vx = (np.array(c) for c in zip(*self.rows))
        measured, front = np.full(t.size, math.nan), np.full(t.size, math.nan)
        if self.fits:
            ks, fxs, starts = (np.array(c) for c in zip(*self.fits))
            measured[ks], front[ks] = _front_fits(
                self.x[starts], self.dx, self.fit_mom[ks] / self.stepper.model.rho_star, fxs,
                self.lam0)
        return t, measured, front, energy, max_sp, vx


def simulate(model: MaterialModel, grid: Grid, ic: KinkIC, t_end: float, *,
             output_every: float | None = None) -> SimResult:
    """Run the wavefront experiment from the kink ic on grid and sample the
    front amplitude.

    The predicted amplitude uses the material's coefficients a and b; a
    linearly degenerate material (a = 0) is predicted to decay as
    pi0*exp(-b*t).  Output samples land exactly on multiples of
    output_every (default t_end/50), as amplitude._output_times lays them.
    """
    times = _outputs(t_end, output_every)

    # the material's amplitude coefficients for the prediction column
    try:
        wc = coefficients_ab(model)
        a_eff, b_eff = wc.a, wc.b
    except DegenerateWaveError as exc:
        a_eff, b_eff = 0.0, exc.b

    stepper = _Stepper.kink(model, grid, ic)
    # a lower bound: no dt exceeds cfl*dx/lam0 while the equilibrium is in the window
    if (estimate := t_end * stepper.lam0 / (grid.cfl * grid.dx)) > MAX_STEPS:
        raise SimulationError(f"the run needs at least t_end*lam0/(cfl*dx) = {estimate:.6g} "
                              f"steps (lam0={stepper.lam0:.6g}), over MAX_STEPS = {MAX_STEPS}")
    record = _Record(stepper, ic.x_front, times.size)
    for target in times.tolist():
        stepper.advance_to(target, t_end)
        record.add(target)
    ts, measured, fronts, energies, max_sps, vx_maxes = record.columns()

    vx0 = max(vx_maxes[0], 1e-300)
    steepening_time = next((t for t, vx in zip(ts.tolist(), vx_maxes)
                            if vx > STEEPENING_FACTOR * vx0), None)
    trace = FrontTrace(
        t=ts, measured_pi=measured, predicted_pi=_predicted(a_eff, b_eff, ic.pi0, ts),
        front_x=fronts, energy=energies, max_sigma_production=max_sps,
        steepening_time=steepening_time, lambda0=stepper.lam0, a=a_eff, b=b_eff,
    )
    return SimResult(trace=trace, final=stepper.snapshot(t_end))
