"""Constitutive layer for the 1-D isothermal relaxation models.

Two material families are supported.  Viscoelastic solids carry an elastic
potential (a cubic expansion about the undeformed state, or a compressible
Mooney-Rivlin law reduced to uniaxial stretch) plus a relaxing viscous stress
with quadratic viscous energy.  Isothermal fluids carry the ideal-gas pressure
and a production term that is Newtonian, power-law, or an eps-regularized
power law.

Each law is a frozen dataclass that owns its math and its config ``kind``.
A material is an elastic part (W, T = W', W'' and W''') plus a production
part (P, dP and relax(F, sigma, h), the exact or implicit step of
omega*sigma_t = P at frozen F); the parts take the material last for its
constants.  The module-level functions check the stretch and delegate to the
parts, which accept scalar or ndarray stretch/stress inputs (the simulator
relies on the vectorized paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "QuadraticCubic",
    "MooneyRivlin",
    "IdealGas",
    "Maxwell",
    "SolidParams",
    "Newtonian",
    "PowerLaw",
    "RegularizedPowerLaw",
    "RelaxationError",
    "FluidParams",
    "MaterialModel",
    "PotentialDerivs",
    "SingularProductionSlope",
    "ProductionJacobian",
    "elastic_derivs",
    "mooney_rivlin_uniaxial_stress",
    "mooney_rivlin_tangent_modulus",
    "viscous_omega",
    "production",
    "production_jacobian",
    "zener_relaxation_response",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_stretch(F) -> None:
    if not np.all(np.asarray(F) > 0.0):
        raise ValueError("stretch F must be > 0")


@dataclass(frozen=True)
class PotentialDerivs:
    """W(F) and its first three stretch derivatives [Pa]."""

    W: float
    W1: float
    W2: float
    W3: float


@dataclass(frozen=True)
class SingularProductionSlope:
    """Tagged stand-in for P_sigma(F,0) = -infinity (unregularized m > 1).

    The divergence follows the power law P_sigma(F,0; eps) -> -coeff/eps**n as
    the regularization eps -> 0, with n = (m-1)/m.  Carrying (n, coeff)
    instead of a floating-point infinity lets downstream code classify the
    singular limit without doing arithmetic on inf.
    """

    n: float
    coeff: float


@dataclass(frozen=True)
class ProductionJacobian:
    P_F: float
    P_sigma: float | SingularProductionSlope


# ---------------------------------------------------------------------------
# Elastic parts: W, T = W', W'' and W''' of the stretch, given the material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticCubic:
    """Cubic elastic potential W(F) = E1/2 (F-1)^2 - E1*R/3 (F-1)^3.

    R >= 0 is the dimensionless cubic coefficient; the long-term modulus E1
    lives on :class:`SolidParams`.
    """

    kind: ClassVar[str] = "quadratic_cubic"
    derives_E1: ClassVar[bool] = False
    R: float

    def __post_init__(self):
        _require(self.R >= 0.0, f"cubic coefficient R must be >= 0, got {self.R}")

    def solid_constants(self, E1, nu_bar) -> tuple[float, float]:
        """The solid's (E1, nu_bar): E1 is required, nu_bar defaults to 1/2."""
        _require(E1 is not None and E1 > 0.0,
                 "E1 is required (and > 0) for the quadratic-cubic potential")
        return E1, 0.5 if nu_bar is None else nu_bar

    def W(self, F, solid: SolidParams):
        e = F - 1.0
        return solid.E1 * e * e * (0.5 - self.R * e / 3.0)

    def T(self, F, solid: SolidParams):
        e = F - 1.0
        return solid.E1 * e * (1.0 - self.R * e)

    def W2(self, F, solid: SolidParams):
        return solid.E1 * (1.0 - 2.0 * self.R * (F - 1.0))

    def W3(self, F, solid: SolidParams):
        return -2.0 * solid.E1 * self.R + 0.0 * F


@dataclass(frozen=True)
class MooneyRivlin:
    """Compressible Mooney-Rivlin strain energy with a bulk penalty.

    W = C1*(I1bar - 3) + C2*(I2bar - 3) + k_bulk/2*(J - 1)^2 in the unimodular
    invariants, reduced to a one-dimensional stress-stretch law along the
    uniaxial path with lateral contraction F_perp = F**(-nu_bar).  The solid's
    E1 is derived from these constants.
    """

    kind: ClassVar[str] = "mooney_rivlin"
    derives_E1: ClassVar[bool] = True
    C1: float       # first deviatoric constant [Pa]
    C2: float       # second deviatoric constant [Pa]
    k_bulk: float   # bulk penalty modulus [Pa]
    nu_bar: float   # Poisson ratio, in (0, 0.5]

    def __post_init__(self):
        _require(self.C1 >= 0.0 and self.C2 >= 0.0,
                 "C1 and C2 must be non-negative")
        _require(self.C1 + self.C2 > 0.0, "C1 + C2 must be positive")
        _require(self.k_bulk > 0.0, f"k_bulk must be > 0, got {self.k_bulk}")
        _require(0.0 < self.nu_bar <= 0.5,
                 f"nu_bar must lie in (0, 0.5], got {self.nu_bar}")

    def solid_constants(self, E1, nu_bar) -> tuple[float, float]:
        """The solid's (E1, nu_bar): E1 is derived (a supplied value must agree
        within 1%), nu_bar defaults to the Poisson ratio."""
        derived = mooney_rivlin_tangent_modulus(self)
        _require(derived > 0.0, "Mooney-Rivlin constants give a non-positive modulus")
        if E1 is not None:
            _require(abs(E1 - derived) <= 1e-2 * derived,
                     f"supplied E1={E1} disagrees with the derived "
                     f"tangent modulus {derived:.6g} by more than 1%")
        return derived, self.nu_bar if nu_bar is None else nu_bar

    def power_terms(self) -> tuple[tuple[float, float], ...]:
        # Uniaxial first Piola stress T(F) = dW/dF at fixed lateral stretch,
        # composed with F_perp = F**(-nu_bar); each contribution is a pure
        # power c * F**e, which makes the higher derivatives exact one-liners.
        nu = self.nu_bar
        return (
            (4.0 * self.C1 / 3.0, (1.0 + 4.0 * nu) / 3.0),
            (-4.0 * self.C1 / 3.0, -(5.0 + 2.0 * nu) / 3.0),
            (4.0 * self.C2 / 3.0, (2.0 * nu - 1.0) / 3.0),
            (-4.0 * self.C2 / 3.0, -(7.0 + 4.0 * nu) / 3.0),
            (self.k_bulk, 1.0 - 4.0 * nu),
            (-self.k_bulk, -2.0 * nu),
        )

    def W(self, F, solid: SolidParams | None = None):
        # W is the stretch integral of T from 1 to F.
        W = 0.0 * F
        for c, e in self.power_terms():
            if e == -1.0:
                W = W + c * np.log(F)
            else:
                # expm1 keeps F**(e+1) - 1 fully accurate; the bulk-penalty pair
                # nearly cancels and would otherwise lose ~6 digits near nu=1/2
                W = W + c * np.expm1((e + 1.0) * np.log(F)) / (e + 1.0)
        return W

    def _stress_derivative(self, F, k: int):
        """k-th stretch derivative of T = sum of c * F**e."""
        out = 0.0 * F
        for c, e in self.power_terms():
            for j in range(k):
                c = c * (e - j)
            out = out + c * F ** (e - k)
        return out

    def T(self, F, solid: SolidParams | None = None):
        return self._stress_derivative(F, 0)

    def W2(self, F, solid: SolidParams | None = None):
        return self._stress_derivative(F, 1)

    def W3(self, F, solid: SolidParams | None = None):
        return self._stress_derivative(F, 2)


def mooney_rivlin_uniaxial_stress(params: SolidParams | MooneyRivlin, F):
    """Uniaxial first Piola stress T(F) of the Mooney-Rivlin solid.

    T(1) = 0: the reference configuration is unstressed.
    """
    p = params.elastic if isinstance(params, SolidParams) else params
    if not isinstance(p, MooneyRivlin):
        raise ValueError("mooney_rivlin_uniaxial_stress needs a Mooney-Rivlin elastic part")
    _require_stretch(F)
    return p.T(F)


def mooney_rivlin_tangent_modulus(p: MooneyRivlin) -> float:
    """T'(1): the uniaxial tangent modulus at the undeformed state [Pa]."""
    return sum(c * e for c, e in p.power_terms())


@dataclass(frozen=True)
class IdealGas:
    """The fluid's elastic part: isothermal pressure p = p_ref/F, W' = -p."""

    def W(self, F, fluid: FluidParams):
        return -fluid.p_ref * np.log(F) + 0.0 * F

    def T(self, F, fluid: FluidParams):
        return -fluid.p_ref / F

    def W2(self, F, fluid: FluidParams):
        return fluid.p_ref / F ** 2

    def W3(self, F, fluid: FluidParams):
        return -2.0 * fluid.p_ref / F ** 3


# ---------------------------------------------------------------------------
# Production parts: P, dP and relax(F, sigma, h), given the material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Maxwell:
    """The solid's Maxwell branch: viscosity mu(F) = mu0 / F**(1 + 2*nu_bar)."""

    def P(self, F, sigma, solid: SolidParams):
        return -sigma * F ** (1.0 + 2.0 * solid.nu_bar) / solid.mu0

    def dP(self, F, sigma, solid: SolidParams) -> ProductionJacobian:
        q = 1.0 + 2.0 * solid.nu_bar
        return ProductionJacobian(
            P_F=-sigma * q * F ** (q - 1.0) / solid.mu0,
            P_sigma=-(F ** q) / solid.mu0,
        )

    def relax(self, F, sigma, h, solid: SolidParams):
        rate = F ** (1.0 + 2.0 * solid.nu_bar) / solid.tau0
        return sigma * np.exp(-h * rate)


def _power_prefactor(k_cons: float, m: float) -> float:
    # 2**(1/m - 1) * k**(-1/m); shared by the plain and regularized laws
    return 2.0 ** (1.0 / m - 1.0) * k_cons ** (-1.0 / m)


@dataclass(frozen=True)
class Newtonian:
    """Linear production P = -F*sigma/mu0 (power law with m=1, k=mu0)."""

    kind: ClassVar[str] = "newtonian"

    def P(self, F, sigma, fluid: FluidParams):
        return -F * sigma / fluid.mu0

    def dP(self, F, sigma, fluid: FluidParams) -> ProductionJacobian:
        return ProductionJacobian(P_F=-sigma / fluid.mu0, P_sigma=-F / fluid.mu0)

    def relax(self, F, sigma, h, fluid: FluidParams):
        return sigma * np.exp(-h * F / fluid.tau0)


@dataclass(frozen=True)
class PowerLaw:
    """Production reproducing the power-law stress/shear-rate relation."""

    kind: ClassVar[str] = "power_law"
    k_cons: float   # consistency [Pa s^m]
    m: float        # flow index: m<1 thinning, m=1 Newtonian, m>1 thickening

    def __post_init__(self):
        _require(self.k_cons > 0.0, "k_cons must be > 0")
        _require(self.m > 0.0, "flow index m must be > 0")

    def P(self, F, sigma, fluid: FluidParams):
        if self.m == 1.0:
            return -F * sigma / self.k_cons   # same arithmetic as Newtonian
        c = _power_prefactor(self.k_cons, self.m)
        # |sigma|**((1-m)/m) * sigma written as sign(sigma)*|sigma|**(1/m):
        # finite at sigma=0 for every m > 0.
        return -F * c * np.sign(sigma) * np.abs(sigma) ** (1.0 / self.m)

    def dP(self, F, sigma, fluid: FluidParams) -> ProductionJacobian:
        m = self.m
        if m == 1.0:
            return ProductionJacobian(P_F=-sigma / self.k_cons,
                                      P_sigma=-F / self.k_cons)
        c = _power_prefactor(self.k_cons, m)
        P_F = -c * math.copysign(abs(sigma) ** (1.0 / m), sigma) if sigma != 0.0 else 0.0
        if sigma != 0.0:
            P_sigma = -F * c / m * abs(sigma) ** (1.0 / m - 1.0)
        elif m < 1.0:
            P_sigma = 0.0
        else:
            P_sigma = SingularProductionSlope(n=(m - 1.0) / m, coeff=F * c)
        return ProductionJacobian(P_F=P_F, P_sigma=P_sigma)

    def relax(self, F, sigma, h, fluid: FluidParams):
        om = fluid.omega
        m = self.m
        if m == 1.0:
            return sigma * np.exp(-h * F / (om * self.k_cons))
        c = _power_prefactor(self.k_cons, m)
        K = F * c / om
        alpha = 1.0 / m
        # a zero keeps its sign bit; a non-finite sigma passes through to
        # the caller's finiteness check, as with the exact laws
        out = np.array(sigma, dtype=float)
        a_abs = np.abs(out)
        nz = np.isfinite(a_abs) & (a_abs > 0.0)
        if m > 1.0:
            # |sigma|^(1-alpha) decays linearly and hits zero in finite time
            base = a_abs[nz] ** (1.0 - alpha) - (1.0 - alpha) * K[nz] * h
            mag = np.maximum(base, 0.0) ** (1.0 / (1.0 - alpha))
        else:
            # algebraic decay, never reaching zero
            with np.errstate(over="ignore"):  # a subnormal |sigma|: inf here, 0 below
                base = a_abs[nz] ** (1.0 - alpha) + (alpha - 1.0) * K[nz] * h
            mag = base ** (1.0 / (1.0 - alpha))
        out[nz] = np.sign(out[nz]) * mag
        return out


@dataclass(frozen=True)
class RegularizedPowerLaw:
    """Shear-thickening power law with |eps + sigma| regularizing sigma=0."""

    kind: ClassVar[str] = "regularized"
    k_cons: float
    m: float        # > 1
    eps: float      # regularization stress [Pa]

    def __post_init__(self):
        _require(self.k_cons > 0.0, "k_cons must be > 0")
        _require(self.m > 1.0, "regularization only applies for m > 1")
        _require(self.eps > 0.0, "eps must be > 0")

    def P(self, F, sigma, fluid: FluidParams):
        c = _power_prefactor(self.k_cons, self.m)
        n = (self.m - 1.0) / self.m
        u = self.eps + sigma
        if np.ndim(sigma) == 0 and np.ndim(F) == 0:
            if u == 0.0:
                return math.inf  # limiting value as sigma -> -eps
            return -F * c * abs(u) ** (-n) * sigma
        with np.errstate(divide="ignore"):
            out = -F * c * np.abs(u) ** (-n) * sigma
        return np.where(u == 0.0, math.inf, out)

    def dP(self, F, sigma, fluid: FluidParams) -> ProductionJacobian:
        m = self.m
        c = _power_prefactor(self.k_cons, m)
        n = (m - 1.0) / m
        u = self.eps + sigma
        if u == 0.0:
            # one-sided limit from sigma > -eps
            return ProductionJacobian(P_F=math.inf, P_sigma=-math.inf)
        au = abs(u)
        P_F = -c * au ** (-n) * sigma
        P_sigma = -F * c * (au ** (-n) - n * sigma * math.copysign(au ** (-n - 1.0), u))
        return ProductionJacobian(P_F=P_F, P_sigma=P_sigma)

    def relax(self, F, sigma, h, fluid: FluidParams):
        """Backward Euler, sub-cycled so each sub-step stays within the
        stiff-rate scale, with every sub-step solved to tolerance.

        A sub-step from s0 solves s - s0 + K*s*(eps+s)**(-n) = 0 on the
        branch s > -eps, where the left side rises strictly from -inf to
        +inf: the one root lies between 0 and s0, or between -eps and 0 when
        s0 < -eps.  The finite non-zero cells are solved together by
        :func:`_regularized_substep`; one that does not converge raises
        :class:`RelaxationError`, so no unconverged value is returned.
        sigma = +-0 is the exact root for s0 = +-0; a non-finite sigma passes
        through, and a cell with a non-finite F comes out NaN and does not set
        the sub-cycle count, for the caller's finiteness check.
        """
        out = np.array(sigma, dtype=float)
        flat = out.reshape(-1)
        live = np.isfinite(flat) & (flat != 0.0)
        F = np.asarray(F, dtype=float)
        F = (F if F.shape == out.shape else np.broadcast_to(F, out.shape)).reshape(-1)
        F_max = F.max(initial=0.0)
        if not math.isfinite(F_max):
            finite = np.isfinite(F)
            flat[live & ~finite] = math.nan
            live &= finite
            F_max = F.max(where=finite, initial=0.0)
        om, m, eps = fluid.omega, self.m, self.eps
        c, n = _power_prefactor(self.k_cons, m), (m - 1.0) / m
        n_sub = max(1, int(math.ceil(h * (F_max * c / om * eps ** (-n)) / 5.0)))
        K = F[live] * (h / n_sub * c / om)
        s = flat[live]
        for _ in range(n_sub):
            s = _regularized_substep(s, K, eps, n, live)
        flat[live] = s
        return out


class RelaxationError(ArithmeticError):
    """An implicit source step that did not converge; ``cell`` is the flat
    index of the first failing cell in the sigma array."""

    def __init__(self, msg: str, cell: int):
        super().__init__(msg)
        self.cell = cell


_RELAX_RTOL = 1e-13     # per-cell relative step tolerance of the implicit solve
_RELAX_MAX_ITER = 100   # Newton/bisection iterations before a cell fails
_TINY = np.finfo(float).tiny


def _regularized_substep(s0, K, eps, n, live):
    """Per cell, the root s > -eps of r(s) = (s - s0)*(eps+s)**n + K*s.

    r has the sign of the backward-Euler residual, so the root is bracketed
    by [0, s0] for s0 > 0 and by [max(s0, -eps), 0] for s0 < 0.  For
    s0 > -eps, r is convex on the bracket, and Newton from the frozen-rate
    start s0/(1 + K*(eps+s0)**(-n)), which lies right of the root, never
    overshoots.  For s0 <= -eps the start is -eps + u with u**n =
    K*eps/(-s0 - eps), which bounds (eps + root)**n from above; a start that
    rounds to -eps is within half an ulp of the root and is kept.  The other
    cells all step until each passes the step test in the same iteration (a
    converged cell stays so: its steps are a few ulps).  A cell whose step
    leaves the starting bracket tightens it and bisects.  ``live`` masks the
    solved cells of sigma."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = s0 / (1.0 + K * np.abs(eps + s0) ** (-n))
        far = s0 <= -eps
        s[far] = np.minimum((K[far] * eps / (-s0[far] - eps)) ** (1.0 / n) - eps, 0.0)
        act = s != -eps                   # a start at -eps is kept as it is
        if np.count_nonzero(act) == act.size:
            act = slice(None)
        x0, Ka, x = s0[act], K[act], s[act]
        lo, hi = np.maximum(np.minimum(x0, 0.0), -eps), np.maximum(x0, 0.0)
        x_prev, r_prev = x, 0.0           # no residual sign before the loop
        for _ in range(_RELAX_MAX_ITER):
            u = eps + x
            p = u ** n                    # the one power of the iteration
            dp = (x - x0) * p
            r = dp + Ka * x
            step = r / (n * dp / u + p + Ka)
            x_new = x - step
            inside = (x_new >= lo) & (x_new <= hi)
            if np.count_nonzero(inside) < inside.size:
                x_new = _bisect_outside(inside, x_new, lo, hi, (x, r), (x_prev, r_prev))
                step = x - x_new
            done = np.abs(step) <= _RELAX_RTOL * np.abs(x_new) + _TINY
            x_prev, r_prev, x = x, r, x_new
            if np.count_nonzero(done) == done.size:
                s[act] = x
                return s
    i = np.arange(s0.size)[act][np.argmin(done)]
    raise RelaxationError(
        f"implicit source step did not converge in {_RELAX_MAX_ITER} "
        f"iterations (sigma={s0[i]:.6g})", int(np.flatnonzero(live)[i]))


def _bisect_outside(inside, x_new, lo, hi, *pairs):
    """x_new, but bisecting [lo, hi] where x_new left it, after tightening it in place
    at the (x, r) pairs (the last two iterates, as a step onto -eps is NaN)."""
    for x, r in pairs:
        np.copyto(lo, x, where=~inside & (r < 0.0))
        np.copyto(hi, x, where=~inside & (r > 0.0))
    return np.where(inside, x_new, 0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Materials: an elastic part and a production part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolidParams:
    """Viscoelastic solid: elastic potential + Maxwell branch (E2, tau0).

    The relaxation viscosity is mu(F) = mu0 / F**(1 + 2*nu_bar) with
    mu0 = E2*tau0.  For the Mooney-Rivlin variant E1 is derived from the
    potential (it equals the uniaxial tangent modulus at F=1) and may be
    omitted; for QuadraticCubic it is required.
    """

    kind: ClassVar[str] = "solid"
    production: ClassVar[Maxwell] = Maxwell()
    rho_star: float                               # reference density [kg/m^3]
    E2: float                                     # short-term modulus [Pa]
    tau0: float                                   # relaxation time [s]
    elastic: QuadraticCubic | MooneyRivlin
    E1: float | None = None                       # long-term modulus [Pa]
    nu_bar: float | None = None                   # exponent in mu(F)

    def __post_init__(self):
        _require(self.rho_star > 0.0, "rho_star must be > 0")
        _require(self.E2 > 0.0, "E2 must be > 0")
        _require(self.tau0 > 0.0, "tau0 must be > 0")
        if not isinstance(self.elastic, (QuadraticCubic, MooneyRivlin)):
            raise ValueError(f"unknown elastic variant: {self.elastic!r}")
        E1, nu_bar = self.elastic.solid_constants(self.E1, self.nu_bar)
        object.__setattr__(self, "E1", E1)
        object.__setattr__(self, "nu_bar", nu_bar)
        _require(0.0 <= self.nu_bar <= 0.5,
                 f"nu_bar must lie in [0, 0.5], got {self.nu_bar}")

    @property
    def dict_keys(self) -> tuple[str, ...]:
        """Keys of the dict form in canonical order; a derived E1 is left out."""
        keys = ("rho_star", "E1", "E2", "tau0", "nu_bar", "elastic")
        return tuple(k for k in keys if k != "E1" or not self.elastic.derives_E1)

    @property
    def mu0(self) -> float:
        """Dashpot viscosity mu0 = E2*tau0 [Pa s]."""
        return self.E2 * self.tau0

    @property
    def omega(self) -> float:
        return 1.0 / self.E2


@dataclass(frozen=True)
class FluidParams:
    """Isothermal compressible fluid with relaxing viscous stress.

    Pressure p = R_gas*rho_star/F; the viscous energy is quadratic, so
    omega = tau0/mu0 independent of sigma.
    """

    kind: ClassVar[str] = "fluid"
    dict_keys: ClassVar[tuple[str, ...]] = ("rho_star", "R_gas", "tau0", "mu0", "production")
    elastic: ClassVar[IdealGas] = IdealGas()
    rho_star: float   # reference density [kg/m^3]
    R_gas: float      # isothermal gas constant [m^2/s^2]
    tau0: float       # relaxation time [s]
    mu0: float        # viscosity scale fixing omega [Pa s]
    production: Newtonian | PowerLaw | RegularizedPowerLaw = field(default_factory=Newtonian)

    def __post_init__(self):
        _require(self.rho_star > 0.0, "rho_star must be > 0")
        _require(self.R_gas > 0.0, "R_gas must be > 0")
        _require(self.tau0 > 0.0, "tau0 must be > 0")
        _require(self.mu0 > 0.0, "mu0 must be > 0")

    @property
    def mu_tilde(self) -> float:
        """Dimensionless viscous-compressibility number 1 + mu0/(R_gas*rho_star*tau0)."""
        return 1.0 + self.mu0 / (self.R_gas * self.rho_star * self.tau0)

    @property
    def p_ref(self) -> float:
        """Pressure at the reference stretch F = 1 [Pa]."""
        return self.R_gas * self.rho_star

    @property
    def omega(self) -> float:
        return self.tau0 / self.mu0


MaterialModel = Union[SolidParams, FluidParams]


# ---------------------------------------------------------------------------
# Stretch-checked entry points
# ---------------------------------------------------------------------------

def elastic_derivs(model: MaterialModel, F) -> PotentialDerivs:
    """Potential W and derivatives along the uniaxial path (solid) or from the
    ideal-gas pressure W'(F) = -R_gas*rho_star/F (fluid).

    Accepts scalar or ndarray F (all entries > 0).
    """
    _require_stretch(F)
    el = model.elastic
    return PotentialDerivs(W=el.W(F, model), W1=el.T(F, model),
                           W2=el.W2(F, model), W3=el.W3(F, model))


def viscous_omega(model: MaterialModel) -> float:
    """omega of the quadratic viscous energy, constant in sigma: 1/E2 (solid),
    tau0/mu0 (fluid)."""
    return model.omega


def production(model: MaterialModel, F, sigma):
    """Stress production P(F, sigma); sign(P) = -sign(sigma), P(F, 0) = 0.

    Vectorized over F and sigma.
    """
    _require_stretch(F)
    return model.production.P(F, sigma, model)


def production_jacobian(model: MaterialModel, F: float, sigma: float) -> ProductionJacobian:
    """(P_F, P_sigma) at a point.  P_sigma is a :class:`SingularProductionSlope`
    for the unregularized power law with m > 1 at sigma = 0."""
    _require_stretch(F)
    return model.production.dP(F, sigma, model)


# ---------------------------------------------------------------------------
# Standard-linear-solid relaxation response
# ---------------------------------------------------------------------------

def zener_relaxation_response(params: SolidParams, strain_history: np.ndarray,
                              dt: float) -> np.ndarray:
    """Total stress S(t) = E1*eps + sigma for a uniformly sampled strain history.

    Integrates sigma' = E2*eps' - sigma/tau0 with RK4, treating the strain as
    piecewise linear between samples.  The initial strain value is applied as
    an instantaneous step from the virgin state, so sigma(0) = E2*eps(0) and
    S(0+) = (E1 + E2)*eps(0).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not isinstance(params.elastic, QuadraticCubic):
        raise ValueError("the standard-linear-solid reduction applies to the "
                         "quadratic-cubic potential")
    eps = np.asarray(strain_history, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ValueError("strain_history must be a non-empty 1-D array")
    E1, E2, tau0 = params.E1, params.E2, params.tau0
    sigma = np.empty_like(eps)
    sigma[0] = E2 * eps[0]
    s = sigma[0]
    for k in range(eps.size - 1):
        rate = (eps[k + 1] - eps[k]) / dt

        def rhs(x):
            return E2 * rate - x / tau0

        k1 = rhs(s)
        k2 = rhs(s + 0.5 * dt * k1)
        k3 = rhs(s + 0.5 * dt * k2)
        k4 = rhs(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sigma[k + 1] = s
    return E1 * eps + sigma
