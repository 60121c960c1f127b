"""Constitutive layer for the 1-D isothermal relaxation models.

Two material families are supported.  Viscoelastic solids carry an elastic
potential (a cubic expansion about the undeformed state, or a compressible
Mooney-Rivlin law reduced to uniaxial stretch) plus a relaxing viscous stress
with quadratic viscous energy.  Isothermal fluids carry the ideal-gas pressure
and a production term that is Newtonian, power-law, or an eps-regularized
power law.

Each law is a frozen dataclass that owns its math and its config ``kind``.
A material is an elastic part (W, T = W', W'' and W''') plus a production
part (P, dP and relax(F, sigma, h), the step of omega*sigma_t = P at
frozen F: exact, or for the regularized power law explicit exponential
midpoint steps); the parts take the material last for its constants.  The
module-level functions check the stretch and delegate to the parts, which
accept scalar or ndarray stretch/stress inputs (the simulator relies on the
vectorized paths).

The finite-volume step passes ``out``, an array of F's shape, to T, W2 and
relax, and to T and W2 also ``scratch``, a second such array for formulas
that hold two arrays at once.  The result is then written into out, bit for
bit the value of the call without out, which runs the plain expression
(scalar inputs keep their Python floats).  The elastic laws, Maxwell and
Newtonian then allocate no array of F's size; the power laws' relax copies
its result into out.
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
    "FluidParams",
    "MaterialModel",
    "PotentialDerivs",
    "SingularProductionSlope",
    "ProductionJacobian",
    "elastic_derivs",
    "production",
    "production_jacobian",
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

    def T(self, F, solid: SolidParams, out=None, scratch=None):
        if out is None:
            e = F - 1.0
            return solid.E1 * e * (1.0 - self.R * e)
        e = np.subtract(F, 1.0, out=out)
        c = np.subtract(1.0, np.multiply(e, self.R, out=scratch), out=scratch)
        e *= solid.E1
        e *= c
        return e

    def W2(self, F, solid: SolidParams, out=None, scratch=None):
        if out is None:
            return solid.E1 * (1.0 - 2.0 * self.R * (F - 1.0))
        out = np.subtract(F, 1.0, out=out)
        out *= 2.0 * self.R
        np.subtract(1.0, out, out=out)
        out *= solid.E1
        return out

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
        derived = self.W2(1.0)   # T'(1), the uniaxial tangent modulus
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

    def _stress_derivative(self, F, k: int, out=None, scratch=None):
        """k-th stretch derivative of T = sum of c * F**e."""
        total = 0.0 * F if out is None else np.multiply(F, 0.0, out=out)
        for c, e in self.power_terms():
            for j in range(k):
                c = c * (e - j)
            if out is None:
                total = total + c * F ** (e - k)
            else:
                total += np.multiply(np.power(F, e - k, out=scratch), c, out=scratch)
        return total

    def T(self, F, solid: SolidParams | None = None, out=None, scratch=None):
        return self._stress_derivative(F, 0, out, scratch)

    def W2(self, F, solid: SolidParams | None = None, out=None, scratch=None):
        return self._stress_derivative(F, 1, out, scratch)

    def W3(self, F, solid: SolidParams | None = None):
        return self._stress_derivative(F, 2)


@dataclass(frozen=True)
class IdealGas:
    """The fluid's elastic part: isothermal pressure p = p_ref/F, W' = -p."""

    def W(self, F, fluid: FluidParams):
        return -fluid.p_ref * np.log(F) + 0.0 * F

    def T(self, F, fluid: FluidParams, out=None, scratch=None):
        if out is None:
            return -fluid.p_ref / F
        return np.divide(-fluid.p_ref, F, out=out)

    def W2(self, F, fluid: FluidParams, out=None, scratch=None):
        if out is None:
            return fluid.p_ref / F ** 2
        return np.divide(fluid.p_ref, np.power(F, 2, out=out), out=out)

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

    def relax(self, F, sigma, h, solid: SolidParams, out=None):
        if out is None:
            rate = F ** (1.0 + 2.0 * solid.nu_bar) / solid.tau0
            return sigma * np.exp(-h * rate)
        rate = np.power(F, 1.0 + 2.0 * solid.nu_bar, out=out)
        rate /= solid.tau0
        rate *= -h
        return np.multiply(np.exp(rate, out=rate), sigma, out=rate)


def _copy_of(sigma, out):
    """sigma as a float array of its own: copied into out, if given."""
    if out is None:
        return np.array(sigma, dtype=float)
    np.copyto(out, sigma)
    return out


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

    def relax(self, F, sigma, h, fluid: FluidParams, out=None):
        if out is None:
            return sigma * np.exp(-h * F / fluid.tau0)
        rate = np.multiply(F, -h, out=out)
        rate /= fluid.tau0
        return np.multiply(np.exp(rate, out=rate), sigma, out=rate)


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

    def relax(self, F, sigma, h, fluid: FluidParams, out=None):
        om = fluid.omega
        m = self.m
        if m == 1.0:
            return np.multiply(sigma, np.exp(-h * F / (om * self.k_cons)), out=out)
        c = _power_prefactor(self.k_cons, m)
        K = F * c / om
        alpha = 1.0 / m
        # a zero keeps its sign bit; a non-finite sigma passes through to
        # the caller's finiteness check, as with the exact laws
        out = _copy_of(sigma, out)
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
    """Shear-thickening power law with |eps + sigma| regularizing sigma=0.

    Its relax has no closed form; it takes sub-cycled exponential midpoint
    steps, explicit and second order away from sigma = -eps.
    """

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
        with np.errstate(divide="ignore"):
            out = -F * c * np.abs(u) ** (-n) * sigma
        return np.where(u == 0.0, math.inf, out)[()]  # inf: the limit as sigma -> -eps

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

    def relax(self, F, sigma, h, fluid: FluidParams, out=None):
        """Exponential midpoint steps, sub-cycled so each sub-step stays
        within the stiff-rate scale.

        At frozen F the source is sigma' = -rate(sigma)*sigma with
        rate(s) = k*|eps + s|**(-n) and k = F*c/omega.  A sub-step of length
        h freezes the rate twice: s_m = s*exp(-(h/2)*rate(s)), then
        s*exp(-h*rate(s_m)), which is second order away from s = -eps
        (Hochbruck & Ostermann, Acta Numerica 2010).  Each factor lies in
        [0, 1], so the sign is kept and |sigma| never grows, on both sides
        of -eps; nothing iterates.  A sub-step from s = -eps (rate inf) has
        s_m = -0 and ends finite; one whose midpoint lands on -eps, or so
        near it that its factor underflows, ends at +-0 of its sign.
        sigma = +-0 is a fixed point and h = 0 returns sigma as it is; a
        non-finite sigma passes through, and a cell with a non-finite F
        comes out NaN and does not set the sub-cycle count, for the caller's
        finiteness check.
        """
        out = _copy_of(sigma, out)
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
        n_sub = math.ceil(h * (F_max * c / om * eps ** (-n)) / 5.0)
        if n_sub == 0:   # h = 0, where h*rate would be NaN at sigma = -eps
            return out
        full = F[live] * (-h / n_sub * c / om)   # -h*k of a sub-step
        half = full * 0.5
        s = flat[live]
        x = np.empty_like(s)
        with np.errstate(divide="ignore", over="ignore"):   # rate(-eps) = inf
            for _ in range(n_sub):
                s_m = np.multiply(s, _decay(s, eps, n, half, x), out=x)
                s *= _decay(s_m, eps, n, full, x)
        flat[live] = s
        return out


def _decay(s, eps, n, hk, out):
    """exp(hk*|eps + s|**(-n)) into out: the factor of a frozen-rate step of
    the regularized law, with hk = -h*k < 0."""
    np.add(s, eps, out=out)
    np.power(np.abs(out, out=out), -n, out=out)
    out *= hk
    return np.exp(out, out=out)


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
        """omega of the quadratic viscous energy, constant in sigma: 1/E2."""
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
        """omega of the quadratic viscous energy, constant in sigma: tau0/mu0."""
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
