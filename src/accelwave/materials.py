"""Constitutive layer for the 1-D isothermal relaxation models.

Two material families are supported.  Viscoelastic solids carry an elastic
potential (a cubic expansion about the undeformed state, or a compressible
Mooney-Rivlin law reduced to uniaxial stretch) plus a relaxing viscous stress
with quadratic viscous energy.  Isothermal fluids carry the ideal-gas pressure
and a production term that is Newtonian, power-law, or an eps-regularized
power law.

Each law is a frozen dataclass that owns its math and its config ``kind``.
A material is an elastic part (W, T = W', W'' and W''') plus a production
part (P, dP and relax, the step of omega*sigma_t = P at frozen F: exact,
or for the regularized power law explicit exponential midpoint steps); the
parts take the material after their operands, for its constants.  The
plain power law's exact step is one formula for every m != 1:
|sigma|^(1 - 1/m) falls linearly in t, clamped at 0, which it reaches in
finite time for m > 1 only.  The module-level functions check the stretch
and delegate to the parts, which accept scalar or ndarray stretch/stress
inputs (the simulator relies on the vectorized paths).

The finite-volume step passes ``out``, an array of F's shape, to T and W2,
and ``scratch``, a second such array, whose formulas hold two arrays at
once.  A call without them runs the same body on arrays it allocates; W2
alone (and Mooney-Rivlin's T, which shares its sum) keeps a plain
expression for a call without out, which the characteristics make on
Python floats.  The source step has one contract: relax(F, sigma, h, model,
scratch) steps the float64 row sigma over h in place and returns it (over
h = 0 bit for bit as it was), where F is the matching row, finite and > 0,
and scratch is three float rows of its size (the exact laws' rate takes the
first, the plain power law's new |sigma| the second, the regularized law's
steps all three).  The buffered paths take their constants as 0-d float64
arrays (see _zero_d), built once per law and material instance by its
private ``_consts``; the regularized law's also holds c, n and eps**(-n) as
Python floats for scalar arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
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
    # argmin picks the first NaN, if any: at a third of the cost of all(F > 0)
    F = np.asarray(F)
    if F.size and not F.item(F.argmin()) > 0.0:
        raise ValueError("stretch F must be > 0")


def _zero_d(**values: float) -> SimpleNamespace:
    """The values as read-only 0-d float64 arrays: a ufunc takes one as an
    operand at about 0.35 us a call against about 0.6 us for the Python
    float, with the same bits (NEP 50 makes the float a float64)."""
    arrays = {}
    for name, value in values.items():
        arrays[name] = a = np.array(value, dtype=float)
        a.flags.writeable = False
    return SimpleNamespace(**arrays)


_NUM = _zero_d(zero=0.0, half=0.5, one=1.0, two=2.0)
MAX_SUBSTEPS = 10**6  # sub-steps of one regularized source step; asking for more raises


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
    is a field of :class:`SolidParams`.
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

    @cached_property
    def _consts(self) -> SimpleNamespace:
        return _zero_d(R=self.R, two_R=2.0 * self.R)

    def W(self, F, solid: SolidParams):
        e = F - 1.0
        return solid.E1 * e * e * (0.5 - self.R * e / 3.0)

    def T(self, F, solid: SolidParams, out=None, scratch=None):
        e = np.subtract(F, _NUM.one, out=out)
        c = np.subtract(_NUM.one, np.multiply(e, self._consts.R, out=scratch), out=scratch)
        e *= solid._consts.E1
        e *= c
        return e

    def W2(self, F, solid: SolidParams, out=None, scratch=None):
        if out is None:
            return solid.E1 * (1.0 - 2.0 * self.R * (F - 1.0))
        out = np.subtract(F, _NUM.one, out=out)
        out *= self._consts.two_R
        np.subtract(_NUM.one, out, out=out)
        out *= solid._consts.E1
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
        return -fluid.p_ref * np.log(F)

    def T(self, F, fluid: FluidParams, out=None, scratch=None):
        return np.divide(fluid._consts.neg_p_ref, F, out=out)

    def W2(self, F, fluid: FluidParams, out=None, scratch=None):
        if out is None:
            return fluid.p_ref / F ** 2
        return np.divide(fluid._consts.p_ref, np.power(F, _NUM.two, out=out), out=out)

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

    def relax(self, F, sigma, h, solid: SolidParams, scratch):
        if h == 0.0:   # the identity, where F**q overflows and -h*inf is NaN
            return sigma
        rate = np.power(F, solid._consts.q, out=scratch[0])
        rate /= solid._consts.tau0
        rate *= -h
        return np.multiply(np.exp(rate, out=rate), sigma, out=sigma)


def _power(x: float, y: float) -> float:
    """x**y of Python floats, inf where it overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _power_prefactor(k_cons: float, m: float) -> float:
    # 2**(1/m - 1) * k**(-1/m), not finite where it overflows; both power laws refuse that
    return _power(2.0, 1.0 / m - 1.0) * _power(k_cons, -1.0 / m)


@dataclass(frozen=True)
class Newtonian:
    """Linear production P = -F*sigma/mu0 (power law with m=1, k=mu0)."""

    kind: ClassVar[str] = "newtonian"

    def P(self, F, sigma, fluid: FluidParams):
        return -F * sigma / fluid.mu0

    def dP(self, F, sigma, fluid: FluidParams) -> ProductionJacobian:
        return ProductionJacobian(P_F=-sigma / fluid.mu0, P_sigma=-F / fluid.mu0)

    def relax(self, F, sigma, h, fluid: FluidParams, scratch):
        rate = np.multiply(F, -h, out=scratch[0])
        rate /= fluid._consts.tau0
        return np.multiply(np.exp(rate, out=rate), sigma, out=sigma)


@dataclass(frozen=True)
class PowerLaw:
    """Production reproducing the power-law stress/shear-rate relation."""

    kind: ClassVar[str] = "power_law"
    k_cons: float   # consistency [Pa s^m]
    m: float        # flow index: m<1 thinning, m=1 Newtonian, m>1 thickening

    def __post_init__(self):
        _require(self.k_cons > 0.0, "k_cons must be > 0")
        _require(self.m > 0.0, "flow index m must be > 0")
        _require(math.isfinite(_power_prefactor(self.k_cons, self.m)),
                 f"k_cons={self.k_cons:g} and m={self.m:g} overflow 2**(1/m - 1)*k_cons**(-1/m)")

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

    def relax(self, F, sigma, h, fluid: FluidParams, scratch):
        if h == 0.0:   # the identity, where F*c/omega overflows or |sigma|**p underflows
            return sigma
        om = fluid.omega
        m = self.m
        rate = scratch[0]
        if m == 1.0:
            np.divide(np.multiply(F, -h, out=rate), om * self.k_cons, out=rate)
            return np.multiply(sigma, np.exp(rate, out=rate), out=sigma)
        p = 1.0 - 1.0 / m
        # only m > 1 meets the clamp; an inf (|0|**p, an overflow) ends at 0;
        # a zero stays as it is, also where a NaN rate (NaN F) makes mag NaN
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(np.multiply(F, _power_prefactor(self.k_cons, m), out=rate), om, out=rate)
            rate *= p
            rate *= h
            mag = np.power(np.abs(sigma, out=scratch[1]), p, out=scratch[1])
            mag -= rate
            np.power(np.maximum(mag, 0.0, out=mag), 1.0 / p, out=mag)
        return np.multiply(np.sign(sigma, out=rate), mag, out=sigma, where=sigma != 0.0)


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
        _require(math.isfinite(self._consts.c * self._consts.eps_neg_n),
                 f"k_cons={self.k_cons:g}, m={self.m:g} and eps={self.eps:g} overflow c*eps**(-n)")

    @cached_property
    def _consts(self) -> SimpleNamespace:
        n = (self.m - 1.0) / self.m
        k = _zero_d(eps=self.eps, neg_n=-n)
        k.c, k.n, k.eps_neg_n = _power_prefactor(self.k_cons, self.m), n, _power(self.eps, -n)
        return k

    @np.errstate(divide="ignore")   # as a decorator, cheaper
    def P(self, F, sigma, fluid: FluidParams):
        k, u = self._consts, self.eps + sigma
        out = -F * k.c * np.abs(u) ** (-k.n) * sigma
        # inf where u = 0, the limit as sigma -> -eps: out is +inf, -inf or
        # NaN there, so an array with no NaN and no -inf holds it already
        if np.ndim(out) and out.size and out.item(out.argmin()) > -math.inf:
            return out
        return np.where(u == 0.0, math.inf, out)[()]

    def dP(self, F, sigma, fluid: FluidParams) -> ProductionJacobian:
        c, n, u = self._consts.c, self._consts.n, self.eps + sigma
        if u == 0.0:
            # one-sided limit from sigma > -eps
            return ProductionJacobian(P_F=math.inf, P_sigma=-math.inf)
        au = abs(u)
        P_F = -c * au ** (-n) * sigma
        # the sigma term is 0 at sigma = 0, where its power may overflow
        slope = n * sigma * math.copysign(au ** (-n - 1.0), u) if sigma else 0.0
        P_sigma = -F * c * (au ** (-n) - slope)
        return ProductionJacobian(P_F=P_F, P_sigma=P_sigma)

    def relax(self, F, sigma, h, fluid: FluidParams, scratch):
        """Exponential midpoint steps of sigma in place, sub-cycled so each
        sub-step stays within the stiff-rate scale.

        At frozen F the source is sigma' = -rate(sigma)*sigma with
        rate(s) = k*|eps + s|**(-n) and k = F*c/omega.  A sub-step of length
        h freezes the rate twice: s_m = s*exp(-(h/2)*rate(s)), then
        s*exp(-h*rate(s_m)), which is second order away from s = -eps
        (Hochbruck & Ostermann, Acta Numerica 2010).  Each factor lies in
        [0, 1], so the sign is kept and |sigma| never grows, on both sides
        of -eps; nothing iterates.  A sub-step from s = -eps (rate inf) has
        s_m = -0 and ends finite; one whose midpoint lands on -eps, or so
        near it that its factor underflows, ends at +-0 of its sign.  At
        sigma = +-0 both factors lie in (0, 1], so the bits stay, as for
        h = 0.  More than MAX_SUBSTEPS sub-steps raise ValueError.
        """
        if h == 0.0:   # the identity, where the count would be 0*inf = NaN
            return sigma
        k, om = self._consts, fluid.omega
        count = h * (F.item(F.argmax()) * k.c / om * k.eps_neg_n) / 5.0
        if not count <= MAX_SUBSTEPS:
            raise ValueError(f"the regularized source step over h={h:.6g} asks for {count:.6g} "
                             f"sub-steps at eps={self.eps:.6g}, more than {MAX_SUBSTEPS}")
        n_sub = math.ceil(count)
        if n_sub:   # 0 where the count underflows
            full, half, x = scratch
            np.multiply(F, -h / n_sub * k.c / om, out=full)   # -h*k of a sub-step
            if full.item(full.argmax()) > -1e-323:   # its half underflows; -0*rate(-eps) is NaN
                np.minimum(full, -1e-323, out=full)
            np.multiply(full, _NUM.half, out=half)
            _midpoint_steps(sigma, k, half, full, x, n_sub)
        return sigma


@np.errstate(divide="ignore", over="ignore")   # rate(-eps) = inf; as a decorator, cheaper
def _midpoint_steps(s, k, half, full, x, n_sub: int) -> None:
    """n_sub sub-steps of s in place; half and full are -h*k/2 and -h*k."""
    for _ in range(n_sub):
        s_m = np.multiply(s, _decay(s, k, half, x), out=x)
        s *= _decay(s_m, k, full, x)


def _decay(s, k, hk, out):
    """exp(hk*|eps + s|**(-n)) into out: the factor of a frozen-rate step of
    the regularized law, with hk = -h*k < 0 and k the law's 0-d eps and
    neg_n = -n."""
    np.add(s, k.eps, out=out)
    np.power(np.abs(out, out=out), k.neg_n, out=out)
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

    @cached_property
    def _consts(self) -> SimpleNamespace:
        return _zero_d(rho=self.rho_star, om=self.omega, rho_om=self.rho_star * self.omega,
                       E1=self.E1, tau0=self.tau0, q=1.0 + 2.0 * self.nu_bar)


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

    @cached_property
    def _consts(self) -> SimpleNamespace:
        return _zero_d(rho=self.rho_star, om=self.omega, rho_om=self.rho_star * self.omega,
                       tau0=self.tau0, p_ref=self.p_ref, neg_p_ref=-self.p_ref)


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
