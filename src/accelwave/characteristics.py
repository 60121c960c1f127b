"""Characteristic structure of the quasilinear system in u = (v, F, sigma).

The homogeneous part has speeds {-lambda, 0, +lambda} with closed-form
eigenvectors; around the equilibrium state (v=0, F=1, sigma=0) the fastest
family carries an amplitude equation pi' + a*pi^2 + b*pi = 0 whose
coefficients are assembled here, together with the coupling (Shizuta-
Kawashima) condition verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import MaterialModel, SingularProductionSlope, production_jacobian

__all__ = [
    "StateVector",
    "Eigensystem",
    "WaveCoefficients",
    "FamilyReport",
    "KConditionReport",
    "HyperbolicityError",
    "DegenerateWaveError",
    "SingularLimitError",
    "equilibrium_state",
    "quasilinear_matrix",
    "eigensystem",
    "grad_lambda",
    "source_jacobian",
    "coefficients_ab",
    "assemble_ab_numeric",
    "k_condition",
]


class HyperbolicityError(ValueError):
    """Raised when omega*W''(F) + 1 <= 0 and the system loses hyperbolicity."""


class DegenerateWaveError(RuntimeError):
    """Raised when the fastest field is linearly degenerate (a = 0).  ``b``
    is the damping coefficient, which the linear law pi' + b*pi = 0 keeps."""

    def __init__(self, msg: str, b: float):
        super().__init__(msg)
        self.b = b


class SingularLimitError(ArithmeticError):
    """Raised where a finite-b amplitude law is asked of a genuinely nonlinear
    field in the singular limit (b = inf)."""


@dataclass(frozen=True)
class StateVector:
    """Primitive state (v, F, sigma); equilibrium is (0, 1, 0)."""

    v: float
    F: float
    sigma: float

    def __post_init__(self):
        if not self.F > 0.0:
            raise ValueError(f"deformation gradient F must be > 0, got {self.F}")


def equilibrium_state() -> StateVector:
    return StateVector(v=0.0, F=1.0, sigma=0.0)


@dataclass(frozen=True)
class Eigensystem:
    """Speeds {-lam, 0, +lam} and right/left eigenvector pairs with l.d = 1.

    The -lam and 0 families mirror the +lam normalization convention.
    """

    lam: float
    d_plus: np.ndarray
    l_plus: np.ndarray
    d_minus: np.ndarray
    l_minus: np.ndarray
    d_zero: np.ndarray
    l_zero: np.ndarray


def quasilinear_matrix(model: MaterialModel, state: StateVector) -> np.ndarray:
    """Coefficient matrix A(u) of u_t + A u_X = f in the (v, F, sigma) field."""
    w2 = model.elastic.W2(state.F, model)
    rho = model.rho_star
    om = model.omega
    return np.array([
        [0.0, -w2 / rho, -1.0 / rho],
        [-1.0, 0.0, 0.0],
        [-1.0 / om, 0.0, 0.0],
    ])


def _lambda_sq(model: MaterialModel, F: float) -> float:
    """The squared fast speed, after the hyperbolicity check."""
    om = model.omega
    disc = om * model.elastic.W2(F, model) + 1.0
    if not disc > 0.0:   # NaN fails too
        raise HyperbolicityError(
            f"omega*W''(F) + 1 = {disc:.6g} is not > 0 at F={F}: system not hyperbolic")
    return disc / (model.rho_star * om)


def eigensystem(model: MaterialModel, state: StateVector) -> Eigensystem:
    """Closed-form eigenstructure of A(u) at the given state."""
    w2 = model.elastic.W2(state.F, model)
    rho = model.rho_star
    om = model.omega
    lam = math.sqrt(_lambda_sq(model, state.F))
    d_plus = np.array([-1.0 / lam, 1.0 / lam ** 2, 1.0 / (lam ** 2 * om)])
    l_plus = 0.5 * np.array([-lam, w2 / rho, 1.0 / rho])
    d_minus = np.array([1.0 / lam, 1.0 / lam ** 2, 1.0 / (lam ** 2 * om)])
    l_minus = 0.5 * np.array([lam, w2 / rho, 1.0 / rho])
    disc = om * w2 + 1.0
    d_zero = np.array([0.0, 1.0, -w2])
    l_zero = np.array([0.0, 1.0 / disc, -om / disc])
    return Eigensystem(lam=lam, d_plus=d_plus, l_plus=l_plus,
                       d_minus=d_minus, l_minus=l_minus,
                       d_zero=d_zero, l_zero=l_zero)


def grad_lambda(model: MaterialModel, state: StateVector) -> np.ndarray:
    """Gradient of the fast speed in (v, F, sigma).

    The sigma component vanishes: omega is constant for the quadratic
    viscous energy.
    """
    lam = math.sqrt(_lambda_sq(model, state.F))
    rho = model.rho_star
    w3 = model.elastic.W3(state.F, model)
    return (1.0 / (2.0 * lam * rho)) * np.array([0.0, w3, 0.0])


def source_jacobian(model: MaterialModel, state: StateVector) -> np.ndarray:
    """Gradient of the quasilinear source f = (0, 0, P/omega) in (v, F, sigma)."""
    jac = production_jacobian(model, state.F, state.sigma)
    if isinstance(jac.P_sigma, SingularProductionSlope):
        raise ValueError("source_jacobian needs a finite P_sigma; the "
                         "unregularized law is singular at sigma=0")
    om = model.omega
    grad_f = np.zeros((3, 3))
    grad_f[2, 1] = jac.P_F / om
    grad_f[2, 2] = jac.P_sigma * om / om ** 2   # quotient rule with omega' = 0
    return grad_f


# ---------------------------------------------------------------------------
# Amplitude-equation coefficients at equilibrium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveCoefficients:
    """Amplitude-equation data for the fast family at equilibrium.

    The paper's trichotomy is read off b alone (see ``case``).  An
    unregularized singular limit also carries its divergence law
    b(eps) = b0/eps**n as n and b0, None elsewhere, never used in arithmetic.
    """

    lambda0: float   # [m/s]
    a: float         # [s/m]
    b: float         # [1/s]
    n: float | None = None
    b0: float | None = None

    @property
    def pi_cr(self) -> float:
        """Blow-up threshold b/|a| [m/s^2]: 0.0 where b = 0, inf where b = inf."""
        return self.b / abs(self.a)

    @property
    def case(self) -> str:
        """b = 0: "degenerate", every positive amplitude blows up; b = inf:
        "singular_limit", damped on the fast time scale eps**n/b0."""
        if self.b == math.inf:
            return "singular_limit"
        return "degenerate" if self.b == 0.0 else "dissipative_finite"


def coefficients_ab(model: MaterialModel) -> WaveCoefficients:
    """Closed-form (lambda0, a, b) at the equilibrium state.  Raises
    DegenerateWaveError, which carries b, when a = 0."""
    eq = equilibrium_state()
    el = model.elastic
    rho = model.rho_star
    om = model.omega
    # lam0^2 taken without squaring the square root keeps b exact for
    # closed-form-friendly constants
    lam0_sq = _lambda_sq(model, eq.F)
    lam0 = math.sqrt(lam0_sq)
    # the om**3 factors of the general form (omega' = 0 here) fix the rounding
    a = om ** 3 * el.W3(eq.F, model) / (2.0 * lam0 * lam0_sq * rho * om ** 3)
    ps = production_jacobian(model, eq.F, eq.sigma).P_sigma
    denom = 2.0 * rho * lam0_sq * om ** 2
    singular = isinstance(ps, SingularProductionSlope)
    b = math.inf if singular else -ps / denom
    if a == 0.0:
        raise DegenerateWaveError(
            "fast field is linearly degenerate (W'''(1) = 0 with constant "
            "omega); check the material constants", b)
    if singular:
        return WaveCoefficients(lam0, a, math.inf, n=ps.n, b0=ps.coeff / denom)
    return WaveCoefficients(lam0, a, b + 0.0)   # + 0.0: a -0.0 b reads as 0.0


def assemble_ab_numeric(model: MaterialModel) -> tuple[float, float]:
    """(a, b) rebuilt from the component operations: a = grad(lambda).d and
    b = -l.grad(f).d at equilibrium.  Cross-checks the closed forms."""
    eq = equilibrium_state()
    eig = eigensystem(model, eq)
    a = float(np.dot(grad_lambda(model, eq), eig.d_plus))
    grad_f = source_jacobian(model, eq)
    b = -float(eig.l_plus @ grad_f @ eig.d_plus)
    return a, b


# ---------------------------------------------------------------------------
# Coupling condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyReport:
    genuinely_nonlinear: bool
    grad_f_dot_d_nonzero: bool


@dataclass(frozen=True)
class KConditionReport:
    """Per-family coupling verdicts at equilibrium.

    full_K: every family carries a nonzero jump of the source gradient.
    weak_K: the same restricted to genuinely nonlinear families.
    """

    minus: FamilyReport
    zero: FamilyReport
    plus: FamilyReport
    full_K: bool
    weak_K: bool


def k_condition(model: MaterialModel) -> KConditionReport:
    """Coupling-condition verdicts for the three characteristic families."""
    eq = equilibrium_state()
    eig = eigensystem(model, eq)
    jac = production_jacobian(model, eq.F, eq.sigma)
    om = model.omega

    def coupled(d: np.ndarray) -> bool:
        if isinstance(jac.P_sigma, SingularProductionSlope):
            # a divergent slope is in particular nonzero
            return True
        # on Python floats an overflow is a silent inf
        return (jac.P_F * d[1].item() + jac.P_sigma * d[2].item()) / om != 0.0

    gn_fast = float(np.dot(grad_lambda(model, eq), eig.d_plus)) != 0.0
    fams = {
        "minus": FamilyReport(gn_fast, coupled(eig.d_minus)),
        "zero": FamilyReport(False, coupled(eig.d_zero)),  # grad(lam)=0 identically
        "plus": FamilyReport(gn_fast, coupled(eig.d_plus)),
    }
    full = all(f.grad_f_dot_d_nonzero for f in fams.values())
    weak = all(f.grad_f_dot_d_nonzero for f in fams.values() if f.genuinely_nonlinear)
    return KConditionReport(minus=fams["minus"], zero=fams["zero"],
                            plus=fams["plus"], full_K=full, weak_K=weak)
