"""Shared model builders for the test suite."""

import numpy as np
import pytest

from accelwave import (
    FluidParams,
    MooneyRivlin,
    Newtonian,
    PowerLaw,
    QuadraticCubic,
    RegularizedPowerLaw,
    SolidParams,
)


def rubber_solid() -> SolidParams:
    """Vulcanized-rubber benchmark constants (quadratic-cubic potential)."""
    return SolidParams(rho_star=929.0, E2=3.0e6, tau0=0.1,
                       elastic=QuadraticCubic(R=1.63), E1=2.12e6)


def penn_mooney_rivlin() -> MooneyRivlin:
    """Mooney-Rivlin constants fitted to Penn's rubber data."""
    return MooneyRivlin(C1=0.092e6, C2=0.237e6, k_bulk=2000.20e6, nu_bar=0.4998)


def penn_solid() -> SolidParams:
    return SolidParams(rho_star=929.0, E2=3.0e6, tau0=0.1,
                       elastic=penn_mooney_rivlin())


def unit_fluid(production=None) -> FluidParams:
    """Unit-constant fluid: R_gas=rho_star=tau0=mu0=1, so mu_tilde=2."""
    return FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                       production=production if production is not None else Newtonian())


def random_solid(rng: np.random.Generator) -> SolidParams:
    E1 = 10.0 ** rng.uniform(4, 8)
    E2 = 10.0 ** rng.uniform(4, 8)
    return SolidParams(
        rho_star=10.0 ** rng.uniform(1, 4),
        E2=E2,
        tau0=10.0 ** rng.uniform(-3, 1),
        elastic=QuadraticCubic(R=rng.uniform(0.2, 4.0)),
        E1=E1,
        nu_bar=rng.uniform(0.0, 0.5),
    )


def random_mr_solid(rng: np.random.Generator) -> SolidParams:
    scale = 10.0 ** rng.uniform(4, 7)
    return SolidParams(
        rho_star=10.0 ** rng.uniform(1, 4),
        E2=10.0 ** rng.uniform(4, 8),
        tau0=10.0 ** rng.uniform(-3, 1),
        elastic=MooneyRivlin(C1=rng.uniform(0.1, 2.0) * scale,
                             C2=rng.uniform(0.0, 2.0) * scale,
                             k_bulk=rng.uniform(10.0, 5000.0) * scale,
                             nu_bar=rng.uniform(0.2, 0.4999)),
    )


def random_fluid(rng: np.random.Generator, kind: str = "any") -> FluidParams:
    if kind == "any":
        kind = rng.choice(["newtonian", "power_law", "regularized"])
    if kind == "newtonian":
        prod = Newtonian()
    elif kind == "power_law":
        prod = PowerLaw(k_cons=10.0 ** rng.uniform(-2, 2), m=rng.uniform(0.3, 3.0))
    else:
        prod = RegularizedPowerLaw(k_cons=10.0 ** rng.uniform(-2, 2),
                                   m=rng.uniform(1.1, 3.0),
                                   eps=10.0 ** rng.uniform(-4, -1))
    return FluidParams(
        rho_star=10.0 ** rng.uniform(-1, 3),
        R_gas=10.0 ** rng.uniform(-1, 3),
        tau0=10.0 ** rng.uniform(-3, 1),
        mu0=10.0 ** rng.uniform(-2, 3),
        production=prod,
    )


def relaxed(model, F, sigma, h) -> np.ndarray:
    """The model's source step over h of copies of the rows F and sigma, with
    scratch rows of its own that hold NaN, as the FV step calls it."""
    F, sigma = np.array(F, dtype=float), np.array(sigma, dtype=float)
    return model.production.relax(F, sigma, h, model, tuple(np.full((3, F.size), np.nan)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
