"""Constitutive layer: potentials, production terms, dissipation structure."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from accelwave import (
    FluidParams,
    MooneyRivlin,
    PowerLaw,
    QuadraticCubic,
    RegularizedPowerLaw,
    SingularProductionSlope,
    SolidParams,
    elastic_derivs,
    production,
    production_jacobian,
)
from accelwave.materials import _power_prefactor
from conftest import (
    penn_mooney_rivlin,
    penn_solid,
    random_fluid,
    random_mr_solid,
    random_solid,
    rubber_solid,
    unit_fluid,
)

# sympy cross-derivation of the Mooney-Rivlin derivatives at F=1 (Penn constants)
PENN_W2 = 2115904.5333333015
PENN_W3 = -6926598.847643852

mp.dps = 50


def _independent_potential(model):
    """High-precision W(F) built without the production code's power table.

    For Mooney-Rivlin the potential is derived symbolically from the 3-D
    strain energy in the unimodular invariants: partial dW/dF at fixed
    lateral stretch, composed with F_perp = F**(-nu_bar), then integrated
    from 1; for the other families the closed forms are evaluated in mpmath.
    """
    if isinstance(model, FluidParams):
        c = mp.mpf(repr(model.R_gas)) * mp.mpf(repr(model.rho_star))
        return lambda F: -c * mp.log(F)
    if isinstance(model.elastic, QuadraticCubic):
        E1 = mp.mpf(repr(model.E1))
        R = mp.mpf(repr(model.elastic.R))
        return lambda F: E1 / 2 * (F - 1) ** 2 - E1 * R / 3 * (F - 1) ** 3
    el = model.elastic
    Fs, Fp = sp.symbols("Fs Fp", positive=True)
    J = Fs * Fp ** 2
    I1 = Fs ** 2 + 2 * Fp ** 2
    I2 = 2 * Fs ** 2 * Fp ** 2 + Fp ** 4
    W3D = (sp.Float(el.C1, 30) * (J ** sp.Rational(-2, 3) * I1 - 3)
           + sp.Float(el.C2, 30) * (J ** sp.Rational(-4, 3) * I2 - 3)
           + sp.Float(el.k_bulk, 30) / 2 * (J - 1) ** 2)
    T = sp.diff(W3D, Fs).subs(Fp, Fs ** (-sp.Float(el.nu_bar, 30)))
    Wint = sp.integrate(sp.expand(sp.powsimp(T, force=True)), Fs)
    Wexpr = Wint - Wint.subs(Fs, 1)
    return sp.lambdify(Fs, Wexpr, "mpmath")


def _grid_models():
    return [
        rubber_solid(),
        penn_solid(),
        FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0),
        FluidParams(rho_star=2.0, R_gas=300.0, tau0=0.01, mu0=0.5,
                    production=PowerLaw(k_cons=0.7, m=0.5)),
        FluidParams(rho_star=2.0, R_gas=300.0, tau0=0.01, mu0=0.5,
                    production=PowerLaw(k_cons=0.7, m=2.5)),
        FluidParams(rho_star=2.0, R_gas=300.0, tau0=0.01, mu0=0.5,
                    production=RegularizedPowerLaw(k_cons=0.7, m=2.5, eps=1e-2)),
    ]


# ---------------------------------------------------------------------------
# Elastic potential
# ---------------------------------------------------------------------------

class TestElasticDerivs:
    def test_quadratic_cubic_reference_point(self):
        d = elastic_derivs(rubber_solid(), 1.0)
        assert d.W == 0.0 and d.W1 == 0.0
        assert d.W2 == 2.12e6
        assert d.W3 == -2.0 * 2.12e6 * 1.63

    def test_quadratic_cubic_away_from_reference(self):
        model = rubber_solid()
        for F in (0.9, 1.1, 1.5):
            e = F - 1.0
            d = elastic_derivs(model, F)
            assert d.W1 == pytest.approx(2.12e6 * e - 2.12e6 * 1.63 * e * e, rel=1e-14)
            assert d.W2 == pytest.approx(2.12e6 * (1 - 2 * 1.63 * e), rel=1e-14)

    def test_fluid_unit_constants(self):
        d = elastic_derivs(FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0), 1.0)
        assert d.W == 0.0
        assert d.W2 == 1.0
        assert d.W3 == -2.0

    def test_mooney_rivlin_matches_independent_derivation(self):
        d = elastic_derivs(penn_solid(), 1.0)
        assert d.W2 == pytest.approx(PENN_W2, rel=1e-9)
        assert d.W3 == pytest.approx(PENN_W3, rel=1e-9)

    def test_mooney_rivlin_w2_matches_stress_finite_difference(self):
        # 5-point first-derivative stencil applied to the implemented T(F)
        model = penn_solid()
        h = 1e-2
        F = 1.0
        T = lambda x: elastic_derivs(model, x).W1
        fd = (T(F - 2 * h) - 8 * T(F - h) + 8 * T(F + h) - T(F + 2 * h)) / (12 * h)
        assert elastic_derivs(model, F).W2 == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("F", [0.9, 1.0, 1.1])
    def test_third_derivative_matches_potential_finite_difference(self, F):
        # 5-point third-derivative stencil on an independently constructed,
        # high-precision W(F); float64 W would drown in the near-cancelling
        # GPa-scale bulk terms of the Mooney-Rivlin model
        h = mp.mpf("5e-4")
        for model in _grid_models():
            W = _independent_potential(model)
            Fm = mp.mpf(repr(F))
            fd = (-W(Fm - 2 * h) + 2 * W(Fm - h) - 2 * W(Fm + h) + W(Fm + 2 * h)) \
                / (2 * h ** 3)
            w3 = elastic_derivs(model, F).W3
            assert w3 == pytest.approx(float(fd), rel=1e-5)

    def test_rejects_non_positive_stretch(self):
        with pytest.raises(ValueError):
            elastic_derivs(rubber_solid(), 0.0)
        with pytest.raises(ValueError):
            elastic_derivs(rubber_solid(), np.array([1.0, -0.5]))

    def test_vectorized_matches_scalar(self):
        # scalar and array pow round differently; after the bulk-term
        # cancellation the paths agree to ~1e-13 relative
        model = penn_solid()
        Fs = np.array([0.8, 1.0, 1.3])
        vec = elastic_derivs(model, Fs)
        for i, F in enumerate(Fs):
            scal = elastic_derivs(model, float(F))
            assert vec.W2[i] == pytest.approx(scal.W2, rel=1e-12)
            assert vec.W3[i] == pytest.approx(scal.W3, rel=1e-12, abs=1e-9)


class TestMooneyRivlinStress:
    def test_reference_state_is_unstressed(self):
        assert penn_mooney_rivlin().T(1.0) == 0.0

    def test_deviatoric_only_incompressible_path(self):
        # nu_bar = 1/2 puts the loading path on J = 1, where the bulk penalty
        # contributes nothing and the C1 part alone gives (4/3)*C1*(F - F^-2)
        C1 = 0.25e6
        el = MooneyRivlin(C1=C1, C2=0.0, k_bulk=1.0e9, nu_bar=0.5)
        F = 1.1
        expected = 4.0 * C1 / 3.0 * (F - F ** -2)
        assert el.T(F) == pytest.approx(expected, rel=1e-12)

    def test_leading_order_antisymmetry_about_reference(self):
        el = penn_mooney_rivlin()
        w2 = elastic_derivs(penn_solid(), 1.0).W2
        slope = (el.T(1.01) - el.T(0.99)) / 0.02
        assert slope == pytest.approx(w2, rel=1e-3)


# ---------------------------------------------------------------------------
# Viscous energy
# ---------------------------------------------------------------------------

class TestViscousOmega:
    def test_solid(self):
        assert rubber_solid().omega == 1.0 / 3.0e6

    def test_fluid_unit(self):
        assert FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0).omega == 1.0


# ---------------------------------------------------------------------------
# Production term
# ---------------------------------------------------------------------------

class TestProduction:
    def test_solid_at_reference_stretch(self):
        model = rubber_solid()
        for s in (-2.0e5, 1.0, 3.3e5):
            assert production(model, 1.0, s) == -s / model.mu0

    def test_equilibrium_is_stress_free(self):
        for model in _grid_models():
            for F in (0.5, 1.0, 2.0):
                assert production(model, F, 0.0) == 0.0

    def test_newtonian_limit_of_power_law(self):
        mu0 = 0.37
        fl = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=mu0,
                         production=PowerLaw(k_cons=mu0, m=1.0))
        for s in (-1.5, 0.0, 2.0):
            assert production(fl, 1.0, s) == -s / mu0

    def test_shear_thickening_value(self):
        fl = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                         production=PowerLaw(k_cons=1.0, m=2.0))
        # 2**(-1/2) * 4**(1/2) = sqrt(2), independently evaluated
        assert production(fl, 1.0, 4.0) == pytest.approx(-1.4142135623730951, rel=1e-15)

    def test_dissipation_sign_on_grid(self):
        Fs = np.linspace(0.5, 2.0, 7)
        sigmas = np.linspace(-1e6, 1e6, 9)
        for model in _grid_models():
            for F in Fs:
                for s in sigmas:
                    assert s * production(model, float(F), float(s)) <= 0.0

    def test_newtonian_equivalence_exact_on_grid(self):
        mu0 = 0.3e6
        fl_n = FluidParams(rho_star=929.0, R_gas=300.0, tau0=0.1, mu0=mu0)
        fl_p = FluidParams(rho_star=929.0, R_gas=300.0, tau0=0.1, mu0=mu0,
                           production=PowerLaw(k_cons=mu0, m=1.0))
        for F in np.linspace(0.5, 2.0, 7):
            for s in np.linspace(-1e6, 1e6, 9):
                assert production(fl_n, float(F), float(s)) == \
                    production(fl_p, float(F), float(s))
                jn = production_jacobian(fl_n, float(F), float(s))
                jp = production_jacobian(fl_p, float(F), float(s))
                assert jn == jp


class TestProductionJacobian:
    def test_solid_equilibrium_slope(self):
        model = rubber_solid()       # mu0 = E2*tau0 = 0.3 MPa s
        jac = production_jacobian(model, 1.0, 0.0)
        assert jac.P_F == 0.0
        assert jac.P_sigma == -1.0 / 0.3e6

    def test_equilibrium_P_F_vanishes_for_all_models(self):
        for model in _grid_models():
            for F in np.linspace(0.5, 2.0, 7):
                jac = production_jacobian(model, float(F), 0.0)
                assert jac.P_F == 0.0

    def test_shear_thinning_degenerate_slope(self):
        fl = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                         production=PowerLaw(k_cons=1.0, m=0.5))
        assert production_jacobian(fl, 1.0, 0.0).P_sigma == 0.0

    def test_shear_thickening_singular_sentinel(self):
        fl = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                         production=PowerLaw(k_cons=1.0, m=2.0))
        ps = production_jacobian(fl, 1.0, 0.0).P_sigma
        assert isinstance(ps, SingularProductionSlope)
        assert ps.n == pytest.approx(0.5, rel=1e-15)
        assert ps.coeff == pytest.approx(2.0 ** -0.5, rel=1e-15)

    def test_regularized_equilibrium_slope(self):
        fl = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                         production=RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=0.01))
        ps = production_jacobian(fl, 1.0, 0.0).P_sigma
        # -1/(2^(1/2) * 0.01^(1/2)), cross-checked by the finite difference below
        assert ps == pytest.approx(-7.0710678118654755, rel=1e-12)
        fd = (production(fl, 1.0, 1e-8) - production(fl, 1.0, -1e-8)) / 2e-8
        assert ps == pytest.approx(fd, rel=1e-5)

    def test_matches_finite_differences_where_regular(self, rng):
        models = _grid_models() + [random_solid(rng) for _ in range(3)] \
            + [random_fluid(rng) for _ in range(5)]
        for model in models:
            for F in (0.8, 1.0, 1.7):
                for s in (-2.0e5, -3.0, 4.0, 1.5e5):
                    if isinstance(model, FluidParams) and \
                            isinstance(model.production, RegularizedPowerLaw) and \
                            abs(model.production.eps + s) < 1.0:
                        continue  # stay clear of the kink at sigma = -eps
                    jac = production_jacobian(model, F, s)
                    hF = 1e-6 * F
                    hs = 1e-6 * abs(s)
                    fd_F = (production(model, F + hF, s)
                            - production(model, F - hF, s)) / (2 * hF)
                    fd_s = (production(model, F, s + hs)
                            - production(model, F, s - hs)) / (2 * hs)
                    assert jac.P_F == pytest.approx(fd_F, rel=1e-6, abs=1e-12)
                    assert jac.P_sigma == pytest.approx(fd_s, rel=1e-6)


class TestRelaxZeroPadding:
    """sigma = +-0 is a fixed point of every law's source step: padding a
    sigma array with zeros returns them sign bit and all, and leaves the
    other cells bit-identical to a step on those cells alone."""

    @staticmethod
    def _models(rng):
        models = [random_solid(rng) for _ in range(4)] \
            + [random_mr_solid(rng) for _ in range(4)]
        for kind in ("newtonian", "power_law", "regularized"):
            models += [random_fluid(rng, kind) for _ in range(4)]
        models.append(FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0,
                                  production=PowerLaw(k_cons=1.0, m=1.0)))
        return models

    def test_zero_cells_are_untouched(self, rng):
        for model in self._models(rng):
            law = model.production
            n_cells = 40
            F = 10.0 ** rng.uniform(-0.2, 0.2, n_cells)
            scale = model.E2 * 1e-3 if isinstance(model, SolidParams) \
                else 10.0 ** rng.uniform(-3.0, 1.0)
            sigma = scale * 10.0 ** rng.uniform(-1.0, 1.0, n_cells) \
                * rng.choice([-1.0, 1.0], n_cells)
            h = model.tau0 * 10.0 ** rng.uniform(-3.0, 0.0)
            if isinstance(law, RegularizedPowerLaw):
                # keep the sub-cycle count of the source step small
                rate0 = float(np.max(F)) * _power_prefactor(law.k_cons, law.m) \
                    / model.omega * law.eps ** (-(law.m - 1.0) / law.m)
                h = min(h, 100.0 / rate0)
            # zeros of both signs; their stretches repeat existing ones, so a
            # law that looks at max(F) sees the same value
            at = np.sort(rng.choice(n_cells + 12, 12, replace=False))
            zeros = np.where(rng.random(12) < 0.5, 0.0, -0.0)
            F_pad = np.empty(n_cells + 12)
            s_pad = np.empty(n_cells + 12)
            keep = np.ones(n_cells + 12, dtype=bool)
            keep[at] = False
            F_pad[keep], s_pad[keep] = F, sigma
            F_pad[at], s_pad[at] = F[rng.integers(0, n_cells, 12)], zeros
            alone = law.relax(F, sigma, h, model)
            padded = law.relax(F_pad, s_pad, h, model)
            assert padded[at].tobytes() == zeros.tobytes(), type(law).__name__
            assert padded[keep].tobytes() == alone.tobytes(), type(law).__name__


@st.composite
def _buffered_cases(draw):
    """A material whose laws take out (and scratch), stretches from the least
    subnormal to 1e300, stresses of any finite size and zeros of both signs,
    and a step h."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = draw(st.sampled_from([
        lambda: random_solid(rng),
        lambda: dataclasses.replace(random_solid(rng), elastic=QuadraticCubic(R=0.0)),
        lambda: dataclasses.replace(random_solid(rng), tau0=math.inf),
        penn_solid,
        lambda: random_mr_solid(rng),
        lambda: random_fluid(rng, "newtonian"),
    ]))()
    n = draw(st.integers(1, 12))
    stretch = st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 2.2250738585072014e-308,
                                                          1.0, 1e300])
    stress = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
    F = np.array(draw(st.lists(stretch, min_size=n, max_size=n)))
    sigma = np.array(draw(st.lists(stress, min_size=n, max_size=n)))
    return model, F, sigma, draw(st.floats(1e-300, 1e3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_buffered_cases())
def test_buffered_laws_equal_the_allocating_calls(case):
    # the FV step's T, W2 and exact relax write into its buffers, bit for bit
    model, F, sigma, h = case
    with np.errstate(all="ignore"):
        for law in (model.elastic.T, model.elastic.W2):
            out, scratch = np.full_like(F, np.nan), np.full_like(F, np.nan)
            assert law(F, model, out=out, scratch=scratch) is out
            assert out.tobytes() == np.asarray(law(F, model), dtype=float).tobytes()
        out = np.full_like(F, np.nan)
        assert model.production.relax(F, sigma, h, model, out=out) is out
        assert out.tobytes() == model.production.relax(F, sigma, h, model).tobytes()


def test_power_law_relax_writes_into_out(rng):
    # the FV source passes out to every law's relax
    fluids = [random_fluid(rng, kind) for kind in ("power_law", "regularized")
              for _ in range(3)] + [unit_fluid(PowerLaw(k_cons=2.0, m=1.0))]
    for fluid in fluids:
        F = 10.0 ** rng.uniform(-0.2, 0.2, 20)
        sigma = rng.standard_normal(20)
        sigma[::5] = -0.0
        h = 0.01 * fluid.tau0
        out = np.full(20, np.nan)
        assert fluid.production.relax(F, sigma, h, fluid, out=out) is out
        assert out.tobytes() == fluid.production.relax(F, sigma, h, fluid).tobytes()


def test_power_law_relax_passes_nan_through():
    # the finiteness check downstream must see a NaN, as with the exact laws
    fluid = unit_fluid(PowerLaw(1.0, 2.0))
    out = fluid.production.relax(np.ones(3), [math.nan, 1.0, -0.0], 0.1, fluid)
    assert math.isnan(out[0])
    assert 0.0 < out[1] < 1.0
    assert out[2:].tobytes() == np.array([-0.0]).tobytes()
    out = fluid.production.relax(np.array([math.nan, 1.0]), [0.5, 0.5], 0.1, fluid)
    assert math.isnan(out[0]) and 0.0 < out[1] < 0.5


def test_power_law_relax_at_subnormal_sigma_warns_nothing():
    # for m < 1, |sigma|**(1 - 1/m) overflows at a subnormal sigma; the step
    # still gives 0 with the sign of sigma, and no warning leaks out
    fluid = unit_fluid(PowerLaw(1.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fluid.production.relax(np.ones(4), np.array([5e-324, 1e-310, -1e-310, 1.0]),
                                     0.1, fluid)
    assert out[:3].tobytes() == np.array([0.0, 0.0, -0.0]).tobytes()
    assert 0.0 < out[3] < 1.0


def test_regularized_relax_with_a_nan_stretch():
    fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
    law = fluid.production
    # nothing to solve: the zeros come back, sign bits included
    out = law.relax(np.array([1.0, math.nan]), np.array([0.0, -0.0]), 0.1, fluid)
    assert out.tobytes() == np.array([0.0, -0.0]).tobytes()
    # a solved cell with a non-finite stretch passes NaN on; the others are
    # solved as if that stretch were not there
    ref = law.relax(np.array([1.0]), np.array([0.5]), 0.1, fluid)
    for bad in (math.nan, math.inf):
        out = law.relax(np.array([bad, 1.0]), np.array([0.5, 0.5]), 0.1, fluid)
        assert math.isnan(out[0])
        assert out[1:].tobytes() == ref.tobytes()


def _stiff_rate(law, fluid, F):
    return float(np.max(F)) * _power_prefactor(law.k_cons, law.m) / fluid.omega \
        * law.eps ** (-(law.m - 1.0) / law.m)


def _regularized_step(seed, log_stiffness):
    """A random regularized fluid and a sigma array with cells on both sides
    of -eps and across nine decades of |sigma|/eps; h is set so that
    h * (the stiff rate) = 10**log_stiffness."""
    rng = np.random.default_rng(seed)
    fluid = random_fluid(rng, "regularized")
    law = fluid.production
    F = 10.0 ** rng.uniform(-0.3, 0.3, 48)
    sigma = law.eps * 10.0 ** rng.uniform(-6.0, 3.0, 48) * rng.choice([-1.0, 1.0], 48)
    h = 10.0 ** log_stiffness / _stiff_rate(law, fluid, F)
    return fluid, law, F, sigma, h


def _assert_source_step_properties(fluid, law, F, s0, s):
    # the exact solution moves from s0 toward 0 and never reaches it, also
    # from below -eps, where it stays until it has travelled there
    neg = s0 < 0.0
    lo = np.where(neg, s0, 0.0)
    hi = np.where(neg, 0.0, s0)
    assert np.all((lo <= s) & (s <= hi)), "outside the bracket"
    assert np.array_equal(np.signbit(s), np.signbit(s0)) and np.all(s != 0.0)
    assert np.all(np.abs(s) <= np.abs(s0))
    assert np.all(s * production(fluid, F, s) <= 0.0)


def _travel_time(s0, s, k, eps, n):
    """Time the exact source step takes from s0 to s (between s0 and 0): the
    20-digit quadrature of |eps + x|**n / (k*|x|) between them."""
    with mp.workdps(20):
        eps, n, k = mp.mpf(eps), mp.mpf(n), mp.mpf(k)
        return mp.quad(lambda x: abs(eps + x) ** n / (k * abs(x)),
                       sorted([mp.mpf(s0), mp.mpf(s)]))


def _exact_relax(s0, h, k, eps, n, guess):
    """sigma(h) of sigma' = -k*|eps + sigma|**(-n)*sigma from s0: Newton on
    y = log(sigma/s0) for travel time = h, from the guess sigma (the step's
    own value).  For cells whose path keeps clear of -eps."""
    with mp.workdps(20):
        s0, h = mp.mpf(s0), mp.mpf(h)
        y = mp.log(mp.mpf(guess) / s0)
        for _ in range(30):
            s = s0 * mp.exp(y)
            # d(time)/dy = -|eps + s|**n / k
            step = (_travel_time(s0, s, k, eps, n) - h) * k / abs(eps + s) ** n
            y += step
            if abs(step) < 1e-18:
                return float(s0 * mp.exp(y))
    raise AssertionError(f"no exact step from {s0} over {h}")


class TestRegularizedRelaxSolve:
    """The exponential midpoint source step of the regularized law against
    the exact solution, and at the rate's singularity sigma = -eps."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_stiffness=st.floats(-3.0, 0.0))
    def test_one_substep_matches_the_exact_solution(self, seed, log_stiffness):
        # z = h*k*eps**(-n) <= 1: one sub-step.  Its error in log(sigma) is
        # (h*rate)**3 * n*w*(1 + (n - 1)*w)/24 to leading order, with
        # w = sigma/(eps + sigma).  On a path that keeps |eps + sigma| >= eps/2,
        # rate <= 2**n*k*eps**(-n) and |w| <= 3, so the error is at most
        # 4*z**3, and halving h divides the summed error by at least 3 (by 8
        # in the limit; a single cell's third- and fourth-order terms can
        # cancel at h).
        fluid, law, F, s0, h = _regularized_step(seed, log_stiffness)
        F, s0 = F[:12], s0[:12]
        eps, n = law.eps, (law.m - 1.0) / law.m
        k = F * _power_prefactor(law.k_cons, law.m) / fluid.omega
        s, s_half = law.relax(F, s0, h, fluid), law.relax(F, s0, h / 2, fluid)
        _assert_source_step_properties(fluid, law, F, s0, s)
        _assert_source_step_properties(fluid, law, F, s0, s_half)
        errs, errs_half = [], []
        for i in range(s0.size):
            # near -eps, or from below -3*eps/2 but reaching it within h
            if s0[i] <= -eps / 2 and (s0[i] >= -1.5 * eps or
                                      _travel_time(s0[i], -1.5 * eps, k[i], eps, n) < h):
                continue
            errs.append(abs(s[i] / _exact_relax(s0[i], h, k[i], eps, n, s[i]) - 1.0))
            errs_half.append(abs(s_half[i] / _exact_relax(s0[i], h / 2, k[i], eps, n, s_half[i])
                                 - 1.0))
            assert errs[-1] <= 4.0 * (h * k[i] * eps ** -n) ** 3 + 1e-13
        assert sum(errs_half) <= sum(errs) / 3.0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_stiffness=st.floats(-1.0, 2.5))
    def test_subcycled_step_keeps_sign_bracket_and_dissipation(self, seed, log_stiffness):
        fluid, law, F, s0, h = _regularized_step(seed, log_stiffness)
        _assert_source_step_properties(fluid, law, F, s0, law.relax(F, s0, h, fluid))

    def test_far_below_minus_eps_stays_there(self):
        # from sigma0 = -1 the exact solution moves by 7.1e-9 in 1e-8; backward
        # Euler, solved on the branch sigma > -eps, sent it to -eps
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=0.01))
        out = fluid.production.relax(np.ones(1), np.array([-1.0]), 1e-8, fluid)
        exact = _exact_relax(-1.0, 1e-8, _power_prefactor(1.0, 2.0), 0.01, 0.5, out[0])
        assert exact == pytest.approx(-1.0 + 7.1e-9, abs=1e-10)
        assert out[0] == pytest.approx(exact, rel=1e-15)

    def test_zero_step_returns_sigma(self):
        # h*rate would be 0*inf = NaN at sigma = -eps
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
        sigma = np.array([-1e-2, 0.5, -0.0, 0.0, -3.0, -math.inf, math.nan])
        out = fluid.production.relax(np.ones(7), sigma, 0.0, fluid)
        assert out.tobytes() == sigma.tobytes()

    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0])
    def test_step_from_minus_eps_is_finite_and_negative(self, h):
        # the rate is inf there: the midpoint is -0, and the sub-step ends at
        # -eps*exp(-h*k*eps**(-n)); h = 1 takes two sub-steps
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
        out = fluid.production.relax(np.ones(1), np.array([-1e-2]), h, fluid)
        assert -1e-2 < out[0] < 0.0

    def test_midpoint_on_minus_eps_ends_at_signed_zero(self):
        # from -2*eps, this h makes the half-step factor round to exactly 1/2,
        # so the midpoint is -eps, where the rate is inf: the step ends at -0,
        # its sign kept (the exact value is -2.35e-3), and -0 is a fixed point
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
        out = fluid.production.relax(np.ones(1), np.array([-2e-2]), 0.19605162869370354,
                                     fluid)
        assert out.tobytes() == np.array([-0.0]).tobytes()


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_positive_constants_enforced(self):
        with pytest.raises(ValueError):
            SolidParams(rho_star=-1.0, E2=1.0, tau0=1.0,
                        elastic=QuadraticCubic(R=1.0), E1=1.0)
        with pytest.raises(ValueError):
            FluidParams(rho_star=1.0, R_gas=0.0, tau0=1.0, mu0=1.0)
        with pytest.raises(ValueError):
            QuadraticCubic(R=-0.1)
        with pytest.raises(ValueError):
            RegularizedPowerLaw(k_cons=1.0, m=0.9, eps=0.01)
        with pytest.raises(ValueError):
            MooneyRivlin(C1=0.0, C2=0.0, k_bulk=1.0, nu_bar=0.3)

    def test_solid_E1_required_for_quadratic_cubic(self):
        with pytest.raises(ValueError):
            SolidParams(rho_star=1.0, E2=1.0, tau0=1.0, elastic=QuadraticCubic(R=1.0))

    def test_mooney_rivlin_E1_is_derived(self):
        solid = penn_solid()
        assert solid.E1 == pytest.approx(PENN_W2, rel=1e-9)
        # a mildly rounded explicit value is accepted, the derived one kept
        solid2 = SolidParams(rho_star=929.0, E2=3.0e6, tau0=0.1,
                             elastic=penn_mooney_rivlin(), E1=2.12e6)
        assert solid2.E1 == solid.E1
        with pytest.raises(ValueError):
            SolidParams(rho_star=929.0, E2=3.0e6, tau0=0.1,
                        elastic=penn_mooney_rivlin(), E1=4.0e6)
