"""Constitutive layer: potentials, production terms, dissipation structure."""

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
    RelaxationError,
    SingularProductionSlope,
    SolidParams,
    elastic_derivs,
    mooney_rivlin_uniaxial_stress,
    production,
    production_jacobian,
    viscous_omega,
    zener_relaxation_response,
)
from accelwave import materials
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
        T = lambda x: mooney_rivlin_uniaxial_stress(model, x)
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
        assert mooney_rivlin_uniaxial_stress(penn_mooney_rivlin(), 1.0) == 0.0

    def test_deviatoric_only_incompressible_path(self):
        # nu_bar = 1/2 puts the loading path on J = 1, where the bulk penalty
        # contributes nothing and the C1 part alone gives (4/3)*C1*(F - F^-2)
        C1 = 0.25e6
        el = MooneyRivlin(C1=C1, C2=0.0, k_bulk=1.0e9, nu_bar=0.5)
        F = 1.1
        expected = 4.0 * C1 / 3.0 * (F - F ** -2)
        assert mooney_rivlin_uniaxial_stress(el, F) == pytest.approx(expected, rel=1e-12)

    def test_leading_order_antisymmetry_about_reference(self):
        el = penn_mooney_rivlin()
        w2 = elastic_derivs(penn_solid(), 1.0).W2
        slope = (mooney_rivlin_uniaxial_stress(el, 1.01)
                 - mooney_rivlin_uniaxial_stress(el, 0.99)) / 0.02
        assert slope == pytest.approx(w2, rel=1e-3)

    def test_requires_mooney_rivlin_variant(self):
        with pytest.raises(ValueError):
            mooney_rivlin_uniaxial_stress(rubber_solid(), 1.1)


# ---------------------------------------------------------------------------
# Viscous energy
# ---------------------------------------------------------------------------

class TestViscousOmega:
    def test_solid(self):
        assert viscous_omega(rubber_solid()) == 1.0 / 3.0e6

    def test_fluid_unit(self):
        assert viscous_omega(FluidParams(rho_star=1.0, R_gas=1.0, tau0=1.0, mu0=1.0)) == 1.0


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
                # keep the sub-cycle count of the implicit step small
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
    neg = s0 < 0.0
    lo = np.where(neg, np.maximum(s0, -law.eps), 0.0)
    hi = np.where(neg, 0.0, s0)
    assert np.all((lo <= s) & (s <= hi)), "outside the bracket"
    assert np.array_equal(np.signbit(s), np.signbit(s0)) and np.all(s != 0.0)
    assert np.all(np.abs(s) <= np.abs(s0))
    assert np.all(s * production(fluid, F, s) <= 0.0)


class TestRegularizedRelaxSolve:
    """The implicit source step of the regularized law: solved per cell to
    tolerance on the branch sigma > -eps, or a RelaxationError."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_stiffness=st.floats(-3.0, math.log10(5.0)))
    def test_one_substep_solves_the_implicit_equation(self, seed, log_stiffness):
        # h * rate <= 5: one backward-Euler step, s - s0 + K*s*(eps+s)**(-n) = 0
        fluid, law, F, s0, h = _regularized_step(seed, log_stiffness)
        s = law.relax(F, s0, h, fluid)
        _assert_source_step_properties(fluid, law, F, s0, s)
        eps, n = mp.mpf(law.eps), mp.mpf((law.m - 1.0) / law.m)
        c = mp.mpf(_power_prefactor(law.k_cons, law.m)) / mp.mpf(fluid.omega)

        def r(x, x0, K):   # (eps + x)**n times the residual: increasing in x
            return (x - x0) * (eps + x) ** n + K * x

        for Fi, x0, x in zip(F, s0, s):
            x0, x, K = mp.mpf(x0), mp.mpf(x), mp.mpf(h) * mp.mpf(Fi) * c
            tol = 1e-12 * abs(x)
            # the exact root lies within 1e-12 * |s| of the returned s
            assert r(max(x - tol, -eps), x0, K) <= 0 <= r(x + tol, x0, K)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_stiffness=st.floats(-1.0, 2.5))
    def test_subcycled_step_keeps_sign_bracket_and_dissipation(self, seed, log_stiffness):
        fluid, law, F, s0, h = _regularized_step(seed, log_stiffness)
        _assert_source_step_properties(fluid, law, F, s0, law.relax(F, s0, h, fluid))

    def test_root_within_rounding_of_minus_eps_needs_no_bisection(self, monkeypatch):
        # sigma far below -eps and a weak rate: eps + root is far below half
        # an ulp of eps, so -eps itself is the answer, found in one iteration
        monkeypatch.setattr(materials, "_RELAX_MAX_ITER", 1)
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=1.5, eps=1e-2))
        law = fluid.production
        F = np.ones(1)
        out = law.relax(F, np.array([-10.0]), 1e-6 / _stiff_rate(law, fluid, F), fluid)
        assert out[0] == -law.eps

    def test_unconverged_cell_raises(self, monkeypatch):
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
        law = fluid.production
        F = np.ones(5)
        sigma = np.array([0.0, -0.0, 1e-2, -5e-3, 3.0])
        h = 2.0 / _stiff_rate(law, fluid, F)
        assert np.all(np.isfinite(law.relax(F, sigma, h, fluid)))
        monkeypatch.setattr(materials, "_RELAX_MAX_ITER", 1)
        with pytest.raises(RelaxationError, match="did not converge in 1 iterations") as exc:
            law.relax(F, sigma, h, fluid)
        assert exc.value.cell == 2
        assert isinstance(exc.value, ArithmeticError)


def _reference_substep(s0, K, eps, n):
    """The earlier solve, kept as the reference: each cell is frozen once it
    passes the step test, and the bracket is tightened at every iterate."""
    far = s0 <= -eps
    neg = s0 < 0.0
    lo = np.where(neg, np.maximum(s0, -eps), 0.0)
    hi = np.where(neg, 0.0, s0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = s0 / (1.0 + K * np.abs(eps + s0) ** (-n))
        if far.any():
            u = (K[far] * eps / (-s0[far] - eps)) ** (1.0 / n)
            s[far] = np.minimum(u - eps, 0.0)
        conv = s == -eps
        for _ in range(100):
            u = eps + s
            p = u ** n
            d = s - s0
            r = d * p + K * s
            np.copyto(lo, s, where=r < 0.0)
            np.copyto(hi, s, where=r > 0.0)
            step = r / (n * d / u * p + p + K)
            s_new = s - step
            inside = (s_new >= lo) & (s_new <= hi)
            if np.count_nonzero(inside) < inside.size:
                s_new = np.where(inside, s_new, 0.5 * (lo + hi))
                step = s - s_new
            done = np.abs(step) <= 1e-13 * np.abs(s_new) + np.finfo(float).tiny
            s = np.where(conv, s, s_new)
            conv |= done
            if conv.all():
                return s
    raise AssertionError("the reference solve did not converge")


def _reference_relax(law, fluid, F, s0, h):
    """The earlier sub-cycled backward-Euler step on finite non-zero sigma."""
    c = _power_prefactor(law.k_cons, law.m)
    n = (law.m - 1.0) / law.m
    n_sub = max(1, math.ceil(h * _stiff_rate(law, fluid, F) / 5.0))
    K = h / n_sub * (F * c / fluid.omega)
    s = s0
    for _ in range(n_sub):
        s = _reference_substep(s, K, law.eps, n)
    return s


class TestRegularizedSolveAgainstReference:
    """The solve that steps every cell until all pass the step test agrees
    with the one that froze each cell, and a step that leaves the bracket
    bisects."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_stiffness=st.floats(-3.0, 2.5))
    def test_matches_the_per_cell_freeze(self, seed, log_stiffness):
        fluid, law, F, s0, h = _regularized_step(seed, log_stiffness)
        # add cells just below -eps, whose roots lie within a few ulps of -eps
        rng = np.random.default_rng(seed)
        s0 = np.concatenate([s0, -law.eps * (1.0 + 10.0 ** rng.uniform(-16.0, -1.0, 16))])
        F = np.concatenate([F, F[:16]])
        s = law.relax(F, s0, h, fluid)
        ref = _reference_relax(law, fluid, F, s0, h)
        assert np.all(np.abs(s - ref) <= 2 * materials._RELAX_RTOL * np.abs(ref))
        _assert_source_step_properties(fluid, law, F, s0, s)

    def test_step_that_leaves_the_bracket_bisects(self, monkeypatch):
        # the far-branch cell starts an ulp above -eps and its first Newton
        # step lands on -eps, where u = eps + s = 0 and the next step is NaN;
        # the second cell keeps the iteration going, so that step is taken
        bisections = []
        bisect = materials._bisect_outside

        def counted(*args):
            bisections.append(int(np.count_nonzero(~args[0])))
            return bisect(*args)

        monkeypatch.setattr(materials, "_bisect_outside", counted)
        fluid = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=1e-2))
        law = fluid.production
        F = np.ones(2)
        s0 = np.array([-2.05e6, 1.0])
        h = 2.0 / _stiff_rate(law, fluid, F)
        s = law.relax(F, s0, h, fluid)
        # the NaN step comes twice; each time the previous iterate bounds the
        # root from above, so one bisection settles the cell
        assert bisections == [1, 1]
        _assert_source_step_properties(fluid, law, F, s0, s)
        eps, n = mp.mpf(law.eps), mp.mpf(0.5)
        K = mp.mpf(h) * mp.mpf(_power_prefactor(law.k_cons, law.m)) / mp.mpf(fluid.omega)
        for x0, x in zip(s0, s):
            # 50-digit bisection of the increasing r over the bracket
            x0 = mp.mpf(x0)
            lo, hi = (max(x0, -eps), mp.mpf(0)) if x0 < 0 else (mp.mpf(0), x0)
            for _ in range(200):
                mid = (lo + hi) / 2
                if (mid - x0) * (eps + mid) ** n + K * mid < 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(mp.mpf(x) - lo) <= 1e-12 * abs(lo)


# ---------------------------------------------------------------------------
# Standard-linear-solid response
# ---------------------------------------------------------------------------

class TestZenerResponse:
    def test_step_strain_response(self):
        model = rubber_solid()
        eps0 = 0.01
        dt = model.tau0 / 1000.0
        n = 3001                       # reaches t = 3*tau0
        history = np.full(n, eps0)
        S = zener_relaxation_response(model, history, dt)
        E1, E2, tau0 = model.E1, model.E2, model.tau0
        assert S[0] == (E1 + E2) * eps0                       # instantaneous modulus
        t = np.arange(n) * dt
        exact = E1 * eps0 + E2 * eps0 * np.exp(-t / tau0)
        assert np.max(np.abs(S - exact) / exact) < 1e-4       # exponential oracle
        k_tau = 1000                                          # t = tau0 sample
        assert S[k_tau] == pytest.approx(E1 * eps0 + E2 * eps0 / math.e, rel=1e-4)
        assert S[-1] == pytest.approx(E1 * eps0 + E2 * eps0 * math.exp(-3.0), rel=1e-4)

    def test_long_time_reaches_equilibrium_modulus(self):
        model = rubber_solid()
        eps0 = 0.02
        dt = model.tau0 / 100.0
        history = np.full(2001, eps0)  # t = 20*tau0
        S = zener_relaxation_response(model, history, dt)
        assert S[-1] == pytest.approx(model.E1 * eps0, rel=1e-6)

    def test_rejects_bad_inputs(self):
        model = rubber_solid()
        with pytest.raises(ValueError):
            zener_relaxation_response(model, np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            zener_relaxation_response(penn_solid(), np.zeros(5), 0.1)


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
