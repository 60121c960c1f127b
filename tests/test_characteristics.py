"""Eigenstructure, amplitude-equation coefficients, coupling verdicts."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from accelwave import (
    DegenerateWaveError,
    FluidParams,
    HyperbolicityError,
    Newtonian,
    PowerLaw,
    QuadraticCubic,
    RegularizedPowerLaw,
    SolidParams,
    StateVector,
    WaveCoefficients,
    assemble_ab_numeric,
    coefficients_ab,
    eigensystem,
    equilibrium_state,
    grad_lambda,
    k_condition,
    quasilinear_matrix,
    source_jacobian,
)
from conftest import (
    RANDOM_FAMILIES,
    random_fluid,
    random_mr_solid,
    random_solid,
    rubber_solid,
    unit_fluid,
)

# mpmath-evaluated references for the rubber benchmark constants
RUBBER_LAMBDA0 = 74.2381470389745722
RUBBER_A = -0.0090913082009666830
RUBBER_B = 2.9296875
RUBBER_PI_CR = 322.251477481368961


# a regularized fluid whose finite b overflows to inf
_OVERFLOW_FLUID = FluidParams(rho_star=1.0, R_gas=1.0, tau0=1e-100, mu0=1.0,
                              production=RegularizedPowerLaw(k_cons=1e-300, m=1.0001,
                                                             eps=1.0))


def _random_states(model, rng, n):
    """Valid states inside the hyperbolic region of the model."""
    out = []
    for _ in range(n):
        if isinstance(model, SolidParams) and isinstance(model.elastic, QuadraticCubic):
            # keep omega*W2+1 > 0: F < 1 + (1 + E2/E1)/(2R)
            cap = 1.0 + (1.0 + model.E2 / model.E1) / (2.0 * model.elastic.R)
            F = rng.uniform(0.7, min(1.3, 1.0 + 0.8 * (cap - 1.0)))
        else:
            F = rng.uniform(0.7, 1.3)
        out.append(StateVector(v=rng.uniform(-10, 10), F=F,
                               sigma=rng.uniform(-1e5, 1e5)))
    return out


def _random_models(rng, n):
    models = []
    for i in range(n):
        pick = i % 4
        if pick == 0:
            models.append(random_solid(rng))
        elif pick == 1:
            models.append(random_mr_solid(rng))
        else:
            models.append(random_fluid(rng))
    return models


class TestQuasilinearMatrix:
    def test_unit_fluid(self):
        A = quasilinear_matrix(unit_fluid(), equilibrium_state())
        assert np.array_equal(A, np.array([[0.0, -1.0, -1.0],
                                           [-1.0, 0.0, 0.0],
                                           [-1.0, 0.0, 0.0]]))

    def test_rubber_entry(self):
        A = quasilinear_matrix(rubber_solid(), equilibrium_state())
        assert A[0, 1] == -2.12e6 / 929.0
        assert A[2, 0] == -3.0e6  # -1/omega

    def test_trace_vanishes(self, rng):
        for model in _random_models(rng, 12):
            for state in _random_states(model, rng, 3):
                assert np.trace(quasilinear_matrix(model, state)) == 0.0


class TestEigensystem:
    def test_rubber_speed(self):
        eig = eigensystem(rubber_solid(), equilibrium_state())
        assert eig.lam == pytest.approx(RUBBER_LAMBDA0, rel=1e-12)

    def test_unit_fluid_speed(self):
        # mu_tilde = 2 with unit constants, so the fast speed is sqrt(2)
        assert eigensystem(unit_fluid(), equilibrium_state()).lam == \
            pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_normalization_and_identities_randomized(self, rng):
        checked = 0
        for model in _random_models(rng, 250):
            for state in _random_states(model, rng, 4):
                A = quasilinear_matrix(model, state)
                eig = eigensystem(model, state)
                pairs = [(eig.lam, eig.d_plus, eig.l_plus),
                         (-eig.lam, eig.d_minus, eig.l_minus),
                         (0.0, eig.d_zero, eig.l_zero)]
                for lam, d, l in pairs:
                    assert abs(float(l @ d) - 1.0) <= 1e-14
                    scale = max(np.linalg.norm(A @ d), abs(lam) * np.linalg.norm(d),
                                np.linalg.norm(A) * np.linalg.norm(d) * 1e-4)
                    assert np.linalg.norm(A @ d - lam * d) <= 1e-12 * scale
                    scale_l = max(np.linalg.norm(l @ A), abs(lam) * np.linalg.norm(l),
                                  np.linalg.norm(A) * np.linalg.norm(l) * 1e-4)
                    assert np.linalg.norm(l @ A - lam * l) <= 1e-12 * scale_l
                checked += 1
        assert checked == 1000

    def test_spectrum_structure(self, rng):
        for model in _random_models(rng, 20):
            state = _random_states(model, rng, 1)[0]
            A = quasilinear_matrix(model, state)
            lam = eigensystem(model, state).lam
            ev = np.sort(np.linalg.eigvals(A).real)
            assert np.allclose(ev, [-lam, 0.0, lam], rtol=1e-10, atol=1e-10 * lam)
            assert abs(np.linalg.det(A)) <= 1e-10 * lam ** 3
            assert abs(np.linalg.det(A - lam * np.eye(3))) <= 1e-10 * lam ** 3

    def test_hyperbolicity_guard(self):
        model = rubber_solid()
        cap = 1.0 + (1.0 + model.E2 / model.E1) / (2.0 * model.elastic.R)
        with pytest.raises(HyperbolicityError):
            eigensystem(model, StateVector(v=0.0, F=cap + 0.1, sigma=0.0))

    def test_nan_discriminant_is_not_hyperbolic(self):
        # 2*R overflows, so W''(1) = E1*(1 - inf*0) is NaN, which passed a
        # "<= 0" test and gave all-NaN coefficients
        model = SolidParams(rho_star=929.0, E2=3.0e6, tau0=0.1,
                            elastic=QuadraticCubic(R=1e308), E1=2.12e6)
        for fn in (coefficients_ab, k_condition):
            with pytest.raises(HyperbolicityError, match="nan is not > 0"):
                fn(model)


class TestGradLambda:
    def test_velocity_and_sigma_components_vanish(self, rng):
        for model in _random_models(rng, 8):
            g = grad_lambda(model, equilibrium_state())
            assert g[0] == 0.0
            assert g[2] == 0.0  # constant omega

    def test_rubber_stretch_component(self):
        model = rubber_solid()
        g = grad_lambda(model, equilibrium_state())
        expected = (-2.0 * 2.12e6 * 1.63) / (2.0 * RUBBER_LAMBDA0 * 929.0)
        assert g[1] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        for model in _random_models(rng, 12):
            for state in _random_states(model, rng, 2):
                g = grad_lambda(model, state)
                hF = 1e-6 * state.F
                lam_p = eigensystem(model, StateVector(state.v, state.F + hF, state.sigma)).lam
                lam_m = eigensystem(model, StateVector(state.v, state.F - hF, state.sigma)).lam
                assert g[1] == pytest.approx((lam_p - lam_m) / (2 * hF), rel=1e-6)
                hs = max(1.0, abs(state.sigma)) * 1e-6
                lam_p = eigensystem(model, StateVector(state.v, state.F, state.sigma + hs)).lam
                lam_m = eigensystem(model, StateVector(state.v, state.F, state.sigma - hs)).lam
                assert (lam_p - lam_m) / (2 * hs) == 0.0  # lambda independent of sigma


class TestCoefficients:
    def test_rubber_benchmark(self):
        wc = coefficients_ab(rubber_solid())
        assert wc.lambda0 == pytest.approx(RUBBER_LAMBDA0, rel=1e-12)
        assert wc.a == pytest.approx(RUBBER_A, rel=1e-12)
        assert wc.b == pytest.approx(RUBBER_B, rel=1e-12)
        assert wc.pi_cr == pytest.approx(RUBBER_PI_CR, rel=1e-12)
        assert wc.case == "dissipative_finite"

    def test_unit_fluid_closed_forms(self):
        wc = coefficients_ab(unit_fluid())
        assert wc.b == 0.25
        assert wc.a == pytest.approx(-1.0 / math.sqrt(8.0), rel=1e-15)
        assert wc.pi_cr == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_shear_thinning_degenerate(self):
        wc = coefficients_ab(unit_fluid(PowerLaw(k_cons=1.0, m=0.5)))
        assert wc.b == 0.0 and math.copysign(1.0, wc.b) == 1.0   # P_sigma = 0: -0.0/denom
        assert wc.pi_cr == 0.0
        assert wc.case == "degenerate"
        assert wc.n is None and wc.b0 is None

    def test_unregularized_thickening_singular(self):
        wc = coefficients_ab(unit_fluid(PowerLaw(k_cons=1.0, m=2.0)))
        assert math.isinf(wc.b) and math.isinf(wc.pi_cr)
        assert wc.case == "singular_limit"
        assert wc.n == pytest.approx(0.5, rel=1e-15)
        # b0 = coeff/(2*rho*lam0^2*omega^2) = 2^(-1/2)/4 with unit constants
        assert wc.b0 == pytest.approx(2.0 ** -0.5 / 4.0, rel=1e-14)

    def test_regularized_thickening_threshold(self):
        wc = coefficients_ab(unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=0.01)))
        assert wc.case == "dissipative_finite"
        assert wc.pi_cr == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_regularized_b_follows_the_divergence_law(self, eps):
        # b(eps) = b0/eps**n, with b0 and n read off the unregularized law
        sing = coefficients_ab(unit_fluid(PowerLaw(k_cons=1.0, m=2.0)))
        at = {e: coefficients_ab(unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=e)))
              for e in (0.5 * eps, eps, 2.0 * eps)}
        assert at[eps].b == pytest.approx(sing.b0 / eps ** sing.n, rel=1e-12)
        assert at[0.5 * eps].b / at[eps].b == pytest.approx(2.0 ** sing.n, rel=1e-12)
        assert at[0.5 * eps].pi_cr > at[eps].pi_cr > at[2.0 * eps].pi_cr

    def test_overflowed_b_is_the_singular_limit(self):
        # a finite damping that overflows to inf: no divergence law, yet the
        # case is read off b, as classify and the amplitude command read it
        wc = coefficients_ab(_OVERFLOW_FLUID)
        assert wc.b == math.inf and wc.pi_cr == math.inf
        assert wc.case == "singular_limit"
        assert wc.n is None and wc.b0 is None

    def test_closed_form_equals_numeric_assembly(self, rng):
        count = 0
        for model in _random_models(rng, 1000):
            if isinstance(model, FluidParams) and \
                    isinstance(model.production, PowerLaw) and model.production.m > 1.0:
                model = FluidParams(rho_star=model.rho_star, R_gas=model.R_gas,
                                    tau0=model.tau0, mu0=model.mu0,
                                    production=Newtonian())
            wc = coefficients_ab(model)
            a_num, b_num = assemble_ab_numeric(model)
            assert a_num == pytest.approx(wc.a, rel=1e-10)
            if wc.b == 0.0:
                assert b_num == 0.0
            else:
                assert b_num == pytest.approx(wc.b, rel=1e-10)
            count += 1
        assert count == 1000

    def test_solid_specialization_randomized(self, rng):
        for _ in range(200):
            model = random_solid(rng)
            E1, E2, tau0, rho = model.E1, model.E2, model.tau0, model.rho_star
            R = model.elastic.R
            wc = coefficients_ab(model)
            assert wc.lambda0 == pytest.approx(math.sqrt((E1 + E2) / rho), rel=1e-12)
            assert wc.a == pytest.approx(-math.sqrt(rho) * E1 * R / (E1 + E2) ** 1.5,
                                         rel=1e-12)
            assert wc.b == pytest.approx(E2 / (2.0 * tau0 * (E1 + E2)), rel=1e-12)
            expected_pi_cr = (E2 / E1) / (2.0 * R * tau0) * math.sqrt((E1 + E2) / rho)
            assert wc.pi_cr == pytest.approx(expected_pi_cr, rel=1e-12)

    def test_fluid_specialization_randomized(self, rng):
        for _ in range(200):
            model = random_fluid(rng, kind="newtonian")
            mt = model.mu_tilde
            Rg, tau0 = model.R_gas, model.tau0
            # mu_tilde - 1 evaluated as the defining ratio: the subtraction
            # cancels badly when viscous effects are a small perturbation
            mt_m1 = model.mu0 / (Rg * model.rho_star * tau0)
            wc = coefficients_ab(model)
            assert wc.lambda0 == pytest.approx(math.sqrt(Rg * mt), rel=1e-12)
            assert wc.a == pytest.approx(-1.0 / math.sqrt(Rg * mt ** 3), rel=1e-12)
            assert wc.b == pytest.approx(mt_m1 / (2.0 * mt * tau0), rel=1e-12)
            assert wc.pi_cr == pytest.approx(
                math.sqrt(Rg * mt) * mt_m1 / (2.0 * tau0), rel=1e-12)

    def test_degenerate_fast_field_rejected(self):
        flat = SolidParams(rho_star=1.0, E2=1.0, tau0=1.0,
                           elastic=QuadraticCubic(R=0.0), E1=1.0)
        with pytest.raises(DegenerateWaveError):
            coefficients_ab(flat)


# b at the edges of the float range, with both signs of zero
_DAMPINGS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min / 3.0,
                                       sys.float_info.max, math.inf]),
                      st.floats(1e-300, 1e300))


class TestDerivedFields:
    """pi_cr and case are properties of b and a: stated once, never stale."""

    @staticmethod
    def _expected_case(b):
        if b == math.inf:
            return "singular_limit"
        return "degenerate" if b == 0.0 else "dissipative_finite"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300),
           b=_DAMPINGS, b_new=_DAMPINGS)
    def test_follow_b(self, a, b, b_new):
        wc = WaveCoefficients(1.0, a, b)
        for w in (wc, dataclasses.replace(wc, b=b_new)):
            expected = w.b / abs(w.a)
            assert w.pi_cr == expected
            assert math.copysign(1.0, w.pi_cr) == math.copysign(1.0, expected)
            assert w.case == self._expected_case(w.b)


class TestKCondition:
    def test_rubber_full(self):
        rep = k_condition(rubber_solid())
        assert rep.full_K and rep.weak_K
        assert rep.zero.grad_f_dot_d_nonzero
        assert not rep.zero.genuinely_nonlinear

    def test_newtonian_holds(self):
        rep = k_condition(unit_fluid())
        assert rep.weak_K and rep.full_K

    def test_shear_thinning_violated(self):
        rep = k_condition(unit_fluid(PowerLaw(k_cons=1.0, m=0.5)))
        assert not rep.weak_K and not rep.full_K
        assert rep.plus.genuinely_nonlinear
        assert not rep.plus.grad_f_dot_d_nonzero
        assert not rep.minus.grad_f_dot_d_nonzero

    def test_singular_slope_counts_as_coupled(self):
        rep = k_condition(unit_fluid(PowerLaw(k_cons=1.0, m=2.0)))
        assert rep.weak_K and rep.full_K

    def test_degenerate_elastic_field_weakly_vacuous(self):
        flat = SolidParams(rho_star=1.0, E2=1.0, tau0=1.0,
                           elastic=QuadraticCubic(R=0.0), E1=1.0)
        rep = k_condition(flat)
        assert not rep.plus.genuinely_nonlinear
        assert rep.weak_K      # no genuinely nonlinear family to violate it
        assert rep.full_K      # coupling still present in every family

    def test_overflowing_coupling_is_silent(self):
        # the coupled term overflows to inf: a nonzero jump, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = k_condition(_OVERFLOW_FLUID)
        assert rep.weak_K and rep.full_K

    def test_verdicts_are_read_off_a_and_b_over_random_materials(self):
        # the paper's central equivalence: weak K holds exactly where the fast
        # field is linearly degenerate (a = 0) or damped (b > 0), full K
        # exactly where b > 0.  Every fourth quadratic-cubic solid is made
        # linear (R = 0), and every other one of those non-relaxing too
        rng = np.random.default_rng(7)
        seen = set()
        for i in range(600):
            for draw in RANDOM_FAMILIES:
                model = draw(rng)
                if draw is random_solid and i % 4 == 0:
                    model = dataclasses.replace(model, elastic=QuadraticCubic(R=0.0),
                                                tau0=math.inf if i % 8 else model.tau0)
                try:
                    wc = coefficients_ab(model)
                    a, b = wc.a, wc.b
                except DegenerateWaveError as exc:
                    a, b = 0.0, exc.b
                rep = k_condition(model)
                assert rep.weak_K == (a == 0.0 or b > 0.0), model
                assert rep.full_K == (b > 0.0), model
                seen.add((a == 0.0, b > 0.0))
        assert seen == {(False, True), (False, False), (True, True), (True, False)}


# ---------------------------------------------------------------------------
# Dispersion relation: the linearized system u_t + A u_x = G u at equilibrium
# has the modes exp(ikx + st), with s an eigenvalue of -ik*A + G.  Its
# spectrum shares none of the closed forms' algebra.
# ---------------------------------------------------------------------------

KAPPA = np.geomspace(1e-4, 1e4, 41)   # kappa = k*lam0/|G|
# eigvals' backward error per unit of k*lam0 + |G|: geev balances the
# matrix, so its error scales with that norm, not with the unbalanced k*|A|,
# which is far larger for stiff solids
ROUND = 8.0 * np.finfo(float).eps
HIGH = (35, 37)   # the grid's kappa = 1e3 and 10**3.4


def _spectrum(model):
    """The matrices -ik*A + G over KAPPA, their eigenvalues (a row per
    kappa) and the rounding bound of each row.  k = kappa*|G|/lam0, with
    1/tau0 in place of |G| where G = 0."""
    eq = equilibrium_state()
    A, G = quasilinear_matrix(model, eq), source_jacobian(model, eq)
    lam0, g = eigensystem(model, eq).lam, np.linalg.norm(G, 2)
    k = KAPPA * (g or 1.0 / model.tau0) / lam0
    M = -1j * k[:, None, None] * A + G
    return M, np.linalg.eigvals(M), ROUND * (k * lam0 + g)


def _high_k_rate(s, tol):
    """The fast mode's high-kappa limit of Re s and its rounding bound, from
    two kappa with the O(1/kappa**2) term eliminated.  The fast mode runs
    right, so Im s = -k*lam0 is the most negative."""
    i, j = HIGH
    re = s[HIGH, s[HIGH, :].imag.argmin(axis=1)].real
    q = (KAPPA[j] / KAPPA[i]) ** 2
    return (q * re[1] - re[0]) / (q - 1.0), (q * tol[j] + tol[i]) / (q - 1.0)


def _c_sk_margin(M, s, tol):
    """c_SK = min over kappa of -max Re s*(1 + kappa**2)/kappa**2, with each
    kappa's rounding bound taken off first: > 0 iff the spectrum is strictly
    dissipative beyond rounding.  Rows whose sign rounding leaves open are
    recomputed in 30-digit mpmath from the same float matrix."""
    max_re = s.real.max(axis=1)
    tol = tol.copy()
    for i in np.flatnonzero(np.abs(max_re) <= tol):
        with mp.workdps(30):
            ev = mp.eig(mp.matrix(M[i].tolist()), left=False, right=False)
            max_re[i] = float(max(mp.re(e) for e in ev))
        tol[i] *= 1e-25 / ROUND
        if max_re[i] >= -tol[i]:
            break   # a mode undamped at this kappa, to 30 digits
    return float(np.min((-max_re - tol) * (1.0 + KAPPA ** 2) / KAPPA ** 2))


@pytest.fixture(scope="module")
def random_spectra():
    """Seeded solids, Mooney-Rivlin solids and fluids with a finite G."""
    rng = np.random.default_rng(2)
    out = []
    for _ in range(300):
        for draw in (random_solid, random_mr_solid, random_fluid):
            model = draw(rng)
            try:
                out.append((model, *_spectrum(model)))
            except ValueError:   # an unregularized thickening law: P_sigma = inf
                pass
    return out


class TestDispersion:
    """The paper's b is the fast mode's high-frequency decay rate, and the
    coupling condition is strict dissipativity of the spectrum
    (Shizuta-Kawashima)."""

    def test_no_mode_grows(self, random_spectra):
        for model, _, s, tol in random_spectra:
            assert np.all(s.real.max(axis=1) <= tol), model

    def test_high_frequency_rate_is_minus_b(self, random_spectra):
        for model, _, s, tol in random_spectra:
            rate, bound = _high_k_rate(s, tol)
            assert abs(rate + coefficients_ab(model).b) <= bound, model

    def test_strict_dissipativity_is_full_k(self, random_spectra):
        verdicts = set()
        for model, M, s, tol in random_spectra:
            full = k_condition(model).full_K
            assert (_c_sk_margin(M, s, tol) > 0.0) == full, model
            verdicts.add(full)
        assert verdicts == {True, False}

    def test_shear_thinning_is_undamped(self, random_spectra):
        thinning = [unit_fluid(PowerLaw(k_cons=1.0, m=0.5))] + [
            model for model, *_ in random_spectra
            if isinstance(model.production, PowerLaw)]
        assert len(thinning) > 1
        for model in thinning:
            assert coefficients_ab(model).b == 0.0
            _, s, tol = _spectrum(model)
            assert np.all(np.abs(s.real) <= tol[:, None]), model

    def test_regularized_rate_follows_b_of_eps(self):
        sing = coefficients_ab(unit_fluid(PowerLaw(k_cons=1.0, m=2.0)))
        eps = np.geomspace(1e-4, 1e-1, 7)
        rates, bounds = [], []
        for e in eps:
            model = unit_fluid(RegularizedPowerLaw(k_cons=1.0, m=2.0, eps=e))
            _, s, tol = _spectrum(model)
            rate, bound = _high_k_rate(s, tol)
            assert abs(rate + coefficients_ab(model).b) <= bound
            rates.append(-rate)
            bounds.append(bound)
        rates, bounds = np.array(rates), np.array(bounds)
        slope = np.diff(np.log(rates)) / np.diff(np.log(eps))
        # each rate's relative error moves the slope by at most its share
        spread = (bounds[1:] / rates[1:] + bounds[:-1] / rates[:-1]) / np.diff(np.log(eps))
        assert np.all(np.abs(slope + sing.n) <= spread)
