"""Tests for the truncated-Gamma / Normal-Laplace special functions.

Expected values marked "frozen" were computed with the independent
oracles defined in this file (high-precision quadrature via mpmath,
adaptive quadrature via scipy) before the implementation existed.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rvmix.errors import DomainError
from rvmix.special import (
    gamma_half_hazard,
    gamma_half_tail,
    normal_laplace_log_z,
    scale_mixture_density,
    tgamma_half_pdf,
    truncation_coefficient,
)


def tail_oracle(k, dps=40):
    """Independent oracle: quadrature of x^{-1/2} e^{-x} / Gamma(1/2) over (k, inf)."""
    with mp.workdps(dps):
        val = mp.quad(lambda x: x ** mp.mpf("-0.5") * mp.e ** (-x) / mp.sqrt(mp.pi), [mp.mpf(k), mp.inf])
        return float(val)


def hazard_oracle(k, dps=200):
    """Arbitrary-precision oracle for the density/tail ratio."""
    with mp.workdps(dps):
        kk = mp.mpf(k)
        tail = mp.gammainc(mp.mpf("0.5"), kk, mp.inf, regularized=True)
        return float(kk ** mp.mpf("-0.5") * mp.e ** (-kk) / mp.sqrt(mp.pi) / tail)


class TestGammaHalfTail:
    def test_full_mass_at_zero(self):
        assert gamma_half_tail(0.0) == 1.0

    def test_k_one_frozen(self):
        # frozen from tail_oracle(1.0) at 60 digits
        assert gamma_half_tail(1.0) == pytest.approx(0.15729920705028513, rel=1e-14)

    def test_deep_tail_positive(self):
        v = gamma_half_tail(25.0)
        assert 0.0 < v < 1e-10
        assert gamma_half_tail(700.0) > 0.0

    def test_matches_quadrature_oracle(self):
        for k in [0.0, 0.05, 0.5, 1.0, 3.0, 10.0, 50.0, 200.0, 700.0]:
            assert gamma_half_tail(k) == pytest.approx(tail_oracle(k), rel=1e-12)

    def test_strictly_decreasing(self):
        ks = np.linspace(0.0, 30.0, 200)
        vals = gamma_half_tail(ks)
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_half_tail(-1e-9)
        with pytest.raises(DomainError):
            gamma_half_tail(np.nan)


class TestGammaHalfHazard:
    def test_k_one_frozen(self):
        # frozen from hazard_oracle(1.0): Ga(1|1/2,1) / tail(1)
        assert gamma_half_hazard(1.0) == pytest.approx(1.3194837571173956, rel=1e-13)

    def test_large_k_against_high_precision_oracle(self):
        # frozen from the 200-digit oracle; also within 0.1% of 1 + 1/(2k)
        assert gamma_half_hazard(1e4) == pytest.approx(1.0000499950012495, rel=1e-13)
        assert abs(gamma_half_hazard(1e4) - (1 + 1 / 2e4)) < 1e-3

    def test_small_k_divergence_rate(self):
        # leading term 1/sqrt(pi*k); next-order correction is O(sqrt(k))
        for k in [1e-6, 1e-9, 1e-12]:
            lead = 1.0 / (np.sqrt(np.pi) * np.sqrt(k))
            assert gamma_half_hazard(k) == pytest.approx(lead, rel=3 * np.sqrt(k) + 1e-9)

    def test_increasing_and_finite_far_out(self):
        ks = np.logspace(0, 8, 60)
        vals = gamma_half_hazard(ks)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) < 0)  # decreasing toward 1 from above on k >= 1
        assert np.all(vals > 1.0)

    def test_monotone_identity_with_tail(self):
        # hazard = pdf/tail must match a direct (well-conditioned) ratio at moderate k
        for k in [0.5, 1.0, 2.0, 5.0]:
            pdf = np.exp(-k) / (np.sqrt(k) * np.sqrt(np.pi))
            assert gamma_half_hazard(k) == pytest.approx(pdf / gamma_half_tail(k), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_half_hazard(0.0)


class TestTGammaHalfPdf:
    def test_below_truncation_is_zero(self):
        assert tgamma_half_pdf(0.5, 1.0) == 0.0

    def test_untruncated_matches_plain_gamma(self):
        for g in [0.1, 1.0, 4.0]:
            plain = g ** -0.5 * np.exp(-g) / np.sqrt(np.pi)
            assert tgamma_half_pdf(g, 0.0) == pytest.approx(plain, rel=1e-14)

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0])
    def test_normalization(self, k):
        val, _ = integrate.quad(lambda g: tgamma_half_pdf(g, k), k, k + 60.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestNormalLaplaceLogZ:
    def test_pure_gaussian(self):
        assert normal_laplace_log_z(1.0, 0.0) == pytest.approx(np.log(np.sqrt(np.pi)), rel=1e-14)

    def test_against_quadrature(self):
        val, _ = integrate.quad(lambda x: np.exp(-x * x - 2 * abs(x)), -np.inf, np.inf)
        assert normal_laplace_log_z(1.0, 2.0) == pytest.approx(np.log(val), abs=1e-10)

    def test_laplace_dominated_no_overflow(self):
        # k = 100^2/(4*0.5) = 5000; naive exp(k)*erfc overflows, erfcx must not
        lz = normal_laplace_log_z(0.5, 100.0)
        assert np.isfinite(lz)
        # Laplace-dominated limit: Z -> 2/alpha2 * (1 + O(alpha1/alpha2^2))
        assert lz == pytest.approx(np.log(2.0 / 100.0), abs=2e-4)

    def test_laplace_limit_quadrature(self):
        val, _ = integrate.quad(lambda x: np.exp(-0.5 * x * x - 100 * abs(x)), -np.inf, np.inf)
        assert normal_laplace_log_z(0.5, 100.0) == pytest.approx(np.log(val), abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            normal_laplace_log_z(0.0, 1.0)


class TestScaleMixture:
    def test_untruncated_collapses_to_fixed_gaussian(self):
        # k = 0 makes the mixture variance constant 1/(2*alpha1); with
        # alpha1 = 1/2 that is the standard normal at every x.
        assert scale_mixture_density(0.0, 0.5, 0.0) == pytest.approx(
            1 / np.sqrt(2 * np.pi), abs=1e-9
        )

    def test_identity_with_normal_laplace(self):
        # alpha1=1, alpha2=2 -> k = 1
        a1, a2 = 1.0, 2.0
        k = truncation_coefficient(a1, a2)
        assert k == 1.0
        x = 0.7
        lhs = scale_mixture_density(x, a1, k)
        rhs = np.exp(-a1 * x * x - a2 * abs(x) - normal_laplace_log_z(a1, a2))
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_identity_grid(self):
        # Mixture identity over the full hyperparameter grid and x-grid.
        xs = np.linspace(-5.0, 5.0, 41)
        worst = 0.0
        for a1 in (0.1, 1.0, 10.0):
            for a2 in (0.1, 1.0, 10.0):
                k = truncation_coefficient(a1, a2)
                lz = normal_laplace_log_z(a1, a2)
                for x in xs:
                    mix = scale_mixture_density(x, a1, k)
                    ref = np.exp(-a1 * x * x - a2 * abs(x) - lz)
                    worst = max(worst, abs(mix - ref))
        assert worst <= 1e-6

    # the quadrature must converge cleanly, not merely come out symmetric
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @given(
        x=st.floats(-4, 4),
        a1=st.floats(0.2, 5.0),
        a2=st.floats(0.0, 5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, x, a1, a2):
        k = truncation_coefficient(a1, a2)
        assert scale_mixture_density(x, a1, k) == pytest.approx(
            scale_mixture_density(-x, a1, k), rel=1e-9, abs=1e-12
        )

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("x, a1, a2", [
        (1.0, 5.0, 1e-4),  # sqrt(k) ~ 2e-5: the variance factor steps on that scale
        (1e-5, 0.2, 5.0),  # the Gaussian factor switches on near u ~ 3e-5
        (0.1206, 0.856, 3.74e-5),  # both scales, a decade apart
        (2.0, 1.0, 1e-160),  # sqrt(k) far below any scale that holds mass
    ])
    def test_narrow_scales_converge(self, x, a1, a2):
        # the mixture has features at u ~ sqrt(k) and where the variance
        # reaches x**2; unsplit, the adaptive rule stalled on roundoff here
        # and was off by up to 1e-4 relative
        k = truncation_coefficient(a1, a2)
        ref = np.exp(-a1 * x * x - a2 * abs(x) - normal_laplace_log_z(a1, a2))
        assert scale_mixture_density(x, a1, k) == pytest.approx(ref, rel=1e-10)

    def test_truncation_point_consistency(self):
        # k from (alpha1, alpha2) is exactly where the truncated pdf support starts
        a1, a2 = 2.0, 3.0
        k = truncation_coefficient(a1, a2)
        assert tgamma_half_pdf(k * (1 - 1e-12), k) == 0.0
        assert tgamma_half_pdf(k * (1 + 1e-9), k) > 0.0

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_truncation_beyond_fifty(self, x):
        # alpha1 = 1, alpha2 = 20 -> k = 100: u = sqrt(gamma - k) runs over
        # [0, sqrt(50)] whatever k, so a truncation beyond 50 is integrated too
        a1, a2 = 1.0, 20.0
        k = truncation_coefficient(a1, a2)
        assert k == 100.0
        ref = np.exp(-a1 * x * x - a2 * abs(x) - normal_laplace_log_z(a1, a2))
        assert scale_mixture_density(x, a1, k) == pytest.approx(ref, rel=1e-12)
