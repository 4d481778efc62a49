"""Special-function building blocks against frozen values and recursions."""

import re
from math import inf, lgamma, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, expi, hyp2f1, jv, yv

from jmscatter import specfun as sf
from jmscatter.reference import energy_point, reference_coefficients
from oracles import (
    exp_integral_ei_scalar,
    gegenbauer,
    gegenbauer_associated,
    hyp2f1_terminating,
    laguerre_associated_normalized,
    laguerre_normalized,
)


class TestLaguerreNormalized:
    def test_degree_zero_is_one(self):
        assert laguerre_normalized(0, 3, 7.2) == 1.0

    def test_degree_one_root(self):
        assert laguerre_normalized(1, 0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_degree_two_value(self):
        # L_2(x) = 1 - 2x + x^2/2, unit normalization at ell = 0
        assert laguerre_normalized(2, 0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_matches_scipy_normalization(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            k = int(rng.integers(0, 15))
            ell = int(rng.integers(0, 5))
            x = float(rng.uniform(0.0, 30.0))
            norm = np.exp(0.5 * (lgamma(k + 1) + lgamma(ell + 1) - lgamma(k + ell + 1)))
            expected = norm * eval_genlaguerre(k, ell, x)
            assert laguerre_normalized(k, ell, x) == pytest.approx(
                float(expected), rel=1e-10, abs=1e-12
            )

    def test_array_input(self):
        x = np.linspace(0.0, 5.0, 7)
        out = laguerre_normalized(3, 2, x)
        assert out.shape == x.shape
        assert out[0] == pytest.approx(laguerre_normalized(3, 2, 0.0))

    @given(
        k=st.integers(min_value=1, max_value=20),
        ell=st.integers(min_value=0, max_value=4),
        x=st.floats(min_value=0.01, max_value=40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_term_recursion(self, k, ell, x):
        lk = laguerre_normalized(k, ell, x)
        lkm = laguerre_normalized(k - 1, ell, x)
        lkp = laguerre_normalized(k + 1, ell, x)
        lhs = x * lk
        rhs = (
            (2 * k + ell + 1) * lk
            - np.sqrt(k * (k + ell)) * lkm
            - np.sqrt((k + 1) * (k + ell + 1)) * lkp
        )
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) / scale < 1e-11


class TestLaguerreAssociated:
    def test_convention_below_range(self):
        assert laguerre_associated_normalized(-1, 2, 3.0) == 0.0

    def test_degree_zero(self):
        assert laguerre_associated_normalized(0, 0, 5.0) == 1.0

    def test_degree_one_shifted_coefficients(self):
        # (x - eta_1)/sigma_1 with eta_1 = 3, sigma_1 = 2 at ell = 0
        assert laguerre_associated_normalized(1, 0, 1.0) == pytest.approx(-1.0, rel=1e-14)

    def test_zero_association_order_is_signed_plain_polynomial(self):
        for k in range(6):
            got = laguerre_associated_normalized(k, 1, 2.3, j=0)
            want = (-1.0) ** k * laguerre_normalized(k, 1, 2.3)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestBesselWrappers:
    def test_matches_scipy(self):
        for ell in (0, 1, 3):
            for x in (0.3, 2.0, 17.5, 80.0):
                assert sf.bessel_j(ell, x) == pytest.approx(float(jv(ell, x)), rel=1e-12)
                assert sf.bessel_y(ell, x) == pytest.approx(float(yv(ell, x)), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            sf.bessel_y(0, 0.0)
        with pytest.raises(ValueError):
            sf.bessel_j(-1, 1.0)


class TestExponentialIntegral:
    def test_frozen_value_at_one(self):
        assert sf.exp_integral_ei(1.0) == pytest.approx(1.8951178163559368, rel=1e-14)

    def test_matches_scipy(self):
        for u in (0.1, 0.5, 2.0, 6.0, 20.0):
            assert sf.exp_integral_ei(u) == pytest.approx(float(expi(u)), rel=1e-12)

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError):
            sf.exp_integral_ei(0.0)

    def test_overflow_raises_at_once(self):
        with pytest.raises(ArithmeticError, match=r"overflows float64 at u = 2E/lambda\^2 = 720$"):
            sf.exp_integral_ei(720.0)


class TestUpperGammaNegative:
    def test_order_zero_reduces_to_ei(self):
        # Re Gamma(0, -u) = -Ei(u)
        assert sf.re_upper_gamma_neg(0, 1.0) == pytest.approx(
            -1.8951178163559368, rel=1e-14
        )

    def test_regression_value(self):
        # covered transitively by the closed-form cosine-coefficient
        # identity in test_reference; kept frozen against drift
        assert sf.re_upper_gamma_neg(2, 0.7) == pytest.approx(
            2.960790895238682, rel=1e-13
        )

    def test_recurrence_in_order(self):
        # Gamma(a+1, z) = a Gamma(a, z) + z^a e^{-z} at a = -ell-1, z = -u:
        # real parts with z^a = (-1)^a u^a for integer a
        for ell in (1, 2, 3):
            for u in (0.4, 1.3, 2.9):
                lhs = sf.re_upper_gamma_neg(ell - 1, u)
                a = -ell
                rhs = a * sf.re_upper_gamma_neg(ell, u) + ((-u) ** a) * np.exp(u)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_overflow_of_exponential_raises(self):
        with pytest.raises(ArithmeticError, match=r"overflows float64 at u = 2E/lambda\^2 = 710$"):
            sf.re_upper_gamma_neg(1, 710.0)


class TestArrayArguments:
    # a shuffled grid, so that neighbouring elements stop at different terms
    U = np.random.default_rng(7).permutation(np.geomspace(1e-3, 700.0, 301))

    def test_ei_array_is_its_scalar_calls(self):
        values = sf.exp_integral_ei(self.U)
        assert np.array_equal(values, [sf.exp_integral_ei(u) for u in self.U.tolist()])
        assert np.array_equal(values, [exp_integral_ei_scalar(u) for u in self.U.tolist()])

    def test_ei_array_is_the_scalar_series_on_a_dense_sample(self):
        # numpy's log differs from math.log on about 1e-3 of these u, and a
        # few of those reach Ei's last bit
        u = np.random.default_rng(7).uniform(1e-3, 50.0, 20000)
        assert np.array_equal(sf.exp_integral_ei(u), [exp_integral_ei_scalar(v) for v in u.tolist()])

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_upper_gamma_array_is_its_scalar_calls(self, ell):
        values = sf.re_upper_gamma_neg(ell, self.U)
        assert np.array_equal(values, [sf.re_upper_gamma_neg(ell, u) for u in self.U.tolist()])

    def test_scalar_in_scalar_out(self):
        assert type(sf.exp_integral_ei(2.0)) is float
        assert type(sf.re_upper_gamma_neg(1, 2.0)) is float
        assert sf.exp_integral_ei(np.array([2.0])).shape == (1,)

    @pytest.mark.parametrize("ell,u", [(0, 720.0), (1, 710.0), (3, 710.0)])
    def test_one_overflowing_u_in_a_grid_raises_naming_it(self, ell, u):
        grid = [1.0, 3.0, u, 0.5]
        with pytest.raises(ArithmeticError, match=rf"= {u:g}$"):
            sf.re_upper_gamma_neg(ell, grid)
        if ell == 0:
            with pytest.raises(ArithmeticError, match=rf"= {u:g}$"):
                sf.exp_integral_ei(grid)

    @pytest.mark.parametrize("bad", [0.0, -2.0, nan, inf])
    def test_non_positive_or_non_finite_u_refused(self, bad):
        grid = [1.0, bad, 2.0]
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            sf.exp_integral_ei(grid)
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            sf.re_upper_gamma_neg(2, grid)
        with pytest.raises(ValueError):
            sf.exp_integral_ei(bad)


class TestHypergeometric:
    def test_terminating_linear_case(self):
        # 2F1(-1, b; c; x) = 1 - b x / c
        assert hyp2f1_terminating(-1, 2.0, 3.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_terminating_degree_zero(self):
        assert hyp2f1_terminating(0, 4.5, 2.2, 0.9) == 1.0

    def test_terminating_vs_series(self):
        for a in (-2, -5):
            for b, c, x in ((1.5, 2.5, 0.3), (3.0, 4.0, 0.45)):
                assert hyp2f1_terminating(a, b, c, x) == pytest.approx(
                    hyp2f1(float(a), b, c, x), rel=1e-12
                )

    def test_terminating_rejects_parameter_pole(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-3, 2.0, -1.0, 0.5)

    def test_series_arctanh_identity(self):
        # 2F1(1/2, 1; 3/2; z^2) = atanh(z)/z
        z = 0.5
        assert hyp2f1(0.5, 1.0, 1.5, z * z) == pytest.approx(
            float(np.arctanh(z) / z), rel=1e-13
        )

    def test_series_rejects_divergent_argument(self):
        # cos(theta)^2 of the Laguerre seeds within 1e-8 of 1, where 2F1 diverges
        with pytest.raises(ValueError):
            reference_coefficients(energy_point(1e-10, 1.0), 0, 5, basis="laguerre")

    def test_laguerre_reference_finite_near_threshold(self):
        # 1 - cos(theta)^2 = 3.2e-5: inside the band where a plain 2F1 series runs out of terms
        ref = reference_coefficients(energy_point(1e-6, 1.0), 0, 5, basis="laguerre")
        assert np.isfinite(ref.s).all() and np.isfinite(ref.c).all()


class TestGegenbauer:
    def test_legendre_special_case(self):
        # C_2^{1/2} is the Legendre polynomial P_2
        assert gegenbauer(2, 0.5, 0.4) == pytest.approx(-0.26, rel=1e-12)

    def test_low_degrees(self):
        nu, x = 1.5, 0.37
        assert gegenbauer(0, nu, x) == 1.0
        assert gegenbauer(1, nu, x) == pytest.approx(2 * nu * x, rel=1e-14)

    def test_matches_scipy(self):
        from scipy.special import gegenbauer as sp_gegenbauer

        for k in range(8):
            poly = sp_gegenbauer(k, 1.5)
            assert gegenbauer(k, 1.5, 0.37) == pytest.approx(
                float(poly(0.37)), rel=1e-11, abs=1e-13
            )

    def test_associated_seed_values(self):
        nu, x = 1.5, 0.2
        assert gegenbauer_associated(-1, nu, x) == 0.0
        assert gegenbauer_associated(0, nu, x) == 1.0
        assert gegenbauer_associated(1, nu, x) == pytest.approx((nu + 1) * x, rel=1e-14)

    @given(
        k=st.integers(min_value=1, max_value=15),
        x=st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_associated_recursion(self, k, x):
        nu = 2.5
        ck = gegenbauer_associated(k, nu, x)
        ckm = gegenbauer_associated(k - 1, nu, x)
        ckp = gegenbauer_associated(k + 1, nu, x)
        lhs = (k + 2) * ckp
        rhs = 2 * (k + nu + 1) * x * ck - (k + 2 * nu) * ckm
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))
