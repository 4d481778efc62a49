"""Special-function building blocks against frozen values and recursions."""

import hashlib
import re
from math import inf, lgamma, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, expi, hyp2f1, jv, yv

from jmscatter import specfun as sf
from jmscatter.reference import _hyp2f1_seed, reference_coefficients
from oracles import (
    exp_integral_ei_scalar,
    gegenbauer,
    gegenbauer_associated,
    hyp2f1_terminating,
    laguerre_associated_normalized,
    laguerre_normalized,
    laguerre_streamed,
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


class TestLaguerreBlocks:
    @pytest.mark.parametrize("kmax", [0, 1, 2, 63, 64, 65, 128, 129, 200])
    def test_blocks_are_the_plain_recursion_bit_for_bit(self, kmax):
        x = np.linspace(0.0, 40.0, 9)
        envelope = np.exp(-0.5 * x) * x
        for xs, first in ((2.5, 1.0), (x, 1.0), (x, envelope), (2.5, envelope)):
            shape = np.broadcast_shapes(np.shape(xs), np.shape(first))
            got = np.concatenate([block.copy() for block in sf.laguerre_upward(kmax, 1, xs, first)])
            want = np.array([np.broadcast_to(p, shape) for p in laguerre_streamed(kmax, 1, xs, first)])
            assert got.shape == want.shape == (kmax + 1, *shape)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_block_lengths(self):
        lengths = [len(block) for block in sf.laguerre_upward(200, 0, np.ones(3))]
        assert lengths == [sf.LAGUERRE_BLOCK + 1, sf.LAGUERRE_BLOCK, sf.LAGUERRE_BLOCK, 200 - 3 * sf.LAGUERRE_BLOCK]


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


def bessel_j(ell, x):
    return sf.bessel_jy(ell, x)[0]


def bessel_y(ell, x):
    return sf.bessel_jy(ell, x)[1]


class TestBessel:
    # a log grid over [1e-10, 1e4] plus the neighbours of the switch from Miller's recurrence to Hankel's expansion
    X = np.concatenate([np.geomspace(1e-10, 1e4, 3001), np.nextafter(50.0, [0.0, inf]), [50.0]])

    @pytest.mark.parametrize("ell", range(6))
    def test_matches_scipy_across_the_switch(self, ell):
        for ours, ref in ((bessel_j, jv), (bessel_y, yv)):
            want = ref(ell, self.X)
            assert np.all(np.abs(ours(ell, self.X) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("ell", range(6))
    def test_array_is_its_scalar_calls(self, ell):
        x = np.random.default_rng(ell).permutation(np.concatenate([self.X[::20], self.X[-3:], [0.0, 1e-300, 1e-45]]))
        assert np.array_equal(bessel_j(ell, x), [bessel_j(ell, v) for v in x.tolist()])
        x = x[x > 0]
        assert np.array_equal(bessel_y(ell, x), [bessel_y(ell, v) for v in x.tolist()])

    def test_extreme_arguments_and_large_orders(self):
        # below 1e-40 the leading series terms; above order 50 Miller's range reaches x = ell
        for ell, x in ((0, 1e-300), (1, 1e-300), (3, 1e-45), (3, 1e-39), (2, 1e8), (60, 55.0), (60, 80.0), (60, 30.0)):
            for ours, ref in ((bessel_j, jv), (bessel_y, yv)):
                want = float(ref(ell, x))
                assert ours(ell, x) == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert bessel_y(60, 1e-4) == yv(60, 1e-4) == -inf
        # scipy's yv(0, 5e-324) is -inf; Y_0 there is (2/pi)(ln(x/2) + gamma), about -474
        assert (bessel_j(0, 5e-324), bessel_y(0, 5e-324)) == (1.0, pytest.approx(-473.99907342300423, rel=1e-15))

    def test_bits_are_pinned_where_miller_rescales(self):
        # small x at high order drives Miller's recurrence past its rescale threshold
        x, digest = np.geomspace(1e-45, 1e4, 4001), hashlib.sha256()
        for ell in (0, 3, 12, 40, 120):
            j, y = sf.bessel_jy(ell, x)
            digest.update(j.tobytes() + y.tobytes())
        assert digest.hexdigest() == "a4e2d6e72e395ba8abfb1b43ae53ddc0660d1f6d70a2161320a8b3e02a3a9004"

    def test_origin_and_empty_input(self):
        assert bessel_j(0, 0.0) == 1.0
        assert [bessel_j(ell, 0.0) for ell in (1, 2, 5)] == [0.0, 0.0, 0.0]
        assert bessel_j(1, np.array([0.0, 0.0])).tolist() == [0.0, 0.0]
        for func in (bessel_j, bessel_y):
            out = func(2, np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert bessel_j(1, np.ones((2, 3))).shape == (2, 3)
        assert type(bessel_j(1, 2.0)) is float and type(bessel_y(1, 2.0)) is float

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_y(0, -1.0)
        # Y_ell(0) is its limit, as in scipy
        assert [bessel_y(ell, 0.0) for ell in (0, 1, 3)] == [yv(ell, 0.0) for ell in (0, 1, 3)] == [-inf] * 3
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)

    @pytest.mark.parametrize("bad", [nan, inf, -inf])
    def test_non_finite_argument_refused_by_value(self, bad):
        for func in (bessel_j, bessel_y):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                func(1, [1.0, bad, 2.0])

    @pytest.mark.parametrize("bad", [0.5, 2.25, nan])
    def test_non_integer_order_refused_by_value(self, bad):
        for func in (bessel_j, bessel_y):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                func(bad, 1.0)
        assert bessel_j(2.0, 1.5) == bessel_j(2, 1.5)


class TestExponentialIntegral:
    def test_frozen_value_at_one(self):
        assert -sf.re_upper_gamma_neg(0, 1.0) == pytest.approx(1.8951178163559368, rel=1e-14)

    def test_matches_scipy(self):
        for u in (0.1, 0.5, 2.0, 6.0, 20.0):
            assert -sf.re_upper_gamma_neg(0, u) == pytest.approx(float(expi(u)), rel=1e-12)

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError):
            sf.re_upper_gamma_neg(0, 0.0)

    def test_overflow_raises_at_once(self):
        with pytest.raises(ArithmeticError, match=r"overflows float64 at u = 2E/lambda\^2 = 720$"):
            sf.re_upper_gamma_neg(0, 720.0)


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
        values = -sf.re_upper_gamma_neg(0, self.U)
        assert np.array_equal(values, [-sf.re_upper_gamma_neg(0, u) for u in self.U.tolist()])
        assert np.array_equal(values, [exp_integral_ei_scalar(u) for u in self.U.tolist()])

    def test_ei_array_is_the_scalar_series_on_a_dense_sample(self):
        # numpy's log differs from math.log on about 1e-3 of these u, and a
        # few of those reach Ei's last bit
        u = np.random.default_rng(7).uniform(1e-3, 50.0, 20000)
        assert np.array_equal(-sf.re_upper_gamma_neg(0, u), [exp_integral_ei_scalar(v) for v in u.tolist()])

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_upper_gamma_array_is_its_scalar_calls(self, ell):
        values = sf.re_upper_gamma_neg(ell, self.U)
        assert np.array_equal(values, [sf.re_upper_gamma_neg(ell, u) for u in self.U.tolist()])

    def test_scalar_in_scalar_out(self):
        assert type(-sf.re_upper_gamma_neg(0, 2.0)) is float
        assert type(sf.re_upper_gamma_neg(1, 2.0)) is float
        assert sf.re_upper_gamma_neg(0, np.array([2.0])).shape == (1,)

    @pytest.mark.parametrize("ell,u", [(0, 720.0), (1, 710.0), (3, 710.0)])
    def test_one_overflowing_u_in_a_grid_raises_naming_it(self, ell, u):
        grid = [1.0, 3.0, u, 0.5]
        with pytest.raises(ArithmeticError, match=rf"= {u:g}$"):
            sf.re_upper_gamma_neg(ell, grid)

    @pytest.mark.parametrize("bad", [nan, inf, 0.0, -0.0, -2.5])
    def test_finite_positive_names_a_refused_value_last_in_a_long_array(self, bad):
        values = np.append(np.linspace(0.5, 6.0, 9999), bad)
        with pytest.raises(ValueError) as refused:
            sf.finite_positive(values, "scattering energy")
        assert str(refused.value) == f"scattering energy must be finite and positive, got {bad!r}"
        # of several refused values, the first is named
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            sf.finite_positive([1.0, bad, -1.0, nan], "u")
        assert np.array_equal(sf.finite_positive(values[:-1], "u"), values[:-1])

    @pytest.mark.parametrize("bad", [0.0, -2.0, nan, inf])
    def test_non_positive_or_non_finite_u_refused(self, bad):
        grid = [1.0, bad, 2.0]
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            sf.re_upper_gamma_neg(0, grid)
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            sf.re_upper_gamma_neg(2, grid)
        with pytest.raises(ValueError):
            sf.re_upper_gamma_neg(0, bad)


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

    @pytest.mark.parametrize("ell", range(6))
    def test_laguerre_seed_matches_scipy(self, ell):
        # cos(theta) of both signs, on both artanh branches, up to the 1 - 1e-8 refusal band
        mu = np.concatenate([np.geomspace(5e-5, 0.5, 400), np.geomspace(0.5, 2e4, 800)])
        den = mu * mu + 0.25
        for ct, st in zip(((mu * mu - 0.25) / den).tolist(), (mu / den).tolist()):
            z = ct * ct
            if z >= 1 - 1e-8:
                continue
            want = hyp2f1(0.5, ell + 1, 1.5, z)
            tol = 1e-14 + 4e-16 * (ell + 1) / (1 - z)
            assert abs(_hyp2f1_seed(ell, ct, st) - want) <= tol * want

    def test_laguerre_seed_at_zero_cosine(self):
        assert [_hyp2f1_seed(ell, 0.0, 1.0) for ell in range(4)] == [1.0, 1.0, 1.0, 1.0]

    def test_series_rejects_divergent_argument(self):
        # cos(theta)^2 of the Laguerre seeds within 1e-8 of 1, where 2F1 diverges
        with pytest.raises(ValueError):
            reference_coefficients(1e-10, 1.0, 0, 5, basis="laguerre")

    def test_laguerre_reference_finite_near_threshold(self):
        # 1 - cos(theta)^2 = 3.2e-5: inside the band where a plain 2F1 series runs out of terms
        s, c = reference_coefficients(1e-6, 1.0, 0, 5, basis="laguerre")
        assert np.isfinite(s).all() and np.isfinite(c).all()


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
