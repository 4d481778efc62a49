"""Interior operator assembly and the two-sided nonlinear weight integrals."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

from jmscatter import hamiltonian as ham
from jmscatter.quadrature import build_rule
from jmscatter.reference import reference_coefficients
from jmscatter.specfun import jacobi_coefficients
from oracles import f_weight_analytic


class TestPotentials:
    def test_power_exponential_values(self):
        pot = ham.PowerExponentialPotential(7.5, 2.0, 1.0)
        assert pot(0.0) == 0.0
        assert pot(2.0) == pytest.approx(30.0 * np.exp(-2.0), rel=1e-14)

    def test_power_exponential_validation(self):
        with pytest.raises(ValueError):
            ham.PowerExponentialPotential(1.0, 2.0, -0.5)
        with pytest.raises(ValueError):
            ham.PowerExponentialPotential(1.0, -2.0, 1.0)

    def test_piecewise_linear_values(self):
        pot = ham.PiecewiseLinearPotential((0.0, 1.2, 3.0, 7.0), (0.0, 2.4, 2.4, 0.0))
        assert pot(0.0) == 0.0
        assert pot(0.6) == pytest.approx(1.2)
        assert pot(2.0) == pytest.approx(2.4)
        assert pot(5.0) == pytest.approx(2.4 * 2.0 / 4.0)
        assert pot(9.0) == 0.0  # zero beyond the last breakpoint

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            ham.PiecewiseLinearPotential((0.5, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            ham.PiecewiseLinearPotential((0.0, 1.0, 0.5), (0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            ham.PiecewiseLinearPotential((0.0,), (1.0,))


class TestFreeMatrix:
    def test_coefficients_positive_and_growing(self):
        a, b = ham.free_matrix_coeffs(30, 1, 1.3)
        assert np.all(a > 0)
        assert np.all(np.diff(a) > 0)
        assert np.all(b > 0)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.5, 1.0, 3.7])
    def test_tridiagonal_action_annihilates_sine_coefficients(self, ell, energy):
        # the free operator acting on the regular reference solution must
        # vanish row by row; this ties a, b to the analytic solution
        s, _ = reference_coefficients(energy, 1.0, ell, 60)
        a, b = ham.free_matrix_coeffs(60, ell, 1.0)
        for k in range(1, 59):
            residual = (
                a[k] * s[k]
                + b[k - 1] * s[k - 1]
                + b[k] * s[k + 1]
                - energy * s[k]
            )
            assert abs(residual) < 1e-12


class TestPotentialMatrix:
    def test_multiplication_by_r_squared_is_jacobi(self):
        # V = r^2 maps to J / lam^2 exactly (three-term recursion in x)
        lam, size = 1.3, 10
        rule = build_rule(40, 2)
        pot = ham.PowerExponentialPotential(1.0, 2.0, 0.0)
        w = ham.potential_matrix(rule, pot, lam, size)
        diag, off = jacobi_coefficients(size - 1, 2)
        tri = (np.diag(diag) - np.diag(off[:-1], 1) - np.diag(off[:-1], -1)) / lam**2
        assert np.abs(w - tri).max() < 1e-12

    def test_symmetry(self, rule100_l0):
        pot = ham.PowerExponentialPotential(7.5, 2.0, 1.0)
        w = ham.potential_matrix(rule100_l0, pot, 1.0, 20)
        assert np.abs(w - w.T).max() < 1e-14

    def test_localized_level_stable_across_scale(self):
        # the potential content of H must not depend on the basis scale
        # once the basis is adequate: the quasi-bound level near 2.517
        # stays put over the lambda plateau (its wobble is bounded by the
        # resonance width, a few parts in 1e4)
        pot = ham.PowerExponentialPotential(7.5, 2.0, 1.0)
        rule = build_rule(120, 0)
        levels = []
        for lam in (0.8, 1.0, 1.25):
            h = ham.assemble_linear(pot, n_basis=40, ell=0, lam=lam, rule=rule)
            eigs = np.sort(h.eigenvalues)
            levels.append(eigs[np.argmin(np.abs(eigs - 2.517))])
        spread = (max(levels) - min(levels)) / np.mean(levels)
        assert spread < 1e-3

    def test_assemble_shapes_and_symmetry(self, rule100_l1):
        pot = ham.PiecewiseLinearPotential((0.0, 1.2, 3.0, 7.0), (0.0, 2.4, 2.4, 0.0))
        h = ham.assemble_linear(pot, n_basis=20, ell=1, lam=1.0, rule=rule100_l1)
        assert h.matrix.shape == (20, 20)
        assert np.abs(h.matrix - h.matrix.T).max() < 1e-13
        assert h.eigenvalues.shape == (20,)
        assert h.coeffs[0].size >= 21  # edge coefficients reach the tail row


class TestNonlinearWeight:
    def test_frozen_corner_values(self):
        # hand-computed integrals of the lowest basis products
        assert f_weight_analytic(1, 0, 1, 1)[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert f_weight_analytic(2, 0, 1, 1)[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert f_weight_analytic(1, 0, 2, 2)[1, 0] == pytest.approx(0.25, rel=1e-13)
        assert f_weight_analytic(1, 1, 1, 1)[0, 0] == pytest.approx(0.25, rel=1e-13)
        assert f_weight_analytic(1, 1, 2, 2)[1, 0] == pytest.approx(
            1.0 / (8.0 * np.sqrt(2.0)), rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_analytic_matches_quadrature(self, n, ell):
        # the alternating closed form sheds digits as the indices grow
        # (2e-10 by 25x25, 7e-9 by 30x30); the working basis size holds
        # comfortable agreement, and the exact quadrature route is the
        # production path
        fa = f_weight_analytic(n, ell, 20, 20)
        fq = ham.f_weight_quadrature(n, ell, 20)
        assert np.abs(fa - fq).max() < 1e-10

    def test_analytic_symmetric(self):
        f = f_weight_analytic(2, 1, 30, 30)
        assert np.abs(f - f.T).max() < 1e-12

    def test_edge_diagonal_decays_with_size(self):
        # larger bases push the edge diagonal down; this is the
        # observational diagnostic behind the basis-size choice
        values = [ham.f_weight_quadrature(1, 0, n)[-1, -1] for n in (10, 20, 40)]
        assert values[0] > values[1] > values[2] > 0

    @pytest.mark.parametrize("size", [80, 120])
    def test_edge_diagonal_matches_adaptive_quadrature(self, size):
        # table3's F (n = 1, ell = 1) at the basis edge, where the Gauss
        # weights of a basis rule lose their relative accuracy on the tail
        # nodes, against scipy's quad of (1/ell!) x^(2 ell) e^(-2x) L~_k(x)^2,
        # k = N - 1, as the square of its enveloped half. quad over [0, inf)
        # overflows; past 8N the integrand is below e^(-8N)
        n, ell, k = 1, 1, size - 1
        norm = np.exp(0.5 * (gammaln(k + 1) - gammaln(k + ell + 1)))  # L~_k^2 / ell! = (k!/(k+ell)!) L_k^2

        def half(x):
            return norm * x ** (0.5 * (n + 1) * ell) * np.exp(-0.5 * (n + 1) * x) * eval_genlaguerre(k, ell, x)

        want, err = quad(lambda x: half(x) ** 2, 0.0, 8.0 * size, limit=2000, epsabs=0.0, epsrel=1e-13)
        assert err < 1e-12 * want
        assert ham.f_weight_quadrature(n, ell, size)[-1, -1] == pytest.approx(want, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_weight_analytic(0, 0, 5, 5)
        with pytest.raises(ValueError):
            ham.f_weight_quadrature(1, -1, 5)
