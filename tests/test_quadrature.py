"""Gauss rules from the Jacobi matrix: nodes, weights, stencil, exactness."""

from dataclasses import replace
from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmscatter.linearize import d_tensor
from jmscatter.quadrature import build_rule
from jmscatter.solver import r_matrix
from jmscatter.specfun import jacobi_coefficients
from oracles import (
    gauss_rule_tridiagonal,
    integrate_weighted,
    laguerre_normalized,
    quadrature_values,
)


def moment(m, ell):
    """int x^m x^ell e^-x / ell! dx = (m+ell)!/ell!"""
    return np.exp(lgamma(m + ell + 1) - lgamma(ell + 1))


class TestJacobiMatrix:
    def test_two_point_entries(self):
        # diag 2k+ell+1, off-diag sqrt((k+1)(k+ell+1)); eigenvalues 2 -+ sqrt(2)
        diag, off = jacobi_coefficients(1, 0)
        assert diag == pytest.approx([1.0, 3.0])
        assert off[:-1] == pytest.approx([1.0])

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_rule(0, 0)
        with pytest.raises(ValueError):
            build_rule(3, -1)


class TestRuleBasics:
    def test_two_point_nodes_and_weights(self):
        rule = build_rule(2, 0)
        assert rule.nodes == pytest.approx([2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)], rel=1e-14)
        assert rule.weights == pytest.approx(
            [(2.0 + np.sqrt(2.0)) / 4.0, (2.0 - np.sqrt(2.0)) / 4.0], rel=1e-13
        )

    @pytest.mark.parametrize("ell", [0, 1, 3])
    @pytest.mark.parametrize("order", [5, 20])
    def test_weights_sum_to_one(self, order, ell):
        rule = build_rule(order, ell)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_nodes_sorted_positive(self):
        rule = build_rule(30, 2)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_vectors_orthonormal(self):
        rule = build_rule(25, 1)
        gram = rule.vectors @ rule.vectors.T
        assert np.abs(gram - np.eye(25)).max() < 1e-12

    def test_stencil_matches_recursion(self):
        # vectors[k, l] = sqrt(weights[l]) L~_k(nodes[l]), with L~_k from the plain recursion
        rule = build_rule(12, 2)
        vals = quadrature_values(rule, 8)
        for k in range(9):
            expected = laguerre_normalized(k, 2, rule.nodes)
            assert vals[k] == pytest.approx(expected, rel=1e-12)
            assert rule.vectors[k] == pytest.approx(np.sqrt(rule.weights) * expected, rel=1e-11, abs=1e-14)

    def test_nodes_are_the_zeros_of_degree_order(self):
        # why the stencil stops at degree order-1: L~_Q vanishes at the Q nodes
        rule = build_rule(6, 0)
        vals = quadrature_values(rule, 6)
        assert np.all(np.abs(vals[6]) < 1e-12 * np.abs(vals[:6]).max(axis=0))


class TestExactness:
    @pytest.mark.parametrize("ell", [0, 2])
    def test_exact_to_degree_2n_minus_1(self, ell):
        order = 6
        rule = build_rule(order, ell)
        m = 2 * order - 1
        got = integrate_weighted(rule, rule.nodes**m)
        assert got == pytest.approx(moment(m, ell), rel=1e-13)

    @pytest.mark.parametrize("ell", [0, 2])
    def test_sharp_failure_at_degree_2n(self, ell):
        order = 6
        rule = build_rule(order, ell)
        m = 2 * order
        got = integrate_weighted(rule, rule.nodes**m)
        rel_err = abs(got - moment(m, ell)) / moment(m, ell)
        assert rel_err > 1e-10

    @given(
        order=st.integers(min_value=2, max_value=10),
        ell=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_polynomial_exactness(self, order, ell, data):
        degree = data.draw(st.integers(min_value=0, max_value=2 * order - 1))
        coeffs = data.draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0),
                min_size=degree + 1,
                max_size=degree + 1,
            )
        )
        rule = build_rule(order, ell)
        fvals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        got = integrate_weighted(rule, fvals)
        want = sum(c * moment(m, ell) for m, c in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-9)


class TestDeepTailNodes:
    def test_large_order_rule_keeps_finite_stencil(self):
        rule = build_rule(100, 0)
        assert np.any(rule.weights == 0.0)  # far-tail weights underflow to zero
        assert np.all(np.isfinite(rule.vectors))
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # the enveloped recursion keeps the basis values finite out there too
        assert np.all(np.isfinite(d_tensor(2, 0, 20, rule).values))

    def test_dead_nodes_carry_no_weight_in_projection(self):
        rule = build_rule(100, 0)
        dead = rule.weights == 0.0
        assert integrate_weighted(rule, np.where(dead, 1.0, 0.0)) == 0.0
        # nor in the interaction, on the rule D is built on: below the bound
        # (N = 40 needs 118 nodes) D projects on this rule, and at N = 200 on
        # its own rule of 399 nodes, whose last Christoffel sums underflow and
        # leave zero stencil columns. R is the same with their basis values zeroed
        own = d_tensor(1, 0, 200, build_rule(399, 0))
        own_dead = ~own.stencil.any(axis=0)
        assert own_dead.any() and np.all(np.isfinite(own.stencil))
        for dten, cut in ((d_tensor(2, 0, 40, rule, override=True), dead), (own, own_dead)):
            coeffs = np.linspace(1.0, 2.0, dten.n_basis)
            zeroed = replace(dten, values=np.where(cut, 0.0, dten.values))
            full, kept = r_matrix(dten, coeffs, 1.0), r_matrix(zeroed, coeffs, 1.0)
            assert np.array_equal(full, kept)

    def test_eigendecompose_consistent_with_jacobi(self):
        diag, off = jacobi_coefficients(14, 1)
        rule = build_rule(15, 1)
        recon = rule.vectors @ np.diag(rule.nodes) @ rule.vectors.T
        tri = np.diag(diag) - np.diag(off[:-1], 1) - np.diag(off[:-1], -1)
        assert np.abs(recon - tri).max() < 1e-12


class TestDenseEigensolve:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [30, 100, 320])
    def test_matches_tridiagonal_solver(self, order, ell):
        rule = build_rule(order, ell)
        want = gauss_rule_tridiagonal(order, ell)
        np.testing.assert_array_equal(rule.weights == 0.0, want.weights == 0.0)
        for name in ("nodes", "weights", "vectors"):
            got, ref = getattr(rule, name), getattr(want, name)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name

    def test_vectors_fortran_ordered(self):
        assert build_rule(30, 1).vectors.flags.f_contiguous
