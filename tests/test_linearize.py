"""Linearization tensors: dual routes, symmetry, sparsity, factored form."""

from itertools import combinations_with_replacement
from math import factorial

import numpy as np
import pytest

from jmscatter.hamiltonian import f_weight_quadrature
from jmscatter.linearize import d_tensor, quadrature_bound
from jmscatter.quadrature import build_rule
from jmscatter.solver import r_matrix
from oracles import (
    c_tensor_matrix_poly,
    c_tensor_quadrature,
    d_tensor_basis_rule,
    d_tensor_expanded,
    laguerre_streamed,
    own_rule,
    quadrature_values,
    r_matrix_expanded,
)


def make_rule(n, ell, n_basis, extra=0):
    return build_rule(quadrature_bound(n, n_basis) + extra, ell)


class TestQuadratureBound:
    def test_values(self):
        assert quadrature_bound(1, 20) == 39
        assert quadrature_bound(2, 20) == 58
        assert quadrature_bound(3, 6) == 21

    def test_refusal_below_bound(self):
        rule = build_rule(10, 0)
        with pytest.raises(ValueError):
            d_tensor(2, 0, 8, rule)
        with pytest.raises(ValueError):
            c_tensor_quadrature(2, 0, 8, rule)

    def test_override_accepts_below_bound(self):
        rule = build_rule(10, 0)
        dten = d_tensor(2, 0, 8, rule, override=True)
        assert dten.stencil.shape == (8, 10)
        assert dten.values.shape == (8, 10)
        assert np.all(np.isfinite(dten.values))


    def test_basis_beyond_the_rule_refused_under_override(self):
        # the override waives the exactness bound, not the rule's size
        with pytest.raises(ValueError, match="basis size exceeds the quadrature order"):
            d_tensor(1, 0, 20, build_rule(10, 0), override=True)


class TestCTensorDualRoutes:
    # the matrix-polynomial route is exact in exact arithmetic but its
    # entries grow exponentially with the basis size; in double precision
    # it is trustworthy only up to N around 12, which covers the check
    @pytest.mark.parametrize(
        "n,ell,n_basis",
        [(1, 0, 8), (1, 0, 10), (1, 0, 12), (1, 1, 10), (2, 0, 8), (2, 1, 8), (3, 0, 6)],
    )
    def test_agreement(self, n, ell, n_basis):
        rule = make_rule(n, ell, n_basis)
        cq = c_tensor_quadrature(n, ell, n_basis, rule)
        cm = c_tensor_matrix_poly(n, ell, n_basis)
        scale = np.abs(cq.coeff).max()
        assert np.abs(cq.coeff - cm.coeff).max() / scale < 1e-10

    def test_total_symmetry_including_expansion_index(self):
        # the coefficient is one integral of a product of basis
        # polynomials, so every index permutation, including the
        # expansion index, leaves it unchanged
        n, ell, n_basis = 1, 0, 6
        ct = c_tensor_quadrature(n, ell, n_basis, make_rule(n, ell, n_basis))
        scale = np.abs(ct.coeff).max()
        qmax = ct.coeff.shape[1] - 1
        for a in range(n_basis):
            for b in range(n_basis):
                for q in range(min(n_basis, qmax + 1)):
                    base = ct.lookup((a, b))[q]
                    swap1 = ct.lookup((a, q))[b]
                    swap2 = ct.lookup((q, b))[a]
                    assert abs(base - swap1) / scale < 1e-12
                    assert abs(base - swap2) / scale < 1e-12

    def test_degree_sparsity(self):
        # a product of polynomials of total degree d has no component
        # beyond degree d in the expansion family
        n, ell, n_basis = 2, 1, 5
        ct = c_tensor_quadrature(n, ell, n_basis, make_rule(n, ell, n_basis))
        scale = np.abs(ct.coeff).max()
        for t_idx, tup in enumerate(ct.tuples):
            degree = int(sum(tup))
            tail = ct.coeff[t_idx, degree + 1 :]
            if tail.size:
                assert np.abs(tail).max() / scale < 1e-12

    def test_tuple_enumeration_canonical(self):
        n, ell, n_basis = 2, 0, 4
        ct = c_tensor_quadrature(n, ell, n_basis, make_rule(n, ell, n_basis))
        expected = list(combinations_with_replacement(range(n_basis), n + 1))
        assert [tuple(t) for t in ct.tuples] == expected


class TestDTensor:
    def test_stack_blocks_symmetric(self):
        n, ell, n_basis = 1, 1, 8
        dten = d_tensor_expanded(n, ell, n_basis, make_rule(n, ell, n_basis))
        for block in dten.stack:
            assert np.abs(block - block.T).max() < 1e-14

    def test_matches_direct_quadrature(self):
        # independent reassembly of a few entries straight from the rule
        n, ell, n_basis = 1, 0, 6
        rule = make_rule(n, ell, n_basis)
        dten = d_tensor_expanded(n, ell, n_basis, rule)
        lam_stencil = rule.vectors[:n_basis, :]
        xi = rule.nodes
        znode = xi ** (n * ell) * np.exp(-n * xi)
        vals = quadrature_values(rule, n_basis - 1)
        for t_idx, tup in enumerate(dten.tuples):
            prod = znode.copy()
            for k in tup:
                prod = prod * vals[k, :]
            want = lam_stencil @ np.diag(prod) @ lam_stencil.T
            assert np.abs(dten.stack[t_idx] - want).max() < 1e-12

    def test_scale_free(self):
        # the tensor depends only on (n, ell, N, order), never on lam;
        # the same rule must give identical stacks on repeated builds
        n, ell, n_basis = 2, 1, 6
        rule = make_rule(n, ell, n_basis)
        a = d_tensor_expanded(n, ell, n_basis, rule)
        b = d_tensor_expanded(n, ell, n_basis, rule)
        assert np.array_equal(a.stack, b.stack)

    def test_split_weights_real_and_paired(self):
        # every split multiset pairs with its conjugate partner, so the
        # accumulated weight of a real coefficient vector is real
        n, ell, n_basis = 2, 0, 5
        dten = d_tensor_expanded(n, ell, n_basis, make_rule(n, ell, n_basis))
        assert dten.split_coeff.dtype.kind in "fi"
        assert np.all(dten.split_coeff > 0)


class TestNodeSpaceDualRoute:
    # the node-space assembly against the expanded tuple stack contracted
    # with its multiset splits, on the rule D is built on: at or above the
    # exactness bound (order None) D's own rule, which scipy's Gauss-Laguerre
    # roots rebuild independently (`own_rule`); order 10 at (2, 0, 8) sits
    # below it, so both routes take the override and the basis rule
    @pytest.mark.parametrize(
        "n,ell,n_basis,order",
        [(1, 0, 8, 40), (1, 1, 6, 40), (2, 1, 8, None), (2, 0, 8, 10), (3, 1, 6, 21)],
    )
    def test_r_matrix_matches_expanded_contraction(self, n, ell, n_basis, order):
        rule = build_rule(order or quadrature_bound(n, n_basis), ell)
        override = rule.order < quadrature_bound(n, n_basis)
        rng = np.random.default_rng(100 * n + 10 * ell + n_basis)
        coeffs = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
        lam = 1.3
        built_on = rule if override else own_rule(n, ell, n_basis)
        want = r_matrix_expanded(
            d_tensor_expanded(n, ell, n_basis, built_on, override=override), coeffs, lam
        )
        got = r_matrix(d_tensor(n, ell, n_basis, rule, override=override), coeffs, lam)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestOwnRule:
    @pytest.mark.parametrize("n,ell,n_basis", [(1, 0, 20), (2, 1, 20), (1, 3, 30), (3, 0, 12)])
    def test_d_above_the_bound_ignores_the_rule_order(self, n, ell, n_basis):
        # at or above the bound D is built on its own rule of quadrature_bound
        # nodes, so the config's rule order changes no bit of R
        bound = quadrature_bound(n, n_basis)
        rng = np.random.default_rng(bound)
        rows = rng.normal(size=(3, n_basis + 1)) + 1j * rng.normal(size=(3, n_basis + 1))
        first, *others = (
            r_matrix(d_tensor(n, ell, n_basis, build_rule(order, ell)), rows, 1.1)
            for order in (bound, 2 * bound, 5 * n_basis)
        )
        assert all(np.array_equal(first, other) for other in others)

    @pytest.mark.parametrize(
        "n,ell,n_basis", [(1, 0, 20), (1, 1, 20), (2, 1, 20), (1, 1, 80), (1, 1, 160), (1, 3, 60)]
    )
    def test_r_matches_the_basis_rule_far_above_the_bound(self, n, ell, n_basis):
        # the basis rule only converges to R in its order; at Q = 25 N it
        # agrees with the exact own-rule R to about 1e-12 of max|R|
        rng = np.random.default_rng(n_basis + ell)
        rows = rng.normal(size=(4, n_basis + 1)) + 1j * rng.normal(size=(4, n_basis + 1))
        got = r_matrix(d_tensor(n, ell, n_basis, build_rule(quadrature_bound(n, n_basis), ell)), rows, 1.1)
        want = r_matrix(d_tensor_basis_rule(n, ell, n_basis, 25 * n_basis), rows, 1.1)
        for one, ref in zip(got, want):
            assert np.abs(one - ref).max() <= 1e-11 * np.abs(ref).max()


class TestEnvelopedValues:
    @pytest.mark.parametrize("ell", [0, 1, 3])
    def test_values_are_the_enveloped_basis(self, ell):
        # values[k, l] = xi_l^{ell/2} e^{-xi_l/2} L~_k(xi_l), from the plain
        # recursion with the envelope inside, at the nodes D is built on: at
        # Q = 60, above the bound 39, the own rule's y / 2 for y of weight
        # y^{2 ell} e^{-y}; at Q = 30, below it, the rule's own nodes
        own = build_rule(quadrature_bound(1, 20), 2 * ell).nodes / 2
        for order, nodes in ((60, own), (30, build_rule(30, ell).nodes)):
            envelope = nodes ** (0.5 * ell) * np.exp(-0.5 * nodes)
            want = np.array(list(laguerre_streamed(19, ell, nodes, envelope)))
            got = d_tensor(1, ell, 20, build_rule(order, ell), override=order < 39).values
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n,ell", [(1, 0), (1, 1), (2, 1)])
    def test_r_of_the_first_basis_vector_is_f(self, n, ell):
        # with a = e_0, psi is the envelope alone and R / pref is the integral
        # int x^{(n+1) ell} e^{-(n+1) x} L~_i L~_j dx / ell!, the closed-form F
        n_basis, lam = 20, 1.0
        pref = (2.0 * lam**2 / factorial(ell)) ** n
        e_0 = np.eye(n_basis + 1)[0]
        r = r_matrix(d_tensor(n, ell, n_basis, build_rule(100, ell)), e_0, lam)
        got = r / pref
        want = f_weight_quadrature(n, ell, n_basis)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
