"""Nonlinear coupling data on a Gauss grid.

The self-interaction couples basis functions through integrals of
products of normalized Laguerre polynomials against the extra weight
xi^{n ell} e^{-n xi}. Gauss quadrature linearizes those products: the
D tensor

    D^{k_1..k_{2n}}_{ij} = sum_l Lambda_il [xi_l^{n ell} e^{-n xi_l}
                            prod_a L~_{k_a}(xi_l)] Lambda_jl

is a node sum, and contracting it with the coefficient vector only
rebuilds xi_l^{n ell} e^{-n xi_l} |psi(xi_l)|^{2n}, psi = sum_k a_k
L~_k, at the nodes, blind to a common phase of the a_k: the solver
passes them as real rows, so psi is real. So it is stored factored: the
basis values at the nodes, which carry the envelope xi^{ell/2}
e^{-xi/2}, so |psi|^{2n} formed from them is that whole factor, and the
projection stencil Lambda. The effective interaction is then the node
sum Lambda W Lambda^T with the node weight W, formed per order as the
Gram product X X^T of X = Lambda sqrt(W) (`solver.r_matrix`), at O(N Q +
N^2 Q) time and O(N Q) memory with no tuple enumeration.

D's integrand is xi^{(n+1) ell} e^{-(n+1) xi} times a polynomial of
degree 2(n+1)(N-1), so in y = (n+1) xi it is exact on the Gauss rule of
weight y^{(n+1) ell} e^{-y} with `quadrature_bound` nodes. At or above
the bound D is built there; below it, under the override, D projects
on the basis rule and only converges in that rule's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .quadrature import QuadratureRule, build_rule
from .specfun import laguerre_upward


@dataclass(frozen=True)
class DTensor:
    """The D tensor in factored node-space form.

    values[k, l] = xi_l^{ell/2} e^{-xi_l/2} L~_k(xi_l) for k < N, which
    turn a real coefficient row (..., N) into psi at the nodes
    (`solver.r_matrix`), and the
    C-ordered stencil[i, l] = Lambda_il = sqrt(w_l) L~_i(xi_l), w_l the
    node's weight for x^ell e^{-x} / ell!. Its rows are orthonormal only
    to quadrature accuracy: ||Lambda||_2^2 = 1.001 on the cubic's own rule at N = 20.
    """

    n: int
    ell: int
    n_basis: int
    values: np.ndarray
    stencil: np.ndarray


def quadrature_bound(n: int, n_basis: int) -> int:
    """Smallest order of D's own Gauss rule that integrates D's products exactly."""
    return (n + 1) * n_basis - n


def _check_bound(n: int, n_basis: int, order: int, override: bool) -> None:
    need = quadrature_bound(n, n_basis)
    if order < need and not override:
        raise ValueError(
            f"quadrature order {order} is below the exactness bound {need} "
            f"for n={n}, N={n_basis}; pass override=True to proceed anyway"
        )


def d_tensor(n: int, ell: int, n_basis: int, rule: QuadratureRule, override: bool = False) -> DTensor:
    """D tensor of nonlinearity order n, factored; independent of the basis scale.

    The rule order must reach the exactness bound, refusable by override;
    a basis larger than the rule is refused always. At or above the bound
    D is `d_tensor_own_rule`, whatever the rule's order; below it D
    projects on the rule's stencil, its first N eigenvector rows.
    """
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    if n_basis > rule.order:
        raise ValueError("basis size exceeds the quadrature order")
    _check_bound(n, n_basis, rule.order, override)
    if rule.order >= quadrature_bound(n, n_basis):
        return d_tensor_own_rule(n, ell, n_basis)
    values = np.concatenate([block.copy() for block in _enveloped(n_basis - 1, ell, rule.nodes)])
    return DTensor(n=n, ell=ell, n_basis=n_basis, values=values, stencil=np.ascontiguousarray(rule.vectors[:n_basis]))


def d_tensor_own_rule(n: int, ell: int, n_basis: int, order: int = 0) -> DTensor:
    """D tensor on the y-rule, y = (n+1) xi, of `order` nodes, by default `quadrature_bound`, where D is exact.

    The stencil is values * sqrt(K / c), K = ((n+1) ell)! / (ell! (n+1)),
    with c_l the Christoffel sum of the y-rule's enveloped polynomials at
    y_l: y_l^{(n+1) ell} e^{-y_l} over its Gauss weight. A node where c
    underflows gets a zero stencil column.
    """
    sigma, order = n + 1, order or quadrature_bound(n, n_basis)
    y = build_rule(order, sigma * ell).nodes
    values = np.concatenate([block.copy() for block in _enveloped(n_basis - 1, ell, y / sigma)])
    christoffel = sum((block**2).sum(axis=0) for block in _enveloped(order - 1, sigma * ell, y))
    scale = np.divide(sqrt(factorial(sigma * ell) / (factorial(ell) * sigma)), np.sqrt(christoffel),
                      out=np.zeros(order), where=christoffel > 0)
    return DTensor(n=n, ell=ell, n_basis=n_basis, values=values, stencil=values * scale)


def _enveloped(kmax: int, ell: int, x: np.ndarray):
    """Blocks of x^{ell/2} e^{-x/2} L~_k^ell(x), k <= kmax, the envelope inside every iterate (`laguerre_upward`)."""
    return laguerre_upward(kmax, ell, x, x ** (0.5 * ell) * np.exp(-0.5 * x))
