"""Nonlinear coupling data on the Gauss grid.

The self-interaction couples basis functions through integrals of
products of normalized Laguerre polynomials against the extra weight
xi^{n ell} e^{-n xi}. Gauss quadrature linearizes those products: the
D tensor

    D^{k_1..k_{2n}}_{ij} = sum_l Lambda_il [xi_l^{n ell} e^{-n xi_l}
                            prod_a L~_{k_a}(xi_l)] Lambda_jl

is a node sum, and contracting it with the coefficient vector only
rebuilds xi_l^{n ell} e^{-n xi_l} |psi(xi_l)|^{2n}, psi = sum_k a_k L~_k,
at the nodes. So it is stored factored: the basis values at the nodes,
which carry the envelope xi^{ell/2} e^{-xi/2}, so |psi|^{2n} formed
from them is that whole factor, and the projection stencil Lambda. The
effective interaction is then the node sum Lambda W Lambda^T with the
node weight W, formed per order as the Gram product X X^T of
X = Lambda sqrt(W) (`solver.r_matrix`), at O(N Q + N^2 Q) time and
O(N Q) memory with no tuple enumeration.

`quadrature_bound` is the exactness bound of the C tensor, not of D:
e^{-n xi} is not a polynomial, so D converges in the rule order rather
than being exact at any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule
from .specfun import laguerre_upward


@dataclass(frozen=True)
class DTensor:
    """The D tensor in factored node-space form.

    values[k, l] = xi_l^{ell/2} e^{-xi_l/2} L~_k(xi_l) for k < N, and
    stencil[i, l] = Lambda_il = sqrt(w_l) L~_i(xi_l), a C-ordered copy of
    the rule's vectors[:N]; its rows are orthonormal (Lambda Lambda^T = I_N).
    """

    n: int
    ell: int
    n_basis: int
    values: np.ndarray
    stencil: np.ndarray


def quadrature_bound(n: int, n_basis: int) -> int:
    """Smallest Gauss order that integrates the C-tensor products exactly."""
    return (n + 1) * n_basis - n


def _check_bound(n: int, n_basis: int, order: int, override: bool) -> None:
    need = quadrature_bound(n, n_basis)
    if order < need and not override:
        raise ValueError(
            f"quadrature order {order} is below the exactness bound {need} "
            f"for n={n}, N={n_basis}; pass override=True to proceed anyway"
        )


def d_tensor(
    n: int,
    ell: int,
    n_basis: int,
    rule: QuadratureRule,
    override: bool = False,
) -> DTensor:
    """D tensor of nonlinearity order n on the rule's Gauss grid, factored.

    The basis values come from the upward recursion with the envelope
    inside every iterate, so they stay accurate where the Gauss weight is
    tiny. The rule order must reach the C-tensor exactness bound,
    refusable by override; a basis larger than the rule is refused
    always. Independent of the basis scale.
    """
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    if n_basis > rule.order:
        raise ValueError("basis size exceeds the quadrature order")
    _check_bound(n, n_basis, rule.order, override)
    envelope = rule.nodes ** (0.5 * ell) * np.exp(-0.5 * rule.nodes)
    values = np.concatenate([block.copy() for block in laguerre_upward(n_basis - 1, ell, rule.nodes, envelope)])
    return DTensor(n=n, ell=ell, n_basis=n_basis, values=values, stencil=np.ascontiguousarray(rule.vectors[:n_basis]))
