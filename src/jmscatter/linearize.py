"""Nonlinear coupling data on the Gauss grid.

The self-interaction couples basis functions through integrals of
products of normalized Laguerre polynomials against the extra weight
xi^{n ell} e^{-n xi}. Gauss quadrature linearizes those products: the
D tensor

    D^{k_1..k_{2n}}_{ij} = sum_l Lambda_il [xi_l^{n ell} e^{-n xi_l}
                            prod_a L~_{k_a}(xi_l)] Lambda_jl

is a node sum, and contracting it with the coefficient vector only
rebuilds |psi(xi_l)|^{2n}, psi = sum_k a_k L~_k, at the nodes. So it is
stored factored: the projection stencil Lambda, the basis values at
the nodes and the per-node weight. The effective interaction is then
the node-space Gram product X X^T, X = Lambda diag(sqrt(weight |psi|^{2n}))
(`solver.r_matrix`), at O(N Q + N^2 Q) per order with no tuple enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule


@dataclass(frozen=True)
class DTensor:
    """The D tensor in factored node-space form.

    stencil[i, l] = Lambda_il = sqrt(w_l) L~_i(xi_l) and
    values[k, l] = L~_k(xi_l) for i, k < N; node_weight[l] is
    xi_l^{n ell} e^{-n xi_l}. Dead nodes (see `QuadratureRule.live`)
    carry zero values and so drop out of every product.
    """

    n: int
    ell: int
    n_basis: int
    stencil: np.ndarray
    values: np.ndarray
    node_weight: np.ndarray


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

    Shares the C-tensor exactness bound on the rule order (the sampled
    products have the same degrees), refusable by override; a basis
    larger than the rule is refused always. Independent of the basis scale.
    """
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    if n_basis > rule.order:
        raise ValueError("basis size exceeds the quadrature order")
    _check_bound(n, n_basis, rule.order, override)
    return DTensor(
        n=n, ell=ell, n_basis=n_basis,
        stencil=rule.vectors[:n_basis, :],
        values=rule.values[:n_basis, :],
        node_weight=rule.nodes ** (n * ell) * np.exp(-n * rule.nodes),
    )
