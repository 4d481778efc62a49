"""Interior Hamiltonian assembly in the oscillator basis.

The kinetic-plus-centrifugal operator is tridiagonal in the basis
phi_k(r) = sqrt(2 lam / ell!) (lam r)^{ell+1/2} e^{-lam^2 r^2 / 2}
L~_k^ell(lam^2 r^2): lam^2/2 times the Laguerre J-matrix of
`specfun.jacobi_coefficients`. The short-range potential is projected
with the Gauss rule of the basis weight, V_ij = (Lambda W Lambda^T)_ij
with W_ll = V(sqrt(xi_l)/lam), read straight off the rule's stencil.
The module also carries the two-sided nonlinear weight integrals

    F^(n,ell)_ij = (1/ell!) int_0^inf x^{(n+1) ell} e^{-(n+1) x}
                   L~_i^ell(x) L~_j^ell(x) dx,

computed exactly by a Gauss rule in the rescaled variable from one
upward Laguerre recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import lgamma
from typing import Union

import numpy as np

from .quadrature import QuadratureRule, build_rule
from .specfun import finite_positive, jacobi_coefficients, laguerre_upward


@dataclass(frozen=True)
class PowerExponentialPotential:
    """V(r) = strength * r^power * exp(-decay * r)."""

    strength: float
    power: float
    decay: float

    def __post_init__(self):
        if self.decay < 0:
            raise ValueError("decay must be nonnegative for a short-range potential")
        if self.power < 0:
            raise ValueError("power must be nonnegative; the potential has to stay regular at the origin")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self.strength * r**self.power * np.exp(-self.decay * r)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PiecewiseLinearPotential:
    """Continuous piecewise-linear V(r) through (breakpoints, values), zero beyond the last breakpoint.

    Breakpoints must be strictly increasing and start at r = 0. A
    tabulated potential, sampled (r, v), is this interpolation too.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        va = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or bp.size != va.size:
            raise ValueError("need matching 1-d breakpoints and values, at least two points")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at r = 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.breakpoints, self.values, right=0.0)
        return out if out.ndim else float(out)


Potential = Union[PowerExponentialPotential, PiecewiseLinearPotential]


@dataclass(frozen=True)
class LinearHamiltonian:
    """Truncated interior Hamiltonian H = K + Lambda W Lambda^T plus its context.

    `potential_matrix` is the potential block Lambda W Lambda^T alone;
    `coeffs` is the free operator's `(a, b)` from `free_matrix_coeffs`.
    `eigenvalues` and `eigenvectors` diagonalize `matrix`; every solve
    takes its order-0 resolvent from them.
    """

    matrix: np.ndarray
    potential_matrix: np.ndarray = field(repr=False)
    coeffs: tuple[np.ndarray, np.ndarray]
    ell: int
    lam: float
    n_basis: int
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def free_matrix_coeffs(kmax: int, ell: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Free-operator coefficients (a, b) for k = 0..kmax: lam^2/2 times the Laguerre ones.

    a is the diagonal and b the k <-> k+1 off-diagonal; both reach kmax so
    the tail relations at the basis edge have their coefficients.
    """
    finite_positive(lam, "basis scale lam")
    diag, off = jacobi_coefficients(kmax, ell)
    return 0.5 * lam**2 * diag, 0.5 * lam**2 * off


def potential_matrix(rule: QuadratureRule, potential: Potential, lam: float, size: int) -> np.ndarray:
    """Basis matrix of the radial potential by Gauss projection.

    The rule lives in the dimensionless variable x = (lam r)^2, so the
    potential is sampled at r_l = sqrt(xi_l)/lam. Exact only for
    potentials polynomial in x; for everything else accuracy is set by
    the quadrature order.
    """
    finite_positive(lam, "basis scale lam")
    if size > rule.order:
        raise ValueError("basis size exceeds the quadrature order")
    stencil = rule.vectors[:size]
    w_diag = potential(np.sqrt(rule.nodes) / lam)
    return (stencil * w_diag[np.newaxis, :]) @ stencil.T


def assemble_linear(
    potential: Potential,
    *,
    n_basis: int,
    ell: int,
    lam: float,
    rule: QuadratureRule,
) -> LinearHamiltonian:
    """Build the N x N interior Hamiltonian and its eigendecomposition.

    The eigendecomposition is kept because every energy of a scan, linear
    or not, resolves its order 0 from this one diagonalization.
    """
    if n_basis < 2:
        raise ValueError("need at least two basis states for the edge relations")
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    coeffs = free_matrix_coeffs(n_basis, ell, lam)
    h = np.diag(coeffs[0][:n_basis].copy())
    off = coeffs[1][: n_basis - 1]
    idx = np.arange(n_basis - 1)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    pot = potential_matrix(rule, potential, lam, n_basis)
    h += pot
    evals, evecs = np.linalg.eigh(h)
    return LinearHamiltonian(
        matrix=h,
        potential_matrix=pot,
        coeffs=coeffs,
        ell=ell,
        lam=lam,
        n_basis=n_basis,
        eigenvalues=evals,
        eigenvectors=evecs,
    )


def f_weight_quadrature(n: int, ell: int, size: int) -> np.ndarray:
    """size x size F^(n,ell) block by exact Gauss quadrature in the rescaled variable.

    Substituting y = sigma x turns the integrand into a polynomial times
    the weight y^{sigma ell} e^{-y}, so a rule of that weight with order
    >= size integrates it exactly:

        F_ij = sigma^{-(sigma ell + 1)} ((sigma ell)! / ell!)
               * sum_l w_l L~_i(y_l/sigma) L~_j(y_l/sigma).
    """
    if n < 1:
        raise ValueError("nonlinearity exponent n must be >= 1")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    sigma = n + 1
    rule = build_rule(size + 2, sigma * ell)
    xs = rule.nodes / sigma
    values = np.array(list(laguerre_upward(size - 1, ell, xs, np.ones_like(xs))))
    pref = math.exp(
        lgamma(sigma * ell + 1) - lgamma(ell + 1) - (sigma * ell + 1) * math.log(sigma)
    )
    return pref * (values * rule.weights[np.newaxis, :]) @ values.T
