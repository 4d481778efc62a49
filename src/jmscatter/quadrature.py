"""Gauss quadrature generated from the basis Jacobi matrix.

The free Hamiltonian in the oscillator basis is tridiagonal; its
coefficients, stripped of the scale lam^2/2, form the Jacobi matrix of
the normalized Laguerre family (`specfun.jacobi_coefficients`). Its
eigenvalues are the Gauss nodes of the weight x^ell e^{-x} / ell!, which
integrates to one, and the squared first components of its eigenvectors
are the Gauss weights (Golub & Welsch 1969). numpy's dense `eigh`
diagonalizes, O(Q^3) once per rule. Its eigenvectors are kept in Fortran
order: the BLAS products of `potential_matrix` round differently on a
C-ordered copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import jacobi_coefficients


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule of order Q for the weight x^ell e^{-x} / ell! on [0, inf).

    Attributes
    ----------
    nodes : (Q,) ndarray
        Gauss abscissas, strictly positive and increasing.
    weights : (Q,) ndarray
        Gauss weights; they sum to one.
    vectors : (Q, Q) ndarray
        Sign-fixed orthonormal eigenvectors of the Jacobi matrix;
        vectors[k, l] = sqrt(weights[l]) L~_k^ell(nodes[l]) is the
        projection stencil, finite even where the weight underflows.
    """

    ell: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray


def build_rule(order: int, ell: int) -> QuadratureRule:
    """Diagonalize the order x order Jacobi matrix into a Gauss rule.

    The Jacobi matrix takes the Laguerre coefficients with the
    off-diagonal negated. That sign is a similarity convention: nodes and
    weights do not depend on it, the stencil's signs do. The eigenvector
    matrix Lambda (columns = eigenvectors) gives weights[l] = Lambda[0, l]**2.
    Eigenvector signs are fixed so Lambda[0, l] >= 0; with the negative
    off-diagonal the stencil then carries the normalized Laguerre values
    themselves, not an alternating-sign variant.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    diag, off = jacobi_coefficients(order - 1, ell)
    jacobi = np.zeros((order, order))
    jacobi.flat[:: order + 1] = diag
    jacobi.flat[1 :: order + 1] = jacobi.flat[order :: order + 1] = -off[:-1]
    nodes, vecs = np.linalg.eigh(jacobi)
    vecs = np.asfortranarray(vecs)
    vecs *= np.where(vecs[0] < 0, -1.0, 1.0)
    return QuadratureRule(ell=ell, order=order, nodes=nodes, weights=vecs[0] ** 2, vectors=vecs)
