"""Special functions for the J-matrix scattering machinery.

The three-term coefficients of the normalized Laguerre family and its
upward recursion, cylindrical Bessel functions, the exponential
integral and the real part of the upper incomplete gamma function at
negative argument.

The Laguerre coefficients are the one J-matrix of the method: the Gauss
rule, the free Hamiltonian and every basis-polynomial evaluation read
them from `jacobi_coefficients`. Polynomials are evaluated by the upward
recursion; closed forms built from raw factorials overflow long before
the basis sizes used here and are deliberately avoided.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "jacobi_coefficients",
    "laguerre_upward",
    "bessel_j",
    "bessel_y",
    "re_upper_gamma_neg",
    "exp_integral_ei",
]

# Hard cap on series length; exceeding it raises instead of silently truncating.
_SERIES_CAP = 100_000
_SERIES_RTOL = 1e-16
_OVERFLOW = "Re Gamma(-ell, -u) overflows float64 at u = 2E/lambda^2 = {:.6g}"


def jacobi_coefficients(kmax: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term coefficients of the normalized Laguerre family, k = 0..kmax.

    The diagonal 2k+ell+1 and the off-diagonal sqrt((k+1)(k+ell+1)),
    which links k and k+1, form the J-matrix of L~_k^ell: its symmetric
    tridiagonal matrix is the free Hamiltonian in units of lam^2/2 and,
    with the off-diagonal negated, the Jacobi matrix of the Gauss rule
    for the weight x^ell e^{-x} / ell!.
    """
    if kmax < 0 or ell < 0:
        raise ValueError("degree and order must be nonnegative")
    k = np.arange(kmax + 1, dtype=float)
    return 2.0 * k + ell + 1.0, np.sqrt((k + 1.0) * (k + ell + 1.0))


def laguerre_upward(kmax: int, ell: int, x, first=1.0):
    """Yield first * L~_k^ell(x) for k = 0..kmax by the upward recursion

        L~_{k+1} = ((2k+ell+1 - x) L~_k - sqrt(k(k+ell)) L~_{k-1})
                   / sqrt((k+1)(k+ell+1)),

    which is stable for increasing degree. `first` may be an envelope
    array broadcast against `x`; carrying it inside every iterate keeps
    products of a vanishing envelope and a huge polynomial finite.
    """
    diag, off = jacobi_coefficients(kmax, ell)
    prev, p, link = 0.0, first, 0.0
    yield p
    for d, o in zip(diag[:kmax].tolist(), off[:kmax].tolist()):
        prev, p = p, ((d - x) * p - link * prev) / o
        link = o
        yield p


def bessel_j(ell: int, x):
    """Cylindrical Bessel function of the first kind, J_ell(x), x >= 0."""
    if ell < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    out = _sp.jv(ell, x)
    return out if out.ndim else float(out)


def bessel_y(ell: int, x):
    """Cylindrical Bessel function of the second kind, Y_ell(x), x > 0."""
    if ell < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("bessel_y requires x > 0")
    out = _sp.yv(ell, x)
    return out if out.ndim else float(out)


def exp_integral_ei(u: float) -> float:
    """Exponential integral Ei(u) for u > 0 by its everywhere-convergent series.

    Ei(u) = gamma + ln(u) + sum_{m>=1} u^m / (m m!). All terms are positive:
    no cancellation, truncation below 1e-16 relative, and a term that
    overflows (u above about 713) raises at once.
    """
    if u <= 0:
        raise ValueError("exp_integral_ei requires u > 0")
    total = np.euler_gamma + math.log(u)
    term = 1.0
    for m in range(1, _SERIES_CAP + 1):
        term *= u / m
        if term == math.inf:
            raise ArithmeticError(_OVERFLOW.format(u))
        contrib = term / m
        total += contrib
        if contrib < _SERIES_RTOL * abs(total):
            return total
    raise ArithmeticError("Ei series exceeded the term cap")


def re_upper_gamma_neg(ell: int, u: float) -> float:
    """Real part of the upper incomplete gamma Gamma(-ell, -u), u > 0; overflow raises.

    Uses the finite reduction of Gamma(-ell, x) to Gamma(0, x) evaluated at
    x = -u, keeping only the real part: the ln(-u) branch of Gamma(0, -u)
    contributes i*pi to the imaginary part only, and Re Gamma(0, -u) = -Ei(u).

    Re Gamma(-ell, -u) = ((-1)^ell / ell!) [e^u u^{-ell}
                          sum_{m=0}^{ell-1} (ell-1-m)! u^m  -  Ei(u)].
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if u <= 0:
        raise ValueError("re_upper_gamma_neg requires u > 0")
    acc = 0.0
    for m in range(ell):
        acc += math.factorial(ell - 1 - m) * u**m
    try:
        finite = math.exp(u) * u ** (-ell) * acc if ell > 0 else 0.0
    except OverflowError:
        raise ArithmeticError(_OVERFLOW.format(u)) from None
    sign = -1.0 if ell % 2 else 1.0
    return sign / math.factorial(ell) * (finite - exp_integral_ei(u))
