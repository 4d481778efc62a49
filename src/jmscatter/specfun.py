"""Special functions for the J-matrix scattering machinery.

The three-term coefficients of the normalized Laguerre family and its
upward recursion, cylindrical Bessel functions, the exponential
integral and the real part of the upper incomplete gamma function at
negative argument. The last two take one argument or a 1-d array of
them, and an array call equals its scalar calls bit for bit.

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
    "finite_positive",
]

# Hard cap on series length; exceeding it raises instead of silently truncating.
_SERIES_CAP = 100_000
_SERIES_RTOL = 1e-16
# Series terms are formed this many at a time, as running products and sums.
_SERIES_CHUNK = 16
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


def finite_positive(values, what: str) -> np.ndarray:
    """`values` as a 1-d float array; an element that is not finite and positive is refused by value."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    bad = [v for v in arr.tolist() if not 0.0 < v < math.inf]
    if bad:
        raise ValueError(f"{what} must be finite and positive, got {bad[0]!r}")
    return arr


def exp_integral_ei(u):
    """Exponential integral Ei(u) for finite u > 0 by its everywhere-convergent series.

    Ei(u) = gamma + ln(u) + sum_{m>=1} u^m / (m m!). All terms are positive:
    no cancellation, truncation below 1e-16 relative, and a term that
    overflows (u above about 713) raises at once. A 1-d array `u` sums all
    its series together, each element stopping at its own last term, and
    equals the scalar calls bit for bit (ln by `math.log`, which numpy's
    log does not match in the last bit).
    """
    us = finite_positive(u, "exp_integral_ei argument u")
    out, live, term = np.empty_like(us), np.arange(us.size), np.ones_like(us)
    total = np.euler_gamma + np.array([math.log(v) for v in us.tolist()])
    with np.errstate(over="ignore"):
        for first in range(1, _SERIES_CAP + 1, _SERIES_CHUNK):
            m = np.arange(first, first + _SERIES_CHUNK, dtype=float)
            # Running products and sums take term *= u / m, total += term / m in scalar order.
            terms = np.multiply.accumulate(np.column_stack([term, us[:, None] / m]), axis=1)[:, 1:]
            contribs = terms / m
            totals = np.add.accumulate(np.column_stack([total, contribs]), axis=1)[:, 1:]
            if np.isinf(terms[:, -1]).any():  # an overflowed term stays infinite
                raise ArithmeticError(_OVERFLOW.format(us[np.isinf(terms[:, -1])][0]))
            stop = contribs < _SERIES_RTOL * np.abs(totals)
            done = stop.any(axis=1)
            out[live[done]] = totals[done, stop[done].argmax(axis=1)]
            live, us, term, total = live[~done], us[~done], terms[~done, -1], totals[~done, -1]
            if not live.size:
                return out if np.ndim(u) else float(out[0])
    raise ArithmeticError("Ei series exceeded the term cap")


def re_upper_gamma_neg(ell: int, u):
    """Real part of the upper incomplete gamma Gamma(-ell, -u), finite u > 0; overflow raises.

    Uses the finite reduction of Gamma(-ell, x) to Gamma(0, x) evaluated at
    x = -u, keeping only the real part: the ln(-u) branch of Gamma(0, -u)
    contributes i*pi to the imaginary part only, and Re Gamma(0, -u) = -Ei(u).

    Re Gamma(-ell, -u) = ((-1)^ell / ell!) [e^u u^{-ell}
                          sum_{m=0}^{ell-1} (ell-1-m)! u^m  -  Ei(u)].

    A 1-d array `u` equals the scalar calls bit for bit: the finite sum
    takes `math.exp` and Python's `**` element by element.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    us = finite_positive(u, "re_upper_gamma_neg argument u")
    finite = np.zeros_like(us)
    for i, v in enumerate(us.tolist() if ell > 0 else ()):
        acc = sum(math.factorial(ell - 1 - m) * v**m for m in range(ell))
        try:
            finite[i] = math.exp(v) * v ** (-ell) * acc
        except OverflowError:
            raise ArithmeticError(_OVERFLOW.format(v)) from None
    sign = -1.0 if ell % 2 else 1.0
    out = sign / math.factorial(ell) * (finite - exp_integral_ei(us))
    return out if np.ndim(u) else float(out[0])
