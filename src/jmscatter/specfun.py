"""Special functions for the J-matrix scattering machinery, in numpy alone.

The three-term coefficients of the normalized Laguerre family and its
upward recursion in blocks, the pair of cylindrical Bessel functions
J_ell and Y_ell of integer order, and the real part of the upper
incomplete gamma function at negative argument, by way of the
exponential integral. The last three take one argument or an array of
them, and an array call equals its scalar calls bit for bit.

The Ei series runs in chunks of terms (`_ei_series`): a one-energy
solve calls it with one u, where a step per term would pay about 16
numpy calls a term (at u = 4.8, 279 us against 35 us in chunks on a
2-core x86-64 VM).

J_ell and Y_ell come from Miller's backward recurrence up to
x = max(50, ell) (Gautschi, SIAM Rev. 9 (1967) 24), with Y_0 and Y_1 from
the Neumann series (Abramowitz & Stegun 9.1.88) summed on the same pass,
and from Hankel's asymptotic expansion above it (A&S 9.2.5); both then
run upward in the order. The recurrence starts at an index fixed by ell
alone, so cost and memory are O(len(x)) and no element depends on its
neighbours. Against scipy they agree within 1e-14 max(1, |value|) for
ell <= 5 on x in [1e-10, 1e4].

The Laguerre coefficients are the one J-matrix of the method: the Gauss
rule, the free Hamiltonian and every basis-polynomial evaluation read
them from `jacobi_coefficients`. Polynomials are evaluated by the upward
recursion; closed forms built from raw factorials overflow long before
the basis sizes used here and are deliberately avoided.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jacobi_coefficients",
    "laguerre_upward",
    "LAGUERRE_BLOCK",
    "bessel_jy",
    "re_upper_gamma_neg",
    "finite_positive",
]

# Degrees per block of `laguerre_upward` after the first, which holds one more.
LAGUERRE_BLOCK = 64
# Hard cap on series length, a whole number of chunks; exceeding it raises instead of silently truncating.
_SERIES_CAP = 100_000
_SERIES_RTOL = 1e-16
# Terms of the Ei series per chunk: one chunk holds the 32 terms of u = 4.8, near the
# paper's energies at lambda = 1.
_SERIES_CHUNK = 32
# Bessel functions: Miller's recurrence up to x = max(50, ell), Hankel's expansion above;
# below _TINY the leading series terms are exact in float64.
_HANKEL_X, _HANKEL_TERMS, _RESCALE, _TINY = 50.0, 12, 1e250, 1e-40
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
    """Yield first * L~_k^ell(x) for k = 0..kmax, in blocks, by the upward recursion

        L~_{k+1} = ((2k+ell+1 - x) L~_k - sqrt(k(k+ell)) L~_{k-1})
                   / sqrt((k+1)(k+ell+1)),

    which is stable for increasing degree. `first` may be an envelope
    array broadcast against `x`; carrying it inside every iterate keeps
    products of a vanishing envelope and a huge polynomial finite.

    A block stacks its degrees along a new first axis. The first block
    holds k = 0..LAGUERRE_BLOCK and each later one the next
    LAGUERRE_BLOCK degrees, the last one what is left. Every block
    is a view of one buffer that the next block overwrites, so a caller
    copies what must outlive it. A block forms its 2k+ell+1 - x in one
    call; each step then takes the rest of the formula in place, one
    operation at a time in its order, so every iterate has the bits of
    the plain expression.
    """
    diag, off = jacobi_coefficients(kmax, ell)
    shape = np.broadcast_shapes(np.shape(x), np.shape(first))
    x, width = np.broadcast_to(np.asarray(x, dtype=float), shape), min(kmax, LAGUERRE_BLOCK)
    # Rows 0 and 1 carry the two iterates before a block: zero and `first` at the start.
    buf, factors = np.zeros((width + 2, *shape)), np.empty((width, *shape))
    buf[1] = first
    if not kmax:
        yield buf[1:]
        return
    # Views made once: making one per step costs about as much as a ufunc call on a few hundred entries.
    rows, factor_rows = [buf[i, ...] for i in range(width + 2)], [factors[i, ...] for i in range(width)]
    link = 0.0
    for k in range(0, kmax, width):
        n = min(width, kmax - k)
        np.subtract.outer(diag[k : k + n], x, out=factors[:n])
        for j, o in enumerate(off[k : k + n].tolist()):
            factor, nxt = factor_rows[j], rows[j + 2]
            np.multiply(factor, rows[j + 1], out=factor)
            np.subtract(factor, np.multiply(link, rows[j], out=nxt), out=nxt)
            np.divide(nxt, o, out=nxt)
            link = o
        yield buf[2 if k else 1 : n + 2]
        buf[:2] = buf[n : n + 2]


def _small(ell: int, x: np.ndarray):
    """J_ell, Y_0, Y_1 for x < _TINY from the leading terms of their series, exact in float64 there."""
    j = np.ones_like(x)
    for k in range(1, ell + 1):
        j = j * (0.5 * x / k)
    with np.errstate(over="ignore"):
        return j, (2.0 / math.pi) * (np.log(x) - math.log(2.0) + np.euler_gamma), -(2.0 / math.pi) / x


def _miller(ell: int, x: np.ndarray):
    """J_ell, Y_0, Y_1 by Miller's backward recurrence from an index fixed by ell alone.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from J_m = 2^-900, J_{m+1} = 0
    and is normalized by J_0 + 2 sum J_2k = 1; at every step a column that
    passes 1e250 is rescaled by 1e-250 with all it has accumulated. Y_0 is
    the Neumann series and Y_1 its derivative,
    (2/pi)[(ln(x/2) + gamma) J_1 - J_0/x + sum (-1)^k (J_2k-1 - J_2k+1)/k].
    """
    m = 2 * int((1.1 * max(_HANKEL_X, ell) + 60 + ell) // 2)
    # Weights of J_k in the norm, the Y_0 sum, the Y_1 sum, J_ell and J_1.
    weights = np.zeros((m + 1, 5))
    weights[0::2, 0] = 2.0
    weights[0, 0] = 1.0
    weights[2::2, 1] = [(-1.0) ** i / i for i in range(1, m // 2 + 1)]
    # J_2i+1 enters the Y_1 sum through its terms i + 1 and i.
    weights[1::2, 2] = [(-1.0) ** (i + 1) * (1.0 / (i + 1) + (1.0 / i if i else 0.0)) for i in range(m // 2)]
    weights[ell, 3] = weights[1, 4] = 1.0
    weights = weights[:, :, None]
    two, acc = 2.0 / x, np.zeros((5, x.size))
    after, now = np.zeros_like(x), np.full_like(x, 2.0**-900)
    for k in range(m, 0, -1):
        acc += weights[k] * now
        below = (k * two) * now - after
        if np.abs(below).max() > _RESCALE:
            shrink = np.where(np.abs(below) > _RESCALE, 1.0 / _RESCALE, 1.0)
            acc *= shrink
            now *= shrink
            below *= shrink
        after, now = now, below
    acc += weights[0] * now
    norm, s0, s1, j_ell, j_1 = acc
    j_0, log_term = now / norm, np.log(0.5 * x) + np.euler_gamma
    y_0 = (2.0 / math.pi) * (log_term * j_0 - 2.0 * s0 / norm)
    y_1 = (2.0 / math.pi) * (log_term * (j_1 / norm) - j_0 / x + s1 / norm)
    return j_ell / norm, y_0, y_1


def _hankel(ell: int, x: np.ndarray):
    """J_ell, Y_0, Y_1 from Hankel's expansion at orders 0 and 1 (12 terms), J then upward to ell.

    The phases x - pi/4 and x - 3pi/4 enter through cos x + sin x and
    sin x - cos x, so no digit of a large x is lost to a subtraction.
    """
    pq = []
    for nu in (0, 1):
        terms = [np.ones_like(x)]
        for k in range(1, _HANKEL_TERMS):
            terms.append(terms[-1] * ((4 * nu * nu - (2 * k - 1) ** 2) / (8 * k)) / x)
        signed = [-t if k % 4 > 1 else t for k, t in enumerate(terms)]
        pq += [sum(signed[0::2]), sum(signed[1::2])]
    p0, q0, p1, q1 = pq
    cos, sin = np.cos(x), np.sin(x)
    u, v, amp = cos + sin, sin - cos, 1.0 / np.sqrt(math.pi * x)
    j_prev, j = amp * (p0 * u - q0 * v), amp * (p1 * v + q1 * u)
    for k in range(1, ell):
        j_prev, j = j, (2.0 * k / x) * j - j_prev
    return (j_prev if ell == 0 else j), amp * (p0 * v + q0 * u), amp * (q1 * v - p1 * u)


def _bessel_jy(ell: int, x: np.ndarray):
    """J_ell and Y_ell of a 1-d array of finite x > 0, element by element.

    Y runs upward from Y_0 and Y_1, which is stable, to -inf where it
    leaves the float64 range.
    """
    top = max(_HANKEL_X, ell)
    j, y_0, y_1 = (np.empty_like(x) for _ in range(3))
    for where, route in ((x < _TINY, _small), ((x >= _TINY) & (x <= top), _miller), (x > top, _hankel)):
        if where.any():
            j[where], y_0[where], y_1[where] = route(ell, x[where])
    y_prev, y = y_0, y_1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, ell):
            y_prev, y = y, (2.0 * k / x) * y - y_prev
    return j, (y_0 if ell == 0 else np.where(np.isnan(y), -math.inf, y))


def bessel_jy(ell: int, x):
    """Cylindrical Bessel functions J_ell(x) and Y_ell(x) from one pass, integer ell >= 0, finite x >= 0.

    At x = 0, J_ell is 1 for ell = 0 and 0 otherwise, and Y_ell is its
    limit -inf.
    """
    if not float(ell).is_integer() or ell < 0:
        raise ValueError(f"Bessel order must be a nonnegative integer, got {ell!r}")
    ell, flat = int(ell), np.asarray(x, dtype=float).ravel()
    if bad := [v for v in flat.tolist() if not 0.0 <= v < math.inf]:
        raise ValueError(f"bessel_jy argument x must be finite and nonnegative, got {bad[0]!r}")
    j, y = np.where(flat == 0.0, float(ell == 0), 0.0), np.full_like(flat, -math.inf)
    pos = flat > 0.0
    j[pos], y[pos] = _bessel_jy(ell, flat[pos])
    return (j.reshape(np.shape(x)), y.reshape(np.shape(x))) if np.ndim(x) else (float(j[0]), float(y[0]))


def finite_positive(values, what: str) -> np.ndarray:
    """`values` as a 1-d float array; the first element that is not finite and positive is refused by value."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not ((arr > 0.0) & (arr < math.inf)).all():
        bad = next(v for v in arr.tolist() if not 0.0 < v < math.inf)
        raise ValueError(f"{what} must be finite and positive, got {bad!r}")
    return arr


def _ei_series(us: np.ndarray) -> np.ndarray:
    """Ei of a 1-d array of finite u > 0, each element as its own series loop; an overflowed term raises.

    The loop on one element is gamma + ln u, then term *= u / m and
    total += term / m until a contribution falls below 1e-16 of the
    total. Here _SERIES_CHUNK terms of the pending elements, one row
    each, come from `np.multiply.accumulate` of u/m seeded with the last
    term, and their totals from `np.add.accumulate` of term/m seeded with
    the running total. Both run in order along a row, so each element
    keeps the loop's bits and stopping term. The u named on overflow is
    the loop's: the first in the array at the earliest overflowed term.
    The three chunk buffers are made once per call.
    """
    size, width = us.size, _SERIES_CHUNK
    # Column 0 of `series` seeds each row's totals with its running total; columns 1.. take the terms, then term/m.
    series, totals, bound = np.empty((size, width + 1)), np.empty((size, width + 1)), np.empty((size, width))
    steps, ei, pending, u, term = np.arange(1.0, width + 1.0), np.empty_like(us), np.arange(size), us[:, None], 1.0
    series[:, 0] = np.euler_gamma + np.array([math.log(v) for v in us.tolist()])
    with np.errstate(over="ignore"):
        for start in range(0, _SERIES_CAP, width):
            rows, m = pending.size, steps + start
            terms, total, limit = series[:rows, 1:], totals[:rows], bound[:rows]
            np.divide(u, m, out=terms)
            terms[:, 0] *= term
            np.multiply.accumulate(terms, axis=1, out=terms)
            if np.isinf(terms[:, -1]).any():  # an overflowed term stays infinite
                first = np.isinf(terms).any(axis=0).argmax()
                raise ArithmeticError(_OVERFLOW.format(u[np.isinf(terms[:, first]), 0][0]))
            term = terms[:, -1].copy()
            terms /= m
            np.add.accumulate(series[:rows], axis=1, out=total)
            np.multiply(np.abs(total[:, 1:], out=limit), _SERIES_RTOL, out=limit)
            done = terms < limit
            ended = done.any(axis=1)
            hit = np.flatnonzero(ended)
            ei[pending[hit]] = total[hit, done[hit].argmax(axis=1) + 1]
            keep = ~ended
            pending, u, term = pending[keep], u[keep], term[keep]
            series[: pending.size, 0] = total[keep, -1]
            if not pending.size:
                return ei
    raise ArithmeticError("Ei series exceeded the term cap")


def re_upper_gamma_neg(ell: int, u):
    """Real part of the upper incomplete gamma Gamma(-ell, -u), finite u > 0; overflow raises.

    Uses the finite reduction of Gamma(-ell, x) to Gamma(0, x) evaluated at
    x = -u, keeping only the real part: the ln(-u) branch of Gamma(0, -u)
    contributes i*pi to the imaginary part only, and Re Gamma(0, -u) = -Ei(u).

    Re Gamma(-ell, -u) = ((-1)^ell / ell!) [e^u u^{-ell}
                          sum_{m=0}^{ell-1} (ell-1-m)! u^m  -  Ei(u)].

    Ei(u) = gamma + ln(u) + sum_{m>=1} u^m / (m m!) has positive terms only;
    each element's sum ends at its first term below 1e-16 relative, and a term
    that overflows (u above about 713) raises. The series runs in chunks of
    terms (`_ei_series`). A 1-d array `u` equals its scalar calls bit for
    bit: ln and the finite sum take `math.log`, `math.exp` and Python's
    `**` element by element.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    us = finite_positive(u, "re_upper_gamma_neg argument u")
    finite = np.zeros_like(us)
    terms = [(math.factorial(ell - 1 - m), m) for m in range(ell)]
    for i, v in enumerate(us.tolist() if ell > 0 else ()):
        acc = sum([f * v**m for f, m in terms])
        try:
            finite[i] = math.exp(v) * v ** (-ell) * acc
        except OverflowError:
            raise ArithmeticError(_OVERFLOW.format(v)) from None
    ei = _ei_series(us)
    sign = -1.0 if ell % 2 else 1.0
    out = sign / math.factorial(ell) * (finite - ei)
    return out if np.ndim(u) else float(out[0])
