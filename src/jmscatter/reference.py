"""Reference (free-particle) expansion coefficients and reconstructions.

The free radial equation has a regular solution sqrt(kappa r) J_ell(kappa r)
and an irregular one built on Y_ell. In either basis their coefficients
s_k (sine-like) and c_k (cosine-like) obey one three-term recursion and
differ only in their seeds, so each basis computes its seeds and runs
the shared `_upward` loop. Oscillator basis: the recursion is the free
J-matrix the caller passes in, s is its homogeneous solution from the
seed s_0, and c adds the source term tau of the inhomogeneous k = 0
relation to a closed-form c_0; upward is stable because both solutions
decay at the same slow rate. Laguerre basis: Gegenbauer polynomials of
cos(theta), with mu mapped onto the unit circle, in place of Laguerre
polynomials of mu^2; the cosine-like seeds read a 2F1 that one
recursion on its second parameter gives in closed form.

Reconstruction sums filtered coefficient-weighted basis functions
from the upward Laguerre recursion started on the basis envelope, so
the exponentially large bare polynomial values never form. The sum is
taken block by block, in the order of the one-term-at-a-time sum and
with its bits. Both Bessel targets come from one pass.
Every recursion here reads its three-term coefficients from
`specfun.jacobi_coefficients` (the free ones through
`hamiltonian.free_matrix_coeffs`).
"""

from __future__ import annotations

import math
from math import lgamma

import numpy as np

from .hamiltonian import free_matrix_coeffs
from .specfun import LAGUERRE_BLOCK, bessel_jy, finite_positive, jacobi_coefficients, laguerre_upward, re_upper_gamma_neg


def _upward(seeds, mult: np.ndarray, off: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """s and c, x_0..x_kmax each, of x_{k+1} = (mult_k x_k - off_{k-1} x_{k-1}) / off_k.

    `seeds` is ((s_0, s_1), (c_0, c_1)); both recursions advance in one
    loop. `mult` is (kmax+1,) for scalar seeds, or (kmax+1, B) for seed
    vectors of B recursions that run together as the columns of s and c.
    """
    if mult.ndim == 1:
        # Python floats step faster than numpy scalars or one-element arrays, to the same values.
        seeds, mult = [tuple(map(float, pair)) for pair in seeds], mult.tolist()
    (s0, s1), (c0, c1) = seeds
    s, c, off = [s0, s1], [c0, c1], off.tolist()
    for m, op, o in zip(mult[1:kmax], off, off[1:kmax]):
        s0, s1 = s1, (m * s1 - op * s0) / o
        c0, c1 = c1, (m * c1 - op * c0) / o
        s.append(s1)
        c.append(c1)
    return np.array(s[: kmax + 1]), np.array(c[: kmax + 1])


def _each(func, values: np.ndarray) -> np.ndarray:
    """func of every element by Python's math, which numpy's ufuncs do not match in the last bit."""
    return np.array([func(v) for v in values.tolist()])


def oscillator_reference(
    energy, lam: float, ell: int, coeffs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sine-like and cosine-like coefficients in the oscillator basis.

    `coeffs` is the free operator's (a, b) for k = 0..kmax, as
    `free_matrix_coeffs` builds them; the solver passes its Hamiltonian's
    own. s and c run one recursion with multiplier E - a_k. s is its
    homogeneous solution from s_0 = alpha = sqrt(2/(lam ell!)) mu^{ell+1/2}
    e^{-mu^2/2}; c_0 carries the real part of the incomplete gamma at
    negative argument, and c_1 follows from the inhomogeneous k = 0
    relation (E - a_0) c_0 + tau = b_0 c_1.

    `energy` is one energy or a 1-d array of B, each refused by value
    unless finite and positive; for B energies s and c are (kmax+1, B),
    one recursion on (B,) vectors, and every column equals its one-energy
    call bit for bit.
    """
    energies = finite_positive(energy, "scattering energy")
    mu = np.sqrt(2.0 * energies) / lam
    mu2, log_mu, lg = _each(lambda m: m**2, mu), _each(math.log, mu), lgamma(ell + 1)
    rise, half = (ell + 0.5) * log_mu, 0.5 * mu2
    alpha = _each(math.exp, 0.5 * (math.log(2.0) - math.log(lam) - lg) + rise - half)
    sign = 1.0 if ell % 2 else -1.0
    c0 = sign / math.pi * _each(math.exp, 0.5 * (math.log(2.0) + lg - math.log(lam)) + rise - half)
    c0 = c0 * re_upper_gamma_neg(ell, mu2)
    tau = -(lam / math.pi) * _each(math.exp, 0.5 * (math.log(lam) + lg - math.log(2.0)) + (0.5 - ell) * log_mu + half)
    a, b = coeffs
    mult = energies - a[:, None]
    seeds = ((alpha, mult[0] * alpha / b[0]), (c0, (mult[0] * c0 + tau) / b[0]))
    if energies.size == 1:
        mult, seeds = mult[:, 0], tuple((x0[0], x1[0]) for x0, x1 in seeds)
    s, c = (x.reshape(a.size, *np.shape(energy)) for x in _upward(seeds, mult, b, a.size - 1))
    return s, c


def _hyp2f1_seed(ell: int, ct: float, st: float) -> float:
    """2F1(1/2, ell+1; 3/2; ct^2) for ct = cos(theta), st = sin(theta) > 0, without a series.

    I_b = 2F1(1/2, b; 3/2; z) = int_0^1 (1 - z u^2)^-b du obeys
    I_{b+1} = ((1 - z)^-b + (2b - 1) I_b) / (2b), all terms positive, from
    I_1 = artanh|ct| / |ct|. With 1 - z = st^2 read from st, not formed as
    1 - ct^2, and artanh|ct| = log((1 + |ct|) / st) away from ct = 0, no
    digit is lost near the refusal band.
    """
    act = abs(ct)
    hyp = 1.0 if act == 0.0 else (math.atanh(act) if act < 0.5 else math.log((1.0 + act) / st)) / act
    for b in range(1, ell + 1):
        hyp = (st ** (-2 * b) + (2 * b - 1) * hyp) / (2 * b)
    return hyp


def laguerre_basis_reference(energy: float, lam: float, ell: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Sine-like and cosine-like coefficients in the Laguerre basis.

    Both families satisfy the same Gegenbauer-type recursion in k, with
    multiplier diag_k cos(theta); the seeds differ. The k-dependent
    normalization sqrt(k!/(k+2 ell)!) is part of the coefficients at
    every k, including k = 0 where it contributes 1/sqrt((2 ell)!);
    dropping it there desynchronizes the seeds from the recursion.

    The cosine-like seeds read 2F1(1/2, ell+1; 3/2; cos^2(theta)) from
    `_hyp2f1_seed`, which diverges as cos^2(theta) -> 1, that is as E -> 0
    or E -> infinity at fixed lam; energies with cos^2(theta) >= 1 - 1e-8
    are refused. The dimensionless wavenumber mu = sqrt(2E) / lam sets
    cos(theta) = (mu^2 - 1/4) / (mu^2 + 1/4).
    """
    finite_positive(energy, "scattering energy")
    finite_positive(lam, "basis scale lam")
    mu = math.sqrt(2.0 * energy) / lam
    mu2 = mu**2
    den = mu2 + 0.25
    ct, st = (mu2 - 0.25) / den, mu / den
    if ct * ct >= 1 - 1e-8:
        raise ValueError(f"Laguerre reference refused at E = {energy:g}: cos(theta)^2 >= 1 - 1e-8")
    nu = ell + 0.5
    pref_s = 2.0**ell / math.sqrt(math.pi * lam) * math.exp(lgamma(nu)) * st**nu
    pref_c = 2.0 ** (ell + 1) * math.exp(lgamma(ell + 1)) / (math.pi * math.sqrt(lam)) * st**nu
    hyp = _hyp2f1_seed(ell, ct, st)
    norm0 = math.exp(-0.5 * lgamma(2 * ell + 1))
    norm1 = math.exp(-0.5 * lgamma(2 * ell + 2))
    diag, off = jacobi_coefficients(kmax, 2 * ell)
    mult = diag * ct
    s_seeds = (pref_s * norm0, pref_s * (2.0 * nu * ct) * norm1)
    c_seeds = (pref_c * ct * hyp * norm0, pref_c * (ct * hyp * (2.0 * nu * ct) - st ** (-2.0 * ell)) * norm1)
    return _upward((s_seeds, c_seeds), mult, off, kmax)


def reference_coefficients(
    energy: float, lam: float, ell: int, kmax: int, basis: str = "oscillator"
) -> tuple[np.ndarray, np.ndarray]:
    """Reference coefficient pair (s, c) for the requested basis, k = 0..kmax."""
    if ell < 0 or kmax < 0:
        raise ValueError("ell and kmax must be nonnegative")
    if basis == "oscillator":
        return oscillator_reference(energy, lam, ell, free_matrix_coeffs(kmax, ell, lam))
    if basis == "laguerre":
        return laguerre_basis_reference(energy, lam, ell, kmax)
    raise ValueError(f"unknown basis {basis!r}")


def chi_reconstruct(coefficients, ell: int, lam: float, r, basis: str = "oscillator"):
    """Filtered radial function sum_k sigma_k coeff_k phi_k(r) on a grid.

    `coefficients` is one row (N+1,) or stacked rows (rows, N+1); stacked
    rows share one pass over the basis functions and give a (rows, r)
    result, each row equal to its one-row call.

    The reference coefficients of a scattering state decay slowly in k,
    so cutting the plain partial sum off at k = N leaves a truncation
    wiggle of a few 1e-3 that more terms barely reduce. Each coefficient
    is therefore damped by the exponential filter
    sigma_k = exp(-36 (k/(N+1))^16) (Vandeven 1991), with N + 1 the
    number of coefficients: sigma_k is 1 to within 4e-15 up to
    k = (N+1)/10 and falls smoothly to roundoff at the cutoff, which
    trades the abrupt truncation for an error that falls like a high
    power of 1/N. At N = 1000 and lam = 1 the regular reconstructions
    then meet their Bessel targets to a few 1e-12 on r <= 25. Only the
    sum is filtered; the coefficients the solver uses are untouched.

    The basis functions are generated by the scaled upward recursion
    acting on phi_0 directly, so the Gaussian (or exponential) envelope
    is inside every iterate and bare polynomial values never appear.
    phi_0 must be representable at the largest radius requested; for the
    oscillator basis that bounds lam*r by about 37.

    The sum is taken in the recursion's blocks of LAGUERRE_BLOCK basis
    functions. Per block and row, the products c_k phi_k fill one buffer
    behind the running total in its row 0, and `np.add.reduce` along
    that axis adds them row after row, starting from -0.0, which leaves
    every value as it is. So each entry has the bits of the plain
    one-term-at-a-time sum, and does not depend on the other radii.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    size = coefficients.shape[-1]
    rows = coefficients.reshape(-1, size) * np.exp(-36.0 * (np.arange(size) / size) ** 16)
    r = np.asarray(r, dtype=float)
    if bad := [v for v in r.ravel().tolist() if not 0.0 <= v < math.inf]:
        raise ValueError(f"radii must be finite and nonnegative, got {bad[0]!r}")
    # numpy would sum a lone column pairwise, not in order; a copy of it as a second column keeps the order.
    flat = np.repeat(r.ravel(), 2) if r.size == 1 else r.ravel()
    if basis == "oscillator":
        x, order, norm = (lam * flat) ** 2, ell, 0.5 * (math.log(2.0 * lam) - lgamma(ell + 1))
    elif basis == "laguerre":
        x, order, norm = lam * flat, 2 * ell, 0.5 * (math.log(lam) - lgamma(2 * ell + 1))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    phi0 = np.where(
        flat > 0,
        np.exp(norm + (ell + 0.5) * np.log(np.maximum(lam * flat, 1e-300)) - 0.5 * x),
        0.0,
    )
    totals, terms = np.empty((len(rows), flat.size)), np.empty((LAGUERRE_BLOCK + 1, flat.size))
    k = 0
    for phis in laguerre_upward(size - 1, order, x, phi0):
        n, lead = len(phis), int(k > 0)
        for c, total in zip(rows, totals):
            if lead:
                terms[0] = total
            np.multiply(c[k : k + n, None], phis, out=terms[lead : lead + n])
            np.add.reduce(terms[: lead + n], axis=0, out=total, initial=-0.0)
        k += n
    return totals[:, : r.size].reshape(coefficients.shape[:-1] + r.shape)


def free_targets(energy: float, ell: int, r) -> tuple[np.ndarray, np.ndarray]:
    """Targets of the sine-like and cosine-like reconstructions from one Bessel pass.

    With kappa = sqrt(2E), the regular target is sqrt(kappa r) J_ell(kappa r),
    0 at r = 0; the irregular one is sqrt(kappa r) Y_ell(kappa r). Its sign
    convention follows the coefficients themselves: the reconstructed
    cosine-like function approaches +sqrt(kappa r) Y_ell, as direct
    comparison confirms. It diverges at r = 0; entries there are NaN and
    callers restrict to r > 0. Both depend on the energy, ell and r only,
    not on the basis.

    In the Laguerre basis the cosine-like function is regular at the
    origin and reaches this target only outside a regularization layer
    (Yamani & Fishman, J. Math. Phys. 16, 410 (1975)): a smooth,
    non-oscillating difference that decays like e^{-lam r/2} (lam r)^{ell - 1/2}
    at large r. It is a property of the function, not a truncation error,
    and does not shrink with N. At lam = 1 it is about 2.5e-4 (ell = 0) to
    0.4 (ell = 3) at r = 12.5, and 1.5e-10 to 7.6e-6 at r = 40.
    """
    finite_positive(energy, "scattering energy")
    kr = math.sqrt(2.0 * energy) * np.asarray(r, dtype=float)
    j, y = bessel_jy(ell, kr)
    with np.errstate(invalid="ignore"):  # 0 * Y_ell(0) = 0 * -inf
        return np.sqrt(kr) * j, np.sqrt(kr) * y
