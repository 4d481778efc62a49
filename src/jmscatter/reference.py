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
polynomials of mu^2; the cosine-like seeds read scipy's 2F1.

Reconstruction sums filtered coefficient-weighted basis functions
streamed from the upward Laguerre recursion started on the basis
envelope, so the exponentially large bare polynomial values never form.
Every recursion here reads its three-term coefficients from
`specfun.jacobi_coefficients` (the free ones through
`hamiltonian.free_matrix_coeffs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy.special import hyp2f1

from .hamiltonian import free_matrix_coeffs
from .specfun import bessel_j, bessel_y, finite_positive, jacobi_coefficients, laguerre_upward, re_upper_gamma_neg


@dataclass(frozen=True)
class EnergyPoint:
    """Scattering energy with its derived kinematic scales.

    kappa = sqrt(2E) is the wavenumber; mu = kappa / lam is the
    dimensionless wavenumber seen by a basis of scale lam.
    """

    energy: float
    lam: float
    kappa: float
    mu: float


def energy_point(energy: float, lam: float) -> EnergyPoint:
    finite_positive(energy, "scattering energy")
    finite_positive(lam, "basis scale lam")
    kappa = math.sqrt(2.0 * energy)
    return EnergyPoint(energy=energy, lam=lam, kappa=kappa, mu=kappa / lam)


@dataclass(frozen=True)
class ReferenceCoefficients:
    """Sine-like and cosine-like coefficient arrays, indices 0..kmax."""

    s: np.ndarray
    c: np.ndarray


def _upward(first, second, mult: np.ndarray, off: np.ndarray, kmax: int) -> np.ndarray:
    """x_0..x_kmax of x_{k+1} = (mult_k x_k - off_{k-1} x_{k-1}) / off_k from the seeds x_0, x_1.

    `mult` is (kmax+1,) for scalar seeds, or (kmax+1, B) for seed vectors
    of B recursions that run together as the columns of the result.
    """
    if mult.ndim == 1:
        # Python floats step faster than numpy scalars or one-element arrays, to the same values.
        first, second, mult = float(first), float(second), mult.tolist()
    off = off.tolist()
    x = [first, second]
    for k in range(1, kmax):
        x.append((mult[k] * x[k] - off[k - 1] * x[k - 1]) / off[k])
    return np.array(x[: kmax + 1])


def _each(func, values: np.ndarray) -> np.ndarray:
    """func of every element by Python's math, which numpy's ufuncs do not match in the last bit."""
    return np.array([func(v) for v in values.tolist()])


def oscillator_reference(energy, lam: float, ell: int, coeffs: tuple[np.ndarray, np.ndarray]) -> ReferenceCoefficients:
    """Sine-like and cosine-like coefficients in the oscillator basis.

    `coeffs` is the free operator's (a, b) for k = 0..kmax, as
    `free_matrix_coeffs` builds them; the solver passes its Hamiltonian's
    own. s and c run one recursion with multiplier E - a_k. s is its
    homogeneous solution from s_0 = alpha = sqrt(2/(lam ell!)) mu^{ell+1/2}
    e^{-mu^2/2}; c_0 carries the real part of the incomplete gamma at
    negative argument, and c_1 follows from the inhomogeneous k = 0
    relation (E - a_0) c_0 + tau = b_0 c_1.

    `energy` is one energy or a 1-d array of B; then s and c are
    (kmax+1, B), one recursion on (B,) vectors, and every column equals
    its one-energy call bit for bit.
    """
    energies = np.atleast_1d(np.asarray(energy, dtype=float))
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
    s, c = (_upward(x0, x1, mult, b, a.size - 1).reshape(a.size, *np.shape(energy)) for x0, x1 in seeds)
    return ReferenceCoefficients(s=s, c=c)


def laguerre_basis_reference(point: EnergyPoint, ell: int, kmax: int) -> ReferenceCoefficients:
    """Sine-like and cosine-like coefficients in the Laguerre basis.

    Both families satisfy the same Gegenbauer-type recursion in k, with
    multiplier diag_k cos(theta); the seeds differ. The k-dependent
    normalization sqrt(k!/(k+2 ell)!) is part of the coefficients at
    every k, including k = 0 where it contributes 1/sqrt((2 ell)!);
    dropping it there desynchronizes the seeds from the recursion.

    The cosine-like seeds read 2F1(1/2, ell+1; 3/2; cos^2(theta)), which
    diverges as cos^2(theta) -> 1, that is as E -> 0 or E -> infinity at
    fixed lam; energies with cos^2(theta) >= 1 - 1e-8 are refused.
    """
    mu2 = point.mu**2
    den = mu2 + 0.25
    ct, st = (mu2 - 0.25) / den, point.mu / den
    if ct * ct >= 1 - 1e-8:
        raise ValueError(f"Laguerre reference refused at E = {point.energy:g}: cos(theta)^2 >= 1 - 1e-8")
    nu = ell + 0.5
    pref_s = (
        2.0**ell / math.sqrt(math.pi * point.lam) * math.exp(lgamma(nu)) * st**nu
    )
    pref_c = 2.0 ** (ell + 1) * math.exp(lgamma(ell + 1)) / (math.pi * math.sqrt(point.lam)) * st**nu
    hyp = float(hyp2f1(0.5, ell + 1.0, 1.5, ct * ct))
    norm0 = math.exp(-0.5 * lgamma(2 * ell + 1))
    norm1 = math.exp(-0.5 * lgamma(2 * ell + 2))
    diag, off = jacobi_coefficients(kmax, 2 * ell)
    mult = diag * ct
    s = _upward(pref_s * norm0, pref_s * (2.0 * nu * ct) * norm1, mult, off, kmax)
    c1 = pref_c * (ct * hyp * (2.0 * nu * ct) - st ** (-2.0 * ell)) * norm1
    return ReferenceCoefficients(s=s, c=_upward(pref_c * ct * hyp * norm0, c1, mult, off, kmax))


def reference_coefficients(
    point: EnergyPoint, ell: int, kmax: int, basis: str = "oscillator"
) -> ReferenceCoefficients:
    """Reference coefficient pair for the requested basis, k = 0..kmax."""
    if ell < 0 or kmax < 0:
        raise ValueError("ell and kmax must be nonnegative")
    if basis == "oscillator":
        return oscillator_reference(point.energy, point.lam, ell, free_matrix_coeffs(kmax, ell, point.lam))
    if basis == "laguerre":
        return laguerre_basis_reference(point, ell, kmax)
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
    """
    coefficients = np.asarray(coefficients, dtype=float)
    size = coefficients.shape[-1]
    coefficients = coefficients * np.exp(-36.0 * (np.arange(size) / size) ** 16)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radii must be nonnegative")
    if basis == "oscillator":
        x, order, norm = (lam * r) ** 2, ell, 0.5 * (math.log(2.0 * lam) - lgamma(ell + 1))
    elif basis == "laguerre":
        x, order, norm = lam * r, 2 * ell, 0.5 * (math.log(lam) - lgamma(2 * ell + 1))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    phi0 = np.where(
        r > 0,
        np.exp(norm + (ell + 0.5) * np.log(np.maximum(lam * r, 1e-300)) - 0.5 * x),
        0.0,
    )

    phis = laguerre_upward(size - 1, order, x, phi0)
    terms = (np.multiply.outer(c, phi) for c, phi in zip(coefficients.T, phis))
    total = next(terms)
    for term in terms:
        total += term
    return total


def irregular_target(point: EnergyPoint, ell: int, r):
    """Asymptotic target of the cosine-like reconstruction, sqrt(kappa r) Y_ell(kappa r).

    The sign convention follows the coefficients themselves: the
    reconstructed cosine-like function approaches +sqrt(kappa r) Y_ell,
    as direct comparison confirms. Diverges at r = 0; entries there are
    NaN and callers restrict to r > 0.

    In the Laguerre basis the cosine-like function is regular at the
    origin and reaches this target only outside a regularization layer
    (Yamani & Fishman, J. Math. Phys. 16, 410 (1975)): a smooth,
    non-oscillating difference that decays like e^{-lam r/2} (lam r)^{ell - 1/2}
    at large r. It is a property of the function, not a truncation error,
    and does not shrink with N. At lam = 1 it is about 2.5e-4 (ell = 0) to
    0.4 (ell = 3) at r = 12.5, and 1.5e-10 to 7.6e-6 at r = 40.
    """
    r = np.asarray(r, dtype=float)
    out = np.full_like(r, np.nan)
    pos = r > 0
    out[pos] = np.sqrt(point.kappa * r[pos]) * bessel_y(ell, point.kappa * r[pos])
    return out


def regular_target(point: EnergyPoint, ell: int, r):
    """Target of the sine-like reconstruction, sqrt(kappa r) J_ell(kappa r)."""
    r = np.asarray(r, dtype=float)
    return np.sqrt(point.kappa * r) * bessel_j(ell, point.kappa * r)
