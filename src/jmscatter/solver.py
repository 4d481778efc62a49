"""Scattering solve: effective interior problem, tail matching, iteration.

One energy point runs as a fixed-point iteration in the perturbation
order m; its result is the sequence S_0, S_1, ... and how it ended.
Order zero is the linear problem, solved for a block of grid energies
at once: one reference recursion and one condition test. Each energy
then takes its own edge column and S, equal bit for bit to its
one-energy solve. Each later order contracts the previous order's
interior coefficients into the effective interaction R, reads the edge
column G[:, N-1] of the interior resolvent off an eigendecomposition,
matches it to the reference solutions at the basis edge k = N-1, N for
S, and refreshes the coefficients. Termination is convergence of S, a
certified cycle of period 2 or 3 (checked in that order, after
convergence), or the iteration cap. A certification is revoked when its
cycle values merge to within the bifurcation tolerance: that is a fixed
point approached with alternating sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .hamiltonian import LinearHamiltonian
from .linearize import DTensor
from .reference import oscillator_reference
from .specfun import finite_positive

# A matrix this ill-conditioned is treated as an on-grid singularity,
# not as data; the energy is nudged once and re-solved.
_COND_LIMIT = 1e12
_ENERGY_NUDGE = 1e-6
# Order 0 of a scan runs on this many energies at a time, bounding its memory.
_BLOCK = 1024
# Cycle certification: this many consecutive orders must look periodic,
# tried for each period in turn (period 2 wins over period 3).
_CYCLE_STREAK = 4
_PERIODS = (2, 3)


class SingularMatrixError(ArithmeticError):
    """Interior resolvent is numerically singular at this energy."""


@dataclass(frozen=True)
class ScatteringResult:
    """Outcome of one energy point: its S history and how the iteration ended.

    status is one of "converged", "bifurcated", "max-iterations".
    history holds S at every computed order, m = 0 first, and every
    other number is read off it. `period` is set for "bifurcated" only;
    `bifurcation` then carries the |1 - S| values of the last `period`
    orders in descending order.
    """

    energy: float
    status: str
    history: tuple
    period: int | None = None

    @property
    def s_matrix(self) -> complex:
        return self.history[-1]

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def unimodularity_defect(self) -> float:
        return max(abs(abs(s) - 1.0) for s in self.history)

    @property
    def bifurcation(self) -> tuple | None:
        if self.period is None:
            return None
        return tuple(sorted((abs(1.0 - s) for s in self.history[-self.period:]), reverse=True))

    @property
    def abs_one_minus_s(self) -> float:
        return abs(1.0 - self.s_matrix)


def r_matrix(dten: DTensor, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Contract interior coefficients into the effective interaction.

    The D tensor contracted with n coefficient vectors and n conjugated
    ones is a node sum, so it is assembled in node space:

        R = (2 lam^2 / ell!)^n Lambda diag(xi^{n ell} e^{-n xi} |psi|^{2n}) Lambda^T,

    with psi = sum_k a_k L~_k at the Gauss nodes. The weight is never
    negative, so R is the Gram product X X^T, X = Lambda diag(sqrt(weight)),
    which numpy forms by BLAS syrk: R equals its transpose exactly.
    """
    a = np.asarray(coefficients, dtype=complex)
    if a.size < dten.n_basis:
        raise ValueError("coefficient vector shorter than the basis")
    psi = a[: dten.n_basis] @ dten.values
    pref = (2.0 * lam**2 / factorial(dten.ell)) ** dten.n
    x = dten.stencil * np.sqrt(pref * dten.node_weight * (psi.real**2 + psi.imag**2) ** dten.n)
    return x @ x.T


def _conditioned(gaps: np.ndarray) -> np.ndarray:
    """Whether H - E stays within the condition limit, per row of gaps e_k - E.

    max|e_k - E| / min|e_k - E| is the 2-norm condition number of the symmetric H - E.
    """
    distance = np.abs(gaps)
    return distance.max(axis=-1) <= _COND_LIMIT * distance.min(axis=-1)


def _edge_column(eigenvectors: np.ndarray, gaps: np.ndarray, energy: float, conditioned: bool) -> np.ndarray:
    """V (V[N-1, :] / gaps) for one energy, refused before the division unless conditioned."""
    if not conditioned:
        raise SingularMatrixError(f"resolvent condition number above {_COND_LIMIT:.0e} at E={energy!r}")
    return eigenvectors @ (eigenvectors[-1] / gaps)


def greens_spectral(eigenvalues: np.ndarray, eigenvectors: np.ndarray, energy: float) -> np.ndarray:
    """Edge column G[:, N-1] of the interior resolvent (H - E)^{-1}.

    With H = V diag(e) V^T, G[:, N-1] = V (V[N-1, :] / (e - E)); an
    ill-conditioned H - E raises SingularMatrixError.
    """
    gaps = eigenvalues - energy
    return _edge_column(eigenvectors, gaps, energy, _conditioned(gaps))


def greens_matrix(h_eff: np.ndarray, energy: float) -> np.ndarray:
    """Edge column of the resolvent of a symmetric H_eff, by diagonalization."""
    return greens_spectral(*np.linalg.eigh(h_eff), energy)


def phase_shift(h_plus: np.ndarray, h_minus: np.ndarray, g_corner: float, b_edge: float) -> complex:
    """Scattering matrix from the basis-edge matching relation.

    h_plus and h_minus are the outgoing c + i s and incoming c - i s
    reference combinations at k = N-1, N. S = T (1 + b G_corner Rm) /
    (1 + b G_corner Rp), with T = h^-/h^+ at k = N-1 and Rpm the h^{+-}
    ratios across the edge. With a real symmetric interior operator the
    numerator is the conjugate of the denominator, so |S| = 1 up to
    roundoff.
    """
    t_edge = h_minus[0] / h_plus[0]
    r_plus = h_plus[1] / h_plus[0]
    r_minus = h_minus[1] / h_minus[0]
    return t_edge * (1.0 + b_edge * g_corner * r_minus) / (1.0 + b_edge * g_corner * r_plus)


def interior_coefficients(
    s: complex, h_plus: np.ndarray, h_minus: np.ndarray, greens_column: np.ndarray, b_edge: float
) -> np.ndarray:
    """Expansion coefficients A_0..A_N at one order.

    The two edge entries come from the tail solution
    A_k = h^-_k - S h^+_k (k = N-1, N); the interior follows from the
    Green's function edge column acting on the edge coupling.
    """
    a = np.empty(greens_column.size + 1, dtype=complex)
    a[-2] = h_minus[0] - s * h_plus[0]
    a[-1] = h_minus[1] - s * h_plus[1]
    a[:-2] = -b_edge * greens_column[:-1] * a[-1]
    return a


def _periodic(history: list[complex], p: int, bifurcation_tolerance: float) -> bool:
    """S_m returns to S_{m-p} within the tolerance, and to no nearer order."""
    return (
        len(history) > p
        and abs(history[-1] - history[-1 - p]) < bifurcation_tolerance
        and all(abs(history[-1] - history[-1 - q]) >= bifurcation_tolerance for q in range(1, p))
    )


def solve_energy(
    energy: float, hamiltonian: LinearHamiltonian, dten: DTensor | None = None, **options
) -> ScatteringResult:
    """Run the perturbative iteration at one energy: the one-energy `scan`, same options."""
    return scan([energy], hamiltonian, dten, **options)[0]


def scan(
    energies: Sequence[float],
    hamiltonian: LinearHamiltonian,
    dten: DTensor | None = None,
    *,
    coupling: float = 0.0,
    tolerance: float = 1e-8,
    bifurcation_tolerance: float = 1e-3,
    max_iterations: int = 50,
) -> list[ScatteringResult]:
    """Solve a whole energy grid, in input order.

    Order 0 solves the linear problem from the eigendecomposition kept
    on `hamiltonian`, `_BLOCK` energies at a time (see the module
    docstring). Orders m >= 1 rebuild the effective interaction from
    order m-1 and re-solve. After a cycle of period 2 or 3 is certified,
    iteration continues to the cap or until the cycle values themselves
    settle, so the reported pair is the converged cycle rather than its
    transient; values that merge revoke the cycle.

    A numerically singular resolvent at any order repeats the energy's
    whole solve once at the energy raised by the relative nudge (the
    result carries the energy actually solved); a second one raises
    SingularMatrixError. A nonzero coupling without `dten` raises
    ValueError, and so does an energy that is not finite and positive.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if coupling != 0.0 and dten is None:
        raise ValueError("a nonzero coupling needs a D tensor")
    grid = finite_positive(energies, "scattering energy")
    settings = (hamiltonian, dten, coupling, tolerance, bifurcation_tolerance, max_iterations)
    return [res for i in range(0, grid.size, _BLOCK) for res in _solve(grid[i : i + _BLOCK], settings)]


def _solve(energies: np.ndarray, settings: tuple, nudge: bool = True) -> list[ScatteringResult]:
    """Order 0 of a block of energies together, then each energy's own orders.

    A refused energy is solved again, alone and by this same code, at
    the nudged energy; a refusal there raises.
    """
    ham = settings[0]
    n = ham.n_basis
    ref = oscillator_reference(energies, ham.lam, ham.ell, ham.coeffs)
    h_plus = (ref.c[n - 1 :] + 1j * ref.s[n - 1 :]).T
    h_minus = (ref.c[n - 1 :] - 1j * ref.s[n - 1 :]).T
    gaps = ham.eigenvalues - energies[:, None]
    conditioned = _conditioned(gaps)
    results = []
    for j, energy in enumerate(energies.tolist()):
        try:
            g = _edge_column(ham.eigenvectors, gaps[j], energy, conditioned[j])
            results.append(_iterate(energy, h_plus[j], h_minus[j], g, settings))
        except SingularMatrixError:
            if not nudge:
                raise
            results += _solve(np.array([energy * (1.0 + _ENERGY_NUDGE)]), settings, nudge=False)
    return results


def _iterate(energy: float, h_plus, h_minus, g: np.ndarray, settings: tuple) -> ScatteringResult:
    """One energy's S history from its reference pair h+- and order-0 edge column g."""
    hamiltonian, dten, coupling, tolerance, bifurcation_tolerance, max_iterations = settings
    n = hamiltonian.n_basis
    b_edge = hamiltonian.coeffs[1][n - 1]
    history = [phase_shift(h_plus, h_minus, g[n - 1], b_edge)]
    if coupling == 0.0:
        return ScatteringResult(energy=energy, status="converged", history=tuple(history))

    status, period = "max-iterations", None
    streaks = dict.fromkeys(_PERIODS, 0)
    certified = None
    for m in range(1, max_iterations + 1):
        coeffs = interior_coefficients(history[-1], h_plus, h_minus, g, b_edge)
        eff = hamiltonian.matrix + coupling * r_matrix(dten, coeffs, hamiltonian.lam)
        g = greens_matrix(eff, energy)
        history.append(phase_shift(h_plus, h_minus, g[n - 1], b_edge))

        if abs(history[-1] - history[-2]) < tolerance:
            status = "converged"
            break
        if certified:
            # Merged cycle values are a fixed point approached with
            # alternating sign: revoke the certification and go on.
            merged = min(abs(history[-1] - history[-1 - q]) for q in range(1, certified))
            if merged < bifurcation_tolerance:
                certified = None
                streaks = dict.fromkeys(_PERIODS, 0)
            # Ride the certified cycle until its values settle.
            elif abs(history[-1] - history[-1 - certified]) < tolerance or m == max_iterations:
                status, period = "bifurcated", certified
                break
            continue
        for p in _PERIODS:
            streaks[p] = streaks[p] + 1 if _periodic(history, p, bifurcation_tolerance) else 0
        certified = next((p for p in _PERIODS if streaks[p] >= _CYCLE_STREAK), None)

    return ScatteringResult(energy=energy, status=status, history=tuple(history), period=period)


def resonance_energy(
    energies: Sequence[float], results: Sequence[ScatteringResult]
) -> float:
    """Energy of strongest resonance activity on a solved grid.

    |1 - S| alone cannot locate a resonance: any slow background phase
    sweeping through pi/2 pushes it to its ceiling of 2. The resonance is
    where the phase moves fastest, so this picks the grid point where the
    unwrapped phase-shift derivative d(delta)/dE peaks in magnitude.
    Interior points only; the grid must be fine enough to sample the jump.
    """
    if len(energies) != len(results):
        raise ValueError("energies and results must align")
    if len(energies) < 3:
        raise ValueError("need at least three grid points")
    e = np.asarray(energies, dtype=float)
    s = np.array([res.s_matrix for res in results])
    delta = 0.5 * np.unwrap(np.angle(s))
    slope = np.abs(np.gradient(delta, e))
    return float(e[1 + int(np.argmax(slope[1:-1]))])
