"""Scattering solve: effective interior problem, tail matching, iteration.

One energy point is a fixed-point iteration g <- Phi(g) on the real
edge column g = G[:, N-1] of the interior resolvent. Each order's S is
matched from g[N-1] to the outgoing reference h = c + i s at the basis
edge k = N-1, N and to the incoming one, its conjugate; the result is
S_0, S_1, ... and how the iteration ended.
Order 0 is the linear problem, solved for a block of grid energies at
once from the eigendecomposition of H; a linear energy's result is its
order-0 S, as its block runs no later order. Phi (`_order_map`) advances
a stack of the block's unsettled energies together: it contracts each
row's coefficients of g into its effective interaction R and solves the
edge columns of (H + c R - E)^{-1} by one stacked LU. A level of H or of
H + c R at the energy is a removable singularity of S: G_corner grows
without bound, S tends to its finite limit and the coefficients stay
finite (`interior_coefficients`), so no energy is refused or moved and
each result carries the energy it was given. A block's unsettled
energies keep their last S values, certified period and a streak counter
per period in arrays, one row each, and each energy's S history grows by
one per order it runs. After each order the termination rules run on all
rows at once, and an energy leaves the stack when its iteration ends;
every row's g equals bit for bit its one-energy solve. Termination is
convergence of S, a certified cycle of period 2 or 3 (the shorter period
first, after convergence), or the iteration cap. A certification is
revoked when its cycle values merge to within the bifurcation tolerance:
that is a fixed point approached with alternating sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite
from typing import Sequence

import numpy as np

from .hamiltonian import LinearHamiltonian
from .linearize import DTensor
from .reference import oscillator_reference
from .specfun import finite_positive

# Order 0 of a scan runs on this many energies at a time, bounding its memory;
# each later order advances at most _STACK of them together, for speed: the
# stack's (B, N, N) and (B, N, Q) arrays then stay in cache (one order of 1024
# table1 energies took 17.2 ms in 64-row stacks against 20.1, 17.5 and 17.8 ms
# in stacks of 16, 32 and 128 and 18.8 ms in one stack, medians of 21 runs on
# a 2-core x86-64 VM with one BLAS thread).
_BLOCK = 1024
_STACK = 64
# Cycle certification: this many consecutive orders must look periodic with one of
# these ascending periods (the last sets how many past S a live row keeps); an order
# looks periodic with the shortest lag that brings S back within the bifurcation tolerance.
_CYCLE_STREAK = 4
_PERIODS = np.array([2, 3])
_STATUSES = ("converged", "bifurcated", "max-iterations")


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

        R_ij = sum_l Lambda_il W_l Lambda_jl,
        W_l = (2 lam^2 / ell!)^n xi_l^{n ell} e^{-n xi_l} |psi_l|^{2n},

    with psi = sum_k a_k L~_k at the Gauss nodes; the D tensor's values
    carry xi^{ell/2} e^{-xi/2}, so |psi|^{2n} of them is the whole
    weight. Re psi and Im psi come from one real (2, N) @ (N, Q)
    product, and R = X X^T with X = Lambda sqrt(W) from one BLAS syrk,
    which mirrors one triangle, so R equals its transpose exactly. A
    stack of coefficient rows (..., N+1) gives a stack of R (..., N, N),
    each row its own two products. Since W >= 0, 0 <= R and ||R||_2 <=
    max W ||Lambda||_2^2, Lambda's rows orthonormal only to quadrature accuracy.
    """
    a = np.asarray(coefficients, dtype=complex)
    if a.shape[-1] < dten.n_basis:
        raise ValueError("coefficient vector shorter than the basis")
    a = a[..., : dten.n_basis]
    psi = np.stack((a.real, a.imag), axis=-2) @ dten.values
    pref = (2.0 * lam**2 / factorial(dten.ell)) ** dten.n
    weight = pref * (psi[..., 0, :] ** 2 + psi[..., 1, :] ** 2) ** dten.n
    x = np.einsum("il,...l->...il", dten.stencil, np.sqrt(weight))
    return x @ np.swapaxes(x, -1, -2)


def greens_spectral(eigenvalues: np.ndarray, eigenvectors: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Edge columns G[:, N-1] of the interior resolvent (H - E)^{-1}, one per energy.

    With H = V diag(e) V^T, G[:, N-1] = V (V[N-1, :] / (e - E)), one
    matrix-vector product per energy: the stacked matmul runs one per
    slice, so a column never depends on the other energies. Returns the
    (B, N) columns for the (B,) energies. An energy on a level of H in
    floating point makes that gap exactly zero, and it is taken as eps
    times the spacing of E: S (`phase_shift`) is then its limit at the
    level to rounding, where the spacing itself would move S as far as
    one ulp of E does (1.9e-12 at table1's narrow level near 2.517).
    """
    energies = np.asarray(energies, dtype=float)
    gaps = eigenvalues - energies[:, None]
    gaps = np.where(gaps == 0.0, np.finfo(float).eps * np.spacing(energies)[:, None], gaps)
    return np.matmul(eigenvectors, (eigenvectors[-1] / gaps)[..., None])[..., 0]


def greens_matrix(shifted: np.ndarray) -> np.ndarray:
    """Edge columns of the resolvents of a (B, N, N) stack of H_eff - E, one energy each.

    One stacked LU solve of (H_eff - E) g = e_{N-1}, read from the stack
    as given; returns the (B, N) columns.
    """
    # The right-hand sides carry the stack's full shape: numpy 1.x would read an (N, 1) one as N vectors.
    edge = np.zeros(shifted.shape[:-1] + (1,))
    edge[:, -1] = 1.0
    return np.linalg.solve(shifted, edge)[..., 0]


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays in separate float64 operations, rounded as the scalar product.

    numpy's complex multiply ufunc can differ from the scalar product in the last bit.
    """
    real = a.real * b.real - a.imag * b.imag
    product = np.empty(real.shape, dtype=complex)
    product.real = real
    product.imag = a.real * b.imag + a.imag * b.real
    return product


def phase_shift(edge: np.ndarray, g_corner: np.ndarray, b_edge: float) -> np.ndarray:
    """Scattering matrix from the basis-edge matching relation, one per row of a stack.

    edge holds the (B, 2) outgoing references h = c + i s at k = N-1, N,
    and g_corner the (B,) corner entries G[N-1, N-1]. The incoming
    reference c - i s is conj(h) at a real energy, so with
    D = 1 + b G_corner h_N / h_{N-1} and T = conj(h_{N-1}) / h_{N-1},
    S = T conj(D) / D: |T| = 1 and |conj(D) / D| = 1, so |S| = 1 up to
    roundoff. Each entry equals the scalar formula on its own row.
    """
    d = 1.0 + (b_edge * g_corner) * (edge[:, 1] / edge[:, 0])
    return _times(np.conj(edge[:, 0]) / edge[:, 0], np.conj(d)) / d


def interior_coefficients(edge: np.ndarray, greens_columns: np.ndarray, b_edge: float) -> np.ndarray:
    """Expansion coefficients A_0..A_N at one order, one row per energy of a stack.

    edge holds the (B, 2) outgoing references h and greens_columns (B, N).
    The tail solution's edge coefficient A_N = conj(h_N) - S h_N, with S
    and D = 1 + b G_corner h_N / h_{N-1} as in `phase_shift`, equals
    Wr / (h_{N-1} D) with the Wronskian Wr = conj(h_N) h_{N-1} -
    conj(h_{N-1}) h_N: no difference that cancels near a level of H,
    where G_corner and D grow without bound and A_N goes to zero. The
    complex products are written out in float64 (`_times`); A_0..A_{N-1}
    follow from the Green's function edge column acting on the edge
    coupling, -b G[:, N-1] A_N.
    """
    h0, h1 = edge[:, 0], edge[:, 1]
    d = 1.0 + (b_edge * greens_columns[:, -1]) * (h1 / h0)
    a = np.empty((greens_columns.shape[0], greens_columns.shape[1] + 1), dtype=complex)
    a[:, -1] = (_times(np.conj(h1), h0) - _times(np.conj(h0), h1)) / _times(h0, d)
    a[:, :-1] = -b_edge * greens_columns * a[:, -1:]
    return a


def solve_energy(
    energy: float, hamiltonian: LinearHamiltonian, dten: DTensor | None = None, **options
) -> ScatteringResult:
    """The one-energy `scan`, same options."""
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
    on `hamiltonian`, `_BLOCK` energies at a time. Each order m >= 1
    applies `_order_map` to the block's unsettled energies, at most
    `_STACK` of them per call, and an energy leaves the stack when its
    iteration ends (see the module docstring). After a cycle of period 2
    or 3 is certified, iteration continues to the cap or until the cycle
    values themselves settle, so the reported pair is the converged cycle
    rather than its transient; values that merge revoke the cycle.

    Each result carries the energy it was given, on a level of H too.
    ValueError refuses a coupling that is not
    finite, a nonzero coupling without `dten`, a `dten` built for another
    (n_basis, ell), and an energy, `tolerance` or `bifurcation_tolerance`
    that is not finite and positive.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    if coupling != 0.0 and dten is None:
        raise ValueError("a nonzero coupling needs a D tensor")
    basis = (hamiltonian.n_basis, hamiltonian.ell)
    if dten is not None and (dten.n_basis, dten.ell) != basis:
        raise ValueError(f"D tensor built for (n_basis, ell) = {(dten.n_basis, dten.ell)}, Hamiltonian for {basis}")
    finite_positive(tolerance, "tolerance")
    finite_positive(bifurcation_tolerance, "bifurcation_tolerance")
    grid = finite_positive(energies, "scattering energy")
    n, orders = hamiltonian.n_basis, max_iterations if coupling else 0
    b_edge = hamiltonian.coeffs[1][n - 1]

    def solve(block: np.ndarray) -> list[ScatteringResult]:
        # Order 0 of the block together, then its unsettled energies in stacks.
        ref_s, ref_c = oscillator_reference(block, hamiltonian.lam, hamiltonian.ell, hamiltonian.coeffs)
        edge = (ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T
        g = greens_spectral(hamiltonian.eigenvalues, hamiltonian.eigenvectors, block)
        s0 = phase_shift(edge, g[:, -1], b_edge)
        # Per energy: its S history (Python complex), _STATUSES index and period (0: none).
        histories = [[s] for s in s0.tolist()]
        status, period = np.zeros(block.size, dtype=int), np.zeros(block.size, dtype=int)
        # The live energies' block indices, g, E, outgoing edge references and last `lags + 1` values of S
        # (S_m last, infinity before order 0), certified periods and period streaks, compacted as they end.
        lags = _PERIODS[-1]
        live, energies = np.arange(block.size), block
        s = np.column_stack((np.full((live.size, lags), np.inf), s0))
        cycle, streaks = np.zeros(live.size, dtype=int), np.zeros((live.size, _PERIODS.size), dtype=int)
        for m in range(1, orders + 1):
            if not live.size:
                break
            s_m = np.empty(live.size, dtype=complex)
            for part in (slice(i, i + _STACK) for i in range(0, live.size, _STACK)):
                g[part] = _order_map(g[part], energies[part], edge[part], b_edge, hamiltonian, dten, coupling)
                s_m[part] = phase_shift(edge[part], g[part, -1], b_edge)
            for j, value in zip(live.tolist(), s_m.tolist()):
                histories[j].append(value)
            s = np.column_stack((s[:, 1:], s_m))
            # dist[:, q - 1] = |S_m - S_{m-q}|; `first` is the least q with S_{m-q} near S_m (lags + 1 for none).
            dist = np.abs(s[:, -2::-1] - s_m[:, None])
            near = dist < bifurcation_tolerance
            first = np.where(near.any(axis=1), near.argmax(axis=1) + 1, lags + 1)
            converged = dist[:, 0] < tolerance
            free, settled = cycle == 0, np.zeros(live.size, dtype=bool)
            if not free.all():
                # Cycle values that merge are a fixed point approached with alternating sign: revoke the cycle.
                revoked = first < cycle
                # Ride the certified cycle until its values settle, or to the cap.
                settled = ~free & ~revoked & ((dist[np.arange(live.size), cycle - 1] < tolerance) | (m == orders))
                cycle[revoked] = 0
            # Each period's streak counts the orders in a row that look periodic with it while no cycle is
            # certified; a streak of _CYCLE_STREAK certifies its period.
            streaks = np.where((first[:, None] == _PERIODS) & free[:, None], streaks + 1, 0)
            cycle = np.where(streaks.max(axis=1) >= _CYCLE_STREAK, first, cycle)
            # An energy ends when S converges (before any cycle rule), when its cycle settles, and at the cap.
            done = converged | settled | (m == orders)
            if done.any():
                rows = live[done]
                verdict = np.where(converged, 0, np.where(settled, 1, 2))[done]
                status[rows], period[rows] = verdict, np.where(verdict == 1, cycle[done], 0)
                live, g, energies, edge, s, cycle, streaks = (
                    x[~done] for x in (live, g, energies, edge, s, cycle, streaks))
        return [ScatteringResult(energy, _STATUSES[code], tuple(history), p or None)
                for energy, code, p, history in zip(block.tolist(), status.tolist(), period.tolist(), histories)]

    return [res for i in range(0, grid.size, _BLOCK) for res in solve(grid[i : i + _BLOCK])]


def _order_map(
    g: np.ndarray, energies: np.ndarray, edge: np.ndarray, b_edge: float,
    hamiltonian: LinearHamiltonian, dten: DTensor, coupling: float,
) -> np.ndarray:
    """One order for a stack of B energies, g <- Phi(g) row by row.

    g is (B, N), energies (B,) and edge the (B, 2) outgoing references.
    Each row's coefficients of g give its effective interaction R(a);
    returns the (B, N) edge columns of (H + c R(a) - E)^{-1}
    (`greens_matrix`). A row's output depends on that row alone.
    """
    a = interior_coefficients(edge, g, b_edge)
    r = r_matrix(dten, a, hamiltonian.lam)
    # R's own buffer becomes H + c R - E.
    r *= coupling
    r += hamiltonian.matrix
    diagonal = np.arange(r.shape[-1])
    r[:, diagonal, diagonal] -= energies[:, None]
    return greens_matrix(r)
