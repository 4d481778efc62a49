"""Scattering solve: effective interior problem, tail matching, iteration.

One energy point is a fixed-point iteration g <- Phi(g) on the real
edge column g = G[:, N-1] of the interior resolvent. Each order's S is
matched from g[N-1] to the outgoing reference h = c + i s at the basis
edge k = N-1, N and to the incoming one, its conjugate; the result is
S_0, S_1, ... and how the iteration ended.
Order 0 is the linear problem, solved for a block of grid energies at
once from the eigendecomposition of H; a linear energy runs no later
order. Phi (`_order_map`) advances a stack of the block's unsettled
energies together: it contracts each row's coefficients of g and S into
its effective interaction R, refuses a row whose H + c R - E is too
ill-conditioned and solves the others' edge columns of
(H + c R - E)^{-1} by LU. Most rows' condition is certified from the
eigenvalues of H and R's node-weight bound ||R||_2 <= max W alone; only
the rest take the eigenvalues of H + c R - E. An energy leaves the stack
when its iteration ends, and every row's g equals bit for bit its
one-energy solve. Termination is convergence of S, a certified cycle of
period 2 or 3 (checked in that order, after convergence), or the
iteration cap. A certification is revoked when its cycle values merge
to within the bifurcation tolerance: that is a fixed point approached
with alternating sign.
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

# A matrix this ill-conditioned is treated as an on-grid singularity,
# not as data; the energy is nudged once and re-solved.
_COND_LIMIT = 1e12
_ENERGY_NUDGE = 1e-6
# Order 0 of a scan runs on this many energies at a time, bounding its memory;
# each later order advances at most _STACK of them together, for speed: the
# stack's (B, N, N) and (B, N, Q) arrays then stay in cache (one order of 1024
# table1 energies took 17.2 ms in 64-row stacks against 20.1, 17.5 and 17.8 ms
# in stacks of 16, 32 and 128 and 18.8 ms in one stack, medians of 21 runs on
# a 2-core x86-64 VM with one BLAS thread).
_BLOCK = 1024
_STACK = 64
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


def r_matrix(dten: DTensor, coefficients: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Contract interior coefficients into the effective interaction and its norm bound.

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
    each row its own two products. Since W >= 0 and Lambda's rows are
    orthonormal, 0 <= R <= max W; returns R and max W per row.
    """
    a = np.asarray(coefficients, dtype=complex)
    if a.shape[-1] < dten.n_basis:
        raise ValueError("coefficient vector shorter than the basis")
    a = a[..., : dten.n_basis]
    psi = np.stack((a.real, a.imag), axis=-2) @ dten.values
    pref = (2.0 * lam**2 / factorial(dten.ell)) ** dten.n
    weight = pref * (psi[..., 0, :] ** 2 + psi[..., 1, :] ** 2) ** dten.n
    x = np.einsum("il,...l->...il", dten.stencil, np.sqrt(weight))
    return x @ np.swapaxes(x, -1, -2), weight.max(axis=-1)


def _conditioned(gaps: np.ndarray) -> np.ndarray:
    """Whether H - E stays within the condition limit, per row of gaps e_k - E.

    max|e_k - E| / min|e_k - E| is the 2-norm condition number of the symmetric H - E.
    """
    distance = np.abs(gaps)
    return distance.max(axis=-1) <= _COND_LIMIT * distance.min(axis=-1)


def _certified(levels: np.ndarray, energies: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Whether H + c R - E is certainly conditioned, per row, without its eigenvalues.

    levels are the eigenvalues e of H, shared (N,) or one row each, and
    spread is c max W per row (`r_matrix`). R = Lambda W Lambda^T with
    W >= 0 and Lambda Lambda^T = I_N gives 0 <= R <= max W, so Weyl's
    inequality puts the i-th eigenvalue of H + c R - E in
    [e_i - E + min(0, spread), e_i - E + max(0, spread)]. With `near` the
    least distance from 0 to these intervals and `far` their largest
    endpoint magnitude, a row is certified when
    far <= 1e-4 * _COND_LIMIT * near. That margin is what makes the
    certificate agree with `_conditioned` on the eigenvalues that
    `eigvalsh` would compute. The computed c R leaves c [0, max W] by
    about 3 Q eps |spread| per entry (its Q-term sums and Lambda's rounded
    orthonormality), so by at most 6 N Q eps far in norm, as
    |spread| <= 2 far (1e-10 far at N = 160, Q = 480); eigh(H), forming
    H + c R - E and eigvalsh itself add about N eps far. A certified row
    has near >= 1e-8 far, so its computed condition number is at most
    1e8 (1 + 1e-6) and eigvalsh would accept it too. A row with a NaN or
    infinite level, energy or spread is never certified.
    """
    gaps = levels - np.asarray(energies, dtype=float)[:, None]
    spread = np.asarray(spread, dtype=float)[:, None]
    low, high = gaps + np.minimum(spread, 0.0), gaps + np.maximum(spread, 0.0)
    near = np.maximum(np.maximum(low, -high), 0.0).min(axis=-1)
    far = np.maximum(high, -low).max(axis=-1)
    return np.isfinite(far) & (far <= 1e-4 * _COND_LIMIT * near)


def greens_spectral(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, energies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge columns G[:, N-1] of the interior resolvent (H - E)^{-1}, one per energy.

    With H = V diag(e) V^T, G[:, N-1] = V (V[N-1, :] / (e - E)), one
    matrix-vector product per energy: the stacked matmul runs one per
    slice, so a column never depends on the other energies. Returns the
    (B, N) columns for the (B,) energies and the mask of energies whose
    H - E passes the condition test; a refused row is never divided by
    and stays zero.
    """
    gaps = eigenvalues - np.asarray(energies, dtype=float)[:, None]
    conditioned = _conditioned(gaps)
    columns = np.zeros(gaps.shape)
    columns[conditioned] = np.matmul(eigenvectors, (eigenvectors[-1] / gaps[conditioned])[..., None])[..., 0]
    return columns, conditioned


def greens_matrix(
    shifted: np.ndarray, energies: np.ndarray, levels: np.ndarray, spread: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge columns of the resolvents of a (B, N, N) stack of symmetric H_eff - E, one energy each.

    Each H_eff is H + c R with R positive semidefinite, and the stack holds
    H_eff - E for the row's energy; levels are the eigenvalues of H and
    spread is c max W per row, which bounds c ||R||_2. A row that
    `_certified` vouches for is conditioned; the condition test of the
    others runs on the eigenvalues of their H_eff - E, in one stacked
    eigvalsh, and the two decide every row alike (see `_certified`). The
    column of each conditioned row is one LU solve of
    (H_eff - E) g = e_{N-1}, read from the stack as given. Returns the
    (B, N) columns and the (B,) mask; a refused row never reaches the
    solve and stays zero.
    """
    conditioned = _certified(levels, energies, spread)
    doubtful = np.flatnonzero(~conditioned)
    if doubtful.size:
        conditioned[doubtful] = _conditioned(np.linalg.eigvalsh(shifted[doubtful]))
    every = conditioned.all()
    solvable = shifted if every else shifted[conditioned]
    # The right-hand sides carry the stack's full shape: numpy 1.x would read an (N, 1) one as N vectors.
    edge = np.zeros(solvable.shape[:-1] + (1,))
    edge[:, -1] = 1.0
    solved = np.linalg.solve(solvable, edge)[..., 0]
    if every:
        return solved, conditioned
    columns = np.zeros(shifted.shape[:-1])
    columns[conditioned] = solved
    return columns, conditioned


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


def interior_coefficients(s: np.ndarray, edge: np.ndarray, greens_columns: np.ndarray, b_edge: float) -> np.ndarray:
    """Expansion coefficients A_0..A_N at one order, one row per energy of a stack.

    s holds the B values of S, edge the (B, 2) outgoing references h and
    greens_columns (B, N). The two edge entries come from the tail
    solution A_k = conj(h_k) - S h_k (k = N-1, N), with the complex
    product written out in float64 (`_times`); the interior follows from
    the Green's function edge column acting on the edge coupling.
    """
    rows, size = greens_columns.shape
    a = np.empty((rows, size + 1), dtype=complex)
    a[:, -2:] = np.conj(edge) - _times(np.asarray(s, dtype=complex)[:, None], edge)
    a[:, :-2] = -b_edge * greens_columns[:, :-1] * a[:, -1:]
    return a


def _periodic(history: list[complex], p: int, bifurcation_tolerance: float) -> bool:
    """S_m returns to S_{m-p} within the tolerance, and to no nearer order."""
    return (
        len(history) > p
        and abs(history[-1] - history[-1 - p]) < bifurcation_tolerance
        and all(abs(history[-1] - history[-1 - q]) >= bifurcation_tolerance for q in range(1, p))
    )


class _Iteration:
    """One energy's S history and the termination rules applied to it, order by order."""

    def __init__(self, s0: complex, orders: int, tolerance: float, bifurcation_tolerance: float):
        self.history = [s0]
        self.orders, self.tolerance, self.bifurcation_tolerance = orders, tolerance, bifurcation_tolerance
        self.status, self.period = (None, None) if orders else ("converged", None)
        self.streaks, self.certified = dict.fromkeys(_PERIODS, 0), None

    def add(self, s: complex) -> None:
        """Record S_m of the next order m; `status` is set once the iteration has ended."""
        history = self.history
        history.append(s)
        m = len(history) - 1
        if abs(history[-1] - history[-2]) < self.tolerance:
            self.status = "converged"
        elif self.certified:
            # Merged cycle values are a fixed point approached with
            # alternating sign: revoke the certification and go on.
            merged = min(abs(history[-1] - history[-1 - q]) for q in range(1, self.certified))
            if merged < self.bifurcation_tolerance:
                self.certified = None
                self.streaks = dict.fromkeys(_PERIODS, 0)
            # Ride the certified cycle until its values settle.
            elif abs(history[-1] - history[-1 - self.certified]) < self.tolerance or m == self.orders:
                self.status, self.period = "bifurcated", self.certified
        else:
            for p in _PERIODS:
                self.streaks[p] = self.streaks[p] + 1 if _periodic(history, p, self.bifurcation_tolerance) else 0
            self.certified = next((p for p in _PERIODS if self.streaks[p] >= _CYCLE_STREAK), None)
        if self.status is None and m == self.orders:
            self.status = "max-iterations"


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

    A numerically singular resolvent at any order repeats the energy's
    whole solve once, alone, at the energy raised by the relative nudge
    (the result carries the energy actually solved); a second one raises
    SingularMatrixError. ValueError refuses a coupling that is not
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

    def solve(block: np.ndarray, nudge: bool = True) -> list[ScatteringResult]:
        # Order 0 of the block together, then its unsettled energies in stacks; a refusal re-solves one nudged.
        ref_s, ref_c = oscillator_reference(block, hamiltonian.lam, hamiltonian.ell, hamiltonian.coeffs)
        edge = (ref_c[n - 1 :] + 1j * ref_s[n - 1 :]).T
        g, conditioned = greens_spectral(hamiltonian.eigenvalues, hamiltonian.eigenvectors, block)
        runs = [
            _Iteration(s0, orders, tolerance, bifurcation_tolerance) if ok else None
            for s0, ok in zip(phase_shift(edge, g[:, -1], b_edge), conditioned.tolist())
        ]
        # The unsettled energies' block indices, their g, E and outgoing edge references, packed in one order.
        stack, energies = np.arange(block.size), block
        going = [run is not None and run.status is None for run in runs]
        while any(going):
            if not all(going):
                keep = np.flatnonzero(going)
                stack, g, energies, edge = (x[keep] for x in (stack, g, energies, edge))
            for part in (slice(i, i + _STACK) for i in range(0, stack.size, _STACK)):
                rows = stack[part].tolist()
                g[part], ok = _order_map(g[part], [runs[j].history[-1] for j in rows], energies[part], edge[part],
                                         b_edge, hamiltonian, dten, coupling)
                s_part = phase_shift(edge[part], g[part, -1], b_edge)
                for j, row_ok, s in zip(rows, ok.tolist(), s_part):
                    if row_ok:
                        runs[j].add(s)
                    else:
                        runs[j] = None
            going = [runs[j] is not None and runs[j].status is None for j in stack.tolist()]
        results = []
        for energy, run in zip(block.tolist(), runs):
            if run is not None:
                results.append(ScatteringResult(energy=energy, status=run.status, history=tuple(run.history),
                                                period=run.period))
            elif nudge:
                results += solve(np.array([energy * (1.0 + _ENERGY_NUDGE)]), nudge=False)
            else:
                raise SingularMatrixError(f"resolvent condition number above {_COND_LIMIT:.0e} at E={energy!r}")
        return results

    return [res for i in range(0, grid.size, _BLOCK) for res in solve(grid[i : i + _BLOCK])]


def _order_map(
    g: np.ndarray, s: np.ndarray, energies: np.ndarray, edge: np.ndarray, b_edge: float,
    hamiltonian: LinearHamiltonian, dten: DTensor, coupling: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One order for a stack of B energies, g <- Phi(g) row by row.

    g is (B, N), s the B values of S (the caller's `phase_shift` of g's
    corners), energies (B,) and edge the (B, 2) outgoing references.
    Each row's coefficients of g and S give its effective interaction
    R(a); returns the (B, N) edge columns of (H + c R(a) - E)^{-1} and
    the (B,) mask of rows that passed the condition test
    (`greens_matrix`, given the eigenvalues of H and each row's
    c max W >= c ||R||_2). A row's output depends on that row alone.
    """
    a = interior_coefficients(s, edge, g, b_edge)
    r, top = r_matrix(dten, a, hamiltonian.lam)
    # R's own buffer becomes H + c R - E.
    r *= coupling
    r += hamiltonian.matrix
    diagonal = np.arange(r.shape[-1])
    r[:, diagonal, diagonal] -= energies[:, None]
    return greens_matrix(r, energies, hamiltonian.eigenvalues, coupling * top)
