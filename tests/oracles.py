"""Independent routes the tests compare the package against.

The C tensor expands a product of basis polynomials back into the
basis,

    L~_{t_1}(x) ... L~_{t_p}(x) = sum_q C^q_{t_1..t_p} L~_q(x),

and is fully symmetric in its lower indices. The expanded D tensor
writes the node sum of `jmscatter.linearize` out over every canonical
2n-index tuple,

    D^{k_1..k_{2n}}_{ij} = sum_l Lambda_il [xi_l^{n ell} e^{-n xi_l}
                            prod_a L~_{k_a}(xi_l)] Lambda_jl,

with the multiset splits that turn a coefficient vector into per-tuple
weights. Both are stored over canonical (sorted) index tuples only.
The package assembles the effective interaction in node space instead;
these routes enumerate the combinatorics and so cross-check it at
small N.

The other routes here are independent of the package's production paths:
the effective interaction from a packed table of basis-pair products at
the nodes, the edge matching one energy at a time in scalar complex
arithmetic, the full resolvent by direct inversion and its entries as
determinant ratios, the closed-form nonlinear weight integrals, the
associated Laguerre and Gegenbauer recursions, the bare basis values at
a rule's nodes by one plain recursion step per degree, plain weighted
quadrature sums, the Ei series and the oscillator reference seeds in
scalar math, one term and one energy at a time, and the Gauss rule from
LAPACK's tridiagonal eigensolver. `laguerre_normalized` is not
independent: it reads one degree off the package's own upward recursion
for tests that want a single polynomial value; the sine-like closed form
reads it per degree. `locate_resonance` is a measuring tool rather than
a route: it places the resonance of any S(E), a g = 0 `scan` or a closed
form, below the grid step.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import factorial, lgamma

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar

from jmscatter.linearize import _check_bound
from jmscatter.quadrature import QuadratureRule
from jmscatter.specfun import jacobi_coefficients, laguerre_upward

SymmetricIndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class CTensor:
    """Canonical-tuple expansion coefficients of basis-polynomial products.

    `tuples[t]` is the sorted lower index tuple; `coeff[t, q]` its
    expansion coefficient on L~_q, q = 0..(p(N-1)) for p factors.
    """

    n: int
    ell: int
    n_basis: int
    tuples: np.ndarray
    coeff: np.ndarray

    def lookup(self, indices: SymmetricIndexTuple) -> np.ndarray:
        key = np.asarray(sorted(indices))
        hit = np.nonzero((self.tuples == key).all(axis=1))[0]
        if hit.size != 1:
            raise KeyError(f"no canonical tuple {tuple(key)}")
        return self.coeff[hit[0]]


@dataclass(frozen=True)
class ExpandedDTensor:
    """Canonical-tuple nonlinear weight matrices plus split combinatorics.

    stack[t] is the (N, N) matrix for tuples[t] (sorted, length 2n).
    Rows s of the split arrays enumerate, per tuple, every distinct way
    of dividing its multiset into an unconjugated half u and a
    conjugated half v, with multinomial weight split_coeff[s]; the
    per-tuple coefficient weight is then

        P[t] = sum_{s in tuple t} split_coeff[s]
               * prod A[split_u[s]] * prod conj(A)[split_v[s]].
    """

    n: int
    ell: int
    n_basis: int
    order: int
    tuples: np.ndarray
    stack: np.ndarray
    split_tuple: np.ndarray
    split_u: np.ndarray
    split_v: np.ndarray
    split_coeff: np.ndarray


def _canonical_tuples(length: int, n_basis: int) -> np.ndarray:
    tups = list(itertools.combinations_with_replacement(range(n_basis), length))
    return np.asarray(tups, dtype=np.int32)


def c_tensor_quadrature(
    n: int,
    ell: int,
    n_basis: int,
    rule: QuadratureRule,
    override: bool = False,
) -> CTensor:
    """C tensor over (n+1)-index canonical tuples by Gauss projection.

    C^q_t = sum_l w_l [prod_a L~_{t_a}(xi_l)] L~_q(xi_l), exact when the
    rule's order is at least (n+1)N - n. Lower orders alias the high-q
    coefficients and are refused unless overridden.
    """
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    _check_bound(n, n_basis, rule.order, override)
    qmax = (n + 1) * (n_basis - 1)
    if qmax >= rule.order:
        raise ValueError("rule too small to carry the expansion degrees")
    tuples = _canonical_tuples(n + 1, n_basis)
    vals = quadrature_values(rule, qmax)
    prod = np.ones((tuples.shape[0], rule.order))
    for a in range(n + 1):
        prod *= vals[tuples[:, a], :]
    coeff = (prod * rule.weights[np.newaxis, :]) @ vals[: qmax + 1, :].T
    return CTensor(n=n, ell=ell, n_basis=n_basis, tuples=tuples, coeff=coeff)


def c_tensor_matrix_poly(n: int, ell: int, n_basis: int) -> CTensor:
    """C tensor by polynomial algebra on the Jacobi matrix, no quadrature.

    Multiplication by x acts on basis coefficients as the Jacobi matrix J,
    so the expansion of L~_{t_1}...L~_{t_p} L~_j follows from
    [L~_{t_1}(J) ... L~_{t_p}(J)]_{j,q}, seeded by the identity for the
    constant polynomial. Band growth per factor caps every intermediate
    index at the stored degree limit, so truncating J there is exact.
    The value is symmetrized over every choice of which tuple element
    plays the row index; the spread across those choices is roundoff
    only and the average restores exact index symmetry.

    Entries of L~_k(J) grow exponentially with the degree limit while
    the result stays moderate, so double precision loses this route
    beyond roughly N = 12; it is a cross-check for the quadrature route
    at moderate sizes, not a production path.
    """
    qmax = (n + 1) * (n_basis - 1)
    m = qmax + 1
    diag, off = jacobi_coefficients(m - 1, ell)
    jmat = np.diag(diag)
    idx = np.arange(m - 1)
    jmat[idx, idx + 1] = -off[:-1]
    jmat[idx + 1, idx] = -off[:-1]

    # Matrix images L~_k(J) by the basis recursion, k = 0..N-1.
    mats = [np.eye(m)]
    if n_basis > 1:
        mats.append(((ell + 1) * np.eye(m) - jmat) / np.sqrt(ell + 1.0))
    for k in range(1, n_basis - 1):
        eta = 2 * k + ell + 1
        sig = np.sqrt((k + 1.0) * (k + ell + 1.0))
        sigm = np.sqrt(k * (k + ell + 0.0))
        mats.append(((eta * np.eye(m) - jmat) @ mats[k] - sigm * mats[k - 1]) / sig)

    tuples = _canonical_tuples(n + 1, n_basis)
    coeff = np.zeros((tuples.shape[0], qmax + 1))
    for t, tup in enumerate(tuples):
        acc = np.zeros(qmax + 1)
        for r in range(n + 1):
            rest = [tup[a] for a in range(n + 1) if a != r]
            prod = mats[rest[0]] if rest else np.eye(m)
            for k in rest[1:]:
                prod = prod @ mats[k]
            acc += prod[tup[r], : qmax + 1]
        coeff[t] = acc / (n + 1)
    return CTensor(n=n, ell=ell, n_basis=n_basis, tuples=tuples, coeff=coeff)


def _splits(tup: SymmetricIndexTuple, n: int):
    """Distinct (u, v) multiset halvings of `tup` with multinomial weights."""
    seen = {}
    for pos in itertools.combinations(range(2 * n), n):
        u = tuple(sorted(tup[p] for p in pos))
        if u in seen:
            continue
        v_count = Counter(tup) - Counter(u)
        v = tuple(sorted(v_count.elements()))
        cu = factorial(n)
        for c in Counter(u).values():
            cu //= factorial(c)
        cv = factorial(n)
        for c in v_count.values():
            cv //= factorial(c)
        seen[u] = (u, v, float(cu * cv))
    return list(seen.values())


def d_tensor_expanded(
    n: int,
    ell: int,
    n_basis: int,
    rule: QuadratureRule,
    override: bool = False,
) -> ExpandedDTensor:
    """D tensor over canonical 2n-index tuples on the Gauss grid.

    The per-node factor xi^{n ell} e^{-n xi} times the product of tuple
    polynomials is contracted against the projection stencil on both
    sides. Shares the C-tensor exactness bound on the rule order (the
    sampled products have the same degrees), refusable by override.
    """
    if rule.ell != ell:
        raise ValueError("quadrature rule was built for a different ell")
    _check_bound(n, n_basis, rule.order, override)

    tuples = _canonical_tuples(2 * n, n_basis)
    vals = quadrature_values(rule, n_basis - 1)
    lam_n = rule.vectors[:n_basis, :]
    base = rule.nodes**(n * ell) * np.exp(-n * rule.nodes)
    znode = np.tile(base, (tuples.shape[0], 1))
    for a in range(2 * n):
        znode *= vals[tuples[:, a], :]
    stack = np.einsum("il,tl,jl->tij", lam_n, znode, lam_n, optimize=True)

    rows_t, rows_u, rows_v, rows_c = [], [], [], []
    for t, tup in enumerate(map(tuple, tuples)):
        for u, v, c in _splits(tup, n):
            rows_t.append(t)
            rows_u.append(u)
            rows_v.append(v)
            rows_c.append(c)
    return ExpandedDTensor(
        n=n, ell=ell, n_basis=n_basis, order=rule.order,
        tuples=tuples, stack=stack,
        split_tuple=np.asarray(rows_t, dtype=np.int64),
        split_u=np.asarray(rows_u, dtype=np.int64),
        split_v=np.asarray(rows_v, dtype=np.int64),
        split_coeff=np.asarray(rows_c),
    )


def r_matrix_expanded(dten: ExpandedDTensor, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Effective interaction by contracting the expanded D tensor.

    Per canonical tuple the coefficient weight sums every distinct
    multiset split into n unconjugated and n conjugated factors with
    multinomial multiplicities; position-wise combinations would count
    repeated indices more than once. The weight is real up to roundoff
    (conjugate splits pair up), and the result is symmetrized.
    """
    a = np.asarray(coefficients, dtype=complex)[: dten.n_basis]
    pu = a[dten.split_u].prod(axis=1)
    pv = np.conj(a)[dten.split_v].prod(axis=1)
    contrib = dten.split_coeff * pu * pv
    weights = np.zeros(dten.tuples.shape[0], dtype=complex)
    np.add.at(weights, dten.split_tuple, contrib)
    pref = (2.0 * lam**2 / factorial(dten.ell)) ** dten.n
    raw = pref * np.tensordot(weights, dten.stack, axes=(0, 0))
    return (0.5 * (raw + raw.conj().T)).real


def r_matrix_pairs(dten, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Effective interaction of one coefficient row from a packed table of basis-pair products.

    pairs[l, p] = Lambda_il Lambda_jl for every basis pair i <= j, with
    the projection stencil Lambda of the D tensor; the node weight of
    `solver.r_matrix`, formed from the complex psi, is summed against
    each column by one (Q,) @ (Q, N(N+1)/2) product, and both triangles
    read the same packed entry.
    """
    first, second = np.triu_indices(dten.n_basis)
    pairs = dten.stencil[first].T * dten.stencil[second].T
    psi = np.asarray(coefficients, dtype=complex)[: dten.n_basis] @ dten.values
    pref = (2.0 * lam**2 / factorial(dten.ell)) ** dten.n
    packed = (pref * (psi.real**2 + psi.imag**2) ** dten.n) @ pairs
    r = np.empty((dten.n_basis, dten.n_basis))
    r[first, second] = r[second, first] = packed
    return r


def phase_shift_scalar(h_plus, h_minus, g_corner, b_edge) -> complex:
    """S of one energy from the basis-edge matching relation, in numpy scalar complex arithmetic.

    h_plus and h_minus are the two edge entries k = N-1, N of c + i s
    and c - i s, and g_corner the real G[N-1, N-1]. `solver.phase_shift`
    evaluates the same formula on a stack with h_minus taken as
    conj(h_plus), so equality with this oracle, which is given c - i s
    as built, also pins those conjugate identities bit for bit.
    """
    hp0, hp1 = (np.complex128(x) for x in h_plus)
    hm0, hm1 = (np.complex128(x) for x in h_minus)
    t_edge = hm0 / hp0
    r_plus = hp1 / hp0
    r_minus = hm1 / hm0
    coupling = np.float64(b_edge) * np.float64(g_corner)
    return t_edge * (1.0 + coupling * r_minus) / (1.0 + coupling * r_plus)


def edge_coefficients_scalar(s, h_plus, h_minus) -> list:
    """The edge entries A_k = h^-_k - S h^+_k (k = N-1, N) of one energy, in scalar complex arithmetic."""
    return [complex(hm) - np.complex128(s) * complex(hp) for hp, hm in zip(h_plus, h_minus)]


def locate_resonance(s_at, energies) -> tuple[float, float]:
    """Energy and height of the strongest peak of |d(delta)/dE| on a grid, delta = arg(S) / 2.

    |1 - S| alone cannot locate a resonance: a slow background phase
    sweeping through pi/2 pushes it to its ceiling of 2. The resonance is
    where the phase moves fastest, so the interior grid point where the
    unwrapped phase's slope peaks seeds a bounded Brent search over one
    grid step on either side, on the central difference of delta between
    E - h and E + h, h = 1e-5 (well inside fig1's 4.9e-4 width). `s_at`
    maps a sequence of energies to their S values: one call for the grid,
    then one two-energy call per slope. A peak of full width Gamma at half
    height rises to 2 / Gamma.
    """
    half_step = 1e-5
    e = np.asarray(energies, dtype=float)
    delta = 0.5 * np.unwrap(np.angle(np.asarray(s_at(e))))
    peak = 1 + int(np.argmax(np.abs(np.gradient(delta, e))[1:-1]))

    def slope(energy: float) -> float:
        below, above = s_at([energy - half_step, energy + half_step])
        return abs(np.angle(above / below)) / (4.0 * half_step)

    best = minimize_scalar(lambda x: -slope(x), bounds=(e[peak - 1], e[peak + 1]), method="bounded",
                           options={"xatol": 1e-7})
    return float(best.x), -float(best.fun)


def greens_inverse(h_eff: np.ndarray, energy: float) -> np.ndarray:
    """Full interior resolvent (H_eff - E)^{-1} by direct inversion."""
    return np.linalg.inv(h_eff - energy * np.eye(h_eff.shape[0]))


# Eigenvalue spacing below which the minor-ratio resolvent formulas lose
# their partial-fraction denominators and direct inversion takes over.
_DEGENERACY_GAP = 1e-12


def _too_degenerate(eigenvalues: np.ndarray) -> bool:
    gaps = np.diff(np.sort(eigenvalues))
    return bool(gaps.size) and float(gaps.min()) < _DEGENERACY_GAP


def greens_diagonal_minor(h_eff: np.ndarray, index: int, energy: float) -> float:
    """Diagonal resolvent entry as a ratio of characteristic polynomials.

    G_ii(E) = prod_k (e'_k - E) / prod_k (e_k - E), where e' are the
    eigenvalues of the operator with row and column i deleted. They
    interlace the full spectrum, so pairing the factors in sorted order
    keeps every partial ratio moderate. Near-degenerate spectra fall back
    to direct inversion.
    """
    full = np.sort(np.linalg.eigvalsh(h_eff))
    if _too_degenerate(full):
        return float(greens_inverse(h_eff, energy)[index, index])
    deleted = np.delete(np.delete(h_eff, index, axis=0), index, axis=1)
    part = np.sort(np.linalg.eigvalsh(deleted))
    value = 1.0 / (full[-1] - energy)
    for k in range(part.size):
        value *= (part[k] - energy) / (full[k] - energy)
    return float(value)


def greens_offdiag_minor(h_eff: np.ndarray, row: int, col: int, energy: float) -> float:
    """Off-diagonal resolvent entry from cofactor minors at the poles.

    Partial fractions over the simple poles of the resolvent give

        G_ij(E) = (-1)^{i+j} sum_k M_ij(e_k) / [(e_k - E) prod_{m != k} (e_m - e_k)]

    with M_ij(z) the determinant of (H - z I) with row i and column j
    deleted. No eigenvectors are needed. Near-degenerate spectra fall
    back to direct inversion, where the pole expansion degrades.
    """
    eigenvalues = np.linalg.eigvalsh(h_eff)
    if _too_degenerate(eigenvalues):
        return float(greens_inverse(h_eff, energy)[row, col])
    size = h_eff.shape[0]
    total = 0.0
    for k in range(size):
        shifted = h_eff - eigenvalues[k] * np.eye(size)
        minor = np.delete(np.delete(shifted, row, axis=0), col, axis=1)
        gaps = np.delete(eigenvalues, k) - eigenvalues[k]
        total += np.linalg.det(minor) / ((eigenvalues[k] - energy) * np.prod(gaps))
    return float((-1) ** (row + col) * total)


def f_weight_analytic(n: int, ell: int, rows: int, cols: int) -> np.ndarray:
    """Closed-form F^(n,ell) block of shape (rows, cols).

    With sigma = n+1,

        F_ij = sqrt(i! j! (i+ell)! (j+ell)!) / sigma^{sigma ell + 1}
               * sum_{k=0}^{min(i,j)} sigma^{-2k} / ((ell+k)!)^2
                 * (k + sigma ell)! / (k! (i-k)! (j-k)!)
                 * 2F1(k-i, k+sigma ell+1; k+ell+1; 1/sigma)
                 * 2F1(k-j, k+sigma ell+1; k+ell+1; 1/sigma),

    with all factorial ratios taken through log-gamma. The terminating
    hypergeometric factors alternate in sign, so for very large indices
    the quadrature route is the better-conditioned reference.
    """
    if n < 1:
        raise ValueError("nonlinearity exponent n must be >= 1")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    sigma = n + 1
    out = np.empty((rows, cols))
    x = 1.0 / sigma
    for i in range(rows):
        for j in range(cols):
            logpref = 0.5 * (
                lgamma(i + 1) + lgamma(j + 1) + lgamma(i + ell + 1) + lgamma(j + ell + 1)
            ) - (sigma * ell + 1) * math.log(sigma)
            total = 0.0
            for k in range(min(i, j) + 1):
                logterm = (
                    -2 * k * math.log(sigma)
                    - 2 * lgamma(ell + k + 1)
                    + lgamma(k + sigma * ell + 1)
                    - lgamma(k + 1)
                    - lgamma(i - k + 1)
                    - lgamma(j - k + 1)
                )
                hyp = hyp2f1_terminating(k - i, k + sigma * ell + 1, k + ell + 1, x)
                hyp *= hyp2f1_terminating(k - j, k + sigma * ell + 1, k + ell + 1, x)
                total += math.exp(logpref + logterm) * hyp
            out[i, j] = total
    return out


def laguerre_normalized(k: int, ell: int, x):
    """Normalized Laguerre polynomial L~_k^ell(x), the last iterate of `laguerre_upward`."""
    x = np.asarray(x, dtype=float)
    *_, last = laguerre_upward(k, ell, x)
    return last[-1].copy() if x.ndim else float(last[-1])


def laguerre_streamed(kmax: int, ell: int, x, first=1.0):
    """Yield first * L~_k^ell(x), k = 0..kmax, one new array per degree from the plain expression."""
    diag, off = jacobi_coefficients(kmax, ell)
    prev, p, link = 0.0, first, 0.0
    yield p
    for d, o in zip(diag[:kmax].tolist(), off[:kmax].tolist()):
        prev, p = p, ((d - x) * p - link * prev) / o
        link = o
        yield p


def chi_reconstruct_streamed(coefficients, ell: int, lam: float, r, basis: str = "oscillator"):
    """`reference.chi_reconstruct` as one running total: each filtered c_k phi_k is formed and added in turn."""
    coefficients = np.asarray(coefficients, dtype=float)
    size = coefficients.shape[-1]
    coefficients = coefficients * np.exp(-36.0 * (np.arange(size) / size) ** 16)
    r = np.asarray(r, dtype=float)
    if basis == "oscillator":
        x, order, norm = (lam * r) ** 2, ell, 0.5 * (math.log(2.0 * lam) - lgamma(ell + 1))
    else:
        x, order, norm = lam * r, 2 * ell, 0.5 * (math.log(lam) - lgamma(2 * ell + 1))
    phi0 = np.where(r > 0, np.exp(norm + (ell + 0.5) * np.log(np.maximum(lam * r, 1e-300)) - 0.5 * x), 0.0)
    terms = (np.multiply.outer(c, phi) for c, phi in zip(coefficients.T, laguerre_streamed(size - 1, order, x, phi0)))
    total = next(terms)
    for term in terms:
        total += term
    return total


def sine_like_closed_form(energy: float, lam: float, ell: int, degrees) -> np.ndarray:
    """Oscillator-basis sine-like coefficients alpha (-1)^k L~_k^ell(mu^2) at the given degrees.

    alpha = sqrt(2/(lam ell!)) mu^{ell+1/2} e^{-mu^2/2}; the sign flip
    absorbs the positive off-diagonal of the free matrix relative to the
    Jacobi convention. The package runs the free recursion from s_0 =
    alpha instead.
    """
    mu = math.sqrt(2.0 * energy) / lam
    mu2 = mu**2
    alpha = math.sqrt(2.0 / (lam * factorial(ell))) * mu ** (ell + 0.5) * math.exp(-0.5 * mu2)
    return np.array([alpha * (-1) ** k * laguerre_normalized(k, ell, mu2) for k in degrees])


def laguerre_associated_normalized(k: int, ell: int, x, j: int = 1):
    """Associated (abbreviated) normalized Laguerre polynomial L~_k^ell(x; j).

    Solves the same three-term recursion as the normalized family but with
    the coefficient index shifted by the association order j:

        sigma_{k+j} p_{k+1} = (x - eta_{k+j}) p_k - sigma_{k+j-1} p_{k-1},

    eta_k = 2k+ell+1, sigma_k = sqrt((k+1)(k+ell+1)), p_{-1} := 0, p_0 = 1.
    For j = 0 this reproduces (-1)^k L~_k^ell(x).

    Parameters
    ----------
    k : int
        Degree, >= -1 (k = -1 returns 0 by convention).
    ell : int
        Order, >= 0.
    x : float or ndarray
        Argument.
    j : int
        Association order, >= 0 (default 1, the case used by the
        cosine-like closed form).
    """
    if k < -1:
        raise ValueError("degree must be >= -1")
    if ell < 0 or j < 0:
        raise ValueError("order and association order must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == -1:
        z = np.zeros_like(x)
        return z if z.ndim else 0.0

    def eta(m):
        return 2 * m + ell + 1

    def sigma(m):
        return math.sqrt((m + 1) * (m + ell + 1))

    pm1 = np.zeros_like(x)
    p = np.ones_like(x)
    for m in range(k):
        pnew = ((x - eta(m + j)) * p - sigma(m + j - 1) * pm1) / sigma(m + j)
        pm1, p = p, pnew
    return p if p.ndim else float(p)


def exp_integral_ei_scalar(u: float) -> float:
    """Ei(u) by its series one term at a time, in the package's order of operations.

    gamma + ln u, then term *= u / m and total += term / m until a
    contribution falls below 1e-16 of the total. The package sums the
    series of a whole array at once; every element must stop where this
    loop stops, to the last bit.
    """
    total = np.euler_gamma + math.log(u)
    term, m = 1.0, 0
    while True:
        m += 1
        term *= u / m
        contrib = term / m
        total += contrib
        if contrib < 1e-16 * abs(total):
            return total


def oscillator_seeds_scalar(energy: float, lam: float, ell: int) -> tuple[float, float, float]:
    """s_0 = alpha, c_0 and tau of the oscillator reference pair at one energy, in scalar math.

    Term for term the package's order of operations, with `math.exp`,
    `math.log`, Python's `**` and the scalar Ei series. The package
    evaluates the seeds of a whole energy array at once and must match
    these to the last bit; numpy's exp, log and square do not.
    """
    mu = math.sqrt(2.0 * energy) / lam
    mu2, lg, sign = mu**2, lgamma(ell + 1), (1.0 if ell % 2 else -1.0)
    alpha = math.exp(0.5 * (math.log(2.0) - math.log(lam) - lg) + (ell + 0.5) * math.log(mu) - 0.5 * mu2)
    acc = sum(factorial(ell - 1 - m) * mu2**m for m in range(ell))
    finite = math.exp(mu2) * mu2 ** (-ell) * acc if ell else 0.0
    gamma = -sign / factorial(ell) * (finite - exp_integral_ei_scalar(mu2))
    c0 = sign / math.pi * math.exp(0.5 * (math.log(2.0) + lg - math.log(lam)) + (ell + 0.5) * math.log(mu) - 0.5 * mu2)
    tau = -(lam / math.pi) * math.exp(0.5 * (math.log(lam) + lg - math.log(2.0)) + (0.5 - ell) * math.log(mu) + 0.5 * mu2)
    return alpha, c0 * gamma, tau


def hyp2f1_terminating(a: int, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) for nonpositive integer a.

    The series terminates after |a|+1 terms and is summed exactly. Raises
    if c hits a nonpositive integer before the series terminates.
    """
    if a > 0 or a != int(a):
        raise ValueError("terminating 2F1 requires a nonpositive integer a")
    k = int(-a)
    if c <= 0 and c == int(c) and -int(c) < k:
        raise ValueError("c reaches a nonpositive integer inside the sum")
    total = 1.0
    term = 1.0
    for m in range(k):
        term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * x
        total += term
    return total


def gegenbauer(k: int, nu: float, x: float) -> float:
    """Gegenbauer polynomial C_k^nu(x) by its standard recursion (k = -1 gives 0)."""
    if k == -1:
        return 0.0
    if k < -1:
        raise ValueError("degree must be >= -1")
    pm1 = 0.0
    p = 1.0
    for m in range(k):
        pnew = (2 * (m + nu) * x * p - (m + 2 * nu - 1) * pm1) / (m + 1)
        pm1, p = p, pnew
    return p


def gegenbauer_associated(k: int, nu: float, x: float) -> float:
    """Associated Gegenbauer polynomial by the shifted recursion.

    2(k+nu+1) x C_k = (k+2) C_{k+1} + (k+2nu) C_{k-1}, with C_{-1} = 0,
    C_0 = 1 (hence C_1 = (nu+1)x).
    """
    if k == -1:
        return 0.0
    if k < -1:
        raise ValueError("degree must be >= -1")
    pm1 = 0.0
    p = 1.0
    for m in range(k):
        pnew = (2 * (m + nu + 1) * x * p - (m + 2 * nu) * pm1) / (m + 2)
        pm1, p = p, pnew
    return p


def gauss_rule_tridiagonal(order: int, ell: int) -> QuadratureRule:
    """`build_rule` through scipy's `eigh_tridiagonal` on the Jacobi bands.

    Same negated off-diagonal and the same sign fix, Lambda[0, l] >= 0,
    as the package, which diagonalizes the dense matrix instead.
    """
    diag, off = jacobi_coefficients(order - 1, ell)
    nodes, vecs = eigh_tridiagonal(diag, -off[:-1])
    vecs[:, vecs[0] < 0] *= -1.0
    return QuadratureRule(ell=ell, order=order, nodes=nodes, weights=vecs[0] ** 2, vectors=vecs)


def integrate_weighted(rule: QuadratureRule, fvals: np.ndarray):
    """Integrate f against the weight: sum_l weights[l] * fvals[..., l].

    `fvals` holds samples of f at `rule.nodes` along the last axis. Exact
    for polynomials of degree <= 2*order - 1.
    """
    fvals = np.asarray(fvals)
    if fvals.shape[-1] != rule.order:
        raise ValueError("sample axis does not match the quadrature order")
    return fvals @ rule.weights


def quadrature_values(rule: QuadratureRule, kmax: int) -> np.ndarray:
    """Rows 0..kmax of the bare node-value table L~_k^ell(nodes), no envelope.

    One plain recursion step per degree (`laguerre_streamed`), not the
    package's blocked recursion. Bare values grow like nodes^k / k!, so
    this serves the small rules of the tensor oracles, not deep tails.
    """
    return np.array([np.broadcast_to(p, rule.nodes.shape) for p in laguerre_streamed(kmax, rule.ell, rule.nodes)])
