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
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial

import numpy as np

from jmscatter.linearize import _check_bound
from jmscatter.quadrature import QuadratureRule, build_jacobi

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
    vals = rule.values
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
    jac = build_jacobi(m, ell)
    jmat = np.diag(jac.diagonal)
    idx = np.arange(m - 1)
    jmat[idx, idx + 1] = jac.off_diagonal
    jmat[idx + 1, idx] = jac.off_diagonal

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
    vals = rule.values
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
