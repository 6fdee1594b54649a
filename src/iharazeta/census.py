"""Exact integer counting of closed walks (C_k) and geodesic cycles (N_k).

C_k is the trace of the k-th adjacency power; N_k counts closed oriented-edge
sequences all of whose cyclic shifts are backtrack-free.  Both grow like
(q+1)^k, so the traces are computed modulo word-size primes and
reconstructed exactly.  Matrix powers run only up to min(K, size): the
traces of an s x s matrix are fixed by its first s.  The powers are kept
modulo 26-bit primes, all primes stacked in one float64 array, and each
power step is one float64 GEMM.  The array is reduced, exactly, by
x - p * rint(x * (1/p)), and only when a tracked bound on its entries says
the next GEMM could pass 2^52; each trace is taken from the reduced
diagonal.  With column sums below 2^27 every product and partial sum is an
integer below 2^52, which float64 holds exactly.  Enough primes are taken
for their product to exceed twice the a-priori bound size * c^min(K, size)
on those traces (c the largest absolute column sum), and the Chinese
remainder theorem returns each as an exact Python integer.  Past the
size, Newton's identities turn the first s traces into the exact integer
characteristic polynomial, every division checked to be exact, and
Cayley-Hamilton gives each later trace as an integer recurrence.

A bipartite graph takes a half-size matrix.  With the vertices ordered by
colour class, A = [[0, B], [B^T, 0]] for the biadjacency block B, so
A^2 = diag(BB^T, B^TB) and tr((B^TB)^j) = tr((BB^T)^j): C_2j = 2 tr(G^j)
for the n/2 x n/2 Gram matrix G = BB^T, and every odd C_k is 0.  The engine
powers G to min(K/2, n/2) with primes for 2 (n/2) ((q+1)^2)^min(K/2, n/2),
and the recurrence past n/2 has order n/2.  G's column sums are (q+1)^2,
which must stay below 2^27: q+1 <= 11585.  closed_walk_counts remains the
general route tr(A^k), for every graph.

Three exact routes to N_k are cross-checked in the test suite: a
brute-force enumeration, the traces of the non-backtracking operator
(through the n-wide top block row of its 2n x 2n Ihara-Bass companion, on
the same engine; n/2-wide on the Gram matrix for a bipartite regular
graph), and an exact conversion from C_k (two parity chains).  The float
h_k of hk.hk_spectral check the census against the spectrum within
hk.hk_spectral_budget.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Multigraph, adjacency_matrix
from .hk import ck_alternating_sums

# residues live below these primes; products stay exact in float64 while
# the matrix's absolute column sums stay below COLUMN_SUM_LIMIT, and the
# power arrays are reduced before a GEMM could pass EXACT_LIMIT
PRIME_LIMIT = 2 ** 26
COLUMN_SUM_LIMIT = 2 ** 27
EXACT_LIMIT = 2 ** 52
BRUTE_FORCE_BUDGET = 10 ** 8


class BruteForceBudgetExceeded(RuntimeError):
    """Enumeration would exceed the step budget; use the operator route."""


@dataclass(frozen=True)
class CycleCensus:
    """Exact sequences C_0..C_K and N_1..N_K."""

    c: tuple[int, ...]
    nk: tuple[int, ...]
    horizon: int


# the largest primes below PRIME_LIMIT, descending; _largest_primes extends
# it under the lock, so that two threads never append the same prime
_PRIMES: list[int] = []
_PRIMES_LOCK = threading.Lock()


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for m < 3 215 031 751, where the bases 2,
    3, 5 and 7 admit no strong pseudoprime (PRIME_LIMIT is far below)."""
    if m < 11:
        return m in (2, 3, 5, 7)
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _largest_primes(count: int) -> list[int]:
    """The `count` largest primes below PRIME_LIMIT, descending."""
    with _PRIMES_LOCK:
        candidate = (_PRIMES[-1] if _PRIMES else PRIME_LIMIT + 1) - 2
        while len(_PRIMES) < count:
            if _is_prime(candidate):
                _PRIMES.append(candidate)
            candidate -= 2
        return _PRIMES[:count]


@functools.cache
def _crt_basis(count: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The `count` largest primes below 2^26, their product M, and the CRT
    basis e_i = (M/p_i) * ((M/p_i)^-1 mod p_i), so that sum r_i e_i mod M is
    the integer that is r_i modulo every p_i."""
    primes = _largest_primes(count)
    modulus = math.prod(primes)
    basis = tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)
    return tuple(primes), modulus, basis


def _reduce(x: np.ndarray, prime: np.ndarray, inverse: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """out = x - prime * rint(x * inverse), a representative of x modulo
    prime, written without temporaries; exact under the conditions given in
    _recurrence_traces.  out must not overlap x: x is read after out is
    written, so an aliased call would return zeros (ValueError)."""
    if np.may_share_memory(x, out):
        raise ValueError("_reduce cannot write its result over its input")
    np.multiply(x, inverse, out=out)
    np.rint(out, out=out)
    np.multiply(out, prime, out=out)
    return np.subtract(x, out, out=out)


def integer_power_traces(m: np.ndarray, K: int) -> list[int]:
    """Traces of m^1..m^K, exact, for any square integer matrix m of size s.

    The first min(K, s) come from matrix powers (_recurrence_traces with no
    weights); the traces past s follow exactly from the first s
    (`extend_traces`).
    """
    return _traces(np.asarray(m), None, K, len(m))


def _traces(a: np.ndarray, weight: np.ndarray | None, K: int,
            size: int) -> list[int]:
    """The first K traces of _recurrence_traces(a, weight, .), which are
    those of the powers of an integer matrix of the given size: the
    recurrence runs min(K, size) steps and extend_traces gives the rest."""
    if K < 1:
        return []
    out = _recurrence_traces(a, weight, min(K, size))
    return out if K <= size else extend_traces(out, K)


def _recurrence_traces(a: np.ndarray, weight: np.ndarray | None,
                       steps: int) -> list[int]:
    """tr(X_k) + tr(X_(k-2) W) for k = 1..steps, exact, where X_(-1) = 0,
    X_0 = I and X_k = X_(k-1) a + X_(k-2) W, for a square integer matrix a
    of size s and W = diag(weight), integers (None: W = 0, and the traces
    are those of a^k).

    With c the largest absolute column sum of a and d = max |weight|, the
    entries of X_k are bounded by B_k = c B_(k-1) + d B_(k-2) (B_(-1) = 0,
    B_0 = 1), so each trace by s (1 + d) max B_k, and they are recovered by
    CRT from their residues modulo primes whose product M exceeds twice
    that, taking the representative in (-M/2, M/2].  X_k is kept modulo
    every prime at once: one (P*s) x s float64 array, multiplied by the
    unreduced a (one GEMM per k), plus X_(k-2) with its columns scaled by
    the weights, and reduced only now and then.

    Exactness.  All values are integers held in float64, exact below 2^53.
    Every product and partial sum of a step is bounded by B_k too, so a step
    is exact in any summation order while B_k <= 2^52.  An integer x with
    |x| <= 2^52 is reduced modulo p by x - p * rint(x * fl(1/p)): the
    computed quotient y is within |x/p| * 2^-52 (1 + 2^-54) of x/p, so
    p * |y - x/p| <= 1 + 2^-54, |p * rint(y)| <= |x| + p/2 + 2 < 2^53 is
    exact, and the difference is an integer of magnitude at most
    p/2 + 1 + 2^-54, hence at most (p+1)/2 for odd p, and is exact too.
    The largest prime is 2^26 - 5, so a reduced array has entries at most
    2^25 - 2, and a step takes reduced arrays to at most
    (2^25 - 2)(c + d) < 2^52 while c + d < 2^27 (COLUMN_SUM_LIMIT).  The
    loop tracks B and reduces X_(k-1), and X_(k-2) when there are weights,
    before a step only when B_k would pass 2^52 (every 17 GEMMs for a 0/1
    matrix of column sum 3), and B falls back to 2^25 - 2.  Every diagonal
    (|x| <= 2^52) is reduced, each weighted diagonal entry of X_(k-2) W (at
    most (2^25 - 2) d < 2^52) is reduced again, and each trace sums at most
    2s reduced values, exactly; the CRT accepts any representative.
    """
    size, c = len(a), int(np.abs(a).sum(axis=0).max(initial=0))
    d = 0 if weight is None else int(np.abs(weight).max(initial=0))
    if c + d >= COLUMN_SUM_LIMIT:
        raise ValueError(f"largest absolute column sum {c + d} of the matrix "
                         f"is not below 2^27; its powers cannot be taken "
                         f"exactly in float64 residues (a bipartite census "
                         f"powers BB^T, whose column sums are (q+1)^2, so "
                         f"it needs q+1 <= 11585)")
    bounds = [0, 1]  # B_(-1), B_0, ..., B_steps
    for _ in range(steps):
        bounds.append(c * bounds[-1] + d * bounds[-2])
    primes, modulus, basis = _crt_basis(
        (2 * size * (1 + d) * max(bounds)).bit_length() // 25 + 1)
    count, reduced_bound = len(primes), (primes[0] + 1) // 2
    prime = np.array(primes, dtype=np.float64)[:, None]
    column = np.repeat(prime, size, axis=0)
    inverse, prime_inverse, factor = 1.0 / column, 1.0 / prime, a.astype(np.float64)
    # the three rotating arrays, each with its (count, size) diagonal view
    prev, cur, buf = ((x, x.reshape(count, size, size).diagonal(axis1=1, axis2=2))
                      for x in (np.zeros((count * size, size)),
                                np.tile(np.eye(size), (count, 1)),
                                np.empty((count * size, size))))
    diagonals = np.ones((steps + 1, count, size))  # row k: the diagonal of X_k
    prev_bound, cur_bound = 0, 1
    for k in range(1, steps + 1):
        if c * cur_bound + d * prev_bound > EXACT_LIMIT:
            _reduce(cur[0], column, inverse, out=buf[0])
            cur, buf = buf, cur
            if weight is not None:
                _reduce(prev[0], column, inverse, out=buf[0])
                prev, buf = buf, prev
            prev_bound = cur_bound = reduced_bound
        np.matmul(cur[0], factor, out=buf[0])
        if weight is not None:
            np.add(buf[0], np.multiply(prev[0], weight, out=prev[0]), out=buf[0])
        prev, cur, buf = cur, buf, prev
        prev_bound, cur_bound = cur_bound, c * cur_bound + d * prev_bound
        diagonals[k] = cur[1]
    diagonals = _reduce(diagonals, prime, prime_inverse, out=np.empty_like(diagonals))
    traces = diagonals[1:].sum(axis=2)
    if weight is not None:
        weighted = diagonals[:-2] * weight
        traces[1:] += _reduce(weighted, prime, prime_inverse,
                              out=np.empty_like(weighted)).sum(axis=2)
    out = []
    for residues in traces.astype(np.int64).tolist():
        value = sum(map(operator.mul, residues, basis)) % modulus
        out.append(value - modulus if 2 * value > modulus else value)
    return out


def characteristic_polynomial(head: Sequence[int]) -> list[int]:
    """The characteristic polynomial x^s + a_1 x^(s-1) + ... + a_s of an
    s x s integer matrix, as the exact integers [1, a_1, ..., a_s], from its
    first s traces head = p_1..p_s.

    a_i = (-1)^i e_i, with e_i the elementary symmetric functions of the
    eigenvalues, so Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1)
    e_(k-i) p_i read k a_k = -(p_k + sum_{i=1..k-1} a_i p_(k-i)).  The a_k
    are integers, so every division by k is exact; a remainder means a
    corrupt trace and raises ArithmeticError.
    """
    a: list[int] = []
    for k in range(1, len(head) + 1):
        known = sum(map(operator.mul, a, reversed(head[:k - 1])))
        ak, rem = divmod(-head[k - 1] - known, k)
        if rem:
            raise ArithmeticError(
                f"Newton's identities leave remainder {rem} at k={k}: the "
                f"traces p_1..p_{k} cannot come from an integer matrix")
        a.append(ak)
    return [1] + a


def extend_traces(head: Sequence[int], K: int) -> list[int]:
    """Traces p_1..p_K of an s x s integer matrix from its first s traces
    head = p_1..p_s, all exact Python integers: Cayley-Hamilton on its
    characteristic_polynomial gives p_k = -sum_{i=1..s} a_i p_(k-i) for
    k = s+1..K.
    """
    p = list(head)
    size = len(p)
    a = characteristic_polynomial(p)[1:]
    for k in range(size, K):
        p.append(-sum(map(operator.mul, a, reversed(p[k - size:k]))))
    return p


def _gram_traces(a: np.ndarray, part, K: int, shift: int = 0,
                 weight: np.ndarray | None = None, size: int = 0) -> list[int]:
    """0 at odd k and 2 T_j at k = 2j <= K, T_j the j-th of _traces(G -
    shift I, weight, ., size or that of G), for the n/2 x n/2 Gram matrix
    G = a[part] a[part]^T of a bipartite graph's colour class part: BB^T or
    B^TB, whose traces are equal.  One float64 GEMM, exact as its entries
    are at most (q+1)^2; the copy keeps numpy from sending x @ x.T to BLAS
    syrk, whose first call raised the peak resident memory by about 0.2 MB
    (OpenBLAS 0.3.31)."""
    rows = a[part, :].astype(np.float64)
    gram = (rows @ rows.T.copy() - shift * np.eye(len(rows))).astype(np.int64)
    half = _traces(gram, weight, K // 2, size or len(rows))
    return [0 if k % 2 else 2 * half[k // 2 - 1] for k in range(1, K + 1)]


def closed_walk_counts(g: Multigraph, K: int) -> list[int]:
    """C_0..C_K where C_k = trace(A^k) and C_0 = n, all exact: the general
    route, for any graph (build_census halves the matrix when the graph is
    bipartite)."""
    if K < 1:
        raise ValueError("horizon must be >= 1")
    return [g.n] + integer_power_traces(adjacency_matrix(g), K)


# ---------------------------------------------------------------------------
# non-backtracking (oriented-edge) operator

def nonbacktracking_successors(g: Multigraph) -> list[list[int]]:
    """For each oriented edge e, the oriented edges f with
    origin(f) = terminus(e) and f != inverse(e).  inverse(e) is e ^ 1."""
    out_edges: list[list[int]] = [[] for _ in range(g.n)]
    oriented = g.oriented_edges()
    for e in oriented:
        out_edges[e.origin].append(e.id)
    return [[f for f in out_edges[e.terminus] if f != e.id ^ 1] for e in oriented]


def nonbacktracking_matrix(g: Multigraph) -> np.ndarray:
    """0/1 matrix over oriented edges; row sums equal q for a (q+1)-regular
    graph."""
    succ = nonbacktracking_successors(g)
    size = g.oriented_edge_count
    b = np.zeros((size, size), dtype=np.int64)
    for e, followers in enumerate(succ):
        for f in followers:
            b[e, f] = 1
    return b


def geodesic_cycles_operator(g: Multigraph, K: int) -> list[int]:
    """N_1..N_K as traces of powers of the non-backtracking operator B,
    exact integers, taken on its 2n x 2n Ihara-Bass companion.

    Ihara-Bass (Bass 1992; Kotani-Sunada 2000) gives det(I - uB) =
    (1 - u^2)^(m-n) det(I - uM) with M = [[A, I - D], [I, 0]], D the
    diagonal of degrees.  Taking -log of both sides and comparing the
    coefficients of u^k/k, tr(B^k) = tr(M^k) + (m - n)(1 + (-1)^k).

    M is never formed.  The top block row of M^k is [X_k, X_(k-1)(I - D)],
    X_k = X_(k-1) A + X_(k-2)(I - D) from X_(-1) = 0 and X_0 = I, and its
    bottom block row is the top row of M^(k-1), so tr(M^k) = tr(X_k) +
    tr(X_(k-2)(I - D)): one n-wide GEMM and one column scaling per step, to
    min(K, 2n), and extend_traces past the size 2n of M.  D may be any
    diagonal of degrees.  Exactness is _recurrence_traces's argument with
    weights 1 - deg: entries of X_k at most B_k = c B_(k-1) + d B_(k-2), c
    the largest degree and d = max |1 - deg|, reduced before B_k passes 2^52.

    A connected bipartite (q+1)-regular graph runs at half size.  There
    I - D = -qI, so X_k = V_k(A) with V_k = x V_(k-1) - q V_(k-2): odd for
    odd k, where a bipartite spectrum gives tr(M^k) = 0, and for even k
    V_k = (x^2 - 2q) V_(k-2) - q^2 V_(k-4).  As A^2 = diag(BB^T, B^TB) has
    two equal-sized blocks of one spectrum, tr(M^2j) = 2 [tr Y_j -
    q^2 tr Y_(j-2)] with Y_j = Y_(j-1)(G - 2qI) - q^2 Y_(j-2), G the census's
    Gram matrix (_gram_traces): the engine with weights -q^2, to min(K/2, n)
    steps, and extend_traces past that companion's size n.  The engine needs
    c + d = 2q^2 + 2q - 1 below 2^27, q <= 8191; other graphs take the full
    size.
    """
    if K < 1:
        raise ValueError("horizon must be >= 1")
    a, q, parts = adjacency_matrix(g), g.valencies[0] - 1, g.bipartition
    if (parts is None or len(set(g.valencies)) > 1
            or 2 * q * (q + 1) > COLUMN_SUM_LIMIT):
        out = _traces(a, 1 - a.sum(axis=1), K, 2 * g.n)
    else:
        out = _gram_traces(a, parts[0], K, 2 * q, np.full(g.n // 2, -q * q), g.n)
    excess = g.edge_count - g.n
    return [t + (2 * excess if k % 2 == 0 else 0)
            for k, t in enumerate(out, start=1)]


def brute_force_cost(g: Multigraph, k: int) -> int:
    q = max(g.valencies) - 1
    return g.oriented_edge_count * max(1, q) ** (k - 1)


def geodesic_cycles_bruteforce(g: Multigraph, k: int,
                               budget: int = BRUTE_FORCE_BUDGET) -> int:
    """N_k by direct enumeration of oriented-edge sequences.

    Walks every non-backtracking sequence (e_1..e_k), accepting those that
    close up and whose wrap-around pair (e_k, e_1) is also backtrack-free.
    Cost is about 2m * q^(k-1) steps; refuses beyond the budget.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if brute_force_cost(g, k) > budget:
        raise BruteForceBudgetExceeded(
            f"about {brute_force_cost(g, k):.2e} enumeration steps needed "
            f"(budget {budget:.0e}); use geodesic_cycles_operator instead")
    succ = nonbacktracking_successors(g)
    oriented = g.oriented_edges()
    origin = [e.origin for e in oriented]
    terminus = [e.terminus for e in oriented]
    count = 0

    def extend(first: int, e: int, depth: int) -> None:
        nonlocal count
        if depth == k:
            if terminus[e] == origin[first] and first != e ^ 1:
                count += 1
            return
        for f in succ[e]:
            extend(first, f, depth + 1)

    for e0 in range(g.oriented_edge_count):
        extend(e0, e0, 1)
    return count


# ---------------------------------------------------------------------------
# conversions

def nk_from_ck(c: Sequence[int], q: int, n: int, K: int) -> tuple[int, ...]:
    """Exact N_1..N_K from the closed-walk counts C_0..C_K.

    N_k = sum_i (-q)^i (C(k-i,i) + C(k-i-1,i-1)) C_{k-2i}, plus n(q-1) when
    k is even; the sum runs to (k-1)/2 for odd k and k/2 for even k.
    """
    return tuple(s + (n * (q - 1) if k % 2 == 0 else 0)
                 for k, s in enumerate(ck_alternating_sums(c, q, K), start=1))


def build_census(g: Multigraph, q: int, K: int) -> CycleCensus:
    """Exact census to horizon K: C_k by matrix powers and, past the matrix
    size, the Cayley-Hamilton recurrence; N_k by the exact conversion from
    C_k.

    A nonbipartite graph powers A itself (closed_walk_counts).  A connected
    bipartite graph (g.bipartition) powers the n/2 x n/2 Gram matrix
    G = BB^T of its biadjacency block B = A[part0, part1] (_gram_traces):
    C_2j = 2 tr(G^j) and odd C_k = 0.  The engine bounds tr(G^j) by
    (n/2) ((q+1)^2)^j and takes primes for twice that bound at
    j = min(K/2, n/2).  G's column sums
    are (q+1)^2, which the engine requires below 2^27 (COLUMN_SUM_LIMIT), so
    a bipartite census needs q+1 <= 11585 and raises ValueError past it.
    """
    if K < 1:
        raise ValueError("horizon must be >= 1")
    parts = g.bipartition
    if parts is None:
        c = closed_walk_counts(g, K)
    else:
        c = [g.n] + _gram_traces(adjacency_matrix(g), parts[0], K)
    return CycleCensus(c=tuple(c), nk=nk_from_ck(c, q, g.n, K), horizon=K)
