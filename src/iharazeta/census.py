"""Exact integer counting of closed walks (C_k) and geodesic cycles (N_k).

C_k is the trace of the k-th adjacency power; N_k counts closed oriented-edge
sequences all of whose cyclic shifts are backtrack-free.  Both grow like
(q+1)^k, so the traces are computed modulo 26-bit primes, all stacked in
one float64 array with one exact GEMM per power step (_recurrence_traces),
and the Chinese remainder theorem returns each as an exact Python integer.
Matrix powers run only up to min(K, s), s the size: the traces of an s x s
matrix are fixed by its first s.  Past s, Newton's identities turn them
into the exact integer characteristic polynomial chi, every division
checked, and the same identities run forward (power_sums) give each later
trace.

walk_plan alone plans the walk recurrence X_k = X_(k-1) A + w X_(k-2) for
the census (w = 0) and the operator traces (w = -q), once per graph object
and horizon, and Plan.traces() alone turns a plan into its K traces.  Given
one prime, a plan takes all K steps modulo it: report.analyze checks every
census N_k so, modulo CHECK_PRIME.  closed_walk_counts remains the general
route, for any graph, and characteristic gives chi_A itself.

Three exact routes to N_k are cross-checked in the test suite: a
brute-force enumeration, the traces of the non-backtracking operator
through its Ihara-Bass companion, and the census's own, which converts C_k
by nk_from_ck (two parity chains, the reference) up to that companion's
size 2s.  Past it build_census continues on the squarefree part r = chi /
gcd(chi, chi') (squarefree_part), of degree d, the number of distinct
eigenvalues: C_k by r's d-term recurrence from the plan's p_1..p_s, and
N_k - n(q-1)[k even], the power sums of the reciprocal roots of
zetaxi.bass_determinant(chi, q), by the 2d-term recurrence of
bass_determinant(r, q) from their first 2d values, which the parity chains
give.  That is exact: r vanishes at every eigenvalue, so its recurrence
holds for their power sums whatever the multiplicities, and
bass_determinant(r, q) likewise vanishes at every reciprocal root of
bass_determinant(chi, q).  The float h_k of hk.hk_spectral check the
census within hk.hk_spectral_budget.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Multigraph, adjacency_matrix
from .hk import ck_alternating_sums
from .zetaxi import bass_determinant

# residues live below these primes; products stay exact in float64 while
# the matrix's absolute column sums stay below COLUMN_SUM_LIMIT, and the
# power arrays are reduced before a GEMM could pass EXACT_LIMIT
PRIME_LIMIT = 2 ** 26
COLUMN_SUM_LIMIT = 2 ** 27
EXACT_LIMIT = 2 ** 52
BRUTE_FORCE_BUDGET = 10 ** 8
# the largest prime below 2^25, so below every census prime (all > 2^25)
CHECK_PRIME = 33554393
# the most bytes of a graph's plan (Plan.memory, 3 P s^2 8): 2^32 keeps
# cycle:4095 at K = 50 (P = 3, s = 4095, 1.2 GB) and hypercube:12 at K = 200
# (P = 30, s = 2048, 3.0 GB), and refuses circulant:4096:1,2048 at K = 200
# (P = 14, s = 4096, 5.6 GB); complete:200 at K = 200 takes 60 MB (P = 62)
MAX_PLAN_BYTES = 2 ** 32


class BruteForceBudgetExceeded(ValueError):
    """Enumeration would exceed the step budget; use the operator route."""


@dataclass(frozen=True)
class CycleCensus:
    """Exact sequences C_0..C_K and N_1..N_K."""

    c: tuple[int, ...]
    nk: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """X_k = X_(k-1) matrix + weight X_(k-2) for `steps` steps modulo the
    descending `primes`, for `horizon` traces; column_sum is the largest
    absolute one, and `half` marks a bipartite graph's Gram matrix."""

    matrix: np.ndarray
    weight: int
    steps: int
    primes: tuple[int, ...]
    column_sum: int
    horizon: int
    half: bool = False

    @property
    def work(self) -> int:
        """The cost model: steps x primes x s^3, s the companion size."""
        size = (2 if self.weight else 1) * len(self.matrix)
        return self.steps * len(self.primes) * size ** 3

    @property
    def memory(self) -> int:
        """The bytes of _recurrence_traces's three (P s, s) float64 stacks."""
        return 3 * len(self.primes) * len(self.matrix) ** 2 * 8

    @property
    def count(self) -> int:
        """The traces the plan's own matrix stands for: K/2 on a half plan."""
        return self.horizon // 2 if self.half else self.horizon

    def traces(self) -> list[int]:
        """The plan's `horizon` traces: _recurrence_traces, continued by
        extend_traces past `steps` (exact plans), and placed."""
        t = _recurrence_traces(self) if self.count else []
        return self.placed(t if self.count <= self.steps else extend_traces(t, self.count))

    def placed(self, t: list[int]) -> list[int]:
        """The plan's `count` values t as its `horizon` ones: on a half plan
        t_j at k = 2j as 2 t_j and every odd k 0, else t itself."""
        if not self.half:
            return t
        return [0 if k % 2 else 2 * t[k // 2 - 1] for k in range(1, self.horizon + 1)]


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
def _crt_basis(primes: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The product M of the primes and the CRT basis e_i = (M/p_i) *
    ((M/p_i)^-1 mod p_i), so that sum r_i e_i mod M is the integer that is
    r_i modulo every p_i."""
    modulus = math.prod(primes)
    return modulus, tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)


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
    """Traces of m^1..m^K, exact, for any square integer matrix m of size s:
    the first min(K, s) from matrix powers (_recurrence_traces at weight 0),
    and the rest from those by extend_traces."""
    return _plan(np.asarray(m), 0, K).traces()


def _plan(a: np.ndarray, weight: int, K: int, prime: int | None = None,
          half: bool = False) -> Plan:
    """The Plan of X_k = X_(k-1) a + weight X_(k-2) for K traces (K/2 steps
    on a half plan): all its steps modulo a given prime, or else at most s,
    s the companion size, and enough primes for their product to exceed
    twice the bound len(a) max B_k on tr(X_k), B_k = c B_(k-1) + |weight|
    B_(k-2) from B_(-1) = 0 and B_0 = 1, c the largest absolute column sum."""
    c, d = int(np.abs(a).sum(axis=0).max(initial=0)), abs(weight)
    if c + d >= COLUMN_SUM_LIMIT:
        raise ValueError(f"largest absolute column sum {c + d} of the matrix "
                         f"is not below 2^27; its powers cannot be taken "
                         f"exactly in float64 residues")
    count = K // 2 if half else K
    if prime:
        return Plan(a, weight, count, (prime,), c, K, half)
    steps = min(count, (2 if weight else 1) * len(a))
    bounds = [0, 1]  # B_(-1), B_0, ..., B_steps
    for _ in range(steps):
        bounds.append(c * bounds[-1] + d * bounds[-2])
    primes = (2 * len(a) * max(bounds)).bit_length() // 25 + 1
    return Plan(a, weight, steps, tuple(_largest_primes(primes)), c, K, half)


def _recurrence_traces(plan: Plan) -> list[int]:
    """tr(X_k) + weight tr(X_(k-2)) for k = 1..steps, where X_(-1) = 0,
    X_0 = I and X_k = X_(k-1) a + weight X_(k-2) for the plan's s x s
    integer matrix a: exact, or modulo the one prime of a check plan.

    The entries of X_k are bounded by B_k (_plan, with c and d = |weight|),
    so each tr(X_k) by s max B_k, and each is recovered by CRT from its
    residues modulo the plan's primes as the representative in (-M/2, M/2],
    M their product; the weighted sums are formed from those integers.
    X_k is kept modulo every prime at once: one (P*s) x s float64 array,
    multiplied by the unreduced a (one GEMM per k), plus weight X_(k-2),
    and reduced only now and then.

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
    loop tracks B and reduces X_(k-1), and X_(k-2) at a nonzero weight,
    before a step only when B_k would pass 2^52 (every 17 GEMMs for a 0/1
    matrix of column sum 3), and B falls back to 2^25 - 2.  Every diagonal
    (|x| <= 2^52) is reduced, and each trace sums s reduced values,
    exactly; the CRT accepts any representative.
    """
    a, weight, steps, primes = plan.matrix, plan.weight, plan.steps, plan.primes
    size, count, c, d = len(a), len(primes), plan.column_sum, abs(weight)
    reduced_bound = (primes[0] + 1) // 2
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
            if weight:
                _reduce(prev[0], column, inverse, out=buf[0])
                prev, buf = buf, prev
            prev_bound = cur_bound = reduced_bound
        np.matmul(cur[0], factor, out=buf[0])
        if weight:
            np.add(buf[0], np.multiply(prev[0], weight, out=prev[0]), out=buf[0])
        prev, cur, buf = cur, buf, prev
        prev_bound, cur_bound = cur_bound, c * cur_bound + d * prev_bound
        diagonals[k] = cur[1]
    diagonals = _reduce(diagonals, prime, prime_inverse, out=np.empty_like(diagonals))
    traces = _lift(diagonals.sum(axis=2).astype(np.int64).tolist(), primes)
    return [t + weight * u for t, u in zip(traces[1:], [0] + traces)]


def _lift(rows: Sequence[Sequence[int]], primes: tuple[int, ...]) -> list[int]:
    """Per row of residues modulo the primes, the integer in (-M/2, M/2]
    congruent to them, M the primes' product (CRT by _crt_basis)."""
    modulus, basis = _crt_basis(primes)
    values = [sum(map(operator.mul, residues, basis)) % modulus for residues in rows]
    return [v - modulus if 2 * v > modulus else v for v in values]


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


def power_sums(poly: Sequence[int], K: int, head: Sequence[int] = ()) -> list[int]:
    """p_1..p_K, p_k the sum of the k-th powers of the roots of the monic
    integer polynomial poly = [1, a_1, ..., a_s], x^s + a_1 x^(s-1) + ...,
    all exact: Newton's identities run forward, p_k = -(k a_k +
    sum_{i=1..k-1} a_i p_(k-i)) with a_i = 0 past s, so past s the
    Cayley-Hamilton recurrence p_k = -sum_{i=1..s} a_i p_(k-i).

    Given head = p_1..p_h, h >= s, the recurrence alone continues it: it
    holds for the power sums of any roots of poly, with any multiplicities.
    """
    a, recent = poly[1:], list(reversed(head))  # p_(k-1), p_(k-2), ..., p_1
    for k in range(len(head) + 1, K + 1):
        known = sum(map(operator.mul, a, recent))
        recent.insert(0, -known - (k * a[k - 1] if k <= len(a) else 0))
    return recent[::-1]


def _gcd_modulo(a: Sequence[int], b: Sequence[int], prime: int) -> list[int]:
    """The monic gcd of a and b modulo prime, by Euclid, a remainder one
    degree down (the usual case) in one pass; ValueError (from pow) when
    prime divides the leading coefficient of b."""
    a, b = [x % prime for x in a], [x % prime for x in b]
    while len(b) > 1:
        inverse = pow(b[0], -1, prime)
        if len(a) == len(b) + 1:  # a -= (f x + h) b
            f = a[0] * inverse % prime
            h = (a[1] - f * b[1]) * inverse % prime
            a = [(x - f * y - h * z) % prime for x, y, z in zip(a[2:], b[2:] + [0], b[1:])]
        while len(a) >= len(b):  # a -= f x^(len a - len b) b
            f = a[0] * inverse % prime
            a = [(x - f * y) % prime for x, y in zip(a[1:], b[1:])] + a[len(b):]
        while a and not a[0]:
            del a[0]
        a, b = b, a
    return [1] if b else [x * pow(a[0], -1, prime) % prime for x in a]


def _divide(a: Sequence[int], b: Sequence[int], prime: int = 0) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b, both descending; given a
    prime, the quotient's residues modulo it."""
    a, split = list(a), len(a) - len(b) + 1
    for i in range(split):
        a[i] = a[i] % prime if prime else a[i]
        a[i + 1:i + len(b)] = [x - a[i] * y for x, y in zip(a[i + 1:i + len(b)], b[1:])]
    return a[:split], a[split:]


def squarefree_part(chi: Sequence[int], radius: int) -> list[int]:
    """r = chi / gcd(chi, chi'), of degree d the number of distinct roots of
    the monic integer chi, all in |x| <= radius; or else chi.  The gcd
    modulo the largest prime (_largest_primes) is the test: 1 means
    squarefree.  Otherwise r, of coefficients at most C(d, j) radius^j, is
    lifted by CRT from enough primes, and kept only if it divides chi over Z
    and the quotient g divides chi': a root of multiplicity m is one of chi'
    m - 1 times, so then r vanishes at every root of chi.  That check, not
    the primes, makes r exact; a prime dividing a leading coefficient of
    chi' gives chi."""
    derivative = [(len(chi) - 1 - i) * x for i, x in enumerate(chi[:-1])]
    try:
        gcd = _gcd_modulo(chi, derivative, _largest_primes(1)[0])
        if len(gcd) == 1:
            return list(chi)
        count = (2 * (radius + 1) ** (len(chi) - len(gcd))).bit_length() // 25 + 1
        primes = tuple(_largest_primes(count))
        rows = [_divide(chi, _gcd_modulo(chi, derivative, p) if k else gcd, p)[0]
                for k, p in enumerate(primes)]
    except ValueError:
        return list(chi)
    r = _lift(list(zip(*rows)), primes)
    g, rest = _divide(chi, r)
    return list(chi) if any(rest) or any(_divide(derivative, g)[1]) else r


def extend_traces(head: Sequence[int], K: int) -> list[int]:
    """Traces p_1..p_K of an s x s integer matrix from its first s traces
    head = p_1..p_s, all exact Python integers: the power_sums of its
    characteristic_polynomial."""
    return power_sums(characteristic_polynomial(head), K)


def walk_plan(g: Multigraph, K: int, weight: int = 0,
              prime: int | None = None) -> Plan:
    """The one Plan (_plan) for tr(X_k) + w tr(X_(k-2)), k = 1..K, with
    X_k = X_(k-1) A + w X_(k-2) from X_(-1) = 0 and X_0 = I: at w = 0 the
    traces of A^k, at w = -q those of the Ihara-Bass companion [[A, -qI],
    [I, 0]], whose k-th power has top block row [X_k, -q X_(k-1)].

    X_k = V_k(A) with V_k = x V_(k-1) + w V_(k-2), odd for odd k, and
    V_k = (x^2 + 2w) V_(k-2) - w^2 V_(k-4).  So on a connected bipartite
    graph, where A^2 = diag(BB^T, B^TB), odd traces are 0 and the trace at
    k = 2j is 2 T_j, T_j those of the same recurrence on G + 2wI at weight
    -w^2, G = BB^T (the half plan, to K/2).  G's columns sum to (q+1)^2 at
    most and its diagonal is at least q+1, so c + d <= (q+1)q + |q+1+2w| +
    w^2, below 2^27 for q+1 <= 11585 at w = 0 and q <= 8191 at w = -q; past
    that, and off bipartite graphs, the plan runs on A.  G is one float64
    GEMM, exact as its entries are at most (q+1)^2; the copy keeps numpy
    from sending x @ x.T to BLAS syrk, whose first call raised the peak
    resident memory by about 0.2 MB (OpenBLAS 0.3.31).

    Plans are kept on g (Multigraph.plans), so a cost note and its census
    share one.  A plan past MAX_PLAN_BYTES is refused before any stack is.
    """
    key = (K, weight, prime)
    if key in g.plans:
        return g.plans[key]
    if K < 1:
        raise ValueError("horizon must be >= 1")
    a, parts, q = adjacency_matrix(g), g.bipartition, max(g.valencies) - 1
    if (parts is None or (q + 1) * q + abs(q + 1 + 2 * weight) + weight ** 2
            >= COLUMN_SUM_LIMIT):
        plan = _plan(a, weight, K, prime)
    else:
        rows = a[parts[0], :].astype(np.float64)
        gram = rows @ rows.T.copy() + 2 * weight * np.eye(len(rows))
        plan = _plan(gram.astype(np.int64), -weight ** 2, K, prime, half=True)
    if plan.memory > MAX_PLAN_BYTES:
        raise ValueError(f"the census to horizon {K} needs {plan.memory} bytes "
                         f"of power stacks, above the limit of {MAX_PLAN_BYTES}")
    g.plans[key] = plan
    return plan


def characteristic(g: Multigraph) -> list[int]:
    """The exact chi_A = [1, a_1, ..., a_n] of g's adjacency matrix, from
    its weight-0 walk_plan to horizon n: chi_G(x^2) on a half plan."""
    plan = walk_plan(g, g.n)
    chi = characteristic_polynomial(_recurrence_traces(plan))
    return [0 if i % 2 else chi[i // 2] for i in range(2 * len(chi) - 1)] if plan.half else chi


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
    """For each oriented edge e, the oriented edges f with origin(f) =
    terminus(e) and f != inverse(e).  Edge i = (u, v) of the sorted edge
    list owns oriented edges 2i (u -> v) and 2i + 1 (v -> u), so, with
    origin the flattened edge list, inverse(e) = e ^ 1 and terminus(e) =
    origin[e ^ 1]; a loop's two oriented edges share both ends."""
    origin = list(itertools.chain.from_iterable(g.edges))
    leaving: list[list[int]] = [[] for _ in range(g.n)]
    for e, x in enumerate(origin):
        leaving[x].append(e)
    return [[f for f in leaving[origin[e ^ 1]] if f != e ^ 1]
            for e in range(len(origin))]


def nonbacktracking_matrix(g: Multigraph) -> np.ndarray:
    """0/1 matrix over oriented edges; row sums equal q for a (q+1)-regular
    graph."""
    succ = nonbacktracking_successors(g)
    b = np.zeros((len(succ), len(succ)), dtype=np.int64)
    for e, followers in enumerate(succ):
        for f in followers:
            b[e, f] = 1
    return b


def geodesic_cycles_operator(g: Multigraph, K: int,
                             prime: int | None = None) -> list[int]:
    """N_1..N_K as traces of powers of the non-backtracking operator B, for
    a regular graph g (ValueError otherwise): exact integers, or, given a
    prime, integers congruent to them modulo that prime.

    Ihara-Bass (Bass 1992; Kotani-Sunada 2000) gives det(I - uB) =
    (1 - u^2)^(m-n) det(I - uM) with M = [[A, I - D], [I, 0]], D the
    diagonal of degrees.  Taking -log of both sides and comparing the
    coefficients of u^k/k, tr(B^k) = tr(M^k) + (m - n)(1 + (-1)^k), and on
    a (q+1)-regular graph I - D = -qI: tr(M^k) is walk_plan's at -q.
    """
    if len(set(g.valencies)) > 1:
        raise ValueError("the operator traces need a regular graph; "
                         f"valencies range over {min(g.valencies)}..{max(g.valencies)}")
    traces = walk_plan(g, K, 1 - g.valencies[0], prime).traces()
    return [t + (0 if k % 2 else 2 * (g.edge_count - g.n))
            for k, t in enumerate(traces, start=1)]


def brute_force_cost(g: Multigraph, k: int) -> int:
    q = max(g.valencies) - 1
    return 2 * g.edge_count * max(1, q) ** (k - 1)


def geodesic_cycles_bruteforce(g: Multigraph, k: int) -> int:
    """N_k by direct enumeration of oriented-edge sequences.

    Walks every non-backtracking sequence (e_1..e_k), accepting those that
    close up and whose wrap-around pair (e_k, e_1) is also backtrack-free.
    Cost is about 2m * q^(k-1) steps; refuses beyond BRUTE_FORCE_BUDGET.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if brute_force_cost(g, k) > BRUTE_FORCE_BUDGET:
        raise BruteForceBudgetExceeded(
            f"about {brute_force_cost(g, k):.2e} enumeration steps needed "
            f"(budget {BRUTE_FORCE_BUDGET:.0e}); use geodesic_cycles_operator instead")
    succ = nonbacktracking_successors(g)
    origin = list(itertools.chain.from_iterable(g.edges))  # as in succ
    terminus = [origin[e ^ 1] for e in range(len(origin))]
    count = 0

    def extend(first: int, e: int, depth: int) -> None:
        nonlocal count
        if depth == k:
            if terminus[e] == origin[first] and first != e ^ 1:
                count += 1
            return
        for f in succ[e]:
            extend(first, f, depth + 1)

    for e0 in range(len(origin)):
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
    """Exact census to horizon K: C_k as the traces of A^k (walk_plan at
    weight 0, at half size s on a connected bipartite graph's Gram matrix
    while q+1 <= 11585), and N_k from them.  By Ihara-Bass, N_k - n(q-1)[k
    even] are the power sums of the 2s reciprocal roots of bass_determinant
    (chi_A, q); on a half plan N_2j - n(q-1) = 2 p_j, p_j those of the
    determinant in v = u^2 from chi_G.  Past that size (K, or K/2, above
    2s) they, and C_k, continue on chi's squarefree part r, from the first
    2d sums the parity chains give; at or below it nk_from_ck is the
    cheaper."""
    plan = walk_plan(g, K)
    if plan.count <= 2 * len(plan.matrix):
        c = [g.n] + plan.traces()
        return CycleCensus(c=tuple(c), nk=nk_from_ck(c, q, g.n, K))
    head = _recurrence_traces(plan)
    r = squarefree_part(characteristic_polynomial(head), plan.column_sum)
    c = [g.n] + plan.placed(power_sums(r, plan.count, head))
    sums = ck_alternating_sums(c, q, (4 if plan.half else 2) * (len(r) - 1))
    nk = plan.placed(power_sums(bass_determinant(r, q, plan.half), plan.count,
                                [x // 2 for x in sums[1::2]] if plan.half else sums))
    return CycleCensus(c=tuple(c), nk=tuple(t + (0 if k % 2 else g.n * (q - 1))
                                            for k, t in enumerate(nk, start=1)))
