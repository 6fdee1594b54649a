"""Chebyshev-style polynomials T_k and closed-form routes for the h_k
sequence.

T_k is defined by T_0 = 2, T_1 = x and x*T_k = T_{k+1} + T_{k-1}; it is
twice the classical first-kind Chebyshev polynomial under x -> x/2, and
satisfies T_k(y + 1/y) = y^k + y^-k.

The h_k sequence (Maclaurin coefficients of the logarithmic derivative of
the rescaled xi function) admits two closed-form routes implemented here:
  * spectral -- from the scaled nontrivial spectrum via T_k sums,
  * from_ck  -- from exact closed-walk counts C_k via alternating binomial
    sums S_k, all K of them by two integer recurrences, one per parity of k
    (ck_alternating_sums), in integers up to the final division.  The census
    takes those sums to get N_k, and hk_excess reads them back from N_k.
A third route, the power series of Xi's log-derivative taken factor by
factor, lives in zetaxi.hk_series: it runs chebyshev_T_table on x read
back from Xi's rows, so it shares the spectral route's table and checks
how Xi is built, not the table's arithmetic.  Each route gives h_1..h_K
as a float64 array, h_k at index k-1.  The sign of h_k, and where it lies
against the cap and the Hasse-Weil bound, is decided from the same
integers, with no float (hk_excess).

The spectral route is the paper's N_k series of Z(u)^-1 less its exact
trivial terms, over q^(k/2): so both float routes check the census at
every k, against the one a-priori hk_spectral_budget.  Where q^(k/2) times
that budget is below 1/2, a census N_k one off moves from_ck outside it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Sequence

import numpy as np

from .spectral import eigenvalue_error


def binomial_ext(m: int, j: int) -> int:
    """Binomial coefficient with the conventions C(-1,-1) = 1 and
    C(m,-1) = 0 for m >= 0."""
    if j == -1:
        return 1 if m == -1 else 0
    if j < 0 or m < 0 or j > m:
        return 0
    return math.comb(m, j)


def tk_weight(k: int, i: int) -> int:
    """Integer weight C(k-i, i) + C(k-i-1, i-1) from the explicit expansion
    of T_k; tk_weight(0, 0) = 2 by the extended-binomial convention."""
    return binomial_ext(k - i, i) + binomial_ext(k - i - 1, i - 1)


def chebyshev_T(k: int, x: float) -> float:
    """T_k(x) by the forward three-term recurrence: row k of
    chebyshev_T_table, with T_0 = 2."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(chebyshev_T_table(k, [x])[k - 1, 0]) if k else 2.0


def chebyshev_T_binomial(k: int, x: float) -> float:
    """T_k(x) as the explicit alternating binomial sum
    sum_i (-1)^i (C(k-i,i) + C(k-i-1,i-1)) x^(k-2i)."""
    total = 0.0
    for i in range(k // 2 + 1):
        total += (-1) ** i * tk_weight(k, i) * x ** (k - 2 * i)
    return total


def chebyshev_T_even_form(k: int, x: float) -> float:
    """T_k(x) as 2 (x/2)^k sum_i C(k,2i) (1 - (x/2)^-2)^i, valid for x != 0."""
    if x == 0.0:
        raise ValueError("x must be nonzero")
    half = x / 2.0
    w = 1.0 - half ** -2
    total = sum(math.comb(k, 2 * i) * w ** i for i in range(k // 2 + 1))
    return 2.0 * half ** k * total


class HorizonOverflow(ValueError):
    """h_k, or a term the float routes sum for it, passes the double range
    at k, the first such k up to the horizon."""

    def __init__(self, k: int):
        super().__init__(f"h_{k} passes the double range; take a horizon below {k}")


def finite_h(h: np.ndarray) -> np.ndarray:
    """h_1..h_K as they are, or HorizonOverflow at the first that is not
    finite."""
    finite = np.isfinite(h)
    if not finite.all():
        raise HorizonOverflow(int(np.argmin(finite)) + 1)
    return h


def chebyshev_T_table(K: int, xs: np.ndarray) -> np.ndarray:
    """Matrix of T_k(x) values, shape (K, len(xs)), rows k = 1..K: the
    recurrence runs in the rows of a table that starts at T_0, two numpy
    calls per k."""
    xs = np.asarray(xs, dtype=np.float64)
    table = np.empty((K + 1, len(xs)))
    table[0] = 2.0
    table[1:2] = xs
    rows = list(table)
    for before, last, row in zip(rows, rows[1:], rows[2:]):
        np.multiply(xs, last, out=row)
        np.subtract(row, before, out=row)
    return table[1:]


@np.errstate(over="ignore", invalid="ignore")
def hk_spectral(scaled: np.ndarray, K: int, bipartite: bool) -> np.ndarray:
    """h_1..h_K, h_k = 2|Spec*| - sum of T_k over the scaled nontrivial
    spectrum.

    A bipartite graph's scaled nontrivial spectrum is +/-x, x its first
    half (NontrivialSpectrum), and T_k(-x) = (-1)^k T_k(x).  So odd h_k is
    exactly 2|Spec*| = 2(n-2), and h_2j = 2(n-2) - 2 sum T_j(x^2 - 2) by
    T_2j(x) = T_j(T_2(x)): one table of K/2 rows over n/2 - 1 values, with
    no +/- cancellation.  A table that passes the double range raises
    HorizonOverflow (finite_h), with no numpy warning.
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    m = len(scaled)
    if not bipartite:
        return finite_h(2.0 * m - chebyshev_T_table(K, scaled).sum(axis=1))
    half = scaled[:m // 2]
    values = np.full(K, 2.0 * m)
    values[1::2] -= 2.0 * chebyshev_T_table(K // 2, half * half - 2.0).sum(axis=1)
    return finite_h(values)


def ck_alternating_sums(c: Sequence[int], q: int, K: int) -> list[int]:
    """Exact integers S_1..S_K, S_k = sum_i (-q)^i (C(k-i,i) + C(k-i-1,i-1))
    C_{k-2i} over i = 0..floor(k/2), from C_0..C_K.

    The weights b(k, i) = (-q)^i tk_weight(k, i) are the coefficients of
    U_k(x) = q^(k/2) T_k(x / sqrt(q)) in x^(k-2i); two steps of U_k =
    x U_(k-1) - q U_(k-2) give U_k = (x^2 - 2q) U_(k-2) - q^2 U_(k-4).  So
    the partial sums D(k, j) = sum_i b(k, i) C_(j-2i) = D(k-2, j) -
    2q D(k-2, j-2) - q^2 D(k-4, j-4), and S_k = D(k, k).  Each parity of k
    is one chain, row k holding j = k, k+2, ..., K, from the seeds
    D(0, j) = 2 C_j and D(2, j) = C_j - 2q C_(j-2), or D(1, j) = C_j and
    D(3, j) = C_j - 3q C_(j-2).  No weight is formed and nothing divided.
    A chain whose counts are all 0 (the odd chain of a bipartite census) is
    skipped: its S_k are 0.
    """
    if len(c) < K + 1:
        raise ValueError(f"need C_0..C_{K}, got {len(c)} entries")
    c = [int(x) for x in c[:K + 1]]
    q2, qq = 2 * q, q * q
    sums = [0] * (K + 1)
    for k0, lead, first in ((0, 2, 2), (1, 1, 3)):
        counts = c[k0::2]
        if not any(counts):
            continue
        prev = [lead * x for x in counts]
        row = [a - first * q * b for a, b in zip(counts[1:], counts)]
        heads = [prev[0]]
        while row:
            heads.append(row[0])
            prev, row = row, [a - q2 * b - qq * d
                              for a, b, d in zip(row[1:], row, prev)]
        sums[k0::2] = heads
    return sums[1:]


def hk_base(n: int, bipartite: bool) -> int:
    """base = 2(n-1), or 2(n-2) for a bipartite graph, whose odd h_k are
    exactly base."""
    return 2 * (n - 2) if bipartite else 2 * (n - 1)


def hk_excess(nk: Sequence[int], q: int, n: int,
              bipartite: bool) -> dict[int, tuple[int, int]]:
    """(a_k, side) by k, for every k <= len(nk) whose h_k depends on the
    counts: h_k = base + a_k / q^(k/2), a_k = mult (q^k + 1) - S_k.

    S_k = N_k - n(q-1)[k even] is the alternating sum of C_0..C_k, and mult
    is 1, or 2 for a bipartite graph, whose odd k are skipped.  side says
    where h_k lies, by the one integer comparison a_k^2 > base^2 q^k: -1
    below 0, 1 above 2 base = analysis.hk_upper_bound, and 0 in [0, 2 base],
    which is the Hasse-Weil bound at k.
    """
    base2 = hk_base(n, bipartite) ** 2
    mult = step = 2 if bipartite else 1
    shift = n * (q - 1)
    excess = {}
    for k in range(step, len(nk) + 1, step):
        qk = q ** k
        a = mult * (qk + 1) - int(nk[k - 1]) + (0 if k % 2 else shift)
        excess[k] = (a, 0 if a * a <= base2 * qk else -1 if a < 0 else 1)
    return excess


def hk_from_ck(excess: dict[int, tuple[int, int]], q: int, n: int,
               bipartite: bool, K: int) -> np.ndarray:
    """h_1..h_K, h_k = base + a_k / q^(k/2), from the (a_k, side) pairs of
    hk_excess, which must reach the last k <= K that the counts decide.  The
    terms cancel to O(n), so they are never added in float: even k divides
    the integer base q^(k/2) + a_k by q^(k/2) once, which rounds correctly;
    odd k divides a_k by q^((k-1)/2), then by sqrt(q), and adds base: a few
    ulps of max(|h_k|, 4n).  An h_k past the double range raises
    HorizonOverflow at its k; at odd k, where a_k / q^((k-1)/2) alone
    passes it, h_k is base + a_k / q^((k+1)/2) * sqrt(q)."""
    last = K - K % 2 if bipartite else K
    if last and last not in excess:
        raise ValueError(f"no a_k at k={last} for the requested K={K}")
    base = hk_base(n, bipartite)
    values = np.full(K, float(base))
    for k, (a, _) in excess.items():
        if k > K:
            break
        half = q ** (k // 2)
        try:
            if k % 2 == 0:
                values[k - 1] = (base * half + a) / half
            else:
                values[k - 1] = base + a / half / math.sqrt(q)
        except OverflowError:
            h = math.inf
            if k % 2:
                with contextlib.suppress(OverflowError):
                    h = base + a / (half * q) * math.sqrt(q)
            if math.isinf(h):
                raise HorizonOverflow(k) from None
            values[k - 1] = h
    return values


def hk_spectral_budget(values: np.ndarray, q: int, n: int, h: np.ndarray,
                       bipartite: bool) -> np.ndarray:
    """A-priori bound on |hk_spectral - hk_from_ck| and |zetaxi.hk_series -
    hk_from_ck| at k = 1..len(h), for the nontrivial float64 eigenvalues
    `values` of a graph on n vertices, bipartite or not, and the from_ck h.

    Each x = lam/sqrt(q) enters T_k(x) = y^k + y^-k, x = y + 1/y.  With
    r = max(|y|, 1/|y|) (1 while |x| <= 2), |x| <= 2r, |T_k| <= 2 r^k and
    U_m = sum_(t=0..m) y^(2t-m) has |U_m| <= (m+1) r^m.  First order in
    eps = 2^-52:

    * Eigenvalues.  |lam~ - lam| <= spectral.eigenvalue_error, and
      lam/sqrt(q) rounds by eps |lam| <= eps (q+1) more, so dx =
      (n+1) eps (q+1)/sqrt(q); dT_k/dx = k U_(k-1), so T_k moves by at most
      k^2 r^(k-1) dx, r taken at |x~| + dx.
    * The table.  Step j of T_j = x T_(j-1) - T_(j-2) rounds a product and
      a difference, at most eps (|x T_(j-1)| + |T_(j-2)|) <= 6 eps r^j,
      which reaches T_k times U_(k-j): sum_(j=2..k) 6 eps r^j (k-j+1)
      r^(k-j) = 3k(k-1) eps r^k.  Off bipartite graphs, hk_series reads
      x = -c1/sqrt(q) from Xi's rows, scaled_spectrum's bit for bit.  The
      bipartite table T_j(y) at k = 2j, over the first half of the values
      and doubled exactly, takes 3j(j-1) eps r^k for its steps and
      j^2 r^(k-2) times the error of y: y = x^2 - 2 rounds by eps/2 (x^2 +
      |y|) <= 3 eps r^2 (|y| <= 2r^2), and hk_series's y = -c1/q =
      (sigma^2 - 2q)/q, rounded thrice, by eps/2 (x^2 + 2|y|) <= 4 eps r^2.
      That is 7j^2 - 3j <= 3k(k-1) in all, and sigma's error moves either
      y by 2x dx, as x^2 - 2.
    * The sum of at most n values T_k and its subtraction from 2|values|
      round by (n eps/2)(2 sum r^k) + (eps/2)(2n + 2 sum r^k).
    * hk_from_ck's divisions and its odd-k sqrt(q) and sum round by at most
      2.75 eps max(|h_k|, 4n), taken as 4.

    So |error| <= k^2 dx sum r_i^(k-1) + (3k(k-1) + n + 2) eps sum r_i^k
    + n eps, doubled for second-order terms, plus 4 eps max(|h_k|, 4n),
    which alone stays at a bipartite graph's odd k, where all three routes
    give 2(n-2) exactly.  One census N_k off by one moves h_k by q^(-k/2).
    """
    eps = float(np.finfo(np.float64).eps)
    root_q = math.sqrt(q)
    dx = (eigenvalue_error(n, q) + eps * (q + 1)) / root_q
    x = np.abs(values) / root_q + dx
    r = np.maximum(1.0, (x + np.sqrt(np.maximum(x * x - 4.0, 0.0))) / 2.0)
    k = np.arange(1.0, len(h) + 1.0)
    drift = r ** (k[:, None] - 1.0)
    table = 2.0 * (k * k * dx * drift.sum(axis=1) + n * eps
                   + (3.0 * k * (k - 1.0) + n + 2) * eps * (drift * r).sum(axis=1))
    if bipartite:
        table[0::2] = 0.0
    return table + 4.0 * eps * np.maximum(np.abs(h), 4.0 * n)


def max_route_deviation(seqs: Sequence[np.ndarray]) -> float:
    """Largest pairwise relative deviation between h-sequences of one
    horizon, where the relative scale at each k is max(1, |a_k|, |b_k|)."""
    worst = 0.0
    for a, b in itertools.combinations(seqs, 2):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / scale, initial=0.0)))
    return worst
