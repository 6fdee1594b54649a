"""Chebyshev-style polynomials T_k and closed-form routes for the h_k
sequence.

T_k is defined by T_0 = 2, T_1 = x and x*T_k = T_{k+1} + T_{k-1}; it is
twice the classical first-kind Chebyshev polynomial under x -> x/2, and
satisfies T_k(y + 1/y) = y^k + y^-k.

The h_k sequence (Maclaurin coefficients of the logarithmic derivative of
the rescaled xi function) admits two closed-form routes implemented here:
  * spectral -- from the scaled nontrivial spectrum via T_k sums,
  * from_ck  -- from exact closed-walk counts C_k via alternating binomial
    sums, in integers up to the final division.
A third, generic power-series route lives in zetaxi.log_series.  (A route
from the geodesic-cycle counts N_k would repeat from_ck: the census derives
N_k from C_k with the same alternating sum.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ROUTE_SPECTRAL = "spectral"
ROUTE_FROM_CK = "from_ck"
ROUTE_SERIES = "series"


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
    """T_k(x) by the forward three-term recurrence."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 2.0
    prev, cur = 2.0, float(x)
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


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


def chebyshev_T_table(K: int, xs: np.ndarray) -> np.ndarray:
    """Matrix of T_k(x) values, shape (K, len(xs)), rows k = 1..K."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty((K, len(xs)))
    prev = np.full(len(xs), 2.0)
    cur = xs.copy()
    for k in range(1, K + 1):
        out[k - 1] = cur
        prev, cur = cur, xs * cur - prev
    return out


@dataclass(frozen=True)
class HkSequence:
    """h_1..h_K with the route that produced it and the graph metadata the
    downstream checks need."""

    values: np.ndarray = field(repr=False)
    route: str
    q: int
    n: int
    bipartite: bool

    @property
    def horizon(self) -> int:
        return len(self.values)

    def h(self, k: int) -> float:
        """1-based accessor: h(1) is the first coefficient."""
        return float(self.values[k - 1])


def hk_spectral(scaled: np.ndarray, K: int, q: int, n: int,
                bipartite: bool) -> HkSequence:
    """h_k = 2|Spec*| - sum of T_k over the scaled nontrivial spectrum."""
    scaled = np.asarray(scaled, dtype=np.float64)
    m = len(scaled)
    table = chebyshev_T_table(K, scaled)
    values = 2.0 * m - table.sum(axis=1)
    return HkSequence(values=values, route=ROUTE_SPECTRAL, q=q, n=n,
                      bipartite=bipartite)


def ck_alternating_sum(c: Sequence[int], q: int, k: int) -> int:
    """Exact integer sum_i (-q)^i (C(k-i,i) + C(k-i-1,i-1)) C_{k-2i} over
    i = 0..floor(k/2)."""
    total = 0
    for i in range(k // 2 + 1):
        total += (-q) ** i * tk_weight(k, i) * int(c[k - 2 * i])
    return total


def hk_from_ck(c: Sequence[int], q: int, n: int, bipartite: bool,
               K: int) -> HkSequence:
    """h_k from exact closed-walk counts C_0..C_K.

    With S_k = ck_alternating_sum(c, q, k) and Q = q^(k/2), nonbipartite
    graphs have h_k = 2(n-1) + Q + 1/Q - S_k/Q.  Bipartite graphs have
    h_k = 2(n-2) for odd k (no count dependence at all) and
    2(n-2) + 2Q + 2/Q - S_k/Q for even k.  The terms cancel to O(n), so
    they are never added in float.  Even k forms the integer numerator over
    the integer Q and divides once, which rounds correctly.  Odd k divides
    the integer q^k + 1 - S_k by q^((k-1)/2), then by sqrt(q), and adds
    2(n-1): an error of a few ulps of max(|h_k|, 4n).
    """
    if len(c) < K + 1:
        raise ValueError(f"need C_0..C_{K}, got {len(c)} entries")
    base, mult = (2 * (n - 2), 2) if bipartite else (2 * (n - 1), 1)
    values = np.empty(K)
    for k in range(1, K + 1):
        if bipartite and k % 2 == 1:
            values[k - 1] = base
            continue
        s = ck_alternating_sum(c, q, k)
        half = q ** (k // 2)
        if k % 2 == 0:
            values[k - 1] = (base * half + mult * (half * half + 1) - s) / half
        else:
            values[k - 1] = base + (q ** k + 1 - s) / half / math.sqrt(q)
    return HkSequence(values=values, route=ROUTE_FROM_CK, q=q, n=n,
                      bipartite=bipartite)


def hk_nonneg(seq: HkSequence, tol: float = 1e-8) -> list[tuple[int, float, bool]]:
    """Per-k nonnegativity verdicts: h_k counts as nonnegative when it is
    >= -tol * max(1, ||h||_inf), so exact zeros pass."""
    scale = max(1.0, float(np.max(np.abs(seq.values))) if seq.horizon else 1.0)
    return [(k, float(seq.values[k - 1]), bool(seq.values[k - 1] >= -tol * scale))
            for k in range(1, seq.horizon + 1)]


def max_route_deviation(seqs: Sequence[HkSequence], K: int | None = None) -> float:
    """Largest pairwise relative deviation between h-sequences, where the
    relative scale at each k is max(1, |a_k|, |b_k|)."""
    worst = 0.0
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            a, b = seqs[i].values, seqs[j].values
            upto = min(len(a), len(b)) if K is None else min(K, len(a), len(b))
            av, bv = a[:upto], b[:upto]
            scale = np.maximum(1.0, np.maximum(np.abs(av), np.abs(bv)))
            worst = max(worst, float(np.max(np.abs(av - bv) / scale)) if upto else 0.0)
    return worst
