"""Exact integer counting of closed walks (C_k) and geodesic cycles (N_k).

C_k is the trace of the k-th adjacency power; N_k counts closed oriented-edge
sequences all of whose cyclic shifts are backtrack-free.  Both grow like
(q+1)^k, so everything here runs in exact arbitrary-precision integers:
matrix powers use int64 while entries provably fit and switch to Python
integers (object dtype) beyond that.

Four independent routes to N_k coexist and are cross-checked in the test
suite: a definition-level brute-force enumeration, the trace of the
non-backtracking edge operator, an exact conversion from the C_k sequence,
and a floating-point evaluation from the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Multigraph, adjacency_matrix
from .hk import chebyshev_T_table, ck_alternating_sum
from .spectral import Spectrum

INT64_SAFE = 2 ** 62
BRUTE_FORCE_BUDGET = 10 ** 8


class BruteForceBudgetExceeded(RuntimeError):
    """Enumeration would exceed the step budget; use the operator route."""


class RoundingResidualTooLarge(RuntimeError):
    """A spectral N_k evaluation landed too far from an integer, signalling
    eigensolver inaccuracy."""


@dataclass(frozen=True)
class CycleCensus:
    """Exact sequences C_0..C_K and N_1..N_K."""

    c: tuple[int, ...]
    nk: tuple[int, ...]
    horizon: int


def integer_power_traces(m: np.ndarray, K: int,
                         int64_limit: int = INT64_SAFE) -> list[int]:
    """Traces of m^1..m^K in exact integer arithmetic.

    Multiplies in int64 while a running bound on the largest entry stays
    under int64_limit, then switches to object dtype (Python integers).
    The bound is max|entry| times the largest absolute column sum per
    multiplication, so no int64 product can ever overflow silently.
    """
    base64 = np.asarray(m, dtype=np.int64)
    base_obj = base64.astype(object)
    colsum = int(np.abs(base64).sum(axis=0).max()) if base64.size else 0
    bound = int(np.abs(base64).max()) if base64.size else 0
    traces: list[int] = []
    cur: np.ndarray = base64.copy()
    exact_mode = bound >= int64_limit
    if exact_mode:
        cur = cur.astype(object)
    for k in range(1, K + 1):
        if k > 1:
            if not exact_mode:
                bound *= max(colsum, 1)
                if bound >= int64_limit:
                    exact_mode = True
                    cur = cur.astype(object)
            if exact_mode:
                cur = np.dot(cur, base_obj)
            else:
                cur = cur @ base64
        traces.append(sum(int(x) for x in np.diagonal(cur)))
    return traces


def closed_walk_counts(g: Multigraph, K: int) -> list[int]:
    """C_0..C_K where C_k = trace(A^k) and C_0 = n, all exact."""
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
    """N_1..N_K as traces of powers of the non-backtracking operator,
    exact integers."""
    if K < 1:
        raise ValueError("horizon must be >= 1")
    return integer_power_traces(nonbacktracking_matrix(g), K)


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

def nk_from_ck(c: Sequence[int], q: int, n: int, k: int) -> int:
    """Exact N_k from the closed-walk counts C_0..C_k.

    N_k = sum_i (-q)^i (C(k-i,i) + C(k-i-1,i-1)) C_{k-2i}, plus n(q-1) when
    k is even; the sum runs to (k-1)/2 for odd k and k/2 for even k.
    """
    if len(c) < k + 1:
        raise ValueError(f"need C_0..C_{k}, got {len(c)} entries")
    total = ck_alternating_sum(c, q, k)
    if k % 2 == 0:
        total += n * (q - 1)
    return total


def nk_from_spectrum(s: Spectrum, q: int, n: int, k: int) -> float:
    """Floating-point N_k from the full spectrum:
    q^(k/2) * sum of T_k over the scaled spectrum, plus n(q-1) for even k."""
    scaled = s.as_array() / math.sqrt(q)
    tk_sum = float(chebyshev_T_table(k, scaled)[k - 1].sum())
    value = q ** (k / 2.0) * tk_sum
    if k % 2 == 0:
        value += n * (q - 1)
    return value


def nk_from_spectrum_rounded(s: Spectrum, q: int, n: int, k: int,
                             tol: float = 1e-6) -> int:
    """Round the spectral N_k evaluation to the nearest integer, requiring
    the residual to stay below tol * max(1, N_k)."""
    value = nk_from_spectrum(s, q, n, k)
    nearest = round(value)
    if abs(value - nearest) >= tol * max(1.0, abs(nearest)):
        raise RoundingResidualTooLarge(
            f"N_{k} evaluated to {value!r}, residual "
            f"{abs(value - nearest):.3e} exceeds tolerance")
    return int(nearest)


def build_census(g: Multigraph, q: int, K: int) -> CycleCensus:
    """Exact census to horizon K: C_k by matrix powers, N_k by the exact
    conversion from C_k."""
    c = closed_walk_counts(g, K)
    nk = tuple(nk_from_ck(c, q, g.n, k) for k in range(1, K + 1))
    return CycleCensus(c=tuple(c), nk=nk, horizon=K)
