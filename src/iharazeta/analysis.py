"""Certify or refute the Ramanujan property and run the associated bounds.

A connected (q+1)-regular graph is Ramanujan when every nontrivial eigenvalue
has |lam| <= 2*sqrt(q).  Equivalently the h_k sequence is nonnegative for all
k; a single negative coefficient refutes, while a finite nonnegative scan
only certifies consistency up to its horizon.  Further routes implemented
here: the even-k eigenvalue bound implied by a single nonnegative even h_k,
the Hasse-Weil-style two-sided bounds on geodesic-cycle counts, and the
dominant-eigenvalue estimator from the tail ratio of negative even h_k.
Each verdict, and the estimate, is returned as the plain dict that the
analyze report prints.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hk import hk_base
from .spectral import NontrivialSpectrum, eigenvalue_error


class DomainError(ValueError):
    """Parameters outside the domain where a bound is defined."""


def within_bound(max_abs: float, bound: float, n: int, q: int) -> bool:
    """max_abs, a float max |lam| of a (q+1)-regular graph on n vertices,
    within bound plus 4 ulps (its rounding) and eigenvalue_error(n, q)."""
    return bool(max_abs <= bound + 4.0 * math.ulp(bound) + eigenvalue_error(n, q))


def ramanujan_spectral(ns: NontrivialSpectrum, q: int) -> dict:
    """Direct check: max |lam| over the nontrivial spectrum within_bound of
    2*sqrt(q) on n = len(ns) + 1 vertices (+ 2 bipartite); the witness is
    the worst eigenvalue of a refuted graph."""
    threshold = 2.0 * math.sqrt(q)
    worst = float(ns.values[np.argmax(np.abs(ns.values))]) if len(ns) else 0.0
    ok = within_bound(abs(worst), threshold, len(ns) + (2 if ns.bipartite else 1), q)
    return {"is_ramanujan": ok, "max_nontrivial_abs": abs(worst),
            "threshold": threshold, "witness": None if ok else worst}


def ramanujan_hk(excess: dict[int, tuple[int, int]], K: int) -> dict:
    """Exact sign scan of h_1..h_K from the (a_k, side) pairs of hk_excess
    to horizon K: the first negative h_k refutes, and its k is the witness;
    a clean scan is consistency up to K, never a certificate."""
    witness = next((k for k, (_, side) in excess.items() if side < 0), None)
    return {"is_ramanujan": witness is None, "horizon": K, "witness": witness}


def _bound_for_size(size: int, k: int) -> float:
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    if size < 1:
        raise ValueError("multiset must be nonempty")
    return 1.0 + (4.0 * size - 3.0) ** (1.0 / k)


def multiset_bound(S: Sequence[float], k: int) -> float:
    """Bound 1 + (4|S| - 3)^(1/k) on every |s| in a real multiset S whose
    mean T_k value is at most 2, for positive even k."""
    return _bound_for_size(len(S), k)


def even_k_bound(k: int, n: int, q: int, bipartite: bool) -> float:
    """Eigenvalue bound implied by h_k >= 0 for a single positive even k.

    The multiset bound applied to the scaled nontrivial spectrum (size n-1)
    gives (1 + (4n-7)^(1/k)) * sqrt(q); for a bipartite graph the spectrum
    is symmetric and the bound uses the positive half plus half the zeros
    (size (n-2)/2), giving (1 + (2n-7)^(1/k)) * sqrt(q).  Bipartite n <= 3
    is outside the bound's domain.
    """
    if bipartite and n < 4:
        raise DomainError(f"bound undefined for bipartite graphs with n={n}")
    return _bound_for_size((n - 2) // 2 if bipartite else n - 1, k) * math.sqrt(q)


def even_k_bounds(excess: dict[int, tuple[int, int]], n: int, q: int,
                  bipartite: bool, max_abs: float) -> list[dict]:
    """even_k_bound at every even k whose h_k >= 0 by the (a_k, side) pairs
    of hk_excess, each against max_abs, the largest nontrivial float |lam|,
    by within_bound.  A connected regular bipartite graph has n even and
    n >= 4, so every accepted graph is inside the bound's domain."""
    bounds = []
    for k, (_, side) in excess.items():
        if k % 2 == 0 and side >= 0:
            bound = even_k_bound(k, n, q, bipartite)
            bounds.append({"k": k, "bound": bound,
                           "satisfied": within_bound(max_abs, bound, n, q)})
    return bounds


def hasse_weil_check(excess: dict[int, tuple[int, int]], q: int, n: int,
                     bipartite: bool) -> dict:
    """Two-sided bounds on N_k, one record per (a_k, side) pair of
    hk_excess.

    Nonbipartite: |N_k - q^k - 1| <= 2(n-1) q^(k/2), with the main term
    shifted by n(q-1) for even k.  Bipartite: even k only,
    |N_k - n(q-1) - 2q^k - 2| <= 2(n-2) q^(k/2).  The left side is |a_k|,
    and the bound is 0 <= h_k <= 2 base, which side decides in integers;
    lhs is written as a decimal string and rhs as a float, inf (written
    null) past the double range.
    """
    base = hk_base(n, bipartite)

    def rhs(k: int) -> float:
        try:
            return float(base) * float(q ** (k // 2)) * (math.sqrt(q) if k % 2 else 1.0)
        except OverflowError:
            return math.inf

    records = [{"k": k, "lhs": str(abs(a)), "satisfied": side == 0, "rhs": rhs(k)}
               for k, (a, side) in excess.items()]
    first = next((r["k"] for r in records if not r["satisfied"]), None)
    return {"branch": "bipartite" if bipartite else "nonbipartite",
            "all_satisfied": first is None, "first_violation_k": first,
            "records": records}


def hk_upper_bound(n: int, bipartite: bool) -> int:
    """The cap 2 base on every h_k of a Ramanujan graph: 4(n-1), or 4(n-2)
    when bipartite."""
    return 2 * hk_base(n, bipartite)


def hk_upper_check(excess: dict[int, tuple[int, int]]) -> bool:
    """Every h_k within hk_upper_bound, read exactly from the (a_k, side)
    pairs of hk_excess."""
    return all(side <= 0 for _, side in excess.values())


def estimate_max_eigenvalue(h: np.ndarray, q: int) -> dict:
    """Estimate q^(-1/2) * max|lam| from the tail of negative even h_k, h_k
    at h[k-1].

    For a non-Ramanujan graph, h_2k behaves like -m*mu^(2k), so
    sqrt(h_{2k+2}/h_{2k}) + sqrt(h_{2k}/h_{2k+2}) converges to mu + 1/mu,
    the largest scaled eigenvalue magnitude.  Uses the deepest usable pair
    of adjacent negative even entries, k_used; converged means the previous
    pair agrees within 1e-4, a reporting threshold that decides no verdict
    or exit, far above the rounding of h_k.  Returns the estimator block:
    status "ok", or a detail with status "not_applicable" when no even
    entry is negative (the graph looks Ramanujan up to the horizon) and
    "sign_mismatch" when negatives exist but never in adjacent even pairs
    (the horizon is too small for the asymptotic regime).
    """
    negative = h[1::2] < 0.0  # h_2, h_4, ...
    usable = np.flatnonzero(negative[:-1] & negative[1:])  # i: h_(2i+2), h_(2i+4)
    if not len(usable):
        if negative.any():
            return {"status": "sign_mismatch",
                    "detail": "negative even h_k present but never in adjacent "
                              "pairs; increase the horizon"}
        return {"status": "not_applicable",
                "detail": f"no negative even h_k up to K={len(h)}; "
                          "graph appears Ramanujan at this horizon"}

    def pair_estimate(k: int) -> float:
        r = math.sqrt(float(h[k + 1]) / float(h[k - 1]))
        return r + 1.0 / r

    k_lo = 2 * int(usable[-1]) + 2
    estimate = pair_estimate(k_lo)
    converged = False
    if len(usable) >= 2 and usable[-2] == usable[-1] - 1:
        converged = abs(estimate - pair_estimate(k_lo - 2)) < 1e-4
    mu = (estimate + math.sqrt(max(estimate * estimate - 4.0, 0.0))) / 2.0
    return {"status": "ok", "estimate": estimate, "mu": mu,
            "implied_max_abs_eigenvalue": math.sqrt(q) * estimate,
            "k_used": [k_lo, k_lo + 2], "converged": converged}
