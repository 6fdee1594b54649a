"""Certify or refute the Ramanujan property and run the associated bounds.

A connected (q+1)-regular graph is Ramanujan when every nontrivial eigenvalue
has |lam| <= 2*sqrt(q).  Equivalently the h_k sequence is nonnegative for all
k; a single negative coefficient refutes, while a finite nonnegative scan
only certifies consistency up to its horizon.  Further routes implemented
here: the even-k eigenvalue bound implied by a single nonnegative even h_k,
the Hasse-Weil-style two-sided bounds on geodesic-cycle counts, and the
dominant-eigenvalue estimator from the tail ratio of negative even h_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hk import HkSequence
from .spectral import NontrivialSpectrum

ROUTE_SPECTRAL_DEFINITION = "spectral_definition"
ROUTE_HK_CRITERION = "hk_criterion"


class DomainError(ValueError):
    """Parameters outside the domain where a bound is defined."""


class EstimatorNotApplicable(RuntimeError):
    """All scanned even-index h are nonnegative: the graph looks Ramanujan
    up to the horizon, and the tail-ratio estimator has nothing to use."""


class EstimatorSignMismatch(RuntimeError):
    """Adjacent even-index entries disagree in sign near the tail; the
    horizon is too small for the asymptotic regime."""


@dataclass(frozen=True)
class RamanujanVerdict:
    is_ramanujan: bool
    threshold: float
    route: str
    max_nontrivial_abs: float | None = None
    witness: float | int | None = None
    horizon: int | None = None


@dataclass(frozen=True)
class HasseWeilRecord:
    k: int
    lhs: int
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class HasseWeilReport:
    branch: str
    records: tuple[HasseWeilRecord, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    @property
    def first_violation(self) -> int | None:
        for r in self.records:
            if not r.satisfied:
                return r.k
        return None


@dataclass(frozen=True)
class EigenvalueEstimate:
    estimate: float
    mu: float
    implied_max_abs_eigenvalue: float
    k_used: tuple[int, int]
    converged: bool


def ramanujan_spectral(ns: NontrivialSpectrum, q: int,
                       tol: float = 1e-8) -> RamanujanVerdict:
    """Direct check: max |lam| over the nontrivial spectrum against
    2*sqrt(q), with tolerance tol*sqrt(q)."""
    threshold = 2.0 * math.sqrt(q)
    worst = max(ns.values, key=abs) if ns.values else 0.0
    ok = abs(worst) <= threshold + tol * math.sqrt(q)
    return RamanujanVerdict(is_ramanujan=ok, threshold=threshold,
                            route=ROUTE_SPECTRAL_DEFINITION,
                            max_nontrivial_abs=abs(worst),
                            witness=None if ok else float(worst))


def ramanujan_hk(seq: HkSequence, tol: float = 1e-8) -> RamanujanVerdict:
    """Sign scan of h_1..h_K: one genuinely negative coefficient refutes;
    an all-nonnegative scan is consistency up to the horizon, never a full
    certificate.  Negativity is judged against the running max magnitude so
    exact zeros pass."""
    threshold = 2.0 * math.sqrt(seq.q)
    running = 1.0
    for k in range(1, seq.horizon + 1):
        h = seq.h(k)
        running = max(running, abs(h))
        if h < -tol * running:
            return RamanujanVerdict(is_ramanujan=False, threshold=threshold,
                                    route=ROUTE_HK_CRITERION, witness=k,
                                    horizon=seq.horizon)
    return RamanujanVerdict(is_ramanujan=True, threshold=threshold,
                            route=ROUTE_HK_CRITERION, horizon=seq.horizon)


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
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    if bipartite:
        if 2 * n - 7 < 1:
            raise DomainError(f"bound undefined for bipartite graphs with n={n}")
        # multiset size (n-2)/2, so 4|S| - 3 = 2n - 7
        return (1.0 + (2.0 * n - 7.0) ** (1.0 / k)) * math.sqrt(q)
    return _bound_for_size(n - 1, k) * math.sqrt(q)


def hasse_weil_check(nk: Sequence[int], q: int, n: int, bipartite: bool,
                     K: int | None = None) -> HasseWeilReport:
    """Two-sided bounds on N_k.

    Nonbipartite: |N_k - q^k - 1| <= 2(n-1) q^(k/2) for odd k, with the main
    term shifted by n(q-1) for even k.  Bipartite: even k only,
    |N_k - n(q-1) - 2q^k - 2| <= 2(n-2) q^(k/2).  Left sides are exact
    integers; right sides get a 1e-9 relative slack.
    """
    horizon = len(nk) if K is None else min(K, len(nk))
    records = []
    for k in range(1, horizon + 1):
        if bipartite:
            if k % 2 == 1:
                continue
            lhs = abs(int(nk[k - 1]) - n * (q - 1) - 2 * q ** k - 2)
            rhs = 2.0 * (n - 2) * float(q ** (k // 2))
        else:
            main = int(nk[k - 1]) - q ** k - 1
            if k % 2 == 0:
                main -= n * (q - 1)
                rhs = 2.0 * (n - 1) * float(q ** (k // 2))
            else:
                rhs = 2.0 * (n - 1) * q ** ((k - 1) // 2) * math.sqrt(q)
            lhs = abs(main)
        records.append(HasseWeilRecord(k=k, lhs=lhs, rhs=rhs,
                                       satisfied=lhs <= rhs * (1.0 + 1e-9)))
    return HasseWeilReport(branch="bipartite" if bipartite else "nonbipartite",
                           records=tuple(records))


def hk_upper_bound(n: int, bipartite: bool) -> int:
    """Upper bound on every h_k of a Ramanujan graph: 4(n-1), or 4(n-2)
    when bipartite."""
    return 4 * (n - 2) if bipartite else 4 * (n - 1)


def hk_upper_check(seq: HkSequence, n: int, bipartite: bool,
                   tol: float = 1e-9) -> bool:
    bound = hk_upper_bound(n, bipartite)
    return bool(np.all(seq.values <= bound * (1.0 + tol)))


def estimate_max_eigenvalue(seq: HkSequence, q: int) -> EigenvalueEstimate:
    """Estimate q^(-1/2) * max|lam| from the tail of negative even h_k.

    For a non-Ramanujan graph, h_2k behaves like -m*mu^(2k), so
    sqrt(h_{2k+2}/h_{2k}) + sqrt(h_{2k}/h_{2k+2}) converges to mu + 1/mu,
    the largest scaled eigenvalue magnitude.  Uses the deepest usable pair
    of adjacent negative even entries; converged means the previous pair
    agrees within 1e-4.  Raises EstimatorNotApplicable when no even entry is
    negative and EstimatorSignMismatch when negatives exist but never in
    adjacent even pairs.
    """
    evens = range(2, seq.horizon + 1, 2)
    some_negative = any(seq.h(k) < 0.0 for k in evens)
    usable = [k for k in evens
              if k + 2 <= seq.horizon and seq.h(k) < 0.0 and seq.h(k + 2) < 0.0]
    if not usable:
        if some_negative:
            raise EstimatorSignMismatch(
                "negative even h_k present but never in adjacent pairs; "
                "increase the horizon")
        raise EstimatorNotApplicable(
            f"no negative even h_k up to K={seq.horizon}; "
            "graph appears Ramanujan at this horizon")

    def pair_estimate(k: int) -> float:
        r = math.sqrt(seq.h(k + 2) / seq.h(k))
        return r + 1.0 / r

    k_lo = usable[-1]
    estimate = pair_estimate(k_lo)
    converged = False
    if len(usable) >= 2 and usable[-2] == k_lo - 2:
        converged = abs(estimate - pair_estimate(k_lo - 2)) < 1e-4
    mu = (estimate + math.sqrt(max(estimate * estimate - 4.0, 0.0))) / 2.0
    return EigenvalueEstimate(estimate=estimate, mu=mu,
                              implied_max_abs_eigenvalue=math.sqrt(q) * estimate,
                              k_used=(k_lo, k_lo + 2), converged=converged)
