"""Output checks for the benchmark, computed apart from iharazeta.

Nothing here imports the program.  Each check rebuilds the graph's adjacency
matrix from the generator string with its own construction, takes the
spectrum from LAPACK (numpy.linalg.eigvalsh), counts walks with its own
modular matrix powers, and compares the program's JSON output against those
numbers and against properties the paper proves.  A check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# Both primes lie below 2^22, so a float64 product of two residues summed over
# at most 2^9 terms stays below 2^53 and every modular matmul is exact.
PRIMES = (4194301, 4194287)
MAX_EXACT_ORDER = 2 ** 53 // (PRIMES[0] - 1) ** 2
# relative tolerance on eigenvalues: the program's eigensolver agrees with
# LAPACK to about 1e-13, a nudged eigenvalue moves by far more
SPECTRUM_TOL = 1e-9
# h_k routes may differ from the LAPACK evaluation by this share of
# max(1, |h_k|), the program's own route-agreement tolerance, plus EVAL_TOL
# times sum_i |T_k(x_i)| for rounding in the LAPACK evaluation
HK_TOL = 1e-6
EVAL_TOL = 1e-9
# float slack for the program's "h_k >= 0" and "max |lam| <= 2 sqrt(q)"
SIGN_TOL = 1e-8
# scaled eigenvalues this close (relative) count as one top eigenvalue
TOP_TOL = 1e-9


# ---------------------------------------------------------------------------
# the benchmark's own graphs

def _circulant(n: int, offsets) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for s in offsets:
        for t in {s % n, -s % n}:
            a[np.arange(n), (np.arange(n) + t) % n] += 1
    return a


def adjacency(spec: str) -> np.ndarray:
    """Adjacency matrix of a generator string such as "prism:24", built
    without the program's generators (vertex order may differ)."""
    name, *rest = spec.split(":")
    params = [int(tok) for chunk in rest for tok in chunk.split(",")]
    if name == "complete":
        (n,) = params
        return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    if name == "cycle":
        return _circulant(params[0], [1])
    if name == "circulant":
        return _circulant(params[0], params[1:])
    if name == "kmm":
        (m,) = params
        return np.kron(np.array([[0, 1], [1, 0]]), np.ones((m, m), dtype=np.int64))
    if name == "prism":
        (m,) = params
        return (np.kron(np.eye(2, dtype=np.int64), _circulant(m, [1]))
                + np.kron(np.array([[0, 1], [1, 0]]), np.eye(m, dtype=np.int64)))
    if name == "hypercube":
        (d,) = params
        x = np.arange(1 << d)
        diff = x[:, None] ^ x[None, :]
        return ((diff & (diff - 1)) == 0).astype(np.int64) - np.eye(1 << d, dtype=np.int64)
    if name == "petersen":
        # the Kneser graph K(5,2): 2-subsets of 5 points, adjacent when disjoint
        pairs = list(combinations(range(5), 2))
        return np.array([[int(not set(a) & set(b)) for b in pairs] for a in pairs],
                        dtype=np.int64)
    raise ValueError(f"no benchmark construction for {spec!r}")


def is_bipartite(a: np.ndarray) -> bool:
    colour = [-1] * len(a)
    for root in range(len(a)):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(a[v]):
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


class Graph:
    """What the checks need to know about one generator graph."""

    def __init__(self, spec: str):
        self.spec = spec
        self.a = adjacency(spec)
        self.n = len(self.a)
        self.q = int(self.a[0].sum()) - 1
        self.bipartite = is_bipartite(self.a)
        self.spectrum = np.sort(np.linalg.eigvalsh(self.a.astype(np.float64)))[::-1]
        # drop q+1, and -(q+1) when bipartite: the largest and smallest values
        self.nontrivial = self.spectrum[1:-1] if self.bipartite else self.spectrum[1:]
        self.max_abs = float(np.max(np.abs(self.nontrivial)))
        self.ramanujan = self.max_abs <= 2.0 * math.sqrt(self.q) * (1.0 + SIGN_TOL)
        self.scaled = self.nontrivial / math.sqrt(self.q)


# ---------------------------------------------------------------------------
# independent evaluations

def chebyshev_terms(x: np.ndarray, k: int) -> np.ndarray:
    """T_k(x_i) from the closed forms T_k(2 cos t) = 2 cos(kt) and
    T_k(+-(y + 1/y)) = (+-1)^k (y^k + y^-k), not from the recurrence."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) <= 2.0
    out = np.empty_like(x)
    out[inside] = 2.0 * np.cos(k * np.arccos(x[inside] / 2.0))
    ax = np.abs(x[~inside])
    y = (ax + np.sqrt(ax * ax - 4.0)) / 2.0
    out[~inside] = np.sign(x[~inside]) ** k * (y ** k + y ** -k)
    return out


def hk_reference(g: Graph, k: int) -> tuple[float, float]:
    """h_k = 2|S*| - sum T_k(lam/sqrt q) from the LAPACK spectrum, with the
    scale sum |T_k| that bounds its rounding error."""
    terms = chebyshev_terms(g.scaled, k)
    return 2.0 * len(terms) - float(terms.sum()), float(np.abs(terms).sum())


def traces_mod(m: np.ndarray, K: int, p: int) -> list[int]:
    """tr(m^k) mod p for k = 1..K by exact float64 modular matmuls."""
    if len(m) > MAX_EXACT_ORDER:
        raise ValueError(f"order {len(m)} too large for exact modular products")
    base = np.mod(m, p).astype(np.float64)
    cur, out = base, []
    for k in range(1, K + 1):
        if k > 1:
            cur = np.mod(cur @ base, p)
        out.append(int(np.trace(cur)) % p)
    return out


def ihara_bass_companion(g: Graph) -> np.ndarray:
    """M = [[A, I - D], [I, 0]]; tr(B^k) = tr(M^k) + (m - n)(1 + (-1)^k) for
    the non-backtracking operator B (Bass 1992)."""
    n = g.n
    eye = np.eye(n, dtype=np.int64)
    return np.block([[g.a, -g.q * eye], [eye, np.zeros((n, n), dtype=np.int64)]])


def mobius(k: int) -> int:
    result, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            result = -result
        d += 1
    return -result if k > 1 else result


def necklace_failures(x: list[int]) -> list[int]:
    """k with sum_{d|k} mu(k/d) x_d != 0 mod k, for x = (x_1, ..., x_K); the
    sum vanishes mod k for the traces of any integer matrix's powers."""
    return [k for k in range(1, len(x) + 1)
            if sum(mobius(k // d) * x[d - 1] for d in range(1, k + 1) if k % d == 0) % k]


# ---------------------------------------------------------------------------
# checks, one per subcommand

def check_counts(g: Graph, c: list[int], nk: list[int], K: int) -> list[str]:
    """C_0..C_K and N_1..N_K against modular traces of A and of the
    Ihara-Bass companion, the necklace congruence and bipartite parity."""
    problems = []
    if len(c) != K + 1 or len(nk) != K:
        return [f"expected C_0..C_{K} and N_1..N_{K}, got {len(c)} and {len(nk)}"]
    if c[0] != g.n:
        problems.append(f"C_0 = {c[0]}, expected n = {g.n}")
    m_edges = g.n * (g.q + 1) // 2
    companion = ihara_bass_companion(g)
    for p in PRIMES:
        want_c = traces_mod(g.a, K, p)
        want_n = [(t + (m_edges - g.n) * (1 + (-1) ** k)) % p
                  for k, t in enumerate(traces_mod(companion, K, p), start=1)]
        bad_c = [k for k in range(1, K + 1) if c[k] % p != want_c[k - 1]]
        bad_n = [k for k in range(1, K + 1) if nk[k - 1] % p != want_n[k - 1]]
        if bad_c:
            problems.append(f"C_k != tr(A^k) mod {p} at k = {bad_c[:5]}")
        if bad_n:
            problems.append(f"N_k != tr(B^k) mod {p} at k = {bad_n[:5]}")
    for label, seq in (("C", c[1:]), ("N", nk)):
        bad = necklace_failures(seq)
        if bad:
            problems.append(f"necklace congruence fails for {label} at k = {bad[:5]}")
    if g.bipartite:
        odd = [k for k in range(1, K + 1, 2) if c[k] or nk[k - 1]]
        if odd:
            problems.append(f"bipartite graph has odd closed walks at k = {odd[:5]}")
    return problems


def check_header(g: Graph, out: dict, K: int) -> list[str]:
    if out.get("source") == g.spec and out.get("k_horizon") == K:
        return []
    return [f"header names {out.get('source')!r} at K={out.get('k_horizon')}"]


def check_census(g: Graph, out: dict, K: int) -> list[str]:
    return check_header(g, out, K) + check_counts(
        g, [int(s) for s in out["c"]], [int(s) for s in out["n"]], K)


def check_analyze(g: Graph, out: dict, K: int) -> list[str]:
    problems = check_header(g, out, K)
    graph = out["graph"]
    if (graph["n"], graph["q"], graph["bipartite"]) != (g.n, g.q, g.bipartite):
        problems.append(f"graph block {graph} disagrees with n={g.n} q={g.q} "
                        f"bipartite={g.bipartite}")
        return problems
    scale = SPECTRUM_TOL * (g.q + 1)
    for key, want in (("spectrum", g.spectrum), ("nontrivial_spectrum", g.nontrivial)):
        got = np.sort(np.array(out[key], dtype=np.float64))[::-1]
        if got.shape != want.shape or np.max(np.abs(got - want)) > scale:
            problems.append(f"{key} differs from LAPACK eigvalsh")
    spectral = out["verdicts"]["spectral"]
    if spectral["is_ramanujan"] != g.ramanujan:
        problems.append(f"spectral verdict {spectral['is_ramanujan']}, LAPACK says "
                        f"{g.ramanujan} (max |lam*| = {g.max_abs:.12g})")
    if abs(spectral["max_nontrivial_abs"] - g.max_abs) > scale:
        problems.append("max_nontrivial_abs differs from LAPACK")

    reference = [hk_reference(g, k) for k in range(1, K + 1)]
    for route, values in out["h"].items():
        if len(values) != K:
            problems.append(f"route {route} has {len(values)} values, expected {K}")
            continue
        bad = [k for k, (v, (h, size)) in enumerate(zip(values, reference), start=1)
               if abs(v - h) > HK_TOL * max(1.0, abs(v), abs(h)) + EVAL_TOL * size]
        if bad:
            problems.append(f"route {route} differs from the LAPACK h_k at k = {bad[:5]}")
        if g.ramanujan:
            negative = [k for k, (v, (_, size)) in enumerate(zip(values, reference), start=1)
                        if v < -SIGN_TOL * max(1.0, size)]
            if negative:
                problems.append(f"Ramanujan graph but route {route} has h_k < 0 "
                                f"at k = {negative[:5]}")
    hk_verdict = out["verdicts"]["hk"]
    if g.ramanujan and not hk_verdict["is_ramanujan"]:
        problems.append("Ramanujan graph but the h_k verdict refutes")
    if not g.ramanujan:
        witness = hk_verdict["witness"]
        if hk_verdict["is_ramanujan"] or not isinstance(witness, int) or not 1 <= witness <= K:
            problems.append(f"not Ramanujan but the h_k scan did not refute within K={K}")
        elif reference[witness - 1][0] >= 0:
            problems.append(f"h_k witness k={witness} is not negative in the LAPACK h_k")
    census = out["census"]
    problems += check_counts(g, [int(s) for s in census["c"]],
                             [int(s) for s in census["n"]], K)
    return problems + check_estimator(g, out["estimator"], K)


def estimator_interval(g: Graph, k: int) -> tuple[float, float]:
    """Where the tail-ratio estimate sqrt(q)(r + 1/r), r^2 = h_{k+2}/h_k, must
    lie for a non-Ramanujan graph (derivation in README.md).

    With y + 1/y = |x| for the scaled eigenvalues outside [-2, 2], Y the
    largest y (multiplicity m1), Y2 the next one and M the nontrivial count,
    -h_k = m1 Y^k (1 + e_k) for even k with
    |e_k| <= ((n_out - m1) Y2^k + n_out + 4M) / (m1 Y^k).
    """
    ax = np.abs(g.scaled[np.abs(g.scaled) > 2.0])
    y = (ax + np.sqrt(ax * ax - 4.0)) / 2.0
    big = float(y.max())
    top = y >= big * (1.0 - TOP_TOL)
    m1, n_out, size = int(top.sum()), len(y), len(g.scaled)
    second = float(y[~top].max()) if (~top).any() else 1.0

    def err(j: int) -> float:
        # the last term covers top values up to TOP_TOL below Y
        return (((n_out - m1) * (second / big) ** j + (n_out + 4 * size) * big ** -j) / m1
                + j * TOP_TOL)

    lo_sq = (1.0 - err(k + 2)) / (1.0 + err(k))
    hi_sq = (1.0 + err(k + 2)) / max(1.0 - err(k), 1e-300)

    def value(ratio_sq: float) -> float:
        r = big * math.sqrt(max(ratio_sq, 0.0))
        return math.sqrt(g.q) * (r + 1.0 / r if r > 1.0 else 2.0)

    slack = SPECTRUM_TOL * g.max_abs
    return value(lo_sq) - slack, value(hi_sq) + slack


def check_estimator(g: Graph, est: dict, K: int) -> list[str]:
    """The estimator block of `estimate` and of `analyze`."""
    status = est["status"]
    if g.ramanujan:
        if status != "not_applicable":
            return [f"LAPACK says Ramanujan but the estimator status is {status!r}"]
        return []
    if status != "ok":
        return [f"LAPACK says not Ramanujan (max |lam*| = {g.max_abs:.12g}) "
                f"but the estimator status is {status!r}"]
    k_lo, k_hi = est["k_used"]
    if k_lo < 2 or k_lo % 2 or k_hi != k_lo + 2 or k_hi > K:
        return [f"k_used {est['k_used']} is not an even pair within K={K}"]
    problems = []
    implied = est["implied_max_abs_eigenvalue"]
    if abs(implied - math.sqrt(g.q) * est["estimate"]) > SPECTRUM_TOL * implied:
        problems.append("implied_max_abs_eigenvalue != sqrt(q) * estimate")
    if implied < 2.0 * math.sqrt(g.q):
        problems.append(f"implied max |lam*| {implied!r} is below 2 sqrt(q)")
    lo, hi = estimator_interval(g, k_lo)
    if not lo <= implied <= hi:
        problems.append(f"implied max |lam*| {implied!r} outside [{lo!r}, {hi!r}] "
                        f"around LAPACK's {g.max_abs!r}")
    return problems


def check_estimate(g: Graph, out: dict, K: int) -> list[str]:
    return check_header(g, out, K) + check_estimator(g, out, K)


CHECKS = {"analyze": check_analyze, "census": check_census, "estimate": check_estimate}
