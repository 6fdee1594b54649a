"""cycle-census: exact C_k / N_k counting and the four-route cross-check."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

import iharazeta.census as census_mod

from iharazeta.census import (BruteForceBudgetExceeded, build_census,
                              closed_walk_counts, extend_traces,
                              geodesic_cycles_bruteforce,
                              geodesic_cycles_operator, integer_power_traces,
                              nk_from_ck, nonbacktracking_matrix)
from iharazeta.graphs import (Multigraph, adjacency_matrix, build_graph,
                              parse_generator, profile)
from iharazeta.hk import (chebyshev_T_table, hk_excess, hk_from_ck,
                          hk_spectral, hk_spectral_budget)

from conftest import (ALL_FIXTURES, SMALL_FIXTURES, get_census, get_excess,
                      get_graph, get_hk_routes, get_nontrivial, get_profile,
                      get_spectrum, spectral_nk)


def test_closed_walks_k4():
    assert closed_walk_counts(get_graph("k4"), 3) == [4, 0, 12, 24]


def test_closed_walks_cycle4():
    assert closed_walk_counts(get_graph("cycle4"), 2) == [4, 0, 8]


def test_closed_walks_petersen():
    c = closed_walk_counts(get_graph("petersen"), 2)
    assert c == [10, 0, 30]  # C_2 = n(q+1) for a loopless regular graph


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_census_basics(name):
    g = get_graph(name)
    prof = get_profile(name)
    census = get_census(name, 12)
    assert census.c[0] == g.n
    assert census.c[1] == 2 * g.loop_count
    simple = g.loop_count == 0 and int(adjacency_matrix(g).max()) <= 1
    if simple:
        assert census.c[2] == g.n * (prof.q + 1)
    assert all(x >= 0 for x in census.c)
    assert all(x >= 0 for x in census.nk)


@pytest.mark.parametrize("name", ["k4", "cycle5", "cycle6", "petersen",
                                  "kmm3", "hypercube3", "prism6"])
def test_simple_graphs_have_no_short_geodesics(name):
    census = get_census(name, 2)
    assert census.nk[0] == 0 and census.nk[1] == 0


@pytest.mark.parametrize("name", ["kmm3", "cycle4", "cycle6", "hypercube3",
                                  "prism6", "prism24"])
def test_bipartite_odd_walks_vanish(name):
    census = get_census(name, 15)
    assert all(census.c[k] == 0 for k in range(1, 16, 2))


BIPARTITE_FIXTURES = ["cycle4", "cycle6", "kmm3", "hypercube3", "prism6",
                      "prism24", "doubled_cycle4"]


@pytest.mark.parametrize("name", BIPARTITE_FIXTURES)
def test_bipartite_census_matches_full_adjacency_powers(name):
    # build_census powers the n/2 x n/2 Gram matrix BB^T; closed_walk_counts
    # powers A itself.  The horizons straddle both switches to the
    # recurrence: n/2 for BB^T, n for A.
    g = get_graph(name)
    assert g.bipartition is not None
    q = get_profile(name).q
    half = g.n // 2
    for K in sorted({1, 2, half - 1, half, half + 1, g.n + 1, 150} - {0}):
        assert build_census(g, q, K).c == tuple(closed_walk_counts(g, K))


def test_bipartite_census_matches_full_adjacency_powers_prism100():
    g = parse_generator("prism:100")
    assert (build_census(g, profile(g).q, 150).c
            == tuple(closed_walk_counts(g, 150)))


def test_bruteforce_spot_values():
    assert geodesic_cycles_bruteforce(get_graph("k4"), 3) == 24
    assert geodesic_cycles_bruteforce(get_graph("petersen"), 5) == 120
    assert geodesic_cycles_bruteforce(get_graph("cycle5"), 5) == 10
    assert geodesic_cycles_bruteforce(get_graph("kmm3"), 4) == 72


def test_bruteforce_budget():
    with pytest.raises(BruteForceBudgetExceeded):
        geodesic_cycles_bruteforce(get_graph("petersen"), 30)


def test_multigraph_short_geodesics():
    # loops: both orientations are geodesic 1-cycles, and each loop run
    # twice in the same direction is a geodesic 2-cycle
    g = get_graph("looped_cycle4")
    assert geodesic_cycles_bruteforce(g, 1) == 8
    assert geodesic_cycles_bruteforce(g, 2) == 8
    # doubled edges: ordered pairs of distinct parallel edges, both starts
    g2 = get_graph("double_triangle")
    assert geodesic_cycles_bruteforce(g2, 1) == 0
    assert geodesic_cycles_bruteforce(g2, 2) == 12


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_operator_rows_sum_to_q(name):
    b = nonbacktracking_matrix(get_graph(name))
    q = get_profile(name).q
    assert np.all(b.sum(axis=1) == q)


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_oracle_equivalence(name):
    # brute force == operator trace == C_k conversion == the N_k that the
    # spectral h_k route pins within its budget
    g = get_graph(name)
    census = get_census(name, 8)
    operator = geodesic_cycles_operator(g, 8)
    spectral = spectral_nk(name, 8)
    for k in range(1, 9):
        brute = geodesic_cycles_bruteforce(g, k)
        assert brute == operator[k - 1]
        assert brute == census.nk[k - 1]
        assert brute == spectral[k - 1]


def test_nk_from_ck_examples():
    assert nk_from_ck([4, 0, 12, 24], 2, 4, 3) == (0, 0, 24)
    assert nk_from_ck([4, 0, 8], 1, 4, 2) == (0, 0)
    assert nk_from_ck([5, 0], 1, 5, 1) == (0,)


def test_nk_from_spectrum_examples():
    assert spectral_nk("k4", 3)[2] == 24
    assert spectral_nk("petersen", 5)[4] == 120
    assert spectral_nk("petersen", 5)[1] == 0


def test_rounding_residual_guard():
    # a nontrivial eigenvalue off by 1e-9 must be caught, not silently
    # rounded: its spectral h_k leave their budget around the exact ones
    values = get_nontrivial("petersen").values.copy()
    values[0] += 1e-9
    h = hk_spectral(values / math.sqrt(2), 20, False)
    exact = get_hk_routes("petersen", 20)["from_ck"]
    budget = hk_spectral_budget(values, 2, 10, exact, False)
    assert np.any(np.abs(h - exact) > budget)


def test_spectral_budget_rejects_off_by_one_census():
    # q^(k/2) times the budget stays below 1/2 up to k = 20 on petersen and
    # prism:24, so a census N_k one off moves the from_ck h_k outside the
    # budget around the spectral one, at each k that h_k reads (a bipartite
    # graph's odd N_k are 0 by construction, and no h_k reads them)
    for name in ("petersen", "prism24"):
        g, prof, ns = get_graph(name), get_profile(name), get_nontrivial(name)
        q, K = prof.q, 20
        spectral = get_hk_routes(name, K)["spectral"]
        exact = get_hk_routes(name, K)["from_ck"]
        budget = hk_spectral_budget(ns.values, q, g.n, exact, prof.bipartite)
        assert np.all(q ** (np.arange(1, K + 1) / 2) * budget < 0.5)
        assert np.all(np.abs(spectral - exact) <= budget)
        for k, shift in itertools.product(get_excess(name, K), (1, -1)):
            nk = list(get_census(name, K).nk)
            nk[k - 1] += shift
            wrong = hk_from_ck(hk_excess(nk, q, g.n, prof.bipartite), q, g.n,
                               prof.bipartite, K)
            assert abs(spectral[k - 1] - wrong[k - 1]) > budget[k - 1], (name, k)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_tk_power_sum_identity(name):
    # q^(-k/2) * sum_i (-q)^i w(k,i) C_{k-2i} equals the T_k sum over the
    # scaled full spectrum
    from iharazeta.hk import ck_alternating_sums

    q = get_profile(name).q
    census = get_census(name, 20)
    scaled = get_spectrum(name) / math.sqrt(q)
    table = chebyshev_T_table(20, scaled)
    sums = ck_alternating_sums(census.c, q, 20)
    for k in range(1, 21):
        lhs = sums[k - 1] / q ** (k / 2.0)
        rhs = float(table[k - 1].sum())
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def _reference_traces(m, K):
    """tr(m^1..m^K) by list-of-lists matrix powers in Python integers."""
    rows = [[int(x) for x in row] for row in m]
    size = len(rows)
    columns = [[(l, rows[l][j]) for l in range(size) if rows[l][j]]
               for j in range(size)]
    cur, traces = rows, []
    for k in range(1, K + 1):
        if k > 1:
            cur = [[sum(row[l] * v for l, v in columns[j]) for j in range(size)]
                   for row in cur]
        traces.append(sum(cur[i][i] for i in range(size)))
    return traces


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_integer_power_traces_match_bigint_reference(name):
    a = adjacency_matrix(get_graph(name))
    reference = _reference_traces(a, 150)
    assert integer_power_traces(a, 150) == reference
    assert integer_power_traces(a, 1) == reference[:1]


def _trial_division_primes(count):
    # the reference: the largest odd numbers below 2^26 with no odd divisor
    primes, candidate = [], census_mod.PRIME_LIMIT - 1
    while len(primes) < count:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            primes.append(candidate)
        candidate -= 2
    return primes


def test_crt_basis_primes_match_trial_division():
    reference = _trial_division_primes(100)
    for count in (1, 7, 3, 62, 100):
        primes = census_mod._largest_primes(count)
        modulus, basis = census_mod._crt_basis(tuple(primes))
        assert primes == reference[:count]
        assert modulus == math.prod(reference[:count])
        assert basis == tuple(modulus // p * pow(modulus // p, -1, p)
                              for p in reference[:count])


def test_check_prime_lies_below_every_census_prime():
    # the largest census plan that --k <= 200 allows; the check prime is
    # the largest prime below 2^25, so its residues are none of the census's
    prime = census_mod.CHECK_PRIME
    assert census_mod._is_prime(prime)
    assert not any(map(census_mod._is_prime, range(prime + 1, 2 ** 25)))
    plan = census_mod.walk_plan(parse_generator("complete:200"), 200)
    assert (plan.steps, len(plan.matrix)) == (200, 200)
    assert prime < 2 ** 25 < min(plan.primes)


def test_prime_list_extends_once_under_threads():
    # threads that extend the shared prime list at once append each prime once
    counts = [40, 10, 25, 3, 33, 17, 40, 8] * 4
    reference = _trial_division_primes(max(counts))
    interval = sys.getswitchinterval()
    census_mod._PRIMES.clear()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(census_mod._largest_primes, n) for n in counts]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [reference[:n] for n in counts]
    assert census_mod._PRIMES == reference


def test_miller_rabin_matches_trial_division():
    def prime(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))

    candidates = [*range(3000), *range(2 ** 26 - 3000, 2 ** 26 + 50)]
    assert [census_mod._is_prime(m) for m in candidates] == list(map(prime, candidates))
    # Carmichael numbers, strong pseudoprimes to base 2 and, last, to 2, 3 and 5
    for m in (561, 1105, 1729, 2047, 3277, 4033, 4681, 8321, 25326001):
        assert not census_mod._is_prime(m)


@pytest.mark.parametrize("entry", [-3, 7, 2 ** 27 - 1])
def test_integer_power_traces_one_by_one(entry):
    m = np.array([[entry]], dtype=np.int64)
    assert integer_power_traces(m, 150) == [entry ** k for k in range(1, 151)]


@pytest.mark.parametrize("name", ["prism:24", "kmm:5", "petersen"])
def test_signed_companion_traces_give_nk(name):
    # the operator route takes tr(B^k) on the signed 2n x 2n Ihara-Bass
    # companion, past its size at K = 60, and must match the C_k conversion
    g = parse_generator(name)
    q = profile(g).q
    assert geodesic_cycles_operator(g, 60) == list(build_census(g, q, 60).nk)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_companion_matches_nonbacktracking_traces(name):
    # Ihara-Bass holds for loops and parallel edges too
    g = get_graph(name)
    assert (geodesic_cycles_operator(g, 20)
            == integer_power_traces(nonbacktracking_matrix(g), 20))


@pytest.mark.parametrize("spec", ["complete:30", "prism:100", "hypercube:7"])
def test_operator_block_form_matches_census(spec):
    # complete:30 has q = 28: the weighted recurrence passes 2^52 every few
    # steps, so both arrays are reduced several times before K = 20;
    # prism:100 is as large as the report's check gets, and it and
    # hypercube:7 take the half-size Gram recurrence.  Their operator
    # matrices take seconds to power, so the exact census is the reference.
    g = parse_generator(spec)
    assert (geodesic_cycles_operator(g, 20)
            == list(build_census(g, profile(g).q, 20).nk))


@pytest.mark.parametrize("spec, K", [("petersen", 19), ("petersen", 20),
                                     ("petersen", 21), ("petersen", 60),
                                     ("complete:16", 20)])
def test_operator_block_form_matches_operator_matrix(spec, K):
    # the block recurrence runs to 2n = 20 steps on petersen, and
    # extend_traces gives the companion's traces past it; complete:16
    # (q = 14) reduces every few steps
    g = parse_generator(spec)
    assert (geodesic_cycles_operator(g, K)
            == integer_power_traces(nonbacktracking_matrix(g), K))


def test_operator_block_form_irregular_multigraph():
    # a path 0-1-2-3 with a loop at 0: degrees 3, 2, 2, 1.  Ihara-Bass
    # would need the weights 1 - deg, and the operator route takes only the
    # scalar -q of a regular graph
    g = Multigraph(4, ((0, 0), (0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="regular"):
        geodesic_cycles_operator(g, 9)


def _with_matrix_sizes(monkeypatch, route, g, K):
    # route(g, K) and the size of every matrix it hands to the recurrence
    # engine: n/2 on the half-size path, n on the full one
    sizes = []
    engine = census_mod._recurrence_traces

    def recording(plan):
        sizes.append(len(plan.matrix))
        return engine(plan)

    with monkeypatch.context() as patch:
        patch.setattr(census_mod, "_recurrence_traces", recording)
        return route(g, K), sizes


@lru_cache(maxsize=None)
def _nonbacktracking_traces(name, K):
    return integer_power_traces(nonbacktracking_matrix(get_graph(name)), K)


@pytest.mark.parametrize("name", BIPARTITE_FIXTURES + ["prism30"])
def test_operator_half_size_matches_nonbacktracking_traces(name, monkeypatch):
    # bipartite and regular: the even traces come from the n/2 x n/2 Gram
    # matrix B^TB through a recurrence whose companion has size n, so the
    # horizons straddle n steps (2n + 1 and 2n + 3 traces of B) and the
    # first even k
    g = get_graph(name)
    reference = _nonbacktracking_traces(name, 2 * g.n + 3)
    for K in (1, 2, 3, g.n - 1, g.n, g.n + 1, 2 * g.n + 1, 2 * g.n + 3):
        out, sizes = _with_matrix_sizes(monkeypatch, geodesic_cycles_operator, g, K)
        assert out == reference[:K]
        assert sizes == ([] if K == 1 else [g.n // 2])


@pytest.mark.parametrize("multiplicity, half_size", [(4096, True), (4097, False)])
def test_operator_half_size_column_sum_limit(multiplicity, half_size, monkeypatch):
    # a 4-cycle with every edge of one multiplicity: q = 8191 is the largest
    # q whose Gram recurrence has c + d = 2q^2 + 2q - 1 below 2^27; q = 8193
    # takes the full-size recurrence, and both still match the census
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)] * multiplicity)
    q = profile(g).q
    out, sizes = _with_matrix_sizes(monkeypatch, geodesic_cycles_operator, g, 6)
    assert out == list(build_census(g, q, 6).nk)
    assert sizes == ([2] if half_size else [4])


@pytest.mark.parametrize("a, b, half_size", [
    (5792, 5792, True), (5792, 5793, True), (5793, 5793, False)],
    ids=["q+1=11584", "q+1=11585", "q+1=11586"])
def test_census_half_size_column_sum_limit(a, b, half_size, monkeypatch):
    # a 4-cycle with edges 01, 23 taken a times and 12, 30 b times, so
    # q+1 = a + b: the Gram matrix BB^T has column sums (q+1)^2, below 2^27
    # up to q+1 = 11585; past it the census powers A itself, and both match
    # the general route
    g = build_graph(4, [(0, 1), (2, 3)] * a + [(1, 2), (3, 0)] * b)
    q = profile(g).q
    c, sizes = _with_matrix_sizes(
        monkeypatch, lambda g, K: build_census(g, q, K).c, g, 9)
    assert c == tuple(closed_walk_counts(g, 9))
    assert sizes == ([2] if half_size else [4])
    assert geodesic_cycles_operator(g, 9) == list(build_census(g, q, 9).nk)


def test_operator_full_size_off_bipartite_regular(monkeypatch):
    # a nonbipartite graph keeps the 2n-wide companion recurrence, and an
    # irregular bipartite multigraph has no scalar weight -q
    g = get_graph("petersen")
    out, sizes = _with_matrix_sizes(monkeypatch, geodesic_cycles_operator, g, 9)
    assert out == integer_power_traces(nonbacktracking_matrix(g), 9)
    assert sizes == [g.n]
    irregular = Multigraph(4, ((0, 1), (0, 1), (1, 2), (2, 3)))
    assert irregular.bipartition is not None
    with pytest.raises(ValueError, match="regular"):
        geodesic_cycles_operator(irregular, 9)


def _reference_recurrence_traces(a, weight, K):
    # X_k = X_(k-1) a + weight X_(k-2) in Python integers, from X_(-1) = 0
    # and X_0 = I; the traces of X_k + weight X_(k-2)
    size = len(a)
    a = [[int(v) for v in row] for row in a]
    prev = [[0] * size for _ in range(size)]
    cur = [[int(i == j) for j in range(size)] for i in range(size)]
    traces = []
    for _ in range(K):
        nxt = [[sum(cur[i][l] * a[l][j] for l in range(size)) + weight * prev[i][j]
                for j in range(size)] for i in range(size)]
        traces.append(sum(nxt[i][i] + weight * prev[i][i] for i in range(size)))
        prev, cur = cur, nxt
    return traces


@pytest.mark.parametrize("largest_weight", [100, 2 ** 20, 2 ** 27])
def test_recurrence_traces_with_large_weights(largest_weight):
    # weights that dominate the column sums, up to c + d = 2^27 - 1: the
    # bound's d B_(k-2) term decides when both arrays are reduced.  The
    # exact plan stops at the companion size 12 and extend_traces gives the
    # rest; the check plan runs all 30 steps modulo its prime
    rng = np.random.default_rng(largest_weight)
    a = rng.integers(-3, 4, size=(6, 6))
    weight = -min(2 ** 27 - 1 - int(np.abs(a).sum(axis=0).max()), largest_weight)
    reference = _reference_recurrence_traces(a, weight, 30)
    exact = census_mod._plan(a, weight, 30)
    assert exact.steps == 12
    assert census_mod._traces(exact, 30) == reference
    prime = census_mod.CHECK_PRIME
    check = census_mod._plan(a, weight, 30, prime)
    assert (check.steps, check.primes) == (30, (prime,))
    residues = census_mod._recurrence_traces(check)
    assert [(x - y) % prime for x, y in zip(residues, reference)] == [0] * 30


def _strictly_upper(size):
    rng = np.random.default_rng(5)
    return np.triu(rng.integers(-9, 10, size=(size, size)), k=1)


def _column_sums_at_limit(size):
    # signed entries whose absolute column sums are all 2^27 - 1: every
    # GEMM would pass 2^52 unless the powers are reduced before it
    rng = np.random.default_rng(7)
    m = rng.integers(1, 2 ** 20, size=(size, size))
    m[0] += 2 ** 27 - 1 - m.sum(axis=0)
    return m * rng.choice([-1, 1], size=(size, size))


def _zero_one_column_sum_four(size):
    # a 0/1 matrix of column sum 4, whose entry bound quadruples per GEMM:
    # 25 GEMMs run from the start and 13 after each reduction
    perm = np.random.default_rng(11).permutation(size)
    m = np.zeros((size, size), dtype=np.int64)
    for shift in range(4):
        m[np.roll(perm, -shift), np.arange(size)] = 1
    return m


@pytest.mark.parametrize("matrix, extra", [
    (np.array([[-5]], dtype=np.int64), 150),
    (_strictly_upper(6), 40),
    (nonbacktracking_matrix(parse_generator("cycle:7")), 20),
    (adjacency_matrix(parse_generator("kmm:16")), 200),
    (_column_sums_at_limit(8), 30),
    (_zero_one_column_sum_four(48), 200),
    (np.random.default_rng(3).integers(-40, 41, size=(12, 12)), 60),
], ids=["one-by-one", "nilpotent", "cycle7-operator", "kmm16-k200",
        "column-sum-limit", "zero-one-k200", "signed"])
def test_integer_power_traces_around_matrix_size(matrix, extra):
    # matrix powers stop at the size s; Newton's identities and
    # Cayley-Hamilton give the rest, so K = s - 1, s, s + 1 and a deep K
    # straddle the switch
    size = matrix.shape[0]
    reference = _reference_traces(matrix, max(extra, size + 1))
    for K in (size - 1, size, size + 1, extra):
        assert integer_power_traces(matrix, K) == reference[:K]


def test_extend_traces_rejects_corrupt_traces():
    # no 2 x 2 integer matrix has traces 1, 2: Newton gives 2 e_2 = -1
    with pytest.raises(ArithmeticError, match="remainder"):
        extend_traces([1, 2], 5)
    assert extend_traces([1, 3], 5) == [1, 3, 4, 7, 11]  # [[1, 1], [1, 0]]


def test_reduce_rejects_aliased_output():
    # x is read after out is written, so out = x would give zeros
    x = np.array([[7.0, -9.0]])
    prime = np.array([[5.0]])
    with pytest.raises(ValueError, match="over its input"):
        census_mod._reduce(x, prime, 1.0 / prime, out=x)
    with pytest.raises(ValueError, match="over its input"):
        census_mod._reduce(x, prime, 1.0 / prime, out=x.reshape(-1)[:1])
    assert census_mod._reduce(x, prime, 1.0 / prime,
                              out=np.empty_like(x)).tolist() == [[2.0, 1.0]]


def test_integer_power_traces_column_sum_precondition():
    with pytest.raises(ValueError, match="column sum"):
        integer_power_traces(np.array([[2 ** 27]], dtype=np.int64), 3)
    with pytest.raises(ValueError, match="column sum"):
        integer_power_traces(np.array([[2 ** 26, 0], [-(2 ** 26), 1]],
                                      dtype=np.int64), 3)


def test_integer_power_traces_cross_int64_boundary():
    # 3-regular on 48 vertices crosses the int64 threshold near k = 38
    a = adjacency_matrix(get_graph("prism24"))
    traces = integer_power_traces(a, 42)
    vals = get_spectrum("prism24")
    for k in (40, 41, 42):
        approx = float(np.sum(vals ** k))
        scale = float(np.sum(np.abs(vals) ** k))
        assert abs(approx - traces[k - 1]) <= 1e-8 * scale


def test_census_growth_is_exact_bigint():
    census = get_census("prism24", 60)
    assert census.c[60] > 2 ** 63  # far beyond int64
    assert isinstance(census.c[60], int)
