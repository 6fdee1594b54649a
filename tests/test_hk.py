"""hk-engine: T_k identities and the agreement of all h_k routes."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharazeta.hk import (HorizonOverflow, binomial_ext, chebyshev_T, chebyshev_T_binomial,
                          chebyshev_T_even_form, chebyshev_T_table, ck_alternating_sums, hk_excess, hk_from_ck, hk_spectral, max_route_deviation,
                          tk_weight)
from iharazeta.census import build_census
from iharazeta.graphs import (adjacency_matrix, parse_generator, profile,
                              read_edge_list)
from iharazeta.spectral import (eigenvalues_symmetric, nontrivial_spectrum,
                                scaled_spectrum)

from conftest import (ALL_FIXTURES, get_census, get_graph, get_hk_routes,
                      get_nontrivial, get_profile)


# ---------------------------------------------------------------------------
# T_k basics and identities

def test_T0_is_two():
    for x in (-3.0, 0.0, 0.25, 7.0):
        assert chebyshev_T(0, x) == 2.0


def test_T1_is_x():
    assert chebyshev_T(1, 0.7) == 0.7


def test_Tk_at_two_is_two():
    assert all(chebyshev_T(k, 2.0) == 2.0 for k in range(51))


def test_T3_value():
    assert chebyshev_T(3, 3 / math.sqrt(2)) == pytest.approx(9 / (2 * math.sqrt(2)),
                                                             rel=1e-12)


@pytest.mark.parametrize("x", [0.5, 1.3, -2.0, 3.0])
def test_sum_of_powers_identity(x):
    # T_k(x + 1/x) = x^k + x^-k
    for k in range(31):
        expected = x ** k + x ** -k
        got = chebyshev_T(k, x + 1 / x)
        assert abs(got - expected) < 1e-8 * (abs(x) ** k + abs(x) ** -k)


@pytest.mark.parametrize("theta", [0.0, math.pi / 7, math.pi / 3, 2.1])
def test_cosine_identity(theta):
    for k in range(51):
        assert abs(chebyshev_T(k, 2 * math.cos(theta)) - 2 * math.cos(k * theta)) < 1e-9


@pytest.mark.parametrize("x", [0.7, -0.7, 2.5, -2.5])
def test_binomial_form_matches_recurrence(x):
    for k in range(26):
        a, b = chebyshev_T(k, x), chebyshev_T_binomial(k, x)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("x", [0.7, -0.7, 2.5, -2.5])
def test_even_power_form_matches_recurrence(x):
    for k in range(26):
        a, b = chebyshev_T(k, x), chebyshev_T_even_form(k, x)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def _T_table_loop(K, xs):
    # the reference table: T_k kept in two rotating arrays, each row copied out
    out = np.empty((K, len(xs)))
    prev, cur = np.full(len(xs), 2.0), xs.copy()
    for k in range(1, K + 1):
        out[k - 1] = cur
        prev, cur = cur, xs * cur - prev
    return out


@pytest.mark.parametrize("K", [0, 1, 2, 3, 60])
def test_T_table_equals_the_loop(K):
    # the recurrence run in the table's rows does the same arithmetic
    xs = np.array([random.Random(K).uniform(-3.0, 3.0) for _ in range(17)] + [2.0, 0.0])
    table = chebyshev_T_table(K, xs)
    assert table.shape == (K, len(xs))
    assert np.array_equal(table, _T_table_loop(K, xs))


@given(st.floats(-2.0, 2.0), st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_bounded_on_bounded_arguments(s, k):
    assert abs(chebyshev_T(k, s)) <= 2.0 + 1e-9


@pytest.mark.parametrize("s", [2.01, -2.01, 3.0, -3.0])
def test_even_positivity_outside_band(s):
    for k in range(0, 51, 2):
        assert chebyshev_T(k, s) > 0.0


def test_binomial_convention():
    assert binomial_ext(-1, -1) == 1
    assert binomial_ext(0, -1) == 0
    assert binomial_ext(5, -1) == 0
    assert binomial_ext(4, 2) == 6
    assert tk_weight(0, 0) == 2
    assert tk_weight(3, 0) == 1


# ---------------------------------------------------------------------------
# h_k routes

def _scaled(name):
    return scaled_spectrum(get_nontrivial(name))


def test_hk_spectral_petersen():
    seq = hk_spectral(_scaled("petersen"), 4, False)
    assert seq[0] == pytest.approx(18 + 3 / math.sqrt(2), rel=1e-12)
    assert seq[1] == pytest.approx(25.5, rel=1e-12)


def test_hk_spectral_kmm3():
    seq = hk_spectral(_scaled("kmm3"), 4, True)
    assert seq[1] == pytest.approx(16.0, abs=1e-12)
    assert seq[3] == pytest.approx(0.0, abs=1e-12)


def _direct_alternating_sums(c, q, K):
    return [sum((-q) ** i * tk_weight(k, i) * c[k - 2 * i]
                for i in range(k // 2 + 1)) for k in range(1, K + 1)]


@pytest.mark.parametrize("spec", ["complete:30", "hypercube:6", "petersen"])
def test_ck_alternating_sum_matches_tk_weights(spec):
    # the two parity chains of partial sums must reproduce the explicit sum
    g = parse_generator(spec)
    q = profile(g).q
    c = build_census(g, q, 150).c
    assert ck_alternating_sums(c, q, 150) == _direct_alternating_sums(c, q, 150)


@pytest.mark.parametrize("q", [1, 2, 3, 11])
def test_ck_alternating_sums_on_arbitrary_counts(q):
    # the identity is algebraic: any integers C_0..C_K, signed and large;
    # K = 1..7 covers the four seed rows and the first recurrence steps
    rng = random.Random(q)
    c = [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(201)]
    for K in (*range(1, 8), 200):
        assert ck_alternating_sums(c, q, K) == _direct_alternating_sums(c, q, K)
    assert ck_alternating_sums(c, q, 0) == []
    with pytest.raises(ValueError, match="need C_0..C_201"):
        ck_alternating_sums(c, q, 201)


@pytest.mark.parametrize("q", [1, 2, 3, 11])
@pytest.mark.parametrize("shape", ["odd zero", "even zero past C_0", "one odd C_k"])
def test_ck_alternating_sums_when_a_parity_is_zero(q, shape):
    # a chain whose counts are all 0 is skipped; a single nonzero odd C_k
    # must still run the odd chain on an otherwise bipartite-looking census
    rng = random.Random(q)
    c = [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(61)]
    if shape == "odd zero":
        c[1::2] = [0] * 30
    elif shape == "even zero past C_0":
        c[2::2] = [0] * 30
    else:
        c = [c[0]] + [0] * 60
        c[2::2] = [rng.randrange(10 ** 30) for _ in range(30)]
        c[13] = 7
    for K in (*range(1, 8), 13, 60):
        assert ck_alternating_sums(c, q, K) == _direct_alternating_sums(c, q, K)


def test_hk_from_ck_petersen_h3():
    census = get_census("petersen", 4)
    seq = hk_from_ck(hk_excess(census.nk, 2, 10, False), 2, 10, False, 4)
    expected = 18 + 2 * math.sqrt(2) + 1 / (2 * math.sqrt(2))
    assert seq[2] == pytest.approx(expected, rel=1e-12)


def test_hk_from_ck_bipartite_odd_ignores_counts():
    # odd-k values are the constant 2(n-2), independent of the counts
    census = get_census("kmm3", 6)
    seq = hk_from_ck(hk_excess(census.nk, 2, 6, True), 2, 6, True, 6)
    garbage = dataclasses.replace(census, nk=tuple(
        10 ** 9 if k % 2 else x for k, x in enumerate(census.nk, start=1)))
    seq2 = hk_from_ck(hk_excess(garbage.nk, 2, 6, True), 2, 6, True, 6)
    for k in (1, 3, 5):
        assert seq[k - 1] == seq2[k - 1] == 8.0


def _hk_from_sums(c, q, n, bipartite, K):
    """h_1..h_K from ck_alternating_sums(c), as hk_from_ck divides them."""
    base, mult = (2 * (n - 2), 2) if bipartite else (2 * (n - 1), 1)
    values = []
    for k, s in enumerate(ck_alternating_sums(c, q, K), start=1):
        half = q ** (k // 2)
        if bipartite and k % 2 == 1:
            values.append(float(base))
        elif k % 2 == 0:
            values.append((base * half + mult * (half * half + 1) - s) / half)
        else:
            values.append(base + (q ** k + 1 - s) / half / math.sqrt(q))
    return values


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_hk_from_ck_reads_the_alternating_sums_back_from_nk(name):
    # S_k = N_k - n(q-1)[k even] exactly, so h_k is bit-identical to the
    # value divided out of the C_k alternating sums themselves
    g = get_graph(name)
    prof = get_profile(name)
    census = get_census(name, 60)
    excess = hk_excess(census.nk, prof.q, g.n, prof.bipartite)
    seq = hk_from_ck(excess, prof.q, g.n, prof.bipartite, 60)
    assert seq.tolist() == _hk_from_sums(census.c, prof.q, g.n,
                                         prof.bipartite, 60)
    assert len(hk_from_ck(excess, prof.q, g.n, prof.bipartite, 20)) == 20
    with pytest.raises(ValueError, match="k=62"):
        hk_from_ck(excess, prof.q, g.n, prof.bipartite, 62)


def test_hk_from_ck_kmm3_h2():
    census = get_census("kmm3", 2)
    seq = hk_from_ck(hk_excess(census.nk, 2, 6, True), 2, 6, True, 2)
    assert seq[1] == pytest.approx(16.0, abs=1e-12)


def test_hk_from_ck_k4_h3_matches_spectral():
    census = get_census("k4", 3)
    via_c = hk_from_ck(hk_excess(census.nk, 2, 4, False), 2, 4, False, 3)
    spectral = hk_spectral(_scaled("k4"), 3, False)
    assert via_c[2] == pytest.approx(spectral[2], rel=1e-10)
    # hand value: 2(n-1) + q^1.5 + q^-1.5 - q^-1.5 * 24
    expected = 6 + 2 ** 1.5 + 2 ** -1.5 - 2 ** -1.5 * 24
    assert via_c[2] == pytest.approx(expected, rel=1e-12)


def test_hk_from_ck_petersen_h2():
    census = get_census("petersen", 2)
    seq = hk_from_ck(hk_excess(census.nk, 2, 10, False), 2, 10, False, 2)
    assert seq[1] == pytest.approx(25.5, rel=1e-12)


@pytest.mark.parametrize("spec, k", [("complete:30", 29), ("complete:6", 50)])
def test_hk_from_ck_exact_under_cancellation(spec, k):
    # q^(k/2) + q^(-k/2) - S_k q^(-k/2) cancels to O(n) here: adding the
    # terms in float loses every digit
    g = parse_generator(spec)
    prof = profile(g)
    census = build_census(g, prof.q, k)
    ns = nontrivial_spectrum(
        eigenvalues_symmetric(adjacency_matrix(g), prof.bipartition), prof)
    excess = hk_excess(census.nk, prof.q, g.n, prof.bipartite)
    exact = hk_from_ck(excess, prof.q, g.n, prof.bipartite, k)[k - 1]
    spectral = hk_spectral(scaled_spectrum(ns), k, prof.bipartite)[k - 1]
    assert exact == pytest.approx(spectral, rel=1e-9)


@pytest.mark.parametrize("name", ["kmm3", "cycle6", "hypercube3", "prism6"])
def test_bipartite_odd_constant_is_exact(name):
    g = get_graph(name)
    prof = get_profile(name)
    census = get_census(name, 11)
    seq = hk_from_ck(hk_excess(census.nk, prof.q, g.n, True), prof.q, g.n,
                     True, 11)
    for k in range(1, 12, 2):
        assert seq[k - 1] == float(2 * (g.n - 2))  # exact equality


def test_hk_excess_picks_out_negatives():
    # odd k of a bipartite graph is skipped: there h_k = 2(n-2) > 0
    excess = hk_excess(get_census("prism24", 40).nk, 2, 48, True)
    assert list(excess) == list(range(2, 41, 2))
    neg_ks = [k for k, (_, side) in excess.items() if side < 0]
    assert neg_ks
    assert all(get_hk_routes("prism24", 40)["from_ck"][k - 1] < 0 for k in neg_ks)


def test_hk_excess_zero_passes():
    # K33's h_k = 8 - 8(-1)^(k/2) at even k: exact zeros at k = 4, 8
    excess = hk_excess(get_census("kmm3", 10).nk, 2, 6, True)
    assert all(side >= 0 for _, side in excess.values())
    assert [k for k, (a, _) in excess.items() if a == -8 * 2 ** (k // 2)] == [4, 8]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_route_agreement_all_fixtures(name):
    # includes the loop and multi-edge fixtures
    assert max_route_deviation(list(get_hk_routes(name, 40).values())) <= 1e-6


def test_route_tags():
    routes = get_hk_routes("k4", 5)
    assert list(routes) == ["spectral", "from_ck", "series"]
    assert all(h.dtype == np.float64 and h.shape == (5,) for h in routes.values())


def test_h_past_the_double_range_raises_at_its_k():
    # the 3-cycle with each edge 5000 times: q = 9999, x = -5000/sqrt(q)
    # twice, so h_k ~ 2 * 50^k.  h_181 ~ 6e307 fits, though a_181 / q^90
    # alone does not; h_182 ~ -3e309 does not fit
    g = read_edge_list("0 1\n1 2\n2 0\n" * 5000)
    prof, K = profile(g), 182
    excess = hk_excess(build_census(g, prof.q, K).nk, prof.q, g.n, False)
    scaled = scaled_spectrum(nontrivial_spectrum(eigenvalues_symmetric(
        adjacency_matrix(g)), prof))
    spectral = hk_spectral(scaled, K - 1, False)
    exact = hk_from_ck(excess, prof.q, g.n, False, K - 1)
    assert 1e307 < spectral[-1] < 1e308
    assert exact[-1] == pytest.approx(spectral[-1], rel=1e-12)
    with pytest.raises(HorizonOverflow, match="^h_182 passes the double range"):
        hk_from_ck(excess, prof.q, g.n, False, K)
    with pytest.raises(HorizonOverflow, match="^h_182 passes the double range"):
        hk_spectral(scaled, K, False)

