"""hk-engine: T_k identities and the agreement of all h_k routes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharazeta.hk import (binomial_ext, chebyshev_T, chebyshev_T_binomial,
                          chebyshev_T_even_form, hk_from_ck, hk_nonneg, hk_spectral, max_route_deviation,
                          tk_weight)
from iharazeta.census import build_census
from iharazeta.graphs import adjacency_matrix, parse_generator, profile
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
    seq = hk_spectral(_scaled("petersen"), 4, 2, 10, False)
    assert seq.h(1) == pytest.approx(18 + 3 / math.sqrt(2), rel=1e-12)
    assert seq.h(2) == pytest.approx(25.5, rel=1e-12)


def test_hk_spectral_kmm3():
    seq = hk_spectral(_scaled("kmm3"), 4, 2, 6, True)
    assert seq.h(2) == pytest.approx(16.0, abs=1e-12)
    assert seq.h(4) == pytest.approx(0.0, abs=1e-12)


def test_hk_from_ck_petersen_h3():
    census = get_census("petersen", 4)
    seq = hk_from_ck(census.c, 2, 10, False, 4)
    expected = 18 + 2 * math.sqrt(2) + 1 / (2 * math.sqrt(2))
    assert seq.h(3) == pytest.approx(expected, rel=1e-12)


def test_hk_from_ck_bipartite_odd_ignores_counts():
    # odd-k values are the constant 2(n-2), independent of the counts
    census = get_census("kmm3", 6)
    seq = hk_from_ck(census.c, 2, 6, True, 6)
    garbage = [10 ** 9 if k % 2 else c for k, c in enumerate(census.c)]
    seq2 = hk_from_ck(garbage, 2, 6, True, 6)
    for k in (1, 3, 5):
        assert seq.h(k) == seq2.h(k) == 8.0


def test_hk_from_ck_kmm3_h2():
    census = get_census("kmm3", 2)
    seq = hk_from_ck(census.c, 2, 6, True, 2)
    assert seq.h(2) == pytest.approx(16.0, abs=1e-12)


def test_hk_from_ck_k4_h3_matches_spectral():
    census = get_census("k4", 3)
    via_c = hk_from_ck(census.c, 2, 4, False, 3)
    spectral = hk_spectral(_scaled("k4"), 3, 2, 4, False)
    assert via_c.h(3) == pytest.approx(spectral.h(3), rel=1e-10)
    # hand value: 2(n-1) + q^1.5 + q^-1.5 - q^-1.5 * 24
    expected = 6 + 2 ** 1.5 + 2 ** -1.5 - 2 ** -1.5 * 24
    assert via_c.h(3) == pytest.approx(expected, rel=1e-12)


def test_hk_from_ck_petersen_h2():
    census = get_census("petersen", 2)
    seq = hk_from_ck(census.c, 2, 10, False, 2)
    assert seq.h(2) == pytest.approx(25.5, rel=1e-12)


@pytest.mark.parametrize("spec, k", [("complete:30", 29), ("complete:6", 50)])
def test_hk_from_ck_exact_under_cancellation(spec, k):
    # q^(k/2) + q^(-k/2) - S_k q^(-k/2) cancels to O(n) here: adding the
    # terms in float loses every digit
    g = parse_generator(spec)
    prof = profile(g)
    census = build_census(g, prof.q, k)
    ns = nontrivial_spectrum(eigenvalues_symmetric(adjacency_matrix(g)), prof)
    exact = hk_from_ck(census.c, prof.q, g.n, prof.bipartite, k).h(k)
    spectral = hk_spectral(scaled_spectrum(ns), k, prof.q, g.n, prof.bipartite).h(k)
    assert exact == pytest.approx(spectral, rel=1e-9)


@pytest.mark.parametrize("name", ["kmm3", "cycle6", "hypercube3", "prism6"])
def test_bipartite_odd_constant_is_exact(name):
    g = get_graph(name)
    prof = get_profile(name)
    census = get_census(name, 11)
    seq = hk_from_ck(census.c, prof.q, g.n, True, 11)
    for k in range(1, 12, 2):
        assert seq.h(k) == float(2 * (g.n - 2))  # exact equality


def test_hk_nonneg_picks_out_negatives():
    verdicts = hk_nonneg(get_hk_routes("prism24", 40)["from_ck"])
    assert any(not ok for _, _, ok in verdicts)
    neg_ks = [k for k, _, ok in verdicts if not ok]
    assert all(k % 2 == 0 for k in neg_ks)


def test_hk_nonneg_zero_passes():
    verdicts = hk_nonneg(get_hk_routes("kmm3", 10)["spectral"])
    assert all(ok for _, _, ok in verdicts)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_route_agreement_all_fixtures(name):
    # includes the loop and multi-edge fixtures
    assert max_route_deviation(list(get_hk_routes(name, 40).values())) <= 1e-6


def test_route_tags():
    routes = get_hk_routes("k4", 5)
    assert [s.route for s in routes.values()] == ["spectral", "from_ck", "series"]
