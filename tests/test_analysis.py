"""ramanujan-analysis: verdicts, bounds, Hasse-Weil records, estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharazeta.analysis import (DomainError, estimate_max_eigenvalue,
                                even_k_bound, even_k_bounds, hasse_weil_check,
                                hk_upper_bound, hk_upper_check, multiset_bound,
                                ramanujan_hk, ramanujan_spectral)
from iharazeta.hk import chebyshev_T, hk_excess, hk_from_ck
from iharazeta.spectral import (NontrivialSpectrum, eigenvalue_error,
                                scaled_spectrum)

from conftest import (ACCEPTANCE_FIXTURES, NON_RAMANUJAN_FIXTURES,
                      RAMANUJAN_FIXTURES, get_excess, get_graph,
                      get_hk_routes, get_nontrivial, get_profile)


def _hk_verdict(name, K):
    return ramanujan_hk(get_excess(name, K), K)


def _hk_upper(name, K):
    return hk_upper_check(get_excess(name, K))


def _synthetic_nk(n, q, K, bipartite, k, a):
    """N_1..N_K whose a_j (hk_excess) is 0, so h_j = base, at every j but k,
    where a_k = a."""
    mult = 2 if bipartite else 1
    nk = [mult * (q ** j + 1) + (n * (q - 1) if j % 2 == 0 else 0)
          for j in range(1, K + 1)]
    nk[k - 1] -= a
    return nk


def _h(nk, q, n, bipartite, k):
    return hk_from_ck(hk_excess(nk, q, n, bipartite), q, n, bipartite,
                      len(nk))[k - 1]


def _verdict(nk, q, n, bipartite):
    return ramanujan_hk(hk_excess(nk, q, n, bipartite), len(nk))


def _hasse_weil(nk, q, n, bipartite):
    return hasse_weil_check(hk_excess(nk, q, n, bipartite), q, n, bipartite)


# ---------------------------------------------------------------------------
# spectral verdict

def test_spectral_verdict_petersen():
    v = ramanujan_spectral(get_nontrivial("petersen"), 2)
    assert v["is_ramanujan"]
    assert v["max_nontrivial_abs"] == pytest.approx(2.0, abs=1e-10)
    assert v["threshold"] == pytest.approx(2 * math.sqrt(2))


def test_spectral_verdict_kmm3():
    v = ramanujan_spectral(get_nontrivial("kmm3"), 2)
    assert v["is_ramanujan"] and v["max_nontrivial_abs"] == pytest.approx(0.0, abs=1e-10)


def test_spectral_verdict_prism24():
    v = ramanujan_spectral(get_nontrivial("prism24"), 2)
    assert not v["is_ramanujan"]
    assert v["max_nontrivial_abs"] == pytest.approx(2 * math.cos(math.pi / 12) + 1,
                                                    abs=1e-9)
    assert v["witness"] is not None


def _margin(bound, n, q):
    """The spectral margin: 4 ulps of the bound and the eigenvalue error."""
    return 4.0 * math.ulp(bound) + eigenvalue_error(n, q)


@pytest.mark.parametrize("q", [2, 3, 13, 1399])
@pytest.mark.parametrize("bipartite", [False, True])
def test_spectral_margin_is_derived(q, bipartite):
    # a synthetic spectrum whose largest |lam| is 2 sqrt(q) plus half, then
    # twice, the margin for its n: len + 1, or len + 2 when bipartite (the
    # fixed slack of 1e-8 sqrt(q) passed both); the even-k bounds take the
    # same rule at h_2 >= 0 (a_2 = 0)
    threshold = 2.0 * math.sqrt(q)
    rest = [0.5, -0.5] if bipartite else [0.5, 0.25, -1.0]
    n = len(rest) + (4 if bipartite else 2)
    bound = even_k_bound(2, n, q, bipartite)
    for factor, ramanujan in ((0.5, True), (2.0, False)):
        worst = threshold + factor * _margin(threshold, n, q)
        values = [worst, *rest] + ([-worst] if bipartite else [])
        v = ramanujan_spectral(NontrivialSpectrum(
            np.array(sorted(values, reverse=True)), q, bipartite), q)
        assert v["is_ramanujan"] is ramanujan
        assert v["threshold"] == threshold and v["max_nontrivial_abs"] == worst
        assert v["witness"] == (None if ramanujan else pytest.approx(worst))
        max_abs = bound + factor * _margin(bound, n, q)
        assert even_k_bounds({2: (0, 0)}, n, q, bipartite, max_abs) == [
            {"k": 2, "bound": bound, "satisfied": ramanujan}]


# ---------------------------------------------------------------------------
# h_k verdict

def test_hk_verdict_petersen():
    v = _hk_verdict("petersen", 40)
    assert v["is_ramanujan"] and v["horizon"] == 40 and v["witness"] is None


def test_hk_verdict_prism24_refutes_with_even_witness():
    v = _hk_verdict("prism24", 40)
    assert not v["is_ramanujan"]
    assert v["witness"] is not None and v["witness"] % 2 == 0


def test_hk_verdict_kmm3_boundary_zero():
    v = _hk_verdict("kmm3", 40)
    assert v["is_ramanujan"]


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES)
def test_verdicts_never_disagree_ramanujan(name):
    # spectral certification implies no negative h_k to K = 100
    assert ramanujan_spectral(get_nontrivial(name), get_profile(name).q)["is_ramanujan"]
    assert _hk_verdict(name, 100)["is_ramanujan"]


@pytest.mark.parametrize("name", NON_RAMANUJAN_FIXTURES)
def test_verdicts_never_disagree_non_ramanujan(name):
    assert not ramanujan_spectral(get_nontrivial(name), get_profile(name).q)["is_ramanujan"]
    v = _hk_verdict(name, 100)
    assert not v["is_ramanujan"] and v["witness"] <= 60


def test_hk_verdict_is_exact_at_zero_even_k():
    # n=10, q=2: h_60 = 0 passes; one more count gives h_60 = -2^-30, which
    # refutes, where a tolerance of 1e-8 * max|h| would still have passed it
    n, q, K, base = 10, 2, 60, 18
    nk = _synthetic_nk(n, q, K, False, 60, -base * q ** 30)
    assert _h(nk, q, n, False, 60) == 0.0
    assert _verdict(nk, q, n, False)["is_ramanujan"]
    nk[59] += 1
    assert _h(nk, q, n, False, 60) == -2.0 ** -30
    v = _verdict(nk, q, n, False)
    assert not v["is_ramanujan"] and v["witness"] == 60 and v["horizon"] == 60


def test_hk_verdict_is_exact_at_zero_odd_k():
    # n=10, q=4: h_61 = 18 + a_61 / (4^30 * 2) = 0 at a_61 = -36 * 4^30; one
    # count past it, h_61 = -2^-61 rounds to 0.0 in float, and the integers
    # still refute
    n, q, K, base = 10, 4, 61, 18
    nk = _synthetic_nk(n, q, K, False, 61, -2 * base * q ** 30)
    assert _h(nk, q, n, False, 61) == 0.0
    assert _verdict(nk, q, n, False)["is_ramanujan"]
    nk[60] += 1
    assert _h(nk, q, n, False, 61) == 0.0
    v = _verdict(nk, q, n, False)
    assert not v["is_ramanujan"] and v["witness"] == 61


# ---------------------------------------------------------------------------
# bounds

def test_even_k_bound_values():
    assert even_k_bound(2, 10, 2, False) == pytest.approx((1 + math.sqrt(33))
                                                          * math.sqrt(2), rel=1e-12)
    assert even_k_bound(2, 6, 2, True) == pytest.approx((1 + math.sqrt(5))
                                                        * math.sqrt(2), rel=1e-12)


def test_even_k_bound_limits_to_threshold():
    # x^(1/k) -> 1, so the bound approaches 2 sqrt(q) from above
    assert even_k_bound(1000, 10, 2, False) == pytest.approx(2 * math.sqrt(2),
                                                             abs=0.01)


def test_even_k_bound_domain():
    with pytest.raises(ValueError):
        even_k_bound(3, 10, 2, False)  # odd k
    with pytest.raises(DomainError):
        even_k_bound(2, 3, 1, True)  # bipartite n <= 3


def test_multiset_bound_values():
    assert multiset_bound([1.0], 2) == pytest.approx(2.0)
    assert multiset_bound([0.0] * 9, 2) == pytest.approx(1 + math.sqrt(33), rel=1e-12)
    assert multiset_bound([0.0] * 9, 6) == pytest.approx(1 + 33 ** (1 / 6), rel=1e-12)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=12),
       st.sampled_from([2, 4, 6, 8, 10]))
@settings(max_examples=120, deadline=None)
def test_multiset_bound_property(S, k):
    # whenever the mean of T_k over S is at most 2, every |s| obeys the bound
    mean = sum(chebyshev_T(k, s) for s in S) / (2 * len(S))
    if mean <= 1.0:
        bound = multiset_bound(S, k)
        assert all(abs(s) <= bound + 1e-9 for s in S)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_even_k_bound_implied_by_nonneg_hk(name):
    g = get_graph(name)
    prof = get_profile(name)
    seq = get_hk_routes(name, 40)["from_ck"]
    worst = get_nontrivial(name).max_abs()
    for k in range(2, 41, 2):
        if seq[k - 1] >= 0:
            assert worst <= even_k_bound(k, g.n, prof.q, prof.bipartite) + 1e-9


# ---------------------------------------------------------------------------
# Hasse-Weil records

def test_hasse_weil_petersen_k5():
    report = hasse_weil_check(get_excess("petersen", 5), 2, 10, False)
    rec = report["records"][4]
    assert rec["k"] == 5 and rec["lhs"] == "87"
    assert rec["rhs"] == pytest.approx(2 * 9 * 2 ** 2.5, rel=1e-12)
    assert rec["satisfied"]


def test_hasse_weil_kmm3_tight_equality():
    report = hasse_weil_check(get_excess("kmm3", 2), 2, 6, True)
    rec = report["records"][0]
    assert rec["k"] == 2 and rec["lhs"] == "16" and rec["rhs"] == 16.0 and rec["satisfied"]


def test_hasse_weil_bipartite_branch_only_even():
    report = hasse_weil_check(get_excess("kmm3", 9), 2, 6, True)
    assert report["branch"] == "bipartite"
    assert [r["k"] for r in report["records"]] == [2, 4, 6, 8]


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES)
def test_hasse_weil_holds_on_ramanujan_fixtures(name):
    g = get_graph(name)
    prof = get_profile(name)
    report = hasse_weil_check(get_excess(name, 40), prof.q, g.n, prof.bipartite)
    assert report["all_satisfied"]


def test_hasse_weil_is_exact_at_the_bound():
    # n=10, q=2: lhs on the bound is satisfied, one past it is not, where a
    # relative slack of 1e-9 would still have passed it
    n, q, K = 10, 2, 61
    nk = [q ** k + 1 + (n * (q - 1) if k % 2 == 0 else 0) for k in range(1, K + 1)]
    even_bound = 2 * (n - 1) * q ** 30  # k = 60: 19327352832
    odd_bound = math.isqrt(4 * (n - 1) ** 2 * q ** 61)  # k = 61, floor
    for lhs, expected in ((0, True), (1, False)):
        nk[59] = q ** 60 + 1 + n * (q - 1) + even_bound + lhs
        nk[60] = q ** 61 + 1 + odd_bound + lhs
        records = _hasse_weil(nk, q, n, False)["records"]
        assert (records[59]["k"], records[59]["lhs"]) == (60, str(even_bound + lhs))
        assert (records[60]["k"], records[60]["lhs"]) == (61, str(odd_bound + lhs))
        assert records[59]["satisfied"] is expected
        assert records[60]["satisfied"] is expected
    assert _hasse_weil(nk, q, n, False)["first_violation_k"] == 60


def test_hasse_weil_bipartite_is_exact_at_the_bound():
    n, q = 6, 2
    nk = [0] * 8
    nk[7] = n * (q - 1) + 2 * q ** 8 + 2 + 2 * (n - 2) * q ** 4
    assert _hasse_weil(nk, q, n, True)["records"][3]["satisfied"]
    nk[7] += 1
    assert not _hasse_weil(nk, q, n, True)["records"][3]["satisfied"]


def test_hasse_weil_violated_on_prism24():
    report = hasse_weil_check(get_excess("prism24", 60), 2, 48, True)
    assert not report["all_satisfied"]
    first = report["first_violation_k"]
    assert first is not None and first <= 60


# ---------------------------------------------------------------------------
# upper bound on h_k

def test_hk_upper_petersen():
    assert hk_upper_bound(10, False) == 36
    assert _hk_upper("petersen", 100)


def test_hk_upper_kmm3_attained():
    seq = get_hk_routes("kmm3", 100)["spectral"]
    assert hk_upper_bound(6, True) == 16
    assert _hk_upper("kmm3", 100)
    assert seq[1] == pytest.approx(16.0, abs=1e-10)


def test_hk_upper_cycle5():
    seq = get_hk_routes("cycle5", 100)["spectral"]
    assert _hk_upper("cycle5", 100)
    assert float(np.max(seq)) <= 16 + 1e-9


def test_hk_upper_is_exact_at_the_cap():
    # n=10, q=2: h_60 = 2 base = 36 passes; one count fewer gives
    # h_60 = 36 + 2^-30, which fails, where a relative slack of 1e-9 would
    # still have passed it
    n, q, K, base = 10, 2, 60, 18
    nk = _synthetic_nk(n, q, K, False, 60, base * q ** 30)
    assert _h(nk, q, n, False, 60) == 36.0
    assert hk_upper_check(hk_excess(nk, q, n, False))
    assert _hasse_weil(nk, q, n, False)["all_satisfied"]
    nk[59] -= 1
    assert _h(nk, q, n, False, 60) == 36.0 + 2.0 ** -30
    assert not hk_upper_check(hk_excess(nk, q, n, False))
    assert _hasse_weil(nk, q, n, False)["first_violation_k"] == 60
    assert _verdict(nk, q, n, False)["is_ramanujan"]


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES)
def test_tk_bounded_on_ramanujan_scaled_spectra(name):
    for s in scaled_spectrum(get_nontrivial(name)):
        for k in range(51):
            assert abs(chebyshev_T(k, float(s))) <= 2 + 1e-9


# ---------------------------------------------------------------------------
# estimator

def test_estimator_prism24():
    seq = get_hk_routes("prism24", 100)["spectral"]
    est = estimate_max_eigenvalue(seq, 2)
    target = (2 * math.cos(math.pi / 12) + 1) / math.sqrt(2)
    assert abs(est["estimate"] - target) < 1e-3
    assert est["converged"]
    assert est["k_used"] == [98, 100]
    assert est["implied_max_abs_eigenvalue"] == pytest.approx(
        2 * math.cos(math.pi / 12) + 1, abs=1e-3)
    assert est["mu"] == pytest.approx((target + math.sqrt(target ** 2 - 4)) / 2,
                                      abs=1e-3)


def test_estimator_prism30():
    seq = get_hk_routes("prism30", 100)["spectral"]
    est = estimate_max_eigenvalue(seq, 2)
    target = (2 * math.cos(math.pi / 15) + 1) / math.sqrt(2)
    assert abs(est["estimate"] - target) < 1e-3


def test_estimator_not_applicable_on_ramanujan():
    seq = get_hk_routes("petersen", 60)["spectral"]
    assert estimate_max_eigenvalue(seq, 2) == {
        "status": "not_applicable",
        "detail": "no negative even h_k up to K=60; "
                  "graph appears Ramanujan at this horizon"}


def test_estimator_synthetic_exact_ratio():
    mu = 1.5
    values = [1.0 if k % 2 else -(mu ** k) for k in range(1, 13)]
    est = estimate_max_eigenvalue(np.array(values), 2)
    assert est["estimate"] == pytest.approx(mu + 1 / mu, rel=1e-12)
    assert est["mu"] == pytest.approx(mu, rel=1e-10)


def test_estimator_sign_mismatch():
    values = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0]  # lone negative h_2
    assert estimate_max_eigenvalue(np.array(values), 2) == {
        "status": "sign_mismatch",
        "detail": "negative even h_k present but never in adjacent pairs; "
                  "increase the horizon"}
