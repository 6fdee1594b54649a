"""ramanujan-analysis: verdicts, bounds, Hasse-Weil records, estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharazeta.analysis import (DomainError, EstimatorNotApplicable,
                                EstimatorSignMismatch, estimate_max_eigenvalue,
                                even_k_bound, hasse_weil_check, hk_upper_bound,
                                hk_upper_check, multiset_bound, ramanujan_hk,
                                ramanujan_spectral)
from iharazeta.hk import HkSequence, chebyshev_T
from iharazeta.spectral import scaled_spectrum

from conftest import (ACCEPTANCE_FIXTURES, NON_RAMANUJAN_FIXTURES,
                      RAMANUJAN_FIXTURES, get_census, get_graph,
                      get_hk_routes, get_nontrivial, get_profile)


def _seq(values, q=2, n=10, bipartite=False):
    return HkSequence(values=np.asarray(values, dtype=float), route="spectral",
                      q=q, n=n, bipartite=bipartite)


# ---------------------------------------------------------------------------
# spectral verdict

def test_spectral_verdict_petersen():
    v = ramanujan_spectral(get_nontrivial("petersen"), 2)
    assert v.is_ramanujan
    assert v.max_nontrivial_abs == pytest.approx(2.0, abs=1e-10)
    assert v.threshold == pytest.approx(2 * math.sqrt(2))


def test_spectral_verdict_kmm3():
    v = ramanujan_spectral(get_nontrivial("kmm3"), 2)
    assert v.is_ramanujan and v.max_nontrivial_abs == pytest.approx(0.0, abs=1e-10)


def test_spectral_verdict_prism24():
    v = ramanujan_spectral(get_nontrivial("prism24"), 2)
    assert not v.is_ramanujan
    assert v.max_nontrivial_abs == pytest.approx(2 * math.cos(math.pi / 12) + 1,
                                                 abs=1e-9)
    assert v.witness is not None


# ---------------------------------------------------------------------------
# h_k verdict

def test_hk_verdict_petersen():
    v = ramanujan_hk(get_hk_routes("petersen", 40)["from_ck"])
    assert v.is_ramanujan and v.horizon == 40 and v.witness is None


def test_hk_verdict_prism24_refutes_with_even_witness():
    v = ramanujan_hk(get_hk_routes("prism24", 40)["from_ck"])
    assert not v.is_ramanujan
    assert v.witness is not None and v.witness % 2 == 0


def test_hk_verdict_kmm3_boundary_zero():
    v = ramanujan_hk(get_hk_routes("kmm3", 40)["from_ck"])
    assert v.is_ramanujan


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES)
def test_verdicts_never_disagree_ramanujan(name):
    # spectral certification implies no negative h_k to K = 100
    assert ramanujan_spectral(get_nontrivial(name), get_profile(name).q).is_ramanujan
    seq = get_hk_routes(name, 100)["spectral"]
    assert ramanujan_hk(seq).is_ramanujan


@pytest.mark.parametrize("name", NON_RAMANUJAN_FIXTURES)
def test_verdicts_never_disagree_non_ramanujan(name):
    assert not ramanujan_spectral(get_nontrivial(name), get_profile(name).q).is_ramanujan
    v = ramanujan_hk(get_hk_routes(name, 100)["spectral"])
    assert not v.is_ramanujan and v.witness <= 60


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
        if seq.h(k) >= 0:
            assert worst <= even_k_bound(k, g.n, prof.q, prof.bipartite) + 1e-9


# ---------------------------------------------------------------------------
# Hasse-Weil records

def test_hasse_weil_petersen_k5():
    report = hasse_weil_check(get_census("petersen", 5).nk, 2, 10, False)
    rec = report.records[4]
    assert rec.k == 5 and rec.lhs == 87
    assert rec.rhs == pytest.approx(2 * 9 * 2 ** 2.5, rel=1e-12)
    assert rec.satisfied


def test_hasse_weil_kmm3_tight_equality():
    report = hasse_weil_check(get_census("kmm3", 2).nk, 2, 6, True)
    rec = report.records[0]
    assert rec.k == 2 and rec.lhs == 16 and rec.rhs == 16.0 and rec.satisfied


def test_hasse_weil_bipartite_branch_only_even():
    report = hasse_weil_check(get_census("kmm3", 9).nk, 2, 6, True)
    assert report.branch == "bipartite"
    assert [r.k for r in report.records] == [2, 4, 6, 8]


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES)
def test_hasse_weil_holds_on_ramanujan_fixtures(name):
    g = get_graph(name)
    prof = get_profile(name)
    report = hasse_weil_check(get_census(name, 40).nk, prof.q, g.n, prof.bipartite)
    assert report.all_satisfied


def test_hasse_weil_violated_on_prism24():
    report = hasse_weil_check(get_census("prism24", 60).nk, 2, 48, True)
    assert not report.all_satisfied
    assert report.first_violation is not None and report.first_violation <= 60


# ---------------------------------------------------------------------------
# upper bound on h_k

def test_hk_upper_petersen():
    seq = get_hk_routes("petersen", 100)["spectral"]
    assert hk_upper_bound(10, False) == 36
    assert hk_upper_check(seq, 10, False)


def test_hk_upper_kmm3_attained():
    seq = get_hk_routes("kmm3", 100)["spectral"]
    assert hk_upper_bound(6, True) == 16
    assert hk_upper_check(seq, 6, True)
    assert seq.h(2) == pytest.approx(16.0, abs=1e-10)


def test_hk_upper_cycle5():
    seq = get_hk_routes("cycle5", 100)["spectral"]
    assert hk_upper_check(seq, 5, False)
    assert float(np.max(seq.values)) <= 16 + 1e-9


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
    assert abs(est.estimate - target) < 1e-3
    assert est.converged
    assert est.k_used == (98, 100)
    assert est.implied_max_abs_eigenvalue == pytest.approx(
        2 * math.cos(math.pi / 12) + 1, abs=1e-3)
    assert est.mu == pytest.approx((target + math.sqrt(target ** 2 - 4)) / 2,
                                   abs=1e-3)


def test_estimator_prism30():
    seq = get_hk_routes("prism30", 100)["spectral"]
    est = estimate_max_eigenvalue(seq, 2)
    target = (2 * math.cos(math.pi / 15) + 1) / math.sqrt(2)
    assert abs(est.estimate - target) < 1e-3


def test_estimator_not_applicable_on_ramanujan():
    seq = get_hk_routes("petersen", 60)["spectral"]
    with pytest.raises(EstimatorNotApplicable):
        estimate_max_eigenvalue(seq, 2)


def test_estimator_synthetic_exact_ratio():
    mu = 1.5
    values = [1.0 if k % 2 else -(mu ** k) for k in range(1, 13)]
    est = estimate_max_eigenvalue(_seq(values), 2)
    assert est.estimate == pytest.approx(mu + 1 / mu, rel=1e-12)
    assert est.mu == pytest.approx(mu, rel=1e-10)


def test_estimator_sign_mismatch():
    values = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0]  # lone negative h_2
    with pytest.raises(EstimatorSignMismatch):
        estimate_max_eigenvalue(_seq(values), 2)
