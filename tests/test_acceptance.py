"""Acceptance gate: every criterion as a dedicated test at its stated
tolerance, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time

import numpy as np

from iharazeta.analysis import (estimate_max_eigenvalue, even_k_bound,
                                hasse_weil_check, hk_upper_bound,
                                ramanujan_spectral)
from iharazeta.census import (build_census, characteristic_polynomial,
                              geodesic_cycles_bruteforce,
                              geodesic_cycles_operator)
from iharazeta.graphs import adjacency_matrix, profile
from iharazeta.hk import (chebyshev_T, chebyshev_T_binomial,
                          chebyshev_T_even_form, hk_excess, hk_from_ck,
                          hk_spectral, max_route_deviation)
from iharazeta.spectral import (eigenvalues_symmetric, nontrivial_spectrum,
                                scaled_spectrum)
from iharazeta.zetaxi import (bass_determinant, functional_equation_points,
                              functional_equation_residual, xi_rational,
                              hk_series, zeta_inverse)

from conftest import (ACCEPTANCE_FIXTURES, SMALL_FIXTURES, get_census,
                      get_excess, get_graph, get_hk_routes, get_nontrivial,
                      get_profile, spectral_nk)

RAMANUJAN_SET = ["petersen", "kmm3", "k4", "hypercube3"]


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_route_agreement_under_30s():
    # fresh computation, no caches, so the timing is honest
    t0 = time.perf_counter()
    worst = 0.0
    for name in ACCEPTANCE_FIXTURES:
        g = get_graph(name)
        prof = profile(g)
        q, n = prof.q, g.n
        spectrum = eigenvalues_symmetric(adjacency_matrix(g), prof.bipartition)
        ns = nontrivial_spectrum(spectrum, prof)
        census = build_census(g, q, 40)
        seqs = [
            hk_spectral(scaled_spectrum(ns), 40, prof.bipartite),
            hk_from_ck(hk_excess(census.nk, q, n, prof.bipartite), q, n,
                       prof.bipartite, 40),
            hk_series(xi_rational(zeta_inverse(ns), q), 40),
        ]
        worst = max(worst, max_route_deviation(seqs))
    elapsed = time.perf_counter() - t0
    _verdict(1, f"three h_k routes agree to 1e-6 for k<=40 "
                f"(max dev {worst:.2e}, {elapsed:.1f}s)",
             worst <= 1e-6 and elapsed < 30.0)


def test_criterion_02_geodesic_cycle_oracle():
    ok = True
    for name in SMALL_FIXTURES:
        g = get_graph(name)
        if g.n > 12:
            continue
        census = get_census(name, 8)
        operator = geodesic_cycles_operator(g, 8)
        # N_k as the spectral h_k route pins it within its error budget
        pinned = spectral_nk(name, 8)
        for k in range(1, 9):
            brute = geodesic_cycles_bruteforce(g, k)
            ok = ok and brute == operator[k - 1] == census.nk[k - 1] == pinned[k - 1]
    ok = ok and get_census("k4", 3).nk[2] == 24
    ok = ok and get_census("petersen", 5).nk[4] == 120
    ok = ok and get_census("cycle5", 5).nk[4] == 10
    ok = ok and all(get_census(n, 2).nk[1] == 0
                    for n in ["k4", "cycle5", "cycle6", "petersen", "kmm3",
                              "hypercube3", "prism6", "prism24"])
    _verdict(2, "brute force == operator == C_k conversion == the spectral "
                "h_k's pinned N_k for n<=12, k<=8, plus spot values", ok)


def test_criterion_03_functional_equation():
    worst = 0.0
    for name in ACCEPTANCE_FIXTURES:
        q = get_profile(name).q
        xi = xi_rational(zeta_inverse(get_nontrivial(name)), q)
        for u in functional_equation_points(100, seed=42):
            worst = max(worst, functional_equation_residual(xi, float(u)))
    _verdict(3, f"xi(1/(qu)) matches xi(u) at 100 seeded points per fixture "
                f"(max residual {worst:.2e})", worst < 1e-8)


def test_criterion_04_sign_directions():
    ok = True
    for name in RAMANUJAN_SET:
        assert ramanujan_spectral(get_nontrivial(name),
                                  get_profile(name).q)["is_ramanujan"]
        seq = get_hk_routes(name, 100)["spectral"]
        ok = ok and bool(np.all(seq >= -1e-8))
    witnesses = {}
    for name in ["prism24", "prism30"]:
        seq = get_hk_routes(name, 60)["from_ck"]
        negative_even = [k for k in range(2, 61, 2) if seq[k - 1] < 0]
        witnesses[name] = negative_even[0] if negative_even else None
        ok = ok and bool(negative_even)
    _verdict(4, f"Ramanujan fixtures keep h_k >= -1e-8 to k=100; prisms go "
                f"negative at even k {witnesses}", ok)


def test_criterion_05_even_k_bound_property():
    ok = True
    for name in ACCEPTANCE_FIXTURES:
        g = get_graph(name)
        prof = get_profile(name)
        seq = get_hk_routes(name, 40)["from_ck"]
        worst_lam = get_nontrivial(name).max_abs()
        for k in range(2, 41, 2):
            if seq[k - 1] >= 0:
                bound = even_k_bound(k, g.n, prof.q, prof.bipartite)
                ok = ok and worst_lam <= bound + 1e-9
    _verdict(5, "h_k >= 0 at even k implies the (1 + radical) * sqrt(q) "
                "eigenvalue bound, all fixtures, even k <= 40", ok)


def test_criterion_06_hasse_weil():
    ok = True
    for name in ["petersen", "kmm3", "k4", "hypercube3", "cycle5", "cycle6",
                 "prism6"]:
        g = get_graph(name)
        prof = get_profile(name)
        report = hasse_weil_check(get_excess(name, 40), prof.q, g.n,
                                  prof.bipartite)
        ok = ok and report["all_satisfied"]
    kmm = hasse_weil_check(get_excess("kmm3", 2), 2, 6, True)
    ok = ok and kmm["records"][0]["lhs"] == "16" \
        and kmm["records"][0]["rhs"] == 16.0 and kmm["records"][0]["satisfied"]
    prism = hasse_weil_check(get_excess("prism24", 60), 2, 48, True)
    first = prism["first_violation_k"]
    ok = ok and first is not None and first <= 60
    _verdict(6, f"bounds hold to k=40 on Ramanujan fixtures (K33 k=2 tight "
                f"at 16=16); prism24 violates by k={first}", ok)


def test_criterion_07_estimator():
    seq = get_hk_routes("prism24", 100)["spectral"]
    est = estimate_max_eigenvalue(seq, 2)
    target = (2 * math.cos(math.pi / 12) + 1) / math.sqrt(2)
    err = abs(est["estimate"] - target)
    _verdict(7, f"prism24 K=100 estimator error {err:.2e} vs target "
                f"{target:.6f}", err < 1e-3)


def test_criterion_08_chebyshev_identity_suite():
    ok = True
    for x in (0.5, 1.3, -2.0, 3.0):          # T_k(x + 1/x) = x^k + x^-k
        for k in range(31):
            ok = ok and abs(chebyshev_T(k, x + 1 / x) - (x ** k + x ** -k)) \
                < 1e-8 * (abs(x) ** k + abs(x) ** -k)
    for x in (0.7, -0.7, 2.5, -2.5):         # alternating binomial expansion
        for k in range(26):
            ok = ok and abs(chebyshev_T(k, x) - chebyshev_T_binomial(k, x)) \
                <= 1e-8 * max(1.0, abs(chebyshev_T(k, x)))
    for theta in (0.0, math.pi / 7, math.pi / 3, 2.1):   # cosine form
        for k in range(51):
            ok = ok and abs(chebyshev_T(k, 2 * math.cos(theta))
                            - 2 * math.cos(k * theta)) < 1e-9
    for s in np.linspace(-2.0, 2.0, 41):     # bounded on [-2, 2]
        for k in range(51):
            ok = ok and abs(chebyshev_T(k, float(s))) <= 2 + 1e-9
    for x in (0.7, -0.7, 2.5, -2.5):         # even-power form
        for k in range(26):
            ok = ok and abs(chebyshev_T(k, x) - chebyshev_T_even_form(k, x)) \
                <= 1e-8 * max(1.0, abs(chebyshev_T(k, x)))
    for s in (2.01, -2.01, 3.0, -3.0):       # positive at even k beyond band
        for k in range(0, 51, 2):
            ok = ok and chebyshev_T(k, s) > 0
    _verdict(8, "T_k identity suite (power-sum, binomial, cosine, bounded, "
                "even-power, positivity) at listed grids", ok)


def test_criterion_09_hk_upper_bound():
    ok = True
    for name in ["petersen", "kmm3", "k4", "hypercube3", "cycle5", "cycle6",
                 "prism6"]:
        g = get_graph(name)
        prof = get_profile(name)
        seq = get_hk_routes(name, 100)["spectral"]
        bound = hk_upper_bound(g.n, prof.bipartite)
        ok = ok and bool(np.all(seq <= bound * (1 + 1e-9)))
    kmm_seq = get_hk_routes("kmm3", 100)["spectral"]
    ok = ok and abs(kmm_seq[1] - 16.0) < 1e-9  # attains 4(n-2)
    _verdict(9, "Ramanujan fixtures keep h_k <= 4(n-1)/4(n-2) to k=100, "
                "K33 attains 16 at k=2", ok)


def test_criterion_10_zeta_consistency():
    ok = True
    for name in ACCEPTANCE_FIXTURES:
        g = get_graph(name)
        q = get_profile(name).q
        # the exact form: P = (1-u^2)^(n(q-1)/2) times the determinant
        det = bass_determinant(characteristic_polynomial(
            get_census(name, g.n).c[1:]), q)
        e = g.n * (q - 1) // 2
        ok = ok and len(det) - 1 + 2 * e == g.n * (q + 1)
        ok = ok and det[0] == 1
        # -P'/P in integers, P_0 = 1: P s = -P' gives s_k = -(k+1) P_(k+1)
        # - sum_(j=1..k) P_j s_(k-j), and N_k is the coefficient s_(k-1)
        p = [sum((-1) ** i * math.comb(e, i) * det[m - 2 * i]
                 for i in range(m // 2 + 1) if m - 2 * i < len(det))
             for m in range(11)]
        s = []
        for k in range(10):
            s.append(-(k + 1) * p[k + 1]
                     - sum(p[j] * s[k - j] for j in range(1, k + 1)))
        ok = ok and s == list(get_census(name, 10).nk)
    _verdict(10, "-d/du ln(Z^-1), in integers from the exact Z^-1, reproduces "
                 "N_k for k<=10; degree n(q+1), constant term 1", ok)
