"""zeta-xi: rational-function forms, functional equation, series routes."""

import functools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iharazeta
from fractions import Fraction

from iharazeta.census import build_census, characteristic_polynomial
from iharazeta.zetaxi import (Factors, PoleHit, RationalFunction,
                              bass_determinant,
                              functional_equation_points,
                              functional_equation_residual, hk_series,
                              log_series_zeta_check, relative_gap,
                              xi_rational, zeta_inverse)

from iharazeta.hk import (hk_excess, hk_from_ck, hk_spectral, hk_spectral_budget,
                          max_route_deviation)
from iharazeta.spectral import scaled_spectrum

from conftest import (ACCEPTANCE_FIXTURES, ALL_FIXTURES, BIPARTITE_GRAPHS,
                      RAMANUJAN_FIXTURES, get_census, get_graph, get_hk_routes,
                      get_nontrivial, get_profile, get_spectrum, spectral_nk)


def iconv(*polys):
    """Exact integer/rational convolution oracle for expansions."""
    out = [1]
    for p in polys:
        res = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                res[i + j] += a * b
        out = res
    return out


def expand(f: Factors) -> np.ndarray:
    """The product of f's rows as one float64 array, ascending in u, by
    functools.reduce(np.convolve) over the rows repeated by their powers; a
    product in w = u^2 is expanded in w and spread over the even powers."""
    rows = [row if row[2] else row[:2]
            for row, e in zip(f.coefficients, f.powers.tolist()) for _ in range(e)]
    out = functools.reduce(np.convolve, rows, np.ones(1))
    if f.in_w:
        spread = np.zeros(2 * len(out) - 1)
        spread[::2] = out
        return spread
    return out


def exact_determinant(g, q):
    """det(I - uA + qu^2 I) from the census to horizon n, as `ihara zeta`
    takes it."""
    return bass_determinant(characteristic_polynomial(build_census(g, q, g.n).c[1:]), q)


def over_one(f: Factors) -> RationalFunction:
    """The product of f's rows, over (1 - sqrt(0) u)^0 = 1, which has no pole."""
    return RationalFunction(f, 0, 0)


def polynomial(*coefficients):
    """One factor of degree <= 2 as a rational function over 1."""
    padded = tuple(coefficients) + (0.0,) * (3 - len(coefficients))
    return over_one(Factors.from_rows(padded + (1,)))


# ---------------------------------------------------------------------------
# factor arrays and their expansion

def test_poly_derivative_and_eval():
    p = polynomial(1, -3, 2)  # 1 - 3u + 2u^2
    assert p(0.5) == 1 - 1.5 + 0.5  # an exact zero
    assert p.log2_sign(0.5) == (-math.inf, 0.0)
    assert p(0.25) == pytest.approx(1 - 0.75 + 0.125, rel=1e-15)


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=8),
       st.integers(1, 7), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_expanded_product_evaluates_like_its_factors(roots, q, x):
    # chi = prod (x - lam) over integer roots: the Horner substitution gives
    # exactly the product of the rows 1 - lam*u + q*u^2, which evaluates like
    # the factors, each accurate up to its scale 1 + |lam x| + q x^2
    chi = functools.reduce(np.polymul, [[1, -lam] for lam in roots], [1])
    d = bass_determinant([int(a) for a in chi], q)
    assert d == iconv(*([1, -lam, q] for lam in roots))
    n = len(roots)
    assert all(d[2 * n - j] == q ** (n - j) * d[j] for j in range(n + 1))
    f = Factors.from_rows(*((1.0, float(-lam), float(q), 1) for lam in roots))
    value = over_one(f)(x)
    exact = float(sum(c * Fraction(x) ** i for i, c in enumerate(d)))
    scale = math.prod(1 + abs(lam * x) + q * x * x for lam in roots)
    assert exact == pytest.approx(value, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# Z(u)^-1: the exact determinant from the census

def test_zeta_inverse_k4_exact_expansion():
    # (1-u^2)^2 (1-3u+2u^2) (1+u+2u^2)^3, degree 12, constant term 1
    det = exact_determinant(get_graph("k4"), 2)
    assert det == iconv([1, -3, 2], [1, 1, 2], [1, 1, 2], [1, 1, 2])
    assert iconv([1, 0, -2, 0, 1], det) == iconv(
        [1, 0, -2, 0, 1], [1, -3, 2], [1, 1, 2], [1, 1, 2], [1, 1, 2])
    assert _check_exact_determinant(get_graph("k4"), 2)[1] == 2
    f = zeta_inverse(get_nontrivial("k4"))
    assert f.powers.tolist() == [1, 1, 1, 1, 2]  # (1 - u^2)^2 last


def test_zeta_inverse_cycle4():
    # q = 1: no (1 - u^2) factor, and the determinant is all of Z(u)^-1
    det = exact_determinant(get_graph("cycle4"), 1)
    assert det == iconv([1, -2, 1], [1, 0, 1], [1, 0, 1], [1, 2, 1])
    assert _check_exact_determinant(get_graph("cycle4"), 1)[1] == 0
    # rows in w: one for the nontrivial pair 0, 0 and one for +/-2
    assert len(zeta_inverse(get_nontrivial("cycle4")).powers) == 2


def _check_exact_determinant(g, q):
    det = exact_determinant(g, q)
    n, e = g.n, g.n * (q - 1) // 2
    assert det[0] == 1 and len(det) == 2 * n + 1
    assert len(det) - 1 + 2 * e == n * (q + 1)
    assert all(det[2 * n - j] == q ** (n - j) * det[j] for j in range(n + 1))
    return det, e


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_zeta_inverse_degree_and_constant(name):
    # the exact form: constant term 1, degree n(q+1), the functional
    # equation coefficient by coefficient, and the same values as the
    # product of (1 - lam*u + q*u^2) over the float spectrum and as the
    # factors of zeta_inverse
    g = get_graph(name)
    q = get_profile(name).q
    det, e = _check_exact_determinant(g, q)
    factors = over_one(zeta_inverse(get_nontrivial(name)))
    for u in (Fraction(1, 10), Fraction(-1, 5)):
        exact = (1 - u * u) ** e * sum(c * u ** i for i, c in enumerate(det))
        x = float(u)
        product = (1 - x * x) ** e * np.prod(1 - get_spectrum(name) * x + q * x * x)
        assert product == pytest.approx(float(exact), rel=1e-9)
        assert factors(x) == pytest.approx(float(exact), rel=1e-9)


# the graphs of scripts/check_ladder.py with n <= 64
LADDER_UP_TO_64 = ["petersen", "cycle:7", "complete:6", "complete:10",
                   "complete:16", "complete:30", "complete:60", "kmm:6",
                   "kmm:10", "kmm:30", "hypercube:4", "hypercube:5",
                   "hypercube:6", "prism:16", "prism:20", "prism:24",
                   "circulant:12:1,3", "circulant:20:1,3,5", "circulant:30:1,4"]
# the fixtures that neither the ladder nor the acceptance fixtures cover,
# three of them with loops or multi-edges
OTHER_FIXTURES = ["cycle4", "prism30", "double_triangle", "looped_cycle4",
                  "doubled_cycle4"]


@pytest.mark.parametrize("spec", LADDER_UP_TO_64 + OTHER_FIXTURES)
def test_exact_determinant_functional_equation_on_the_ladder(spec):
    # d_(2n-j) = q^(n-j) d_j: the functional equation, exactly
    g = get_graph(spec)
    assert g.n <= 64
    _check_exact_determinant(g, get_profile(spec).q)


@pytest.mark.parametrize("name", ["k4", "petersen", "kmm3", "hypercube3"])
def test_nontrivial_pole_moduli_on_ramanujan_fixtures(name):
    # every root of (1 - lam*u + q*u^2) with lam nontrivial has |u| = q^-1/2
    q = get_profile(name).q
    for lam in get_nontrivial(name).values:
        roots = np.roots([q, -lam, 1.0])
        assert np.allclose(np.abs(roots), q ** -0.5, atol=1e-6)


# ---------------------------------------------------------------------------
# xi

def test_xi_kmm3_form():
    xi = xi_rational(zeta_inverse(get_nontrivial("kmm3")), 2)
    assert np.allclose(expand(xi.num),
                       functools.reduce(np.convolve, [[1, 0, 2]] * 4),
                       rtol=1e-9, atol=1e-9)
    # over (1 - sqrt(2) u)^8: twice the numerator's degree 4 in w
    assert (xi.q, xi.degree) == (2, 8)
    u = 0.3
    assert xi(u) == pytest.approx(
        np.polyval(expand(xi.num)[::-1], u) / (1 - math.sqrt(2) * u) ** 8, rel=1e-12)


def test_xi_petersen_form():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    expected = functools.reduce(np.convolve, [[1, -1, 2]] * 5 + [[1, 2, 2]] * 4)
    assert np.allclose(expand(xi.num), expected,
                       rtol=1e-8, atol=1e-6)
    assert (xi.q, xi.degree) == (2, 18)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_xi_is_one_at_origin(name):
    xi = xi_rational(zeta_inverse(get_nontrivial(name)), get_profile(name).q)
    assert xi(0.0) == pytest.approx(1.0, abs=1e-12)


def xi_from_zeta(name: str, points) -> tuple[np.ndarray, np.ndarray]:
    """log2|Xi(u)| and the sign of Xi(u) at each float u of points, from the
    exact Z(u)^-1 over the paper's prefactor: Xi(u)^-1 = Z(u) (1-u^2)^e
    (1-u)(1-qu) (1 - sqrt(q) u)^(2n-2), e = n(q-1)/2, or Z(u) (1-u^2)^(e+1)
    (1-q^2 u^2) (1 - sqrt(q) u)^(2n-4) when bipartite.  All but the even
    power of 1 - sqrt(q) u is a quotient of integer polynomials, taken in
    Fractions at the exact value of u."""
    g, prof = get_graph(name), get_profile(name)
    q, n = prof.q, g.n
    e, det = n * (q - 1) // 2, exact_determinant(g, q)
    log2, sign = [], []
    for x in points:
        u = Fraction(x)
        zeta_inverse = (1 - u * u) ** e * sum(c * u ** i for i, c in enumerate(det))
        if prof.bipartite:
            rational = zeta_inverse / ((1 - u * u) ** (e + 1) * (1 - q * q * u * u))
        else:
            rational = zeta_inverse / ((1 - u * u) ** e * (1 - u) * (1 - q * u))
        power = 2 * n - (4 if prof.bipartite else 2)
        log2.append(math.log2(abs(rational.numerator)) - math.log2(rational.denominator)
                    - power * math.log2(abs(1 - math.sqrt(q) * x)))
        sign.append(math.copysign(1.0, rational))
    return np.array(log2), np.array(sign)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_xi_from_zeta_agrees_with_direct_form(name):
    # the exact Z(u)^-1 from the census and the float nontrivial spectrum
    # give one Xi, unless the prefactor is wrong or a trivial eigenvalue is
    # off q+1
    direct = xi_rational(zeta_inverse(get_nontrivial(name)), get_profile(name).q)
    rng = np.random.default_rng(7)
    u = np.concatenate(([0.12, -0.21, 0.3],
                        rng.uniform(0.05, 0.35, 20) * rng.choice([-1, 1], 20)))
    gaps = relative_gap(*direct.log2_sign(u), *xi_from_zeta(name, u.tolist()))
    assert np.all(gaps <= 1e-9), u[np.argmax(gaps)]


# ---------------------------------------------------------------------------
# functional equation

def test_functional_equation_petersen_spot():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    assert functional_equation_residual(xi, 0.1) < 1e-9


def test_functional_equation_kmm3_negative_u():
    xi = xi_rational(zeta_inverse(get_nontrivial("kmm3")), 2)
    assert functional_equation_residual(xi, -0.2) < 1e-9


def test_functional_equation_fixed_point_is_the_pole():
    # u = q^-1/2 maps to itself and sits exactly on the pole
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    with pytest.raises(PoleHit):
        functional_equation_residual(xi, 1 / math.sqrt(2))


@pytest.mark.parametrize("gap", [1e-13, -3e-14, 2e-15])
def test_functional_equation_residual_finite_next_to_the_pole(gap):
    # 1 - sqrt(q) u = gap, far above its rounding error of a few 1e-16:
    # Xi there passes the float range, its log2 does not.  A fixed
    # threshold of 1e-12 (1 + sqrt(q)|u|) called such points poles
    xi = xi_rational(zeta_inverse(get_nontrivial("prism30")), 2)
    u = (1.0 - gap) / math.sqrt(2)
    assert 1e-15 < abs(1.0 - math.sqrt(2) * u) < 1e-12
    assert math.isfinite(functional_equation_residual(xi, u))
    log2, _ = xi.log2_sign(u)
    assert log2 > 1024  # past the float range


@pytest.mark.parametrize("q", [2, 3, 5, 13, 1399, 9999])
def test_exact_pole_still_raises(q):
    rf = RationalFunction(Factors.from_rows((1.0, 0.0, float(q), 1)), q, 2)
    with pytest.raises(PoleHit):
        rf.log2_sign(1.0 / math.sqrt(q))
    with pytest.raises(PoleHit):
        rf.log2_sign(np.array([0.1, 1.0 / math.sqrt(q)]))


def test_functional_equation_near_fixed_point():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    assert functional_equation_residual(xi, 1 / math.sqrt(2) + 0.02) < 1e-10


def test_functional_equation_rejects_zero():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    with pytest.raises(ValueError):
        functional_equation_residual(xi, 0.0)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_functional_equation_hundred_points(name):
    q = get_profile(name).q
    xi = xi_rational(zeta_inverse(get_nontrivial(name)), q)
    for u in functional_equation_points(100, seed=42):
        assert functional_equation_residual(xi, float(u)) < 1e-8


def test_functional_equation_beyond_float_range():
    # some of prism:100's xi values at the default points exceed the float range
    xi = xi_rational(zeta_inverse(get_nontrivial("prism:100")), 2)
    points = [float(u) for u in functional_equation_points(100, seed=42)]
    with pytest.raises(OverflowError):
        for u in points:
            xi(u), xi(1 / (2 * u))
    assert max(functional_equation_residual(xi, u) for u in points) < 1e-8


def test_rational_log2_beyond_float_range():
    rf = RationalFunction(Factors.from_rows((1.0, 0.0, 0.0, 1)), 1, 400)
    log2, sign = rf.log2_sign(0.9)  # 0.1^-400 = 1e400
    assert sign == 1.0
    assert log2 * math.log10(2) == pytest.approx(400.0, abs=1e-9)
    assert rf.log2_sign(0.5) == (400.0, 1.0)  # exactly 2^400
    with pytest.raises(OverflowError):
        rf(0.9)


def test_relative_gap_beyond_float_range():
    # 2^5000 against 2^5000 (1 + 2^-20); zeros and opposite signs
    assert relative_gap(5000.0, 1.0, 5000.0 + math.log2(1 + 2 ** -20), 1.0) \
        == pytest.approx(2 ** -20 / (1 + 2 ** -20), rel=1e-9)
    assert relative_gap(-math.inf, 0.0, -1.0, -1.0) == 0.5
    assert relative_gap(3.0, 1.0, 3.0, -1.0) == 2.0


@pytest.mark.parametrize("name", ["petersen", "kmm3", "prism30"])
def test_functional_equation_residual_array_matches_points(name):
    q = get_profile(name).q
    xi = xi_rational(zeta_inverse(get_nontrivial(name)), q)
    points = functional_equation_points(100, seed=42)
    together = functional_equation_residual(xi, points)
    assert together.shape == (100,)
    assert together.tolist() == [functional_equation_residual(xi, float(u))
                                 for u in points]


def test_functional_equation_residual_array_rejects_any_bad_point():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    with pytest.raises(PoleHit):
        functional_equation_residual(xi, np.array([0.1, 1 / math.sqrt(2), 0.3]))
    with pytest.raises(ValueError):
        functional_equation_residual(xi, np.array([0.1, 0.0, 0.3]))


def numpy_reference_points(count: int = 100, seed: int = 42) -> np.ndarray:
    """The functional-equation points as numpy.random drew them before the
    standard library's generator replaced it: a second, independent set."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.1, 0.9, size=count)
    return mags * np.where(rng.random(count) < 0.5, -1.0, 1.0)


# acceptance criterion 03's residual tolerance, at functional_equation_points'
# defaults: 100 points, seed 42
FE_TOL = 1e-8
FE_POINT_SETS = {"random.Random": functional_equation_points(),
                 "numpy.random": numpy_reference_points()}


@pytest.mark.parametrize("points", sorted(FE_POINT_SETS))
@pytest.mark.parametrize("name", ALL_FIXTURES + ["doubled_cycle4"])
def test_functional_equation_holds_at_either_point_set(name, points):
    # a fault in xi must show at the library's points and at the old ones alike
    q = get_profile(name).q
    xi = xi_rational(zeta_inverse(get_nontrivial(name)), q)
    assert functional_equation_residual(xi, FE_POINT_SETS[points]).max() < FE_TOL


@pytest.mark.parametrize("points", sorted(FE_POINT_SETS))
def test_functional_equation_points_keep_off_the_pole(points):
    # u = q^(-1/2) is the pole of Xi(u) and of Xi(1/(q*u)); both signs kept clear
    pole = np.arange(2, 10 ** 4 + 1) ** -0.5
    gaps = np.abs(np.abs(FE_POINT_SETS[points])[:, None] - pole)
    assert gaps.min() > 1e-6


def test_functional_equation_points_from_the_standard_library():
    rng = random.Random(42)
    mags = [0.1 + 0.8 * rng.random() for _ in range(3)]
    signs = [-1.0 if rng.random() < 0.5 else 1.0 for _ in range(3)]
    points = functional_equation_points(3, seed=42)
    assert points.dtype == np.float64
    assert points.tolist() == [s * m for s, m in zip(signs, mags)]
    assert functional_equation_points(0).shape == (0,)


def test_sample_points_deterministic():
    a = functional_equation_points(100, seed=42)
    b = functional_equation_points(100, seed=42)
    c = functional_equation_points(100, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((np.abs(a) >= 0.1) & (np.abs(a) <= 0.9))


def test_functional_equation_points_are_a_fresh_array_per_call():
    # nothing is cached: a caller that writes into its points leaves the
    # next call's points as they were drawn
    points = functional_equation_points(100, 42)
    again = functional_equation_points(100, 42)
    assert again is not points and np.array_equal(again, points)
    points[0] = 0.5
    assert functional_equation_points(100, 42)[0] == again[0] != 0.5


# ---------------------------------------------------------------------------
# series routes

def test_log_series_petersen_h1():
    xi = xi_rational(zeta_inverse(get_nontrivial("petersen")), 2)
    h = hk_series(xi, 5)
    assert h[0] == pytest.approx(18 + 3 / math.sqrt(2), rel=1e-10)


def test_log_series_kmm3_values():
    xi = xi_rational(zeta_inverse(get_nontrivial("kmm3")), 2)
    h = hk_series(xi, 6)
    assert h[0] == pytest.approx(8.0, abs=1e-9)
    assert h[3] == pytest.approx(0.0, abs=1e-9)


def test_log_series_geometric_oracle():
    # Xi(u/sqrt(q)) = 1/(1-u)^degree has d/du ln = degree sum u^k: a root
    # of multiplicity 400 costs nothing when the denominator is taken whole
    for q in (1, 4, 29):
        for degree, K in ((1, 8), (400, 200)):
            for in_w in (False, True):
                rf = RationalFunction(Factors.from_rows(in_w=in_w), q, degree)
                assert np.all(hk_series(rf, K) == float(degree))
        # the T_k table is exact only for rows 1 + c1 v + q v^2 (q^2 in w)
        bad = [((1.0, 0.0, 0.0, 1), False), ((2.0, 0.0, 2.0 * q, 1), False)]
        if q > 1:
            bad += [((1.0, 0.0, float(q * q), 1), False), ((1.0, 0.0, float(q), 1), True)]
        for row, in_w in bad:
            rf = RationalFunction(Factors.from_rows(row, in_w=in_w), q, 1)
            with pytest.raises(ValueError, match="rows 1 \\+ c1"):
                hk_series(rf, 8)


def _logder_rows_per_factor(c1, c2, K):
    # the reference recurrence, one factor at a time in Python floats
    table = []
    for a, b in zip(c1.tolist(), c2.tolist()):
        s = [0.0, 0.0]
        for k, d in enumerate([a, 2.0 * b] + [0.0] * K):
            s.append(d - (b * s[k] + a * s[k + 1]))
        table.append(s[2:2 + K])
    return np.array(table).T


def test_hk_series_matches_the_per_factor_recurrence():
    # p'/p of each rescaled row by s_k = (k+1) c_(k+1) - (c2 s_(k-2) + c1
    # s_(k-1)) agrees with the T_k table bit for bit; the reference table
    # is made contiguous, since a transposed one rounds @ differently
    K = 80
    for name in ("petersen", "complete:30", "prism:24", "kmm:6"):
        q = get_profile(name).q
        xi = xi_rational(zeta_inverse(get_nontrivial(name)), q)
        _, c1, c2 = xi.num.coefficients.T
        d1, d2, rows = (q, q * q, K // 2) if xi.num.in_w else (math.sqrt(q), q, K)
        table = np.ascontiguousarray(_logder_rows_per_factor(c1 / d1, c2 / d2, rows))
        expected = np.full(K, float(xi.degree))
        if xi.num.in_w:
            expected[1::2] += 2.0 * (table @ xi.num.powers.astype(float))
        else:
            expected += table @ xi.num.powers.astype(float)
        assert xi.num.in_w == get_profile(name).bipartite
        assert np.array_equal(hk_series(xi, K), expected)


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES + ["double_triangle",
                                                       "looped_cycle4"])
def test_hk_series_matches_exact_route_deep(name):
    # at K=150 an expanded product of xi's factors would need hundreds of
    # digits; the factor-by-factor float64 series needs none
    q = get_profile(name).q
    n = get_graph(name).n
    series = hk_series(xi_rational(zeta_inverse(get_nontrivial(name)), q), 150)
    bipartite = get_profile(name).bipartite
    exact = hk_from_ck(hk_excess(get_census(name, 150).nk, q, n, bipartite),
                       q, n, bipartite, 150)
    assert np.all(np.abs(series - exact) <= 1e-11 * np.maximum(1.0, np.abs(exact)))


def test_import_leaves_mpmath_unloaded():
    src = os.path.dirname(os.path.dirname(iharazeta.__file__))
    code = "import iharazeta, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def zeta_check(name: str, K: int, nk=None) -> tuple[dict, str | None]:
    """log_series_zeta_check of the spectral h_k against the census's, or
    against those of the N_k nk in its place, within hk_spectral_budget."""
    g, prof, ns = get_graph(name), get_profile(name), get_nontrivial(name)
    q, n = prof.q, g.n
    census = hk_from_ck(hk_excess(nk or get_census(name, K).nk, q, n, prof.bipartite),
                        q, n, prof.bipartite, K)
    spectral = hk_spectral(scaled_spectrum(ns), K, prof.bipartite)
    return log_series_zeta_check(spectral, census,
                                 hk_spectral_budget(ns.values, q, n, census), q)


def test_log_series_zeta_check_petersen():
    block, problem = zeta_check("petersen", 10)
    assert problem is None and block["ok"]
    assert block["k_checked"] == block["k_pinned"] == 10
    assert 0.0 <= block["max_residual"] <= 1.0


def test_log_series_zeta_check_k4_n3():
    block, problem = zeta_check("k4", 8)
    assert problem is None and block["ok"]
    assert get_census("k4", 8).nk[2] == 24 == spectral_nk("k4", 8)[2]


def test_log_series_zeta_check_cycle5():
    block, problem = zeta_check("cycle5", 10)
    assert problem is None and block["k_pinned"] == 10
    census = get_census("cycle5", 10)
    assert census.nk[4] == 10
    assert [census.nk[k] for k in range(9) if k != 4] == [0] * 8


def test_log_series_zeta_check_records_carry_the_budget():
    block, _ = zeta_check("complete:30", 20)
    routes = get_hk_routes("complete:30", 20)
    budget = hk_spectral_budget(get_nontrivial("complete:30").values, 28, 30,
                                routes["from_ck"])
    deviation = np.abs(routes["spectral"] - routes["from_ck"])
    assert block["max_residual"] == float(np.max(deviation / budget))
    # q^(k/2) budget passes 1/2 after k = 12: from there a census one off
    # can pass
    scaled = 28.0 ** (np.arange(1, 21) / 2) * budget
    assert block["k_pinned"] == 12 and scaled[11] < 0.5 <= scaled[12]


@pytest.mark.parametrize("shift", [1, -1])
def test_log_series_zeta_check_rejects_off_by_one_census(shift):
    # the budget pins N_k on petersen to k = 20, so a census one off at any
    # single k fails the check, which names that k
    assert zeta_check("petersen", 20)[0]["k_pinned"] == 20
    for k in range(1, 21):
        nk = list(get_census("petersen", 20).nk)
        nk[k - 1] += shift
        block, problem = zeta_check("petersen", 20, nk)
        assert block is None and problem.startswith(f"spectral h_{k} strays"), k


@pytest.mark.parametrize("name", BIPARTITE_GRAPHS)
def test_bipartite_float_routes_are_exact_at_odd_k(name):
    """Both float h_k routes give 2(n-2) at every odd k exactly, and Xi's
    numerator, a product in w = u^2, has odd coefficients exactly 0."""
    n, q, K = get_graph(name).n, get_profile(name).q, 200
    ns = get_nontrivial(name)
    xi = xi_rational(zeta_inverse(ns), q)
    spectral = hk_spectral(scaled_spectrum(ns), K, True)
    series = hk_series(xi, K)
    assert all(spectral[0::2] == float(2 * (n - 2)))
    assert all(series[0::2] == float(2 * (n - 2)))
    numerator = expand(xi.num)
    assert len(numerator) == 2 * (n - 2) + 1
    assert all(numerator[1::2] == 0.0)


@pytest.mark.parametrize("name", ["prism:20", "hypercube:7", "circulant:200:1,5,17"])
def test_bipartite_float_routes_track_the_census_to_k200(name):
    # the unpaired routes cancelled +/-lam in T_k at odd k and strayed by
    # O(1) here; the paired ones stay within a few 1e-13
    n, q, K = get_graph(name).n, get_profile(name).q, 200
    ns = get_nontrivial(name)
    exact = hk_from_ck(hk_excess(get_census(name, K).nk, q, n, True),
                       q, n, True, K)
    scale = np.maximum(1.0, np.abs(exact))
    for route in (hk_spectral(scaled_spectrum(ns), K, True),
                  hk_series(xi_rational(zeta_inverse(ns), q), K)):
        assert np.max(np.abs(route - exact) / scale) < 1e-11


def test_w_rows_evaluate_and_scale_in_u_squared():
    # 1 + 2w + w^2 = (1 + u^2)^2 over (1 - u), and 1 + 8w + 16w^2 =
    # (1 + 4u^2)^2 over (1 - 2u) at q = 4: both are (1 + u^2)^2 / (1 - u)
    # at u/sqrt(q)
    u = np.array([0.3, -0.5])
    for row, q in (((1.0, 2.0, 1.0, 1), 1), ((1.0, 8.0, 16.0, 1), 4)):
        rf = RationalFunction(Factors.from_rows(row, in_w=True), q, 1)
        log2, sign = rf.log2_sign(u)
        assert np.allclose(sign * np.exp2(log2),
                           (1 + q * u * u) ** 2 / (1 - math.sqrt(q) * u))
        assert expand(rf.num).tolist() == [1.0, 0.0, 2.0 * q, 0.0, q * q]
        # d/du ln (1 + u^2)^2 = 4u - 4u^3 + 4u^5 - ...; the denominator adds
        # -d/du ln(1 - u) = 1 + u + u^2 + ...
        assert hk_series(rf, 7).tolist() == [1.0, 5.0, 1.0, -3.0, 1.0, 5.0, 1.0]


# the largest relative deviation of hk_series from the exact from_ck route
# at K = 200; rounding the rescaled rows once keeps double roots double
SERIES_DEVIATION_K200 = {"kmm:6": 0.0, "kmm:30": 0.0, "hypercube:4": 2e-13,
                         "hypercube:6": 2e-13, "circulant:12:1,3": 2e-13,
                         "complete:30": 2e-13, "complete:60": 2e-13}


@pytest.mark.parametrize("name", sorted(SERIES_DEVIATION_K200))
def test_hk_series_digits_at_k200(name):
    n, prof, K = get_graph(name).n, get_profile(name), 200
    q, bipartite = prof.q, prof.bipartite
    exact = hk_from_ck(hk_excess(get_census(name, K).nk, q, n, bipartite),
                       q, n, bipartite, K)
    series = hk_series(xi_rational(zeta_inverse(get_nontrivial(name)), q), K)
    if SERIES_DEVIATION_K200[name] == 0.0:
        assert np.array_equal(series, exact)
    assert max_route_deviation([series, exact]) <= SERIES_DEVIATION_K200[name]
