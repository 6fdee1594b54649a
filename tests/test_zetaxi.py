"""zeta-xi: rational-function forms, functional equation, series routes."""

import dataclasses
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
from iharazeta.graphs import parse_generator, profile
from iharazeta.zetaxi import (Factors, PoleHit, RationalFunction,
                              ZeroAtOrigin, _logder_rows, bass_determinant,
                              functional_equation_points,
                              functional_equation_residual, hk_series,
                              log_series, log_series_zeta_check,
                              nk_spectral_budget, relative_gap, xi_rational,
                              zeta_inverse)

from iharazeta.hk import hk_excess, hk_from_ck, hk_spectral
from iharazeta.report import DEFAULT_SEED, FE_POINTS, FE_TOL
from iharazeta.spectral import scaled_spectrum

from conftest import (ACCEPTANCE_FIXTURES, ALL_FIXTURES, BIPARTITE_GRAPHS,
                      RAMANUJAN_FIXTURES, get_census, get_graph, get_nontrivial,
                      get_profile, get_spectrum)


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


def polynomial(*coefficients):
    """One factor of degree <= 2 as a rational function over 1."""
    padded = tuple(coefficients) + (0.0,) * (3 - len(coefficients))
    return RationalFunction(Factors.from_rows(padded + (1,)), Factors.from_rows())


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
    value = RationalFunction(f, Factors.from_rows())(x)
    exact = float(sum(c * Fraction(x) ** i for i, c in enumerate(d)))
    scale = math.prod(1 + abs(lam * x) + q * x * x for lam in roots)
    assert exact == pytest.approx(value, abs=1e-12 * scale)


def test_poly_scale_input():
    p = polynomial(1, 1, 1)
    q = p.scale_input(2.0)
    assert q.num.coefficients.tolist() == [[1.0, 2.0, 4.0]]
    assert q(0.5) == pytest.approx(p(1.0))


# ---------------------------------------------------------------------------
# zeta_inverse: the factors, and the exact determinant from the census

def test_zeta_inverse_k4_exact_expansion():
    # (1-u^2)^2 (1-3u+2u^2) (1+u+2u^2)^3, degree 12, constant term 1
    det = exact_determinant(get_graph("k4"), 2)
    assert det == iconv([1, -3, 2], [1, 1, 2], [1, 1, 2], [1, 1, 2])
    assert iconv([1, 0, -2, 0, 1], det) == iconv(
        [1, 0, -2, 0, 1], [1, -3, 2], [1, 1, 2], [1, 1, 2], [1, 1, 2])
    f = zeta_inverse(get_spectrum("k4"), 2, 4)
    assert f.powers.tolist() == [2, 1, 1, 1, 1]  # (1 - u^2)^2 first


def test_zeta_inverse_cycle4():
    # q = 1: no (1 - u^2) factor, and the determinant is all of Z(u)^-1
    det = exact_determinant(get_graph("cycle4"), 1)
    assert det == iconv([1, -2, 1], [1, 0, 1], [1, 0, 1], [1, 2, 1])
    assert len(zeta_inverse(get_spectrum("cycle4"), 1, 4).powers) == 4


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
    # float product of the factors
    g = get_graph(name)
    q = get_profile(name).q
    det, e = _check_exact_determinant(g, q)
    factors = RationalFunction(zeta_inverse(get_spectrum(name), q, g.n),
                               Factors.from_rows())
    for u in (Fraction(1, 10), Fraction(-1, 5)):
        exact = (1 - u * u) ** e * sum(c * u ** i for i, c in enumerate(det))
        assert factors(float(u)) == pytest.approx(float(exact), rel=1e-9)


# the graphs of scripts/check_ladder.py with n <= 64
LADDER_UP_TO_64 = ["petersen", "cycle:7", "complete:6", "complete:10",
                   "complete:16", "complete:30", "complete:60", "kmm:6",
                   "kmm:10", "kmm:30", "hypercube:4", "hypercube:5",
                   "hypercube:6", "prism:16", "prism:20", "prism:24",
                   "circulant:12:1,3", "circulant:20:1,3,5", "circulant:30:1,4"]


@pytest.mark.parametrize("spec", LADDER_UP_TO_64)
def test_exact_determinant_functional_equation_on_the_ladder(spec):
    g = parse_generator(spec)
    assert g.n <= 64
    _check_exact_determinant(g, profile(g).q)


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
    xi = xi_rational(get_nontrivial("kmm3"), 2)
    assert np.allclose(expand(xi.num),
                       functools.reduce(np.convolve, [[1, 0, 2]] * 4),
                       rtol=1e-9, atol=1e-9)
    s = math.sqrt(2)
    expected_den = [math.comb(8, j) * (-s) ** j for j in range(9)]
    assert np.allclose(expand(xi.den), expected_den,
                       rtol=1e-9)


def test_xi_petersen_form():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    expected = functools.reduce(np.convolve, [[1, -1, 2]] * 5 + [[1, 2, 2]] * 4)
    assert np.allclose(expand(xi.num), expected,
                       rtol=1e-8, atol=1e-6)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_xi_is_one_at_origin(name):
    xi = xi_rational(get_nontrivial(name), get_profile(name).q)
    assert xi(0.0) == pytest.approx(1.0, abs=1e-12)


def xi_from_zeta(zeta_factors: Factors, q: int, n: int,
                 bipartite: bool) -> RationalFunction:
    """Xi(u) as the factors of Z(u)^-1 over the paper's prefactor: Xi(u)^-1
    = Z(u) (1-u^2)^e (1-u)(1-qu) (1 - sqrt(q) u)^(2n-2), e = n(q-1)/2, or
    Z(u) (1-u^2)^(e+1) (1-q^2 u^2) (1 - sqrt(q) u)^(2n-4) when bipartite."""
    sq, e = math.sqrt(q), n * (q - 1) // 2
    if bipartite:
        prefactor = Factors.from_rows((1.0, 0.0, -float(q * q), 1),
                                      (1.0, -sq, 0.0, 2 * n - 4),
                                      (1.0, 0.0, -1.0, e + 1))
    else:
        prefactor = Factors.from_rows((1.0, -1.0, 0.0, 1), (1.0, -float(q), 0.0, 1),
                                      (1.0, -sq, 0.0, 2 * n - 2), (1.0, 0.0, -1.0, e))
    return RationalFunction(zeta_factors, prefactor)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_xi_from_zeta_agrees_with_direct_form(name):
    # one float spectrum builds both, so they differ only if the prefactor
    # is wrong or a trivial eigenvalue is off q+1
    g = get_graph(name)
    prof = get_profile(name)
    via_zeta = xi_from_zeta(zeta_inverse(get_spectrum(name), prof.q, g.n),
                            prof.q, g.n, prof.bipartite)
    direct = xi_rational(get_nontrivial(name), prof.q)
    rng = np.random.default_rng(7)
    u = np.concatenate(([0.12, -0.21, 0.3],
                        rng.uniform(0.05, 0.35, 20) * rng.choice([-1, 1], 20)))
    gaps = relative_gap(*direct.log2_sign(u), *via_zeta.log2_sign(u))
    assert np.all(gaps <= 1e-9), u[np.argmax(gaps)]


# ---------------------------------------------------------------------------
# functional equation

def test_functional_equation_petersen_spot():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    assert functional_equation_residual(xi, 2, 0.1) < 1e-9


def test_functional_equation_kmm3_negative_u():
    xi = xi_rational(get_nontrivial("kmm3"), 2)
    assert functional_equation_residual(xi, 2, -0.2) < 1e-9


def test_functional_equation_fixed_point_is_the_pole():
    # u = q^-1/2 maps to itself and sits exactly on the pole
    xi = xi_rational(get_nontrivial("petersen"), 2)
    with pytest.raises(PoleHit):
        functional_equation_residual(xi, 2, 1 / math.sqrt(2))


def test_functional_equation_near_fixed_point():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    assert functional_equation_residual(xi, 2, 1 / math.sqrt(2) + 0.02) < 1e-10


def test_functional_equation_rejects_zero():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    with pytest.raises(ValueError):
        functional_equation_residual(xi, 2, 0.0)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_functional_equation_hundred_points(name):
    q = get_profile(name).q
    xi = xi_rational(get_nontrivial(name), q)
    for u in functional_equation_points(100, seed=42):
        assert functional_equation_residual(xi, q, float(u)) < 1e-8


def test_functional_equation_beyond_float_range():
    # some of prism:100's xi values at the default points exceed the float range
    xi = xi_rational(get_nontrivial("prism:100"), 2)
    points = [float(u) for u in functional_equation_points(100, seed=42)]
    with pytest.raises(OverflowError):
        for u in points:
            xi(u), xi(1 / (2 * u))
    assert max(functional_equation_residual(xi, 2, u) for u in points) < 1e-8


def test_rational_log2_beyond_float_range():
    rf = RationalFunction(Factors.from_rows((1.0, 0.0, 0.0, 1)),
                          Factors.from_rows((1.0, -1.0, 0.0, 400)))
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
    xi = xi_rational(get_nontrivial(name), q)
    points = functional_equation_points(100, seed=42)
    together = functional_equation_residual(xi, q, points)
    assert together.shape == (100,)
    assert together.tolist() == [functional_equation_residual(xi, q, float(u))
                                 for u in points]


def test_functional_equation_residual_array_rejects_any_bad_point():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    with pytest.raises(PoleHit):
        functional_equation_residual(xi, 2, np.array([0.1, 1 / math.sqrt(2), 0.3]))
    with pytest.raises(ValueError):
        functional_equation_residual(xi, 2, np.array([0.1, 0.0, 0.3]))


def numpy_reference_points(count: int = 100, seed: int = 42) -> np.ndarray:
    """The functional-equation points as numpy.random drew them before the
    standard library's generator replaced it: a second, independent set."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.1, 0.9, size=count)
    return mags * np.where(rng.random(count) < 0.5, -1.0, 1.0)


FE_POINT_SETS = {"random.Random": functional_equation_points(FE_POINTS, DEFAULT_SEED),
                 "numpy.random": numpy_reference_points(FE_POINTS, DEFAULT_SEED)}


@pytest.mark.parametrize("points", sorted(FE_POINT_SETS))
@pytest.mark.parametrize("name", ALL_FIXTURES + ["doubled_cycle4"])
def test_functional_equation_holds_at_either_point_set(name, points):
    # a fault in xi must show at the report's points and at the old ones alike
    q = get_profile(name).q
    xi = xi_rational(get_nontrivial(name), q)
    assert functional_equation_residual(xi, q, FE_POINT_SETS[points]).max() < FE_TOL


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


def test_functional_equation_points_drawn_once_and_read_only():
    points = functional_equation_points(FE_POINTS, DEFAULT_SEED)
    assert functional_equation_points(FE_POINTS, DEFAULT_SEED) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 0.5


# ---------------------------------------------------------------------------
# series routes

def test_log_series_petersen_h1():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    h = hk_series(xi, 2, 5)
    assert h[0] == pytest.approx(18 + 3 / math.sqrt(2), rel=1e-10)


def test_log_series_kmm3_values():
    xi = xi_rational(get_nontrivial("kmm3"), 2)
    h = hk_series(xi, 2, 6)
    assert h[0] == pytest.approx(8.0, abs=1e-9)
    assert h[3] == pytest.approx(0.0, abs=1e-9)


def test_log_series_zero_at_origin():
    bad = RationalFunction(Factors.from_rows((0.0, 1.0, 0.0, 1)),
                           Factors.from_rows((1.0, 0.0, 0.0, 1)))
    with pytest.raises(ZeroAtOrigin):
        log_series(bad, 5)


def test_log_series_geometric_oracle():
    # d/du ln(1/(1-u)) = sum u^k, all coefficients 1
    rf = RationalFunction(Factors.from_rows((1.0, 0.0, 0.0, 1)),
                          Factors.from_rows((1.0, -1.0, 0.0, 1)))
    assert np.allclose(log_series(rf, 8), 1.0, atol=1e-12)
    # d/du ln(1/(1-u)^400) = 400 sum u^k: a root of multiplicity 400 costs
    # nothing when the series is taken factor by factor
    rf = RationalFunction(Factors.from_rows((1.0, 0.0, 0.0, 1)),
                          Factors.from_rows((1.0, -1.0, 0.0, 400)))
    assert np.all(log_series(rf, 200) == 400.0)


def _logder_rows_per_step(coefficients, K):
    # the reference recurrence, dividing by c_0 at every step
    c0, c1, c2 = coefficients.T
    derivative = (c1, 2.0 * c2, np.zeros_like(c0))
    s = np.zeros((2 + K, len(c0)))
    for k in range(K):
        s[2 + k] = (derivative[min(k, 2)] - (c2 * s[k] + c1 * s[k + 1])) / c0
    return s.T[:, 2:]


def test_logder_rows_scale_each_row_once():
    # p'/p does not change when p is scaled: rows with c_0 != 1 stay within
    # the series tolerance of the reference, and rows with c_0 = 1 equal it
    rng = random.Random(5)
    rows = []
    for i in range(60):
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        c0 = (1.0, -1.0, 0.5, 3.0, rng.uniform(-4.0, 4.0))[i % 5]
        rows.append((c0, -c0 * (a + b), c0 * a * b))
    coefficients = np.array(rows)
    got = _logder_rows(coefficients, 80)
    ref = _logder_rows_per_step(coefficients, 80)
    assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))
    unit = coefficients[:, 0] == 1.0
    assert unit.sum() == 12 and np.array_equal(got[unit], ref[unit])


@pytest.mark.parametrize("name", RAMANUJAN_FIXTURES + ["double_triangle",
                                                       "looped_cycle4"])
def test_hk_series_matches_exact_route_deep(name):
    # at K=150 an expanded product of xi's factors would need hundreds of
    # digits; the factor-by-factor float64 series needs none
    q = get_profile(name).q
    n = get_graph(name).n
    series = hk_series(xi_rational(get_nontrivial(name), q), q, 150)
    bipartite = get_profile(name).bipartite
    exact = hk_from_ck(hk_excess(get_census(name, 150).nk, q, n, bipartite),
                       q, n, bipartite, 150)
    assert np.all(np.abs(series - exact) <= 1e-11 * np.maximum(1.0, np.abs(exact)))


def test_import_leaves_mpmath_unloaded():
    src = os.path.dirname(os.path.dirname(iharazeta.__file__))
    code = "import iharazeta, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_log_series_zeta_check_petersen():
    census = get_census("petersen", 10)
    spectrum = get_spectrum("petersen")
    zf = zeta_inverse(spectrum, 2, 10)
    ok, records = log_series_zeta_check(census, zf, 10)
    assert ok
    assert max(r[3] for r in records) < 1e-6


def test_log_series_zeta_check_k4_n3():
    census = get_census("k4", 8)
    spectrum = get_spectrum("k4")
    zf = zeta_inverse(spectrum, 2, 4)
    ok, records = log_series_zeta_check(census, zf, 8)
    assert ok
    k3 = records[2]
    assert k3[0] == 3 and k3[2] == 24 and k3[1] == pytest.approx(24.0, rel=1e-9)


def test_log_series_zeta_check_cycle5():
    census = get_census("cycle5", 10)
    spectrum = get_spectrum("cycle5")
    zf = zeta_inverse(spectrum, 1, 5)
    ok, records = log_series_zeta_check(census, zf, 10)
    assert ok
    assert census.nk[4] == 10
    assert [census.nk[k] for k in range(9) if k != 4] == [0] * 8


def test_log_series_zeta_check_records_carry_the_budget():
    census, spectrum = get_census("complete:30", 20), get_spectrum("complete:30")
    _, records = log_series_zeta_check(census, zeta_inverse(spectrum, 28, 30), 20)
    budgets = nk_spectral_budget(spectrum, 28.0, 30, np.arange(1, 21))
    assert [r[4] for r in records] == budgets.tolist()
    # the budget passes 1/2 after k = 8: from there a census one off can pass
    assert budgets[7] < 0.5 <= budgets[8]


@pytest.mark.parametrize("shift", [1, -1])
def test_log_series_zeta_check_rejects_off_by_one_census(shift):
    # the budget pins N_k on prism:24 to k = 20, so a census one off at any
    # single k fails the check
    census = get_census("prism24", 20)
    zf = zeta_inverse(get_spectrum("prism24"), get_profile("prism24").q,
                              get_graph("prism24").n)
    assert log_series_zeta_check(census, zf, 20)[0]
    for k in range(20):
        nk = list(census.nk)
        nk[k] += shift
        ok, _ = log_series_zeta_check(dataclasses.replace(census, nk=tuple(nk)),
                                      zf, 20)
        assert not ok, k + 1


@pytest.mark.parametrize("name", BIPARTITE_GRAPHS)
def test_bipartite_float_routes_are_exact_at_odd_k(name):
    """Both float h_k routes give 2(n-2) at every odd k exactly, and Xi's
    numerator, a product in w = u^2, has odd coefficients exactly 0."""
    n, q, K = get_graph(name).n, get_profile(name).q, 200
    ns = get_nontrivial(name)
    xi = xi_rational(ns, q)
    spectral = hk_spectral(scaled_spectrum(ns), K, True)
    series = hk_series(xi, q, K)
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
                  hk_series(xi_rational(ns, q), q, K)):
        assert np.max(np.abs(route - exact) / scale) < 1e-11


def test_w_rows_evaluate_and_scale_in_u_squared():
    # 1 + 2w + w^2 = (1 + u^2)^2, over (1 - u)
    rf = RationalFunction(Factors.from_rows((1.0, 2.0, 1.0, 1), in_w=True),
                          Factors.from_rows((1.0, -1.0, 0.0, 1)))
    u = np.array([0.3, -0.5])
    log2, sign = rf.log2_sign(u)
    assert np.allclose(sign * np.exp2(log2), (1 + u * u) ** 2 / (1 - u))
    scaled = rf.scale_input(0.5)
    log2, sign = scaled.log2_sign(u)
    assert np.allclose(sign * np.exp2(log2), (1 + u * u / 4) ** 2 / (1 - u / 2))
    assert expand(rf.num).tolist() == [1.0, 0.0, 2.0, 0.0, 1.0]
    # d/du ln (1 + u^2)^2 = 4u - 4u^3 + 4u^5 - ...; the denominator adds
    # -d/du ln(1 - u) = 1 + u + u^2 + ...
    assert log_series(rf, 7).tolist() == [1.0, 5.0, 1.0, -3.0, 1.0, 5.0, 1.0]
