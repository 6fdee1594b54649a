"""zeta-xi: rational-function forms, functional equation, series routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharazeta.zetaxi import (PoleHit, RationalFunction, RealPolynomial,
                              ZeroAtOrigin, functional_equation_points,
                              functional_equation_residual, hk_series,
                              log_series, log_series_zeta_check, xi_from_zeta,
                              xi_rational, zeta_inverse, zeta_inverse_factors)

from conftest import (ACCEPTANCE_FIXTURES, get_census, get_graph,
                      get_nontrivial, get_profile, get_spectrum)


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


# ---------------------------------------------------------------------------
# RealPolynomial basics

def test_poly_trims_trailing_zeros():
    p = RealPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coefficients == (1.0, 2.0)
    assert p.degree == 1


def test_poly_derivative_and_eval():
    p = RealPolynomial([1, -3, 2])  # 1 - 3u + 2u^2
    assert p(0.5) == 1 - 1.5 + 0.5
    assert p.derivative().coefficients == (-3.0, 4.0)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_poly_product_evaluates_pointwise(a, b, x):
    pa, pb = RealPolynomial(a), RealPolynomial(b)
    assert (pa * pb)(x) == pytest.approx(pa(x) * pb(x), rel=1e-9, abs=1e-9)


def test_poly_scale_input():
    p = RealPolynomial([1, 1, 1])
    q = p.scale_input(2.0)
    assert q.coefficients == (1.0, 2.0, 4.0)
    assert q(0.5) == pytest.approx(p(1.0))


# ---------------------------------------------------------------------------
# zeta_inverse

def test_zeta_inverse_k4_exact_expansion():
    # (1-u^2)^2 (1-3u+2u^2) (1+u+2u^2)^3, degree 12, constant term 1
    expected = iconv([1, 0, -2, 0, 1], [1, -3, 2],
                     [1, 1, 2], [1, 1, 2], [1, 1, 2])
    got = zeta_inverse(get_spectrum("k4"), 2, 4)
    assert got.degree == 12
    assert np.allclose(got.coefficients, expected, rtol=1e-9, atol=1e-9)


def test_zeta_inverse_cycle4():
    expected = iconv([1, -2, 1], [1, 0, 1], [1, 0, 1], [1, 2, 1])
    got = zeta_inverse(get_spectrum("cycle4"), 1, 4)
    assert got.degree == 8
    assert np.allclose(got.coefficients, expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_zeta_inverse_degree_and_constant(name):
    g = get_graph(name)
    q = get_profile(name).q
    z = zeta_inverse(get_spectrum(name), q, g.n)
    assert z.degree == g.n * (q + 1)
    assert z.coefficients[0] == pytest.approx(1.0, abs=1e-12)


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
    assert np.allclose(xi.numerator.coefficients,
                       iconv([1, 0, 2], [1, 0, 2], [1, 0, 2], [1, 0, 2]),
                       rtol=1e-9, atol=1e-9)
    s = math.sqrt(2)
    expected_den = [math.comb(8, j) * (-s) ** j for j in range(9)]
    assert np.allclose(xi.denominator.coefficients, expected_den, rtol=1e-9)


def test_xi_petersen_form():
    xi = xi_rational(get_nontrivial("petersen"), 2)
    expected = iconv(*([[1, -1, 2]] * 5 + [[1, 2, 2]] * 4))
    assert np.allclose(xi.numerator.coefficients, expected, rtol=1e-8, atol=1e-6)


@pytest.mark.parametrize("name", ACCEPTANCE_FIXTURES)
def test_xi_is_one_at_origin(name):
    xi = xi_rational(get_nontrivial(name), get_profile(name).q)
    assert xi(0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["petersen", "kmm3"])
def test_xi_from_zeta_agrees_with_direct_form(name):
    g = get_graph(name)
    prof = get_profile(name)
    spectrum = get_spectrum(name)
    zf = zeta_inverse_factors(spectrum, prof.q, g.n)
    via_zeta = xi_from_zeta(zeta_inverse(spectrum, prof.q, g.n), prof.q, g.n,
                            prof.bipartite, zeta_factors=zf)
    direct = xi_rational(get_nontrivial(name), prof.q)
    rng = np.random.default_rng(7)
    for u in rng.uniform(0.05, 0.35, 20) * rng.choice([-1, 1], 20):
        a, b = direct(float(u)), via_zeta(float(u))
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_xi_from_zeta_without_factors_still_evaluates():
    g = get_graph("k4")
    prof = get_profile("k4")
    via_zeta = xi_from_zeta(zeta_inverse(get_spectrum("k4"), 2, 4), 2, 4,
                            prof.bipartite)
    direct = xi_rational(get_nontrivial("k4"), 2)
    for u in (0.1, -0.2, 0.3):
        assert via_zeta(u) == pytest.approx(direct(u), rel=1e-9)


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
    # some of prism30's xi values at the default points exceed the float range
    xi = xi_rational(get_nontrivial("prism30"), 2)
    points = [float(u) for u in functional_equation_points(100, seed=42)]
    with pytest.raises(OverflowError):
        for u in points:
            xi(u), xi(1 / (2 * u))
    assert max(functional_equation_residual(xi, 2, u) for u in points) < 1e-8


def test_rational_frexp_beyond_float_range():
    den = RealPolynomial([1.0, -1.0])
    rf = RationalFunction(RealPolynomial([1.0]), den.pow(400), None, ((den, 400),))
    mant, ex = rf.frexp(0.9)  # 0.1^-400 = 1e400
    assert 0.5 <= mant < 1.0
    assert ex * math.log10(2) + math.log10(mant) == pytest.approx(400.0, abs=1e-9)
    assert rf.frexp(0.5) == (0.5, 401)  # exactly 2^400
    with pytest.raises(OverflowError):
        rf(0.9)


def test_sample_points_deterministic():
    a = functional_equation_points(100, seed=42)
    b = functional_equation_points(100, seed=42)
    c = functional_equation_points(100, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((np.abs(a) >= 0.1) & (np.abs(a) <= 0.9))


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
    bad = RationalFunction(RealPolynomial([0.0, 1.0]), RealPolynomial([1.0]))
    with pytest.raises(ZeroAtOrigin):
        log_series(bad, 5)


def test_log_series_geometric_oracle():
    # d/du ln(1/(1-u)) = sum u^k, all coefficients 1
    rf = RationalFunction(RealPolynomial([1.0]), RealPolynomial([1.0, -1.0]))
    assert np.allclose(log_series(rf, 8), 1.0, atol=1e-12)


def test_log_series_zeta_check_petersen():
    census = get_census("petersen", 10)
    spectrum = get_spectrum("petersen")
    zf = zeta_inverse_factors(spectrum, 2, 10)
    ok, records = log_series_zeta_check(census, zeta_inverse(spectrum, 2, 10),
                                        10, zeta_factors=zf)
    assert ok
    assert max(r[3] for r in records) < 1e-6


def test_log_series_zeta_check_k4_n3():
    census = get_census("k4", 8)
    spectrum = get_spectrum("k4")
    zf = zeta_inverse_factors(spectrum, 2, 4)
    ok, records = log_series_zeta_check(census, zeta_inverse(spectrum, 2, 4),
                                        8, zeta_factors=zf)
    assert ok
    k3 = records[2]
    assert k3[0] == 3 and k3[2] == 24 and k3[1] == pytest.approx(24.0, rel=1e-9)


def test_log_series_zeta_check_unfactored_fallback():
    # expanded-only input stays accurate at the low orders the check uses
    census = get_census("k4", 8)
    ok, records = log_series_zeta_check(census, zeta_inverse(get_spectrum("k4"),
                                                             2, 4), 8)
    assert ok and max(r[3] for r in records) < 1e-8


def test_log_series_zeta_check_cycle5():
    census = get_census("cycle5", 10)
    spectrum = get_spectrum("cycle5")
    zf = zeta_inverse_factors(spectrum, 1, 5)
    ok, records = log_series_zeta_check(census, zeta_inverse(spectrum, 1, 5),
                                        10, zeta_factors=zf)
    assert ok
    assert census.nk[4] == 10
    assert [census.nk[k] for k in range(9) if k != 4] == [0] * 8
