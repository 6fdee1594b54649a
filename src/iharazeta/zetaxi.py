"""The zeta function Z(u) and its normalization Xi(u) as explicit rational
functions.

Z(u)^-1 expands to (1-u^2)^(n(q-1)/2) * prod(1 - lam*u + q*u^2) over the full
spectrum; Xi(u) is prod((1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2) over the
nontrivial spectrum and satisfies Xi(1/(q*u)) = Xi(u).

A rational function is stored as two products of factors (polynomial, power),
each factor of degree at most two, and is expanded only for the coefficient
arrays of the reports.  Evaluation near the pole u = q^(-1/2) is only stable
factor by factor.  The series extraction does not expand either: the
log-derivative of a product is the sum of e*p'/p over its factors, and each
p'/p follows from a short recurrence in p's own coefficients.  No product of
degree 2n ever forms, so no cluster of 2n-2 equal roots has to be resolved
from rounded coefficients, and float64 suffices: the series inherits the
rounding of the float eigenvalues, not extra error from its own arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .census import CycleCensus
from .spectral import NontrivialSpectrum, Spectrum

POLE_THRESHOLD = 1e-12


class PoleHit(ArithmeticError):
    """Evaluation point is (numerically) a pole of the rational function."""


class ZeroAtOrigin(ValueError):
    """Series extraction needs numerator and denominator nonzero at u = 0."""


class RealPolynomial:
    """Dense real polynomial; coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[float]):
        coeffs = [float(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        self.coefficients = tuple(coeffs) if coeffs else (0.0,)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * u + c
        return acc

    def __mul__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial(np.convolve(self.coefficients, other.coefficients))

    def pow(self, exponent: int) -> "RealPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = RealPolynomial([1.0])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale_input(self, c: float) -> "RealPolynomial":
        """The polynomial u -> p(c*u)."""
        return RealPolynomial([coef * c ** i for i, coef in enumerate(self.coefficients)])

    def abs_sum_at(self, u: float) -> float:
        """sum |c_i| |u|^i, the natural magnitude scale of evaluation at u."""
        return float(sum(abs(c) * abs(u) ** i for i, c in enumerate(self.coefficients)))

    def __repr__(self) -> str:
        return f"RealPolynomial(degree={self.degree})"


Factors = tuple[tuple[RealPolynomial, int], ...]


def expand_factors(factors: Factors) -> RealPolynomial:
    out = RealPolynomial([1.0])
    for poly, power in factors:
        out = out * poly.pow(power)
    return out


def _eval_factors(factors: Factors, u: float) -> tuple[float, int]:
    """Product of poly(u)**power as (mantissa, binary exponent) to dodge
    overflow; mantissa 0.0 encodes an exact zero."""
    mant, ex = 1.0, 0
    for poly, power in factors:
        v = poly(u)
        if v == 0.0:
            return 0.0, 0
        m, e = math.frexp(v)
        mant *= m ** power
        ex += e * power
        m2, e2 = math.frexp(mant)
        mant, ex = m2, ex + e2
    return mant, ex


class RationalFunction:
    """Ratio of two products of real polynomial factors (poly, power).

    Evaluation multiplies factor values (with exponent tracking) instead of
    running Horner on expanded coefficients; for things like
    prod(1 - lam*u + q*u^2) / (1 - sqrt(q)u)^2M that is the difference
    between full accuracy and catastrophic cancellation.  The expanded
    numerator and denominator are built on demand.
    """

    __slots__ = ("num_factors", "den_factors")

    def __init__(self, num_factors: Factors, den_factors: Factors):
        if any(poly.coefficients == (0.0,) for poly, _ in den_factors):
            raise ZeroDivisionError("denominator is identically zero")
        self.num_factors = tuple(num_factors)
        self.den_factors = tuple(den_factors)

    @property
    def numerator(self) -> RealPolynomial:
        return expand_factors(self.num_factors)

    @property
    def denominator(self) -> RealPolynomial:
        return expand_factors(self.den_factors)

    def near_pole(self, u: float, threshold: float = POLE_THRESHOLD) -> bool:
        """Pole proximity test: some denominator factor evaluates below
        threshold times its coefficient-magnitude scale at u."""
        for poly, _ in self.den_factors:
            if abs(poly(u)) < threshold * poly.abs_sum_at(u):
                return True
        return False

    def frexp(self, u: float) -> tuple[float, int]:
        """The value at u as (mantissa, binary exponent), like math.frexp,
        so that values beyond the float range stay representable; an exact
        zero is (0.0, 0)."""
        if self.near_pole(u):
            raise PoleHit(f"u={u!r} is numerically a pole")
        nm, ne = _eval_factors(self.num_factors, u)
        dm, de = _eval_factors(self.den_factors, u)
        mant, ex = math.frexp(nm / dm)
        return (mant, ex + ne - de) if mant else (0.0, 0)

    def __call__(self, u: float) -> float:
        return math.ldexp(*self.frexp(u))

    def scale_input(self, c: float) -> "RationalFunction":
        def scale(factors: Factors) -> Factors:
            return tuple((p.scale_input(c), e) for p, e in factors)

        return RationalFunction(scale(self.num_factors), scale(self.den_factors))


# ---------------------------------------------------------------------------
# construction

def _spectrum_quadratics(values: Sequence[float], q: int) -> list[RealPolynomial]:
    return [RealPolynomial([1.0, -lam, float(q)]) for lam in values]


def zeta_inverse_factors(s: Spectrum, q: int, n: int) -> Factors:
    factors: list[tuple[RealPolynomial, int]] = []
    e = n * (q - 1) // 2
    if e:
        factors.append((RealPolynomial([1.0, 0.0, -1.0]), e))
    factors.extend((quad, 1) for quad in _spectrum_quadratics(s.values, q))
    return tuple(factors)


def zeta_inverse(s: Spectrum, q: int, n: int) -> RealPolynomial:
    """Z(u)^-1 = (1-u^2)^(n(q-1)/2) * prod over the full spectrum of
    (1 - lam*u + q*u^2), expanded; degree n(q+1), constant term 1."""
    return expand_factors(zeta_inverse_factors(s, q, n))


def xi_rational(ns: NontrivialSpectrum, q: int) -> RationalFunction:
    """Xi(u) = prod over the nontrivial spectrum of
    (1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2."""
    num_factors = tuple((quad, 1) for quad in _spectrum_quadratics(ns.values, q))
    return RationalFunction(num_factors,
                            ((RealPolynomial([1.0, -math.sqrt(q)]), 2 * len(ns)),))


def xi_prefactor_factors(q: int, n: int, bipartite: bool) -> Factors:
    """The elementary polynomial multiplying Z(u) to produce Xi(u)^-1."""
    sq = math.sqrt(q)
    e = n * (q - 1) // 2
    if bipartite:
        factors: list[tuple[RealPolynomial, int]] = [
            (RealPolynomial([1.0, 0.0, -float(q * q)]), 1),
            (RealPolynomial([1.0, -sq]), 2 * n - 4),
            (RealPolynomial([1.0, 0.0, -1.0]), e + 1),
        ]
    else:
        factors = [
            (RealPolynomial([1.0, -1.0]), 1),
            (RealPolynomial([1.0, -float(q)]), 1),
            (RealPolynomial([1.0, -sq]), 2 * n - 2),
        ]
        if e:
            factors.append((RealPolynomial([1.0, 0.0, -1.0]), e))
    return tuple(f for f in factors if f[1] > 0)


def xi_from_zeta(zeta_factors: Factors, q: int, n: int,
                 bipartite: bool) -> RationalFunction:
    """Xi(u) assembled as the factors of Z(u)^-1 over the elementary
    prefactor."""
    return RationalFunction(zeta_factors, xi_prefactor_factors(q, n, bipartite))


# ---------------------------------------------------------------------------
# functional equation

def functional_equation_points(count: int = 100, seed: int = 42) -> np.ndarray:
    """Deterministic sample points, uniform over [-0.9,-0.1] u [0.1,0.9]."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.1, 0.9, size=count)
    signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return mags * signs


def functional_equation_residual(xi: RationalFunction, q: int, u: float) -> float:
    """Relative residual |Xi(1/(q*u)) - Xi(u)| / max(1, |Xi(u)|, |Xi(1/(q*u))|).

    Xi values reach 1e20 and beyond at ordinary sample points, and pass the
    float range near the pole, so the comparison is normalized by magnitude
    and made on (mantissa, exponent) pairs scaled to the larger exponent.
    Raises PoleHit when either evaluation point sits on a pole
    (u = q^(-1/2) maps to itself and is always rejected).
    """
    if u == 0.0:
        raise ValueError("u must be nonzero")
    w = 1.0 / (q * u)
    if xi.near_pole(u) or xi.near_pole(w):
        raise PoleHit(f"u={u!r} or 1/(q u)={w!r} is numerically a pole")
    (ma, ea), (mb, eb) = xi.frexp(u), xi.frexp(w)
    top = max(ea, eb)
    ma, mb = math.ldexp(ma, ea - top), math.ldexp(mb, eb - top)
    diff = abs(ma - mb)
    # the larger value is max(|ma|, |mb|) * 2^top with that mantissa in
    # [0.5, 1), so it reaches 1 exactly when top >= 1
    if top >= 1:
        return diff / max(abs(ma), abs(mb))
    return math.ldexp(diff, top)


# ---------------------------------------------------------------------------
# series extraction

def _logder(factors: Factors, K: int) -> np.ndarray:
    """First K Maclaurin coefficients of sum e * p'/p over the factors (p, e).

    s = p'/p solves p*s = p', so s_k = ((k+1) c_{k+1} - sum_{j=1..d} c_j s_{k-j})
    / c_0 for p = c_0 + ... + c_d u^d.  All factors advance together, one
    numpy step per k; factors of lower degree are padded with zeros.
    """
    d = max((p.degree for p, _ in factors), default=0)
    c = np.zeros((len(factors), d + 1))
    for i, (p, _) in enumerate(factors):
        c[i, :p.degree + 1] = p.coefficients
    if np.any(c[:, 0] == 0.0):
        raise ZeroAtOrigin("series requires every factor nonzero at u = 0")
    derivative = np.zeros((len(factors), d + K))
    derivative[:, :d] = c[:, 1:] * np.arange(1, d + 1)
    reversed_tail = c[:, :0:-1]  # c_d .. c_1, against s_{k-d} .. s_{k-1}
    s = np.zeros((len(factors), d + K))  # d leading zeros stand for s_{-d..-1}
    for k in range(K):
        s[:, d + k] = (derivative[:, k]
                       - np.einsum("ij,ij->i", reversed_tail, s[:, k:k + d])) / c[:, 0]
    return np.array([e for _, e in factors], dtype=float) @ s[:, d:]


def log_series(rf: RationalFunction, K: int) -> np.ndarray:
    """First K Maclaurin coefficients of d/du ln(rf), i.e. of N'/N - D'/D.

    Feed a xi function already rescaled by u -> u/sqrt(q) to obtain h_1..h_K.
    The log-derivative is taken factor by factor, in float64: nothing is
    expanded, so there is no root cluster for rounding to split, and no extra
    working precision is needed.
    """
    return _logder(rf.num_factors, K) - _logder(rf.den_factors, K)


def hk_series(xi: RationalFunction, q: int, K: int) -> np.ndarray:
    """h_1..h_K from the definition: the log-derivative series of
    Xi(u/sqrt(q)), summed over the factors of Xi in float64 (log_series)."""
    return log_series(xi.scale_input(1.0 / math.sqrt(q)), K)


def log_series_zeta_check(census: CycleCensus, zeta_factors: Factors, K: int,
                          tol: float = 1e-6
                          ) -> tuple[bool, list[tuple[int, float, int, float]]]:
    """Verify that -d/du ln(Z(u)^-1), from the factors of Z(u)^-1, has
    Maclaurin coefficient N_{k+1} at u^k.

    Returns (all_ok, records) with one (k, coefficient, N_k, relative
    residual) record per 1 <= k <= K.
    """
    if K > census.horizon:
        raise ValueError(f"census horizon {census.horizon} < requested K={K}")
    series = -_logder(zeta_factors, K)
    records = []
    ok = True
    for k in range(1, K + 1):
        coeff = float(series[k - 1])
        expected = census.nk[k - 1]
        residual = abs(coeff - expected) / max(1.0, abs(float(expected)))
        good = residual < tol
        ok = ok and good
        records.append((k, coeff, expected, residual))
    return ok, records
