"""The zeta function Z(u) and its normalization Xi(u) as explicit rational
functions.

Z(u)^-1 expands to (1-u^2)^(n(q-1)/2) * prod(1 - lam*u + q*u^2) over the full
spectrum; Xi(u) is prod((1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2) over the
nontrivial spectrum and satisfies Xi(1/(q*u)) = Xi(u).

Rational functions remember their factored structure when it is known.  That
matters twice: evaluation near the pole u = q^(-1/2) is only stable factor by
factor, and the h_k series extraction (log_series) needs exact-precision
expansion because float64 coefficients of high-multiplicity factors like
(1 - sqrt(q)u)^(2n-2) carry enough rounding to split the root cluster and
derail the series beyond k of about 15.  Series arithmetic therefore runs in
mpmath at a working precision sized from the coefficient growth.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import mpmath as mp
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

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial([0.0])
        return RealPolynomial([i * c for i, c in enumerate(self.coefficients)][1:])

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

    def as_array(self) -> np.ndarray:
        return np.array(self.coefficients)

    def __eq__(self, other) -> bool:
        return isinstance(other, RealPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

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
    """Ratio of two real polynomials, optionally with factored structure.

    When factors are present, evaluation multiplies factor values (with
    exponent tracking) instead of running Horner on the expanded
    coefficients; for things like prod(1 - lam*u + q*u^2) / (1 - sqrt(q)u)^2M
    that is the difference between full accuracy and catastrophic
    cancellation.
    """

    __slots__ = ("numerator", "denominator", "num_factors", "den_factors")

    def __init__(self, numerator: RealPolynomial, denominator: RealPolynomial,
                 num_factors: Factors | None = None,
                 den_factors: Factors | None = None):
        if all(c == 0.0 for c in denominator.coefficients):
            raise ZeroDivisionError("denominator is identically zero")
        self.numerator = numerator
        self.denominator = denominator
        self.num_factors = num_factors
        self.den_factors = den_factors

    def _side_factors(self, which: str) -> Factors:
        if which == "num":
            return self.num_factors or ((self.numerator, 1),)
        return self.den_factors or ((self.denominator, 1),)

    def near_pole(self, u: float, threshold: float = POLE_THRESHOLD) -> bool:
        """Pole proximity test: some denominator factor (or the expanded
        denominator when no factors are known) evaluates below threshold
        times its coefficient-magnitude scale at u."""
        for poly, _ in self._side_factors("den"):
            if abs(poly(u)) < threshold * poly.abs_sum_at(u):
                return True
        return False

    def frexp(self, u: float) -> tuple[float, int]:
        """The value at u as (mantissa, binary exponent), like math.frexp,
        so that values beyond the float range stay representable; an exact
        zero is (0.0, 0)."""
        if self.near_pole(u):
            raise PoleHit(f"u={u!r} is numerically a pole")
        nm, ne = _eval_factors(self._side_factors("num"), u)
        dm, de = _eval_factors(self._side_factors("den"), u)
        mant, ex = math.frexp(nm / dm)
        return (mant, ex + ne - de) if mant else (0.0, 0)

    def __call__(self, u: float) -> float:
        return math.ldexp(*self.frexp(u))

    def scale_input(self, c: float) -> "RationalFunction":
        def scale(factors: Factors | None) -> Factors | None:
            if factors is None:
                return None
            return tuple((p.scale_input(c), e) for p, e in factors)

        return RationalFunction(self.numerator.scale_input(c),
                                self.denominator.scale_input(c),
                                scale(self.num_factors), scale(self.den_factors))


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
    quads = _spectrum_quadratics(ns.values, q)
    num_factors: Factors = tuple((quad, 1) for quad in quads)
    den_factors: Factors = ((RealPolynomial([1.0, -math.sqrt(q)]), 2 * len(ns)),)
    return RationalFunction(expand_factors(num_factors), expand_factors(den_factors),
                            num_factors, den_factors)


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


def xi_from_zeta(zeta_inv: RealPolynomial, q: int, n: int, bipartite: bool,
                 zeta_factors: Factors | None = None) -> RationalFunction:
    """Xi(u) assembled as Z(u)^-1 over the elementary prefactor.

    Passing the factored form of Z(u)^-1 keeps evaluation and series
    extraction accurate; without it the expanded coefficients are used as-is.
    """
    den_factors = xi_prefactor_factors(q, n, bipartite)
    return RationalFunction(zeta_inv, expand_factors(den_factors),
                            zeta_factors, den_factors)


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
# series extraction (mpmath-backed)

def _mp_conv(a: list, b: list, limit: int | None = None) -> list:
    size = len(a) + len(b) - 1
    if limit is not None:
        size = min(size, limit)
    out = [mp.mpf(0)] * size
    for i, ai in enumerate(a):
        if ai == 0 or i >= size:
            continue
        for j, bj in enumerate(b):
            if i + j >= size:
                break
            out[i + j] += ai * bj
    return out


def _mp_expand(factors: Factors, limit: int) -> list:
    out = [mp.mpf(1)]
    for poly, power in factors:
        base = [mp.mpf(c) for c in poly.coefficients]
        for _ in range(power):
            out = _mp_conv(out, base, limit)
    return out


def _mp_logder(pc: list, K: int) -> list:
    """Coefficients of p'/p up to order K-1 by power-series division."""
    deg = len(pc) - 1
    r = [mp.mpf(0)] * K
    r[0] = 1 / pc[0]
    for k in range(1, K):
        r[k] = -sum(pc[j] * r[k - j] for j in range(1, min(k, deg) + 1)) / pc[0]
    out = []
    for k in range(K):
        out.append(sum((j + 1) * pc[j + 1] * r[k - j]
                       for j in range(min(k, deg - 1) + 1)))
    return out


def _required_dps(factors: Factors, K: int) -> int:
    deg = sum(p.degree * e for p, e in factors)
    lg_bulge = sum(e * math.log10(max(1.0, sum(abs(c) for c in p.coefficients)))
                   for p, e in factors)
    if deg:
        lg_recip = (math.lgamma(deg + K + 1) - math.lgamma(K + 1)
                    - math.lgamma(deg + 1)) / math.log(10)
    else:
        lg_recip = 0.0
    return min(4000, max(50, int(lg_recip + lg_bulge) + 30))


def _logder_side(factors: Factors, K: int) -> list:
    limit = K + 1
    with mp.workdps(_required_dps(factors, K)):
        pc = _mp_expand(factors, limit)
        if pc[0] == 0:
            raise ZeroAtOrigin("series requires a nonzero value at u = 0")
        return _mp_logder(pc, K)


def log_series(rf: RationalFunction, K: int) -> np.ndarray:
    """First K Maclaurin coefficients of d/du ln(rf), i.e. of N'/N - D'/D.

    Feed a xi function already rescaled by u -> u/sqrt(q) to obtain h_1..h_K.
    Series arithmetic runs in mpmath with working precision chosen from the
    factor degrees and coefficient magnitudes; accuracy at large K relies on
    the factored structure being present.
    """
    if rf.numerator(0.0) == 0.0 or rf.denominator(0.0) == 0.0:
        raise ZeroAtOrigin("numerator or denominator vanishes at u = 0")
    if K <= 0:
        return np.zeros(0)
    num = _logder_side(rf._side_factors("num"), K)
    den = _logder_side(rf._side_factors("den"), K)
    return np.array([float(a - b) for a, b in zip(num, den)])


def hk_series(xi: RationalFunction, q: int, K: int) -> np.ndarray:
    """h_1..h_K from the definition: the log-derivative series of
    Xi(u/sqrt(q))."""
    return log_series(xi.scale_input(1.0 / math.sqrt(q)), K)


def log_series_zeta_check(census: CycleCensus, zeta_inv: RealPolynomial, K: int,
                          tol: float = 1e-6,
                          zeta_factors: Factors | None = None
                          ) -> tuple[bool, list[tuple[int, float, int, float]]]:
    """Verify that -d/du ln(Z(u)^-1) has Maclaurin coefficient N_{k+1} at u^k.

    Returns (all_ok, records) with one (k, coefficient, N_k, relative
    residual) record per 1 <= k <= K.
    """
    if K > census.horizon:
        raise ValueError(f"census horizon {census.horizon} < requested K={K}")
    factors: Factors = zeta_factors if zeta_factors is not None else ((zeta_inv, 1),)
    series = [-float(c) for c in _logder_side(factors, K)]
    records = []
    ok = True
    for k in range(1, K + 1):
        coeff = series[k - 1]
        expected = census.nk[k - 1]
        residual = abs(coeff - expected) / max(1.0, abs(float(expected)))
        good = residual < tol
        ok = ok and good
        records.append((k, coeff, expected, residual))
    return ok, records
