"""The zeta function Z(u) and its normalization Xi(u) as explicit rational
functions.

Z(u)^-1 = (1-u^2)^(n(q-1)/2) * det(I - u*A + q*u^2*I) (Ihara-Bass), and the
determinant is prod(1 - lam*u + q*u^2) over the full spectrum; Xi(u) is
prod((1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2) over the nontrivial spectrum
and satisfies Xi(1/(q*u)) = Xi(u).

The determinant is expanded once, in integers: it is u^n chi_A((1 + q*u^2)/u)
for the characteristic polynomial chi_A, which the census gives exactly
(bass_determinant).  The float routes never expand a product.  A product of
factors is stored as two arrays: an (F, 3) array of the coefficients
c0 + c1*u + c2*u^2 (no factor has degree above two) and a vector of F
integer powers.  Evaluation takes a whole vector of points at once and
returns log2|value| = sum e*log2|p(u)| with a sign from the parity of the
negative factors, so values beyond the float range (Xi near its pole
u = q^(-1/2)) stay representable, and relative_gap compares two of them
without forming either.  The series extraction does not expand either: the
log-derivative of a product is the sum of e*p'/p over its factors, and each
p'/p follows from a short recurrence in p's own coefficients, run for all
factors at once (a Xi's numerator and denominator together).  No product of
degree 2n ever forms, so no cluster of 2n-2 equal roots has to be resolved
from rounded coefficients, and float64 suffices: the series inherits the
rounding of the float eigenvalues, not extra error from its own arithmetic.
Taken of Z(u)^-1 it is the one float N_k (nk_from_spectrum), checked against
the exact census within its a-priori nk_spectral_budget; that check is all
Z(u)^-1's factors feed.  Xi is built once, from the nontrivial spectrum
(xi_rational): built from Z(u)^-1 instead, it would differ only by a fixed
elementary prefactor.
"""

from __future__ import annotations

import functools
import math
import random
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .spectral import NontrivialSpectrum

if TYPE_CHECKING:
    from .census import CycleCensus

POLE_THRESHOLD = 1e-12


class PoleHit(ArithmeticError):
    """Evaluation point is (numerically) a pole of the rational function."""


class ZeroAtOrigin(ValueError):
    """Series extraction needs numerator and denominator nonzero at u = 0."""


class Factors(NamedTuple):
    """prod over the rows of (c0 + c1*v + c2*v^2) ** power, in the variable
    v = u, or v = w = u^2 when in_w is set."""

    coefficients: np.ndarray  # (F, 3) floats c0, c1, c2
    powers: np.ndarray  # (F,) integers >= 1
    in_w: bool = False

    @classmethod
    def from_rows(cls, *rows: tuple[float, float, float, int],
                  in_w: bool = False) -> "Factors":
        """Factors from (c0, c1, c2, power) rows; rows of power 0 are dropped."""
        table = np.array([r for r in rows if r[3] > 0], dtype=float).reshape(-1, 4)
        return cls(table[:, :3], table[:, 3].astype(np.int64), in_w)

    def variable(self, u: np.ndarray) -> np.ndarray:
        """The rows' variable at the points u: u itself, or u^2 in w."""
        return u * u if self.in_w else u


def _horner(coefficients: np.ndarray, u: np.ndarray) -> np.ndarray:
    """c0 + c1*u + c2*u^2 at every point (rows) for every factor (columns)."""
    u = u[:, None]
    return (coefficients[:, 2] * u + coefficients[:, 1]) * u + coefficients[:, 0]


def _log2_sign(values: np.ndarray,
               powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log2|prod| and sign of each row of factor values raised to powers;
    an exact zero is (-inf, 0)."""
    with np.errstate(divide="ignore"):
        log2 = (np.log2(np.abs(values)) * powers).sum(axis=1)
    return log2, (np.sign(values) ** powers).prod(axis=1)


def relative_gap(log2_a, sign_a, log2_b, sign_b):
    """|A - B| / max(1, |A|, |B|) for A = sign_a * 2**log2_a and B likewise,
    elementwise.  Both are scaled by that denominator before they are
    subtracted, so values beyond the float range compare without overflow."""
    top = np.maximum(np.maximum(log2_a, log2_b), 0.0)
    return np.abs(sign_a * np.exp2(log2_a - top) - sign_b * np.exp2(log2_b - top))


class RationalFunction:
    """Ratio of two products of factors of degree at most two.

    Evaluation multiplies factor values (as a sum of logarithms) instead of
    running Horner on expanded coefficients; for things like
    prod(1 - lam*u + q*u^2) / (1 - sqrt(q)u)^2M that is the difference
    between full accuracy and catastrophic cancellation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Factors, den: Factors):
        if not np.all(den.coefficients.any(axis=1)):
            raise ZeroDivisionError("denominator is identically zero")
        self.num, self.den = num, den

    def log2_sign(self, u) -> tuple[np.ndarray, np.ndarray]:
        """log2 of the absolute value and the sign, at every point of u (a
        scalar or an array), without forming the value; an exact zero is
        (-inf, 0).  Raises PoleHit when some denominator factor at some
        point lies below POLE_THRESHOLD * sum |c_j| |u|^j."""
        u = np.asarray(u, dtype=float)
        points = u.reshape(-1)
        at = self.den.variable(points)
        den = _horner(self.den.coefficients, at)
        scale = _horner(np.abs(self.den.coefficients), np.abs(at))
        near = np.any(np.abs(den) < POLE_THRESHOLD * scale, axis=1)
        if near.any():
            raise PoleHit(f"u={float(points[near][0])!r} is numerically a pole")
        num_log2, num_sign = _log2_sign(
            _horner(self.num.coefficients, self.num.variable(points)),
            self.num.powers)
        den_log2, den_sign = _log2_sign(den, self.den.powers)
        return ((num_log2 - den_log2).reshape(u.shape),
                (num_sign * den_sign).reshape(u.shape))

    def __call__(self, u: float) -> float:
        """The value at u; OverflowError beyond the float range."""
        log2, sign = self.log2_sign(u)
        return float(sign) * math.pow(2.0, float(log2))

    def scale_input(self, c: float) -> "RationalFunction":
        """The function u -> f(c*u); rows in w = u^2 scale by c^2."""
        def scaled(f: Factors) -> Factors:
            v = c * c if f.in_w else c
            return f._replace(coefficients=f.coefficients * np.array([1.0, v, v ** 2]))
        return RationalFunction(scaled(self.num), scaled(self.den))


# ---------------------------------------------------------------------------
# construction

def _spectrum_quadratics(values: Sequence[float], q: int):
    """One row 1 - lam*u + q*u^2 per eigenvalue."""
    return ((1.0, -lam, float(q), 1) for lam in values)


def zeta_inverse(s: np.ndarray, q: int, n: int) -> Factors:
    """Z(u)^-1 = (1-u^2)^(n(q-1)/2) * prod over the full spectrum s of
    (1 - lam*u + q*u^2), as its factors; degree n(q+1), constant term 1."""
    return Factors.from_rows((1.0, 0.0, -1.0, n * (q - 1) // 2),
                             *_spectrum_quadratics(s, q))


def bass_determinant(chi: Sequence[int], q: int) -> list[int]:
    """The 2n+1 integer coefficients d_0..d_2n, ascending in u, of
    det(I - u*A + q*u^2*I) = prod(1 - lam*u + q*u^2) = u^n chi_A((1 + q*u^2)/u),
    from chi_A = [1, a_1, ..., a_n], x^n + a_1 x^(n-1) + ... + a_n
    (census.characteristic_polynomial).

    Horner in x = (1 + q*u^2)/u, times u^m: R_0 = 1 and R_m = (1 + q*u^2)
    R_(m-1) + a_m u^m, so R_n is the determinant.  Each factor satisfies
    q*u^2 p(1/(q*u)) = p(u), so d_(2n-j) = q^(n-j) d_j.
    """
    d = [chi[0]]
    for m, a in enumerate(chi[1:], start=1):
        d = [x + q * y for x, y in zip(d + [0, 0], [0, 0] + d)]
        d[m] += a
    return d


def xi_rational(ns: NontrivialSpectrum, q: int) -> RationalFunction:
    """Xi(u) = prod over the nontrivial spectrum of
    (1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2.

    A bipartite spectrum pairs +/-sigma, and (1 - sigma*u + q*u^2)(1 +
    sigma*u + q*u^2) = 1 + (2q - sigma^2) w + q^2 w^2 in w = u^2: one
    numerator row in w per nontrivial sigma (the first half of ns).  The
    denominator stays in u."""
    den = Factors.from_rows((1.0, -math.sqrt(q), 0.0, 2 * len(ns)))
    if ns.bipartite:
        sigma = ns.values[:len(ns) // 2]
        return RationalFunction(Factors.from_rows(
            *((1.0, 2.0 * q - x * x, float(q * q), 1) for x in sigma), in_w=True), den)
    return RationalFunction(Factors.from_rows(*_spectrum_quadratics(ns.values, q)), den)


# ---------------------------------------------------------------------------
# functional equation

@functools.cache
def functional_equation_points(count: int = 100, seed: int = 42) -> np.ndarray:
    """Deterministic sample points, uniform over [-0.9,-0.1] u [0.1,0.9]:
    count magnitudes, then count signs, from the standard library's Mersenne
    Twister random.Random(seed).  numpy.random would do the same, but its
    import costs a fresh process about 7 MB and 20 ms for 100 floats.
    Drawn once per (count, seed) in a process, and read-only."""
    rng = random.Random(seed)
    mags = [0.1 + 0.8 * rng.random() for _ in range(count)]
    points = np.array([-m if rng.random() < 0.5 else m for m in mags], dtype=float)
    points.flags.writeable = False
    return points


def functional_equation_residual(xi: RationalFunction, q: int, u):
    """relative_gap of Xi(u) and Xi(1/(q*u)): a float for a scalar u, an
    array for an array of points.

    Xi values reach 1e20 and beyond at ordinary sample points, and pass the
    float range near the pole, so the comparison is normalized by magnitude
    and made on log2 values.  Raises ValueError if some u is zero, and
    PoleHit when some evaluation point sits on a pole (u = q^(-1/2) maps to
    itself and is always rejected).  Xi is evaluated once, over u and
    1/(q*u) stacked.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u == 0.0):
        raise ValueError("u must be nonzero")
    log2, sign = xi.log2_sign(np.stack((u, 1.0 / (q * u))))
    gap = relative_gap(log2[0], sign[0], log2[1], sign[1])
    return float(gap) if gap.ndim == 0 else gap


# ---------------------------------------------------------------------------
# series extraction

def _logder_rows(coefficients: np.ndarray, K: int) -> np.ndarray:
    """(F, K) table: row i holds the first K Maclaurin coefficients of p'/p
    for the factor p = c_0 + c_1 u + c_2 u^2 of row i.

    p'/p does not change when p is scaled, so each row is divided by its c_0
    once (exact where c_0 = 1, as for every factor the program builds).
    Then s = p'/p solves p*s = p' with c_0 = 1: s_k = (k+1) c_{k+1} -
    (c_2 s_{k-2} + c_1 s_{k-1}), one row of a (K, F) table per k, every
    factor at once, in three numpy calls that write into the table's row.
    The table is returned transposed, with rows of stride K + 2: numpy picks
    the BLAS kernel, and so the rounding, of the dot products that follow
    by layout.
    """
    if np.any(coefficients[:, 0] == 0.0):
        raise ZeroAtOrigin("series requires every factor nonzero at u = 0")
    _, c1, c2 = np.ascontiguousarray(coefficients.T) / coefficients[:, 0]
    tail = np.stack((c2, c1))  # against s_{k-2}, s_{k-1}
    derivative = [c1, 2.0 * c2] + [np.zeros_like(c1)] * K  # (k+1) c_{k+1}
    s = np.zeros((2 + K, len(c1)))  # two leading rows stand for s_{-2}, s_{-1}
    products = np.empty_like(tail)
    first, second = products
    for k, (row, d) in enumerate(zip(s[2:], derivative)):
        np.multiply(tail, s[k:k + 2], out=products)
        np.add(first, second, out=row)
        np.subtract(d, row, out=row)
    return np.ascontiguousarray(s.T)[:, 2:]


def _in_u(factors: Factors, rows: np.ndarray, K: int) -> np.ndarray:
    """First K Maclaurin coefficients in u of sum e * p'/p over the factors
    (p, e), from their _logder_rows table of at least K columns.  For rows
    in w = u^2, d/du ln p(u^2) = 2u (p'/p)(w): the coefficient of w^j, of
    the first K/2 columns, lands doubled at u^(2j+1), and every even power
    of u is exactly 0."""
    if not factors.in_w:
        return factors.powers.astype(float) @ rows
    out = np.zeros(K)
    out[1::2] = 2.0 * (factors.powers.astype(float) @ rows[:, :K // 2])
    return out


def _logder(factors: Factors, K: int) -> np.ndarray:
    """First K Maclaurin coefficients in u of sum e * p'/p over the factors."""
    return _in_u(factors, _logder_rows(factors.coefficients, K), K)


def log_series(rf: RationalFunction, K: int) -> np.ndarray:
    """First K Maclaurin coefficients of d/du ln(rf), i.e. of N'/N - D'/D.

    Feed a xi function already rescaled by u -> u/sqrt(q) to obtain h_1..h_K.
    The log-derivative is taken factor by factor, numerator and denominator
    in one pass, in float64: nothing is expanded, so there is no root
    cluster for rounding to split, and no extra working precision is needed.
    Rows in w share the pass and use its first K/2 steps: a step costs its
    numpy calls, whatever the number of rows.
    """
    split = len(rf.num.powers)
    rows = _logder_rows(np.vstack((rf.num.coefficients, rf.den.coefficients)), K)
    return _in_u(rf.num, rows[:split], K) - _in_u(rf.den, rows[split:], K)


def hk_series(xi: RationalFunction, q: int, K: int) -> np.ndarray:
    """h_1..h_K from the definition: the log-derivative series of
    Xi(u/sqrt(q)), summed over the factors of Xi in float64 (log_series).

    A bipartite Xi (numerator in w = u^2) takes its odd h_k from the
    denominator (1 - sqrt(q) u)^(2(n-2)) alone, which the rescaling makes
    (1 - u)^(2(n-2)): they are 2(n-2) exactly.  In float64 sqrt(q) *
    (1/sqrt(q)) misses 1 by an ulp for some q (15, 29, 30, ...), which
    would drift h_k by k ulps, so they are set to the denominator's degree.
    """
    h = log_series(xi.scale_input(1.0 / math.sqrt(q)), K)
    if xi.num.in_w:
        h[0::2] = float(xi.den.powers.sum())
    return h


def nk_from_spectrum(s: np.ndarray, q: int, n: int, k: int) -> float:
    """Floating-point N_k: the coefficient of u^(k-1) in -d/du ln Z(u)^-1,
    q^(k/2) * sum of T_k over the scaled spectrum, plus n(q-1) for even k."""
    return float(-_logder(zeta_inverse(s, q, n), k)[k - 1])


def nk_spectral_budget(s: np.ndarray, q: float, n: int, k: int | np.ndarray):
    """A-priori bound on |nk_from_spectrum(s, q, n, k) - N_k| for the float64
    spectrum s LAPACK gives: a float for an integer k, an array for an array.

    Eigenvalue lam gives the row 1 - lam*u + q*u^2 = (1 - a u)(1 - b u) and
    _logder's recurrence s_0 = -lam, s_1 = 2q - lam^2, s_j = lam s_(j-1) -
    q s_(j-2), solved by s_j = -(a^(j+1) + b^(j+1)).  With rho = max(|a|,
    |b|) (sqrt(q) while |lam| <= 2 sqrt(q)), |lam| <= 2 rho, q <= rho^2 and
    |s_j| <= 2 rho^(j+1); U_m = sum_(t=0..m) a^t b^(m-t) has |U_m| <= (m+1)
    rho^m.  N_k = -sum e s_(k-1) over the rows, the exact (1 - u^2) row
    (s = 0, -2, 0, -2, ...) of power n(q-1)/2 adding n(q-1) at even k.  The
    error bounds, first order in eps = 2^-52:

    * Eigenvalues.  LAPACK is backward stable, |lam~ - lam| <= dlam =
      n eps ||A||_2 = n eps (q+1), and d(a^k + b^k)/dlam = k U_(k-1), so a
      row moves by at most k^2 rho^(k-1) dlam, rho taken at |lam~| + dlam.
      A bipartite spectrum is +/-sigma from the SVD of its n/2 x n/2 block
      B, backward stable too: each sigma lies within a small multiple of
      (n/2) eps ||B||_2 of its exact value, ||B||_2 = ||A||_2 = q+1, and
      the exact negation 0.0 - sigma adds nothing, so dlam holds for it.
    * The recurrence.  c0 = 1 and c2 = q are exact, so the division and the
      negation are; step j rounds two products and a sum, at most eps
      (|lam s_(j-1)| + q |s_(j-2)|) <= 6 eps rho^(j+1) (s_1: eps (lam^2 + q)
      <= 5 eps rho^2).  That error reaches s_m times U_(m-j), so s_(k-1) is
      off by at most sum_(j=1..k-1) 6 eps rho^(j+1) (k-j) rho^(k-1-j) =
      3 k(k-1) eps rho^k.
    * The dot product over F <= n+1 rows rounds by (F eps/2)(1 + F eps)
      times sum |e s_(k-1)| <= 2 sum rho^k + n(q-1), and comparing with N_k
      in float costs eps/2 of the same.

    So |error| <= k^2 dlam sum rho_i^(k-1) + (3k(k-1) + n + 2) eps sum rho_i^k
    + (n + 2) eps n(q-1)/2, doubled for second-order terms; < 1/2 pins N_k.
    """
    eps = float(np.finfo(np.float64).eps)
    root_q = math.sqrt(q)
    dlam = n * eps * (q + 1)
    x = (np.abs(s) + dlam) / root_q
    rho = root_q * np.maximum(1.0, (x + np.sqrt(np.maximum(x * x - 4.0, 0.0))) / 2.0)
    k = np.asarray(k, dtype=float)
    drift = rho ** (k[..., None] - 1.0)
    budget = 2.0 * (k * k * dlam * drift.sum(axis=-1) + (n + 2) * eps * n * (q - 1) / 2.0
                    + (3.0 * k * (k - 1.0) + n + 2) * eps * (drift * rho).sum(axis=-1))
    return float(budget) if budget.ndim == 0 else budget


def log_series_zeta_check(census: CycleCensus, zeta_factors: Factors, K: int
                          ) -> tuple[bool, list[tuple[int, float, int, float]]]:
    """Verify that -d/du ln(Z(u)^-1), from the factors of Z(u)^-1, has
    Maclaurin coefficient N_{k+1} at u^k within nk_spectral_budget, taken
    from the rows 1 - lam*u + q*u^2 (c2 > 0), one per eigenvalue, and n = C_0.
    Returns (all_ok, records) with one (k, coefficient, N_k, relative
    residual, budget) record per 1 <= k <= K.  Where the budget reaches 1/2
    the coefficient no longer pins N_k, so a census off by one there can pass.
    """
    if K > census.horizon:
        raise ValueError(f"census horizon {census.horizon} < requested K={K}")
    c = zeta_factors.coefficients
    quadratic = c[:, 2] > 0
    budgets = nk_spectral_budget(-c[quadratic, 1], float(c[quadratic, 2].max()),
                                 census.c[0], np.arange(1, K + 1))
    coefficients, exact = -_logder(zeta_factors, K), np.array(census.nk[:K], dtype=float)
    deviations = np.abs(coefficients - exact)
    return bool(np.all(deviations <= budgets)), list(zip(
        range(1, K + 1), coefficients.tolist(), census.nk,
        (deviations / np.maximum(1.0, np.abs(exact))).tolist(), budgets.tolist()))
