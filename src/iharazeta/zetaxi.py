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
integer powers.  Xi is that product over (1 - sqrt(q)*u)^degree, the one
denominator the paper gives it, held as q and degree (RationalFunction).
Evaluation takes a whole vector of points at once and returns
log2|value| = sum e*log2|p(u)| with a sign from the parity of the negative
factors, so values beyond the float range (Xi near its pole u = q^(-1/2))
stay representable, and relative_gap compares two of them without forming
either.  The series extraction does not expand either: the log-derivative
of a product is the sum of e*p'/p over its factors, and each rescaled row
1 - x v + v^2 has p'/p = -sum T_k(x) v^(k-1), so hk_series runs the
spectral route's table (hk.chebyshev_T_table) on the rows' x; the
denominator adds its degree at every k exactly.  What the series route
checks on its own is how Xi is built: its rows, the trivial rows
xi_rational drops and its degree.  No product of degree 2n ever forms, so
no cluster of 2n-2 equal roots has to be resolved from rounded
coefficients.
Xi is built once, as the paper defines it: the factors of Z(u)^-1
(zeta_inverse) less the exact trivial ones, over (1 - sqrt(q)*u)^2 per
nontrivial eigenvalue (xi_rational).  The N_k series of Z(u)^-1 is that of
Xi plus exact trivial terms, so its float form is hk.hk_spectral's h_k,
scaled by q^(k/2): log_series_zeta_check holds both float routes, the
spectral one and hk_series, to the census within one a-priori budget.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Sequence

import numpy as np

from .hk import chebyshev_T_table, finite_h
from .spectral import NontrivialSpectrum


class PoleHit(ArithmeticError):
    """Evaluation point is (numerically) a pole of the rational function."""


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
    """Xi's float form: the product num of factors of degree at most two,
    over (1 - sqrt(q)*u)^degree.

    Evaluation multiplies factor values (as a sum of logarithms) instead of
    running Horner on expanded coefficients; for
    prod(1 - lam*u + q*u^2) / (1 - sqrt(q)u)^2M that is the difference
    between full accuracy and catastrophic cancellation.
    """

    __slots__ = ("num", "q", "degree")

    def __init__(self, num: Factors, q: int, degree: int):
        self.num, self.q, self.degree = num, q, degree

    def log2_sign(self, u) -> tuple[np.ndarray, np.ndarray]:
        """log2 of the absolute value and the sign, at every point of u (a
        scalar or an array), without forming the value; an exact zero is
        (-inf, 0).  Raises PoleHit where 1 - sqrt(q)*u is 0 within its
        rounding, eps|sqrt(q) u|, taken as 2 eps (1 + sqrt(q)|u|)."""
        u = np.asarray(u, dtype=float)
        points = u.reshape(-1)
        root_u = math.sqrt(self.q) * points
        den = 1.0 - root_u
        near = np.abs(den) <= 2.0 * np.finfo(np.float64).eps * (1.0 + np.abs(root_u))
        if near.any():
            raise PoleHit(f"u={float(points[near][0])!r} is numerically a pole")
        num_log2, num_sign = _log2_sign(
            _horner(self.num.coefficients, self.num.variable(points)),
            self.num.powers)
        den_log2, den_sign = _log2_sign(den[:, None], self.degree)
        return ((num_log2 - den_log2).reshape(u.shape),
                (num_sign * den_sign).reshape(u.shape))

    def __call__(self, u: float) -> float:
        """The value at u; OverflowError beyond the float range."""
        log2, sign = self.log2_sign(u)
        return float(sign) * math.pow(2.0, float(log2))


# ---------------------------------------------------------------------------
# construction

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


def zeta_inverse(ns: NontrivialSpectrum) -> Factors:
    """Z(u)^-1 = (1-u^2)^(n(q-1)/2) * prod(1 - lam*u + q*u^2) over the
    spectrum, as its factors: one row per nontrivial eigenvalue, then the
    exact trivial rows, (1-u)(1-qu) for q+1 and, when q > 1, (1-u^2) of
    power n(q-1)/2.

    A bipartite spectrum pairs +/-sigma, and (1 - sigma*u + q*u^2)(1 +
    sigma*u + q*u^2) = 1 + (2q - sigma^2) w + q^2 w^2 in w = u^2: one row in
    w per nontrivial sigma (the first half of ns), then 1 - (q^2+1) w +
    q^2 w^2 for +/-(q+1) and 1 - w, so every row is in w."""
    q = ns.q
    e = (len(ns) + (2 if ns.bipartite else 1)) * (q - 1) // 2
    if ns.bipartite:
        return Factors.from_rows(
            *((1.0, 2.0 * q - x * x, float(q * q), 1) for x in ns.values[:len(ns) // 2]),
            (1.0, -(q * q + 1.0), float(q * q), 1), (1.0, -1.0, 0.0, e), in_w=True)
    return Factors.from_rows(*((1.0, -lam, float(q), 1) for lam in ns.values),
                             (1.0, -(q + 1.0), float(q), 1), (1.0, 0.0, -1.0, e))


def xi_rational(z: Factors, q: int) -> RationalFunction:
    """Xi(u) from the factors z of Z(u)^-1 (zeta_inverse).  The paper's
    Xi(u)^-1 = (1-u)(1-qu)(1 - sqrt(q) u)^(2n-2)(1-u^2)^(n(q-1)/2) Z(u), or
    (1 - q^2 u^2)(1 - sqrt(q) u)^(2n-4)(1-u^2)^(n(q-1)/2+1) Z(u) when
    bipartite, makes Xi(u) the product over the nontrivial spectrum of
    (1 - lam*u + q*u^2) / (1 - sqrt(q)*u)^2: z's rows less the trivial
    ones, which come last, over (1 - sqrt(q)*u) to twice the numerator's
    degree in u."""
    rows = len(z.powers) - (2 if q > 1 else 1)
    num = Factors(z.coefficients[:rows], z.powers[:rows], z.in_w)
    return RationalFunction(num, q, int(num.powers.sum()) * (4 if z.in_w else 2))


# ---------------------------------------------------------------------------
# functional equation

def functional_equation_points(count: int = 100, seed: int = 42) -> np.ndarray:
    """Deterministic sample points, uniform over [-0.9,-0.1] u [0.1,0.9]:
    count magnitudes, then count signs, from the standard library's Mersenne
    Twister random.Random(seed).  numpy.random would do the same, but its
    import costs a fresh process about 7 MB and 20 ms for 100 floats."""
    rng = random.Random(seed)
    mags = [0.1 + 0.8 * rng.random() for _ in range(count)]
    return np.array([-m if rng.random() < 0.5 else m for m in mags], dtype=float)


def functional_equation_residual(xi: RationalFunction, u):
    """relative_gap of Xi(u) and Xi(1/(q*u)), q = xi.q: a float for a scalar
    u, an array for an array of points.

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
    log2, sign = xi.log2_sign(np.stack((u, 1.0 / (xi.q * u))))
    gap = relative_gap(log2[0], sign[0], log2[1], sign[1])
    return float(gap) if gap.ndim == 0 else gap


# ---------------------------------------------------------------------------
# series extraction

@np.errstate(over="ignore", invalid="ignore")
def hk_series(xi: RationalFunction, K: int) -> np.ndarray:
    """h_1..h_K from the definition: the Maclaurin coefficients of
    d/du ln Xi(u/sqrt(q)), q = xi.q, summed over the factors of Xi in
    float64.

    The rescaling makes every numerator row 1 - x v + v^2, x = -c1/sqrt(q)
    (-c1/q for rows in w = u^2), and the denominator (1 - u)^degree, whose
    -d/du ln adds exactly degree at every k.  With x = y + 1/y the row is
    (1 - y v)(1 - v/y), so its log-derivative has coefficient -T_k(x) at
    v^(k-1) (hk.chebyshev_T_table).  For rows in w, d/du ln p(u^2) =
    2u (p'/p)(w): the coefficient of w^(j-1), of the first K/2, lands
    doubled at u^(2j-1), so a bipartite Xi's odd h_k are its degree,
    2(n-2), exactly.  Raises ValueError for a row that is not Xi-shaped,
    c0 = 1 and c2 = q (q^2 in w), the rows for which the table is exact,
    and HorizonOverflow (hk.finite_h) for a table past the double range.
    """
    num, q = xi.num, xi.q
    c0, c1, c2 = num.coefficients.T
    if np.any(c0 != 1.0) or np.any(c2 != (q * q if num.in_w else q)):
        raise ValueError("hk_series needs rows 1 + c1*v + q*v^2 (q^2*v^2 in w = u^2)")
    powers = num.powers.astype(float)
    h = np.full(K, float(xi.degree))
    if num.in_w:
        h[1::2] -= 2.0 * (chebyshev_T_table(K // 2, -c1 / q) @ powers)
    else:
        h -= chebyshev_T_table(K, -c1 / math.sqrt(q)) @ powers
    return finite_h(h)


def log_series_zeta_check(routes: dict[str, np.ndarray], census: np.ndarray,
                          budget: np.ndarray, q: int) -> tuple[dict | None, str | None]:
    """Hold -d/du ln Z(u)^-1 = sum N_k u^(k-1) to the census at k = 1..K, in
    the h scale: the h_1..h_K of each float route in routes, by name
    (hk.hk_spectral, hk_series), are its coefficients less their exact
    trivial terms, over q^(k/2), and must lie within the a-priori budget
    (hk.hk_spectral_budget) of the census's (hk.hk_from_ck).

    Returns the report's zeta_census_check block -- K, the largest deviation
    of a route as a fraction of its budget, k_pinned and ok -- and None, or,
    when some k fails, None and a message naming the first, and the first
    route failing there.  k_pinned counts the leading orders where q^(k/2)
    budget < 1/2: a census N_k one off there moves h_k outside it.
    """
    deviation = np.abs(np.array(list(routes.values())) - census)
    outside = np.argwhere(~(deviation <= budget).T)  # (k - 1, route), by k
    if len(outside):
        i, r = outside[0]
        return None, (f"{list(routes)[r]} h_{i + 1} strays from the census's by "
                      f"{deviation[r, i]:.3e}, beyond its error budget {budget[i]:.3e}")
    pinned = np.log2(budget) + 0.5 * math.log2(q) * np.arange(1, len(budget) + 1) < -1.0
    return {"k_checked": len(budget), "max_residual": float(np.max(deviation / budget)),
            "k_pinned": int(np.logical_and.accumulate(pinned).sum()), "ok": True}, None
