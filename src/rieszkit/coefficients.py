"""Convolution weights for high-order fractional derivative approximations.

The order-p approximation of a one-sided fractional derivative uses the
Taylor coefficients of W_p(z)**alpha, where W_p is the degree-p
backward-difference generating polynomial W_p(z) = sum_{k=1..p} (1-z)^k / k.
Two independent evaluation routes are provided: a power-of-a-series
recurrence (fast, float64) and the explicit nested sums, used as a
cross-check.  The nested sums' multinomial coefficients are read off the
integer powers of one polynomial, P(z) = 1 - W_p(z) / (g_0 (1 - z)), so
that route is exact integer arithmetic with one correctly rounded division
per weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_ORDER = 6
# Upper bounds on counts, each from a budget of about 10 s and 1 GB on 2 cores:
MAX_SERIES_LENGTH = 10**6  # series weights: 1.2 s at p = 6, 32 MB
MAX_EXACT_LENGTH = 500  # nested sums, work ~ length**3: 4.3 s at p = 6, 50 MB
MAX_GRID = 10**6  # theta grid of a symbol or stability scan: 0.5 s per h, 300 MB

# W_p coefficients (g_0 .. g_p), exact: [z^i] sum_{k=1..p} (1-z)^k / k.
_GENERATOR_COEFFS: dict[int, tuple[Fraction, ...]] = {
    p: tuple(sum(Fraction((-1) ** i * math.comb(k, i), k)
                 for k in range(max(i, 1), p + 1))
             for i in range(p + 1))
    for p in range(1, MAX_ORDER + 1)
}
# The same coefficients as floats, for the series route and the symbol.
_GENERATOR_FLOATS: dict[int, tuple[float, ...]] = {
    p: tuple(float(c) for c in g) for p, g in _GENERATOR_COEFFS.items()
}


@dataclass(frozen=True)
class GeneratorPolynomial:
    """Degree-p polynomial whose alpha-th power generates the weights."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")
        if sum(self.coeffs) != 0:
            raise ValueError("generator polynomial must vanish at z = 1")
        if self.coeffs[0] <= 0:
            raise ValueError("leading coefficient must be positive")

    def as_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


@dataclass(frozen=True)
class CoefficientTable:
    """Weights w_0 .. w_L of one (order, alpha) pair, immutable."""

    p: int
    alpha: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def length(self) -> int:
        return len(self.values) - 1


def check_count(name: str, value, lo: int, hi: int) -> None:
    """Accept an int or NumPy integer, not a bool, in lo..hi as the count
    ``name``; the one owner of what a valid count is."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not lo <= value <= hi):
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {value}")


def generator_polynomial(p: int) -> GeneratorPolynomial:
    """Exact coefficients of W_p, p = 1..6."""
    check_count("p", p, 1, MAX_ORDER)
    return GeneratorPolynomial(order=p, coeffs=_GENERATOR_COEFFS[p])


def generator_on_circle(p: int, thetas: np.ndarray) -> np.ndarray:
    """W_p(e^{i theta}) by Horner's rule."""
    check_count("p", p, 1, MAX_ORDER)
    g = _GENERATOR_FLOATS[p]
    z = np.exp(1j * thetas)
    w = np.full(z.shape, complex(g[p]))
    for i in range(p - 1, -1, -1):
        w = w * z + g[i]
    return w


def first_order_sequence(alpha: float, length: int) -> np.ndarray:
    """Weights w_{1,j} = (-1)^j C(alpha, j), j = 0..length, by the pole-free
    recurrence w_j = w_{j-1} (1 - (alpha + 1) / j)."""
    validate_alpha(alpha)
    check_count("length", length, 0, MAX_SERIES_LENGTH)
    w = [1.0]
    for j in range(1, length + 1):
        w.append(w[-1] * (1.0 - (alpha + 1.0) / j))
    return np.array(w)


def validate_alpha(alpha: float) -> None:
    """Reject an order alpha outside (0, 2), the range of the weights."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def expand_generating_function(p: int, alpha: float, length: int) -> CoefficientTable:
    """Taylor coefficients of W_p(z)**alpha by the power-of-a-series recurrence.

    For P(z) = sum g_i z^i with g_0 > 0 and f = P**alpha, matching
    coefficients in f' P = alpha f P' gives

        c_m = (1 / (g_0 m)) * sum_{i=1..min(p,m)} ((alpha+1) i - m) g_i c_{m-i},

    with c_0 = g_0**alpha.  O(p * length) and stable: the generator's roots
    other than z = 1 lie outside the unit disk.  The recurrence runs on
    Python floats, the same IEEE operations as on NumPy scalars at about
    half the cost, and the table becomes one array at the end.
    """
    validate_alpha(alpha)
    check_count("length", length, 0, MAX_SERIES_LENGTH)
    check_count("p", p, 1, MAX_ORDER)
    g = _GENERATOR_FLOATS[p]
    c = [g[0] ** alpha]
    ap1 = alpha + 1.0
    for m in range(1, length + 1):
        s = 0.0
        for i in range(1, min(p, m) + 1):
            s += (ap1 * i - m) * g[i] * c[m - i]
        c.append(s / (g[0] * m))
    return CoefficientTable(p=p, alpha=alpha, values=np.array(c))


# ---------------------------------------------------------------------------
# Explicit nested-sum route (exact integers over known denominators).
#
# With W_p/g_0 = (1-z) * (1 - P(z)), where P(0) = 0 and P has degree p - 1,
# and (1-z)**alpha = sum_j w_{1,j} z^j,
#
#   W_p(z)**alpha = g_0**alpha * (1-z)**alpha * sum_m w_{1,m} P(z)^m,
#
# so the alpha-free inner weights are [z^l1] P^m: the multinomial
# coefficients of the nested sums are the coefficients of the powers of P.
# The coefficients of 1 - P are the prefix sums of W_p's coefficients over g_0.
# The sums carry catastrophic cancellation for p >= 4 (term magnitudes up to
# ~1e21 at index 60 for p = 6), hence exact arithmetic rather than floats.
# Every rational in them has a denominator known in advance, so each sum is
# carried as one Python integer over that denominator:
#
#   [z^k] P = a_k / B^k      B = lcm of the denominators of P's coefficients
#   w_{1,j} = P_j / (j! d^j)  alpha = n / d exactly, P_j = prod_{i<=j} (i d - n - d)
#
# Both sums run by Horner's rule (Knuth, TAOCP Vol. 2, 4.6.4), so each step
# multiplies the big accumulator by a small integer: by m d in the inner sum
# (m ascending), and by B f_k, f_k = P_k / P_{k-1} = k d - n - d, in the
# final convolution (k = ell - l1 descending).  For alpha of order one f_k
# has about 60 bits, while I[l1] and B^k P_k, the two factors of each
# expanded term, both grow about 55 bits per index.
# The one rounding is the final int / int true division, which CPython rounds
# correctly, as float(Fraction) does for the same rational.
# B, C and the binomial rows do not depend on alpha: they are built once per
# (p, length) and kept in small LRU caches, as tuples so no caller can alter
# them.  Their size grows like length**3 (about 0.7 MB at p = 6, length 100).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _inner_weights(p: int, length: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(B, C) with C[l1][m] = B**l1 * [z^l1] P(z)^m, exact.

    P(B z) / z has integer coefficients, so C[l1][m] = [z^(l1-m)] (P(B z) / z)^m
    is built by multiplying by it one power at a time, each power truncated
    at degree length - m.
    """
    g = _GENERATOR_COEFFS[p]
    P = [-sum(g[:k + 1]) / g[0] for k in range(1, p)]  # [z^k] P, k = 1 .. p-1
    B = math.lcm(*(c.denominator for c in P))
    a = [int(c * B ** k) for k, c in enumerate(P, 1)]  # P(B z)/z = sum a_k z^(k-1)
    C: list[list[int]] = [[0] * (l1 + 1) for l1 in range(length + 1)]
    power = [1]  # (P(B z) / z)**m, truncated at degree length - m
    for m in range(length + 1):
        for k, c in enumerate(power):
            C[m + k][m] = c
        nxt = [0] * min(len(power) + len(a) - 1, length - m)
        for i, c in enumerate(a):
            for k in range(min(len(power), len(nxt) - i)):
                nxt[i + k] += c * power[k]
        power = nxt
    return B, tuple(map(tuple, C))


@functools.lru_cache(maxsize=8)
def _binomial_rows(length: int) -> tuple[tuple[int, ...], ...]:
    """Pascal's rows binom(ell, 0..ell), ell = 0..length."""
    rows = [(1,)]
    for _ in range(length):
        row = rows[-1]
        rows.append((1, *[a + b for a, b in zip(row, row[1:])], 1))
    return tuple(rows)


def closed_form_table(p: int, alpha: float, length: int) -> np.ndarray:
    """All weights w_{p,0} .. w_{p,length} via the explicit nested sums.

    w_{p,ell} = g_0**alpha * sum_{l1} inner[l1] * w_{1,ell-l1} with
    inner[l1] = sum_{m} C[l1][m] * w_{1,m}, evaluated exactly by Horner's
    rule; see the comment block above for the integer scaling and for why
    each Horner step multiplies the big accumulator by a small integer only.
    """
    check_count("p", p, 2, MAX_ORDER)
    validate_alpha(alpha)
    check_count("length", length, 0, MAX_EXACT_LENGTH)
    B, C = _inner_weights(p, length)
    n, d = float(alpha).as_integer_ratio()
    f = [i * d - n - d for i in range(length + 1)]  # f[i] = P_i / P_{i-1}, i >= 1
    P = [1]
    for fi in f[1:]:
        P.append(P[-1] * fi)
    # I[l1] = B**l1 * l1! * d**l1 * inner[l1]; row[m] = 0 for m < l1 / (p - 1)
    md = [m * d for m in range(length + 1)]
    I = []
    for l1, row in enumerate(C):
        lo = -(-l1 // (p - 1))
        acc = 0
        for factor, c, Pm in zip(md[lo:l1 + 1], row[lo:], P[lo:]):
            acc = acc * factor + c * Pm
        I.append(acc)
    # row ell: Horner's rule in B f_k, k = ell..1, over binom(ell, j) I[j], j = 1..ell
    Bf = [B * fk for fk in f]
    g0 = float(_GENERATOR_COEFFS[p][0]) ** alpha
    out = np.empty(length + 1)
    denom = 1  # B**ell * ell! * d**ell
    for ell, binomials in enumerate(_binomial_rows(length)):
        if ell:
            denom *= B * ell * d
        # num / denom = sum_{l1} inner[l1] * w_{1,ell-l1}
        num = I[0]
        for factor, binomial, Ij in zip(Bf[ell:0:-1], binomials[1:], I[1:]):
            num = num * factor + binomial * Ij
        out[ell] = g0 * (num / denom)
    return out
