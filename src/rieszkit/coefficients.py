"""Convolution weights for high-order fractional derivative approximations.

The order-p approximation of a one-sided fractional derivative uses the
Taylor coefficients of W_p(z)**alpha, where W_p is the degree-p
backward-difference generating polynomial W_p(z) = sum_{k=1..p} (1-z)^k / k.
Two independent evaluation routes are provided: a power-of-a-series
recurrence (fast, float64) and the explicit nested multinomial sums
(exact integer arithmetic over known denominators, used as a cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_ORDER = 6

# W_p coefficients (g_0 .. g_p), exact.
_GENERATOR_COEFFS: dict[int, tuple[Fraction, ...]] = {
    1: (Fraction(1), Fraction(-1)),
    2: (Fraction(3, 2), Fraction(-2), Fraction(1, 2)),
    3: (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)),
    4: (Fraction(25, 12), Fraction(-4), Fraction(3), Fraction(-4, 3), Fraction(1, 4)),
    5: (Fraction(137, 60), Fraction(-5), Fraction(5), Fraction(-10, 3),
        Fraction(5, 4), Fraction(-1, 5)),
    6: (Fraction(147, 60), Fraction(-6), Fraction(15, 2), Fraction(-20, 3),
        Fraction(15, 4), Fraction(-6, 5), Fraction(1, 6)),
}

# Ratio chains of the nested factorization W_p/g_0 = (1-z) * (1 - r_1 z (1 - r_2 z (...)))
# underlying the explicit multinomial sums for p >= 2.
_RATIO_CHAINS: dict[int, tuple[Fraction, ...]] = {
    2: (Fraction(1, 3),),
    3: (Fraction(7, 11), Fraction(2, 7)),
    4: (Fraction(23, 25), Fraction(13, 23), Fraction(3, 13)),
    5: (Fraction(163, 137), Fraction(137, 163), Fraction(63, 137), Fraction(4, 21)),
    6: (Fraction(213, 147), Fraction(237, 213), Fraction(163, 237),
        Fraction(62, 163), Fraction(5, 31)),
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


def generator_polynomial(p: int) -> GeneratorPolynomial:
    """Exact coefficients of W_p, p = 1..6."""
    if p not in _GENERATOR_COEFFS:
        raise ValueError(f"unsupported order p={p}, expected 1..{MAX_ORDER}")
    return GeneratorPolynomial(order=p, coeffs=_GENERATOR_COEFFS[p])


def first_order_sequence(alpha: float, length: int) -> np.ndarray:
    """Weights w_{1,j} = (-1)^j C(alpha, j), j = 0..length, by the pole-free
    recurrence w_j = w_{j-1} (1 - (alpha + 1) / j)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    w = np.empty(length + 1)
    w[0] = 1.0
    for j in range(1, length + 1):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    return w


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def expand_generating_function(p: int, alpha: float, length: int) -> CoefficientTable:
    """Taylor coefficients of W_p(z)**alpha by the power-of-a-series recurrence.

    For P(z) = sum g_i z^i with g_0 > 0 and f = P**alpha, matching
    coefficients in f' P = alpha f P' gives

        c_m = (1 / (g_0 m)) * sum_{i=1..min(p,m)} ((alpha+1) i - m) g_i c_{m-i},

    with c_0 = g_0**alpha.  O(p * length) and stable: the generator's roots
    other than z = 1 lie outside the unit disk.
    """
    _validate_alpha(alpha)
    if length < 0:
        raise ValueError("length must be nonnegative")
    g = generator_polynomial(p).as_floats()
    c = np.zeros(length + 1)
    c[0] = g[0] ** alpha
    ap1 = alpha + 1.0
    for m in range(1, length + 1):
        s = 0.0
        for i in range(1, min(p, m) + 1):
            s += (ap1 * i - m) * g[i] * c[m - i]
        c[m] = s / (g[0] * m)
    return CoefficientTable(p=p, alpha=alpha, values=c)


# ---------------------------------------------------------------------------
# Explicit nested-sum route (exact integers over known denominators).
#
# The nested sums carry catastrophic cancellation for p >= 4 (term magnitudes
# up to ~1e21 at index 60 for p = 6), hence exact arithmetic rather than
# floats.  Every rational in them has a denominator known in advance, so each
# sum is carried as one Python integer over that denominator instead of as
# Fraction objects, which pay a gcd after every operation:
#
#   r_i = a_i / B            B = lcm of the ratio-chain denominators of W_p
#   w_{1,j} = P_j / (j! d^j)  alpha = n / d exactly, P_j = prod_{i<=j} (i d - n - d)
#
# The one rounding is the final int / int true division, which CPython rounds
# correctly, as float(Fraction) does for the same rational.  The inner weights
# depend only on p, never on alpha, so they are built once per (p, capacity)
# and reused.
# ---------------------------------------------------------------------------

_inner_cache: dict[int, tuple[int, int, list[list[int]]]] = {}


def _inner_weights(p: int, length: int) -> tuple[int, list[list[int]]]:
    """(B, C) with C[l1][m1] = B**l1 * (alpha-free part of the nested sums).

    m1 is the first-order index.  Each term's ratio exponents sum to l1, so
    scaling row l1 by B**l1 makes every term an integer.
    """
    cached = _inner_cache.get(p)
    if cached is not None and cached[0] >= length:
        return cached[1], cached[2]
    r = _RATIO_CHAINS[p]
    B = math.lcm(*(q.denominator for q in r))
    rp = [[(q.numerator * (B // q.denominator)) ** k for k in range(length + 1)]
          for q in r]
    fact = math.factorial
    C: list[list[int]] = [[0] * (l1 + 1) for l1 in range(length + 1)]
    for l1 in range(length + 1):
        if p == 2:
            C[l1][l1] = rp[0][l1]
        elif p == 3:
            for l2 in range(l1 // 2 + 1):
                mult = fact(l1 - l2) // (fact(l2) * fact(l1 - 2 * l2))
                C[l1][l1 - l2] += (-1) ** l2 * rp[0][l1 - l2] * rp[1][l2] * mult
        elif p == 4:
            for l2 in range((2 * l1) // 3 + 1):
                for l3 in range(max(0, 2 * l2 - l1), l2 // 2 + 1):
                    mult = fact(l1 - l2) // (
                        fact(l3) * fact(l2 - 2 * l3) * fact(l1 + l3 - 2 * l2))
                    C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                       * rp[1][l2 - l3] * rp[2][l3] * mult)
        elif p == 5:
            for l2 in range((3 * l1) // 4 + 1):
                for l3 in range(max(0, 2 * l2 - l1), (2 * l2) // 3 + 1):
                    for l4 in range(max(0, 2 * l3 - l2), l3 // 2 + 1):
                        mult = fact(l1 - l2) // (
                            fact(l4) * fact(l3 - 2 * l4)
                            * fact(l1 + l3 - 2 * l2) * fact(l2 + l4 - 2 * l3))
                        C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                           * rp[1][l2 - l3] * rp[2][l3 - l4]
                                           * rp[3][l4] * mult)
        else:
            for l2 in range((4 * l1) // 5 + 1):
                for l3 in range(max(0, 2 * l2 - l1), (3 * l2) // 4 + 1):
                    for l4 in range(max(0, 2 * l3 - l2), (2 * l3) // 3 + 1):
                        for l5 in range(max(0, 2 * l4 - l3), l4 // 2 + 1):
                            mult = fact(l1 - l2) // (
                                fact(l5) * fact(l4 - 2 * l5)
                                * fact(l1 + l3 - 2 * l2)
                                * fact(l2 + l4 - 2 * l3)
                                * fact(l3 + l5 - 2 * l4))
                            C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                               * rp[1][l2 - l3] * rp[2][l3 - l4]
                                               * rp[3][l4 - l5] * rp[4][l5] * mult)
    _inner_cache[p] = (length, B, C)
    return B, C


def closed_form_table(p: int, alpha: float, length: int) -> np.ndarray:
    """All weights w_{p,0} .. w_{p,length} via the explicit nested sums.

    w_{p,ell} = g_0**alpha * sum_{l1} inner[l1] * w_{1,ell-l1} with
    inner[l1] = sum_{m} C[l1][m] * w_{1,m}, evaluated exactly; see the
    comment block above for the integer scaling.
    """
    if p not in _RATIO_CHAINS:
        raise ValueError(f"unsupported order p={p}, expected 2..{MAX_ORDER}")
    _validate_alpha(alpha)
    if length < 0:
        raise ValueError("length must be nonnegative")
    B, C = _inner_weights(p, length)
    n, d = float(alpha).as_integer_ratio()
    P = [1]
    for i in range(1, length + 1):
        P.append(P[-1] * (i * d - n - d))
    # I[l1] = B**l1 * l1! * d**l1 * inner[l1]
    I = []
    for l1, row in enumerate(C[:length + 1]):
        acc, scale = 0, 1  # scale = (l1! / m!) * d**(l1 - m)
        for m in range(l1, -1, -1):
            if row[m]:
                acc += row[m] * P[m] * scale
            scale *= m * d
        I.append(acc)
    g0 = float(_GENERATOR_COEFFS[p][0]) ** alpha
    out = np.empty(length + 1)
    Q = [P[k] * B ** k for k in range(length + 1)]
    denom = 1  # B**ell * ell! * d**ell
    for ell in range(length + 1):
        if ell:
            denom *= B * ell * d
        # num / denom = sum_{l1} inner[l1] * w_{1,ell-l1}, with Q = P * B**k
        num = sum(math.comb(ell, l1) * I[l1] * Q[ell - l1]
                  for l1 in range(ell + 1))
        out[ell] = g0 * (num / denom)
    return out


def closed_form_coeff(p: int, alpha: float, ell: int) -> float:
    """Single weight w_{p,ell} via the explicit nested sums, p = 2..6."""
    if ell < 0:
        raise ValueError("index must be nonnegative")
    return float(closed_form_table(p, alpha, ell)[ell])
