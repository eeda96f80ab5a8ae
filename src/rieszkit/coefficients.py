"""Convolution weights for high-order fractional derivative approximations.

The order-p approximation of a one-sided fractional derivative uses the
Taylor coefficients of W_p(z)**alpha, where W_p is the degree-p
backward-difference generating polynomial W_p(z) = sum_{k=1..p} (1-z)^k / k.
Two independent evaluation routes are provided: a power-of-a-series
recurrence (fast, float64) and the explicit nested sums, used as a
cross-check.  The nested sums' multinomial coefficients are read off the
integer powers of one polynomial built from the ratio chain of W_p, so
that route is exact integer arithmetic with one correctly rounded division
per weight.
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
# With W_p/g_0 = (1-z) * (1 - r_1 z psi(z)), psi(z) = 1 - r_2 z (1 - r_3 z (...)),
# and (1-z)**alpha = sum_j w_{1,j} z^j,
#
#   W_p(z)**alpha = g_0**alpha * (1-z)**alpha * sum_m w_{1,m} r_1^m z^m psi(z)^m,
#
# so the alpha-free inner weights are r_1^m [z^(l1-m)] psi^m: the multinomial
# coefficients of the nested sums are the coefficients of the powers of psi.
# The sums carry catastrophic cancellation for p >= 4 (term magnitudes up to
# ~1e21 at index 60 for p = 6), hence exact arithmetic rather than floats.
# Every rational in them has a denominator known in advance, so each sum is
# carried as one Python integer over that denominator:
#
#   r_i = a_i / B            B = lcm of the ratio-chain denominators of W_p
#   w_{1,j} = P_j / (j! d^j)  alpha = n / d exactly, P_j = prod_{i<=j} (i d - n - d)
#
# The one rounding is the final int / int true division, which CPython rounds
# correctly, as float(Fraction) does for the same rational.
# ---------------------------------------------------------------------------


def _inner_weights(p: int, length: int) -> tuple[int, list[list[int]]]:
    """(B, C) with C[l1][m] = B**l1 * r_1^m [z^(l1-m)] psi(z)^m, exact.

    psi(B z) = 1 - a_2 z (1 - a_3 z (1 - ...)) has integer coefficients, so
    C[l1][m] = a_1^m [z^(l1-m)] psi(B z)^m is built by multiplying by it one
    power at a time, each power truncated at degree length - m.
    """
    r = _RATIO_CHAINS[p]
    B = math.lcm(*(q.denominator for q in r))
    a = [q.numerator * (B // q.denominator) for q in r]
    psi = [1]
    for ai in reversed(a[1:]):
        psi = [1] + [-ai * c for c in psi]
    C: list[list[int]] = [[0] * (l1 + 1) for l1 in range(length + 1)]
    power = [1]  # psi(B z)**m, truncated at degree length - m
    for m in range(length + 1):
        scale = a[0] ** m
        for k, c in enumerate(power):
            C[m + k][m] = scale * c
        nxt = [0] * min(len(power) + len(psi) - 1, length - m)
        for i, c in enumerate(psi):
            for k in range(min(len(power), len(nxt) - i)):
                nxt[i + k] += c * power[k]
        power = nxt
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
    for l1, row in enumerate(C):
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

