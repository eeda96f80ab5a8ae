"""Numerical verification of weight properties: Fourier symbols, sign and
monotonicity patterns, and closed-form bound sandwiches."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    closed_form_table,
    expand_generating_function,
    first_order_sequence,
    generator_polynomial,
)


@dataclass(frozen=True)
class SymbolSample:
    theta: float
    value: float


@dataclass(frozen=True)
class SymbolScan:
    p: int
    alpha: float
    grid_size: int
    min_value: float
    theta_at_min: float
    nonnegative: bool


@dataclass(frozen=True)
class BoundCheckRecord:
    family: str
    alpha: float
    ell: int
    lower: float
    observed: float
    upper: float
    holds: bool


@dataclass(frozen=True)
class LowerBoundComparison:
    """Which of two competing lower bounds is tighter (larger)."""

    alpha: float
    ell: int
    pointwise_plain: float
    pointwise_damped: float
    tail_plain: float
    tail_damped: float

    @property
    def pointwise_plain_below_damped(self) -> bool:
        return self.pointwise_plain < self.pointwise_damped

    @property
    def tail_plain_below_damped(self) -> bool:
        return self.tail_plain < self.tail_damped


def symbol_values(p: int, alpha: float, thetas: np.ndarray) -> np.ndarray:
    """Re[W_p(e^{i theta})**alpha], vectorized over theta.

    Uses the principal branch of the complex power.  theta = 0 maps to 0
    exactly (the generator vanishes at z = 1), avoiding the rounding
    artifact of 0**alpha on a near-zero complex base.
    """
    thetas = np.asarray(thetas, dtype=float)
    g = generator_polynomial(p).as_floats()
    z = np.exp(1j * thetas)
    w = np.full(z.shape, complex(g[p]))
    for i in range(p - 1, -1, -1):
        w = w * z + g[i]
    out = np.real(np.power(w, alpha))
    return np.where(thetas == 0.0, 0.0, out)


def symbol_value(p: int, alpha: float, theta: float) -> float:
    """Scalar convenience wrapper around :func:`symbol_values`."""
    return float(symbol_values(p, alpha, np.array([theta]))[0])


def truncated_symbol(p: int, alpha: float, theta: float, length: int) -> float:
    """Partial cosine sum sum_{l<=length} w_{p,l} cos(l theta)."""
    w = expand_generating_function(p, alpha, length).values
    ell = np.arange(length + 1)
    return float(np.dot(w, np.cos(ell * theta)))


def check_symbol_nonnegativity(p: int, alpha: float, grid_size: int) -> SymbolScan:
    """Minimum of the symbol over a uniform theta grid on [-pi, pi]."""
    if grid_size < 1024:
        raise ValueError("grid_size must be at least 1024")
    thetas = np.linspace(-math.pi, math.pi, grid_size)
    vals = symbol_values(p, alpha, thetas)
    k = int(np.argmin(vals))
    return SymbolScan(p=p, alpha=alpha, grid_size=grid_size,
                      min_value=float(vals[k]), theta_at_min=float(thetas[k]),
                      nonnegative=bool(vals[k] >= -1e-12))


def alpha_limit_order4() -> float:
    """Largest order for which the p = 4 symbol is provably nonnegative."""
    return math.pi / (math.pi - math.acos(1.0 / 5.0)
                      + 2.0 * math.atan(191.0 * math.sqrt(6.0) / 317.0))


def symbol_angle_extreme(p: int, grid_size: int = 1 << 16) -> float:
    """Most negative continuous argument of W_p(e^{i theta}) on (0, pi].

    The symbol equals |W_p|**alpha * cos(alpha * phi) with phi the argument
    tracked continuously from theta = 0; it stays nonnegative for every
    theta exactly when alpha * |phi| never exceeds pi/2.
    """
    g = generator_polynomial(p).as_floats()
    thetas = np.linspace(1e-9, math.pi, grid_size)
    z = np.exp(1j * thetas)
    w = np.full(z.shape, complex(g[p]))
    for i in range(p - 1, -1, -1):
        w = w * z + g[i]
    phi = np.unwrap(np.angle(w))
    return float(np.min(phi))


def symbol_nonnegativity_threshold(p: int) -> float:
    """Empirical sup of alpha for which the symbol stays nonnegative.

    Equals (pi/2) / |phi_min|.  For p = 4 this reproduces the closed-form
    limit; for p = 3, 5, 6 it falls below 1, bounding the range where the
    nonnegativity claim actually holds.
    """
    return (math.pi / 2.0) / abs(symbol_angle_extreme(p))


def monotonicity_scan(p: int, alpha: float, length: int) -> int | None:
    """Smallest index from which the weight tail is monotone up to `length`.

    Nondecreasing tail for alpha < 1, nonincreasing for alpha > 1.  Returns
    None when no monotone tail exists below `length` (observed for p = 6).
    """
    if length < 200:
        raise ValueError("length must be at least 200")
    if not 2 <= p <= 6:
        raise ValueError(f"unsupported order p={p}, expected 2..6")
    w = expand_generating_function(p, alpha, length).values
    diffs = np.diff(w)
    ok = diffs >= 0.0 if alpha < 1.0 else diffs <= 0.0
    bad = np.nonzero(~ok)[0]
    if len(bad) == 0:
        return 0
    start = int(bad[-1]) + 1
    return start if start < length else None


# ---------------------------------------------------------------------------
# Bound sandwiches for first- and second-order weights.
#
# Tail sums use the zero-sum identity: for 0 < a < 1 all weights with index
# >= 1 share one sign, so sum_{k>=l} |w_{1,k}| equals the partial sum
# sum_{k<l} w_{1,k}; for 1 < a < 2 the tail from l >= 2 is sign-constant as
# well and equals minus that partial sum.  This is exact, unlike a truncated
# tail, whose remainder ~K**(-a) is non-negligible for small a.
# ---------------------------------------------------------------------------

_DAMPING = lambda a: math.exp(-(a + 1.0) ** 2 * (math.pi ** 2 / 6.0 - 1.25))


def _b1_lower(a: float, ell: int) -> float:
    return 0.5 * a * (1.0 - a) * (2.0 / ell) ** (2.0 * (a + 1.0))


def _b1_lower_damped(a: float, ell: int) -> float:
    return _DAMPING(a) * a * (1.0 - a) * 2.0 ** a / ell ** (a + 1.0)


def _b1_upper(a: float, ell: int) -> float:
    return a * 2.0 ** (a + 1.0) / (ell + 1.0) ** (a + 1.0)


def _s1_lower(a: float, ell: int) -> float:
    return a * (1.0 - a) / (2.0 * a + 1.0) * (2.0 / ell) ** (2.0 * a + 1.0)


def _s1_lower_damped(a: float, ell: int) -> float:
    return (1.0 - a) / 5.0 * (2.0 / ell) ** a


def _s1_upper(a: float, ell: int) -> float:
    return 2.0 * (2.0 / ell) ** a


def _shifted_b_lower(a: float, ell: int) -> float:
    return (1.0 - a) * a * (1.0 + a) / 6.0 * (3.0 / ell) ** (2.0 * (2.0 + a))


def _shifted_b_upper(a: float, ell: int) -> float:
    return a * (1.0 + a) / 2.0 * (3.0 / (ell + 1.0)) ** (2.0 + a)


def _shifted_s_lower(a: float, ell: int) -> float:
    return (1.0 - a) * a * (1.0 + a) / (2.0 * (3.0 + 2.0 * a)) * (3.0 / ell) ** (3.0 + 2.0 * a)


def _shifted_s_upper(a: float, ell: int) -> float:
    return 1.5 * a * (3.0 / ell) ** (1.0 + a)


def _b2_bounds(a: float, ell: int) -> tuple[float, float]:
    pre = 1.5 ** a
    third = (1.0 / 3.0) ** ell
    lower = pre * ((1.0 + third) * 0.5 * a * (1.0 - a) * (2.0 / ell) ** (2.0 * (1.0 + a))
                   - (1.0 - 3.0 * third) * a ** 2 * 2.0 ** (2.0 * a + 1.0)
                   / (1.0 + (a + 1.0) * ell))
    upper = pre * ((1.0 + third) * a * 2.0 ** (a + 1.0) / (ell + 1.0) ** (a + 1.0)
                   - 0.5 * a ** 2 * (1.0 - a) ** 2 * 4.0 ** (2.0 * a + 1.0)
                   * (1.0 - 3.0 * third) * (2.0 / ell) ** (4.0 * (a + 1.0)))
    return lower, upper


def _b2_shifted_bounds(a: float, ell: int) -> tuple[float, float]:
    pre = 1.5 ** (1.0 + a)
    third = (1.0 / 3.0) ** ell
    edge = 1.0 / 3.0 + 3.0 * third
    bulk = 1.0 - 27.0 * third
    lower = pre * ((1.0 + third) * (1.0 - a) * a * (1.0 + a) / 6.0
                   * (3.0 / ell) ** (2.0 * (2.0 + a))
                   + (1.0 - a) ** 2 * a ** 2 * (1.0 + a) ** 2 / 216.0 * bulk
                   * (6.0 / ell) ** (4.0 * (2.0 + a))
                   - a * (1.0 + a) ** 2 / 2.0 * edge * (3.0 / ell) ** (2.0 + a))
    upper = pre * ((1.0 + third) * a * (a + 1.0) * 3.0 ** (a + 2.0)
                   / (2.0 * (ell + 1.0) ** (a + 2.0))
                   + bulk * a ** 2 * (1.0 + a) ** 2 * 3.0 ** (2.0 * (2.0 + a))
                   / (24.0 * (1.0 + (2.0 + a) * ell))
                   - (1.0 - a) * a * (1.0 + a) ** 2 / 6.0 * edge
                   * (3.0 / (ell - 1.0)) ** (2.0 * (2.0 + a)))
    return lower, upper


def first_order_tail(alpha: float, ell: int) -> float:
    """sum_{k>=ell} |w_{1,k}^{(alpha)}| via the zero-sum identity."""
    w = first_order_sequence(alpha, ell - 1)
    partial = float(np.sum(w))
    return partial if alpha < 1.0 else -partial


def _second_order_values(alpha: float, length: int) -> np.ndarray:
    # block the capacity so index sweeps share one table per alpha
    return _second_order_table(alpha, max(128, length))


@functools.lru_cache(maxsize=64)
def _second_order_table(alpha: float, cap: int) -> np.ndarray:
    tab = closed_form_table(2, alpha, cap)
    tab.setflags(write=False)  # one array is handed to every caller
    return tab


# family tag -> (min ell, evaluator returning (lower, observed, upper))
_BOUND_FAMILIES = {
    "first-pointwise": 3,
    "first-pointwise-damped": 3,
    "first-tail": 3,
    "first-tail-damped": 3,
    "first-shifted-pointwise": 4,
    "first-shifted-tail": 4,
    "second-pointwise": 4,
    "second-shifted-pointwise": 4,
}


def bound_families() -> tuple[str, ...]:
    return tuple(_BOUND_FAMILIES)


def evaluate_bounds(family: str, alpha: float, ell: int) -> BoundCheckRecord:
    """Evaluate one lower < observed < upper sandwich.

    Families cover the first-order weights (plain and exponentially damped
    lower bounds, pointwise and tail), the order-(1+alpha) variants, and
    the second-order weights at orders alpha and 1+alpha.  `alpha` is the
    fractional part in (0, 1) throughout.
    """
    if family not in _BOUND_FAMILIES:
        raise ValueError(f"unknown bound family '{family}'")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    min_ell = _BOUND_FAMILIES[family]
    if ell < min_ell:
        raise ValueError(f"family '{family}' requires ell >= {min_ell}")

    if family == "first-pointwise":
        lo, up = _b1_lower(alpha, ell), _b1_upper(alpha, ell)
        obs = abs(first_order_sequence(alpha, ell)[ell])
    elif family == "first-pointwise-damped":
        lo, up = _b1_lower_damped(alpha, ell), _b1_upper(alpha, ell)
        obs = abs(first_order_sequence(alpha, ell)[ell])
    elif family == "first-tail":
        lo, up = _s1_lower(alpha, ell), _s1_upper(alpha, ell)
        obs = first_order_tail(alpha, ell)
    elif family == "first-tail-damped":
        lo, up = _s1_lower_damped(alpha, ell), _s1_upper(alpha, ell)
        obs = first_order_tail(alpha, ell)
    elif family == "first-shifted-pointwise":
        lo, up = _shifted_b_lower(alpha, ell), _shifted_b_upper(alpha, ell)
        obs = abs(first_order_sequence(1.0 + alpha, ell)[ell])
    elif family == "first-shifted-tail":
        lo, up = _shifted_s_lower(alpha, ell), _shifted_s_upper(alpha, ell)
        obs = first_order_tail(1.0 + alpha, ell)
    elif family == "second-pointwise":
        lo, up = _b2_bounds(alpha, ell)
        obs = abs(_second_order_values(alpha, ell)[ell])
    else:
        lo, up = _b2_shifted_bounds(alpha, ell)
        obs = abs(_second_order_values(1.0 + alpha, ell)[ell])

    return BoundCheckRecord(family=family, alpha=alpha, ell=ell,
                            lower=lo, observed=obs, upper=up,
                            holds=bool(lo < obs < up))


def compare_lower_bounds(alpha: float, ell: int) -> LowerBoundComparison:
    """Plain vs damped lower bounds for pointwise and tail estimates."""
    if ell < 3:
        raise ValueError("ell must be at least 3")
    return LowerBoundComparison(
        alpha=alpha, ell=ell,
        pointwise_plain=_b1_lower(alpha, ell),
        pointwise_damped=_b1_lower_damped(alpha, ell),
        tail_plain=_s1_lower(alpha, ell),
        tail_damped=_s1_lower_damped(alpha, ell),
    )


def pointwise_lower_crossing(ell: int) -> float:
    """Alpha where the plain and damped pointwise lower bounds swap order.

    Bisection on the sign of (plain - damped); the regime split is
    analytically 12*ln(ell/2)/(2*pi**2 - 15) - 1 for ell = 3, 4.
    """
    f = lambda a: _b1_lower(a, ell) - _b1_lower_damped(a, ell)
    lo, hi = 1e-9, 1.0 - 1e-9
    if f(lo) * f(hi) > 0:
        raise ValueError(f"no crossing for ell={ell} in (0, 1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
