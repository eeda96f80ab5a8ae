"""Numerical verification of weight properties: Fourier symbols, sign and
monotonicity patterns, and closed-form bound sandwiches."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    MAX_EXACT_LENGTH,
    MAX_GRID,
    MAX_SERIES_LENGTH,
    check_count,
    closed_form_table,
    expand_generating_function,
    first_order_sequence,
    generator_on_circle,
    validate_alpha,
)


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


def symbol_values(p: int, alpha: float, thetas: np.ndarray) -> np.ndarray:
    """Re[W_p(e^{i theta})**alpha], vectorized over theta.

    Uses the principal branch of the complex power.  theta = 0 maps to 0
    exactly (the generator vanishes at z = 1), avoiding the rounding
    artifact of 0**alpha on a near-zero complex base.  alpha must lie in
    (0, 2), as for the weights.
    """
    validate_alpha(alpha)
    thetas = np.asarray(thetas, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError("theta must be finite")
    w = generator_on_circle(p, thetas)
    out = np.real(np.power(w, alpha))
    return np.where(thetas == 0.0, 0.0, out)


def truncated_symbol(p: int, alpha: float, theta: float, length: int) -> float:
    """Partial cosine sum sum_{l<=length} w_{p,l} cos(l theta)."""
    check_count("length", length, 0, MAX_SERIES_LENGTH)
    if not math.isfinite(length * theta):  # the largest angle, l = length
        raise ValueError(f"theta and length * theta must be finite, got theta = {theta}")
    w = expand_generating_function(p, alpha, length).values
    ell = np.arange(length + 1)
    return float(np.dot(w, np.cos(ell * theta)))


def check_symbol_nonnegativity(p: int, alpha: float, grid_size: int) -> SymbolScan:
    """Minimum of the symbol over a uniform theta grid on [-pi, pi]."""
    check_count("grid_size", grid_size, 1024, MAX_GRID)
    thetas = np.linspace(-math.pi, math.pi, grid_size)
    return symbol_scan(p, alpha, thetas, symbol_values(p, alpha, thetas))


def symbol_scan(p: int, alpha: float, thetas: np.ndarray,
                 vals: np.ndarray) -> SymbolScan:
    """Minimum and verdict of symbol values `vals` taken on the grid `thetas`."""
    check_count("grid_size", len(thetas), 1024, MAX_GRID)
    k = int(np.argmin(vals))
    return SymbolScan(p=p, alpha=alpha, grid_size=len(thetas),
                      min_value=float(vals[k]), theta_at_min=float(thetas[k]),
                      nonnegative=bool(vals[k] >= -1e-12))


def alpha_limit_order4() -> float:
    """Largest order for which the p = 4 symbol is provably nonnegative."""
    return math.pi / (math.pi - math.acos(1.0 / 5.0)
                      + 2.0 * math.atan(191.0 * math.sqrt(6.0) / 317.0))


def symbol_angle_extreme(p: int) -> float:
    """Most negative continuous argument of W_p(e^{i theta}) on (0, pi].

    The symbol equals |W_p|**alpha * cos(alpha * phi) with phi the argument
    tracked continuously from theta = 0; it stays nonnegative for every
    theta exactly when alpha * |phi| never exceeds pi/2.
    """
    thetas = np.linspace(1e-9, math.pi, 1 << 16)
    phi = np.unwrap(np.angle(generator_on_circle(p, thetas)))
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
    check_count("length", length, 200, MAX_SERIES_LENGTH)
    check_count("p", p, 2, 6)
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


def _pair(lower, upper):
    return lambda a, ell: (lower(a, ell), upper(a, ell))


# family tag -> (min ell, order shift, observed quantity, (lower, upper) bounds)
_BOUND_FAMILIES = {
    "first-pointwise": (3, 0.0, "first", _pair(_b1_lower, _b1_upper)),
    "first-pointwise-damped": (3, 0.0, "first", _pair(_b1_lower_damped, _b1_upper)),
    "first-tail": (3, 0.0, "tail", _pair(_s1_lower, _s1_upper)),
    "first-tail-damped": (3, 0.0, "tail", _pair(_s1_lower_damped, _s1_upper)),
    "first-shifted-pointwise": (4, 1.0, "first",
                                _pair(_shifted_b_lower, _shifted_b_upper)),
    "first-shifted-tail": (4, 1.0, "tail", _pair(_shifted_s_lower, _shifted_s_upper)),
    "second-pointwise": (4, 0.0, "second", _b2_bounds),
    "second-shifted-pointwise": (4, 1.0, "second", _b2_shifted_bounds),
}


_MAX_ELL = 10**5  # largest bound index: the tail sums take 2 s, O(ell_max**2)


def bound_families() -> tuple[str, ...]:
    return tuple(_BOUND_FAMILIES)


def evaluate_bounds(family: str, alpha: float, ell_min: int,
                    ell_max: int) -> list[BoundCheckRecord]:
    """Evaluate the lower < observed < upper sandwich for ell_min..ell_max.

    Families cover the first-order weights (plain and exponentially damped
    lower bounds, pointwise and tail), the order-(1+alpha) variants, and
    the second-order weights at orders alpha and 1+alpha.  `alpha` is the
    fractional part in (0, 1) throughout.  The weights depend on alpha
    only, so one sequence of length ell_max serves every index; the records
    come in ell order.
    """
    if family not in _BOUND_FAMILIES:
        raise ValueError(f"unknown bound family {family!r}; choose from "
                         f"{bound_families()}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    min_ell, shift, observed, bounds = _BOUND_FAMILIES[family]
    top = MAX_EXACT_LENGTH if observed == "second" else _MAX_ELL
    check_count("ell_min", ell_min, min_ell, top)
    check_count("ell_max", ell_max, ell_min, top)

    order = shift + alpha
    if observed == "second":
        w = closed_form_table(2, order, ell_max)
    else:
        w = first_order_sequence(order, ell_max)
    tail_sign = 1.0 if order < 1.0 else -1.0  # of the zero-sum identity
    records = []
    for ell in range(ell_min, ell_max + 1):
        lo, up = bounds(alpha, ell)
        # one sum per tail, not a cumsum, which rounds differently
        obs = tail_sign * float(w[:ell].sum()) if observed == "tail" else abs(w[ell])
        records.append(BoundCheckRecord(family=family, alpha=alpha, ell=ell,
                                        lower=lo, observed=obs, upper=up,
                                        holds=bool(lo < obs < up)))
    return records


def pointwise_lower_crossing(ell: int) -> float:
    """Alpha where the plain and damped pointwise lower bounds swap order.

    Bisection on the sign of (plain - damped); the regime split is
    analytically 12*ln(ell/2)/(2*pi**2 - 15) - 1 for ell = 3, 4.
    """
    check_count("ell", ell, 3, _MAX_ELL)
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
