"""Riesz fractional derivative on a uniform grid and the polynomial
benchmark profiles x^p (1-x)^p with their closed-form derivatives."""

from __future__ import annotations

import math

import numpy as np

from .coefficients import CoefficientTable, check_count, expand_generating_function
from .reports import ConvergenceReport, convergence_rows
from .schemes import fractional_coefficient

_MAX_DEGREE = 64  # of a profile x^p (1-x)^p: p! (2p)! overflows a float beyond it


def _check_order(alpha: float) -> None:
    """The orders of the Riesz derivative: cos(pi alpha / 2) vanishes at 1."""
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2), got {alpha}")


def riesz_prefactor(alpha: float, h: float) -> float:
    """-1 / (2 cos(pi alpha / 2) h**alpha), minus nu at d_alpha = 1."""
    _check_order(alpha)
    return -fractional_coefficient(1.0, alpha, h)


def riesz_apply(table: CoefficientTable, values, h: float) -> np.ndarray:
    """Two-sided convolution approximation of the Riesz derivative of
    samples on M + 1 equispaced nodes with step h, M >= 2.

    Boundary rows are returned as zero under the homogeneous-condition
    contract; out-of-range samples are treated as zero.  The samples must
    be a 1-D array of finite values, and finite samples whose result leaves
    double range raise ValueError.
    """
    _check_step(h)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"values must be a 1-D array, got shape {v.shape}")
    M = len(v) - 1
    if M < 2:
        raise ValueError(f"values must hold at least three samples, got {M + 1}")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    if table.length < M:
        raise ValueError(f"coefficient table too short: {table.length} < M={M}")
    pref = riesz_prefactor(table.alpha, h)
    w = table.values[:M + 1]
    left = np.convolve(w, v)[:M + 1]
    right = np.convolve(w, v[::-1])[:M + 1][::-1]
    # a result past double range, inf or inf - inf, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out = pref * (left + right)
    out[0] = 0.0
    out[M] = 0.0
    if not np.isfinite(out).all():
        raise ValueError("finite values gave a non-finite result: the samples "
                         "or the weights are too large for double range")
    return out


def poly_profile(p: int, x):
    """Profile x^p (1-x)^p on [0, 1], zero outside; integer p in 0..64, x not nan."""
    check_count("p", p, 0, _MAX_DEGREE)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be nan")
    clipped = np.clip(x, 0.0, 1.0)  # far samples would overflow the power
    return np.where(clipped == x, clipped ** p * (1.0 - clipped) ** p, 0.0)


def reference_riesz(p: int, alpha: float, x: float) -> float:
    """Closed-form Riesz derivative of x^p (1-x)^p on [0, 1].

    Finite sum over the binomial expansion, for alpha in (0, 1) or (1, 2),
    0 <= x <= 1 and an integer 0 <= p <= 64, beyond which p! (2p)!
    overflows a float.  For p < alpha it is singular at the end nodes and
    overflows next to them, and raises ValueError.  The sum alternates in
    sign and cancels, so it loses accuracy long before p = 64.  Against the
    same sum in 80-digit arithmetic at alpha = 0.5, x = 0.3, the relative
    error is about 2e-12 at p = 6, 5e-10 at p = 8, 4e-5 at p = 16 and 3e-3
    at p = 20, and at p = 32 even the sign is wrong.  Only p <= 64 is
    enforced; the package itself uses p <= 6.
    """
    check_count("p", p, 0, _MAX_DEGREE)
    _check_order(alpha)
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if p < alpha and x in (0.0, 1.0):
        raise ValueError(f"the derivative is singular at the end node x = {x} "
                         f"for p = {p} < alpha = {alpha}")
    s = 0.0
    try:
        for ell in range(p + 1):
            coef = ((-1) ** ell * math.factorial(p) * math.factorial(p + ell)
                    / (math.factorial(ell) * math.factorial(p - ell)
                       * math.gamma(p + ell + 1 - alpha)))
            s += coef * (x ** (p + ell - alpha) + (1.0 - x) ** (p + ell - alpha))
    except OverflowError:
        raise ValueError(f"the derivative overflows at x = {x} for p = {p}, "
                         f"alpha = {alpha}") from None
    return -s / (2.0 * math.cos(math.pi * alpha / 2.0))


def point_approximation(table: CoefficientTable, h: float) -> float:
    """Two-sided convolution for the profile x^p (1-x)^p at x = 1/2.

    Samples may fall off the unit interval; they contribute zero there.
    Coincides with the midpoint value of :func:`riesz_apply` when 1/h is
    an even integer.
    """
    _check_step(h)
    reach = 0.5 / h
    if not math.isfinite(0.5 + (reach + 2.0) * h):  # bounds 1/2 -+ L h
        raise ValueError(f"samples leave double range at h = {h}")
    p = table.p
    L = int(math.ceil(reach)) + 1
    if table.length < L:
        raise ValueError(f"coefficient table too short: {table.length} < {L}")
    ells = np.arange(L + 1)
    w = table.values[:L + 1]
    s = float(np.dot(w, poly_profile(p, 0.5 - ells * h))
              + np.dot(w, poly_profile(p, 0.5 + ells * h)))
    return riesz_prefactor(table.alpha, h) * s


def _check_step(h: float) -> None:
    if not (0.0 < h < math.inf and 1.0 / h < math.inf):
        raise ValueError(f"step {h} must be positive and finite, and so "
                         f"must its reciprocal")


def _resolve_mesh(h: float) -> int:
    _check_step(h)
    M = round(1.0 / h)
    if abs(1.0 / h - M) > 1e-9 * M:
        raise ValueError(f"h_list step {h} is not the reciprocal of an integer")
    # the max-interior metric's 10**5 closed forms take 5 s at p = 6
    check_count(f"h_list step {h}: M = 1/h", M, 2, 10**5)
    return M


def operator_convergence(p: int, alpha: float, h_list,
                         metric: str = "midpoint") -> ConvergenceReport:
    """Error and observed order of the derivative approximation on [0, 1].

    metric "midpoint": absolute error of the point evaluation at x = 1/2
    (the benchmark-table convention).  metric "max-interior": maximum
    nodal error over interior grid nodes.
    """
    if metric not in ("midpoint", "max-interior"):
        raise ValueError(f"unknown metric '{metric}'")
    meshes = [_resolve_mesh(h) for h in h_list]
    if not meshes:
        raise ValueError("h_list must contain at least one step")
    table = expand_generating_function(p, alpha, max(meshes) + 1)
    rungs = []
    for M in meshes:
        h = 1.0 / M
        if metric == "midpoint":
            err = abs(point_approximation(table, h)
                      - reference_riesz(p, alpha, 0.5))
        else:
            x = h * np.arange(M + 1)
            num = riesz_apply(table, poly_profile(p, x), h)
            exact = np.array([reference_riesz(p, alpha, xx) for xx in x[1:M]])
            err = float(np.max(np.abs(num[1:M] - exact)))
        rungs.append((h, None, err))
    label = "abs-at-midpoint" if metric == "midpoint" else "max-abs-interior"
    return ConvergenceReport(study=f"riesz-p{p}", problem=f"x^{p}(1-x)^{p}",
                             alpha=alpha, norm=label, rows=convergence_rows(rungs))
