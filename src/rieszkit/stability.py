"""Amplification factors of the three schemes, derived from the stencils
that assemble them, and von Neumann stability scans over the phase angle."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _generator_on_circle
from .solver import SCHEMES, _WEIGHT_ORDER, _right_compact, _scheme_stencils


@dataclass(frozen=True)
class AmplificationQuery:
    scheme: str
    alpha: float
    h: float
    tau: float
    d1: float
    d2: float
    d_alpha: float
    theta: float

    def __post_init__(self):
        _validate(self.scheme, self.alpha, self.h, self.tau, self.d1, self.d2,
                  self.d_alpha)
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


def _validate(scheme: str, alpha: float, h: float, tau: float,
              d1: float, d2: float, d_alpha: float) -> None:
    """Reject inputs outside the scheme's domain, and finite inputs whose
    derived 2/tau, h**2 or d1**2 (the stencils use all three) overflows or
    underflows to zero in double precision."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    if not all(0 < v < math.inf for v in (h, tau, d1, d2, d_alpha)):
        raise ValueError("step sizes and coefficients must be positive and finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not (2.0 / tau < math.inf and 0.0 < h * h < math.inf
            and d1 * d1 < math.inf):
        raise ValueError(
            f"h = {h}, tau = {tau} or d1 = {d1} is out of double range: "
            f"2/tau, h**2 and d1**2 must be finite and h**2 positive")


@dataclass(frozen=True)
class StabilityReport:
    scheme: str
    alpha: float
    h: float
    tau: float
    grid_size: int
    max_abs: float
    theta_at_max: float
    min_real_group: float
    passed: bool


def _growth_factors(scheme: str, alpha: float, hs, taus, d1: float,
                    d2: float, d_alpha: float, thetas: np.ndarray,
                    reflect_right: bool = True):
    """Growth factors xi and real groups of the scheme that `assemble`
    builds, per (h, tau) in hs x taus, h outer and tau inner.

    Each stencil of `_scheme_stencils` has the symbol sum_off c_off
    e^{i off theta}: C for the compact weights (C_r on the forward-looking
    half, see `_right_compact`) and D for the operator.  The convolution
    has K = C Z + C_r conj(Z) with Z = W_p(e^{-i theta})**alpha.  With
    s = 2/tau and G = nu K - D, xi = (s C - G) / (s C + G), so |xi| <= 1
    exactly when the group Re[s C conj(G)] is nonnegative; theta = 0 gives
    xi = 1 and group 0 exactly.  Only the paper's abstract is at hand, so
    these factors are not checked against its printed ones.
    """
    p = _WEIGHT_ORDER[scheme]
    zero = thetas == 0.0
    basis = np.exp(1j * np.outer(np.arange(-2, 3), thetas))  # e^{i k theta}
    Z = np.power(_generator_on_circle(p, -thetas), alpha)
    Zc = np.conj(Z)
    cosine = math.cos(math.pi * alpha / 2.0)

    def symbol(stencil):
        return sum(c * basis[off + 2] for off, c in stencil)

    for h in hs:
        compact, operator = _scheme_stencils(scheme, d1, d2, h)
        C = symbol(compact)
        K = C * Z + symbol(_right_compact(compact, reflect_right)) * Zc
        G = d_alpha / (2.0 * cosine * h ** alpha) * K - symbol(operator)
        for tau in taus:
            sC = (2.0 / tau) * C
            xi = np.where(zero, 1.0 + 0.0j, (sC - G) / (sC + G))
            group = np.where(zero, 0.0, np.real(sC * np.conj(G)))
            yield h, tau, xi, group


# Finite inputs that pass _validate can still overflow on the way to xi.
# The callers evaluate _growth_factors under this error state and raise
# _overflow for a non-finite xi, instead of NumPy warnings and a nan row.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _overflow(h: float, tau: float) -> ValueError:
    return ValueError(f"growth factor overflows double precision at "
                      f"h = {h}, tau = {tau}")


def amplification_factor(q: AmplificationQuery) -> complex:
    with np.errstate(**_QUIET):
        [(_, _, xi, _)] = _growth_factors(q.scheme, q.alpha, [q.h], [q.tau],
                                          q.d1, q.d2, q.d_alpha,
                                          np.array([q.theta]))
    value = complex(xi[0])
    if not cmath.isfinite(value):
        raise _overflow(q.h, q.tau)
    return value


def stability_scan(scheme: str, alpha: float, hs, taus,
                   d1: float, d2: float, d_alpha: float,
                   grid_size: int) -> list[StabilityReport]:
    """Maximum growth factor over a uniform theta grid on [-pi, pi], for
    every (h, tau) in hs x taus: h outer, tau inner.

    The scheme is analysed in the orientation :func:`~rieszkit.solver.solve`
    builds by default (``reflect_right=True``).  The weight symbol and the
    Fourier basis are evaluated once per scan, the stencil symbols once
    per h.
    """
    if len(hs) == 0 or len(taus) == 0:
        raise ValueError("hs and taus must not be empty")
    for h in hs:
        for tau in taus:
            _validate(scheme, alpha, h, tau, d1, d2, d_alpha)
    if grid_size < 1024:
        raise ValueError("grid_size must be at least 1024")
    thetas = np.linspace(-math.pi, math.pi, grid_size)
    reports = []
    with np.errstate(**_QUIET):
        for h, tau, xi, group in _growth_factors(scheme, alpha, hs, taus, d1,
                                                 d2, d_alpha, thetas):
            mags = np.abs(xi)
            k = int(np.argmax(mags))  # the first nan if there is one
            if not math.isfinite(mags[k]):
                raise _overflow(h, tau)
            reports.append(StabilityReport(
                scheme=scheme, alpha=alpha, h=h, tau=tau, grid_size=grid_size,
                max_abs=float(mags[k]), theta_at_max=float(thetas[k]),
                min_real_group=float(np.min(group)),
                passed=bool(mags[k] <= 1.0 + 1e-12)))
    return reports
