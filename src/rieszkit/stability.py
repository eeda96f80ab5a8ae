"""Amplification factors of the three schemes and von Neumann stability
scans over the phase angle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import symbol_values
from .solver import SCHEMES


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


def _validate(scheme: str, alpha: float, h: float, tau: float,
              d1: float, d2: float, d_alpha: float) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    if not all(v > 0 for v in (h, tau, d1, d2, d_alpha)):
        raise ValueError("step sizes and coefficients must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


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


# symbol order of each scheme's fractional weights
_SYMBOL_ORDER = {"order2": 2, "order4": 4, "order6": 6}


def _amplification(scheme: str, alpha: float, h: float, tau: float,
                   d1: float, d2: float, d_alpha: float, thetas: np.ndarray,
                   f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode growth factors and the real stability group.

    `f` is the scheme's symbol at `thetas`: the weight series in each
    factor is summed exactly through it (complex power evaluation) rather
    than by truncation.  The numerator and denominator share one imaginary
    group with opposite signs, so |xi| <= 1 exactly when the real group is
    nonnegative.
    """
    nu = d_alpha / (2.0 * math.cos(math.pi * alpha / 2.0) * h ** alpha)
    s2 = np.sin(thetas / 2.0) ** 2
    sin_t = np.sin(thetas)
    if scheme == "order2":
        x_part = 2.0 * h / tau
        group = 4.0 * d2 / h * s2 + 2.0 * nu * h * f
        imag = d1 * sin_t
    elif scheme == "order4":
        x_part = (2.0 / tau) * (1.0 - s2 / 3.0)
        group = 2.0 * s2 * (2.0 * d2 / h ** 2 + d1 ** 2 / (6.0 * d2)) \
            + 2.0 * (1.0 - s2 / 3.0) * f * nu
        s4 = (d1 * h / (6.0 * tau * d2) + d1 / h) - d1 * h / (6.0 * d2) * f
        imag = s4 * nu * sin_t
    else:
        x_part = (2.0 / (45.0 * tau)) * (45.0 - 8.0 * s2 ** 2)
        group = (2.0 * d2 / (3.0 * h ** 2)) * (7.0 - np.cos(thetas)) * s2 \
            + 16.0 * d1 ** 2 / (45.0 * d2) * s2 ** 2 \
            + (2.0 / 45.0) * (45.0 - 8.0 * s2 ** 2) * f * nu
        w4 = (-8.0 * d1 * h / (45.0 * tau * d2) * s2
              + d1 / (3.0 * h) * (4.0 - np.cos(thetas))
              + 8.0 * d1 * h * nu / (45.0 * d2) * s2 * f)
        imag = w4 * sin_t
    xi = ((x_part - group) - 1j * imag) / ((x_part + group) + 1j * imag)
    return xi, group


def amplification_factor(q: AmplificationQuery) -> complex:
    thetas = np.array([q.theta], dtype=float)
    f = symbol_values(_SYMBOL_ORDER[q.scheme], q.alpha, thetas)
    xi, _ = _amplification(q.scheme, q.alpha, q.h, q.tau, q.d1, q.d2,
                           q.d_alpha, thetas, f)
    return complex(xi[0])


def stability_scan(scheme: str, alpha: float, hs, taus,
                   d1: float, d2: float, d_alpha: float,
                   grid_size: int) -> list[StabilityReport]:
    """Maximum growth factor over a uniform theta grid on [-pi, pi], for
    every (h, tau) in hs x taus: h outer, tau inner.

    The symbol depends on alpha only, so it is evaluated once per scan.
    """
    if len(hs) == 0 or len(taus) == 0:
        raise ValueError("hs and taus must not be empty")
    for h in hs:
        for tau in taus:
            _validate(scheme, alpha, h, tau, d1, d2, d_alpha)
    if grid_size < 1024:
        raise ValueError("grid_size must be at least 1024")
    thetas = np.linspace(-math.pi, math.pi, grid_size)
    f = symbol_values(_SYMBOL_ORDER[scheme], alpha, thetas)
    reports = []
    for h in hs:
        for tau in taus:
            xi, group = _amplification(scheme, alpha, h, tau, d1, d2, d_alpha,
                                       thetas, f)
            mags = np.abs(xi)
            k = int(np.argmax(mags))
            reports.append(StabilityReport(
                scheme=scheme, alpha=alpha, h=h, tau=tau, grid_size=grid_size,
                max_abs=float(mags[k]), theta_at_max=float(thetas[k]),
                min_real_group=float(np.min(group)),
                passed=bool(mags[k] <= 1.0 + 1e-12)))
    return reports
