"""Von Neumann stability of the schemes: single growth factors and
scans of their maximum over the phase angle.  The factors come from
:func:`rieszkit.schemes.growth_factors`, which reads the stencils that
:func:`rieszkit.solver.assemble` uses; :func:`rieszkit.schemes.check_step`
decides their domain, and a factor that overflows is a ValueError."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import MAX_GRID, check_count
from .schemes import check_step, growth_factors


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
        check_step(self.scheme, self.alpha, self.h, self.tau, self.d1, self.d2,
                   self.d_alpha)
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


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


# Finite inputs that pass check_step can still overflow on the way to xi.
# The callers evaluate growth_factors under this error state and raise
# _overflow for a non-finite xi, instead of NumPy warnings and a nan row.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _overflow(h: float, tau: float) -> ValueError:
    return ValueError(f"growth factor overflows double precision at "
                      f"h = {h}, tau = {tau}")


def amplification_factor(q: AmplificationQuery) -> complex:
    with np.errstate(**_QUIET):
        [(_, _, xi, _)] = growth_factors(q.scheme, q.alpha, [q.h], [q.tau],
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

    ``scheme`` is order2, order4, order6, order4-consistent or
    order6-consistent, in the orientation that ``solve`` marches.  The
    weight symbol and the Fourier basis are evaluated once per scan, the
    stencil symbols once per h.
    """
    check_count("grid_size", grid_size, 1024, MAX_GRID)
    if len(hs) == 0 or len(taus) == 0:
        raise ValueError("hs and taus must not be empty")
    for h in hs:
        for tau in taus:
            check_step(scheme, alpha, h, tau, d1, d2, d_alpha)
    thetas = np.linspace(-math.pi, math.pi, grid_size)
    reports = []
    with np.errstate(**_QUIET):
        for h, tau, xi, group in growth_factors(scheme, alpha, hs, taus, d1,
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
