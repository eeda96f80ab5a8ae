"""Von Neumann stability of the schemes: scans of the maximum growth
factor over the phase angle.  The factors come from
:func:`rieszkit.schemes.growth_factors`, which reads the stencils that
:func:`rieszkit.solver.assemble` uses; :func:`rieszkit.schemes.check_step`
decides their domain, and a factor that overflows is a ValueError."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import check_count, theta_grid
from .schemes import check_step, growth_factors


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """One scan: one array entry per (alpha, h, tau) cell, alpha outer and
    tau inner, each the maximum |xi| over grid_size angles, its angle, the
    least real group and whether the maximum is at most 1 + 1e-12."""
    scheme: str
    alpha: np.ndarray
    h: np.ndarray
    tau: np.ndarray
    grid_size: int
    max_abs: np.ndarray
    theta_at_max: np.ndarray
    min_real_group: np.ndarray
    passed: np.ndarray


# Most (alpha, h, tau, theta) points of one scan, about 30 ns each: a CLI
# run at the bound (97 344 cells of 1024 theta) takes 3 s and 0.17 GB.
_MAX_SCAN_POINTS = 10**8


def stability_scan(scheme: str, alphas, hs, taus,
                   d1: float, d2: float, d_alpha: float,
                   grid_size: int) -> StabilityReport:
    """Maximum growth factor over the theta_grid of grid_size angles, for
    every (alpha, h, tau) in alphas x hs x taus: alpha outer, then h, then
    tau.

    ``scheme`` is order2, order4, order6, order4-consistent or
    order6-consistent, in the orientation that ``solve`` marches.  The grid
    size, the number of points len(alphas) x len(hs) x len(taus) x
    grid_size and every cell's :func:`check_step` are checked before any
    growth factor.  The theta grid, the Fourier basis and W_p(e^{-i theta}) are
    evaluated once per call, the weight symbol Z = W_p**alpha once per
    alpha, the stencil symbols and G once per (alpha, h), and only s C, xi
    and the real group per tau; memory is O(grid_size) for the work and
    seven numbers per cell for the report.

    The group is (2/tau) Re[C conj(G)] and G does not contain tau, so on
    each theta its sign, and with it the verdict, does not depend on tau.
    Only a group within rounding of 0 can give a tau-dependent verdict,
    through the 1 + 1e-12 tolerance on max |xi|.
    """
    thetas = theta_grid(grid_size)
    if len(alphas) == 0 or len(hs) == 0 or len(taus) == 0:
        raise ValueError("alphas, hs and taus must not be empty")
    check_count(f"scan points (alphas x hs x taus x grid_size = {len(alphas)} "
                f"x {len(hs)} x {len(taus)} x {grid_size})",
                len(alphas) * len(hs) * len(taus) * grid_size, 0,
                _MAX_SCAN_POINTS)
    for alpha in alphas:
        for h in hs:
            for tau in taus:
                check_step(scheme, alpha, h, tau, d1, d2, d_alpha)
    cells = np.empty((6, len(alphas) * len(hs) * len(taus)))
    # finite inputs that pass check_step can still overflow on the way to
    # xi: a non-finite xi is a ValueError, not NumPy warnings and a nan cell
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (alpha, h, tau, xi, group) in enumerate(growth_factors(
                scheme, alphas, hs, taus, d1, d2, d_alpha, thetas)):
            mags = np.abs(xi)
            k = int(mags.argmax())  # the first nan if there is one
            if not math.isfinite(mags[k]):
                raise ValueError(f"growth factor overflows double precision "
                                 f"at h = {h}, tau = {tau}")
            cells[:, i] = alpha, h, tau, mags[k], thetas[k], group.min()
    alpha_col, h_col, tau_col, max_abs, theta_at_max, min_group = cells
    return StabilityReport(scheme, alpha_col, h_col, tau_col, grid_size,
                           max_abs, theta_at_max, min_group,
                           max_abs <= 1.0 + 1e-12)
