"""Riesz fractional derivative on a uniform grid and the polynomial
benchmark profiles x^p (1-x)^p with their closed-form derivatives."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTable, expand_generating_function
from .reports import ConvergenceReport, ConvergenceRow
from .schemes import fractional_coefficient


@dataclass(frozen=True)
class UniformGrid:
    a: float
    b: float
    M: int

    def __post_init__(self):
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"grid requires finite a, b and b - a, "
                             f"got a={self.a}, b={self.b}")
        if self.b <= self.a:
            raise ValueError("grid requires b > a")
        if self.M < 2:
            raise ValueError("grid requires at least two intervals")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.M + 1)


@dataclass(frozen=True)
class GridFunction:
    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.M + 1:
            raise ValueError("value count must match grid node count")


def riesz_prefactor(alpha: float, h: float) -> float:
    """-1 / (2 cos(pi alpha / 2) h**alpha), minus nu at d_alpha = 1."""
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2), got {alpha}")
    return -fractional_coefficient(1.0, alpha, h)


def riesz_apply(table: CoefficientTable, f: GridFunction) -> GridFunction:
    """Two-sided convolution approximation of the Riesz derivative.

    Boundary rows are returned as zero under the homogeneous-condition
    contract; out-of-range samples are treated as zero.
    """
    M = f.grid.M
    if table.length < M:
        raise ValueError(f"coefficient table too short: {table.length} < M={M}")
    pref = riesz_prefactor(table.alpha, f.grid.h)
    w = table.values[:M + 1]
    v = f.values
    left = np.convolve(w, v)[:M + 1]
    right = np.convolve(w, v[::-1])[:M + 1][::-1]
    out = pref * (left + right)
    out[0] = 0.0
    out[M] = 0.0
    return GridFunction(grid=f.grid, values=out)


def poly_profile(p: int, x):
    """Benchmark profile x^p (1-x)^p on [0, 1], zero outside; x must not be nan."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be nan")
    clipped = np.clip(x, 0.0, 1.0)  # far samples would overflow the power
    return np.where(clipped == x, clipped ** p * (1.0 - clipped) ** p, 0.0)


def reference_riesz(p: int, alpha: float, x: float) -> float:
    """Closed-form Riesz derivative of x^p (1-x)^p on [0, 1].

    Finite sum over the binomial expansion, for alpha in (0, 1) or (1, 2),
    0 <= x <= 1 and 0 <= p <= 64, beyond which p! (2p)! overflows a float.
    At the end nodes it is singular for p < alpha, and raises ValueError.
    The sum alternates in sign, so it loses accuracy long before p = 64.
    """
    if not 0 <= p <= 64:
        raise ValueError(f"p must lie in 0..64, got {p}")
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2), got {alpha}")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if p < alpha and x in (0.0, 1.0):
        raise ValueError(f"the derivative is singular at the end node x = {x} "
                         f"for p = {p} < alpha = {alpha}")
    s = 0.0
    for ell in range(p + 1):
        coef = ((-1) ** ell * math.factorial(p) * math.factorial(p + ell)
                / (math.factorial(ell) * math.factorial(p - ell)
                   * math.gamma(p + ell + 1 - alpha)))
        s += coef * (x ** (p + ell - alpha) + (1.0 - x) ** (p + ell - alpha))
    return -s / (2.0 * math.cos(math.pi * alpha / 2.0))


def point_approximation(table: CoefficientTable, h: float, x0: float) -> float:
    """Two-sided convolution for the profile x^p (1-x)^p at a single point.

    Samples may fall off the unit interval; they contribute zero there.
    Coincides with the grid midpoint value of :func:`riesz_apply` when
    x0 = 1/2 lies on the grid.
    """
    _check_step(h)
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    p = table.p
    L = int(math.ceil(max(x0, 1.0 - x0) / h)) + 1
    if table.length < L:
        raise ValueError(f"coefficient table too short: {table.length} < {L}")
    ells = np.arange(L + 1)
    w = table.values[:L + 1]
    s = float(np.dot(w, poly_profile(p, x0 - ells * h))
              + np.dot(w, poly_profile(p, x0 + ells * h)))
    return riesz_prefactor(table.alpha, h) * s


def _check_step(h: float) -> None:
    if not (0.0 < h < math.inf and 1.0 / h < math.inf):
        raise ValueError(f"step {h} must be positive and finite, and so "
                         f"must its reciprocal")


def _resolve_mesh(h: float) -> int:
    _check_step(h)
    M = round(1.0 / h)
    if M < 2 or abs(1.0 / h - M) > 1e-9 * M:
        raise ValueError(f"step {h} is not the reciprocal of an integer")
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
    table = expand_generating_function(p, alpha, max(meshes) + 1)
    rows: list[ConvergenceRow] = []
    prev: tuple[float, float] | None = None
    for M in meshes:
        h = 1.0 / M
        if metric == "midpoint":
            err = abs(point_approximation(table, h, 0.5)
                      - reference_riesz(p, alpha, 0.5))
        else:
            grid = UniformGrid(0.0, 1.0, M)
            x = grid.nodes()
            f = GridFunction(grid, poly_profile(p, x))
            num = riesz_apply(table, f)
            exact = np.array([reference_riesz(p, alpha, xx) for xx in x[1:M]])
            err = float(np.max(np.abs(num.values[1:M] - exact)))
        order = None
        if prev is not None and prev[0] != h and err > 0.0 and prev[1] > 0.0:
            order = math.log(prev[1] / err) / math.log(prev[0] / h)
        rows.append(ConvergenceRow(h=h, tau=None, error=err,
                                   temporal_order=None, spatial_order=order))
        prev = (h, err)
    label = "abs-at-midpoint" if metric == "midpoint" else "max-abs-interior"
    return ConvergenceReport(study=f"riesz-p{p}", problem=f"x^{p}(1-x)^{p}",
                             alpha=alpha, norm=label, rows=tuple(rows))
