"""The Crank-Nicolson schemes of orders 2, 4 and 6 by their stencils,
fractional weights and convolution orientation, and the von Neumann
growth factors those define.  :mod:`rieszkit.solver` assembles its
matrices and :mod:`rieszkit.stability` scans its growth factors from this
one definition, and :func:`check_step` decides which parameters they
accept.  NumPy only: nothing here factors a matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import generator_on_circle

# scheme -> (order p of its weights, forward half mirrored; see right_compact)
SCHEME_TABLE = {"order2": (2, True), "order4": (4, True), "order6": (6, True),
                "order4-consistent": (4, False), "order6-consistent": (6, False)}
SCHEMES = tuple(SCHEME_TABLE)


def weight_order(scheme: str) -> int:
    """Order p of the fractional weights of ``scheme``, one of SCHEMES."""
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme '{scheme}', expected one of {SCHEMES}")
    return SCHEME_TABLE[scheme][0]


def check_coefficients(alpha: float, d1: float, d2: float, d_alpha: float):
    """Accept only finite d1, d2 > 0, finite d_alpha >= 0 and 0 < alpha < 1."""
    for name, value in (("d1", d1), ("d2", d2), ("d_alpha", d_alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (d1 > 0 and d2 > 0 and d_alpha >= 0 and 0.0 < alpha < 1.0):
        raise ValueError(f"need d1, d2 > 0, d_alpha >= 0 and alpha in (0, 1), got "
                         f"d1 = {d1}, d2 = {d2}, d_alpha = {d_alpha}, alpha = {alpha}")


def check_step(scheme: str, alpha: float, h: float, tau: float, d1: float,
               d2: float, d_alpha: float):
    """Reject an unknown scheme, bad coefficients, h or tau not positive, and
    a 2/tau, h**2 or d1**2 (all used by the stencils) out of double range."""
    weight_order(scheme)
    check_coefficients(alpha, d1, d2, d_alpha)
    if not (0.0 < h and 0.0 < h * h < math.inf and 0.0 < tau < math.inf
            and 2.0 / tau < math.inf and d1 * d1 < math.inf):
        raise ValueError(
            f"mesh width h = {h} or time step tau = {tau} is not positive, or "
            f"2/tau, h**2 or d1**2 (d1 = {d1}) is out of double range")


def fractional_coefficient(d_alpha: float, alpha: float, h: float) -> float:
    """nu = d_alpha / (2 cos(pi alpha / 2) h**alpha), the factor of the
    weight convolution; ValueError if it or h**alpha is not finite."""
    try:
        denominator = 2.0 * math.cos(math.pi * alpha / 2.0) * h ** alpha
    except OverflowError:
        raise ValueError(f"h**alpha is out of double range at h = {h}, "
                         f"alpha = {alpha}") from None
    nu = d_alpha / denominator if denominator else math.inf
    if not math.isfinite(nu):
        raise ValueError(f"nu overflows double precision at d_alpha = {d_alpha}, h = {h}")
    return nu


def stencils(scheme: str, d1: float, d2: float, h: float):
    """Compact weights and space-operator weights per scheme, offsets ascending."""
    p = weight_order(scheme)
    if p == 2:
        compact = ((0, 1.0),)
        operator = ((-1, d2 / h ** 2 + d1 / (2 * h)),
                    (0, -2 * d2 / h ** 2),
                    (1, d2 / h ** 2 - d1 / (2 * h)))
    elif p == 4:
        q = d1 * h / (24 * d2)
        compact = ((-1, 1 / 12 + q), (0, 5 / 6), (1, 1 / 12 - q))
        r = d2 / h ** 2 + d1 ** 2 / (12 * d2)
        operator = ((-1, r + d1 / (2 * h)), (0, -2 * r), (1, r - d1 / (2 * h)))
    else:
        q = d1 * h / d2
        compact = ((-2, -(1 + q) / 90), (-1, (4 + 2 * q) / 90), (0, 14 / 15),
                   (1, (4 - 2 * q) / 90), (2, -(1 - q) / 90))
        e1 = d2 / (12 * h ** 2) + d1 / (12 * h) + d1 ** 2 / (45 * d2)
        e2 = -(4 * d2 / (3 * h ** 2) + 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
        e3 = 5 * d2 / (2 * h ** 2) + 2 * d1 ** 2 / (15 * d2)
        e4 = -(4 * d2 / (3 * h ** 2) - 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
        e5 = d2 / (12 * h ** 2) - d1 / (12 * h) + d1 ** 2 / (45 * d2)
        operator = ((-2, -e1), (-1, -e2), (0, -e3), (1, -e4), (2, -e5))
    if not all(math.isfinite(c) for _, c in compact + operator):
        raise ValueError(f"{scheme} stencil overflows double precision at d2 = {d2}, h = {h}")
    return compact, operator


def right_compact(scheme: str, compact):
    """Compact stencil of the forward-looking convolution half: mirrored for
    order2, order4 and order6 as in the published tables (spatial orders 2,
    2 and 4 when d1 != 0), else the backward half's (orders 4 and 6)."""
    weight_order(scheme)
    return tuple((-off, c) for off, c in compact) if SCHEME_TABLE[scheme][1] else compact


def growth_factors(scheme: str, alphas, hs, taus, d1: float, d2: float,
                   d_alpha: float, thetas: np.ndarray):
    """Growth factors xi and real groups of the scheme that `assemble`
    builds, per (alpha, h, tau) in alphas x hs x taus, alpha outer and tau
    inner, as tuples (alpha, h, tau, xi, group).

    Each stencil of :func:`stencils` has the symbol sum_off c_off
    e^{i off theta}: C for the compact weights (C_r on the forward-looking
    half, see :func:`right_compact`) and D for the operator.  The
    convolution has K = C Z + C_r conj(Z) with Z = W_p(e^{-i theta})**alpha.
    With s = 2/tau and G = nu K - D, xi = (s C - G) / (s C + G), so
    |xi| <= 1 exactly when the group Re[s C conj(G)] is nonnegative;
    theta = 0 gives xi = 1 and group 0 exactly.  Only the paper's abstract
    is at hand, so these factors are not checked against its printed ones.

    Each quantity is computed at the outermost level it depends on, as
    :func:`rieszkit.stability.stability_scan` states, in O(len(thetas))
    memory.
    """
    p = weight_order(scheme)
    zero = np.flatnonzero(thetas == 0.0)
    basis = np.exp(1j * np.outer(np.arange(-2, 3), thetas))  # e^{i k theta}
    W = generator_on_circle(p, -thetas)

    def symbol(stencil):
        return sum(c * basis[off + 2] for off, c in stencil)

    for alpha in alphas:
        Z = np.power(W, alpha)
        Zc = np.conj(Z)
        for h in hs:
            compact, operator = stencils(scheme, d1, d2, h)
            C = symbol(compact)
            K = C * Z + symbol(right_compact(scheme, compact)) * Zc
            G = fractional_coefficient(d_alpha, alpha, h) * K - symbol(operator)
            Gc = np.conj(G)
            for tau in taus:
                sC = (2.0 / tau) * C
                xi = (sC - G) / (sC + G)
                group = np.real(sC * Gc)
                xi[zero] = 1.0
                group[zero] = 0.0
                yield alpha, h, tau, xi, group
