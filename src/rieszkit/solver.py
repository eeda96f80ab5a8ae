"""Crank-Nicolson schemes of spatial order 2, 4 and 6 for the fractional
turbulent diffusion equation

    u_t = -d1 u_x + d2 u_xx + d_alpha * D^alpha u + s(x, t)

on [a, b] with homogeneous Dirichlet boundary values, where D^alpha is the
Riesz derivative of order alpha in (0, 1).  The compact schemes (order 4
and 6) smooth the time, fractional and source terms with a narrow stencil.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .analysis import alpha_limit_order4
from .coefficients import expand_generating_function
from .reports import ConvergenceReport, ConvergenceRow

# scheme -> order p of its fractional weights
_WEIGHT_ORDER = {"order2": 2, "order4": 4, "order6": 6}
SCHEMES = tuple(_WEIGHT_ORDER)


class SolverError(RuntimeError):
    """Numerical failure (singular system or non-finite solution)."""


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, domain, horizon and data of one problem.

    ``source(x, t)`` is sampled on the grid nodes a + j h, j = 0..M, and
    for order6 also on the ghost nodes a - h and b + h, which the five-point
    compact stencil of rows 1 and M-1 reaches.  At a ghost node it must
    return the source of the zero-extended solution: u, u_t, u_x and u_xx
    vanish outside [a, b], so there the source reduces to
    -d_alpha * D^alpha u, the fractional term alone.  :func:`solve` raises
    :class:`SolverError` for a non-finite sample at an end node.
    """

    d1: float
    d2: float
    d_alpha: float
    alpha: float
    a: float
    b: float
    T: float
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("domain requires b > a")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("advection and diffusion coefficients must be positive")
        if self.d_alpha < 0:
            raise ValueError("fractional diffusion coefficient must be nonnegative")


@dataclass
class SchemeMatrices:
    """Assembled time-step operators; the implicit factor is reused."""

    scheme: str
    M: int
    tau: float
    h: float
    nu: float
    compact_weights: tuple[float, ...]
    operator_weights: tuple[float, ...]
    A: np.ndarray
    B: np.ndarray
    source_matrix: np.ndarray
    source_x: np.ndarray
    lu: tuple = field(repr=False, default=None)


@dataclass(frozen=True)
class SolutionGrid:
    spec: ProblemSpec
    M: int
    N: int
    values: np.ndarray
    final_error: float | None
    max_error: float | None

    @property
    def h(self) -> float:
        return (self.spec.b - self.spec.a) / self.M

    @property
    def tau(self) -> float:
        return self.spec.T / self.N


def _scheme_stencils(scheme: str, d1: float, d2: float, h: float):
    """Compact weights and space-operator weights per scheme, offsets ascending."""
    if scheme == "order2":
        compact = ((0, 1.0),)
        operator = ((-1, d2 / h ** 2 + d1 / (2 * h)),
                    (0, -2 * d2 / h ** 2),
                    (1, d2 / h ** 2 - d1 / (2 * h)))
    elif scheme == "order4":
        q = d1 * h / (24 * d2)
        compact = ((-1, 1 / 12 + q), (0, 5 / 6), (1, 1 / 12 - q))
        r = d2 / h ** 2 + d1 ** 2 / (12 * d2)
        operator = ((-1, r + d1 / (2 * h)), (0, -2 * r), (1, r - d1 / (2 * h)))
    elif scheme == "order6":
        q = d1 * h / d2
        compact = ((-2, -(1 + q) / 90), (-1, (4 + 2 * q) / 90), (0, 14 / 15),
                   (1, (4 - 2 * q) / 90), (2, -(1 - q) / 90))
        e1 = d2 / (12 * h ** 2) + d1 / (12 * h) + d1 ** 2 / (45 * d2)
        e2 = -(4 * d2 / (3 * h ** 2) + 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
        e3 = 5 * d2 / (2 * h ** 2) + 2 * d1 ** 2 / (15 * d2)
        e4 = -(4 * d2 / (3 * h ** 2) - 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
        e5 = d2 / (12 * h ** 2) - d1 / (12 * h) + d1 ** 2 / (45 * d2)
        operator = ((-2, -e1), (-1, -e2), (0, -e3), (1, -e4), (2, -e5))
    else:
        raise ValueError(f"unknown scheme '{scheme}', expected one of {SCHEMES}")
    return compact, operator


def _right_compact(compact, reflect_right: bool):
    """Compact stencil of the forward-looking convolution half: mirrored with
    reflect_right, which reproduces the published benchmark tables, else the
    backward half's (the operator-consistent orientation)."""
    return tuple((-off, c) for off, c in compact) if reflect_right else compact


def _diagonal(X: np.ndarray, k: int) -> np.ndarray:
    """Writable view of the k-th diagonal, X[r, r + k], of a C-contiguous array."""
    rows, cols = X.shape
    start = k if k >= 0 else -k * cols
    count = min(rows + min(k, 0), cols - max(k, 0))
    return X.reshape(-1)[start::cols + 1][:count]


def _convolution_matrix(M: int, w: np.ndarray, compact, reflect_right: bool) -> np.ndarray:
    """Two-sided weight convolution composed with the compact stencil.

    Out-of-range indices contribute zero (homogeneous boundary data).  The
    forward-looking half applies :func:`_right_compact`.

    Row r = j - 1 and column m - 1 of the left half collect
    w[j - m + off] * c_off over the compact offsets, for 0 <= j - m + off <= j;
    the right half collects w[m - j - off] * c_off over its offsets, for
    0 <= m - j - off <= M - j.  So each half is a sum of Toeplitz matrices
    apart from one edge column: offset +2 of the left half drops column 0
    and offset -2 of the right half drops column M - 2.  Each term is a
    strided Toeplitz view of one zero-padded copy of w, multiplied and added
    in place.  Every entry receives its terms in the order of the
    entry-by-entry loop kept as the test oracle: left offsets ascending,
    then right offsets descending, which is ascending ell on both halves.
    K starts at +0.0 and no partial sum is -0.0, so the zero terms of the
    padding change no bit, and K is bitwise that loop's.
    """
    n = M - 1
    # wp[n + 1 + i] = w[i]; the n + 1 leading zeros stand for i < 0
    wp = np.concatenate((np.zeros(n + 1), w[:M + 1]))
    windows = sliding_window_view(wp, n)

    def toeplitz(s):
        # T[r, col] = wp[s + r - col]
        return windows[s - n + 1:s + 1, ::-1]

    right = _right_compact(compact, reflect_right)
    K = np.zeros((n, n))
    tmp = np.empty((n, n))
    for off, c in compact:
        lo = max(0, off - 1)
        V = toeplitz(n + 1 + off)[:, lo:]
        np.multiply(V, c, out=tmp[:, lo:])
        np.add(K[:, lo:], tmp[:, lo:], out=K[:, lo:])
    for off, c in sorted(right, reverse=True):
        hi = min(n, n + off + 1)
        V = toeplitz(n + 1 - off).T[:, :hi]
        np.multiply(V, c, out=tmp[:, :hi])
        np.add(K[:, :hi], tmp[:, :hi], out=K[:, :hi])
    return K


def assemble(scheme: str, spec: ProblemSpec, M: int, tau: float,
             reflect_right: bool = True) -> SchemeMatrices:
    """Build the implicit/explicit matrices A u^{k+1} = B u^k + S s^{k+1/2}.

    The pentadiagonal scheme is stated on interior rows 2..M-2 only; rows
    1 and M-1 reuse the identical stencil with the solution extended by
    zero outside [a, b].  The convolution therefore keeps the fractional
    term at the ghost nodes a - h and b + h, and the source stencil samples
    the source there as well: ``source_matrix`` has one column per entry
    of ``source_x``, the nodes a + j h for j = -g..M+g, with g = 1 for
    order6 and g = 0 otherwise.

    Assembly is array code throughout.  The convolution K is a sum of
    Toeplitz terms apart from one edge column per half, accumulated in the
    order of the entry loop (see :func:`_convolution_matrix`).  The compact
    matrix C, the operator matrix D and the source matrix hold one stencil
    term per entry, so they are written diagonal by diagonal, and
    A = (2/tau) C - D + nu K and B = (2/tau) C + D - nu K are formed from
    nu K plus those bands with the same elementwise operations as the dense
    sums.  A, B and ``source_matrix`` are therefore bitwise equal to the
    entry loops that ``tests/naive_reference.py`` keeps as the oracle.
    Building K takes O(M^2) array operations per stencil offset and two
    (M-1) x (M-1) buffers.
    """
    if scheme not in _WEIGHT_ORDER:
        raise ValueError(f"unknown scheme '{scheme}', expected one of {SCHEMES}")
    p = _WEIGHT_ORDER[scheme]
    if M < (6 if scheme == "order6" else 4):
        raise ValueError(f"{scheme} requires a finer mesh than M={M}")
    if tau <= 0:
        raise ValueError("time step must be positive")
    if spec.d2 <= 0:
        raise ValueError("compact parameters require d2 > 0")
    if scheme == "order4" and spec.alpha > alpha_limit_order4():
        warnings.warn(
            f"order4 stability is only guaranteed for alpha <= "
            f"{alpha_limit_order4():.4f}; got alpha={spec.alpha}",
            stacklevel=2)

    h = (spec.b - spec.a) / M
    cosine = math.cos(math.pi * spec.alpha / 2.0)
    nu = spec.d_alpha / (2.0 * cosine * h ** spec.alpha)
    if not nu >= 0.0:
        raise ValueError(f"fractional coefficient nu = {nu} must be nonnegative")
    compact, operator = _scheme_stencils(scheme, spec.d1, spec.d2, h)
    w = expand_generating_function(p, spec.alpha, M + 2).values

    K = _convolution_matrix(M, w, compact, reflect_right)
    np.multiply(K, nu, out=K)
    # A = (s C - D) + nu K and B = (s C + D) - nu K elementwise, with the
    # banded C and D kept as one stencil term per diagonal (an entry of C
    # is 0.0 + c).  Off the bands s C -+ D is the scalar s * 0.0 -+ 0.0,
    # and adding it turns a -0.0 of nu K into +0.0, as the dense sum does.
    s = 2.0 / tau
    A = np.add(s * 0.0 - 0.0, K)
    B = np.subtract(s * 0.0 + 0.0, K)
    cw, dw = dict(compact), dict(operator)
    for off in cw.keys() | dw.keys():
        sc = s * (0.0 + cw.get(off, 0.0))
        dv = 0.0 + dw.get(off, 0.0)
        nuk = _diagonal(K, off)
        _diagonal(A, off)[:] = (sc - dv) + nuk
        _diagonal(B, off)[:] = (sc + dv) - nuk

    # nodes beyond [a, b] that the compact stencil of rows 1 and M-1 reaches
    ghost = max(0, compact[-1][0] - 1)
    S = np.zeros((M - 1, M + 1 + 2 * ghost))
    for off, c in compact:
        # row j samples the source at node j + off, column j + off + ghost
        _diagonal(S, 1 + off + ghost)[:] = 0.0 + 2.0 * c

    mats = SchemeMatrices(scheme=scheme, M=M, tau=tau, h=h, nu=nu,
                          compact_weights=tuple(c for _, c in compact),
                          operator_weights=tuple(c for _, c in operator),
                          A=A, B=B, source_matrix=S,
                          source_x=spec.a + h * np.arange(-ghost, M + 1 + ghost))
    try:
        mats.lu = lu_factor(A)
    except Exception as exc:
        raise SolverError(
            f"singular system for scheme={scheme}, M={M}, tau={tau}, "
            f"alpha={spec.alpha}") from exc
    return mats


def step(mats: SchemeMatrices, u: np.ndarray, s_half: np.ndarray) -> np.ndarray:
    """Advance one time level; s_half holds source samples at mats.source_x.

    Those are the M+1 grid nodes, and for order6 also the ghost nodes
    a - h and b + h (see :func:`assemble`).  The stored LU factor is applied
    by LAPACK ``getrs``; a non-finite right-hand side or a nonzero ``info``
    raises :class:`SolverError`.
    """
    rhs = mats.B @ u + mats.source_matrix @ s_half
    if not np.isfinite(rhs).all():
        raise SolverError(
            f"non-finite data in scheme={mats.scheme}, M={mats.M}, "
            f"tau={mats.tau}")
    lu, piv = mats.lu
    x, info = dgetrs(lu, piv, rhs, overwrite_b=True)
    if info != 0:
        raise SolverError(
            f"getrs failed with info={info} in scheme={mats.scheme}, "
            f"M={mats.M}, tau={mats.tau}")
    return x


def solve(scheme: str, spec: ProblemSpec, M: int, N: int,
          reflect_right: bool = True) -> SolutionGrid:
    """March from the initial data to t = T.

    When the exact solution is known the grid records both the final-time
    maximum error and the maximum over all time levels; the published
    benchmark tables use the all-level maximum.
    """
    if N < 1:
        raise ValueError("need at least one time step")
    tau = spec.T / N
    mats = assemble(scheme, spec, M, tau, reflect_right=reflect_right)
    x = spec.a + mats.h * np.arange(M + 1)
    xs = mats.source_x
    values = np.zeros((N + 1, M + 1))
    values[0] = spec.initial(x)
    values[0, 0] = 0.0
    values[0, M] = 0.0
    u = values[0, 1:M].copy()
    worst = 0.0
    # an interior inf source makes inf * 0 in step's matvec; step's
    # finiteness check then rejects the right-hand side, so SolverError is
    # the only report of it
    with np.errstate(invalid="ignore"):
        for k in range(N):
            s = spec.source(xs, (k + 0.5) * tau)
            if not (math.isfinite(s[0]) and math.isfinite(s[-1])):
                raise SolverError(
                    f"non-finite source at an end node (x = {xs[0]:g} or "
                    f"{xs[-1]:g}) in scheme={scheme}, M={M}, t={(k + 0.5) * tau:g}")
            u = step(mats, u, s)
            values[k + 1, 1:M] = u
            if spec.exact is not None:
                ue = spec.exact(x[1:M], (k + 1) * tau)
                worst = max(worst, float(np.abs(u - ue).max()))
    if not np.isfinite(values).all():
        raise SolverError(
            f"non-finite values in scheme={scheme}, M={M}, N={N}, "
            f"alpha={spec.alpha}")
    final_error = None
    max_error = None
    if spec.exact is not None:
        ue = spec.exact(x[1:M], spec.T)
        final_error = float(np.abs(values[N, 1:M] - ue).max())
        max_error = worst
    return SolutionGrid(spec=spec, M=M, N=N, values=values,
                        final_error=final_error, max_error=max_error)


# ---------------------------------------------------------------------------
# Built-in benchmark problems with manufactured solutions.
# ---------------------------------------------------------------------------

def _fractional_source_sum(binomials, base_power: int, alpha: float):
    """(x_+, (1-x)_+) -> sum_k c_k G_k (x_+^e_k + (1-x)_+^e_k).

    With c_k the coefficients of x^n (1-x)^n = sum_k c_k x^(n+k),
    G_k = Gamma(n+1+k) / Gamma(n+1+k-alpha) and e_k = n + k - alpha, the
    two terms are the left- and right-sided fractional derivatives of the
    profile.  The positive parts y_+ = max(y, 0) drop the side whose
    support lies beyond x, so the sum stays finite at the ghost nodes.
    """
    terms = [(c * (math.gamma(base_power + 1 + k)
                   / math.gamma(base_power + 1 + k - alpha)),
              base_power + k - alpha)
             for k, c in enumerate(binomials)]

    def frac(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(left)
        for cg, e in terms:
            acc += cg * (left ** e + right ** e)
        return acc

    return frac


def _x_only(arrays_of):
    """One-entry cache of ``arrays_of(x)``, the t-independent arrays of a
    builtin closure, keyed by the node array's dtype, shape and bytes.

    :func:`solve` samples the source at one node array and the exact
    solution at another on every step, so each closure reuses its entry
    for the whole march.  The cached arrays are only read: each call
    returns a new array computed from them.
    """
    key, arrays = None, None

    def lookup(x: np.ndarray):
        nonlocal key, arrays
        k = (x.dtype.str, x.shape, x.tobytes())
        if k != key:
            key, arrays = k, arrays_of(x)
        return arrays

    return lookup


def builtin_problem(name: str, alpha: float) -> ProblemSpec:
    """Manufactured benchmark problems on [0, 1] x [0, 1].

    example2: u = exp(t) x^6 (1-x)^6 with d1 = d2 = d_alpha = 1.
    example3: u = sin(t) x^8 (1-x)^8 with d1 = 2, d2 = 1, d_alpha = alpha**2.

    Both sources follow the ghost-node rule of :class:`ProblemSpec`.  At
    x = -h the polynomial part vanishes and only the right-sided term of
    the fractional sum is left; for example3 that is
    (alpha**2 / 2) sin(t) sec(pi alpha / 2) sum_k c_k G_k (1 + h)^(8+k-alpha).
    At 1 + h the value is its mirror image.  The closed form continues the
    profile x^n (1-x)^n over [-h, 0] instead of extending it by zero, an
    excess of order h**(n - alpha) (n = 6 or 8).  At M = 8 it moves the
    order6 errors of example3 by less than 0.2%, as a quadrature of the
    zero-extended value shows.

    Sources and exact solutions are separable in t.  Their x-only arrays
    are computed once per node array (:func:`_x_only`), and each call
    applies the t-dependent factors in the elementwise order of the full
    closed form, so the values are bitwise those of evaluating it whole.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sec = 1.0 / math.cos(math.pi * alpha / 2.0)
    if name == "example2":
        frac = _fractional_source_sum(
            [(-1) ** k * math.comb(6, k) for k in range(7)], 6, alpha)

        @_x_only
        def bracket(x):
            left, right = np.maximum(x, 0.0), np.maximum(1.0 - x, 0.0)
            poly = (left ** 4 * right ** 4
                    * (x ** 4 + 10.0 * x ** 3 - 149.0 * x ** 2 + 138.0 * x - 30.0))
            return poly + 0.5 * sec * frac(left, right)

        powers = _x_only(lambda x: (x ** 6, (1.0 - x) ** 6))

        def exact(x, t):
            X6, Y6 = powers(np.asarray(x))
            return math.exp(t) * X6 * Y6

        return ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=1.0, alpha=alpha, a=0.0, b=1.0, T=1.0,
            source=lambda x, t: math.exp(t) * bracket(np.asarray(x, dtype=float)),
            initial=lambda x: np.asarray(x) ** 6 * (1.0 - np.asarray(x)) ** 6,
            exact=exact,
        )
    if name == "example3":
        frac = _fractional_source_sum(
            [(-1) ** k * math.comb(8, k) for k in range(9)], 8, alpha)

        @_x_only
        def parts(x):
            left, right = np.maximum(x, 0.0), np.maximum(1.0 - x, 0.0)
            return (left ** 6 * right ** 6,
                    x ** 4 - 2.0 * x ** 3 + x ** 2,
                    32.0 * x ** 3 - 288.0 * x ** 2 + 256.0 * x - 56.0,
                    frac(left, right))

        def source(x, t):
            L, P, Q, F = parts(np.asarray(x, dtype=float))
            return (L * (math.cos(t) * P + math.sin(t) * Q)
                    + 0.5 * alpha ** 2 * math.sin(t) * sec * F)

        powers = _x_only(lambda x: (x ** 8, (1.0 - x) ** 8))

        def exact(x, t):
            X8, Y8 = powers(np.asarray(x))
            return math.sin(t) * X8 * Y8

        return ProblemSpec(
            d1=2.0, d2=1.0, d_alpha=alpha ** 2, alpha=alpha, a=0.0, b=1.0, T=1.0,
            source=source,
            initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            exact=exact,
        )
    raise ValueError(f"unknown problem '{name}', expected example2 or example3")


def convergence_study(scheme: str, problem: str | ProblemSpec, alpha: float,
                      ladder, reflect_right: bool = True) -> ConvergenceReport:
    """Errors and observed orders over a refinement ladder of (M, N) pairs.

    Temporal order compares consecutive errors against the tau ratio,
    spatial order against the h ratio; the benchmark ladders couple the two,
    so both columns derive from the same error ratio.
    """
    ladder = list(ladder)
    if not ladder:
        raise ValueError("ladder must contain at least one (M, N) pair")
    if isinstance(problem, ProblemSpec):
        spec = problem
        if spec.alpha != alpha:
            raise ValueError("alpha does not match the supplied problem")
        pname = "custom"
    else:
        spec = builtin_problem(problem, alpha)
        pname = problem
    if spec.exact is None:
        raise ValueError("convergence study requires an exact solution")
    rows: list[ConvergenceRow] = []
    prev: tuple[float, float, float] | None = None
    for M, N in ladder:
        grid = solve(scheme, spec, M, N, reflect_right=reflect_right)
        h, tau, err = grid.h, grid.tau, grid.max_error
        t_order = s_order = None
        if prev is not None:
            h0, tau0, e0 = prev
            if tau0 != tau and err > 0:
                t_order = math.log(e0 / err) / math.log(tau0 / tau)
            if h0 != h and err > 0:
                s_order = math.log(e0 / err) / math.log(h0 / h)
        rows.append(ConvergenceRow(h=h, tau=tau, error=err,
                                   temporal_order=t_order, spatial_order=s_order))
        prev = (h, tau, err)
    return ConvergenceReport(study=scheme, problem=pname, alpha=alpha,
                             norm="max-abs-all-levels", rows=tuple(rows))
