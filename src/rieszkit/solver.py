"""Crank-Nicolson schemes of spatial order 2, 4 and 6 for the fractional
turbulent diffusion equation

    u_t = -d1 u_x + d2 u_xx + d_alpha * D^alpha u + s(x, t)

on [a, b] with homogeneous Dirichlet boundary values, where D^alpha is the
Riesz derivative of order alpha in (0, 1).  The compact schemes (order 4
and 6) smooth the time, fractional and source terms with a narrow stencil.

This module assembles the schemes of :mod:`rieszkit.schemes` into dense
matrices, factors the implicit one with SciPy, marches them, and holds the
manufactured benchmark problems and the convergence studies.
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
from .coefficients import check_count, expand_generating_function
from .reports import ConvergenceReport, convergence_rows
from .schemes import (check_coefficients, check_step, fractional_coefficient,
                      right_compact, stencils, weight_order)

# time levels per block of the march: solve samples the source and the
# exact solution once per block and holds only that block's levels
_BLOCK = 256
_MAX_M = 4096  # largest mesh: assemble's three dense arrays take 400 MB
_MAX_N = 10**6  # most levels: memory does not grow with N, 5 s at M = 64
# most N (M - 1)**2 of a solve, the work of its dense level updates: 5 to
# 10 s on 2 cores, N <= 238 at M = 4096 and the whole _MAX_N up to M = 64
_MAX_WORK = 4 * 10**9


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
    -d_alpha * D^alpha u, the fractional term alone.

    ``source(x, t)`` and ``exact(x, t)`` take ``t`` either as a float or
    as an (n, 1) column of times, and their result must broadcast to
    (len(x),) or (n, len(x)) respectively: :func:`solve` passes the times
    of a whole block of levels at once, one row per time.  The domain and
    the horizon must be finite; :mod:`rieszkit.schemes` checks the rest.
    """

    d1: float
    d2: float
    d_alpha: float
    alpha: float
    a: float
    b: float
    T: float
    source: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray, float | np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("a", "b", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.b <= self.a:
            raise ValueError("domain requires b > a")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        check_coefficients(self.alpha, self.d1, self.d2, self.d_alpha)


@dataclass
class SchemeMatrices:
    """Assembled time-step operators: the LU factor of the implicit matrix
    A, which is reused at every level, the explicit B and the source matrix
    S, the three dense arrays that the march reads.  A itself is kept as
    its O(M) generating data (see :func:`assemble`), and the ``A`` property
    rebuilds the dense matrix on demand."""

    scheme: str
    M: int
    tau: float
    h: float
    B: np.ndarray
    source_matrix: np.ndarray
    source_x: np.ndarray
    lu: tuple = field(repr=False)
    # A's generating vector and its two edge columns, as in _fill
    _a_data: np.ndarray = field(repr=False)

    @property
    def A(self) -> np.ndarray:
        """The implicit matrix, rebuilt from its generating data."""
        n = self.M - 1
        return _fill(np.empty((n, n)), self._a_data)


@dataclass(frozen=True)
class SolutionGrid:
    """Outcome of :func:`solve`: the solution at t = T on the M + 1 grid
    nodes (boundary nodes included) and, with an exact solution, the
    final-time and all-level maximum errors."""

    spec: ProblemSpec
    M: int
    N: int
    final: np.ndarray
    final_error: float | None
    max_error: float | None

    @property
    def h(self) -> float:
        return (self.spec.b - self.spec.a) / self.M

    @property
    def tau(self) -> float:
        return self.spec.T / self.N


def _diagonal(X: np.ndarray, k: int) -> np.ndarray:
    """Writable view of the k-th diagonal, X[r, r + k], of a C-contiguous array."""
    rows, cols = X.shape
    start = k if k >= 0 else -k * cols
    count = min(rows + min(k, 0), cols - max(k, 0))
    return X.reshape(-1)[start::cols + 1][:count]


def _convolution_diagonals(M: int, w: np.ndarray, compact, right, nu: float):
    """nu K on its diagonals, for the two-sided weight convolution K with
    the compact stencil ``compact`` on its backward-looking half and
    ``right`` on its forward-looking one.

    Row r = j - 1 and column m - 1 of the left half collect
    w[j - m + off] * c_off over the compact offsets, for 0 <= j - m + off <= j;
    the right half collects w[m - j - off] * c_off over its offsets, for
    0 <= m - j - off <= M - j.  So K is Toeplitz apart from two edge
    columns: offset +2 of the left half misses column 0, and offset -2 of
    the right half misses column M - 2.  Entry t of each row of the
    (3, 2M - 3) result lies on the diagonal r - col = t - (M - 2): row 0 is
    the Toeplitz generating vector, and rows 1 and 2 hold columns 0 and M - 2.

    The terms are slices of one zero-padded copy of w, added in the order
    of the entry loop kept as the test oracle: left offsets ascending, then
    right offsets descending.  The sums start at +0.0 and no partial sum is
    -0.0, so zero terms change no bit: the padding's, and those standing in
    for the term an edge column misses.
    """
    L = 2 * M - 3
    # wp[M + i] = w[i] for 0 <= i <= M, with M leading zeros for i < 0; the
    # left (right) term of offset off is slice 2 + off of wp (wp reversed)
    wp = np.zeros(2 * M + 1)
    wp[M:] = w[:M + 1]
    right = sorted(right, reverse=True)
    V = np.array([wp[2 + off:2 + off + L] for off, _ in compact]
                 + [wp[::-1][2 + off:2 + off + L] for off, _ in right])
    C = np.array([(c, 0.0 if off == 2 else c, c) for off, c in compact]
                 + [(c, c, 0.0 if off == -2 else c) for off, c in right])
    # P[0] is the +0.0 the sums start from; accumulate adds term by term
    P = np.zeros((len(C) + 1, 3, L))
    np.multiply(C[:, :, None], V[:, None, :], out=P[1:])
    return np.add.accumulate(P)[-1] * nu


def _fill(X: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Fill the n x n matrix X from its (3, 2n - 1) generating data g, laid
    out as in :func:`_convolution_diagonals`, and return it.

    X[r, col] = g[0, n - 1 + r - col], so row r of X is window n - 1 - r
    of g[0] reversed; columns 0 and n - 1 are rows 1 and 2 of g, which
    replace the Toeplitz entries there.
    """
    n = len(X)
    X[...] = sliding_window_view(g[0, ::-1], n)[::-1]
    X[:, 0] = g[1, n - 1:]
    X[:, -1] = g[2, :n]
    return X


def _check_mesh(scheme: str, M: int) -> int:
    """Weight order of ``scheme``, after checking M against its range."""
    p = weight_order(scheme)
    check_count("M", M, 6 if p == 6 else 4, _MAX_M)
    return p


def assemble(scheme: str, spec: ProblemSpec, M: int, tau: float) -> SchemeMatrices:
    """Build the implicit/explicit matrices A u^{k+1} = B u^k + S s^{k+1/2}.

    The pentadiagonal scheme is stated on interior rows 2..M-2 only; rows
    1 and M-1 reuse the identical stencil with the solution extended by
    zero outside [a, b].  The convolution therefore keeps the fractional
    term at the ghost nodes a - h and b + h, and the source stencil samples
    the source there as well: ``source_matrix`` has one column per entry
    of ``source_x``, the nodes a + j h for j = -g..M+g, with g = 1 for
    order6 and g = 0 otherwise.  :func:`rieszkit.schemes.check_step`
    decides which steps are valid.

    Assembly works on diagonals: nu K as in :func:`_convolution_diagonals`
    in O(M) operations, and the banded C, D and source matrix one stencil
    term per diagonal.  The generating vectors of A = (2/tau) C - D + nu K
    and B = (2/tau) C + D - nu K take the elementwise operations of the
    dense sums, and each matrix is one strided copy plus its two edge
    columns (:func:`_fill`).  A is filled in Fortran order and factored in
    place, so ``assemble`` holds three (M-1) x (M-1) arrays, the factor, B
    and ``source_matrix``, plus A's O(M) generating data, from which
    ``mats.A`` rebuilds A on demand; no other such buffer is made.  A, B
    and ``source_matrix`` are bitwise equal to the entry loops that
    ``tests/naive_reference.py`` keeps as the oracle.  A non-finite entry
    of A, which the finite check before the factorization finds in its
    generating data, or a zero pivot raises :class:`SolverError`.
    """
    p = _check_mesh(scheme, M)
    h = (spec.b - spec.a) / M
    check_step(scheme, spec.alpha, h, tau, spec.d1, spec.d2, spec.d_alpha)
    if p == 4 and spec.alpha > alpha_limit_order4():
        warnings.warn(
            f"order4 stability is only guaranteed for alpha <= "
            f"{alpha_limit_order4():.4f}; got alpha={spec.alpha}",
            stacklevel=2)

    nu = fractional_coefficient(spec.d_alpha, spec.alpha, h)
    compact, operator = stencils(scheme, spec.d1, spec.d2, h)
    w = expand_generating_function(p, spec.alpha, M + 2).values

    n = M - 1
    nuK = _convolution_diagonals(M, w, compact, right_compact(scheme, compact), nu)
    # A = (s C - D) + nu K and B = (s C + D) - nu K elementwise, with C and
    # D kept as one stencil term per diagonal X[r, r + off], which is entry
    # n - 1 - off (an entry of C is 0.0 + c).  Off the bands s C -+ D is
    # s * 0.0 -+ 0.0, and adding it turns a -0.0 of nu K into +0.0.
    s = 2.0 / tau
    ab = np.empty((2,) + nuK.shape)
    ab[0], ab[1] = s * 0.0 - 0.0, s * 0.0 + 0.0
    cw, dw = dict(compact), dict(operator)
    for off in cw.keys() | dw.keys():
        sc = s * (0.0 + cw.get(off, 0.0))
        dv = 0.0 + dw.get(off, 0.0)
        ab[0, :, n - 1 - off], ab[1, :, n - 1 - off] = sc - dv, sc + dv
    ab[0] += nuK
    ab[1] -= nuK
    singular = (f"singular system for scheme={scheme}, M={M}, tau={tau}, "
                f"alpha={spec.alpha}")
    # the finite check of lu_factor, on every distinct entry of A: its
    # generating vector bar the two corners that the edge columns replace,
    # and the edge columns
    a_data = ab[0]
    used = (a_data[0, 1:-1], a_data[1, n - 1:], a_data[2, :n])
    if not all(np.isfinite(v).all() for v in used):
        raise SolverError(singular)
    try:
        # a Fortran-ordered A is factored in place, with no copy
        lu = lu_factor(_fill(np.empty((n, n), order="F"), a_data),
                       overwrite_a=True, check_finite=False)
    except Exception as exc:
        raise SolverError(singular) from exc
    # lu_factor only warns about an exactly zero pivot
    if not np.diagonal(lu[0]).all():
        raise SolverError(singular)

    # nodes beyond [a, b] that the compact stencil of rows 1 and M-1 reaches
    ghost = max(0, compact[-1][0] - 1)
    S = np.zeros((M - 1, M + 1 + 2 * ghost))
    for off, c in compact:
        # row j samples the source at node j + off, column j + off + ghost
        _diagonal(S, 1 + off + ghost)[:] = 0.0 + 2.0 * c

    return SchemeMatrices(scheme=scheme, M=M, tau=tau, h=h,
                          B=_fill(np.empty((n, n)), ab[1]), source_matrix=S,
                          source_x=spec.a + h * np.arange(-ghost, M + 1 + ghost),
                          lu=lu, _a_data=a_data)


def _non_finite(mats: SchemeMatrices, t: float | None = None) -> SolverError:
    at = "" if t is None else f", t={t:g}"
    return SolverError(f"non-finite data in scheme={mats.scheme}, M={mats.M}, "
                       f"tau={mats.tau}{at}")


def _march(mats: SchemeMatrices, u: np.ndarray, s: np.ndarray,
           levels: np.ndarray) -> float | None:
    """March one block of levels A u^{k+1} = B u^k + S s^{k+1/2} from the
    state u; the only code that advances a level.

    Row i of ``s`` holds the source samples at ``mats.source_x`` for level
    i of the block, whose solution lands in row i of ``levels``.  One
    batched product forms every source term S s.  Each level then costs
    three in-place calls and no temporaries: ``B.dot`` writes B u into the
    level's row, ``np.add`` adds the source term, and LAPACK ``getrs``
    overwrites the row with the solution, which becomes u; a nonzero
    ``info`` raises :class:`SolverError`.  The march stops before the first
    non-finite source term and checks the marched levels after the loop;
    overflow and inf * 0 show only through these checks, never as a NumPy
    warning.

    Returns None if all is finite, else the first fault's offset in steps
    from the block's start: i + 1 for a non-finite level in row i, n + 0.5
    for a non-finite source term in row n.
    """
    (lu, piv), dot, add, getrs = mats.lu, mats.B.dot, np.add, dgetrs
    with np.errstate(over="ignore", invalid="ignore"):
        src = np.matmul(mats.source_matrix, s[:, :, None])[:, :, 0]
        good = np.isfinite(src).all(axis=1)
        n = len(src) if good.all() else int(good.argmin())
        for row, f in zip(levels[:n], src):
            dot(u, row)
            add(row, f, row)
            # trans = 0, overwrite_b = 1: u is the solved row itself
            u, info = getrs(lu, piv, row, 0, 1)
            if info != 0:
                raise SolverError(f"getrs failed with info={info} in scheme="
                                  f"{mats.scheme}, M={mats.M}, tau={mats.tau}")
    finite = np.isfinite(levels[:n]).all(axis=1)
    if not finite.all():
        return finite.argmin() + 1.0
    return None if n == len(src) else n + 0.5


def step(mats: SchemeMatrices, u: np.ndarray, s_half: np.ndarray) -> np.ndarray:
    """Advance one time level; s_half holds source samples at mats.source_x
    (the M+1 grid nodes, and for order6 also the ghost nodes a - h and
    b + h, see :func:`assemble`).  The level is a one-row block of
    :func:`_march`, so a non-finite source term or result raises
    :class:`SolverError`, never a NumPy warning.  u and s_half are left as
    they are, and the result shares no memory with them.  A u or s_half
    of the wrong length raises ValueError.
    """
    for name, v, size in (("u", u, mats.M - 1), ("s_half", s_half, len(mats.source_x))):
        if np.shape(v) != (size,):
            raise ValueError(f"{name} must have length {size}, got shape {np.shape(v)}")
    x = np.empty((1, mats.M - 1))
    if _march(mats, u, np.reshape(s_half, (1, -1)), x) is not None:
        raise _non_finite(mats)
    return x[0]


def solve(scheme: str, spec: ProblemSpec, M: int, N: int) -> SolutionGrid:
    """March from the initial data to t = T in blocks of up to 256 levels,
    each one call of :func:`_march`.

    Each block calls ``spec.source`` once, with the column of its
    half-level times (see :class:`ProblemSpec`), and ``spec.exact`` once,
    with the column of its level times.  A non-finite end-node sample,
    source term or level raises :class:`SolverError` naming the time of
    the first.  Only one block of levels is held, so memory does not grow
    with N, and the grid keeps the final level alone.

    With an exact solution the grid records both the final-time maximum
    error and the maximum over all time levels; the published benchmark
    tables use the all-level maximum.  A nan in the exact solution at any
    level makes that maximum nan.

    M is checked first, and N is bounded by the work N (M - 1)**2 as well
    as by _MAX_N.
    """
    _check_mesh(scheme, M)
    check_count("N", N, 1, min(_MAX_N, _MAX_WORK // (M - 1) ** 2))
    tau = spec.T / N
    mats = assemble(scheme, spec, M, tau)
    x = spec.a + mats.h * np.arange(M + 1)
    xs = mats.source_x
    u = np.empty(M + 1)
    u[:] = spec.initial(x)
    u = u[1:M]
    levels = np.empty((min(N, _BLOCK), M - 1))
    worst = 0.0
    for k0 in range(0, N, _BLOCK):
        k = np.arange(k0, min(k0 + _BLOCK, N))[:, None]
        t_half = (k + 0.5) * tau
        s = np.broadcast_to(spec.source(xs, t_half), (len(k), len(xs)))
        ends = np.isfinite(s[:, 0]) & np.isfinite(s[:, -1])
        if not ends.all():
            raise SolverError(
                f"non-finite source at an end node (x = {xs[0]:g} or "
                f"{xs[-1]:g}) in scheme={scheme}, M={M}, "
                f"t={t_half[ends.argmin(), 0]:g}")
        if (bad := _march(mats, u, s, levels)) is not None:
            raise _non_finite(mats, (k0 + bad) * tau)
        # row _BLOCK - 1 if a block follows, which writes its row 0 first
        u = levels[len(k) - 1]
        if spec.exact is not None:
            ue = spec.exact(x[1:M], (k + 1) * tau)
            worst = np.abs(levels[:len(k)] - ue).max(initial=worst)
    final = np.zeros(M + 1)
    final[1:M] = u
    final_error = max_error = None
    if spec.exact is not None:
        ue = spec.exact(x[1:M], spec.T)
        final_error = float(np.abs(u - ue).max())
        max_error = float(worst)
    return SolutionGrid(spec=spec, M=M, N=N, final=final,
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


def _per_time(fn, t):
    """``fn`` of each time value: a float for a float t, else an array of
    t's shape.  Each value goes through the scalar ``math`` function, which
    rounds differently from its NumPy counterpart on some arguments, so a
    column of times gives bitwise the values of one call per time."""
    if np.ndim(t) == 0:
        return fn(t)
    return np.array([fn(v) for v in np.ravel(t).tolist()]).reshape(np.shape(t))


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

    Sources and exact solutions are separable in t.  Each call evaluates
    the x-only arrays and applies the t-dependent factors
    (:func:`_per_time`) in the elementwise order of the full closed form,
    so a column of times gives bitwise the values of evaluating it whole,
    one time value at a time.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sec = 1.0 / math.cos(math.pi * alpha / 2.0)
    if name == "example2":
        frac = _fractional_source_sum(
            [(-1) ** k * math.comb(6, k) for k in range(7)], 6, alpha)

        def source(x, t):
            x = np.asarray(x, dtype=float)
            left, right = np.maximum(x, 0.0), np.maximum(1.0 - x, 0.0)
            poly = (left ** 4 * right ** 4
                    * (x ** 4 + 10.0 * x ** 3 - 149.0 * x ** 2 + 138.0 * x - 30.0))
            return _per_time(math.exp, t) * (poly + 0.5 * sec * frac(left, right))

        def exact(x, t):
            x = np.asarray(x)
            return _per_time(math.exp, t) * x ** 6 * (1.0 - x) ** 6

        return ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=1.0, alpha=alpha, a=0.0, b=1.0, T=1.0,
            source=source,
            initial=lambda x: np.asarray(x) ** 6 * (1.0 - np.asarray(x)) ** 6,
            exact=exact,
        )
    if name == "example3":
        frac = _fractional_source_sum(
            [(-1) ** k * math.comb(8, k) for k in range(9)], 8, alpha)

        def source(x, t):
            x = np.asarray(x, dtype=float)
            left, right = np.maximum(x, 0.0), np.maximum(1.0 - x, 0.0)
            cos_t, sin_t = _per_time(math.cos, t), _per_time(math.sin, t)
            return (left ** 6 * right ** 6
                    * (cos_t * (x ** 4 - 2.0 * x ** 3 + x ** 2)
                       + sin_t * (32.0 * x ** 3 - 288.0 * x ** 2 + 256.0 * x - 56.0))
                    + 0.5 * alpha ** 2 * sin_t * sec * frac(left, right))

        def exact(x, t):
            x = np.asarray(x)
            return _per_time(math.sin, t) * x ** 8 * (1.0 - x) ** 8

        return ProblemSpec(
            d1=2.0, d2=1.0, d_alpha=alpha ** 2, alpha=alpha, a=0.0, b=1.0, T=1.0,
            source=source,
            initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            exact=exact,
        )
    raise ValueError(f"unknown problem '{name}', expected example2 or example3")


def convergence_study(scheme: str, problem: str, alpha: float,
                      ladder) -> ConvergenceReport:
    """Errors and observed orders of a built-in problem over a refinement
    ladder of (M, N) pairs.

    Temporal order compares consecutive errors against the tau ratio,
    spatial order against the h ratio; the benchmark ladders couple the two,
    so both columns derive from the same error ratio.
    """
    ladder = list(ladder)
    if not ladder:
        raise ValueError("ladder must contain at least one (M, N) pair")
    spec = builtin_problem(problem, alpha)
    grids = (solve(scheme, spec, M, N) for M, N in ladder)
    rows = convergence_rows((g.h, g.tau, g.max_error) for g in grids)
    return ConvergenceReport(study=scheme, problem=problem, alpha=alpha,
                             norm="max-abs-all-levels", rows=rows)
