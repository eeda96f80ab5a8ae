"""Scalar-loop reference implementations of the three time-step equations.

Written directly from the printed per-node layouts, with explicit loops and
a generic dense solve; no code shared with the production assembly.  The
`reflect_right` switch mirrors the compact weights on the forward-looking
convolution half, matching the production default.  Row j of a compact
scheme samples the source at every node j + off its stencil reaches; for
the five-point order6 stencil, rows 1 and M-1 reach the ghost nodes
x_{-1} = a - h and x_{M+1} = b + h.

`naive_assembly_matrices` keeps the entry loops that filled the matrices
of `rieszkit.solver.assemble` before it moved to Toeplitz views; the
production matrices must equal them byte for byte.

`naive_closed_form_table` is the explicit nested-sum route in exact
Fraction arithmetic, with its own copy of the generator constants; it is
the oracle for the scaled-integer production route.
"""

import math
from fractions import Fraction

import numpy as np

from rieszkit import expand_generating_function
from rieszkit.solver import _scheme_stencils


def _weights(p, alpha, length):
    return expand_generating_function(p, alpha, length).values


def naive_step_order2(spec, M, tau, u_prev, t_half):
    h = (spec.b - spec.a) / M
    d1, d2, da = spec.d1, spec.d2, spec.d_alpha
    nu = da / (2.0 * math.cos(math.pi * spec.alpha / 2.0) * h ** spec.alpha)
    w = _weights(2, spec.alpha, M + 2)
    x = spec.a + h * np.arange(M + 1)
    s = spec.source(x, t_half)
    n = M - 1
    A = np.zeros((n, n))
    rhs = np.zeros(n)

    def put(mat, j, m, val):
        if 1 <= m <= M - 1:
            mat[j - 1, m - 1] += val

    for j in range(1, M):
        put(A, j, j - 1, d2 / h ** 2 + d1 / (2 * h))
        put(A, j, j, -(2.0 / tau + 2.0 * d2 / h ** 2))
        put(A, j, j + 1, d2 / h ** 2 - d1 / (2 * h))
        for ell in range(0, j + 1):
            put(A, j, j - ell, -nu * w[ell])
        for ell in range(0, M - j + 1):
            put(A, j, j + ell, -nu * w[ell])

        acc = 0.0
        if 1 <= j - 1 <= M - 1:
            acc -= (d2 / h ** 2 + d1 / (2 * h)) * u_prev[j - 2]
        acc -= (2.0 / tau - 2.0 * d2 / h ** 2) * u_prev[j - 1]
        if 1 <= j + 1 <= M - 1:
            acc -= (d2 / h ** 2 - d1 / (2 * h)) * u_prev[j]
        for ell in range(0, j + 1):
            if 1 <= j - ell <= M - 1:
                acc += nu * w[ell] * u_prev[j - ell - 1]
        for ell in range(0, M - j + 1):
            if 1 <= j + ell <= M - 1:
                acc += nu * w[ell] * u_prev[j + ell - 1]
        acc -= 2.0 * s[j]
        rhs[j - 1] = acc
    return np.linalg.solve(A, rhs)


def _compact_step(spec, M, tau, u_prev, t_half, p, compact, space,
                  reflect_right):
    """Shared scalar loop for the two compact layouts."""
    h = (spec.b - spec.a) / M
    nu = spec.d_alpha / (2.0 * math.cos(math.pi * spec.alpha / 2.0)
                         * h ** spec.alpha)
    w = _weights(p, spec.alpha, M + 4)
    reach = max(off for off, _ in compact)
    nodes = list(range(1 - reach, M + reach))
    s = dict(zip(nodes, spec.source(np.array([spec.a + m * h for m in nodes]),
                                    t_half)))
    n = M - 1
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    right = [(-off, c) for off, c in compact] if reflect_right else compact

    def uval(idx):
        return u_prev[idx - 1] if 1 <= idx <= M - 1 else 0.0

    for j in range(1, M):
        for (off, c), (_, e) in zip(compact, space):
            m = j + off
            if 1 <= m <= M - 1:
                A[j - 1, m - 1] += 2.0 * c / tau + e
        for ell in range(0, j + 1):
            for off, c in compact:
                m = j - ell + off
                if 1 <= m <= M - 1:
                    A[j - 1, m - 1] += nu * w[ell] * c
        for ell in range(0, M - j + 1):
            for off, c in right:
                m = j + ell + off
                if 1 <= m <= M - 1:
                    A[j - 1, m - 1] += nu * w[ell] * c

        acc = 0.0
        for (off, c), (_, e) in zip(compact, space):
            acc += (2.0 * c / tau - e) * uval(j + off)
        for ell in range(0, j + 1):
            for off, c in compact:
                acc -= nu * w[ell] * c * uval(j - ell + off)
        for ell in range(0, M - j + 1):
            for off, c in right:
                acc -= nu * w[ell] * c * uval(j + ell + off)
        for off, c in compact:
            acc += 2.0 * c * s[j + off]
        rhs[j - 1] = acc
    return np.linalg.solve(A, rhs)


def naive_step_order4(spec, M, tau, u_prev, t_half, reflect_right=True):
    h = (spec.b - spec.a) / M
    d1, d2 = spec.d1, spec.d2
    a1 = 1 / 12 + d1 * h / (24 * d2)
    a2 = 5 / 6
    a3 = 1 / 12 - d1 * h / (24 * d2)
    b1 = d2 / h ** 2 + d1 ** 2 / (12 * d2) + d1 / (2 * h)
    b2 = -2 * (d2 / h ** 2 + d1 ** 2 / (12 * d2))
    b3 = d2 / h ** 2 + d1 ** 2 / (12 * d2) - d1 / (2 * h)
    compact = [(-1, a1), (0, a2), (1, a3)]
    space = [(-1, -b1), (0, -b2), (1, -b3)]
    return _compact_step(spec, M, tau, u_prev, t_half, 4, compact, space,
                         reflect_right)


def naive_step_order6(spec, M, tau, u_prev, t_half, reflect_right=True):
    h = (spec.b - spec.a) / M
    d1, d2 = spec.d1, spec.d2
    q = d1 * h / d2
    compact = [(-2, -(1 + q) / 90), (-1, (4 + 2 * q) / 90), (0, 14 / 15),
               (1, (4 - 2 * q) / 90), (2, -(1 - q) / 90)]
    e1 = d2 / (12 * h ** 2) + d1 / (12 * h) + d1 ** 2 / (45 * d2)
    e2 = -(4 * d2 / (3 * h ** 2) + 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
    e3 = 5 * d2 / (2 * h ** 2) + 2 * d1 ** 2 / (15 * d2)
    e4 = -(4 * d2 / (3 * h ** 2) - 2 * d1 / (3 * h) + 4 * d1 ** 2 / (45 * d2))
    e5 = d2 / (12 * h ** 2) - d1 / (12 * h) + d1 ** 2 / (45 * d2)
    space = [(-2, e1), (-1, e2), (0, e3), (1, e4), (2, e5)]
    return _compact_step(spec, M, tau, u_prev, t_half, 6, compact, space,
                         reflect_right)


NAIVE_STEPS = {
    "order2": lambda spec, M, tau, u, t, reflect_right=True:
        naive_step_order2(spec, M, tau, u, t),
    "order4": naive_step_order4,
    "order6": naive_step_order6,
}


def _naive_stencil_matrix(M, stencil):
    S = np.zeros((M - 1, M - 1))
    for j in range(1, M):
        for off, c in stencil:
            m = j + off
            if 1 <= m <= M - 1:
                S[j - 1, m - 1] += c
    return S


def _naive_convolution_matrix(M, w, compact, reflect_right):
    K = np.zeros((M - 1, M - 1))
    right = tuple((-off, c) for off, c in compact) if reflect_right else compact
    for j in range(1, M):
        for ell in range(0, j + 1):
            for off, c in compact:
                m = j - ell + off
                if 1 <= m <= M - 1:
                    K[j - 1, m - 1] += w[ell] * c
        for ell in range(0, M - j + 1):
            for off, c in right:
                m = j + ell + off
                if 1 <= m <= M - 1:
                    K[j - 1, m - 1] += w[ell] * c
    return K


def naive_assembly_matrices(scheme, spec, M, tau, reflect_right=True):
    """(A, B, source_matrix) of `assemble`, filled entry by entry."""
    p = {"order2": 2, "order4": 4, "order6": 6}[scheme]
    h = (spec.b - spec.a) / M
    cosine = math.cos(math.pi * spec.alpha / 2.0)
    nu = spec.d_alpha / (2.0 * cosine * h ** spec.alpha)
    compact, operator = _scheme_stencils(scheme, spec.d1, spec.d2, h)
    w = expand_generating_function(p, spec.alpha, M + 2).values

    C = _naive_stencil_matrix(M, compact)
    D = _naive_stencil_matrix(M, operator)
    K = _naive_convolution_matrix(M, w, compact, reflect_right)
    A = (2.0 / tau) * C - D + nu * K
    B = (2.0 / tau) * C + D - nu * K

    ghost = max(0, compact[-1][0] - 1)
    S = np.zeros((M - 1, M + 1 + 2 * ghost))
    for j in range(1, M):
        for off, c in compact:
            S[j - 1, j + off + ghost] += 2.0 * c
    return A, B, S


# Leading generator coefficients g_0 and ratio chains of the nested
# factorization W_p/g_0 = (1-z) * (1 - r_1 z (1 - r_2 z (...))), p = 2..6.
_G0 = {2: Fraction(3, 2), 3: Fraction(11, 6), 4: Fraction(25, 12),
       5: Fraction(137, 60), 6: Fraction(147, 60)}
_RATIO_CHAINS = {
    2: (Fraction(1, 3),),
    3: (Fraction(7, 11), Fraction(2, 7)),
    4: (Fraction(23, 25), Fraction(13, 23), Fraction(3, 13)),
    5: (Fraction(163, 137), Fraction(137, 163), Fraction(63, 137), Fraction(4, 21)),
    6: (Fraction(213, 147), Fraction(237, 213), Fraction(163, 237),
        Fraction(62, 163), Fraction(5, 31)),
}


def _naive_inner_weights(p, length):
    r = _RATIO_CHAINS[p]
    rp = [[q ** k for k in range(length + 1)] for q in r]
    fact = math.factorial
    C = [[Fraction(0)] * (length + 1) for _ in range(length + 1)]
    for l1 in range(length + 1):
        if p == 2:
            C[l1][l1] = rp[0][l1]
        elif p == 3:
            for l2 in range(l1 // 2 + 1):
                mult = fact(l1 - l2) // (fact(l2) * fact(l1 - 2 * l2))
                C[l1][l1 - l2] += (-1) ** l2 * rp[0][l1 - l2] * rp[1][l2] * mult
        elif p == 4:
            for l2 in range((2 * l1) // 3 + 1):
                for l3 in range(max(0, 2 * l2 - l1), l2 // 2 + 1):
                    mult = fact(l1 - l2) // (
                        fact(l3) * fact(l2 - 2 * l3) * fact(l1 + l3 - 2 * l2))
                    C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                       * rp[1][l2 - l3] * rp[2][l3] * mult)
        elif p == 5:
            for l2 in range((3 * l1) // 4 + 1):
                for l3 in range(max(0, 2 * l2 - l1), (2 * l2) // 3 + 1):
                    for l4 in range(max(0, 2 * l3 - l2), l3 // 2 + 1):
                        mult = fact(l1 - l2) // (
                            fact(l4) * fact(l3 - 2 * l4)
                            * fact(l1 + l3 - 2 * l2) * fact(l2 + l4 - 2 * l3))
                        C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                           * rp[1][l2 - l3] * rp[2][l3 - l4]
                                           * rp[3][l4] * mult)
        else:
            for l2 in range((4 * l1) // 5 + 1):
                for l3 in range(max(0, 2 * l2 - l1), (3 * l2) // 4 + 1):
                    for l4 in range(max(0, 2 * l3 - l2), (2 * l3) // 3 + 1):
                        for l5 in range(max(0, 2 * l4 - l3), l4 // 2 + 1):
                            mult = fact(l1 - l2) // (
                                fact(l5) * fact(l4 - 2 * l5)
                                * fact(l1 + l3 - 2 * l2)
                                * fact(l2 + l4 - 2 * l3)
                                * fact(l3 + l5 - 2 * l4))
                            C[l1][l1 - l2] += ((-1) ** l2 * rp[0][l1 - l2]
                                               * rp[1][l2 - l3] * rp[2][l3 - l4]
                                               * rp[3][l4 - l5] * rp[4][l5] * mult)
    return C


def _naive_first_order_fractions(alpha, length):
    a = Fraction(alpha)
    w = [Fraction(1)]
    for j in range(1, length + 1):
        w.append(w[-1] * (1 - (a + 1) / j))
    return w


def naive_closed_form_table(p, alpha, length):
    """Weights w_{p,0} .. w_{p,length} from the nested sums in Fractions."""
    C = _naive_inner_weights(p, length)
    w1 = _naive_first_order_fractions(alpha, length)
    inner = [sum((C[l1][m1] * w1[m1] for m1 in range(l1 + 1)), Fraction(0))
             for l1 in range(length + 1)]
    g0 = float(_G0[p]) ** alpha
    out = np.empty(length + 1)
    for ell in range(length + 1):
        acc = sum((inner[l1] * w1[ell - l1] for l1 in range(ell + 1)), Fraction(0))
        out[ell] = g0 * float(acc)
    return out
