"""Scheme assembly, stepping, built-in problems and convergence behavior."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from naive_reference import NAIVE_STEPS, naive_assembly_matrices
from rieszkit import (
    ProblemSpec,
    SolverError,
    assemble,
    builtin_problem,
    convergence_study,
    expand_generating_function,
    reference_riesz,
    solve,
    step,
)
from rieszkit.solver import _convolution_matrix, _scheme_stencils

LADDER_T6 = [(10, 10), (20, 20), (40, 40), (80, 80)]


def _poly_coeffs(p):
    """Ascending coefficients of x^p (1-x)^p."""
    c = np.zeros(2 * p + 1)
    for k in range(p + 1):
        c[p + k] = (-1) ** k * math.comb(p, k)
    return c


class TestAssemble:
    def test_order4_parameters(self):
        spec = builtin_problem("example2", 0.4)
        mats = assemble("order4", spec, 16, 0.1)
        assert abs(mats.compact_weights[1] - 5 / 6) < 1e-15
        h = 1 / 16
        b2 = -2 * (spec.d2 / h ** 2 + spec.d1 ** 2 / (12 * spec.d2))
        assert abs(mats.operator_weights[1] - b2) < 1e-12

    def test_order6_parameters(self):
        spec = builtin_problem("example3", 0.4)
        mats = assemble("order6", spec, 16, 0.1)
        assert abs(mats.compact_weights[2] - 14 / 15) < 1e-15
        h = 1 / 16
        e3 = 5 * spec.d2 / (2 * h ** 2) + 2 * spec.d1 ** 2 / (15 * spec.d2)
        assert abs(mats.operator_weights[2] + e3) < 1e-12

    def test_positive_fractional_weight(self):
        spec = builtin_problem("example2", 0.5)
        mats = assemble("order2", spec, 16, 0.1)
        assert mats.nu > 0.0

    def test_order4_warns_above_limit(self):
        spec = builtin_problem("example2", 0.9)
        with pytest.warns(UserWarning, match="order4 stability"):
            assemble("order4", spec, 16, 0.1)

    def test_mesh_validation(self):
        spec = builtin_problem("example3", 0.4)
        with pytest.raises(ValueError):
            assemble("order6", spec, 4, 0.1)
        with pytest.raises(ValueError):
            assemble("order2", spec, 3, 0.1)
        with pytest.raises(ValueError):
            assemble("order9", spec, 16, 0.1)

    def test_non_finite_fractional_coefficient(self):
        import dataclasses
        spec = dataclasses.replace(builtin_problem("example2", 0.5),
                                   d_alpha=math.nan)
        with pytest.raises(ValueError, match="nu"):
            assemble("order2", spec, 16, 0.1)


class TestAssemblyOracle:
    @pytest.mark.filterwarnings("ignore:order4 stability:UserWarning")
    @given(scheme=st.sampled_from(["order2", "order4", "order6"]),
           M=st.integers(4, 80),
           alpha=st.floats(0.01, 0.99),
           d1=st.floats(0.01, 50.0),
           d2=st.floats(0.01, 50.0),
           d_alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           tau=st.floats(1e-4, 1.0),
           reflect_right=st.booleans())
    # q = d1 h / d2 = 1 makes the order6 compact weight -(1 - q)/90 = -0.0,
    # and d_alpha = 0 makes nu K hold -0.0 wherever K < 0
    @example(scheme="order6", M=8, alpha=0.4, d1=8.0, d2=1.0, d_alpha=0.0,
             tau=0.05, reflect_right=False)
    def test_matrices_bitwise_equal_entry_loops(self, scheme, M, alpha, d1, d2,
                                                d_alpha, tau, reflect_right):
        assume(scheme != "order6" or M >= 6)
        spec = ProblemSpec(d1=d1, d2=d2, d_alpha=d_alpha, alpha=alpha,
                           a=0.0, b=1.0, T=1.0, source=lambda x, t: x,
                           initial=lambda x: x)
        mats = assemble(scheme, spec, M, tau, reflect_right=reflect_right)
        A, B, S = naive_assembly_matrices(scheme, spec, M, tau, reflect_right)
        assert mats.A.tobytes() == A.tobytes()
        assert mats.B.tobytes() == B.tobytes()
        assert mats.source_matrix.tobytes() == S.tobytes()

    @pytest.mark.parametrize("reflect_right", [True, False])
    def test_order2_convolution_is_two_toeplitz_halves(self, reflect_right):
        # M = 1024 is beyond what the entry loops finish in test time
        M = 1024
        w = expand_generating_function(2, 0.37, M + 2).values
        compact, _ = _scheme_stencils("order2", 1.0, 1.0, 1.0 / M)
        K = _convolution_matrix(M, w, compact, reflect_right)
        T = toeplitz(w[:M - 1], np.zeros(M - 1))
        assert np.array_equal(K, T + T.T)

    @pytest.mark.parametrize("scheme", ["order4", "order6"])
    @pytest.mark.parametrize("reflect_right", [True, False])
    def test_compact_convolution_is_toeplitz_off_the_edge_columns(
            self, scheme, reflect_right):
        M = 1024
        w = expand_generating_function(int(scheme[-1]), 0.37, M + 2).values
        compact, _ = _scheme_stencils(scheme, 2.0, 1.0, 1.0 / M)
        K = _convolution_matrix(M, w, compact, reflect_right)
        if scheme == "order4":
            assert np.array_equal(K[1:, 1:], K[:-1, :-1])
            return
        # offset +2 of the left half misses column 0, and offset -2 of the
        # right half misses column M - 2; every other column is Toeplitz
        inner = K[:, 1:-1]
        assert np.array_equal(inner[1:, 1:], inner[:-1, :-1])
        assert np.all(K[1:, 1] != K[:-1, 0])
        assert np.all(K[:-1, -2] != K[1:, -1])


class TestStepOracle:
    @pytest.mark.parametrize("scheme,problem,M", [("order2", "example2", 12),
                                                  ("order4", "example2", 12),
                                                  ("order6", "example3", 12)])
    @pytest.mark.parametrize("reflect", [True, False])
    def test_one_step_matches_naive_loops(self, scheme, problem, M, reflect):
        alpha, tau = 0.4, 0.05
        spec = builtin_problem(problem, alpha)
        rng = np.random.default_rng(42)
        u0 = rng.standard_normal(M - 1)
        mats = assemble(scheme, spec, M, tau, reflect_right=reflect)
        got = step(mats, u0, spec.source(mats.source_x, 0.5 * tau))
        ref = NAIVE_STEPS[scheme](spec, M, tau, u0, 0.5 * tau,
                                  reflect_right=reflect)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_zero_state_zero_source_stays_zero(self):
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0,
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.zeros_like(x))
        mats = assemble("order2", spec, 16, 0.1)
        out = step(mats, np.zeros(15), np.zeros(17))
        assert np.array_equal(out, np.zeros(15))

    def test_factorization_reuse_is_deterministic(self):
        spec = builtin_problem("example2", 0.3)
        M, tau = 20, 0.05
        mats = assemble("order2", spec, M, tau)
        x = spec.a + mats.h * np.arange(M + 1)
        u = spec.initial(x)[1:M]
        v = u.copy()
        for k in range(10):
            s = spec.source(x, (k + 0.5) * tau)
            u = step(mats, u, s)
            v = np.linalg.solve(mats.A, mats.B @ v + mats.source_matrix @ s)
        assert np.max(np.abs(u - v)) < 1e-13

    def test_repeated_solve_identical(self):
        spec = builtin_problem("example3", 0.4)
        g1 = solve("order6", spec, 8, 8)
        g2 = solve("order6", spec, 8, 8)
        assert np.array_equal(g1.values, g2.values)


class TestBuiltinProblems:
    def test_example2_initial_consistency(self):
        spec = builtin_problem("example2", 0.4)
        x = np.linspace(0, 1, 11)
        assert np.allclose(spec.exact(x, 0.0), spec.initial(x), atol=1e-15)

    def test_example3_starts_from_zero(self):
        spec = builtin_problem("example3", 0.4)
        x = np.linspace(0, 1, 11)
        assert np.allclose(spec.exact(x, 0.0), 0.0, atol=1e-15)
        assert np.allclose(spec.initial(x), 0.0, atol=1e-15)

    @pytest.mark.parametrize("name,profile_order", [("example2", 6),
                                                    ("example3", 8)])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7])
    def test_source_satisfies_equation(self, name, profile_order, alpha):
        # residual oracle: insert the manufactured solution into the
        # equation with all terms evaluated analytically
        spec = builtin_problem(name, alpha)
        p = profile_order
        c0 = _poly_coeffs(p)
        c1 = np.polynomial.polynomial.polyder(c0)
        c2 = np.polynomial.polynomial.polyder(c1)
        xs = np.array([0.15, 0.4, 0.55, 0.8])
        for t in (0.2, 0.9):
            if name == "example2":
                amp, damp = math.exp(t), math.exp(t)
            else:
                amp, damp = math.sin(t), math.cos(t)
            g = np.polynomial.polynomial.polyval(xs, c0)
            gx = np.polynomial.polynomial.polyval(xs, c1)
            gxx = np.polynomial.polynomial.polyval(xs, c2)
            riesz = np.array([reference_riesz(p, alpha, x) for x in xs])
            resid = (damp * g + spec.d1 * amp * gx - spec.d2 * amp * gxx
                     - spec.d_alpha * amp * riesz - spec.source(xs, t))
            assert np.max(np.abs(resid)) < 1e-9

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            builtin_problem("example9", 0.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            builtin_problem("example2", 1.2)


class TestSolve:
    def test_reference_value_order2(self):
        grid = solve("order2", builtin_problem("example2", 0.2), 10, 10)
        assert abs(grid.max_error - 2.581219e-5) / 2.581219e-5 < 1e-5

    def test_reference_value_order4(self):
        grid = solve("order4", builtin_problem("example2", 0.2), 8, 16)
        assert abs(grid.max_error - 4.361384e-6) / 4.361384e-6 < 1e-5

    def test_boundary_columns_zero(self):
        grid = solve("order2", builtin_problem("example2", 0.5), 16, 8)
        assert np.array_equal(grid.values[:, 0], np.zeros(9))
        assert np.array_equal(grid.values[:, 16], np.zeros(9))

    def test_first_row_is_initial_data(self):
        spec = builtin_problem("example2", 0.5)
        grid = solve("order2", spec, 16, 4)
        x = np.linspace(0, 1, 17)
        assert np.allclose(grid.values[0], spec.initial(x), atol=1e-16)

    def test_classical_advection_diffusion_reduction(self):
        # d_alpha = 0 must agree with an independently written textbook
        # Crank-Nicolson advection-diffusion march
        alpha, M, N = 0.5, 20, 20
        tau, h = 1.0 / N, 1.0 / M

        def source(x, t):
            x = np.asarray(x, dtype=float)
            return (np.exp(t) * x ** 4 * (1 - x) ** 4
                    * (x ** 4 + 10 * x ** 3 - 149 * x ** 2 + 138 * x - 30))

        spec = ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=0.0, alpha=alpha, a=0.0, b=1.0, T=1.0,
            source=source,
            initial=lambda x: np.asarray(x) ** 6 * (1 - np.asarray(x)) ** 6,
            exact=lambda x, t: math.exp(t) * np.asarray(x) ** 6 * (1 - np.asarray(x)) ** 6)
        grid = solve("order2", spec, M, N)

        n = M - 1
        L = np.zeros((n, n))
        for j in range(n):
            L[j, j] = -2.0 / h ** 2
            if j > 0:
                L[j, j - 1] = 1.0 / h ** 2 + 1.0 / (2 * h)
            if j < n - 1:
                L[j, j + 1] = 1.0 / h ** 2 - 1.0 / (2 * h)
        x = np.linspace(0, 1, M + 1)
        u = spec.initial(x)[1:M]
        eye = np.eye(n)
        for k in range(N):
            rhs = (eye / tau + L / 2) @ u + source(x[1:M], (k + 0.5) * tau)
            u = np.linalg.solve(eye / tau - L / 2, rhs)
        assert np.max(np.abs(grid.values[N, 1:M] - u)) < 1e-11

    def test_nan_source_raises(self):
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0,
                           source=lambda x, t: np.full_like(x, np.nan),
                           initial=lambda x: np.zeros_like(x))
        with pytest.raises(SolverError, match="order2"):
            solve("order2", spec, 8, 4)

    def test_interior_blow_up_stops_at_its_step(self):
        # lu_solve rejects a non-finite right-hand side, so an interior inf
        # at step 3 ends the march there instead of after all N steps; with
        # every warning an error, SolverError is still what escapes
        calls = []

        def source(x, t):
            calls.append(t)
            s = np.zeros_like(x)
            if len(calls) == 3:
                s[len(x) // 2] = np.inf
            return s

        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=lambda x: np.zeros_like(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="order2"):
                solve("order2", spec, 8, 4096)
        assert len(calls) == 3


class TestConvergenceStudy:
    def test_reference_orders_order2(self):
        rep = convergence_study("order2", "example2", 0.5, LADDER_T6)
        t_orders = [r.temporal_order for r in rep.rows[1:]]
        for got, ref in zip(t_orders, [2.0370, 2.0041, 1.9876]):
            assert abs(got - ref) < 2e-3
        s_orders = [r.spatial_order for r in rep.rows[1:]]
        assert np.allclose(t_orders, s_orders, atol=1e-12)

    def test_single_rung_has_no_orders(self):
        rep = convergence_study("order2", "example2", 0.5, [(10, 10)])
        assert rep.rows[0].temporal_order is None
        assert rep.rows[0].spatial_order is None

    def test_decoupled_ladder_orders(self):
        rep = convergence_study("order4", "example2", 0.3,
                                [(4, 4), (8, 16)])
        row = rep.rows[1]
        assert abs(row.spatial_order - 2 * row.temporal_order) < 1e-12

    def test_alpha_mismatch_rejected(self):
        spec = builtin_problem("example2", 0.4)
        with pytest.raises(ValueError):
            convergence_study("order2", spec, 0.5, [(10, 10)])

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_study("order2", "example2", 0.5, [])


class TestManufacturedResidual:
    @staticmethod
    def _residual(scheme, problem, alpha, M, tau, rows=slice(1, -1),
                  reflect=False):
        spec = builtin_problem(problem, alpha)
        mats = assemble(scheme, spec, M, tau, reflect_right=reflect)
        x = spec.a + mats.h * np.arange(M + 1)
        t0 = 0.25
        u0 = spec.exact(x, t0)
        u1 = spec.exact(x, t0 + tau)
        r = (mats.A @ u1[1:M] - mats.B @ u0[1:M]
             - mats.source_matrix @ spec.source(mats.source_x, t0 + tau / 2))
        return float(np.max(np.abs(r[rows])))

    @pytest.mark.parametrize("scheme,problem,meshes,tau_of,factor", [
        ("order2", "example2", (16, 32, 64), lambda M: 1.0 / M, 4.0),
        ("order4", "example2", (32, 64, 128), lambda M: 1.0 / M ** 2, 16.0),
        ("order6", "example3", (32, 64, 128), lambda M: 1.0 / M ** 3, 64.0),
    ])
    def test_refinement_ratio(self, scheme, problem, meshes, tau_of, factor):
        res = [self._residual(scheme, problem, 0.4, M, tau_of(M))
               for M in meshes]
        for r0, r1 in zip(res, res[1:]):
            assert abs(r0 / r1 - factor) < 0.2 * factor

    @pytest.mark.parametrize("reflect", [True, False])
    def test_order6_boundary_rows_converge(self, reflect):
        # rows 1 and M-1 reach the ghost nodes a - h and b + h; a source
        # that is dropped or inconsistent there stalls their residual
        res = [self._residual("order6", "example3", 0.4, M, 1.0 / M ** 3,
                              rows=[0, -1], reflect=reflect)
               for M in (32, 64, 128)]
        for r0, r1 in zip(res, res[1:]):
            assert r0 / r1 >= 16.0


class TestGhostNodes:
    def test_order6_samples_source_at_ghost_nodes(self):
        spec = builtin_problem("example3", 0.4)
        mats = assemble("order6", spec, 16, 0.1)
        assert mats.source_matrix.shape == (15, 19)
        assert np.allclose(mats.source_x, np.arange(-1, 18) / 16,
                           rtol=0.0, atol=1e-15)
        for scheme in ("order2", "order4"):
            mats = assemble(scheme, spec, 16, 0.1)
            assert mats.source_matrix.shape == (15, 17)
            assert np.array_equal(mats.source_x, mats.h * np.arange(17))

    @pytest.mark.parametrize("name,n", [("example2", 6), ("example3", 8)])
    def test_builtin_ghost_source_is_fractional_term(self, name, n):
        # outside [0, 1] only the right-sided (left-sided) fractional term
        # of the profile survives at a - h (b + h)
        alpha, h, t = 0.3, 1.0 / 8, 0.6
        spec = builtin_problem(name, alpha)
        terms = [(-1) ** k * math.comb(n, k) * math.gamma(n + 1 + k)
                 / math.gamma(n + 1 + k - alpha) * (1 + h) ** (n + k - alpha)
                 for k in range(n + 1)]
        amp = math.exp(t) if name == "example2" else alpha ** 2 * math.sin(t)
        scale = 0.5 * amp / math.cos(math.pi * alpha / 2)
        expected = scale * math.fsum(terms)
        # the alternating sum cancels; allow rounding of its largest term
        tol = 1e-14 * scale * sum(abs(c) for c in terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spec.source(np.array([-h, 0.5, 1 + h]), t)
        assert abs(got[0] - expected) <= tol
        assert abs(got[2] - got[0]) <= tol
        assert abs(expected) > 1e3 * tol

    def test_non_finite_ghost_source_raises(self):
        def source(x, t):
            return np.where((x < 0) | (x > 1), np.nan, 0.0)

        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=lambda x: np.zeros_like(x))
        assert np.array_equal(solve("order4", spec, 8, 2).values,
                              np.zeros((3, 9)))
        with pytest.raises(SolverError, match="order6"):
            solve("order6", spec, 8, 2)
