"""Scheme assembly, stepping, built-in problems and convergence behavior."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.linalg import lu_factor, toeplitz
from scipy.linalg.lapack import dgetrs

from naive_reference import (
    NAIVE_SCHEMES,
    NAIVE_STEPS,
    naive_assembly_matrices,
    naive_builtin_problem,
    naive_scheme,
)
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
from rieszkit import solver as solver_module
from rieszkit.reports import convergence_rows
from rieszkit.schemes import (SCHEMES, check_step, fractional_coefficient,
                              stencils)

LADDER_T6 = [(10, 10), (20, 20), (40, 40), (80, 80)]
# powers of ten over the double range, subnormals included
_LOG_UNIFORM = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


def _zero_problem():
    return ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5, a=0.0, b=1.0,
                       T=1.0, source=lambda x, t: np.zeros_like(x),
                       initial=np.ones_like)


def _poly_coeffs(p):
    """Ascending coefficients of x^p (1-x)^p."""
    c = np.zeros(2 * p + 1)
    for k in range(p + 1):
        c[p + k] = (-1) ** k * math.comb(p, k)
    return c


class TestAssemble:
    def test_order4_parameters(self):
        spec = builtin_problem("example2", 0.4)
        h = 1 / 16
        compact, operator = stencils("order4", spec.d1, spec.d2, h)
        assert abs(dict(compact)[0] - 5 / 6) < 1e-15
        b2 = -2 * (spec.d2 / h ** 2 + spec.d1 ** 2 / (12 * spec.d2))
        assert abs(dict(operator)[0] - b2) < 1e-12

    def test_order6_parameters(self):
        spec = builtin_problem("example3", 0.4)
        h = 1 / 16
        compact, operator = stencils("order6", spec.d1, spec.d2, h)
        assert abs(dict(compact)[0] - 14 / 15) < 1e-15
        e3 = 5 * spec.d2 / (2 * h ** 2) + 2 * spec.d1 ** 2 / (15 * spec.d2)
        assert abs(dict(operator)[0] + e3) < 1e-12

    def test_positive_fractional_weight(self):
        spec = builtin_problem("example2", 0.5)
        mats = assemble("order2", spec, 16, 0.1)
        assert fractional_coefficient(spec.d_alpha, spec.alpha, mats.h) > 0.0

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

    @pytest.mark.parametrize("a, b", [
        (-1e308, 1e308),  # b - a overflows: h = inf
        (0.0, 5e-324),  # h underflows to 0
        (0.0, 1e-170),  # h**2 underflows to 0
        (0.0, 4e160),  # h**2 overflows
    ], ids=["h-inf", "h-zero", "h-squared-zero", "h-squared-inf"])
    def test_mesh_width_out_of_range(self, a, b):
        spec = dataclasses.replace(_zero_problem(), a=a, b=b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mesh width h = "):
                solve("order2", spec, 4, 2)

    def test_non_finite_fractional_coefficient(self):
        # ProblemSpec rejects a non-finite d_alpha before assemble could
        # form a nan nu from it
        with pytest.raises(ValueError, match="d_alpha"):
            dataclasses.replace(builtin_problem("example2", 0.5),
                                d_alpha=math.nan)

    @pytest.mark.parametrize("scheme, changes", [
        ("order4", {"d1": 1e200}),  # d1**2 overflows
        ("order4", {"d2": 1e-310}),  # d1**2 / d2 overflows
        ("order6", {"d2": 1e-310}),  # q = d1 h / d2 overflows
        ("order2", {"d_alpha": 1e308, "alpha": 0.9}),  # nu overflows
        ("order2", {"T": 1e-310}),  # 2 / tau overflows at N = 1
    ], ids=["huge-d1", "tiny-d2-order4", "tiny-d2-order6", "huge-nu",
            "tiny-tau"])
    def test_stencil_inputs_out_of_range(self, scheme, changes):
        # finite inputs whose stencil weights, nu or 2/tau overflow; unchecked
        # they end in an OverflowError traceback, NumPy warnings or a
        # misleading "singular system"
        spec = dataclasses.replace(_zero_problem(), **changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                solve(scheme, spec, 8, 1)

    @given(scheme=st.sampled_from(SCHEMES), alpha=st.floats(0.01, 0.99),
           h=_LOG_UNIFORM, tau=_LOG_UNIFORM, d1=_LOG_UNIFORM, d2=_LOG_UNIFORM,
           d_alpha=st.one_of(st.just(0.0), _LOG_UNIFORM))
    def test_domain_agrees_with_stability(self, scheme, alpha, h, tau, d1, d2,
                                          d_alpha):
        # one parameter domain: a step that check_step, the domain of the
        # stability scan, rejects, assemble rejects too, and no input ends
        # in an arithmetic exception
        M = 8
        assume(h * M < math.inf)
        spec = dataclasses.replace(_zero_problem(), d1=d1, d2=d2,
                                   d_alpha=d_alpha, alpha=alpha, b=h * M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                check_step(scheme, alpha, spec.b / M, tau, d1, d2, d_alpha)
                rejected = False
            except ValueError:
                rejected = True
            try:
                assemble(scheme, spec, M, tau)
                outcome = None
            except Exception as exc:  # a warning, SolverError or ValueError
                outcome = exc
        assert not isinstance(outcome, (OverflowError, ZeroDivisionError))
        if rejected:
            assert isinstance(outcome, ValueError), outcome

    def test_zero_pivot_is_singular(self, monkeypatch):
        # lu_factor only warns about an exactly zero pivot, so assemble
        # checks the factor's diagonal itself; the fake takes assemble's
        # keywords, so the error comes from that check, not from the call
        calls = []

        def zero_pivot(A, **kwargs):
            calls.append(kwargs)
            lu = np.triu(A)
            lu[3, 3] = 0.0
            return lu, np.arange(len(A), dtype=np.int32)

        monkeypatch.setattr(solver_module, "lu_factor", zero_pivot)
        with pytest.raises(SolverError, match="singular system") as info:
            assemble("order2", builtin_problem("example2", 0.5), 16, 0.1)
        assert len(calls) == 1
        assert info.value.__cause__ is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scheme", ["order2", "order6"])
    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_non_finite_matrix_is_singular(self, scheme, alpha):
        # nu = 0.9 DBL_MAX passes the step check, but nu K overflows; A is
        # factored without lu_factor's finite check, so assemble's own
        # check of A's generating data must report it
        M = 16
        d_alpha = (0.9 * 2.0 * math.cos(math.pi * alpha / 2.0) * (1.0 / M) ** alpha
                   * sys.float_info.max)
        spec = dataclasses.replace(_zero_problem(), alpha=alpha, d_alpha=d_alpha)
        with pytest.raises(SolverError, match="singular system"):
            assemble(scheme, spec, M, 0.1)

    @pytest.mark.parametrize("scheme", ["order6", "order2"])
    def test_no_scratch_matrix(self, scheme):
        # assemble returns B, the LU factor and S, three (M-1)^2 matrices,
        # and A as its O(M) generating data; it builds them without a
        # further (M-1)^2 buffer, since A is factored in place
        M, matrix = 513, 8 * 512 ** 2
        spec = builtin_problem("example3", 0.4)
        assemble(scheme, spec, M, 0.01)  # warm-up
        tracemalloc.start()
        try:
            mats = assemble(scheme, spec, M, 0.01)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= 3 * matrix, "tracemalloc misses the returned matrices"
        assert held <= 3.1 * matrix, held / matrix
        assert peak - held <= 0.1 * matrix, (peak - held) / matrix
        assert mats.A.shape == (M - 1, M - 1)


class TestAssemblyOracle:
    @pytest.mark.filterwarnings("ignore:order4 stability:UserWarning")
    @given(scheme=st.sampled_from(sorted(NAIVE_SCHEMES)),
           M=st.integers(4, 80),
           alpha=st.floats(0.01, 0.99),
           d1=st.floats(0.01, 50.0),
           d2=st.floats(0.01, 50.0),
           d_alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           tau=st.floats(1e-4, 1.0))
    # q = d1 h / d2 = 1 makes the order6 compact weight -(1 - q)/90 = -0.0,
    # and d_alpha = 0 makes nu K hold -0.0 wherever K < 0
    @example(scheme="order6-consistent", M=8, alpha=0.4, d1=8.0, d2=1.0,
             d_alpha=0.0, tau=0.05)
    # the smallest meshes, where the edge columns carry band entries
    @example(scheme="order2", M=4, alpha=0.4, d1=2.0, d2=1.0, d_alpha=1.0,
             tau=0.05)
    @example(scheme="order4", M=4, alpha=0.4, d1=2.0, d2=1.0, d_alpha=1.0,
             tau=0.05)
    @example(scheme="order6", M=6, alpha=0.4, d1=2.0, d2=1.0, d_alpha=1.0,
             tau=0.05)
    @example(scheme="order6", M=7, alpha=0.4, d1=2.0, d2=1.0, d_alpha=1.0,
             tau=0.05)
    @example(scheme="order6-consistent", M=6, alpha=0.4, d1=2.0, d2=1.0,
             d_alpha=1.0, tau=0.05)
    @example(scheme="order6-consistent", M=7, alpha=0.4, d1=2.0, d2=1.0,
             d_alpha=1.0, tau=0.05)
    def test_matrices_bitwise_equal_entry_loops(self, scheme, M, alpha, d1, d2,
                                                d_alpha, tau):
        assume(NAIVE_SCHEMES[scheme][0] != "order6" or M >= 6)
        spec = ProblemSpec(d1=d1, d2=d2, d_alpha=d_alpha, alpha=alpha,
                           a=0.0, b=1.0, T=1.0, source=lambda x, t: x,
                           initial=lambda x: x)
        mats = assemble(scheme, spec, M, tau)
        A, B, S = naive_assembly_matrices(scheme, spec, M, tau)
        assert mats.A.tobytes() == A.tobytes()
        assert mats.B.tobytes() == B.tobytes()
        assert mats.source_matrix.tobytes() == S.tobytes()

    @pytest.mark.filterwarnings("ignore:order4 stability:UserWarning")
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("M", [8, 17, 65])
    def test_factor_in_place_bitwise_equal_lu_factor(self, scheme, M):
        # the factor of A filled in Fortran order and factored in place is
        # the factor of the dense A, which equals the entry loops
        spec = builtin_problem("example3", 0.37)
        mats = assemble(scheme, spec, M, 1.0 / M)
        A, _, _ = naive_assembly_matrices(scheme, spec, M, 1.0 / M)
        assert mats.A.tobytes() == A.tobytes()
        lu, piv = lu_factor(A)
        assert mats.lu[0].tobytes() == lu.tobytes()
        assert mats.lu[1].tobytes() == piv.tobytes()

    def test_oracle_names_every_scheme(self):
        assert sorted(NAIVE_SCHEMES) == sorted(SCHEMES)

    @staticmethod
    def _large_system(scheme, reflect_right, d1):
        # M = 1024 is beyond what the entry loops finish in test time
        spec = ProblemSpec(d1=d1, d2=1.0, d_alpha=1.0, alpha=0.37, a=0.0,
                           b=1.0, T=1.0, source=lambda x, t: x,
                           initial=lambda x: x)
        return assemble(naive_scheme(scheme, reflect_right), spec, 1024, 0.01)

    @pytest.mark.parametrize("reflect_right", [True, False])
    def test_order2_convolution_is_two_toeplitz_halves(self, reflect_right):
        # A = (2/tau) I - D + nu K and B = (2/tau) I + D - nu K, with
        # K = T + T^T for the lower-triangular Toeplitz T of the weights
        M, tau = 1024, 0.01
        mats = self._large_system("order2", reflect_right, 1.0)
        w = expand_generating_function(2, 0.37, M + 2).values
        T = toeplitz(w[:M - 1], np.zeros(M - 1))
        _, operator = stencils("order2", 1.0, 1.0, 1.0 / M)
        D = sum(c * np.eye(M - 1, k=off) for off, c in operator)
        nu = fractional_coefficient(1.0, 0.37, mats.h)  # _large_system's spec
        sC, nuK = (2.0 / tau) * np.eye(M - 1), nu * (T + T.T)
        assert np.array_equal(mats.A, sC - D + nuK)
        assert np.array_equal(mats.B, sC + D - nuK)

    @pytest.mark.parametrize("scheme", ["order4", "order6"])
    @pytest.mark.parametrize("reflect_right", [True, False])
    def test_compact_convolution_is_toeplitz_off_the_edge_columns(
            self, scheme, reflect_right):
        # C and D are Toeplitz bands, so A = (2/tau) C - D + nu K and
        # B = (2/tau) C + D - nu K have the structure of K
        mats = self._large_system(scheme, reflect_right, 2.0)
        for X in (mats.A, mats.B):
            if scheme == "order4":
                assert np.array_equal(X[1:, 1:], X[:-1, :-1])
                continue
            # offset +2 of the left half misses column 0, and offset -2 of
            # the right half misses column M - 2; every other column is
            # Toeplitz
            inner = X[:, 1:-1]
            assert np.array_equal(inner[1:, 1:], inner[:-1, :-1])
            assert np.all(X[1:, 1] != X[:-1, 0])
            assert np.all(X[:-1, -2] != X[1:, -1])


class TestProblemSpec:
    @pytest.mark.parametrize("field", ["a", "b", "T", "d1", "d2", "d_alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        # unchecked, a nan d1 or an inf d2 or d_alpha would end as a
        # "singular system", and T = inf as a non-finite end-node source
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(builtin_problem("example3", 0.4), **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("b", 0.0, "domain requires b > a"),
        ("b", -1.0, "domain requires b > a"),
        ("T", 0.0, "horizon must be positive"),
        ("T", -1.0, "horizon must be positive"),
    ])
    def test_empty_domain_or_horizon_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(builtin_problem("example3", 0.4), **{field: value})


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
        name = naive_scheme(scheme, reflect)
        mats = assemble(name, spec, M, tau)
        got = step(mats, u0, spec.source(mats.source_x, 0.5 * tau))
        ref = NAIVE_STEPS[name](spec, M, tau, u0, 0.5 * tau)
        assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("layout", ["array", "strided", "list"])
    def test_step_leaves_its_inputs_alone(self, layout):
        # the level is marched in place, in a buffer of step's own: the
        # caller's state and samples keep their values, and the new level
        # shares no memory with them
        spec = builtin_problem("example3", 0.4)
        M = 12
        mats = assemble("order6", spec, M, 0.05)
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal(M - 1)
        s0 = spec.source(mats.source_x, 0.025)
        expected = step(mats, u0.copy(), s0.copy())
        if layout == "strided":
            base = np.zeros(2 * (M - 1))
            base[::2] = u0
            u, s_half = base[::2], s0.copy()
        elif layout == "list":
            u, s_half = u0.tolist(), s0.tolist()
        else:
            u, s_half = u0.copy(), s0.copy()
        got = step(mats, u, s_half)
        assert np.asarray(u).tobytes() == u0.tobytes()
        assert np.asarray(s_half).tobytes() == s0.tobytes()
        if layout == "strided":
            assert base[1::2].tobytes() == np.zeros(M - 1).tobytes()
        if layout != "list":
            assert not np.shares_memory(got, u)
            assert not np.shares_memory(got, s_half)
        assert got.tobytes() == expected.tobytes()

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
        assert g1.final.tobytes() == g2.final.tobytes()
        assert g1.max_error == g2.max_error

    def test_nan_state_raises(self):
        spec = builtin_problem("example2", 0.4)
        mats = assemble("order4", spec, 12, 0.05)
        u = np.zeros(11)
        u[4] = np.nan
        with pytest.raises(SolverError, match="non-finite data in scheme=order4"):
            step(mats, u, spec.source(mats.source_x, 0.025))

    def test_inf_sample_ends_in_solver_error_alone(self):
        # inf * 0 in the source product makes nan; the finiteness check
        # reports it, not a NumPy warning
        spec = builtin_problem("example2", 0.4)
        mats = assemble("order2", spec, 12, 0.05)
        s = np.zeros(13)
        s[5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="non-finite data in scheme=order2"):
                step(mats, np.zeros(11), s)

    def test_getrs_failure_raises(self, monkeypatch):
        spec = builtin_problem("example2", 0.4)
        mats = assemble("order2", spec, 12, 0.05)
        monkeypatch.setattr(solver_module, "dgetrs",
                            lambda lu, piv, b, *flags: (b, -3))
        with pytest.raises(SolverError, match="info=-3"):
            step(mats, np.zeros(11), np.zeros(13))
        # solve looks dgetrs up when it is called, so it fails the same way
        with pytest.raises(SolverError, match="info=-3"):
            solve("order2", spec, 12, 20)

    @pytest.mark.parametrize("scheme,M,N", [("order2", 8, 300),
                                            ("order6", 16, 40)])
    def test_getrs_solves_the_block_row_in_place(self, monkeypatch,
                                                 scheme, M, N):
        # solve keeps each level in the row that getrs overwrites; a copy
        # would leave the right-hand sides in the block and skew max_error
        calls = []

        def in_place_getrs(lu, piv, b, *flags):
            x, info = dgetrs(lu, piv, b, *flags)
            calls.append(np.shares_memory(x, b))
            return x, info

        monkeypatch.setattr(solver_module, "dgetrs", in_place_getrs)
        solve(scheme, builtin_problem("example3", 0.37), M, N)
        assert calls == [True] * N


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

    @given(name=st.sampled_from(["example2", "example3"]),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           meshes=st.lists(st.integers(4, 384), min_size=2, max_size=2),
           ts=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6))
    def test_closures_bitwise_equal_full_closed_form(self, name, alpha,
                                                     meshes, ts):
        # the order6 source nodes (with ghosts) and the interior nodes of
        # two meshes alternate with the mirrored first node array, which has
        # the same shape, so a value kept from an earlier node array would
        # show; each returned array is overwritten before the next call
        spec = builtin_problem(name, alpha)
        naive_source, naive_exact = naive_builtin_problem(name, alpha)
        nodes = []
        for M in meshes:
            h = 1.0 / M
            nodes.append(h * np.arange(-1, M + 2))
            nodes.append((h * np.arange(M + 1))[1:M])
        nodes.append(1.0 - nodes[0])
        order = [0, 1, 2, 1, 0, 0, 4, 3, 2, 4, 0]
        for i, k in enumerate(order):
            x, t = nodes[k], ts[i % len(ts)]
            for got, want in ((spec.source(x, t), naive_source(x, t)),
                              (spec.exact(x, t), naive_exact(x, t))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                got.fill(np.nan)

    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_column_of_times_bitwise_equal_scalar_calls(self, name):
        # solve passes a column of times; each row must be bitwise the
        # naive closed form at that one time (np.exp rounds differently
        # from math.exp on some of these times)
        spec = builtin_problem(name, 0.37)
        naive_source, naive_exact = naive_builtin_problem(name, 0.37)
        ts = (np.arange(1000) + 0.5) / 1000
        x = np.arange(-1, 18) / 16
        for got, naive in ((spec.source(x, ts[:, None]), naive_source),
                           (spec.exact(x, ts[:, None]), naive_exact)):
            assert got.shape == (len(ts), len(x))
            for row, t in zip(got, ts):
                assert row.tobytes() == naive(x, t).tobytes()

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
        # only the final level is kept; its boundary nodes are zero even
        # where the initial data is not
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0,
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.ones_like(x))
        grid = solve("order2", spec, 16, 8)
        assert grid.final.shape == (17,)
        assert grid.final[0] == 0.0 and grid.final[16] == 0.0
        assert np.all(grid.final[1:16] != 0.0)

    @pytest.mark.parametrize("M, N, name", [
        (4.5, 4, "M"), (16, 4.5, "N"), (True, 4, "M"), (16, True, "N"),
        (np.float64(16.0), 4, "M"), (3, 4, "M"), (4097, 4, "M"),
        (16, 0, "N"), (16, 10**6 + 1, "N"), (4096, 239, "N"),
        (2049, 10**6, "N"), (4096, 10**6, "N")])
    def test_counts_must_be_integers(self, M, N, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            solve("order2", builtin_problem("example2", 0.5), M, N)

    @pytest.mark.parametrize("M, N", [(4096, 238), (64, 10**6)])
    def test_work_bound_admits(self, monkeypatch, M, N):
        # N (M - 1)**2 up to 4e9 passes the count checks and reaches assembly
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(solver_module, "assemble", reached)
        with pytest.raises(Reached):
            solve("order2", builtin_problem("example2", 0.5), M, N)

    def test_numpy_integer_counts_accepted(self):
        spec = builtin_problem("example2", 0.5)
        got = solve("order2", spec, np.int64(16), np.int32(4))
        assert got.final.tobytes() == solve("order2", spec, 16, 4).final.tobytes()

    @pytest.mark.parametrize("u_size, s_size, name", [
        (3, 17, "u"), (16, 17, "u"), (15, 15, "s_half"), (15, 18, "s_half")])
    def test_step_lengths_checked(self, u_size, s_size, name):
        mats = assemble("order2", builtin_problem("example2", 0.5), 16, 0.1)
        with pytest.raises(ValueError, match=f"{name} must have length"):
            step(mats, np.zeros(u_size), np.zeros(s_size))

    def test_first_row_is_initial_data(self):
        # the march starts from the initial data: one step of solve is one
        # step from its interior values
        spec = builtin_problem("example2", 0.5)
        grid = solve("order2", spec, 16, 1)
        mats = assemble("order2", spec, 16, 1.0)
        x = np.linspace(0, 1, 17)
        u1 = step(mats, spec.initial(x)[1:16], spec.source(mats.source_x, 0.5))
        assert grid.final[1:16].tobytes() == u1.tobytes()

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
            exact=lambda x, t: np.exp(t) * np.asarray(x) ** 6 * (1 - np.asarray(x)) ** 6)
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
        assert np.max(np.abs(grid.final[1:M] - u)) < 1e-11

    @pytest.mark.parametrize("scheme,problem,M,blocks,extra", [
        pytest.param(scheme, problem, M, blocks, extra,
                     id=f"{blocks}-{extra}-{scheme}-{problem}-{M}")
        for blocks, extra in [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]
        for scheme, problem, M in [("order2", "example2", 8),
                                   ("order4", "example2", 8),
                                   ("order6", "example3", 8)]
    ] + [
        # the mesh sizes of the benchmark's march and large solves
        pytest.param("order6", "example3", 64, 2, 3,
                     id="2-3-order6-example3-64"),
        pytest.param("order6", "example3", 384, 0, 16,
                     id="0-16-order6-example3-384"),
    ])
    def test_blocks_match_a_per_level_march(self, scheme, problem, M,
                                            blocks, extra):
        # N on both sides of the block boundaries: a march of step calls
        # fed by the naive closures at each scalar t gives the same final
        # level and errors, bit for bit, so the batched source product and
        # the per-level loop of solve are bitwise step's products
        N = blocks * solver_module._BLOCK + extra
        alpha = 0.37
        grid = solve(scheme, builtin_problem(problem, alpha), M, N)
        spec = builtin_problem(problem, alpha)
        source, exact = naive_builtin_problem(problem, alpha)
        tau = spec.T / N
        mats = assemble(scheme, spec, M, tau)
        x = spec.a + mats.h * np.arange(M + 1)
        u = spec.initial(x)[1:M]
        worst = 0.0
        for k in range(N):
            u = step(mats, u, source(mats.source_x, (k + 0.5) * tau))
            worst = max(worst, float(np.abs(u - exact(x[1:M], (k + 1) * tau)).max()))
        assert grid.final[1:M].tobytes() == u.tobytes()
        assert grid.max_error == worst
        assert grid.final_error == float(np.abs(u - exact(x[1:M], spec.T)).max())

    def test_nan_source_raises(self):
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0,
                           source=lambda x, t: np.full_like(x, np.nan),
                           initial=lambda x: np.zeros_like(x))
        with pytest.raises(SolverError, match="order2"):
            solve("order2", spec, 8, 4)

    def test_end_node_error_names_first_bad_time(self):
        # the end-node samples of a whole block are checked at once; the
        # error still names the first level whose sample is not finite
        def source(x, t):
            return np.where(np.asarray(t) >= 0.5, np.nan, 0.0) + 0.0 * x

        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=lambda x: np.zeros_like(x))
        with pytest.raises(SolverError, match=r"end node .* t=0\.5005$"):
            solve("order2", spec, 8, 1000)

    def test_interior_fault_before_a_bad_end_node_is_named_first(self):
        # the source term overflows at t = 0.3125 and the sample at x = 0 is
        # nan from t = 0.6875, in one block: the earlier fault is named
        def source(x, t):
            t = np.asarray(t)
            return np.where((x == 0.0) & (t >= 0.6875), np.nan,
                            np.where((0.0 < x) & (x < 1.0) & (t >= 0.3125),
                                     1e308, 0.0))

        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=np.zeros_like)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=r"^non-finite data in scheme=order2, M=8, "
                                     r"tau=0\.125, t=0\.3125$"):
                solve("order2", spec, 8, 8)

    @pytest.mark.parametrize("T, N, time", [(1e300, 4, r"1\.25e\+299"),
                                             (2000.0, 8, "875")],
                             ids=["T=1e300", "T=2000"])
    def test_source_past_double_range_names_its_time(self, T, N, time):
        # math.exp(t) overflows from t = 709.78: the example2 source raised a
        # bare OverflowError; it is inf now, refused at the first such time
        spec = dataclasses.replace(builtin_problem("example2", 0.5), T=T)
        with pytest.raises(SolverError, match=rf"end node .* t={time}$"):
            solve("order2", spec, 16, N)

    def test_nan_exact_level_makes_max_error_nan(self):
        # a nan in the exact solution at one level leaves the all-level
        # error undefined; it is not dropped from the maximum
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0,
                           source=lambda x, t: np.zeros_like(x),
                           initial=lambda x: np.zeros_like(x),
                           exact=lambda x, t: np.where(np.asarray(t) == 0.5,
                                                       np.nan, 1.0) + 0.0 * x)
        grid = solve("order2", spec, 8, 4)
        assert math.isnan(grid.max_error)
        assert grid.final_error == 1.0

    def test_interior_blow_up_stops_at_its_step(self, monkeypatch):
        # an interior inf at the third time level makes that level's
        # source term non-finite, so the march solves two levels and stops
        # there instead of after all N steps; with every warning an error,
        # SolverError naming the level's half-step time is what escapes
        N = 4096
        t3 = 2.5 / N

        def source(x, t):
            s = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))
            s[np.broadcast_to(t, s.shape) == t3] = np.inf
            s[..., [0, -1]] = 0.0
            return s

        solves = []

        def counting_getrs(*args, **kwargs):
            solves.append(None)
            return dgetrs(*args, **kwargs)

        monkeypatch.setattr(solver_module, "dgetrs", counting_getrs)
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=lambda x: np.zeros_like(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=r"non-finite data in scheme=order2, .*"
                                     rf", t={t3:g}$"):
                solve("order2", spec, 8, N)
        assert len(solves) == 2

    @pytest.mark.parametrize("source,initial,t", [
        # 2 c * 1e308 overflows in the source product of the first level
        (lambda x, t: np.full_like(x, 1e308), np.zeros_like, 0.125),
        # B @ u overflows, so the first level is not finite
        (lambda x, t: np.zeros_like(x), lambda x: np.full_like(x, 1e307),
         0.25),
    ], ids=["source-1e308", "initial-1e307"])
    def test_overflow_ends_in_solver_error_alone(self, source, initial, t):
        spec = ProblemSpec(d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5,
                           a=0.0, b=1.0, T=1.0, source=source,
                           initial=initial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=rf"non-finite data in scheme=order2, M=8, "
                                     rf"tau=0.25, t={t:g}$"):
                solve("order2", spec, 8, 4)

    def test_late_blow_up_names_its_first_non_finite_level(self):
        # a finite source whose solution overflows in the second block: the
        # levels are checked once each block is marched, and the error
        # names the first level that a march of step calls makes non-finite
        N = 1000
        spec = ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5, a=0.0, b=1.0, T=1.0,
            # capped below the time where the source itself overflows
            source=lambda x, t: 1e300 * np.exp(40.0 * np.minimum(t, 0.45)) + 0.0 * x,
            initial=np.zeros_like)
        mats = assemble("order2", spec, 8, spec.T / N)
        u = np.zeros(7)
        for k in range(N):
            try:
                u = step(mats, u, spec.source(mats.source_x, (k + 0.5) * mats.tau))
            except SolverError:
                break
        assert k >= solver_module._BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=r"non-finite data in scheme=order2, .*"
                                     rf", t={(k + 1) * mats.tau:g}$"):
                solve("order2", spec, 8, N)

    def test_step_raises_at_the_level_getrs_overflows(self):
        # the right-hand side of level 378 is finite but its solution
        # overflows; step raises there instead of returning an inf level
        # that only the next call would reject
        spec = ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5, a=0.0, b=1.0, T=1.0,
            source=lambda x, t: 1e300 * np.exp(40.0 * np.minimum(t, 0.45)) + 0.0 * x,
            initial=np.zeros_like)
        mats = assemble("order2", spec, 8, spec.T / 1000)
        u = np.zeros(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(378):
                u = step(mats, u, spec.source(mats.source_x, (k + 0.5) * mats.tau))
            assert np.isfinite(u).all()
            with pytest.raises(SolverError,
                               match=r"non-finite data in scheme=order2, M=8, "
                                     r"tau=0\.001$"):
                step(mats, u, spec.source(mats.source_x, 378.5 * mats.tau))


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

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_study("order2", "example2", 0.5, [])

    def test_zero_error_rung_has_no_orders(self):
        # the exact solution is nonzero only at x = 1/8, a node of M = 8
        # alone, so the first rung's error is exactly zero
        spec = ProblemSpec(
            d1=1.0, d2=1.0, d_alpha=1.0, alpha=0.5, a=0.0, b=1.0, T=1.0,
            source=lambda x, t: np.zeros_like(x), initial=np.zeros_like,
            exact=lambda x, t: np.where(x == 0.125, 1.0, 0.0) + 0.0 * t)
        grids = [solve("order2", spec, M, N) for M, N in [(4, 4), (8, 8)]]
        rows = convergence_rows((g.h, g.tau, g.max_error) for g in grids)
        assert [r.error for r in rows] == [0.0, 1.0]
        assert rows[1].temporal_order is None
        assert rows[1].spatial_order is None


class TestManufacturedResidual:
    @staticmethod
    def _residual(scheme, problem, alpha, M, tau, rows=slice(1, -1),
                  reflect=False):
        spec = builtin_problem(problem, alpha)
        mats = assemble(naive_scheme(scheme, reflect), spec, M, tau)
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
        assert np.array_equal(solve("order4", spec, 8, 2).final, np.zeros(9))
        with pytest.raises(SolverError, match="order6"):
            solve("order6", spec, 8, 2)
