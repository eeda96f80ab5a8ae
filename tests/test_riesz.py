"""Grid operator and closed-form reference tests for the benchmark profiles."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from rieszkit import (
    expand_generating_function,
    operator_convergence,
    point_approximation,
    poly_profile,
    reference_riesz,
    riesz_apply,
)


def _profile_apply(table, p, M):
    h = 1.0 / M
    return riesz_apply(table, poly_profile(p, h * np.arange(M + 1)), h)


class TestRieszApply:
    def test_zero_input(self):
        table = expand_generating_function(2, 0.5, 20)
        out = riesz_apply(table, np.zeros(17), 1.0 / 16)
        assert np.array_equal(out, np.zeros(17))

    def test_linearity(self):
        M = 32
        h = 1.0 / M
        table = expand_generating_function(3, 0.4, M + 1)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(M + 1)
        g = rng.standard_normal(M + 1)
        f[0] = f[M] = g[0] = g[M] = 0.0
        combined = riesz_apply(table, 2 * f + 3 * g, h)
        split = 2 * riesz_apply(table, f, h) + 3 * riesz_apply(table, g, h)
        assert np.max(np.abs(combined - split)) < 1e-12

    def test_midpoint_reference_value(self):
        # order-2 approximation of the p = 2 profile at h = 1/40
        M = 40
        table = expand_generating_function(2, 0.4, M + 1)
        out = _profile_apply(table, 2, M)
        exact = reference_riesz(2, 0.4, 0.5)
        assert abs(abs(out[M // 2] - exact) - 1.696639e-4) < 2e-10

    def test_boundary_rows_zero(self):
        M = 20
        table = expand_generating_function(2, 0.5, M + 1)
        out = _profile_apply(table, 2, M)
        assert out[0] == 0.0 and out[M] == 0.0

    def test_short_table_rejected(self):
        table = expand_generating_function(2, 0.5, 10)
        with pytest.raises(ValueError):
            riesz_apply(table, np.zeros(33), 1.0 / 32)

    def test_alpha_one_rejected(self):
        table = expand_generating_function(2, 1.0, 10)
        with pytest.raises(ValueError):
            riesz_apply(table, np.zeros(9), 1.0 / 8)

    @pytest.mark.parametrize("b, M, alpha", [(1e-300, 4, 1.9)],
                             ids=["underflowing-power"])
    def test_vanishing_denominator_overflows_nu(self, b, M, alpha):
        # h**1.9 underflows to 0.0
        table = expand_generating_function(2, alpha, M + 1)
        with pytest.raises(ValueError, match="nu overflows"):
            riesz_apply(table, np.ones(M + 1), b / M)

    def test_overflowing_power_is_value_error(self):
        # h = 5e307 makes h**1.9 overflow, which float ** raises as an
        # OverflowError
        table = expand_generating_function(2, 1.9, 4)
        with pytest.raises(ValueError, match=r"h\*\*alpha is out of double range"):
            riesz_apply(table, np.zeros(3), 1e308 / 2)

    @pytest.mark.parametrize("a, b, M", [(math.nan, 1.0, 4), (0.0, math.inf, 4),
                                         (-math.inf, 0.0, 4), (-1e308, 1e308, 4),
                                         (0.0, 5e-324, 2), (1.0, 0.0, 4)],
                             ids=["nan-a", "inf-b", "inf-a", "overflowing-span",
                                  "zero-step", "negative-step"])
    def test_non_finite_grid_rejected(self, a, b, M):
        # h = (b - a) / M; h = inf would make nu = 0 and every value +-0.0,
        # and h = 5e-324 / 2 rounds to 0.0
        table = expand_generating_function(2, 0.5, M + 1)
        with pytest.raises(ValueError, match="must be positive and finite"):
            riesz_apply(table, np.zeros(M + 1), (b - a) / M)

    def test_two_samples_rejected(self):
        table = expand_generating_function(2, 0.5, 4)
        with pytest.raises(ValueError, match="at least three samples, got 2"):
            riesz_apply(table, np.zeros(2), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        # [1.0, 2.0, inf] used to give [0, inf, 0], and a nan sample a nan
        table = expand_generating_function(2, 0.5, 4)
        with pytest.raises(ValueError, match="values must be finite"):
            riesz_apply(table, [1.0, 2.0, bad], 0.5)


class TestReference:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_symmetry(self, p, alpha):
        for x in (0.1, 0.25, 0.4):
            assert abs(reference_riesz(p, alpha, x)
                       - reference_riesz(p, alpha, 1.0 - x)) < 1e-12

    def test_quadrature_oracle(self):
        # independent route: one-sided fractional integrals of f' by
        # weighted adaptive quadrature, combined with the Riesz prefactor
        p, alpha, x0 = 2, 0.5, 0.3

        def fprime(y):
            return p * y ** (p - 1) * (1 - y) ** p - p * y ** p * (1 - y) ** (p - 1)

        left, _ = quad(fprime, 0.0, x0, weight="alg", wvar=(0.0, -alpha),
                       limit=200)
        right, _ = quad(fprime, x0, 1.0, weight="alg", wvar=(-alpha, 0.0),
                        limit=200)
        gamma1ma = math.gamma(1.0 - alpha)
        riesz = -(left / gamma1ma - right / gamma1ma) / (2 * math.cos(math.pi * alpha / 2))
        assert abs(riesz - reference_riesz(p, alpha, x0)) < 1e-8

    def test_domain_check(self):
        with pytest.raises(ValueError):
            reference_riesz(2, 0.5, 1.5)

    @pytest.mark.parametrize("alpha", [math.nan, 1.0, 5.0, 0.0, 2.0, -0.5, math.inf])
    def test_alpha_outside_its_range_rejected(self, alpha):
        # nan used to return nan, 1.0 a -0.0 and 5.0 a bare math domain error
        with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\) or \(1,2\)"):
            reference_riesz(4, alpha, 0.5)

    @pytest.mark.parametrize("p, alpha", [(0, 0.5), (1, 1.5)])
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_singular_end_node_rejected(self, p, alpha, x):
        # for p < alpha the derivative is singular at the end nodes, where
        # the sum used to raise a bare ZeroDivisionError
        with pytest.raises(ValueError, match=f"singular at the end node x = {x} "
                                             f"for p = {p}"):
            reference_riesz(p, alpha, x)

    @pytest.mark.parametrize("p", [-1, 65, 200])
    def test_p_beyond_float_range_rejected(self, p):
        # p! (2p)! overflows a float from p = 65 on; 200 used to raise
        # OverflowError
        with pytest.raises(ValueError, match=f"p must be an integer in 0..64, got {p}"):
            reference_riesz(p, 0.5, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [2.5, 2.0, -1, 65, "2", True])
    def test_non_integer_degree_rejected(self, p):
        # 2.5 used to raise a bare TypeError from math.factorial, and
        # poly_profile(-1, [0.0]) returned inf after a divide-by-zero warning
        with pytest.raises(ValueError, match=f"p must be an integer in 0..64, got {p}"):
            reference_riesz(p, 0.5, 0.5)
        with pytest.raises(ValueError, match=f"p must be an integer in 0..64, got {p}"):
            poly_profile(p, [0.0, 0.5])

    @pytest.mark.parametrize("p, alpha, x", [(0, 1.5, 1e-300), (0, 1.5, 5e-324),
                                             (0, 1.9, 1e-170)])
    def test_overflow_next_to_an_end_node_rejected(self, p, alpha, x):
        # x ** (p - alpha) leaves the double range before the end node; this
        # used to raise a bare OverflowError
        with pytest.raises(ValueError, match=f"overflows at x = {x} for p = {p}, "
                                             f"alpha = {alpha}"):
            reference_riesz(p, alpha, x)

    def test_finite_next_to_an_end_node(self):
        assert math.isfinite(reference_riesz(1, 1.5, 5e-324))
        assert math.isfinite(reference_riesz(0, 0.5, 5e-324))

    def test_largest_p_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(math.isfinite(reference_riesz(64, alpha, x))
                       for alpha in (1e-9, 0.5, 0.999, 1.5, 2.0 - 1e-9)
                       for x in (0.0, 0.3, 1.0))


class TestPointApproximation:
    def test_matches_grid_midpoint_for_even_mesh(self):
        p, alpha, M = 4, 0.6, 30
        table = expand_generating_function(p, alpha, M + 2)
        grid_out = _profile_apply(table, p, M)[M // 2]
        point_out = point_approximation(table, 1.0 / M)
        assert abs(grid_out - point_out) < 1e-13

    @pytest.mark.parametrize("h", [0.0, 1e-310, -0.1, math.nan])
    def test_bad_step_rejected(self, h):
        table = expand_generating_function(2, 0.5, 20)
        with pytest.raises(ValueError, match="must be positive and finite"):
            point_approximation(table, h)

    @pytest.mark.parametrize("length, h", [(10, 0.05), (0, 0.25)])
    def test_short_table_rejected(self, length, h):
        # the samples reach ceil(1 / (2 h)) + 1 weights out from x = 1/2
        table = expand_generating_function(2, 0.5, length)
        with pytest.raises(ValueError, match="coefficient table too short"):
            point_approximation(table, h)

    def test_profile_vanishes_outside_unit_interval(self):
        assert poly_profile(3, -0.2) == 0.0
        assert poly_profile(3, 1.2) == 0.0

    @pytest.mark.parametrize("x", [[math.nan], [0.5, math.nan], math.nan])
    def test_nan_sample_rejected(self, x):
        # a nan sample used to come back as 0.0, as if it lay outside [0, 1]
        with pytest.raises(ValueError, match="x must not be nan"):
            poly_profile(2, x)

    def test_far_samples_do_not_overflow(self):
        # with h = 1e300 the samples 1/2 -+ ell h lie far outside [0, 1],
        # where x**p (1-x)**p would overflow before it is discarded
        table = expand_generating_function(2, 0.5, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = point_approximation(table, 1e300)
            far = poly_profile(4, np.array([-1e300, 1e300, -math.inf, math.inf]))
        assert math.isfinite(value)
        assert np.array_equal(far, np.zeros(4))

    @pytest.mark.filterwarnings("error")
    def test_samples_beyond_double_range_rejected(self):
        # h = 1e308 passed the step check and then overflowed ell * h with a
        # RuntimeWarning
        table = expand_generating_function(2, 0.5, 20)
        with pytest.raises(ValueError, match=re.escape("double range at h = 1e+308")):
            point_approximation(table, 1e308)


class TestOperatorConvergence:
    def test_reference_errors_second_order(self):
        rep = operator_convergence(2, 0.2, [1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320])
        expected = [2.381267e-4, 5.900964e-5, 1.460639e-5, 3.628491e-6, 9.039358e-7]
        for row, ref in zip(rep.rows, expected):
            assert abs(row.error - ref) / ref < 1e-5
        orders = [r.spatial_order for r in rep.rows[1:]]
        for o, ref in zip(orders, [2.0127, 2.0144, 2.0092, 2.0051]):
            assert abs(o - ref) < 1e-3

    def test_halving_reduces_error_fourfold(self):
        rep = operator_convergence(2, 0.5, [1 / 80, 1 / 160])
        ratio = rep.rows[0].error / rep.rows[1].error
        assert 3.5 <= ratio <= 4.5

    def test_degenerate_ladder_has_no_order(self):
        rep = operator_convergence(2, 0.5, [1 / 40, 1 / 40])
        assert rep.rows[1].spatial_order is None

    def test_order_trend_with_interior_metric(self):
        rep = operator_convergence(3, 0.6, [1 / 40, 1 / 80], metric="max-interior")
        assert rep.rows[1].spatial_order is not None

    def test_interior_metric_skips_end_nodes(self):
        # at p = 1, alpha > 1 the closed form has 0.0 ** negative at x = 0
        # and x = 1, nodes the interior metric never compares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = operator_convergence(1, 1.5, [1 / 8, 1 / 16], metric="max-interior")
        assert all(math.isfinite(row.error) for row in rep.rows)

    def test_non_reciprocal_step_rejected(self):
        with pytest.raises(ValueError, match="h_list step 0.3 is not the reciprocal"):
            operator_convergence(2, 0.5, [0.3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h_list, message", [
        ([], "h_list must contain at least one step"),
        ([1.0], r"h_list step 1\.0: M = 1/h must be an integer in 2\.\.100000, got 1")])
    def test_bad_step_list_names_the_argument(self, h_list, message):
        # [] used to raise "max() arg is an empty sequence", and [1.0] to
        # call 1.0 "not the reciprocal of an integer"
        with pytest.raises(ValueError, match=message):
            operator_convergence(2, 0.5, h_list)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            operator_convergence(2, 0.5, [1 / 20], metric="l2")

    def test_boundary_compatibility_decay(self):
        # profile and its first p-1 derivatives vanish at the ends; nodal
        # values near the boundary shrink like h**p
        for p in (2, 4, 6):
            for M in (20, 40):
                h = 1.0 / M
                assert poly_profile(p, h) <= h ** p
                assert poly_profile(p, 1.0 - h) <= h ** p
