"""Symbol, monotonicity and bound-sandwich verification tests."""

import math

import mpmath
import numpy as np
import pytest

from rieszkit import (
    alpha_limit_order4,
    check_symbol_nonnegativity,
    evaluate_bounds,
    bound_families,
    monotonicity_scan,
    symbol_values,
)
from rieszkit.analysis import pointwise_lower_crossing, truncated_symbol
from rieszkit.coefficients import theta_grid


def _symbol_at(p, alpha, theta):
    [value] = symbol_values(p, alpha, np.array([theta]))
    return value


def _lower(family, alpha, ell):
    return evaluate_bounds(family, alpha, ell, ell).lower[0]


class TestSymbol:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5])
    def test_even_and_zero_at_origin(self, p, alpha):
        thetas = np.linspace(0.1, math.pi, 25)
        plus = symbol_values(p, alpha, thetas)
        minus = symbol_values(p, alpha, -thetas)
        assert np.allclose(plus, minus, rtol=0, atol=1e-13)
        assert _symbol_at(p, alpha, 0.0) == 0.0

    def test_value_at_pi(self):
        # W_2(-1) = 4, so the half-order symbol at pi equals 2
        assert abs(_symbol_at(2, 0.5, math.pi) - 2.0) < 1e-14
        assert abs(truncated_symbol(2, 0.5, math.pi, 10_000) - 2.0) < 1e-6

    def test_agrees_with_truncated_series_quarter_turn(self):
        direct = _symbol_at(2, 0.5, math.pi / 2)
        series = truncated_symbol(2, 0.5, math.pi / 2, 10_000)
        assert abs(direct - series) < 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            symbol_values(6, 0.5, np.array([0.5, theta]))
        with pytest.raises(ValueError, match="theta"):
            _symbol_at(2, 0.5, theta)
        for length in (0, 10):
            with pytest.raises(ValueError, match="theta"):
                truncated_symbol(2, 0.5, theta, length)

    @pytest.mark.filterwarnings("error")
    def test_truncated_symbol_rejects_an_overflowing_angle(self):
        # 10 * 1e308 overflows to inf, and cos(inf) is nan
        with pytest.raises(ValueError, match="length \\* theta"):
            truncated_symbol(2, 0.5, 1e308, 10)
        assert math.isfinite(truncated_symbol(2, 0.5, 1e307, 10))
        assert math.isfinite(_symbol_at(2, 0.5, 1e308))

    @pytest.mark.parametrize("p,alpha", [(2, 0.5), (3, 0.5), (4, 0.5),
                                         (5, 0.5), (6, 0.5), (3, 1.5)])
    def test_series_consistency_long_truncation(self, p, alpha):
        # theta kept away from zero: partial sums converge like L**(-alpha)
        # with a 1/sin(theta/2) factor
        length = 100_000
        thetas = np.linspace(math.pi / 8, math.pi, 64)
        from rieszkit import expand_generating_function
        w = expand_generating_function(p, alpha, length).values
        direct = symbol_values(p, alpha, thetas)
        ell = np.arange(length + 1)
        for theta, d in zip(thetas, direct):
            s = float(np.dot(w, np.cos(ell * theta)))
            assert abs(d - s) < 1e-5

    # W_p vanishes at theta = 0, where Horner's rule on the float
    # coefficients cancels; from |theta| = 1e-3 on the symbol is within
    # 1.3e-12 relative of 50-digit arithmetic (symbol_values' docstring)
    PRECISE_THETAS = np.geomspace(1e-3, math.pi, 16)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_relative_accuracy_away_from_origin(self, p, alpha):
        thetas = np.concatenate([self.PRECISE_THETAS, -self.PRECISE_THETAS])
        got = symbol_values(p, alpha, thetas)
        with mpmath.workdps(50):
            for theta, value in zip(thetas.tolist(), got.tolist()):
                z = mpmath.expj(theta)
                exact = (sum((1 - z) ** k / k for k in range(1, p + 1))
                         ** mpmath.mpf(alpha)).real
                assert abs(value - exact) <= 1e-11 * abs(exact), theta


class TestNonnegativity:
    def test_scan_holds_the_symbol_on_the_theta_grid(self):
        scan = check_symbol_nonnegativity(6, 0.7, 4097)
        thetas = theta_grid(4097)
        assert np.array_equal(scan.values, symbol_values(6, 0.7, thetas))
        assert scan.min_value == scan.values.min()
        assert scan.theta_at_min == thetas[scan.values.argmin()]

    @pytest.mark.parametrize("p,alpha", [(2, 0.5), (2, 0.95), (4, 0.8),
                                         (3, 0.9), (5, 0.65), (6, 0.5)])
    def test_passes_below_threshold(self, p, alpha):
        scan = check_symbol_nonnegativity(p, alpha, 4096)
        assert scan.nonnegative
        assert scan.min_value >= -1e-12

    @pytest.mark.parametrize("p,alpha", [(5, 0.9), (6, 0.7)])
    def test_detects_negative_region(self, p, alpha):
        # the blanket nonnegativity claim fails for p = 5, 6 at large
        # alpha; the direct evaluation and the truncated series agree on
        # the violation, so it is not a branch artifact
        scan = check_symbol_nonnegativity(p, alpha, 4096)
        assert not scan.nonnegative
        series = truncated_symbol(p, alpha, scan.theta_at_min, 100_000)
        assert abs(series - scan.min_value) < 1e-3
        assert series < -1e-3

    @pytest.mark.parametrize("p,expected", [(3, 0.9578), (4, 0.8439),
                                            (5, 0.7022), (6, 0.5550)])
    def test_empirical_thresholds(self, p, expected):
        from rieszkit.analysis import symbol_nonnegativity_threshold
        assert abs(symbol_nonnegativity_threshold(p) - expected) < 5e-4

    def test_threshold_matches_closed_form_for_p4(self):
        from rieszkit.analysis import symbol_nonnegativity_threshold
        assert abs(symbol_nonnegativity_threshold(4) - alpha_limit_order4()) < 1e-6

    def test_second_order_unconditional(self):
        from rieszkit.analysis import symbol_angle_extreme
        assert abs(symbol_angle_extreme(2) + math.pi / 2) < 1e-6

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            check_symbol_nonnegativity(2, 0.5, 512)

    def test_alpha_limit_value(self):
        limit = alpha_limit_order4()
        assert abs(limit - 0.8439) < 1e-4
        assert 0.0 < limit < 1.0
        # algebraic inverse
        rhs = math.pi - math.acos(0.2) + 2 * math.atan(191 * math.sqrt(6) / 317)
        assert abs(math.pi / limit - rhs) < 1e-12

    def test_order4_above_limit_reported(self):
        # sufficient condition only: report the empirical minimum, no assert
        scan = check_symbol_nonnegativity(4, 0.95, 4096)
        assert math.isfinite(scan.min_value)


class TestMonotonicity:
    def test_second_order_tail(self):
        assert monotonicity_scan(2, 0.5, 500) <= 4

    def test_fifth_order_tail(self):
        assert monotonicity_scan(5, 0.4, 500) <= 12

    def test_second_order_above_one(self):
        start = monotonicity_scan(2, 1.6, 500)
        assert start is not None and start <= 5
        from rieszkit import expand_generating_function
        w = expand_generating_function(2, 1.6, 500).values
        assert np.all(w[start:] > 0.0)
        assert np.all(np.diff(w[start:]) <= 0.0)

    @pytest.mark.parametrize("p,alpha,claim", [(3, 0.4, 4), (3, 1.6, 7),
                                               (4, 0.4, 7), (4, 1.6, 12),
                                               (5, 1.6, 16)])
    def test_claimed_tail_indices(self, p, alpha, claim):
        start = monotonicity_scan(p, alpha, 500)
        assert start is not None and start <= claim

    def test_sixth_order_reported_only(self):
        start = monotonicity_scan(6, 0.4, 500)
        assert start is None or start >= 0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            monotonicity_scan(2, 0.5, 100)


class TestLemmaInequalities:
    def test_one_minus_x_below_exp(self):
        xs = np.linspace(1e-6, 1 - 1e-6, 10_000)
        assert np.all(1.0 - xs < np.exp(-xs))

    def test_one_minus_x_above_exp_double(self):
        xs = np.linspace(1e-6, 0.7968, 10_000)
        assert np.all(1.0 - xs > np.exp(-2.0 * xs))


class TestBounds:
    def test_frozen_example(self):
        table = evaluate_bounds("first-pointwise", 0.5, 4, 4)
        assert table.ell.tolist() == [4]
        assert abs(table.lower[0] - 0.015625) < 1e-12
        assert abs(table.observed[0] - 0.0390625) < 1e-12
        assert abs(table.upper[0] - 0.126491) < 1e-6
        assert table.holds[0]

    def test_tail_family_holds_across_indices(self):
        table = evaluate_bounds("first-tail", 0.5, 3, 100)
        assert table.ell.tolist() == list(range(3, 101))
        assert table.holds.all()

    def test_second_order_family(self):
        assert evaluate_bounds("second-pointwise", 0.3, 4, 4).holds[0]

    @pytest.mark.parametrize("family", bound_families())
    def test_range_equals_single_index(self, family):
        # one weight sequence per alpha gives the entries of per-index
        # evaluation, across the old 128-entry table block
        lo = 4 if ("shifted" in family or family.startswith("second")) else 3
        fields = ("ell", "lower", "observed", "upper", "holds")
        for alpha in (0.05, 0.37, 0.91):
            table = evaluate_bounds(family, alpha, lo, 140)
            assert table.ell.tolist() == list(range(lo, 141))
            for ell in (lo, lo + 1, 60, 127, 128, 129, 140):
                one = evaluate_bounds(family, alpha, ell, ell)
                assert ([getattr(table, f)[ell - lo] for f in fields]
                        == [getattr(one, f)[0] for f in fields])

    def test_second_order_table_once_per_alpha(self, monkeypatch):
        import rieszkit.analysis as analysis
        calls = []

        def fake_table(p, alpha, length):
            calls.append((p, alpha, length))
            return np.ones(length + 1)

        monkeypatch.setattr(analysis, "closed_form_table", fake_table)
        evaluate_bounds("second-pointwise", 0.3, 4, 160)
        evaluate_bounds("second-shifted-pointwise", 0.3, 4, 50)
        assert calls == [(2, 0.3, 160), (2, 1.3, 50)]

    @pytest.mark.parametrize("family", bound_families())
    def test_each_family_spot(self, family):
        ell = 5
        table = evaluate_bounds(family, 0.45, ell, ell)
        assert table.lower[0] < table.upper[0]
        assert table.holds[0]

    def test_tail_identity_against_brute_force(self):
        # zero-sum identity vs a long explicit summation; the truncation
        # remainder is positive and bounded by the upper tail estimate
        # 2 (2/K)**alpha, which is why the identity is used instead
        from rieszkit import first_order_sequence
        K = 400_000
        for alpha in (0.2, 0.6):
            w = first_order_sequence(alpha, K)
            table = evaluate_bounds("first-tail", alpha, 3, 50)
            for ell in (3, 10, 50):
                brute = float(np.sum(np.abs(w[ell:])))
                ident = table.observed[ell - 3]
                remainder = ident - brute
                assert 0.0 < remainder < 2.0 * (2.0 / (K + ell)) ** alpha

    def test_tail_index_validation(self):
        for ell in (0, 2):
            with pytest.raises(ValueError, match=r"ell_min must be an integer in 3\.\."):
                evaluate_bounds("first-tail", 0.5, ell, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_bounds("no-such-family", 0.5, 5, 5)
        with pytest.raises(ValueError):
            evaluate_bounds("first-pointwise", 0.5, 2, 5)
        with pytest.raises(ValueError):
            evaluate_bounds("second-pointwise", 0.5, 3, 5)
        with pytest.raises(ValueError):
            evaluate_bounds("first-pointwise", 1.2, 5, 5)
        with pytest.raises(ValueError):
            evaluate_bounds("first-pointwise", 0.5, 6, 5)


class TestLowerBoundComparison:
    # the plain and damped lower bounds of one observed quantity, compared
    # through the bound tables
    def test_small_alpha_small_index(self):
        assert (_lower("first-pointwise", 0.02, 3)
                < _lower("first-pointwise-damped", 0.02, 3))

    def test_mid_alpha_index_four(self):
        assert (_lower("first-pointwise", 0.5, 4)
                < _lower("first-pointwise-damped", 0.5, 4))

    def test_tail_always_plain_below(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            for ell in (3, 10, 50):
                assert (_lower("first-tail", float(alpha), ell)
                        < _lower("first-tail-damped", float(alpha), ell))

    @pytest.mark.parametrize("alpha", [math.nan, 1.5, 1.0, 0.0, -0.2, math.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        for family in bound_families():
            # the refusal names the value; it used to say "(0, 1)" alone
            with pytest.raises(ValueError, match=rf"^alpha must lie in \(0, 1\), "
                                                 rf"got {alpha}$"):
                evaluate_bounds(family, alpha, 5, 5)

    @pytest.mark.parametrize("ell", [-1, 0, 1, 2])
    def test_crossing_rejects_short_index(self, ell):
        with pytest.raises(ValueError, match=r"ell must be an integer in 3\.\."):
            pointwise_lower_crossing(ell)

    def test_crossing_values(self):
        c3 = pointwise_lower_crossing(3)
        c4 = pointwise_lower_crossing(4)
        assert abs(c3 - (12 * math.log(1.5) / (2 * math.pi ** 2 - 15) - 1)) < 1e-6
        assert abs(c4 - (12 * math.log(2.0) / (2 * math.pi ** 2 - 15) - 1)) < 1e-6
        assert abs(c3 - 0.0267) < 1e-3
        assert abs(c4 - 0.7551) < 1e-3
