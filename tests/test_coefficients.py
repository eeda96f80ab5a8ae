"""Weight-generation tests: both evaluation routes, signs, zero sums."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_reference import (_RATIO_CHAINS, _naive_inner_weights, naive_closed_form_table,
                             naive_expand_generating_function, naive_first_order_sequence)
from rieszkit import (
    closed_form_table,
    expand_generating_function,
    first_order_sequence,
    generator_polynomial,
)
from rieszkit.analysis import (check_symbol_nonnegativity, evaluate_bounds,
                               monotonicity_scan, pointwise_lower_crossing,
                               truncated_symbol)
from rieszkit.coefficients import (MAX_EXACT_LENGTH, MAX_GRID, MAX_SERIES_LENGTH,
                                   _binomial_rows, _inner_weights, check_count)
from rieszkit.riesz import operator_convergence
from rieszkit.stability import stability_scan

ALPHAS_LT1 = [0.1, 0.3, 0.5, 0.7, 0.9]
ALPHAS_GT1 = [1.1, 1.4, 1.6, 1.9]


class TestCheckCount:
    @pytest.mark.parametrize("value", [2, 5, np.int64(3), np.uint8(5)])
    def test_integers_in_range_accepted(self, value):
        check_count("n", value, 2, 5)

    @pytest.mark.parametrize("value", [1, 6, True, 2.0, 2.5, np.float64(3.0), "3",
                                       None, 10**400])
    def test_others_rejected(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer in 2\.\.5, got "):
            check_count("n", value, 2, 5)

    # a count that is not an integer, a bool or one past its bound; each
    # call used to raise a bare TypeError, return a value or start the work
    CASES = [
        (expand_generating_function, (2, 0.5, 2.5), "length"),
        (expand_generating_function, (True, 0.5, 4), "p"),
        (expand_generating_function, (2, 0.5, MAX_SERIES_LENGTH + 1), "length"),
        (closed_form_table, (2, 0.5, 2.5), "length"),
        (closed_form_table, (2, 0.5, True), "length"),
        (closed_form_table, (6, 0.5, MAX_EXACT_LENGTH + 1), "length"),
        (first_order_sequence, (0.5, 2.5), "length"),
        (first_order_sequence, (0.5, MAX_SERIES_LENGTH + 1), "length"),
        (check_symbol_nonnegativity, (2, 0.5, 1024.5), "grid_size"),
        (check_symbol_nonnegativity, (2, 0.5, MAX_GRID + 1), "grid_size"),
        (stability_scan, ("order2", 0.5, [0.1], [0.1], 1, 1, 1, 1024.5), "grid_size"),
        (stability_scan, ("order2", 0.5, [0.1], [0.1], 1, 1, 1, MAX_GRID + 1),
         "grid_size"),
        (evaluate_bounds, ("first-tail", 0.5, 3, 10.5), "ell_max"),
        (evaluate_bounds, ("first-tail", 0.5, 3, True), "ell_max"),
        (evaluate_bounds, ("first-tail", 0.5, 3, 10**5 + 1), "ell_max"),
        (evaluate_bounds, ("second-pointwise", 0.5, 4, MAX_EXACT_LENGTH + 1),
         "ell_max"),
        (monotonicity_scan, (2, 0.5, 200.5), "length"),
        (monotonicity_scan, (2, 0.5, MAX_SERIES_LENGTH + 1), "length"),
        (truncated_symbol, (2, 0.5, 0.1, 10.5), "length"),
        (truncated_symbol, (2, 0.5, 0.1, 10**400), "length"),
        (pointwise_lower_crossing, (3.5,), "ell"),
        (pointwise_lower_crossing, (10**400,), "ell"),
        (operator_convergence, (2, 0.5, [2.0 ** -17]),
         "h_list step 7.62939453125e-06: M = 1/h"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn, args, name", CASES, ids=[
        f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(CASES)])
    def test_public_counts_checked_first(self, fn, args, name):
        message = f"^{re.escape(name)} must be an integer in "
        with pytest.raises(ValueError, match=message):
            fn(*args)


class TestFirstOrder:
    @pytest.mark.parametrize("alpha", ALPHAS_LT1 + ALPHAS_GT1)
    def test_first_terms(self, alpha):
        w = first_order_sequence(alpha, 1)
        assert w[0] == 1.0
        assert abs(w[1] + alpha) < 1e-15

    def test_half_alpha_index_two(self):
        assert first_order_sequence(0.5, 2)[2] == -0.125

    def test_matches_exact_binomial_product(self):
        # oracle: exact rational product (1 - (a+1)/k) with a = Fraction(0.3)
        seq = first_order_sequence(0.3, 30)
        a = Fraction(0.3)
        w = Fraction(1)
        for j in range(1, 31):
            w *= 1 - (a + 1) / j
            assert abs(seq[j] - float(w)) < 1e-15

    def test_sequence_matches_scalar(self):
        # each entry is the single-index value: it does not depend on length
        seq = first_order_sequence(0.7, 20)
        for j in range(21):
            assert seq[j] == first_order_sequence(0.7, j)[j]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            first_order_sequence(0.5, -1)

    @pytest.mark.parametrize("alpha", [math.nan, 1e308, math.inf, 0.0, 2.0, -0.5])
    def test_order_outside_range_rejected(self, alpha):
        # nan used to give nan weights and 1e308 infinite ones
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\)"):
            first_order_sequence(alpha, 3)


class TestGeneratorPolynomial:
    def test_first_order_backward_difference(self):
        g = generator_polynomial(1)
        assert g.coeffs == (Fraction(1), Fraction(-1))

    def test_second_order(self):
        g = generator_polynomial(2)
        assert g.coeffs == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))

    def test_fifth_order(self):
        g = generator_polynomial(5)
        assert g.coeffs == (Fraction(137, 60), Fraction(-5), Fraction(5),
                            Fraction(-10, 3), Fraction(5, 4), Fraction(-1, 5))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_invariants(self, p):
        g = generator_polynomial(p)
        assert len(g.coeffs) == p + 1
        assert sum(g.coeffs) == 0
        assert g.coeffs[0] > 0

    @pytest.mark.parametrize("p", [0, 7, -1])
    def test_unsupported_order(self, p):
        with pytest.raises(ValueError):
            generator_polynomial(p)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_backward_difference_sum_identity(self, p):
        # W_p(z) = sum_{k=1..p} (1-z)^k / k
        z = Fraction(3, 7)
        direct = sum(c * z ** i for i, c in enumerate(generator_polynomial(p).coeffs))
        bdf = sum((1 - z) ** k / k for k in range(1, p + 1))
        assert direct == bdf


class TestSeriesExpansion:
    def test_alpha_one_returns_polynomial(self):
        t = expand_generating_function(2, 1.0, 4)
        assert np.array_equal(t.values, np.array([1.5, -2.0, 0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("p", [3, 5])
    def test_alpha_one_higher_orders(self, p):
        t = expand_generating_function(p, 1.0, p + 5)
        g = generator_polynomial(p).as_floats()
        assert np.allclose(t.values[:p + 1], g, atol=1e-14)
        assert np.allclose(t.values[p + 1:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS_LT1 + ALPHAS_GT1)
    def test_leading_terms(self, alpha):
        t = expand_generating_function(2, alpha, 1)
        assert abs(t.values[0] - 1.5 ** alpha) < 1e-14
        expected = -(4.0 * alpha / 3.0) * 1.5 ** alpha
        assert abs(t.values[1] - expected) < 1e-13

    def test_table_is_immutable(self):
        t = expand_generating_function(3, 0.5, 10)
        with pytest.raises(ValueError):
            t.values[0] = 99.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            expand_generating_function(2, 2.0, 5)
        with pytest.raises(ValueError):
            expand_generating_function(2, -0.1, 5)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            expand_generating_function(2, 0.5, -1)


class TestScalarRecurrenceBits:
    # the recurrences run on Python floats; the NumPy-scalar loops they
    # replaced perform the same IEEE operations, so every bit must agree
    @given(p=st.integers(1, 6),
           alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
           length=st.integers(0, 600))
    def test_series_matches_numpy_scalar_loop(self, p, alpha, length):
        got = expand_generating_function(p, alpha, length).values
        assert got.dtype == np.float64
        assert got.tobytes() == naive_expand_generating_function(p, alpha, length).tobytes()

    @given(alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
           length=st.integers(0, 600))
    def test_first_order_matches_numpy_scalar_loop(self, alpha, length):
        got = first_order_sequence(alpha, length)
        assert got.dtype == np.float64
        assert got.tobytes() == naive_first_order_sequence(alpha, length).tobytes()


@st.composite
def _alpha_and_length(draw):
    """Any alpha in (0, 2) and a length up to 40.  The oracle's Fractions
    carry alpha's denominator d to the power ell; at a subnormal alpha
    (d = 2**1074) it takes about 2 s for length 40, so alphas below 2**-10
    get lengths up to 12."""
    alpha = draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    return alpha, draw(st.integers(0, 40 if alpha >= 2.0 ** -10 else 12))


class TestRouteEquivalence:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.7])
    def test_series_vs_nested_sums(self, p, alpha):
        length = 40
        series = expand_generating_function(p, alpha, length).values
        closed = closed_form_table(p, alpha, length)
        assert np.max(np.abs(series - closed)) < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.25, 0.625, 1.5, 1.875,
                                       0.3, 0.77, 1.1, 1.63,
                                       1e-3, 1.999, 0.123456789])
    def test_nested_sums_bitwise_equal_fraction_oracle(self, p, alpha):
        got = closed_form_table(p, alpha, 24)
        assert np.array_equal(got, naive_closed_form_table(p, alpha, 24))

    def test_nested_sums_bitwise_equal_fraction_oracle_long(self):
        # p = 6 is where the integer route's scale B and the oracle's
        # ratio-chain denominators differ most
        for p, alpha, length in [(2, 0.37, 128), (6, 0.37, 40)]:
            got = closed_form_table(p, alpha, length)
            assert np.array_equal(got, naive_closed_form_table(p, alpha, length)), p

    @settings(max_examples=25)
    @given(p=st.integers(2, 6), case=_alpha_and_length())
    @example(p=6, case=(5e-324, 12))
    @example(p=2, case=(5e-324, 12))
    @example(p=6, case=(float(np.nextafter(2.0, 0.0)), 32))
    @example(p=2, case=(float(np.nextafter(2.0, 0.0)), 40))
    def test_nested_sums_bitwise_equal_fraction_oracle_any_alpha(self, p, case):
        # Horner's rule reorders the exact integer sums but keeps their
        # values, so every bit must agree with the Fraction oracle
        alpha, length = case
        got = closed_form_table(p, alpha, length)
        assert got.tobytes() == naive_closed_form_table(p, alpha, length).tobytes()

    @pytest.mark.parametrize("alpha", [0.89, 1.5])
    def test_nested_sums_bitwise_equal_fraction_oracle_bounds_length(self, alpha):
        # the tables of the second-order `bounds` families: (2, alpha) and
        # (2, 1 + alpha) up to ell_max, here 100
        got = closed_form_table(2, alpha, 100)
        assert got.tobytes() == naive_closed_form_table(2, alpha, 100).tobytes()

    def test_cross_check_example(self):
        got = closed_form_table(4, 0.4, 5)[5]
        ref = expand_generating_function(4, 0.4, 5).values[5]
        assert abs(got - ref) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS_LT1)
    def test_second_order_displays(self, alpha):
        pre = 1.5 ** alpha
        assert abs(closed_form_table(2, alpha, 0)[0] - pre) < 1e-14
        d3 = -4 * alpha * (alpha - 1) * (8 * alpha - 7) / 81 * pre
        assert abs(closed_form_table(2, alpha, 3)[3] - d3) < 1e-14
        d4 = alpha * (alpha - 1) * (64 * alpha ** 2 - 176 * alpha + 123) / 486 * pre
        assert abs(closed_form_table(2, alpha, 4)[4] - d4) < 1e-14

    def test_unsupported_orders(self):
        with pytest.raises(ValueError):
            closed_form_table(1, 0.5, 3)
        with pytest.raises(ValueError):
            closed_form_table(7, 0.5, 3)
        with pytest.raises(ValueError):
            closed_form_table(2, 0.5, -2)

    @pytest.mark.parametrize("p", [5, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.7])
    def test_series_vs_nested_sums_long(self, p, alpha):
        series = expand_generating_function(p, alpha, 100).values
        closed = closed_form_table(p, alpha, 100)
        assert np.max(np.abs(series - closed)) < 1e-10

    def test_negative_length(self):
        with pytest.raises(ValueError):
            closed_form_table(2, 0.5, -1)


class TestInnerWeights:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_polynomial_powers_equal_multinomial_sums(self, p):
        # the powers of psi against the literal multinomial loops, exactly
        length = 40
        B, C = _inner_weights(p, length)
        naive = _naive_inner_weights(p, length)
        assert len(C) == length + 1
        for l1, row in enumerate(C):
            assert len(row) == l1 + 1
            for m, c in enumerate(row):
                assert c == B ** l1 * naive[l1][m], (l1, m)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_ratio_chain_factorizes_generator(self, p):
        # g_0 (1 - z)(1 - r_1 z (1 - r_2 z (...))) == W_p, in exact Fractions
        g = generator_polynomial(p).coeffs
        nested = [Fraction(1)]
        for r in reversed(_RATIO_CHAINS[p]):
            nested = [Fraction(1)] + [-r * c for c in nested]
        product = [Fraction(0)] * (len(nested) + 1)
        for i, c in enumerate(nested):
            product[i] += g[0] * c
            product[i + 1] -= g[0] * c
        assert tuple(product) == g


class TestAlphaFreeCache:
    """B, C and the binomial rows are kept per (p, length); whatever the
    order of the calls, every weight must keep its bits."""

    @pytest.fixture(autouse=True)
    def _empty_caches(self):
        _inner_weights.cache_clear()
        _binomial_rows.cache_clear()

    @staticmethod
    def _assert_oracle_bits(p, alpha, length):
        got = closed_form_table(p, alpha, length)
        assert got.tobytes() == naive_closed_form_table(p, alpha, length).tobytes(), \
            (p, alpha, length)

    def test_interleaved_alphas_build_each_table_once(self):
        for alpha in [0.37, 1.5, 1e-3, 0.37, 1.999, 1.5]:
            for p in (2, 6):
                self._assert_oracle_bits(p, alpha, 24)
        assert _inner_weights.cache_info().misses == 2
        assert _binomial_rows.cache_info().misses == 1

    @pytest.mark.parametrize("lengths", [(24, 7, 0), (0, 7, 24)],
                             ids=["shorter-after-longer", "longer-after-shorter"])
    def test_lengths_in_either_order(self, lengths):
        for length in lengths + lengths[:1]:
            for p in (3, 6):
                self._assert_oracle_bits(p, 0.77, length)
        assert _inner_weights.cache_info().misses == 2 * len(lengths)

    def test_returned_array_is_the_callers_own(self):
        first = closed_form_table(4, 0.3, 16)
        first[:] = np.nan
        self._assert_oracle_bits(4, 0.3, 16)
        B, C = _inner_weights(4, 16)
        with pytest.raises(TypeError):
            C[3][1] = 0

    def test_caches_are_bounded(self):
        for cached in (_inner_weights, _binomial_rows):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize <= 64
        for length in range(_inner_weights.cache_info().maxsize + 3):
            closed_form_table(2, 0.5, length)
        info = _inner_weights.cache_info()
        assert info.currsize == info.maxsize
        self._assert_oracle_bits(2, 0.5, 0)  # evicted first, so built again
        assert _inner_weights.cache_info().misses == info.misses + 1


class TestSignsAndSums:
    @pytest.mark.parametrize("alpha", ALPHAS_LT1)
    def test_second_order_negative_increasing_tail(self, alpha):
        w = expand_generating_function(2, alpha, 200).values
        assert np.all(w[4:] < 0.0)
        assert np.all(np.diff(w[4:]) > 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS_GT1)
    def test_second_order_positive_decreasing_tail(self, alpha):
        w = expand_generating_function(2, alpha, 200).values
        assert np.all(w[5:] > 0.0)
        assert np.all(np.diff(w[5:]) < 0.0)

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.6])
    def test_partial_sums_decay(self, p, alpha):
        # |sum_{l<=L} w_l| decreases toward 0 like L**(-alpha); the plain
        # 2000-term sum stays O(1e-1..1e-4) for small alpha, so the bound
        # is decay-rate aware rather than a fixed epsilon.
        w = expand_generating_function(p, alpha, 2000).values
        partial = np.cumsum(w)
        checkpoints = np.array([100, 200, 500, 1000, 2000])
        mags = np.abs(partial[checkpoints])
        assert np.all(np.diff(mags) < 0.0)
        assert mags[-1] < 2.5 * 2000.0 ** (-alpha)
