"""Growth-factor evaluation, von Neumann scans and the consistency order
of the semi-discrete symbol."""

import cmath
import math
import warnings

import numpy as np
import pytest

from naive_reference import naive_scheme, naive_stability_cells
from rieszkit import ProblemSpec, assemble, expand_generating_function, stability_scan
from rieszkit.coefficients import generator_on_circle
from rieszkit.schemes import (SCHEMES, check_step, fractional_coefficient,
                              growth_factors, right_compact, stencils,
                              weight_order)

GRID = [1e-3, 1e-2, 1e-1, 1.0]


def _factors(scheme, alpha, h, tau, d1, d2, d_alpha, thetas):
    """Growth factors of one (alpha, h, tau) cell at the angles thetas."""
    [(*_, xi, _)] = growth_factors(scheme, [alpha], [h], [tau], d1, d2,
                                   d_alpha, np.array(thetas, dtype=float))
    return xi


class TestAmplificationFactor:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unity_at_zero_angle(self, scheme):
        [xi] = _factors(scheme, 0.5, 0.1, 0.05, 1.0, 1.0, 1.0, [0.0])
        assert xi == 1.0 + 0.0j

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_conjugate_symmetry(self, scheme):
        for theta in (0.3, 1.1, 2.9):
            zp, zm = _factors(scheme, 0.4, 0.2, 0.1, 1.0, 1.0, 1.0,
                              [theta, -theta])
            assert abs(zp - zm.conjugate()) < 1e-14

    def test_order2_bounded_at_pi(self):
        [xi] = _factors("order2", 0.5, 0.1, 0.1, 1.0, 1.0, 1.0, [math.pi])
        assert abs(xi) <= 1.0

    def test_validation(self):
        # the domain of every growth factor, which the scan checks per cell
        with pytest.raises(ValueError):
            check_step("order3", 0.5, 0.1, 0.1, 1, 1, 1)
        with pytest.raises(ValueError):
            check_step("order2", 0.5, -0.1, 0.1, 1, 1, 1)
        with pytest.raises(ValueError):
            check_step("order2", 1.5, 0.1, 0.1, 1, 1, 1)


# scheme -> (spatial order with d1 = 0, with d1 != 0), and the mesh widths
# 2**-e over which the rate is measured; below 2**-6 order6 meets rounding,
# and order2 needs finer meshes before its rate settles
SYMBOL_ORDERS = {
    "order2": (2, 2, range(6, 10)),
    "order4": (4, 2, range(4, 7)),
    "order6": (6, 4, range(4, 7)),
    "order4-consistent": (4, 4, range(4, 7)),
    "order6-consistent": (6, 6, range(4, 7)),
}


def _symbol_error(scheme, d1, alpha, h, k=3.0):
    """|(D - nu K)/C - (-i d1 k - k**2 - |k|**alpha)| at d2 = d_alpha = 1:
    the semi-discrete symbol of the scheme against that of the equation."""
    theta = k * h
    compact, operator = stencils(scheme, d1, 1.0, h)

    def symbol(stencil):
        return sum(c * cmath.exp(1j * off * theta) for off, c in stencil)

    Z = complex(generator_on_circle(weight_order(scheme),
                                    np.array([-theta]))[0]) ** alpha
    C = symbol(compact)
    K = C * Z + symbol(right_compact(scheme, compact)) * Z.conjugate()
    got = (symbol(operator) - fractional_coefficient(1.0, alpha, h) * K) / C
    return abs(got - (-1j * d1 * k - k * k - abs(k) ** alpha))


class TestSymbolOrder:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("d1", [0.0, 1.0])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_consistency_order(self, scheme, d1, alpha):
        # measured rates: order2 1.89-2.00; order4 with d1 = 1 1.85-1.98;
        # order6 with d1 = 1 4.07-4.33; 4.03-4.24 and 6.03-6.32 wherever
        # order 4 and 6 are kept.  The upper bound pins the two orders that
        # the mirrored orientation loses when d1 != 0.
        plain, advective, exponents = SYMBOL_ORDERS[scheme]
        order = advective if d1 else plain
        errors = [_symbol_error(scheme, d1, alpha, 2.0 ** -e) for e in exponents]
        rates = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        assert all(order - 0.2 <= r <= order + 0.5 for r in rates), rates


class TestScan:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.8])
    @pytest.mark.parametrize("h", GRID)
    def test_order2_unconditional(self, alpha, h):
        rep = stability_scan("order2", [alpha], [h], GRID, 1, 1, 1, 1024)
        assert rep.passed.all()
        # structural identity: the real group's sign decides the bound
        assert (rep.min_real_group >= -1e-12).all()

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_order2_without_fractional_term(self, alpha):
        # d_alpha = 0 is the plain advection-diffusion scheme that solve
        # marches; Re G = (2 d2 / h**2)(1 - cos theta) >= 0 on every cell
        rep = stability_scan("order2", [alpha], GRID, GRID, 1, 1, 0, 1024)
        assert rep.passed.all()
        assert (rep.min_real_group >= 0.0).all()

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_order4_within_limit(self, alpha):
        assert stability_scan("order4", [alpha], GRID, GRID, 1, 1, 1,
                              1024).passed.all()

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 0.7])
    def test_order6_moderate_orders(self, alpha):
        assert stability_scan("order6", [alpha], GRID, GRID, 1, 1, 1,
                              1024).passed.all()

    def test_order6_large_alpha_coarse_mesh_grows(self):
        # the symbol turns negative above alpha ~ 0.555 for the six-point
        # weights; with h = 1 the fractional term dominates and the scan
        # correctly reports growth
        rep = stability_scan("order6", [0.8], [1.0], [0.1], 1, 1, 1, 2048)
        assert rep.passed.tolist() == [False]
        assert rep.min_real_group[0] < 0.0

    def test_cells_h_outer_tau_inner(self):
        hs, taus = [0.5, 0.01], [0.2, 1.0, 0.003]
        rep = stability_scan("order4", [0.6], hs, taus, 0.3, 2.0, 0.7, 1024)
        cells = list(zip(rep.h.tolist(), rep.tau.tolist()))
        assert cells == [(h, t) for h in hs for t in taus]
        for (h, tau), theta, max_abs in zip(cells, rep.theta_at_max.tolist(),
                                            rep.max_abs.tolist()):
            [xi] = _factors("order4", 0.6, h, tau, 0.3, 2.0, 0.7, [theta])
            assert abs(abs(xi) - max_abs) < 1e-14

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            stability_scan("order2", [0.5], [0.1], [0.1], 1, 1, 1, 100)

    @pytest.mark.parametrize("args", [
        ("order3", [0.5], [0.1], [0.1], 1, 1, 1),
        ("order2", [0.5], [0.1, 0.0], [0.1], 1, 1, 1),
        ("order2", [0.5], [0.1], [0.1, 0.0], 1, 1, 1),
        ("order4", [0.5], [0.1], [0.1], 0, 1, 1),
        ("order4", [0.5], [0.1], [0.1], 1, -1, 1),
        ("order6", [0.5], [0.1], [0.1], 1, 1, -1),
        ("order2", [0.5], [math.nan], [0.1], 1, 1, 1),
        ("order2", [1.5], [0.1], [0.1], 1, 1, 1),
        ("order2", [0.5], [], [0.1], 1, 1, 1),
        ("order2", [0.5], [math.inf], [0.1], 1, 1, 1),
        ("order2", [0.5], [0.1], [math.inf], 1, 1, 1),
        ("order4", [0.5], [0.1], [0.1], math.inf, 1, 1),
        ("order4", [0.5], [0.1], [0.1], 1, math.inf, 1),
        ("order6", [0.5], [0.1], [0.1], 1, 1, math.inf),
        ("order2", [], [0.1], [0.1], 1, 1, 1),
        ("order2", [0.5, 1.0], [0.1], [0.1], 1, 1, 1),
    ])
    def test_input_validation(self, args):
        with pytest.raises(ValueError):
            stability_scan(*args, 1024)

    @pytest.mark.parametrize("args", [
        # h**2 underflows to 0
        ("order4", [0.5], [1e-200], [0.1], 1, 1, 1),
        # 2/tau is inf
        ("order4", [0.5], [0.1], [1e-310], 1, 1, 1),
        # h**2 or d1**2 is inf
        ("order2", [0.5], [1e200], [0.1], 1, 1, 1),
        ("order6", [0.5], [0.1], [0.1], 1e200, 1, 1),
    ], ids=["tiny-h", "tiny-tau", "huge-h", "huge-d1"])
    def test_derived_quantity_out_of_range(self, args):
        with pytest.raises(ValueError, match="out of double range"):
            stability_scan(*args, 1024)

    @pytest.mark.parametrize("args", [
        ("order6", [0.4], [1e-160], [0.1], 1, 1, 1),
        ("order4", [0.4], [0.1], [0.1], 1, 1e-310, 1),
    ], ids=["d2-over-h-squared", "d1-squared-over-d2"])
    def test_growth_factor_overflow_is_value_error(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double precision"):
                stability_scan(*args, 1024)

    def test_overflow_of_the_factor_itself(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="growth factor overflows"):
                stability_scan("order4", [0.5], [1e-160], [1e-307], 1, 1e-300, 1,
                               1024)


STEPS = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0]


def _cells(rep):
    return [(h, tau, *(v.hex() for v in values)) for h, tau, *values
            in zip(rep.h.tolist(), rep.tau.tolist(), rep.max_abs.tolist(),
                   rep.theta_at_max.tolist(), rep.min_real_group.tolist())]


class TestScanMatchesPerAlphaOracle:
    # d2 = 0.01 gives unstable cells for the order4 weights at alpha = 0.99
    # and for the order6 weights and the consistent schemes from alpha = 0.9;
    # the odd grid holds theta = 0 exactly
    ALPHAS = [0.37, 0.9, 0.99]

    @pytest.mark.parametrize("grid_size", [1024, 1025])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bit_identical(self, scheme, grid_size):
        rep = stability_scan(scheme, self.ALPHAS, STEPS, STEPS, 2.0, 0.01, 1.0,
                             grid_size)
        want = []
        for alpha in self.ALPHAS:
            want += [(h, tau, *(v.hex() for v in values)) for h, tau, *values
                     in naive_stability_cells(scheme, alpha, STEPS, STEPS, 2.0,
                                              0.01, 1.0, grid_size)]
        assert rep.alpha.tolist() == [a for a in self.ALPHAS
                                      for _ in range(len(STEPS) ** 2)]
        assert _cells(rep) == want
        if scheme != "order2":
            assert not rep.passed.all()

    def test_several_alphas_concatenate_single_scans(self):
        args = (STEPS, STEPS, 2.0, 0.01, 1.0, 1025)
        joined = stability_scan("order6", self.ALPHAS, *args)
        single = [stability_scan("order6", [a], *args) for a in self.ALPHAS]
        for field in ("alpha", "h", "tau", "max_abs", "theta_at_max",
                      "min_real_group", "passed"):
            assert np.array_equal(getattr(joined, field), np.concatenate(
                [getattr(s, field) for s in single]))


class TestVerdictIsTauFree:
    # stability_scan's docstring: the group is (2/tau) Re[C conj(G)] and G
    # does not contain tau, so the verdict of an (alpha, h) does not change
    # along tau.  Unstable cells on this grid, which the test pins so that
    # it cannot pass vacuously.  STEPS are the benchmark's sweeps steps.
    UNSTABLE = {"order2": 0, "order4": 63, "order4-consistent": 168,
                "order6": 189, "order6-consistent": 287}

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_passed_equal_along_tau(self, scheme):
        unstable = 0
        for d in ((1.0, 1.0, 1.0), (2.0, 0.01, 1.0), (1.0, 0.01, 1.0)):
            rep = stability_scan(scheme, [0.37, 0.8, 0.9, 0.99], STEPS, STEPS,
                                 *d, 4096)
            groups = {}
            for alpha, h, passed in zip(rep.alpha.tolist(), rep.h.tolist(),
                                        rep.passed.tolist()):
                groups.setdefault((alpha, h), []).append(passed)
            assert len(groups) == 4 * len(STEPS)
            for key, passed in groups.items():
                assert len(passed) == len(STEPS)
                assert len(set(passed)) == 1, (d, key, passed)
            unstable += int((~rep.passed).sum())
        assert unstable == self.UNSTABLE[scheme]


# (scheme, alpha, h, tau, d1, d2, d_alpha, von Neumann stable)
COMPANION_CASES = {
    "order2": ("order2", 0.8, 0.1, 0.1, 1.0, 1.0, 1.0, True),
    "order4-coarse-tau": ("order4", 0.3, 0.05, 0.5, 3.0, 1.0, 0.09, True),
    "order4": ("order4", 0.6, 0.2, 0.1, 1.0, 1.0, 1.0, True),
    "order6": ("order6", 0.5, 0.5, 0.1, 4.0, 0.5, 1.0, True),
    "order6-negative-symbol": ("order6", 0.8, 1.0, 0.1, 1.0, 1.0, 1.0, False),
}


class TestPeriodicCompanionSpectrum:
    @pytest.mark.parametrize("reflect_right", [True, False],
                             ids=["reflect", "same"])
    @pytest.mark.parametrize("case", sorted(COMPANION_CASES))
    def test_matches_matrix_eigenvalues(self, case, reflect_right):
        # periodic variant of the assembled scheme: the one-step companion
        # matrix is circulant, its eigenvalues realize the growth factors at
        # the discrete angles 2 pi k / M
        scheme, alpha, h, tau, d1, d2, da, stable = COMPANION_CASES[case]
        M = 128
        big = 200 * M
        p = {"order2": 2, "order4": 4, "order6": 6}[scheme]
        w = expand_generating_function(p, alpha, big).values
        wrapped = np.bincount(np.arange(big + 1) % M, weights=w, minlength=M)
        # the full series sums to W_p(1)**alpha = 0; the slowly decaying
        # tail beyond `big` spreads evenly over the residues
        wrapped -= wrapped.sum() / M
        compact, operator = stencils(scheme, d1, d2, h)
        right = [(-off, c) for off, c in compact] if reflect_right else compact
        eye = np.eye(M)
        # W[j, m] = wrapped[(j - m) % M]
        W = np.array([np.roll(wrapped, j) for j in range(M)]).T

        def band(stencil):
            return sum(c * np.roll(eye, off, axis=1) for off, c in stencil)

        K = (sum(c * np.roll(W, -off, axis=0) for off, c in compact)
             + sum(c * np.roll(W.T, -off, axis=0) for off, c in right))
        nu = da / (2 * math.cos(math.pi * alpha / 2) * h ** alpha)
        C, D = band(compact), band(operator)
        A = 2 / tau * C - D + nu * K
        B = 2 / tau * C + D - nu * K
        eigs = np.linalg.eigvals(np.linalg.solve(A, B))
        thetas = 2 * math.pi * np.arange(M) / M
        thetas = np.where(thetas > math.pi, thetas - 2 * math.pi, thetas)
        [(*_, xi, _)] = growth_factors(naive_scheme(scheme, reflect_right),
                                       [alpha], [h], [tau], d1, d2, da, thetas)
        got = np.sort(np.abs(eigs))
        ref = np.sort(np.abs(xi))
        assert np.max(np.abs(got - ref)) < 1e-6
        assert (got[-1] <= 1.0 + 1e-10) == stable


COMPACT_SCHEMES = ("order4", "order4-consistent", "order6", "order6-consistent")


class TestVonNeumannBoundsDirichletSpectrum:
    # a von Neumann pass over the theta grid must imply that the assembled
    # Dirichlet step A^-1 B has spectral radius at most 1 + 1e-12; the
    # converse does not hold: the Dirichlet rows drop the modes that make
    # some failing cells unstable
    ALPHAS = [0.5, 0.7, 0.9, 0.99]
    COEFFICIENTS = [(1.0, 1.0, 1.0), (1.0, 0.01, 1.0), (2.0, 1.0, 10.0)]
    # the counts pin the grid, so that the test cannot pass vacuously
    VON_NEUMANN_FAILS = {"order4": 3, "order4-consistent": 7, "order6": 10,
                         "order6-consistent": 11}

    def test_pass_bounds_spectral_radius(self):
        zero = lambda x, t=0.0: np.zeros_like(x)
        fails, contractive_fails = dict.fromkeys(COMPACT_SCHEMES, 0), []
        for scheme in COMPACT_SCHEMES:
            for d1, d2, da in self.COEFFICIENTS:
                for M in (16, 32):
                    scan = stability_scan(scheme, self.ALPHAS, [1.0 / M], [0.01],
                                          d1, d2, da, 4096)
                    for alpha, passed in zip(self.ALPHAS, scan.passed.tolist()):
                        spec = ProblemSpec(d1=d1, d2=d2, d_alpha=da, alpha=alpha,
                                           a=0.0, b=1.0, T=1.0, source=zero,
                                           initial=zero)
                        with warnings.catch_warnings():  # order4 above its limit
                            warnings.simplefilter("ignore")
                            mats = assemble(scheme, spec, M, 0.01)
                        rho = np.abs(np.linalg.eigvals(
                            np.linalg.solve(mats.A, mats.B))).max()
                        cell = (scheme, alpha, d1, d2, da, M, rho)
                        if passed:
                            assert rho <= 1.0 + 1e-12, cell
                        else:
                            fails[scheme] += 1
                            if rho < 1.0:
                                contractive_fails.append(cell)
        assert fails == self.VON_NEUMANN_FAILS
        assert len(contractive_fails) == 3, contractive_fails


class TestVerdictDependsOnScaledParameters:
    # with Pe = d1 h / d2 and kappa = d_alpha h**(2 - alpha) / d2, dividing
    # the group by (2/tau) d2 / h**2 leaves a function of the scheme,
    # alpha, Pe, kappa and theta: the verdict depends on those alone

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_verdict_at_same_peclet_and_kappa(self, scheme):
        alpha, kappa, tau = 0.9, 0.3, 0.01
        verdicts, groups = [], []
        for d1, d2, h in ((1.0, 1.0, 1 / 16), (2.0, 3.0, 3 / 32)):  # Pe = 1/16
            rep = stability_scan(scheme, [alpha], [h], [tau], d1, d2,
                                 kappa * d2 / h ** (2 - alpha), 4096)
            verdicts.append(bool(rep.passed[0]))
            groups.append(rep.min_real_group[0] / ((2 / tau) * d2 / h ** 2))
        assert verdicts[0] == verdicts[1]
        assert abs(groups[0] - groups[1]) <= 2.4e-13 * abs(groups[0])

    # at h = d2 = 1, Pe = d1 and kappa = d_alpha; alpha = 0.01..0.99 by 0.02
    ALPHAS = [round(0.01 + 0.02 * i, 2) for i in range(50)]
    PECLET = (0.001, 0.1, 1.0, 4.0)
    KAPPA = (0.001, 0.1, 1.0, 10.0)
    # scheme -> (number of (Pe, kappa) with an unstable alpha, first
    # unstable alpha at (Pe, kappa) = (1, 1))
    UNSTABLE = {"order2": (0, None), "order4": (9, 0.95), "order6": (12, 0.77),
                "order4-consistent": (12, 0.93), "order6-consistent": (12, 0.75)}

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_verdict_turns_unstable_at_most_once_along_alpha(self, scheme):
        first = {}
        for pe in self.PECLET:
            for kappa in self.KAPPA:
                passed = stability_scan(scheme, self.ALPHAS, [1.0], [0.01], pe,
                                        1.0, kappa, 1024).passed.tolist()
                k = passed.index(False) if False in passed else len(passed)
                assert passed == [True] * k + [False] * (len(passed) - k), (pe, kappa)
                if k < len(passed):
                    first[pe, kappa] = self.ALPHAS[k]
        assert (len(first), first.get((1.0, 1.0))) == self.UNSTABLE[scheme]
        if scheme == "order4":  # stable at the largest Pe and smallest kappa
            assert all(pe != 4.0 and kappa != 0.001 for pe, kappa in first), first
