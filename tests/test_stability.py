"""Growth-factor evaluation and von Neumann scans."""

import math

import numpy as np
import pytest

from rieszkit import (
    AmplificationQuery,
    amplification_factor,
    expand_generating_function,
    stability_scan,
    symbol_values,
)
from rieszkit.stability import _amplification

GRID = [1e-3, 1e-2, 1e-1, 1.0]


class TestAmplificationFactor:
    @pytest.mark.parametrize("scheme", ["order2", "order4", "order6"])
    def test_unity_at_zero_angle(self, scheme):
        q = AmplificationQuery(scheme, 0.5, 0.1, 0.05, 1.0, 1.0, 1.0, 0.0)
        assert amplification_factor(q) == 1.0 + 0.0j

    @pytest.mark.parametrize("scheme", ["order2", "order4", "order6"])
    def test_conjugate_symmetry(self, scheme):
        for theta in (0.3, 1.1, 2.9):
            qp = AmplificationQuery(scheme, 0.4, 0.2, 0.1, 1.0, 1.0, 1.0, theta)
            qm = AmplificationQuery(scheme, 0.4, 0.2, 0.1, 1.0, 1.0, 1.0, -theta)
            zp, zm = amplification_factor(qp), amplification_factor(qm)
            assert abs(zp - zm.conjugate()) < 1e-14

    def test_order2_bounded_at_pi(self):
        q = AmplificationQuery("order2", 0.5, 0.1, 0.1, 1.0, 1.0, 1.0, math.pi)
        assert abs(amplification_factor(q)) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AmplificationQuery("order3", 0.5, 0.1, 0.1, 1, 1, 1, 0.0)
        with pytest.raises(ValueError):
            AmplificationQuery("order2", 0.5, -0.1, 0.1, 1, 1, 1, 0.0)
        with pytest.raises(ValueError):
            AmplificationQuery("order2", 1.5, 0.1, 0.1, 1, 1, 1, 0.0)


class TestScan:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.8])
    @pytest.mark.parametrize("h", GRID)
    def test_order2_unconditional(self, alpha, h):
        for rep in stability_scan("order2", alpha, [h], GRID, 1, 1, 1, 1024):
            assert rep.passed
            # structural identity: the real group's sign decides the bound
            assert rep.min_real_group >= -1e-12

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_order4_within_limit(self, alpha):
        for rep in stability_scan("order4", alpha, GRID, GRID, 1, 1, 1, 1024):
            assert rep.passed

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 0.7])
    def test_order6_moderate_orders(self, alpha):
        for rep in stability_scan("order6", alpha, GRID, GRID, 1, 1, 1, 1024):
            assert rep.passed

    def test_order6_large_alpha_coarse_mesh_grows(self):
        # the symbol turns negative above alpha ~ 0.555 for the six-point
        # weights; with h = 1 the fractional term dominates and the scan
        # correctly reports growth
        [rep] = stability_scan("order6", 0.8, [1.0], [0.1], 1, 1, 1, 2048)
        assert not rep.passed
        assert rep.min_real_group < 0.0

    def test_cells_h_outer_tau_inner(self):
        hs, taus = [0.5, 0.01], [0.2, 1.0, 0.003]
        reps = stability_scan("order4", 0.6, hs, taus, 0.3, 2.0, 0.7, 1024)
        assert [(r.h, r.tau) for r in reps] == [(h, t) for h in hs for t in taus]
        for r in reps:
            q = AmplificationQuery("order4", 0.6, r.h, r.tau, 0.3, 2.0, 0.7,
                                   r.theta_at_max)
            assert abs(abs(amplification_factor(q)) - r.max_abs) < 1e-14

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            stability_scan("order2", 0.5, [0.1], [0.1], 1, 1, 1, 100)

    @pytest.mark.parametrize("args", [
        ("order3", 0.5, [0.1], [0.1], 1, 1, 1),
        ("order2", 0.5, [0.1, 0.0], [0.1], 1, 1, 1),
        ("order2", 0.5, [0.1], [0.1, 0.0], 1, 1, 1),
        ("order4", 0.5, [0.1], [0.1], 0, 1, 1),
        ("order4", 0.5, [0.1], [0.1], 1, -1, 1),
        ("order6", 0.5, [0.1], [0.1], 1, 1, 0),
        ("order2", 0.5, [math.nan], [0.1], 1, 1, 1),
        ("order2", 1.5, [0.1], [0.1], 1, 1, 1),
        ("order2", 0.5, [], [0.1], 1, 1, 1),
    ])
    def test_input_validation(self, args):
        with pytest.raises(ValueError):
            stability_scan(*args, 1024)


class TestPeriodicCompanionSpectrum:
    def test_order2_matches_matrix_eigenvalues(self):
        # periodic variant: the one-step companion matrix is circulant, its
        # eigenvalues realize the growth factors at the discrete angles
        alpha, h, tau, d1, d2, da = 0.8, 0.1, 0.1, 1.0, 1.0, 1.0
        M = 128
        big = 200 * M
        w = expand_generating_function(2, alpha, big).values
        wrapped = np.zeros(M)
        for ell in range(big + 1):
            wrapped[ell % M] += w[ell]
        nu = da / (2 * math.cos(math.pi * alpha / 2) * h ** alpha)
        A = np.zeros((M, M))
        B = np.zeros((M, M))
        for j in range(M):
            A[j, (j - 1) % M] -= d2 / h ** 2 + d1 / (2 * h)
            B[j, (j - 1) % M] += d2 / h ** 2 + d1 / (2 * h)
            A[j, j] += 2 / tau + 2 * d2 / h ** 2
            B[j, j] += 2 / tau - 2 * d2 / h ** 2
            A[j, (j + 1) % M] -= d2 / h ** 2 - d1 / (2 * h)
            B[j, (j + 1) % M] += d2 / h ** 2 - d1 / (2 * h)
            for m in range(M):
                A[j, (j - m) % M] += nu * wrapped[m]
                A[j, (j + m) % M] += nu * wrapped[m]
                B[j, (j - m) % M] -= nu * wrapped[m]
                B[j, (j + m) % M] -= nu * wrapped[m]
        eigs = np.linalg.eigvals(np.linalg.solve(A, B))
        thetas = 2 * math.pi * np.arange(M) / M
        thetas = np.where(thetas > math.pi, thetas - 2 * math.pi, thetas)
        xi, _ = _amplification("order2", alpha, h, tau, d1, d2, da, thetas,
                               symbol_values(2, alpha, thetas))
        got = np.sort(np.abs(eigs))
        ref = np.sort(np.abs(xi))
        assert np.max(np.abs(got - ref)) < 5e-4
        assert got[-1] <= 1.0 + 1e-10
