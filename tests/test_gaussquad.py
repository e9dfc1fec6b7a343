import math

import numpy as np
import pytest

from freudquad import (
    CapacityError,
    EvaluationFailure,
    basis_matrix,
    eval_basis,
    gauss_rule,
    integrate,
    mrs_number,
    weight_value,
)

PI = math.pi


class TestGaussRule:
    def test_two_point_nodes(self, basis2):
        rule = gauss_rule(basis2, 2)
        a1 = math.sqrt(1.0 / (4.0 * PI))
        assert rule.nodes == pytest.approx([-a1, a1], rel=1e-14)

    def test_exactness(self, basis2):
        # sum_x omega h_k equals the integral of h_k W: 2^(-1/4) delta_k0
        rule = gauss_rule(basis2, 21)
        H = basis_matrix(basis2, rule.nodes, 41)
        e = H @ rule.omega
        target = np.zeros(42)
        target[0] = 2.0 ** -0.25
        assert np.abs(e - target).max() < 1e-9

    def test_weight_sum_below_one(self, basis2):
        for n in (1, 2, 5, 13, 27, 40):
            rule = gauss_rule(basis2, n)
            assert rule.omega.sum() <= 1.0 + 1e-10
            assert np.all(rule.omega > 0)
            assert np.all(rule.tau > 0)

    def test_node_symmetry_and_order(self, basis2):
        rule = gauss_rule(basis2, 20)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.abs(rule.nodes + rule.nodes[::-1]).max() < 1e-12
        assert np.abs(rule.omega - rule.omega[::-1]).max() < 1e-15

    def test_interlacing(self, basis2):
        r1 = gauss_rule(basis2, 12)
        r2 = gauss_rule(basis2, 13)
        # every gap of the order-13 rule contains exactly one order-12 node
        counts = np.searchsorted(r2.nodes, r1.nodes)
        assert list(counts) == list(range(1, 13))

    def test_node_support_bound(self, basis2):
        for n in (2, 8, 16, 32, 64):
            rule = gauss_rule(basis2, n)
            limit = mrs_number(2.0, n) * (1.0 + 3.0 * n ** (-2.0 / 3.0))
            assert np.abs(rule.nodes).max() <= limit

    def test_degree_sharpness(self, basis2):
        # residuals sit at rounding level through k=2n-1, then jump
        for n in (5, 9):
            rule = gauss_rule(basis2, n)
            H = basis_matrix(basis2, rule.nodes, 2 * n)
            e = H @ rule.omega
            below = np.abs(e[1: 2 * n]).max()
            assert below < 1e-12
            assert abs(e[2 * n]) > 1e6 * below

    def test_golub_welsch_cross_check(self, basis2):
        # eigenvector weights for the W^2 measure equal Lambda_n W^2
        from scipy.linalg import eigh_tridiagonal

        n = 17
        rule = gauss_rule(basis2, n)
        evals, evecs = eigh_tridiagonal(np.zeros(n), basis2.coeffs[: n - 1])
        order = np.argsort(evals)
        mu0 = 1.0 / basis2.c0 ** 2
        gw = mu0 * evecs[0, order] ** 2
        expected = rule.tau * weight_value(2.0, rule.nodes) ** 2
        assert np.abs(gw - expected).max() / expected.max() < 1e-10
        assert np.abs(gw / weight_value(2.0, rule.nodes) - rule.omega).max() < 1e-12

    def test_capacity(self, basis2):
        with pytest.raises(CapacityError):
            gauss_rule(basis2, basis2.n_max)

    def test_invalid_n(self, basis2):
        with pytest.raises(ValueError):
            gauss_rule(basis2, 0)


class TestIntegrate:
    def test_h0(self, basis2):
        rule = gauss_rule(basis2, 21)
        val = integrate(rule, lambda x: eval_basis(basis2, x, 0)[0])
        assert val == pytest.approx(2.0 ** -0.25, abs=1e-12)

    def test_h5_vanishes(self, basis2):
        rule = gauss_rule(basis2, 21)
        val = integrate(rule, lambda x: eval_basis(basis2, x, 5)[5])
        assert abs(val) < 1e-10

    def test_constant_one(self, basis2):
        rule = gauss_rule(basis2, 21)
        val = integrate(rule, lambda x: 1.0)
        assert val <= 1.0
        assert val >= 1.0 - 1e-6

    def test_evaluator_failure_carries_index(self, basis2):
        rule = gauss_rule(basis2, 5)

        def bad(x):
            if x > 0:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(EvaluationFailure) as exc:
            integrate(rule, bad)
        assert exc.value.index == 3  # first positive node of the 5-point rule
