import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import freudquad.gaussquad as gaussquad
import freudquad.orthopoly as orthopoly
from freudquad import (
    CapacityError,
    EvaluationFailure,
    basis_matrix,
    build_basis,
    eval_basis,
    gauss_rule,
    integrate,
    mrs_number,
    weight_value,
)

PI = math.pi


def _matrix_gauss_rule(basis, n):
    """``gauss_rule`` with h_0..h_n held as one (n+1) x n matrix: the Newton
    step and tau read it whole, tau as np.sum(H * H, axis=0)."""
    def polish(x):
        a, H = basis.coeffs, basis_matrix(basis, x, n)
        dlogW = -PI * basis.alpha * np.abs(x) ** (basis.alpha - 1.0) * np.sign(x)
        d_prev, d_cur = np.zeros_like(x), H[0] * dlogW
        for k in range(n):
            am = a[k - 1] if k >= 1 else 0.0
            d_prev, d_cur = d_cur, (H[k] + x * d_cur - am * d_prev) / a[k]
        safe = np.abs(d_cur) > 0
        step = np.zeros_like(x)
        step[safe] = H[n][safe] / d_cur[safe]
        return x - step

    if n == 1:
        nodes = np.zeros(1)
    else:
        nodes = np.sort(eigh_tridiagonal(np.zeros(n), basis.coeffs[: n - 1],
                                         eigvals_only=True))
        nodes = polish(nodes)
        nodes = 0.5 * (nodes - nodes[::-1])
    H = basis_matrix(basis, nodes, n)
    tau = 1.0 / np.sum(H * H, axis=0)
    return nodes, tau * weight_value(basis.alpha, nodes), tau


class TestStreamedGaussRule:
    @pytest.mark.parametrize("alpha, ns", [
        (2.0, range(1, 61)),
        (4.0, range(1, 61)),
        (1.8, range(1, 61)),
        (2.0, (700, 800, 1000)),  # NaN weights at 800 and 1000 (ROADMAP item 4)
        (1.5, range(1, 40)),
        (6.0, range(1, 61)),
    ])
    def test_same_bits_as_the_matrix_formulation(self, alpha, ns):
        basis = build_basis(alpha, max(ns) + 1)
        with np.errstate(all="ignore"):
            for n in ns:
                rule = gauss_rule(basis, n)
                ref = _matrix_gauss_rule(basis, n)
                for got, want in zip((rule.nodes, rule.omega, rule.tau), ref):
                    assert np.array_equal(got, want, equal_nan=True), n

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [2.0, 4.0, 1.8])
    def test_same_bits_at_block_boundaries(self, monkeypatch, alpha, rows):
        # blocks of `rows` rows put h_{n-1} and h_n in two blocks for some n
        basis = build_basis(alpha, 41)
        for n in range(2, 41):
            monkeypatch.setattr(orthopoly, "_SWEEP_BYTES", 8 * n * rows)
            monkeypatch.setattr(gaussquad, "_CHRISTOFFEL_BYTES", 8 * n * rows)
            rule = gauss_rule(basis, n)
            ref = _matrix_gauss_rule(basis, n)
            for got, want in zip((rule.nodes, rule.omega, rule.tau), ref):
                assert np.array_equal(got, want), n

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("alpha", [2.0, 4.0, 1.8])
    def test_christoffel_same_bits_for_any_block(self, monkeypatch, alpha, rows):
        # 50 points: the default block holds every row up to n = 40
        basis = build_basis(alpha, 41)
        x = np.linspace(-1.2, 1.2, 50) * mrs_number(alpha, 41)
        for n in (1, 2, 6, 7, 8, 21, 40):
            want = gaussquad._christoffel(basis, x, n)
            monkeypatch.setattr(gaussquad, "_CHRISTOFFEL_BYTES", 8 * x.size * rows)
            got = gaussquad._christoffel(basis, x, n)
            monkeypatch.undo()
            for g, w in zip(got, want):
                assert np.array_equal(g, w), n

    def test_holds_one_small_block(self):
        # one 64 KiB block and a few rows; two 1 MiB blocks would be 2.1 MiB
        basis = build_basis(2.0, 701)
        tracemalloc.start()
        try:
            gauss_rule(basis, 700)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_holds_no_basis_matrix(self):
        n = 1000
        basis = build_basis(2.0, n + 1)
        full = (n + 1) * n * 8  # one (n+1) x n float64 matrix, 8 MB
        with np.errstate(all="ignore"):
            tracemalloc.start()
            try:
                gauss_rule(basis, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < full


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
