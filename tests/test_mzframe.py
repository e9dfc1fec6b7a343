import math

import numpy as np
import pytest

from freudquad import (
    GapViolationError,
    NotAFrameError,
    QuadratureRule,
    SpaceWeight,
    UnboundedTailError,
    basis_matrix,
    build_system,
    gauss_rule,
    generalized_weights,
    mrs_number,
    perturb_nodes,
    phi_lambda,
    sup_envelope_constant,
    support_check,
    wce_bound,
    wce_series,
)
import freudquad.wce as wce_mod
from freudquad.mzframe import _signs
from freudquad.wce import series_truncation

PI = math.pi


@pytest.fixture(scope="module")
def gauss22(basis2):
    return gauss_rule(basis2, 21)


class TestBuildSystem:
    def test_gauss_nodes_give_identity(self, basis2, gauss22):
        system = build_system(basis2, 20, gauss22.nodes, gauss22.tau)
        assert np.abs(system.gram - np.eye(21)).max() < 1e-8
        assert system.a_n == pytest.approx(1.0, abs=1e-8)
        assert system.b_n == pytest.approx(1.0, abs=1e-8)

    def test_single_node_parity_degeneracy(self, basis2):
        with pytest.raises(NotAFrameError) as exc:
            build_system(basis2, 1, np.array([0.0]), np.array([1.0]))
        # the odd direction is the lost one
        null = exc.value.null_vector
        assert null is not None
        assert abs(null[1]) > 0.99

    def test_perturbed_constants_near_one(self, basis2, gauss22):
        nodes, tau = perturb_nodes(gauss22, 0.01, sign_mode="positive")
        system = build_system(basis2, 20, nodes, tau)
        assert 0.9 < system.a_n <= system.b_n < 1.1

    def test_rayleigh_sandwich(self, basis2, gauss22):
        nodes, tau = perturb_nodes(gauss22, 0.02, sign_mode="alternating")
        system = build_system(basis2, 20, nodes, tau)
        rng = np.random.default_rng(5)
        c = rng.normal(size=(1000, 21))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        quotients = np.einsum("ij,jk,ik->i", c, system.gram, c)
        assert quotients.min() >= system.a_n - 1e-10
        assert quotients.max() <= system.b_n + 1e-10

    def test_weight_sum_identity(self, basis2, gauss22):
        # sum_x tau(x) / Lambda_n(x) = trace of the Gram <= b_n (n+1)
        nodes, tau = perturb_nodes(gauss22, 0.03, sign_mode="random", seed=11)
        system = build_system(basis2, 20, nodes, tau)
        H = basis_matrix(basis2, nodes, 20)
        lhs = float(np.sum(tau * np.sum(H * H, axis=0)))
        assert lhs <= system.b_n * 21.0 + 1e-10

    def test_validation(self, basis2):
        with pytest.raises(ValueError):
            build_system(basis2, 2, np.array([0.1, 0.1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            build_system(basis2, 2, np.array([0.1, 0.2]), np.array([1.0]))
        with pytest.raises(ValueError):
            build_system(basis2, 2, np.array([0.1, 0.2]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="need at least one node"):
            build_system(basis2, 3, [], [])
        # it said "range() arg 3 must not be zero", numpy's message
        with pytest.raises(ValueError, match="basis index must be >= 0, got -1"):
            build_system(basis2, -1, np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_nodes_or_tau(self, basis2, bad):
        # NaN passes a sign test on tau; a NaN row of the Gram matrix would
        # reach eigh
        for nodes, tau in (([0.1, bad], [1.0, 1.0]), ([0.1, 0.2], [1.0, bad])):
            with pytest.raises(ValueError, match="must be finite"):
                build_system(basis2, 1, np.array(nodes), np.array(tau))


class TestGeneralizedWeights:
    def test_gauss_special_case(self, basis2, gauss22):
        system = build_system(basis2, 20, gauss22.nodes, gauss22.tau)
        omega = generalized_weights(system, basis2)
        assert np.max(np.abs(omega - gauss22.omega) / gauss22.omega) < 1e-9

    def test_small_perturbation_keeps_positivity(self, basis2, gauss22):
        nodes, tau = perturb_nodes(gauss22, 0.01, sign_mode="positive")
        system = build_system(basis2, 20, nodes, tau)
        omega = generalized_weights(system, basis2)
        assert np.all(omega > 0)

    def test_symmetric_system_symmetric_weights(self, basis2):
        # alternating signs on an even node count preserve reflection symmetry
        rule = gauss_rule(basis2, 10)
        nodes, tau = perturb_nodes(rule, 0.005, sign_mode="alternating")
        assert np.abs(nodes + nodes[::-1]).max() < 1e-15
        system = build_system(basis2, 9, nodes, tau)
        omega = generalized_weights(system, basis2)
        assert np.abs(omega - omega[::-1]).max() < 1e-12

    def test_exactness_on_subspace(self, basis2, gauss22):
        # the generalized rule reproduces integral h_k W for all k <= n
        nodes, tau = perturb_nodes(gauss22, 0.05, sign_mode="random", seed=3)
        system = build_system(basis2, 20, nodes, tau)
        omega = generalized_weights(system, basis2)
        H = basis_matrix(basis2, nodes, 20)
        e = H @ omega
        target = np.zeros(21)
        target[0] = 2.0 ** -0.25
        assert np.abs(e - target).max() < 1e-12


class TestPerturbNodes:
    def test_zero_magnitude_unchanged(self, gauss22):
        nodes, tau = perturb_nodes(gauss22, 0.0, sign_mode="random", seed=9)
        assert np.array_equal(nodes, gauss22.nodes)
        assert np.array_equal(tau, gauss22.tau)

    def test_reproducible(self, gauss22):
        a1 = perturb_nodes(gauss22, 0.05, sign_mode="random", seed=7)[0]
        a2 = perturb_nodes(gauss22, 0.05, sign_mode="random", seed=7)[0]
        assert np.array_equal(a1, a2)
        a3 = perturb_nodes(gauss22, 0.05, sign_mode="random", seed=8)[0]
        assert not np.array_equal(a1, a3)

    def test_gap_violation(self, gauss22):
        gap = float(np.min(np.diff(gauss22.nodes)))
        # nodes 0 and 1, 0.309723 apart, each move the minimal gap toward the
        # other; the first pair that crosses is named
        with pytest.raises(GapViolationError, match="gap 0.309723 between nodes 0 and 1"):
            perturb_nodes(gauss22, gap, sign_mode="alternating")
        # one sign moves every node alike: no shift reorders them
        nodes, _ = perturb_nodes(gauss22, 10.0 * gap, sign_mode="positive")
        assert np.array_equal(nodes, gauss22.nodes + 10.0 * gap)

    @pytest.mark.parametrize("sign_mode", ["random", "alternating", "positive"])
    @pytest.mark.parametrize("allow_reorder", [False, True])
    @pytest.mark.parametrize("integer_nodes", [False, True])
    def test_raises_exactly_when_shifted_neighbours_cross(
        self, gauss22, sign_mode, allow_reorder, integer_nodes
    ):
        # brute force over the shifted nodes: neighbours in the rule's order
        # must stay strictly increasing, or with allow_reorder every pair
        # must stay distinct; integer nodes coincide exactly at eps 0.5 and 1
        rule = gauss22
        if integer_nodes:
            x = np.arange(-5.0, 6.0)
            rule = QuadratureRule(2.0, x.size, x, np.ones(x.size), np.ones(x.size))
        gap = float(np.min(np.diff(rule.nodes)))
        for eps in (0.0, 0.3 * gap, 0.5 * gap, 0.7 * gap, gap, 1.5 * gap, 4.0):
            for seed in range(20):
                shifted = rule.nodes + _signs(sign_mode, rule.nodes.size, seed) * eps
                m = shifted.size
                if allow_reorder:
                    bad = any(shifted[i] == shifted[j]
                              for i in range(m) for j in range(i + 1, m))
                else:
                    bad = any(shifted[i + 1] <= shifted[i] for i in range(m - 1))
                if bad:
                    with pytest.raises(GapViolationError, match="gap"):
                        perturb_nodes(rule, eps, sign_mode, seed, allow_reorder)
                else:
                    nodes, _ = perturb_nodes(rule, eps, sign_mode, seed, allow_reorder)
                    assert np.array_equal(nodes, shifted)

    def test_allow_reorder_escape_hatch(self, gauss22):
        gap = float(np.min(np.diff(gauss22.nodes)))
        nodes, tau = perturb_nodes(
            gauss22, gap, sign_mode="random", seed=7, allow_reorder=True
        )
        assert np.unique(nodes).size == nodes.size

    def test_invalid(self, gauss22):
        with pytest.raises(ValueError):
            perturb_nodes(gauss22, -0.1)
        with pytest.raises(ValueError):
            perturb_nodes(gauss22, 0.01, sign_mode="sideways")


class TestSupportCheck:
    def test_gauss_nodes_within_bound(self, basis2):
        for n in (2, 4, 8, 16, 32, 64):
            rule = gauss_rule(basis2, n)
            assert support_check(rule.nodes, 2.0, n, L=3.0)

    def test_far_node_fails(self):
        n = 8
        bad = np.array([0.0, 10.0 * mrs_number(2.0, n)])
        assert not support_check(bad, 2.0, n)

    def test_perturbed_still_within(self, basis2):
        for n in (4, 9, 16):
            rule = gauss_rule(basis2, n)
            nodes = rule.nodes + 0.1
            assert support_check(nodes, 2.0, n, L=3.0)


class TestPhiLambda:
    def test_double_sum_oracle(self, basis2, gauss22):
        system = build_system(basis2, 20, gauss22.nodes, gauss22.tau)
        space = SpaceWeight.polynomial(3.0)
        got = phi_lambda(basis2, space, system, k_max=599)
        # same quantity summed in the transposed order
        H = basis_matrix(basis2, system.nodes, 599)
        brute = 0.0
        for j in range(system.nodes.size):
            brute += float(system.tau[j]) * float(
                np.sum(H[21:, j] ** 2 / (1.0 + np.arange(21, 600)) ** 3)
            )
        assert got == pytest.approx(brute, rel=1e-10)

    def test_large_s_first_term_dominates(self, basis2, gauss22):
        system = build_system(basis2, 20, gauss22.nodes, gauss22.tau)
        space = SpaceWeight.polynomial(40.0)
        got = phi_lambda(basis2, space, system, k_max=200)
        H = basis_matrix(basis2, system.nodes, 21)
        first = float(np.sum(system.tau * H[21] ** 2)) / 22.0 ** 40
        assert got == pytest.approx(first, rel=1e-8)

    def test_nonnegative(self, basis2, gauss22):
        system = build_system(basis2, 20, gauss22.nodes, gauss22.tau)
        assert phi_lambda(basis2, SpaceWeight.polynomial(3.0), system, k_max=100) >= 0.0

    def test_adaptive_matches_deep_fixed(self, basis2_deep, basis2):
        rule = gauss_rule(basis2, 11)
        system = build_system(basis2_deep, 10, rule.nodes, rule.tau)
        space = SpaceWeight.exponential(1.0, math.log(1.25))
        auto = phi_lambda(basis2_deep, space, system)
        deep = phi_lambda(basis2_deep, space, system, k_max=4000)
        assert auto == pytest.approx(deep, rel=1e-10)

    def test_abstract_bound_holds(self, basis2, gauss22):
        # measured squared worst-case error <= phi / a_n on matched depth
        nodes, tau = perturb_nodes(gauss22, 0.04, sign_mode="random", seed=17)
        system = build_system(basis2, 20, nodes, tau)
        omega = generalized_weights(system, basis2)
        space = SpaceWeight.polynomial(3.0)
        measured = wce_series(nodes, omega, basis2, space, start=21, k_max=599)
        phi = phi_lambda(basis2, space, system, k_max=599)
        assert measured <= wce_bound(phi, system.a_n) + 1e-12

    @pytest.mark.parametrize(
        "space, tol",
        [
            (SpaceWeight.exponential(1.0, math.log(1.25)), 1e-12),
            (SpaceWeight.mod_exp(1.0), 1e-12),
            (SpaceWeight.polynomial(3.0), 1e-6),
        ],
    )
    def test_adaptive_depth_is_series_truncation(self, basis2_deep, basis2, space, tol):
        # the same truncation index as wce_series from the first tail mode n+1
        rule = gauss_rule(basis2, 11)
        system = build_system(basis2_deep, 10, rule.nodes, rule.tau)
        K = series_truncation(
            space, 11, tol, 2.0, sup_envelope_constant(basis2_deep)
        )
        auto = phi_lambda(basis2_deep, space, system, tol=tol)
        assert auto == phi_lambda(basis2_deep, space, system, tol=tol, k_max=K)

    def test_one_truncation_for_all_nodes(self, basis2_deep, monkeypatch):
        # every node row starts at n + 1, so one series_truncation serves all 41
        rule = gauss_rule(basis2_deep, 41)
        system = build_system(basis2_deep, 40, rule.nodes, rule.tau)
        space = SpaceWeight.mod_exp(1.0)
        K = series_truncation(space, 41, 1e-12, 2.0, sup_envelope_constant(basis2_deep))
        calls = []

        def counted(*args):
            calls.append(args)
            return series_truncation(*args)

        monkeypatch.setattr(wce_mod, "series_truncation", counted)
        auto = phi_lambda(basis2_deep, space, system)
        assert len(calls) == 1
        assert auto == phi_lambda(basis2_deep, space, system, k_max=K)

    def test_slow_weight_raises_instead_of_partial_sum(self, basis2_deep):
        # poly(2/3) is below the envelope's summability threshold s > 5/6;
        # the partial sum is still growing at capacity (6.995 at 26 000 modes)
        rule = gauss_rule(basis2_deep, 21)
        system = build_system(basis2_deep, 20, rule.nodes, rule.tau)
        with pytest.raises(UnboundedTailError):
            phi_lambda(basis2_deep, SpaceWeight.polynomial(2.0 / 3.0), system, tol=1e-3)
