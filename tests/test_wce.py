import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freudquad import (
    CapacityError,
    ConvergenceError,
    FreudQuadError,
    SpaceWeight,
    UnboundedTailError,
    WCETable,
    basis_matrix,
    build_basis,
    gauss_rule,
    lambda_of,
    slope_fit,
    sup_envelope_constant,
    tensor_wce,
    wce_bound,
    wce_me2,
    wce_series,
)
import freudquad.wce as wce_mod
from freudquad.experiments import _shifted_rule
from freudquad.orthopoly import _SWEEP_BYTES
from freudquad.wce import _ExactSums, _wce_series_rows, series_truncation


def me2_reference(nodes, omega, t, dps=40):
    """wce_me2 written out pair by pair, at ``dps`` digits: every term of the
    unfactored kernel computed in place."""
    with mp.workdps(dps):
        tm = mp.mpf(t)
        pref = mp.sqrt(2 / (tm * tm - 1))
        c = mp.pi / (tm * tm - 1)
        xs = [mp.mpf(float(v)) for v in nodes]
        ws = [mp.mpf(float(v)) for v in omega]
        terms = []
        m = len(xs)
        for i in range(m):
            xi, wi = xs[i], ws[i]
            terms.append(wi * wi * pref * mp.exp(c * (4 * tm - 2 * (tm * tm + 1)) * xi * xi))
            for j in range(i + 1, m):
                xj = xs[j]
                kv = pref * mp.exp(
                    c * (4 * tm * xi * xj - (tm * tm + 1) * (xi * xi + xj * xj))
                )
                terms.append(2 * wi * ws[j] * kv)
        double_sum = mp.fsum(terms)
        cross = mp.fsum(w * mp.exp(-mp.pi * x * x) for w, x in zip(ws, xs))
        return float(1 / (mp.sqrt(2) * tm) + double_sum - 2 * cross / tm)


def count_exp(monkeypatch):
    """Count the mp.exp calls made from here on."""
    calls = [0]
    exp = mp.exp

    def counted(*args, **kwargs):
        calls[0] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(mp, "exp", counted)
    return calls


class TestWceMe2:
    def test_empty_rule(self):
        with pytest.warns(UserWarning):
            val = wce_me2(np.array([]), np.array([]), 1.25)
        assert val == pytest.approx(1.0 / (math.sqrt(2.0) * 1.25), rel=1e-15)

    def test_invalid_t(self, basis2):
        rule = gauss_rule(basis2, 3)
        with pytest.raises(ValueError):
            wce_me2(rule.nodes, rule.omega, 1.0)

    @pytest.mark.parametrize(
        "nodes, omega",
        [
            # zip would drop the second node and score the one-node rule
            ([0.0, 1.0], [1.0]),
            ([0.0], [1.0, 1.0]),
            ([[0.0, 1.0]], [[1.0, 1.0]]),
            (0.0, 1.0),
        ],
    )
    def test_mismatched_or_not_1d_is_rejected(self, nodes, omega):
        with pytest.raises(ValueError, match="nodes and omega must be 1-D arrays "
                           "of equal length"):
            wce_me2(nodes, omega, 1.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_node_or_weight_is_rejected(self, bad):
        # each of these scored NaN, or an infinite node dropped out silently
        for nodes, omega in (([0.0, bad], [1.0, 1.0]), ([-0.5, 0.5], [1.0, bad]),
                             ([-bad, bad], [1.0, 1.0])):
            with pytest.raises(ValueError, match="nodes and omega must be finite"):
                wce_me2(np.array(nodes), np.array(omega), 1.25)

    def test_cross_path_small(self, basis2, basis2_deep):
        rule = gauss_rule(basis2, 3)
        v_kernel = wce_me2(rule.nodes, rule.omega, 1.25)
        v_series = wce_series(
            rule.nodes, rule.omega, basis2_deep, SpaceWeight.geometric(1.25), start=6
        )
        assert v_kernel == pytest.approx(v_series, rel=1e-12)

    def test_cross_path_sweep(self, basis2, basis2_deep):
        for t in (1.25, 50.0 / 49.0):
            space = SpaceWeight.geometric(t)
            for n in (3, 9, 15, 21):
                rule = gauss_rule(basis2, n)
                v_kernel = wce_me2(rule.nodes, rule.omega, t)
                v_series = wce_series(
                    rule.nodes, rule.omega, basis2_deep, space, start=2 * n
                )
                assert v_kernel == pytest.approx(v_series, rel=1e-12)

    def test_never_significantly_negative(self, basis2):
        for n in range(3, 42, 2):
            rule = gauss_rule(basis2, n)
            assert wce_me2(rule.nodes, rule.omega, 1.25) > -1e-12

    def test_slope_below_theory_ceiling(self, basis2):
        ns = list(range(3, 42, 2))
        vals = [wce_me2(*(lambda r: (r.nodes, r.omega))(gauss_rule(basis2, n)), 1.25)
                for n in ns]
        slope, _ = slope_fit(ns, np.log10(vals))
        assert slope <= -2.0 * math.log10(1.25) + 0.02


def assert_within_one_ulp(value, oracle, label):
    assert abs(value - oracle) <= math.ulp(oracle), (label, value, oracle)


class TestWceMe2Terms:
    """wce_me2 factors the kernel and pairs mirrored nodes; the 40-digit
    values are those of the unfactored sum, and deep cancellation gets more
    digits."""

    @pytest.mark.parametrize("t", [1.25, 50.0 / 49.0])
    def test_gauss_rules_match_reference(self, basis2, t):
        for n in range(1, 42):
            rule = gauss_rule(basis2, n)
            assert wce_me2(rule.nodes, rule.omega, t) == me2_reference(
                rule.nodes, rule.omega, t
            ), n

    @pytest.mark.parametrize("t", [2.0, 3.0, 5.0])
    def test_gauss_rules_match_oracle(self, basis2, t):
        # up to 35 of the 40 digits cancel at these t, so from n = 9..17 on
        # the value comes from a second pass at 80 digits; the oracle is the
        # unfactored sum at 120 digits
        for n in range(1, 42):
            rule = gauss_rule(basis2, n)
            assert_within_one_ulp(
                wce_me2(rule.nodes, rule.omega, t),
                me2_reference(rule.nodes, rule.omega, t, dps=120),
                n,
            )

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_shifted_rules_match_reference(self, basis2, n):
        nodes, omega, _ = _shifted_rule(basis2, n, 0.1, "positive", 7)
        assert not np.array_equal(nodes, -nodes[::-1])
        for t in (1.25, 50.0 / 49.0):
            assert wce_me2(nodes, omega, t) == me2_reference(nodes, omega, t)
        assert_within_one_ulp(
            wce_me2(nodes, omega, 3.0), me2_reference(nodes, omega, 3.0, dps=120), n
        )

    def test_one_ulp_off_mirror_takes_general_path(self, basis2, monkeypatch):
        rule = gauss_rule(basis2, 9)
        omega = rule.omega.copy()
        omega[2] = np.nextafter(omega[2], np.inf)
        expected = me2_reference(rule.nodes, omega, 1.25)
        calls = count_exp(monkeypatch)
        assert wce_me2(rule.nodes, omega, 1.25) == expected
        # one Gaussian per node, every pair i <= j, then the cross sum
        assert calls[0] == 9 + 9 * 10 // 2 + 9

    def test_mirrored_rule_computes_each_term_once(self, basis2, monkeypatch):
        # 41 nodes are 20 mirrored pairs and a node at 0 (which needs no
        # exponential): one Gaussian per pair, one e^(beta x y) for each of
        # the 210 pairs of pairs a <= b, 20 for the cross sum; one pass
        rule = gauss_rule(basis2, 41)
        calls = count_exp(monkeypatch)
        wce_me2(rule.nodes, rule.omega, 1.25)
        assert calls[0] == 20 + 210 + 20

    def test_deep_cancellation_takes_another_pass(self, basis2, monkeypatch):
        # at t = 5 about 35 of 40 digits cancel on n = 41: the second pass
        # runs at 80 digits and repeats every exponential once
        rule = gauss_rule(basis2, 41)
        calls = count_exp(monkeypatch)
        wce_me2(rule.nodes, rule.omega, 5.0)
        assert calls[0] == 2 * (20 + 210 + 20)

    def test_nodes_without_weight_add_nothing(self):
        # u = omega g(x) is 0 at a zero weight, and such a node drops out;
        # an infinite node is rejected (test_non_finite_node_or_weight_is_rejected)
        t, zero_rule = 1.25, 1.0 / (math.sqrt(2.0) * 1.25)
        assert wce_me2(np.array([-0.5, 0.5]), np.zeros(2), t) == pytest.approx(
            zero_rule, rel=1e-15
        )
        rule = (np.array([-0.5, 0.25, 3.0]), np.array([0.3, 0.0, 0.4]))
        assert wce_me2(*rule, t) == wce_me2(rule[0][::2], rule[1][::2], t)


class TestWceSeries:
    def test_positive_and_decreasing(self, basis2):
        space = SpaceWeight.polynomial(3.0)
        prev = None
        for n in range(3, 42, 2):
            rule = gauss_rule(basis2, n)
            val = wce_series(rule.nodes, rule.omega, basis2, space, start=2 * n,
                             k_max=599)
            assert val > 0.0
            if prev is not None:
                assert val < prev
            prev = val

    def test_start_beyond_truncation_is_zero(self, basis2):
        rule = gauss_rule(basis2, 5)
        space = SpaceWeight.polynomial(3.0)
        assert wce_series(rule.nodes, rule.omega, basis2, space, start=200,
                          k_max=150) == 0.0

    def test_exactness_makes_low_modes_irrelevant(self, basis2, basis2_deep):
        # starting at 0 instead of 2n changes nothing for an exact rule
        rule = gauss_rule(basis2, 9)
        space = SpaceWeight.geometric(1.25)
        v_tail = wce_series(rule.nodes, rule.omega, basis2_deep, space, start=18)
        v_full = wce_series(rule.nodes, rule.omega, basis2_deep, space, start=0)
        assert abs(v_full - v_tail) < 1e-18 + 1e-12 * v_tail

    def test_nonnegative_by_construction(self, basis2):
        rule = gauss_rule(basis2, 7)
        space = SpaceWeight.polynomial(2.0)
        assert wce_series(rule.nodes, rule.omega, basis2, space, start=14,
                          k_max=400) >= 0.0


class TestWceSeriesRows:
    """One sweep over several rules gives exactly one wce_series call per rule."""

    @staticmethod
    def rows(basis):
        # node counts 3, 8 and 5; the last row moves its nodes off the Gauss
        # nodes (so it is not exact) and starts at 0, where the h_0 integral
        # is subtracted
        g3, g8, g5 = (gauss_rule(basis, n) for n in (3, 8, 5))
        return [
            (g3.nodes, g3.omega, 6),
            (g8.nodes, g8.omega, 16),
            (1.01 * g5.nodes, g5.omega, 0),
        ]

    @staticmethod
    def assert_matches_single(rows, basis, space, k_max=None):
        batched = _wce_series_rows(rows, basis, space, 1e-16, k_max)
        assert len(batched) == len(rows)
        for got, (nodes, omega, start) in zip(batched, rows):
            try:
                want = wce_series(nodes, omega, basis, space, start, k_max=k_max)
            except CapacityError as exc:
                assert type(got) is CapacityError
                assert str(got) == str(exc)
            else:
                assert got == want
        return batched

    def test_per_mode_dots_match_one_dot_per_mode(self, basis2):
        # node counts 1..40 cross the BLAS ddot kernel sizes at 16 and 32;
        # every fourth row starts at 0, the others at 2n on nodes moved off
        # the Gauss nodes
        space, K = SpaceWeight.polynomial(2.0), 400
        rows = []
        for m in range(1, 41):
            rule = gauss_rule(basis2, m)
            start = 0 if m % 4 == 0 else 2 * m
            rows.append(((1.0 + 0.01 * (m % 3)) * rule.nodes, rule.omega, start))
        got = _wce_series_rows(rows, basis2, space, 1e-16, K)
        for value, (nodes, omega, start) in zip(got, rows):
            H = basis_matrix(basis2, nodes, K)
            e = np.array([omega.dot(h) for h in H[start:]])
            if start == 0:
                e[0] -= 1.0 / basis2.c0
            lam = np.asarray(lambda_of(space, np.arange(start, K + 1)), dtype=float)
            assert value == math.fsum(e * e / lam)

    def test_fixed_depth_across_blocks(self, basis2_deep):
        # k_max = 2500 crosses the block boundaries at 1024 and 2048; the
        # last row starts past k_max and contributes no modes
        rows = self.rows(basis2_deep)
        rows.append((rows[0][0], rows[0][1], 3000))
        values = self.assert_matches_single(
            rows, basis2_deep, SpaceWeight.polynomial(3.0), k_max=2500
        )
        assert all(v > 0.0 for v in values[:3])
        assert values[3] == 0.0

    def test_envelope_truncation(self, basis2_deep):
        # each row has its own truncation index, all above 5000
        values = self.assert_matches_single(
            self.rows(basis2_deep), basis2_deep, SpaceWeight.mod_exp(1.0)
        )
        assert all(v > 0.0 for v in values)

    def test_one_row(self, basis2):
        rows = self.rows(basis2)[1:2]
        self.assert_matches_single(rows, basis2, SpaceWeight.polynomial(2.0), k_max=400)

    def test_over_capacity_row_fails_alone(self):
        # at t = 5/4 the truncation index is 168..186 for starts 0..16 and
        # 211 for start 40, past the capacity of 200
        basis = build_basis(2.0, 200)
        rows = self.rows(basis)
        rows.insert(1, (rows[0][0], rows[0][1], 40))
        values = self.assert_matches_single(rows, basis, SpaceWeight.geometric(1.25))
        assert isinstance(values[1], CapacityError)
        assert all(isinstance(v, float) and v > 0.0 for v in values[:1] + values[2:])

    def test_one_lambda_evaluation_over_the_union(self, basis2, monkeypatch):
        # rows start at 6, 16 and 0 and share k_max = 400: one call over 0..400
        calls, real = [], wce_mod.lambda_of

        def counting(space, k):
            calls.append(np.asarray(k).copy())
            return real(space, k)

        monkeypatch.setattr(wce_mod, "lambda_of", counting)
        values = _wce_series_rows(
            self.rows(basis2), basis2, SpaceWeight.polynomial(2.0), 1e-16, 400
        )
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.arange(0, 401))
        monkeypatch.undo()
        for got, (nodes, omega, start) in zip(values, self.rows(basis2)):
            assert got == wce_series(
                nodes, omega, basis2, SpaceWeight.polynomial(2.0), start, k_max=400
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_fails_alone(self, basis2, bad):
        # a NaN or inf node or weight summed to a NaN value; the other rows
        # keep their bits
        rows = self.rows(basis2)
        good = _wce_series_rows(rows, basis2, SpaceWeight.polynomial(2.0), 1e-16, 400)
        nodes, omega, start = rows[0]
        bad_rows = [(np.where(nodes == nodes[0], bad, nodes), omega, start),
                    (nodes, np.where(omega == omega[0], bad, omega), start)]
        values = _wce_series_rows(
            rows[:1] + bad_rows + rows[1:], basis2, SpaceWeight.polynomial(2.0), 1e-16, 400
        )
        for value in values[1:3]:
            assert isinstance(value, ValueError)
            assert str(value) == "nodes and omega must be finite"
        assert values[:1] + values[3:] == good
        with pytest.raises(ValueError, match="nodes and omega must be finite"):
            wce_series(*bad_rows[0][:2], basis2, SpaceWeight.polynomial(2.0), start,
                       k_max=400)

    def test_mismatched_row_fails_alone(self, basis2):
        rows = self.rows(basis2)
        rows.insert(1, (rows[0][0], rows[0][1][:-1], 6))
        values = _wce_series_rows(rows, basis2, SpaceWeight.polynomial(2.0), 1e-16, 400)
        assert str(values[1]) == "nodes and omega must be 1-D arrays of equal length"
        assert all(isinstance(v, float) for v in values[:1] + values[2:])

    def test_failed_lambda_evaluation_fails_every_live_row(self, basis2, monkeypatch):
        def failing(space, k):
            raise ConvergenceError("synthetic moment failure")

        monkeypatch.setattr(wce_mod, "lambda_of", failing)
        rows = self.rows(basis2)
        rows.insert(1, (rows[0][0], rows[0][1], -1))  # fails before the evaluation
        values = _wce_series_rows(rows, basis2, SpaceWeight.polynomial(2.0), 1e-16, 400)
        assert isinstance(values[1], ValueError)
        assert all(str(values[i]) == "synthetic moment failure" for i in (0, 2, 3))


class TestStreamedSeriesRows:
    """Ten rules summed to k = 40 000: the terms are folded as they stream,
    one fold per sweep block."""

    K = 40_000

    @pytest.fixture(scope="class")
    def deep(self):
        return build_basis(2.0, self.K)

    def rows(self, basis):
        # node counts 3, 5, ..., 21: 120 nodes, 10 rows of about 40 000 terms
        rules = [(n, gauss_rule(basis, n)) for n in range(3, 23, 2)]
        return [(rule.nodes, rule.omega, 2 * n) for n, rule in rules]

    def test_each_row_is_the_fsum_of_its_terms(self, deep, monkeypatch):
        # folds of one sweep block each end inside the rows; e^2 overflows
        # to +inf on the 1e200 row, and the NaN row is rejected alone
        folds = []
        fold = _ExactSums.fold

        def counted_fold(self, parts):
            folds.append(len(parts))
            fold(self, parts)

        monkeypatch.setattr(_ExactSums, "fold", counted_fold)
        space = SpaceWeight.polynomial(2.0)
        rows = self.rows(deep) + [
            (np.array([0.3]), np.array([1e200]), 0),
            (np.array([0.3]), np.array([math.nan]), 5),
        ]
        with np.errstate(over="ignore"):
            got = _wce_series_rows(rows, deep, space, 1e-16, self.K)
        assert len([f for f in folds if f]) > 4
        lam = np.asarray(lambda_of(space, np.arange(self.K + 1)), dtype=float)
        for value, (nodes, omega, start) in zip(got[:-2], rows):
            e = np.vecdot(basis_matrix(deep, nodes, self.K)[start:], omega)
            assert value == math.fsum(e * e / lam[start:])
        assert got[-2] == math.inf
        assert str(got[-1]) == "nodes and omega must be finite"

    def test_one_fold_per_sweep_block(self, deep, monkeypatch):
        # each fold takes one block's terms, one per row and mode of the
        # block: never more than the block's own values
        folds = []
        fold = _ExactSums.fold

        def counted_fold(self, parts):
            folds.append(sum(terms.size for _, terms in parts))
            fold(self, parts)

        monkeypatch.setattr(_ExactSums, "fold", counted_fold)
        rows = self.rows(deep)
        _wce_series_rows(rows, deep, SpaceWeight.polynomial(2.0), 1e-16, self.K)
        nodes = sum(nodes.size for nodes, _, _ in rows)
        block = _SWEEP_BYTES // (8 * nodes)  # modes per sweep block
        assert len(folds) == -(-(self.K + 1) // block)
        assert 0 < max(folds) <= block * len(rows) < block * nodes

    def test_holds_no_per_row_terms(self, deep):
        # the terms of all rows, one float each, and two sweep blocks: less
        # than a sweep that keeps every row's terms to the end would hold
        rows = self.rows(deep)
        held = len(rows) * (self.K + 1) * 8 + 2 * _SWEEP_BYTES
        tracemalloc.start()
        try:
            _wce_series_rows(rows, deep, SpaceWeight.polynomial(2.0), 1e-16, self.K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < held


class TestSeriesTruncation:
    def test_overflowing_first_weight_is_a_typed_failure(self):
        # exp(k) overflows a double from k = 710 on
        space = SpaceWeight.exponential(1.0, 1.0)
        assert series_truncation(space, 700, 1e-16, 2.0, 1.0) >= 699
        with pytest.raises(FreudQuadError, match=r"lambda_start \(k = 710\)"):
            series_truncation(space, 710, 1e-16, 2.0, 1.0)

    @pytest.mark.parametrize(
        "space, alpha, starts",
        [
            (SpaceWeight.mod_exp(1.0), 2.0, range(6, 43, 4)),  # fig2a, k = 2n
            (SpaceWeight.mod_exp(0.5), 2.0, range(6, 43, 4)),  # fig2b
            (SpaceWeight.mod_exp(0.5), 2.0, range(4, 23, 2)),  # fig3a, k = n+1
            (SpaceWeight.exponential(1.0, 1.0), 4.0, range(6, 83, 4)),
        ],
    )
    def test_envelope_constant_cancels(self, basis2, basis4, space, alpha, starts):
        # the fifth argument, once the measured envelope constant, is ignored
        measured = sup_envelope_constant(basis2 if alpha == 2.0 else basis4)
        for start in starts:
            Ks = {series_truncation(space, start, 1e-16, alpha, c)
                  for c in (1.0, measured, 1e3)}
            assert Ks == {series_truncation(space, start, 1e-16, alpha)}

    def test_nonpositive_tol_is_rejected(self):
        space = SpaceWeight.exponential(1.0, 1.0)
        for tol in (0.0, -1e-16, float("nan")):
            with pytest.raises(ValueError, match="tol must be > 0"):
                series_truncation(space, 10, tol, 2.0)

    def test_tol_of_one_or_more_is_rejected(self):
        # a tail as large as the first retained term bounds nothing: the
        # index fell below start and every rule read as exact
        space = SpaceWeight.mod_exp(1.0)
        for tol in (1.0, 1e10, math.inf):
            with pytest.raises(ValueError, match="tol must be below 1"):
                series_truncation(space, 10, tol, 2.0)
        assert series_truncation(space, 10, 0.5, 2.0) >= 9

    def test_unbounded_tail_names_the_callers_tol_and_start(self):
        # the internal target is tol times the first envelope term (here
        # 3.9e-17); the error names the tol and start it was given
        space = SpaceWeight.exponential(0.05, 0.5)
        with pytest.raises(UnboundedTailError) as exc:
            series_truncation(space, 10, 1e-16, 2.0)
        message = str(exc.value)
        assert "from k = 10" in message and "tol = 1.0e-16" in message
        assert "3.9e-17" not in message

    @pytest.mark.parametrize(
        "space", [SpaceWeight.polynomial(3.0), SpaceWeight.exponential(0.05, 1e-30)]
    )
    def test_overflowing_tail_bound_is_unbounded(self, space):
        # (1/tol)^(1/(beta - 1)) and q^(-(g+1)/p) both leave the float range
        with pytest.raises(UnboundedTailError, match="from k = 10"):
            series_truncation(space, 10, 1e-310, 2.0)

    def test_underflowing_target_is_a_typed_failure(self):
        # lambda_84 ~ e^705.6: 1e-16 times the first envelope term is a
        # normal double, 1e-20 times it is below the smallest subnormal
        space = SpaceWeight.exponential(2.0, 0.1)
        assert series_truncation(space, 84, 1e-16, 2.0) >= 84
        with pytest.raises(FreudQuadError, match="underflows to 0"):
            series_truncation(space, 84, 1e-20, 2.0)

    def test_tiny_p_tail_is_unbounded_not_nan(self):
        # Gamma(c) overflows at c = (5/6)/0.004 and Q(c, z) underflows, so
        # scipy's product was inf * 0 = NaN, which fails both bisection tests
        # and read as "the whole tail is below tol" (K = start - 1 = 5); the
        # bound is finite, but its index is past the hard cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedTailError, match="from k = 6"):
                series_truncation(SpaceWeight.exponential(0.004, 300.0), 6, 1e-16, 2.0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
    def test_subnormal_target(self, alpha):
        # At alpha = 2 the target is 3.43e-317.  The 50-digit mpmath bound
        # q^-c Gamma(c, q K^p) / p (p = 2, q = 0.3, c = 5/12) is 2.67e-315 at
        # K = 49, above the target, and 3.30e-328 at K = 50; scipy's Gamma(c, z)
        # underflowed to 0.0 at K = 49 and gave 49
        space = SpaceWeight.exponential(2.0, 0.3)
        assert series_truncation(space, 48, 1e-16, alpha) == 50

    # recorded with scipy's gamma * gammaincc, before the package's own
    # incomplete gamma function: the exact row sum can absorb a one-mode
    # shift in K, so the golden values alone would not catch one
    @pytest.mark.parametrize(
        "s, starts, Ks",
        [
            # fig2a and fig2b: Gauss rules from k = 2n, n = 3, 5, ..., 21
            (1.0, range(6, 43, 4),
             (5725, 5859, 5964, 6055, 6135, 6208, 6276, 6339, 6398, 6454)),
            (0.5, range(6, 43, 4),
             (23407, 23724, 23968, 24172, 24351, 24512, 24659, 24796, 24924, 25044)),
            # fig3a: shifted rules from k = n + 1
            (0.5, range(4, 23, 2),
             (23194, 23407, 23578, 23724, 23852, 23968, 24074, 24172, 24264, 24351)),
        ],
    )
    def test_pinned_figure_indices(self, s, starts, Ks):
        space = SpaceWeight.mod_exp(s)
        assert [series_truncation(space, k, 1e-16, 2.0) for k in starts] == list(Ks)

    def test_pinned_alpha4_table_indices(self):
        # wce --alpha 4 --space epq --p 1 --q 1 --n-range 3:41:2, from k = 2n
        space = SpaceWeight.exponential(1.0, 1.0)
        got = [series_truncation(space, 2 * n, 1e-16, 4.0) for n in range(3, 42, 2)]
        assert got == [44, 47, 51, 55, 59, 63, 67, 71, 75, 79,
                       83, 87, 91, 95, 99, 103, 107, 111, 115, 119]

    # a one-node row ([x], [1]) sums lambda_k^-1 e_k^2 with e_k = h_k(x) for
    # k >= 1: the diagonal of the kernel expansion, cut by the envelope bound

    def test_self_consistency_doubled_depth(self, basis2_deep):
        space = SpaceWeight.exponential(0.5, 1.0 / math.sqrt(math.pi))
        node, one = np.array([0.5]), np.array([1.0])
        K = series_truncation(space, 42, 1e-14, 2.0)
        v1 = wce_series(node, one, basis2_deep, space, 42, tol=1e-14)
        v2 = wce_series(node, one, basis2_deep, space, 42, k_max=2 * K)
        assert abs(v1 - v2) <= 1e-12 * abs(v2) + 1e-15

    def test_poly_self_consistency(self, basis2_deep):
        # a 100x tighter tolerance adds less than the looser tail bound
        space = SpaceWeight.polynomial(3.0)
        node, one = np.array([0.3]), np.array([1.0])
        v1 = wce_series(node, one, basis2_deep, space, 0, tol=1e-7)
        v2 = wce_series(node, one, basis2_deep, space, 0, tol=1e-9)
        # the first envelope term, at k = 0, is sup_const / lambda_0
        assert 0.0 <= v2 - v1 < 1e-7 * sup_envelope_constant(basis2_deep)


class TestWceBound:
    def test_zero(self):
        assert wce_bound(0.0, 1.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            wce_bound(1.0, 0.0)
        with pytest.raises(ValueError):
            wce_bound(-1.0, 1.0)

    @pytest.mark.parametrize(
        "phi, a_n", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_non_finite_is_rejected(self, phi, a_n):
        with pytest.raises(ValueError, match="finite"):
            wce_bound(phi, a_n)


class TestTensorWce:
    def test_dimension_one_collapse(self):
        assert tensor_wce(0.123, 2.0 ** -0.25, 1.0, 1) == pytest.approx(0.123, rel=1e-15)

    def test_exact_rule_stays_exact(self):
        assert tensor_wce(0.0, 2.0 ** -0.25, 1.0, 5) == 0.0

    def test_brute_force_2d(self, basis2):
        rule = gauss_rule(basis2, 5)
        space = SpaceWeight.polynomial(3.0)
        K = 400
        H = basis_matrix(basis2, rule.nodes, K)
        q = H @ rule.omega
        lam = (1.0 + np.arange(K + 1)) ** 3.0
        w1 = float(np.sum(q[10:] ** 2 / lam[10:]))
        c = 2.0 ** -0.25
        brute = 0.0
        for k1 in range(K + 1):
            for k2 in range(K + 1):
                err = q[k1] * q[k2] - (c * c if (k1 == 0 and k2 == 0) else 0.0)
                brute += err * err / (lam[k1] * lam[k2])
        closed = tensor_wce(w1, c, 1.0, 2)
        assert closed == pytest.approx(brute, rel=1e-10)

    @given(w=st.floats(1e-20, 1e3), d=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_matches_high_precision_binomial(self, w, d):
        import mpmath as mp

        got = tensor_wce(w, 2.0 ** -0.25, 1.0, d)
        with mp.workdps(40):
            base = mp.mpf(2.0 ** -0.25) ** 2
            ref = float((base + mp.mpf(w)) ** d - base ** d)
        assert got > 0
        assert got == pytest.approx(ref, rel=1e-13)

    @given(w=st.floats(1e-12, 10.0), d=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_one_dim_error(self, w, d):
        a = tensor_wce(w, 2.0 ** -0.25, 1.0, d)
        b = tensor_wce(2.0 * w, 2.0 ** -0.25, 1.0, d)
        assert b > a > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            tensor_wce(0.1, 2.0 ** -0.25, 1.0, 0)
        with pytest.raises(ValueError):
            tensor_wce(-0.1, 2.0 ** -0.25, 1.0, 2)

    @pytest.mark.parametrize(
        "wce1_sq, c, lambda0",
        [
            (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
            (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
            (1.0, 1e-200, 1.0),  # c^2 underflows to 0
        ],
    )
    def test_non_finite_is_rejected(self, wce1_sq, c, lambda0):
        with pytest.raises(ValueError, match="finite"):
            tensor_wce(wce1_sq, c, lambda0, 2)

    @pytest.mark.parametrize(
        "wce1_sq, c, d",
        [
            (1e-100, 1e-100, 2),  # base = 1e-200: base^d underflows to 0
            (1.0, 1e-100, 2),  # and expm1 of d log1p(w / base) overflows
            (1.0, 1e-160, 3),
            (0.5, 0.5, 700),  # base^d = 2^-1400
        ],
    )
    def test_base_far_below_the_error(self, wce1_sq, c, d):
        import mpmath as mp

        base = c * c
        with mp.workdps(50):
            ref = float((mp.mpf(base) + mp.mpf(wce1_sq)) ** d - mp.mpf(base) ** d)
        assert tensor_wce(wce1_sq, c, 1.0, d) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "wce1_sq, c, d",
        [
            (0.5, 0.5**0.5, 1100),  # base^d underflows, expm1 overflows; value 1.0
            (0.1, 0.7**0.5, 2100),  # base^d underflows, expm1 is finite
        ],
    )
    def test_base_power_underflows_with_the_error_at_most_base(self, wce1_sq, c, d):
        import mpmath as mp

        base = c * c
        assert wce1_sq <= base
        with mp.workdps(50):
            ref = float((mp.mpf(base) + mp.mpf(wce1_sq)) ** d - mp.mpf(base) ** d)
        # the rounding error of base + w is carried into its d-th power, so
        # the power does not scale it to d ulps
        got = tensor_wce(wce1_sq, c, 1.0, d)
        assert got == pytest.approx(ref, rel=4 * 2.0**-52, abs=0)

    @pytest.mark.parametrize(
        "wce1_sq, c, lambda0, d",
        [
            (1.0, 1.0, 1.0, 2000),  # expm1 of d log1p(w / base) > 709
            (1e-3, 1e6, 1.0, 60),  # base^d = 1e720
            (1e160, 1e75, 1.0, 2),  # both factors finite, their product not
        ],
    )
    def test_overflow_is_a_value_error(self, wce1_sq, c, lambda0, d):
        with pytest.raises(ValueError, match="overflows float64"):
            tensor_wce(wce1_sq, c, lambda0, d)

    def test_underflow_is_a_value_error(self):
        # (base + w)^d - base^d is 5.6e-354 at base = 2^-1/2, w = 0.109,
        # d = 4000: a 0 would read as an exact rule
        with pytest.raises(ValueError, match="underflows float64"):
            tensor_wce(0.10888630566879427, 2.0**-0.25, 1.0, 4000)


class TestSlopeFit:
    def test_examples(self):
        assert slope_fit([0.0, 1.0], [0.0, -1.0]) == pytest.approx((-1.0, 0.0))
        slope, intercept = slope_fit([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert slope == pytest.approx(2.0, rel=1e-14)
        assert intercept == pytest.approx(0.0, abs=1e-13)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            slope_fit([2.0, 2.0], [1.0, 5.0])
        with pytest.raises(ValueError):
            slope_fit([1.0], [1.0])

    @given(
        slope=st.floats(-5, 5),
        intercept=st.floats(-5, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_affine(self, slope, intercept):
        xs = np.array([0.0, 0.7, 1.9, 3.2])
        ys = slope * xs + intercept
        got_slope, got_intercept = slope_fit(xs, ys)
        assert got_slope == pytest.approx(slope, abs=1e-9)
        assert got_intercept == pytest.approx(intercept, abs=1e-9)


def _row_sum(v) -> float:
    """The sum of ``v`` as one row of ``_ExactSums``."""
    sums = _ExactSums(1)
    sums.fold([(0, np.asarray(v, dtype=float))])
    return sums.rounded(0)


class TestExactSum:
    """One row of ``_ExactSums`` is correctly rounded, so it returns
    math.fsum's bits."""

    # bounded so that 60 terms cannot overflow (test_overflow_raises_as_fsum_does)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_matches_fsum(self, values):
        got = _row_sum(np.array(values, dtype=float))
        assert got.hex() == math.fsum(values).hex()

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_signed_matches_fsum(self, values):
        got = _row_sum(np.array(values, dtype=float))
        assert got == math.fsum(values)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0**-53], 1.0),  # tie, down to the even neighbour
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # tie, up to even
            ([1.0, 2.0**-53, 2.0**-106], 1.0 + 2.0**-52),  # just past the tie
            ([1.0, 2.0**-53, -(2.0**-106)], 1.0),  # just short of it
            ([2.0**-53, 1.0, 2.0**-53], 1.0 + 2.0**-52),  # two halves make one ulp
            ([2.0**-1074] * 3, 3 * 2.0**-1074),  # subnormals sum exactly
            ([1e-300, 2.0**-1074, -1e-300], 2.0**-1074),  # cancels to a subnormal
            ([1e300, 1.0, -1e300], 1.0),
        ],
    )
    def test_rounds_once_half_even(self, values, expected):
        assert _row_sum(np.array(values)) == expected == math.fsum(values)

    def test_zeros_and_empty(self):
        assert _row_sum(np.zeros(5)) == 0.0
        assert _row_sum(np.array([])) == 0.0

    def test_more_terms_than_one_limb_holds(self):
        # every limb all ones: each per-exponent limb sum passes 2**36
        n = 2**18 + 3
        top = np.nextafter(2.0, 0.0)
        assert _row_sum(np.full(n, top)) == math.fsum([top] * n)
        rng = np.random.default_rng(5)
        v = rng.integers(2**52, 2**53, n) * 2.0 ** rng.integers(-60, 0, n)
        assert _row_sum(v) == math.fsum(v)

    def test_non_finite(self):
        assert _row_sum(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(_row_sum(np.array([1.0, math.nan])))
        with np.errstate(invalid="raise"):
            assert math.isnan(_row_sum(np.array([math.inf, -math.inf])))

    def test_overflow_raises_as_fsum_does(self):
        with pytest.raises(OverflowError):
            _row_sum(np.array([1e308, 1e308]))

    def test_returns_a_python_float(self):
        assert type(_row_sum(np.array([1.0, 2.0]))) is float
        assert type(_row_sum(np.array([2.0**60, 2.0**61]))) is float
        assert type(_row_sum(np.array([math.inf]))) is float


class TestExactSums:
    """Rows folded in pieces, several rows a fold, round to math.fsum's bits."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.floats(min_value=-1e300, max_value=1e300)),
            max_size=80,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_folded_in_pieces_match_fsum(self, pairs, pieces):
        sums = _ExactSums(3)
        for piece in np.array_split(np.arange(len(pairs)), pieces):
            sums.fold([(pairs[i][0], np.array([pairs[i][1]])) for i in piece])
        for row in range(3):
            # == as in test_signed_matches_fsum: fsum keeps the sign of -0.0
            assert sums.rounded(row) == math.fsum(v for r, v in pairs if r == row)

    def test_non_finite_rows_across_folds(self):
        sums = _ExactSums(4)
        sums.fold([(0, np.array([1.0, math.inf])), (1, np.array([math.nan])),
                   (2, np.array([math.inf])), (3, np.array([2.0**-1074]))])
        sums.fold([(0, np.array([-1e300])), (1, np.array([1.0])),
                   (2, np.array([-math.inf])), (3, np.array([2.0**-1074]))])
        assert sums.rounded(0) == math.inf
        assert math.isnan(sums.rounded(1))
        assert math.isnan(sums.rounded(2))  # inf - inf, as numpy's sum gives it
        assert sums.rounded(3) == 2.0**-1073

    def test_extremes_of_the_double_range(self):
        # the largest double and the smallest subnormal reach the top and the
        # bottom column of the fixed span, in one fold and across folds
        big, tiny = np.finfo(float).max, 2.0**-1074
        rows = [[big, -big / 2, tiny], [tiny, -tiny, 1.0], [-big, tiny, big / 3]]
        sums = _ExactSums(3)
        sums.fold([(r, np.array(v)) for r, v in enumerate(rows)])
        sums.fold([(1, np.array([big / 4, tiny]))])
        rows[1] += [big / 4, tiny]
        for r, v in enumerate(rows):
            assert sums.rounded(r) == math.fsum(v)


class TestWCETable:
    def test_fewer_than_two_positive_rows_have_no_fit(self):
        for ns, values in [([5], [1e-3]), ([3, 5], [1e-3, 0.0]), ([], [])]:
            table = WCETable.from_rows({}, ns, values, axis="n")
            assert table.slope is None and table.intercept is None
            assert table.summary()["slope"] is None
        assert WCETable.from_rows({}, [3, 5], [1.0, 0.1], axis="n").slope == -0.5

    def test_clamps_tiny_negative(self):
        table = WCETable.from_rows({}, [3, 5, 7], [1e-2, -1e-16, 1e-4], axis="n")
        assert table.wce[1] == 0.0
        assert table.clamped == (5,)
        # fit used only the positive rows
        assert len(table.ns) == 3

    def test_rejects_significant_negative(self):
        with pytest.raises(ValueError):
            WCETable.from_rows({}, [3], [-1e-3], axis="n")

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            WCETable.from_rows({}, [3, 5], [1.0, 0.1], axis="loglog")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_is_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            WCETable.from_rows({}, [3, 5, 7], [1e-2, bad, 1e-4], axis="n")

    def test_non_finite_abscissa_is_left_out_of_the_fit(self):
        # log10(0) = -inf: the row at n = 0 is kept but not fitted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = WCETable.from_rows({}, [0, 1, 2], [0.5, 0.25, 0.125], axis="log-n")
        assert table.ns == (0, 1, 2)
        fitted = WCETable.from_rows({}, [1, 2], [0.25, 0.125], axis="log-n")
        assert (table.slope, table.intercept) == (fitted.slope, fitted.intercept)
        assert table.slope == pytest.approx(-1.0)

    def test_csv_round_trip(self):
        table = WCETable.from_rows({}, [3, 5], [0.1234567890123456789, 3e-15], axis="n")
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,wce,log10_wce"
        for line, expected in zip(lines[1:], table.wce):
            parsed = float(line.split(",")[1])
            assert parsed == expected  # bit-identical after 17 significant digits

    def test_summary_schema(self):
        table = WCETable.from_rows({"space": "mse2", "seed": 7}, [3, 5], [1.0, 0.1],
                                   axis="n", theory_slope=-0.2)
        summary = table.summary()
        assert set(summary) == {
            "space", "params", "axis", "rows", "slope", "intercept",
            "theory_slope", "seed", "tool_version",
        }
        assert summary["seed"] == 7
        assert summary["space"] == "mse2"
