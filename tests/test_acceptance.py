"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity (run with ``pytest -s tests/test_acceptance.py``
to see them).

Stated runtime budgets are asserted where the criterion carries one.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from freudquad import (
    HermiteExpansion,
    SpaceWeight,
    basis_matrix,
    build_system,
    gauss_rule,
    generalized_weights,
    mehler,
    modulation_norm_sq,
    perturb_nodes,
    phi_lambda,
    radial_moment,
    run_figure,
    stft_grid_norm_sq,
    sup_envelope_constant,
    tail_index,
    tensor_wce,
    wce_bound,
    wce_series,
)

PI = math.pi


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_01_gauss_exactness(basis2):
    with Timer() as t:
        rule = gauss_rule(basis2, 21)
        H = basis_matrix(basis2, rule.nodes, 41)
        e = H @ rule.omega
        target = np.zeros(42)
        target[0] = 2.0 ** -0.25
        resid = float(np.abs(e - target).max())
    assert resid < 1e-9
    assert t.elapsed < 1.0
    _report("01 gauss-exactness", f"max residual {resid:.3e}, {t.elapsed:.2f}s")


def test_02_weight_sum_bound(basis2, basis4):
    worst2 = worst4 = -np.inf
    bound4 = 2.0 * PI ** -0.25 * gamma_fn(1.25)
    for n in range(1, 41):
        worst2 = max(worst2, gauss_rule(basis2, n).omega.sum() - 1.0)
        worst4 = max(worst4, gauss_rule(basis4, n).omega.sum() - bound4)
    assert worst2 <= 1e-10
    assert worst4 <= 1e-10
    _report(
        "02 weight-sum",
        f"max excess alpha=2: {worst2:.2e}, alpha=4: {worst4:.2e} "
        f"(bound {bound4:.6f})",
    )


def test_03_mehler_identity(basis2_deep):
    """Closed form against the truncated expansion on a 9x9 grid.

    Two documented adjustments to the literal statement (see the test
    body): errors are normalized by the positive-definite scale
    sqrt(K(x,x) K(y,y)), since the exact kernel underflows float64 at
    far-off-diagonal grid points where a raw relative comparison is
    meaningless for any implementation; and the slow-decay parameter
    t = 50/49 needs ~1400 expansion terms for a 1e-10 comparison (at 300
    terms the truncation residue is ~1e-3), so its depth comes from the
    package's own tail-index machinery while t = 5/4 keeps the literal
    300-term depth.
    """
    with Timer() as t:
        grid = np.linspace(-3.0, 3.0, 9)
        worst = {}
        for tv, K in ((1.25, 300), (50.0 / 49.0, None)):
            space = SpaceWeight.geometric(tv)
            if K is None:
                K = tail_index(space, 0, 1e-11, 2.0, sup_envelope_constant(basis2_deep))
            H = basis_matrix(basis2_deep, grid, K)
            lam = tv ** -(np.arange(K + 1) + 1.0)
            err = 0.0
            diag = {x: mehler(tv, x, x) for x in grid}
            for i, x in enumerate(grid):
                for j, y in enumerate(grid):
                    series = float(np.sum(lam * H[:, i] * H[:, j]))
                    closed = mehler(tv, x, y)
                    scale = math.sqrt(diag[x] * diag[y])
                    err = max(err, abs(series - closed) / scale)
            worst[tv] = (err, K)
            assert err < 1e-10
    assert t.elapsed < 1.0
    _report(
        "03 mehler-identity",
        ", ".join(f"t={tv:.4f}: err {e:.2e} (K={K})" for tv, (e, K) in worst.items())
        + f", {t.elapsed:.2f}s",
    )


def test_04_figure_1a():
    with Timer() as t:
        table = run_figure("fig1a")
    assert t.elapsed < 5.0
    assert table.slope == pytest.approx(-0.35, abs=0.05)
    assert table.slope <= -0.30
    _report("04 figure-1a", f"slope {table.slope:.4f}, {t.elapsed:.2f}s")


def test_05_figure_1b():
    with Timer() as t:
        table = run_figure("fig1b")
    assert t.elapsed < 5.0
    assert table.slope == pytest.approx(-0.03, abs=0.01)
    assert table.slope <= -0.02
    _report("05 figure-1b", f"slope {table.slope:.4f}, {t.elapsed:.2f}s")


def test_06_figure_2():
    with Timer() as t:
        s1 = run_figure("fig2a").slope
        s2 = run_figure("fig2b").slope
    assert t.elapsed < 30.0
    assert s1 == pytest.approx(-0.50, abs=0.08)
    assert s2 == pytest.approx(-0.26, abs=0.08)
    _report("06 figure-2", f"slopes {s1:.4f} (s=1), {s2:.4f} (s=1/2), {t.elapsed:.1f}s")


def test_07_figure_3():
    targets = {"fig3a": -0.26, "fig3b": -1.0, "fig3c": -0.66}
    with Timer() as t:
        measured = {}
        for fid, target in targets.items():
            for eps in (0.1, 0.2):
                slope = run_figure(fid, eps=eps).slope
                assert slope == pytest.approx(target, abs=0.15), (fid, eps, slope)
                measured[(fid, eps)] = slope
    assert t.elapsed < 60.0
    detail = ", ".join(
        f"{fid}@eps={eps}: {sl:.3f}" for (fid, eps), sl in measured.items()
    )
    _report("07 figure-3", f"{detail}, {t.elapsed:.1f}s")


def test_08_gauss_as_sampling_identity(basis2):
    with Timer() as t:
        worst_defect = worst_a = worst_b = 0.0
        for n in range(1, 41):
            rule = gauss_rule(basis2, n + 1)
            system = build_system(basis2, n, rule.nodes, rule.tau)
            worst_defect = max(
                worst_defect, float(np.abs(system.gram - np.eye(n + 1)).max())
            )
            worst_a = max(worst_a, abs(system.a_n - 1.0))
            worst_b = max(worst_b, abs(system.b_n - 1.0))
    assert worst_defect < 1e-8
    assert worst_a < 1e-8 and worst_b < 1e-8
    assert t.elapsed < 2.0
    _report(
        "08 sampling-identity",
        f"max |S-I| {worst_defect:.2e}, |a-1| {worst_a:.2e}, "
        f"|b-1| {worst_b:.2e}, {t.elapsed:.2f}s",
    )


def test_09_generalized_weight_continuity(basis2):
    rule = gauss_rule(basis2, 21)
    nodes, tau = perturb_nodes(rule, 0.01, sign_mode="positive", seed=7)
    system = build_system(basis2, 20, nodes, tau)
    omega = generalized_weights(system, basis2)
    rel_dev = float(np.max(np.abs(omega - rule.omega) / rule.omega))
    assert np.all(omega > 0)
    assert rel_dev < 0.25
    _report("09 weight-continuity", f"all positive, max relative deviation {rel_dev:.3f}")


def test_10_abstract_bound(basis2):
    rng = np.random.default_rng(20240814)
    spaces = [
        SpaceWeight.polynomial(3.0),
        SpaceWeight.polynomial(2.0),
        SpaceWeight.exponential(1.0, math.log(1.25)),
        SpaceWeight.mod_exp(1.0),
    ]
    checked = 0
    margins = []
    while checked < 20:
        n = int(rng.integers(6, 29))
        rule = gauss_rule(basis2, n + 1)
        gap = float(np.min(np.diff(rule.nodes)))
        eps = float(rng.uniform(0.0, 0.45 * gap))
        nodes, tau = perturb_nodes(rule, eps, sign_mode="random", seed=int(rng.integers(1, 10_000)))
        system = build_system(basis2, n, nodes, tau)
        omega = generalized_weights(system, basis2)
        space = spaces[checked % len(spaces)]
        k_cap = min(3000, basis2.n_max)
        measured = wce_series(nodes, omega, basis2, space, start=n + 1, k_max=k_cap)
        phi = phi_lambda(basis2, space, system, k_max=k_cap)
        bound = wce_bound(phi, system.a_n)
        assert measured <= bound + 1e-12, (n, eps, space.kind, measured, bound)
        margins.append(measured / bound if bound > 0 else 0.0)
        checked += 1
    _report(
        "10 abstract-bound",
        f"20 systems, measured/bound in [{min(margins):.3f}, {max(margins):.3f}]",
    )


def test_11_modulation_norm_exactness():
    worst_diag = worst_grid = 0.0
    for tv in (1.25, 50.0 / 49.0):
        space = SpaceWeight.geometric(tv)
        for k in range(16):
            f = HermiteExpansion.unit(k)
            closed = tv ** (k + 1)
            diag = modulation_norm_sq(space, f)
            worst_diag = max(worst_diag, abs(diag - closed) / closed)
            grid_val = stft_grid_norm_sq(space, f)
            worst_grid = max(worst_grid, abs(grid_val - closed) / closed)
    assert worst_diag < 1e-10
    assert worst_grid < 1e-4
    _report(
        "11 modulation-exactness",
        f"diagonal defect {worst_diag:.2e}, grid defect {worst_grid:.2e}",
    )


def test_12_norm_equivalence_interval():
    details = []
    for s in (1.0, 2.0):
        k = np.arange(0, 201)
        moments = np.array([radial_moment(SpaceWeight.mod_poly(s), int(kk)) for kk in k])
        ratios = moments / (1.0 + k) ** s
        width = float(ratios.max() - ratios.min())
        assert ratios.min() > 0.0
        assert width <= 4.0
        details.append(f"s={s:g}: [{ratios.min():.3f}, {ratios.max():.3f}]")
    _report("12 norm-equivalence", "; ".join(details))


def test_13_envelope_tail_suite(basis2_deep):
    with Timer() as t:
        grid = np.linspace(-3.0, 3.0, 41)
        K = 3000
        H2 = basis_matrix(basis2_deep, grid, K) ** 2
        ns = (4, 8, 16, 32, 64, 128, 256)

        s = 2.0
        k_all = np.arange(K + 1, dtype=float)
        poly_vals = []
        for n in ns:
            tails = ((1.0 + k_all[n:, None]) ** -s * H2[n:]).sum(axis=0)
            poly_vals.append(float(tails.max()) * n ** (s - 0.5))
        assert max(poly_vals) < 1.5

        exp_caps = {(0.5, 1.0): 2.8, (1.0, math.log(1.25)): 6.0}
        exp_detail = []
        for (p, q), cap in exp_caps.items():
            vals = []
            for n in ns:
                tails = (np.exp(-q * k_all[n:, None] ** p) * H2[n:]).sum(axis=0)
                norm = math.exp(q * n ** p) * n ** -(1 / 3 - 0.5 + max(1 - p, 0.0))
                vals.append(float(tails.max()) * norm)
            assert max(vals) < cap
            exp_detail.append(f"(p={p:g},q={q:.3f}): max {max(vals):.2f}")
    assert t.elapsed < 30.0
    _report(
        "13 envelope-tails",
        f"poly s=2 max {max(poly_vals):.2f}; " + "; ".join(exp_detail)
        + f", {t.elapsed:.1f}s",
    )


def test_14_tensor_wce(basis2):
    rule = gauss_rule(basis2, 5)
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
    rel = abs(closed - brute) / brute
    assert rel < 1e-10
    _report("14 tensor-wce", f"closed vs brute force rel diff {rel:.2e}")


def test_15_quartic_weight_basis(basis4, trapezoid_oracle):
    _, xs = trapezoid_oracle(lambda v: v, 6.0)
    H = basis_matrix(basis4, xs, 30)
    gram = np.trapezoid(H[:, None, :] * H[None, :, :], xs, axis=2)
    defect = float(np.abs(gram - np.eye(31)).max())
    assert defect < 1e-8

    rule = gauss_rule(basis4, 15)
    H15 = basis_matrix(basis4, rule.nodes, 0)
    got = float(H15[0] @ rule.omega)
    W = np.exp(-PI * np.abs(xs) ** 4)
    ref = float(np.trapezoid(basis_matrix(basis4, xs, 0)[0] * W, xs))
    assert abs(got - ref) < 1e-8
    _report(
        "15 quartic-weight",
        f"orthonormality defect {defect:.2e}, h_0 functional diff {abs(got - ref):.2e}",
    )
