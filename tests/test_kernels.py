import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freudquad import (
    SpaceWeight,
    UnboundedTailError,
    basis_matrix,
    build_basis,
    lambda_of,
    mehler,
    mrs_number,
    series_truncation,
    sup_envelope_constant,
)
from freudquad.kernels import _TAIL_HARD_CAP, _exp_tail_bound, _upper_gamma
from freudquad.orthopoly import _grid_radius_scale, _sweep


def _series_oracle(t, x, y, K):
    """Kernel expansion evaluated entirely in extended precision,
    including the closed-form recurrence coefficients."""
    L = np.longdouble
    pi_l = L(4) * np.arctan(L(1))
    a = np.sqrt(np.arange(1, K + 2, dtype=L) / (4 * pi_l))
    tl = L(t)
    pts = np.array([x, y], dtype=L)
    h_prev = np.zeros(2, dtype=L)
    h_cur = L(2) ** L(0.25) * np.exp(-pi_l * pts ** 2)
    total = L(0)
    power = 1 / tl
    for k in range(K + 1):
        total += power * h_cur[0] * h_cur[1]
        power /= tl
        am = a[k - 1] if k >= 1 else L(0)
        h_prev, h_cur = h_cur, (pts * h_cur - am * h_prev) / a[k]
    return float(total)


class TestMehler:
    def test_origin(self):
        assert mehler(1.25, 0.0, 0.0) == pytest.approx(4.0 * math.sqrt(2) / 3.0, rel=1e-14)

    @given(t=st.floats(1.01, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_origin_formula(self, t):
        assert mehler(t, 0.0, 0.0) == pytest.approx(
            math.sqrt(2.0 / (t * t - 1.0)), rel=1e-12
        )

    def test_symmetric(self):
        assert mehler(1.25, 0.7, -0.3) == mehler(1.25, -0.3, 0.7)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            mehler(1.0, 0.0, 0.0)

    def test_against_series(self):
        got = mehler(1.25, 0.7, -0.3)
        ref = _series_oracle(1.25, 0.7, -0.3, 300)
        assert abs(got - ref) / abs(ref) < 1e-12

    def test_positive_definite(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.5, 2.5, size=8)
        G = mehler(1.25, pts[:, None], pts[None, :])
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > -1e-10


class TestTailIndex:
    def test_geometric_scan_oracle(self):
        # from start 0 the first retained envelope term is 1 / lambda_0
        space = SpaceWeight.geometric(1.25)
        tol = 1e-16
        K = series_truncation(space, 0, tol, 2.0)
        target = tol / lambda_of(space, 0)
        k = np.arange(1, K + 60_000, dtype=float)
        terms = k ** (-1.0 / 6.0) / lambda_of(space, k.astype(int))
        suffix = np.cumsum(terms[::-1])[::-1]
        # sound: true envelope tail past K is below the target
        assert suffix[K] < target
        # not wildly conservative: the direct-scan minimal K is comparable
        k_true = int(np.searchsorted(-suffix, -target))
        assert K <= 2 * k_true + 10

    def test_boundary_exponent_unbounded(self):
        # s = 1 - 1/alpha sits below the summability threshold
        with pytest.raises(UnboundedTailError, match="decays too slowly"):
            series_truncation(SpaceWeight.polynomial(0.5), 0, 1e-10, 2.0)

    def test_no_decay_unbounded(self):
        with pytest.raises(UnboundedTailError, match="no growth"):
            series_truncation(SpaceWeight.polynomial(0.0), 0, 1e-10, 2.0)

    def test_poly_finite(self):
        K = series_truncation(SpaceWeight.polynomial(3.0), 0, 1e-12, 2.0)
        assert 0 < K < 50_000_000

    @pytest.mark.parametrize(
        "space, tol, alpha, K10, K100",
        [
            # measured through wce.series_truncation before it moved to kernels
            (SpaceWeight.polynomial(3.0), 1e-6, 2.0, 13587, 349390),
            (SpaceWeight.polynomial(2.5), 1e-4, 4.0, 31310, 1368179),
            (SpaceWeight.mod_poly(3.0), 1e-6, 2.0, 54067, 964048),
            (SpaceWeight.mod_poly(2.5), 1e-4, 4.0, 177873, 4967849),
            (SpaceWeight.exponential(1.0, 1.0), 1e-30, 2.0, 79, 169),
            (SpaceWeight.exponential(0.5, 2.0), 1e-30, 4.0, 1581, 2171),
            (SpaceWeight.mod_exp(1.0), 1e-16, 2.0, 5859, 7084),
            (SpaceWeight.mod_exp(0.5), 1e-30, 4.0, 77073, 80582),
            (SpaceWeight.geometric(1.25), 1e-16, 2.0, 180, 272),
            (SpaceWeight.mod_exp2(0.6), 1e-30, 4.0, 345, 434),
        ],
    )
    def test_pinned_indices(self, space, tol, alpha, K10, K100):
        assert series_truncation(space, 10, tol, alpha) == K10
        assert series_truncation(space, 100, tol, alpha) == K100

    def test_the_wce_name_takes_five_arguments(self):
        # perfbench/replay.py imports it from wce and passes a fifth,
        # ignored, argument
        from freudquad.wce import series_truncation as from_wce

        space = SpaceWeight.mod_exp(1.0)
        assert from_wce is series_truncation
        assert from_wce(space, 10, 1e-16, 2.0, 4.43) == 5859


class TestUpperGamma:
    @pytest.mark.parametrize(
        "c, tol",
        [
            # measured worst 2.5e-14 below the seam (c = 1/12 next to it) and
            # 4.7e-14 above it (z = 740, where e^-z alone is subnormal)
            (1 / 12, 1e-13), (5 / 12, 1e-13), (1.0, 1e-13), (5 / 3, 1e-13),
            (10.0, 1e-13), (100.0, 1e-13),
            # Gamma(333) overflows, so q^-c Gamma(c) is formed from logarithms:
            # measured 4.4e-13 (q = 300, z next to the seam)
            (333.0, 1e-12),
        ],
    )
    def test_against_mpmath(self, c, tol):
        # z = 0, both branches, the z = c + 1 seam from either side, and far
        # into the continued fraction; kc = (z/q)^c is given correctly rounded
        checked = 0
        with mp.workdps(40):
            for q in (1e-3, 1.0, 300.0):
                for z in (0.0, 0.5 * c, c + 1 - 1e-9, c + 1, 2 * c + 5, 100.0, 700.0, 740.0):
                    cm, zm, qm = mp.mpf(c), mp.mpf(z), mp.mpf(q)
                    ref = mp.gammainc(cm, zm) * qm**-cm
                    kc = (zm / qm) ** cm
                    if not 2.3e-308 < ref < 1.7e308 or kc > 1.7e308:
                        continue  # the value or its factor kc is not a normal double
                    got = _upper_gamma(c, z, q, float(kc))
                    assert abs(got - ref) <= tol * ref, (q, z)
                    checked += 1
        assert checked >= 8  # at least every z of one q

    def test_tail_bound_is_never_nan(self):
        # scipy's gamma(c) * gammaincc(c, z) read inf * 0 = NaN at small p, and
        # NaN fails both of the bisection's comparisons
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in np.geomspace(0.004, 4.0, 13).tolist():
                for q in np.geomspace(1e-3, 1e3, 13).tolist():
                    for alpha in (1.01, 1.5, 2.0, 4.0, 100.0):
                        g = 1.0 / 3.0 - 1.0 / alpha
                        for K in (0, 1, 2, 7, 100, 10**4, 10**6, _TAIL_HARD_CAP):
                            bound = _exp_tail_bound(K, p, q, g, 1.0)
                            assert bound >= 0.0, (p, q, alpha, K)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0, math.inf])
    def test_alpha_outside_the_domain_is_rejected(self, alpha):
        # at alpha = 0.5 the envelope exponent is -5/3, so c < 0: scipy's bound
        # was NaN there, read as "the whole tail is below tol" (K = start - 1);
        # alpha = 0 divided by zero before alpha was checked
        with pytest.raises(ValueError, match="weight exponent must be finite and > 1"):
            series_truncation(SpaceWeight.mod_exp(1.0), 6, 1e-16, alpha)

    @pytest.mark.parametrize("q", [300.0, 100.0])
    def test_tiny_p_bound_is_finite(self, q):
        # c = (5/6)/0.004 = 208: scipy's Gamma(c) overflowed and read inf * 0.
        # q = 300 puts z = 302 on the continued fraction (6.8e-131); q = 100
        # puts z = 101 on the series, with q^-c Gamma(c) from logarithms (3.7e-23);
        # measured 2.1e-14 and 5.7e-14 relative
        bound = _exp_tail_bound(6, 0.004, q, -1.0 / 6.0, 1.0)
        with mp.workdps(40):
            c = (1 + mp.mpf(-1.0 / 6.0)) / mp.mpf(0.004)
            z = q * mp.mpf(6) ** mp.mpf(0.004)
            ref = mp.gammainc(c, z) * mp.mpf(q) ** -c / mp.mpf(0.004)
        assert abs(bound - ref) <= 1e-13 * ref

    def test_unconverged_continued_fraction_is_typed(self):
        # at the seam the fraction takes about c^(1/3) steps: 9 015 at c = 1e9,
        # 19 311 at c = 1e10, past the cap
        assert _upper_gamma(1e9, 1e9 + 1.0, 1.0, 1.0) == 0.0
        with pytest.raises(UnboundedTailError, match="did not converge"):
            _upper_gamma(1e10, 1e10 + 1.0, 1.0, 1.0)


class TestSupEnvelopeConstant:
    def test_each_basis_gets_its_own_value(self):
        # measured on the basis it is given, whatever was measured before
        wide, narrow = build_basis(4.0, 800), build_basis(4.0, 512)
        sup_envelope_constant(wide)
        R = 1.25 * _grid_radius_scale(4.0, 512)
        H = basis_matrix(narrow, np.linspace(-R, R, 2001), 512)
        k = np.arange(1, 513, dtype=float)
        own = 4.0 * float(((H[1:] ** 2).max(axis=1) * k ** (0.25 - 1.0 / 3.0)).max())
        assert sup_envelope_constant(narrow) == own
        assert sup_envelope_constant(wide) != own

    @pytest.mark.parametrize("alpha, n_max", [(2.0, 512), (4.0, 600), (1.8, 100)])
    def test_same_bits_as_the_matrix_formulation(self, alpha, n_max):
        # the per-block max of |h_k|, squared, is the max of h_k^2
        basis = build_basis(alpha, n_max)
        kmax = min(512, n_max)
        R = 1.25 * _grid_radius_scale(alpha, kmax)
        H = basis_matrix(basis, np.linspace(-R, R, 2001), kmax)
        k = np.arange(1, kmax + 1, dtype=float)
        envelope = (H[1:] ** 2).max(axis=1) * k ** (1.0 / alpha - 1.0 / 3.0)
        assert sup_envelope_constant(basis) == 4.0 * float(envelope.max())

    def test_holds_no_basis_matrix(self):
        # the 513 x 2001 matrix alone is 8.2 MB; the sweep's blocks are 1 MiB,
        # and two live at once would be 2.16 MB
        basis = build_basis(4.0, 600)
        tracemalloc.start()
        try:
            sup_envelope_constant(basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("alpha, n_max", [(2.0, 2000), (4.0, 800), (1.8, 400)])
    def test_bounds_every_mode_of_the_basis(self, alpha, n_max):
        # oracle for the absolute bound: max_x h_k(x)^2 <= C k^(1/3 - 1/alpha)
        # on a grid 20 times finer and 1.1 MRS numbers of the top degree
        # wide, for every mode of the basis, past the 512 modes C is read on
        basis = build_basis(alpha, n_max)
        C = sup_envelope_constant(basis)
        R = 1.1 * mrs_number(alpha, n_max)
        sup = np.concatenate([
            np.abs(H, out=H).max(axis=1)
            for _, H in _sweep(basis, np.linspace(-R, R, 40_001), n_max)
        ])
        k = np.arange(1, n_max + 1, dtype=float)
        assert np.all(sup[1:] ** 2 <= C * k ** (1.0 / 3.0 - 1.0 / alpha))


class TestEnvelopeTailLaws:
    """Tail sums of the kernels obey the normalized envelope bounds."""

    def test_polynomial_family(self, basis2):
        grid = np.linspace(-3.0, 3.0, 41)
        H2 = basis_matrix(basis2, grid, 600) ** 2
        s = 2.0
        for n in (4, 16, 64, 256):
            k = np.arange(n, 601, dtype=float)
            tails = ((1.0 + k[:, None]) ** -s * H2[n:]).sum(axis=0)
            assert tails.max() * n ** (s - 0.5) < 1.5

    def test_exponential_family(self, basis2):
        grid = np.linspace(-3.0, 3.0, 41)
        H2 = basis_matrix(basis2, grid, 600) ** 2
        for (p, q, cap) in ((0.5, 1.0, 2.8), (1.0, math.log(1.25), 6.0)):
            for n in (4, 16, 64, 256):
                k = np.arange(n, 601, dtype=float)
                tails = (np.exp(-q * k[:, None] ** p) * H2[n:]).sum(axis=0)
                norm = math.exp(q * n ** p) * n ** -(1.0 / 3.0 - 0.5 + max(1.0 - p, 0.0))
                assert tails.max() * norm < cap
