import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

import freudquad
import freudquad.orthopoly as orthopoly
from freudquad import (
    CapacityError,
    ConvergenceError,
    FreudBasis,
    basis_matrix,
    build_basis,
    eval_basis,
    gauss_rule,
    mrs_number,
    weight_value,
)
from freudquad.orthopoly import (
    _c0, _grid_radius_scale, _reference_grid, _stieltjes_pass, _sweep, _verify_orthonormality,
)

PI = math.pi


class TestWeightValue:
    def test_examples(self):
        assert weight_value(2.0, 0.0) == 1.0
        assert weight_value(2.0, 1.0) == pytest.approx(math.exp(-PI), rel=1e-15)
        assert weight_value(4.0, -1.0) == pytest.approx(math.exp(-PI), rel=1e-15)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            weight_value(1.0, 0.3)
        with pytest.raises(ValueError):
            weight_value(0.5, 0.3)

    @given(
        alpha=st.floats(1.01, 8.0),
        x=st.floats(-20.0, 20.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_even_positive_bounded(self, alpha, x):
        v = weight_value(alpha, x)
        assert 0.0 <= v <= 1.0
        assert v == weight_value(alpha, -x)


class TestMrsNumber:
    def test_alpha2_closed_form(self):
        # the general formula collapses to sqrt(n/pi) at alpha=2
        assert mrs_number(2.0, 4) == pytest.approx(math.sqrt(4.0 / PI), rel=1e-14)
        assert mrs_number(2.0, 1) == pytest.approx(1.0 / math.sqrt(PI), rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0, 6.0])
    def test_largest_gauss_node_lies_just_below(self, alpha):
        # the largest zero of p_n sits below m_n, at a distance of order
        # m_n n^(-2/3) (0.56 to 1.37 of it here); the old expression, which
        # the grids keep (_grid_radius_scale), fails at alpha = 1.5, 4 and 6
        n = 400
        top = gauss_rule(build_basis(alpha, n + 1), n).nodes.max()
        m = mrs_number(alpha, n)
        assert 0.0 < m - top < 2.0 * m * n ** (-2.0 / 3.0)

    def test_grid_radius_scale_keeps_the_old_expression(self):
        # Gamma(2)=1, Gamma(4)=6: constant (1/24)^(1/4); at alpha=2 the MRS number
        expected = 2.0 / math.sqrt(PI) * (1.0 / 24.0) ** 0.25 * 2.0
        assert _grid_radius_scale(4.0, 16) == pytest.approx(expected, rel=1e-14)
        assert _grid_radius_scale(2.0, 7) == pytest.approx(mrs_number(2.0, 7), rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mrs_number(1.0, 4)
        with pytest.raises(ValueError):
            mrs_number(2.0, 0)


class TestBuildBasisAlpha2:
    def test_closed_form_coefficients(self, basis2):
        k = np.arange(1, basis2.n_max + 1)
        expected = np.sqrt(k / (4.0 * PI))
        assert np.max(np.abs(basis2.coeffs - expected) / expected) < 1e-12

    def test_single_coefficient(self):
        b = build_basis(2.0, 1)
        assert b.coeffs[0] == pytest.approx(0.2820948, abs=5e-8)

    def test_c0(self, basis2):
        assert basis2.c0 == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_basis(1.0, 4)
        with pytest.raises(ValueError):
            build_basis(2.0, 0)

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    @pytest.mark.parametrize("n_max", [5.5, 5.0, "5", None])
    def test_non_integral_n_max_is_rejected(self, alpha, n_max):
        # 5.5 built a basis with n_max = 5.5
        with pytest.raises(ValueError, match="n_max must be an integer"):
            build_basis(alpha, n_max)

    def test_numpy_integer_n_max(self):
        for n_max in (np.int64(6), np.int32(6)):
            basis = build_basis(2.0, n_max)
            assert basis.n_max == 6
            assert np.array_equal(basis.coeffs, build_basis(2.0, 6).coeffs)


class TestOrthonormalityAlpha2:
    def test_against_trapezoid_oracle(self, basis2, trapezoid_oracle):
        _, xs = trapezoid_oracle(lambda v: v, 8.0)
        H = basis_matrix(basis2, xs, 30)
        gram = np.trapezoid(H[:, None, :] * H[None, :, :], xs, axis=2)
        assert np.abs(gram - np.eye(31)).max() < 1e-8


class TestBuildBasisGeneralAlpha:
    def test_orthonormality_against_trapezoid_oracle(self, basis4, trapezoid_oracle):
        H_at = lambda xs: basis_matrix(basis4, xs, 30)
        _, xs = trapezoid_oracle(lambda v: v, 6.0)
        H = H_at(xs)
        gram = np.trapezoid(H[:, None, :] * H[None, :, :], xs, axis=2)
        defect = np.abs(gram - np.eye(31)).max()
        assert defect < 1e-8

    def test_c0_against_adaptive_quad(self, basis4):
        from scipy.integrate import quad

        half, _ = quad(lambda u: math.exp(-2 * PI * u ** 4), 0, np.inf,
                       epsabs=0.0, epsrel=1e-13)
        assert basis4.c0 == pytest.approx(1.0 / math.sqrt(2 * half), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_c0_against_mpmath_quadrature(self, alpha):
        # the integral itself in 40 digits, not the Gamma-function identity
        with mp.workdps(40):
            a = mp.mpf(alpha)
            half = mp.quad(lambda u: mp.exp(-2 * mp.pi * u ** a), [0, 1, mp.inf])
            expected = float(1 / mp.sqrt(2 * half))
        assert _c0(alpha) == expected
        assert build_basis(alpha, 8).c0 == expected

    def test_c0_bits_at_alpha_2_and_4(self, basis2, basis4):
        assert basis2.c0 == 2.0 ** 0.25
        # the value the adaptive quadrature gave, bit for bit
        assert basis4.c0 == float.fromhex("0x1.de7bc239e3631p-1")

    def test_no_diagonal_term(self, basis4, trapezoid_oracle):
        # <x h_k, h_k> = 0 for the even weight
        _, xs = trapezoid_oracle(lambda v: v, 6.0)
        H = basis_matrix(basis4, xs, 12)
        for k in (0, 3, 8, 12):
            val = np.trapezoid(xs * H[k] * H[k], xs)
            assert abs(val) < 1e-12

    def test_stieltjes_no_convergence_reports(self, monkeypatch):
        monkeypatch.setattr(orthopoly, "_COEFF_TOL", 1e-30)
        monkeypatch.setattr(orthopoly, "_MAX_DOUBLINGS", 1)
        with pytest.raises(ConvergenceError):
            build_basis(4.0, 10)

    def test_no_convergence_names_the_worst_index(self, monkeypatch):
        # the index whose coefficient moved most between the last two passes
        monkeypatch.setattr(orthopoly, "_MAX_DOUBLINGS", 1)
        a16, a32 = (
            _stieltjes_pass(1.5, 800, *_reference_grid(1.5, 800, p, 24)[:2])
            for p in (16, 32)
        )
        worst = int(np.argmax(np.abs(a32 - a16) / a32)) + 1
        assert worst > 1
        with pytest.raises(ConvergenceError, match=f"worst index {worst}\\)") as exc:
            build_basis(1.5, 800)
        assert exc.value.index == worst


class TestFreudEquation:
    """Independent oracle for the quartic Stieltjes coefficients."""

    @pytest.mark.parametrize("n_max", [200, 800])
    def test_quartic_coefficients(self, n_max):
        # 8 pi a_n^2 (a_{n-1}^2 + a_n^2 + a_{n+1}^2) = n for W = exp(-pi x^4)
        sq = np.concatenate([[0.0], build_basis(4.0, n_max).coeffs ** 2])
        n = np.arange(1, n_max)
        lhs = 8.0 * PI * sq[n] * (sq[n - 1] + sq[n] + sq[n + 1])
        assert np.max(np.abs(lhs - n) / n) < 1e-12


def _chebyshev_coeffs(alpha: float, n: int, dps: int) -> np.ndarray:
    """a_1..a_n from the moments of W^2 by Chebyshev's algorithm.

    mu_2j = integral x^(2j) exp(-2 pi |x|^alpha) dx
          = 2 Gamma((2j+1)/alpha) / (alpha (2 pi)^((2j+1)/alpha)), odd moments 0.
    The map from moments to recurrence coefficients is exponentially
    ill-conditioned, so it runs at ``dps`` digits (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, Algorithm 2.1).  In
    monic form pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}, and the
    orthonormal a_k is sqrt(beta_k).
    """
    with mp.workdps(dps):
        al, two_pi = mp.mpf(alpha), 2 * mp.pi
        m = 2 * (n + 1)
        mu = [
            2 * mp.gamma((l + 1) / al) / (al * two_pi ** ((l + 1) / al))
            if l % 2 == 0 else mp.mpf(0)
            for l in range(m)
        ]
        sig_prev, sig = [mp.mpf(0)] * m, mu  # sigma_{k-2, l}, sigma_{k-1, l}
        a_k, b_k = [mu[1] / mu[0]], [mu[0]]
        for k in range(1, n + 1):
            nxt = [mp.mpf(0)] * m
            for l in range(k, m - k):
                nxt[l] = sig[l + 1] - a_k[k - 1] * sig[l] - b_k[k - 1] * sig_prev[l]
            a_k.append(nxt[k + 1] / nxt[k] - sig[k] / sig[k - 1])
            b_k.append(nxt[k] / sig[k - 1])
            sig_prev, sig = sig, nxt
        return np.array([float(mp.sqrt(b)) for b in b_k[1:]])


class TestMomentOracle:
    """An oracle for every alpha: closed-form moments, Chebyshev's algorithm."""

    ALPHAS = [1.2, 1.5, 1.8, 3.0, 6.0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_coefficients(self, alpha):
        ref = _chebyshev_coeffs(alpha, 60, 200)
        got = build_basis(alpha, 60).coeffs
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_oracle_is_converged_in_precision(self, alpha):
        assert np.array_equal(
            _chebyshev_coeffs(alpha, 60, 200), _chebyshev_coeffs(alpha, 60, 260)
        )

    def test_alpha_2_closed_form(self):
        k = np.arange(1, 31)
        ref = np.sqrt(k / (4.0 * PI))
        assert np.max(np.abs(_chebyshev_coeffs(2.0, 30, 200) - ref) / ref) <= 1e-15


def _uniform_grid(alpha, n_max, panels, degree):
    """The plain composite rule: ``panels`` equal Gauss-Legendre panels."""
    R = _grid_radius_scale(alpha, 2 * n_max) * (1.0 + 3.0 * n_max ** (-2.0 / 3.0)) + 2.0
    xg, wg = roots_legendre(degree)
    edges = np.linspace(-R, R, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * xg[None, :]).ravel(), np.tile(half * wg, panels), R


class TestReferenceGrid:
    """Uniform panels at even-integer alpha, dyadic panels next to 0 otherwise."""

    @pytest.mark.parametrize("alpha", [2.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("panels", [16, 128])
    def test_even_alpha_is_the_uniform_grid(self, alpha, panels):
        x, w, R = _reference_grid(alpha, 100, panels, 24)
        x_ref, w_ref, R_ref = _uniform_grid(alpha, 100, panels, 24)
        assert R == R_ref
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)

    @pytest.mark.parametrize("alpha", [1.2, 1.8, 3.0])
    @pytest.mark.parametrize("panels", [16, 256])
    def test_graded_grid_is_ascending_and_mirrored(self, alpha, panels):
        x, w, R = _reference_grid(alpha, 50, panels, 24)
        levels = orthopoly._GRADED_LEVELS
        assert x.size == (panels - 2 + 2 * (levels + 1)) * 24
        assert np.all(np.diff(x) > 0) and -R < x[0] and x[-1] < R
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        # the innermost panel is [0, h 2^-levels], h = 2R / panels
        assert 0 < x[x.size // 2] < 2 * R / panels * 2.0 ** -levels
        assert np.all(w > 0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 3.0])
    def test_graded_grid_passes_the_mirror_check(self, alpha):
        basis = build_basis(alpha, 40)
        x, w, _ = _reference_grid(alpha, 40, 32, 24)
        assert _verify_orthonormality(basis, x, w, 1e-8) < 1e-12

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 3.0, 5.0])
    @pytest.mark.parametrize("panels", [16, 64, 256])
    def test_integrates_the_weight(self, alpha, panels):
        # integral of W = 2 Gamma(1 + 1/alpha) pi^(-1/alpha)
        x, w, _ = _reference_grid(alpha, 100, panels, 24)
        with mp.workdps(30):
            exact = float(2 * mp.gamma(1 + 1 / mp.mpf(alpha)) * mp.pi ** (-1 / mp.mpf(alpha)))
        assert math.fsum(w * weight_value(alpha, x)) == pytest.approx(exact, rel=1e-14)


class TestBuildBasisWholeDomain:
    """alpha that is not an even integer: the graded grid converges fast."""

    @pytest.mark.parametrize("alpha, n_max", [(1.2, 100), (1.5, 20), (1.8, 512)])
    def test_builds(self, alpha, n_max):
        basis = build_basis(alpha, n_max)
        assert basis.n_max == n_max
        assert np.all(np.isfinite(basis.coeffs)) and np.all(basis.coeffs > 0)

    def test_passes_at_alpha_1_8(self, monkeypatch):
        sizes = []
        real = orthopoly._stieltjes_pass

        def counted(alpha, n_max, x, w):
            sizes.append(x.size)
            return real(alpha, n_max, x, w)

        monkeypatch.setattr(orthopoly, "_stieltjes_pass", counted)
        build_basis(1.8, 100)
        assert len(sizes) <= 4


class TestVerifyOrthonormality:
    """The Gram check on the verification grid (twice the converged panels)."""

    @pytest.fixture(scope="class")
    def quartic(self):
        # 256 panels of 24 points: the grid build_basis(4.0, 100) verifies on,
        # more points than one Gram chunk
        x, w, _ = _reference_grid(4.0, 100, 256, 24)
        return build_basis(4.0, 100), x, w

    def test_matches_one_shot_gram(self, quartic):
        basis, x, w = quartic
        H = basis_matrix(basis, x, 100)
        one_shot = float(np.abs((H * w) @ H.T - np.eye(101)).max())
        got = _verify_orthonormality(basis, x, w, 1e-8)
        assert abs(got - one_shot) <= 1e-15
        assert got < 1e-12

    def test_perturbed_coefficient_is_rejected(self, quartic):
        basis, x, w = quartic
        coeffs = basis.coeffs.copy()
        coeffs[49] *= 1.0 + 1e-6
        bad = FreudBasis(basis.alpha, basis.c0, coeffs, basis.n_max)
        with pytest.raises(ConvergenceError, match="orthonormality defect"):
            _verify_orthonormality(bad, x, w, 1e-8)

    def test_nan_defect_is_rejected(self, quartic):
        # a negative weight has no square root: the Gram matrix turns NaN
        basis, x, w = quartic
        w = w.copy()
        w[100] = -w[100]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="defect nan"):
                _verify_orthonormality(basis, x, w, 1e-8)

    def test_negative_weight_on_positive_half_is_rejected(self, quartic):
        basis, x, w = quartic
        w = w.copy()
        w[-100] = -w[-100]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="defect nan"):
                _verify_orthonormality(basis, x, w, 1e-8)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_weight_where_h0_underflows_is_rejected(self, quartic, bad):
        # every h_k is exactly 0 at the outermost points, which the Gram sums
        # leave out; a bad weight there must still fail the check
        basis, x, w = quartic
        assert eval_basis(basis, x[0], 1)[0] == 0.0
        w = w.copy()
        w[0] = bad * abs(w[0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="defect nan"):
                _verify_orthonormality(basis, x, w, 1e-8)

    def test_perturbed_odd_coefficient_is_rejected(self, quartic):
        # a_51 moves h_51 first; the test above perturbs a_50, which moves h_50
        basis, x, w = quartic
        coeffs = basis.coeffs.copy()
        coeffs[50] *= 1.0 + 1e-6
        bad = FreudBasis(basis.alpha, basis.c0, coeffs, basis.n_max)
        with pytest.raises(ConvergenceError, match="orthonormality defect"):
            _verify_orthonormality(bad, x, w, 1e-8)

    @pytest.mark.parametrize("n_max", [99, 100])
    def test_defect_in_one_parity_block_is_rejected(self, quartic, n_max):
        # perturbing the last coefficient moves h_{n_max} alone: only the odd
        # (n_max = 99) or only the even (n_max = 100) block is off
        basis, x, w = quartic
        coeffs = basis.coeffs[:n_max].copy()
        coeffs[-1] *= 1.0 + 1e-6
        bad = FreudBasis(basis.alpha, basis.c0, coeffs, n_max)
        with pytest.raises(ConvergenceError, match="orthonormality defect"):
            _verify_orthonormality(bad, x, w, 1e-8)

    def test_asymmetric_grid_is_rejected(self, quartic):
        basis, x, w = quartic
        with pytest.raises(ValueError, match="mirrored"):
            _verify_orthonormality(basis, x + 1e-9, w, 1e-8)
        with pytest.raises(ValueError, match="mirrored"):
            _verify_orthonormality(basis, x[1:], w[1:], 1e-8)

    def test_holds_no_full_basis_matrix(self):
        basis = build_basis(4.0, 400)
        x, w, _ = _reference_grid(4.0, 400, 512, 24)
        full = (basis.n_max + 1) * x.size * 8  # one (n+1) x len(x) float64 matrix
        tracemalloc.start()
        try:
            _verify_orthonormality(basis, x, w, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full

    @staticmethod
    def _peak_over_chunks(alpha, n_max, panels):
        # the grid holds more than three chunks of positive points
        basis = build_basis(alpha, n_max)
        x, w, _ = _reference_grid(alpha, n_max, panels, 24)
        assert x.size // 2 * (n_max + 1) * 8 > 3 * orthopoly._GRAM_BYTES
        tracemalloc.start()
        try:
            _verify_orthonormality(basis, x, w, 1e-8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holds_one_chunk_at_a_time(self):
        # the next chunk must not be built while the previous one is still
        # referenced
        peak = self._peak_over_chunks(2.0, 100, 4096)
        assert peak < 1.5 * orthopoly._GRAM_BYTES

    def test_chunk_is_bounded_in_bytes_at_large_n(self):
        # a chunk of 4 096 points would be 26 MB at n = 800; the byte budget
        # keeps it at 8 MiB, about 1 300 points
        peak = self._peak_over_chunks(4.0, 800, 512)
        assert peak < 1.5 * orthopoly._GRAM_BYTES

    def test_budget_holds_the_gram_blocks_and_product(self):
        # the chunk, both Gram blocks and one block product share the budget
        # (a chunk of the whole budget next to them peaked at 1.47x)
        peak = self._peak_over_chunks(4.0, 800, 512)
        assert peak < 1.1 * orthopoly._GRAM_BYTES

    @staticmethod
    def _flushed_values(basis, x, w):
        # sqrt(w) h_k on the live positive half, where the flush zeroes the
        # nonzero values below 2^-511
        half = x.size // 2
        xp, wp = x[half:], w[half:] + w[half - 1::-1]
        H = basis_matrix(basis, xp, basis.n_max) * np.sqrt(wp)
        H = H[:, H[0] != 0]
        return np.count_nonzero((np.abs(H) < 2.0 ** -511) & (H != 0))

    @pytest.mark.parametrize("alpha, n_max", [(4.0, 200), (1.8, 100)])
    def test_flushed_defect_matches_one_shot_gram(self, alpha, n_max):
        basis = build_basis(alpha, n_max)
        x, w, _ = _reference_grid(alpha, n_max, 256, 24)
        assert self._flushed_values(basis, x, w) > 0
        H = basis_matrix(basis, x, n_max)
        one_shot = float(np.abs((H * w) @ H.T - np.eye(n_max + 1)).max())
        got = _verify_orthonormality(basis, x, w, 1e-8)
        assert abs(got - one_shot) <= 1e-15
        assert got < 1e-12

    def test_perturbed_last_coefficient_is_rejected_at_large_n(self):
        basis = build_basis(4.0, 400)
        x, w, _ = _reference_grid(4.0, 400, 512, 24)
        assert self._flushed_values(basis, x, w) > 0
        coeffs = basis.coeffs.copy()
        coeffs[-1] *= 1.0 + 1e-6
        bad = FreudBasis(basis.alpha, basis.c0, coeffs, basis.n_max)
        with pytest.raises(ConvergenceError, match="orthonormality defect"):
            _verify_orthonormality(bad, x, w, 1e-8)

    def test_nan_weight_where_low_modes_are_flushed_is_rejected(self, quartic):
        # h_0 is nonzero but below 2^-511 at that point, so the flush zeroes
        # its low modes; the NaN its weight gives must survive the flush
        basis, x, w = quartic
        half = x.size // 2
        h0 = basis.c0 * weight_value(4.0, x[half:]) * np.sqrt(2 * w[half:])
        i = half + int(np.flatnonzero((h0 > 0) & (h0 < 2.0 ** -511))[0])
        w = w.copy()
        w[i] = math.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="defect nan"):
                _verify_orthonormality(basis, x, w, 1e-8)


class TestEvalBasis:
    def test_h0_at_origin(self, basis2):
        vals = eval_basis(basis2, 0.0, 0)
        assert vals[0] == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_h1_odd(self, basis2):
        assert eval_basis(basis2, 0.0, 1)[1] == 0.0

    def test_against_extended_precision_recurrence(self, basis2):
        # same recurrence at higher working precision as the oracle
        x, n = 1.3, 40
        a = basis2.coeffs.astype(np.longdouble)
        h = np.zeros(n + 1, dtype=np.longdouble)
        h[0] = np.longdouble(basis2.c0) * np.exp(-np.longdouble(PI) * np.longdouble(x) ** 2)
        h[1] = np.longdouble(x) * h[0] / a[0]
        for k in range(1, n):
            h[k + 1] = (np.longdouble(x) * h[k] - a[k - 1] * h[k - 1]) / a[k]
        got = eval_basis(basis2, x, n)
        ref = h.astype(float)
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() / scale < 1e-12

    def test_antisymmetry(self, basis2):
        xs = np.array([0.17, 0.5, 1.3, 2.9])
        H_pos = basis_matrix(basis2, xs, 31)
        H_neg = basis_matrix(basis2, -xs, 31)
        signs = (-1.0) ** np.arange(32)
        assert np.abs(H_neg - signs[:, None] * H_pos).max() < 1e-14

    def test_envelope_bounded(self, basis2):
        # sup_x |h_k|^2 k^(1/alpha - 1/3) stays below a modest constant
        R = 1.25 * mrs_number(2.0, 256)
        grid = np.linspace(-R, R, 2001)
        H = basis_matrix(basis2, grid, 256)
        k = np.arange(4, 257, dtype=float)
        env = (H[4:] ** 2).max(axis=1) * k ** (0.5 - 1.0 / 3.0)
        assert env.max() < 2.0

    def test_no_overflow_far_out(self, basis2):
        m = mrs_number(2.0, 512)
        vals = basis_matrix(basis2, np.array([-10 * m, 10 * m]), 512)
        assert np.all(np.isfinite(vals))

    def test_capacity_error(self, basis2):
        with pytest.raises(CapacityError) as exc:
            eval_basis(basis2, 0.3, basis2.n_max + 1)
        assert exc.value.required == basis2.n_max + 1

    @given(k=st.integers(0, 30), x=st.floats(0.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_parity_property(self, basis2, k, x):
        plus = eval_basis(basis2, x, k)[k]
        minus = eval_basis(basis2, -x, k)[k]
        assert minus == pytest.approx((-1.0) ** k * plus, abs=1e-13)


def _loop_matrix(basis, x, n):
    """The recurrence written out row by row: the reference for the sweep."""
    H = np.empty((n + 1, x.size))
    H[0] = basis.c0 * np.exp(-PI * np.abs(x) ** basis.alpha)
    if n >= 1:
        a = basis.coeffs
        H[1] = x * H[0] / a[0]
        for k in range(1, n):
            H[k + 1] = (x * H[k] - a[k - 1] * H[k - 1]) / a[k]
    return H


class TestSweep:
    XS = np.array([-3.1, -0.7, 0.0, 0.45, 1.3, 2.9, 6.0])

    def _blocks(self, basis, x, stop, block):
        blocks = list(_sweep(basis, x, stop, block))
        assert [k0 for k0, _ in blocks] == list(range(0, stop + 1, block))
        assert all(H.shape[1:] == x.shape and len(H) <= block for _, H in blocks)
        return np.concatenate([H for _, H in blocks])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_concatenate_to_basis_matrix(self, basis2, basis4, block):
        for basis in (basis2, basis4):
            stop = 40
            got = self._blocks(basis, self.XS, stop, block)
            assert np.array_equal(got, basis_matrix(basis, self.XS, stop))

    def test_basis_matrix_matches_loop(self, basis2, basis4):
        for basis in (basis2, basis4):
            assert np.array_equal(
                basis_matrix(basis, self.XS, 40), _loop_matrix(basis, self.XS, 40)
            )

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_match_loop(self, basis2, basis4, block):
        # each block boundary recurs on the carried rows and coefficients
        for basis in (basis2, basis4):
            got = self._blocks(basis, self.XS, 40, block)
            assert np.array_equal(got, _loop_matrix(basis, self.XS, 40))

    def test_dropped_block_is_freed(self, basis2_deep):
        # the generator keeps no reference to a block it has yielded
        blocks = 0
        for _, H in _sweep(basis2_deep, np.linspace(-10.0, 10.0, 130), 5000):
            ref = weakref.ref(H)
            del H
            assert ref() is None
            blocks += 1
        assert blocks > 1

    def test_long_sweep_matches_loop(self, basis2_deep):
        # 0, negative points, and x = 16 where h_0 = c0 exp(-256 pi) underflows
        x = np.array([-16.0, -9.5, -0.3, 0.0, 1e-3, 4.25, 16.0])
        assert eval_basis(basis2_deep, 16.0, 0)[0] == 0.0
        got = self._blocks(basis2_deep, x, 3000, 7)
        assert np.array_equal(got, _loop_matrix(basis2_deep, x, 3000))

    def test_yielded_blocks_are_not_overwritten(self, basis4):
        blocks, copies = [], []
        for _, H in _sweep(basis4, self.XS, 40, 7):
            blocks.append(H)
            copies.append(H.copy())
        assert all(np.array_equal(H, C) for H, C in zip(blocks, copies))

    def test_overwritten_blocks_leave_later_blocks_intact(self, basis4):
        # the recurrence carries its own copies of the last two rows
        blocks = []
        for _, H in _sweep(basis4, self.XS, 40, 7):
            blocks.append(H.copy())
            H[...] = np.nan
        assert np.array_equal(np.concatenate(blocks), basis_matrix(basis4, self.XS, 40))

    def test_default_block_is_bounded_in_bytes(self, basis2):
        x = np.linspace(-10.0, 10.0, 1000)
        blocks = list(_sweep(basis2, x, 599))
        assert max(H.nbytes for _, H in blocks) <= orthopoly._SWEEP_BYTES
        assert len(blocks[0][1]) == orthopoly._SWEEP_BYTES // x.nbytes
        assert np.array_equal(
            np.concatenate([H for _, H in blocks]), basis_matrix(basis2, x, 599)
        )

    def test_stop_zero(self, basis2):
        for block in (1, 7):
            got = self._blocks(basis2, self.XS, 0, block)
            assert got.shape == (1, self.XS.size)
            assert np.array_equal(got, basis_matrix(basis2, self.XS, 0))

    def test_two_dimensional_x(self, basis2):
        x = self.XS[:6].reshape(2, 3)
        got = self._blocks(basis2, x, 25, 7)
        assert got.shape == (26, 2, 3)
        ref = basis_matrix(basis2, x.ravel(), 25).reshape(26, 2, 3)
        assert np.array_equal(got, ref)

    def test_basis_matrix_allocates_one_matrix(self, basis2):
        x = np.linspace(-5.0, 5.0, 4000)
        tracemalloc.start()
        try:
            H = basis_matrix(basis2, x, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * H.nbytes

    def test_capacity_error(self, basis2):
        with pytest.raises(CapacityError) as exc:
            next(_sweep(basis2, self.XS, basis2.n_max + 1))
        assert exc.value.required == basis2.n_max + 1


def _plain_stieltjes_pass(alpha, n_max, x, w):
    """The Stieltjes pass written with plain array expressions."""
    W = np.exp(-PI * np.abs(x) ** alpha)
    c0 = 1.0 / math.sqrt(float(np.sum(w * W * W)))
    a = np.zeros(n_max)
    h_prev = np.zeros_like(x)
    h_cur = c0 * W
    for k in range(n_max):
        v = x * h_cur - (a[k - 1] if k >= 1 else 0.0) * h_prev
        a[k] = math.sqrt(float(np.sum(w * v * v)))
        h_prev, h_cur = h_cur, v / a[k]
    return a


class TestStieltjesPass:
    @pytest.mark.parametrize(
        "alpha, n_max, panels",
        [
            (4.0, 800, 64), (4.0, 800, 128), (1.8, 100, 64),
            (4.0, 800, 512), (3.0, 500, 256), (6.0, 300, 128),
        ],
    )
    def test_same_bits_as_plain_expressions(self, alpha, n_max, panels):
        x, w, _ = _reference_grid(alpha, n_max, panels, 24)
        if alpha in (4.0, 6.0):
            # W underflows at the outer points: the pass skips them
            assert np.any(weight_value(alpha, x) == 0)
        # the bits of a also cover the grid's c0 that scales h_0
        a = _stieltjes_pass(alpha, n_max, x, w)
        assert np.array_equal(a, _plain_stieltjes_pass(alpha, n_max, x, w))


_FOOTPRINT_SCRIPT = """
import sys
import freudquad, freudquad.cli
from freudquad import SpaceWeight, build_basis, radial_moment, run_figure
build_basis(4.0, 40)
run_figure("fig3b", n_values=(3, 5))
print("scipy.integrate" in sys.modules)
print(radial_moment(SpaceWeight.mod_poly(1.5), 7).hex())
"""


def test_import_and_series_route_leave_scipy_integrate_unloaded():
    # a fresh interpreter: this one may have imported scipy.integrate already
    src = os.path.dirname(os.path.dirname(freudquad.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "False"
    # the non-integer mod-poly moment still goes through the adaptive quadrature
    assert float.fromhex(out[1]) == 6.8373792902076795


_SPECIAL_FOOTPRINT_SCRIPT = """
import contextlib, io, sys
import freudquad, freudquad.cli
from freudquad import SpaceWeight, build_basis, gauss_rule, run_figure, wce_me2, wce_series
run_figure("fig1a", n_values=(3, 5))
rule = gauss_rule(build_basis(2.0, 30), 20)
wce_me2(rule.nodes, rule.omega, 1.25)
with contextlib.redirect_stdout(io.StringIO()):
    assert freudquad.cli.main(["nodes", "--n", "5"]) == 0
print("scipy.special" in sys.modules)
value = wce_series(rule.nodes, rule.omega, build_basis(2.0, 400), SpaceWeight.geometric(1.25), 40)
run_figure("fig2a", n_values=(3, 5))
run_figure("fig3a", n_values=(3, 5))
print("scipy.special" in sys.modules)
print(value.hex())
"""


def test_closed_form_route_leaves_scipy_special_unloaded():
    # a fresh interpreter, as above: fig1a, wce_me2 and `nodes` call no special
    # function, and the series route's tail bound takes its incomplete gamma
    # function from kernels, so the series call and the mod-exp figures do not
    # load scipy.special either
    src = os.path.dirname(os.path.dirname(freudquad.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SPECIAL_FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[:2] == ["False", "False"]
    assert float.fromhex(out[2]) == float.fromhex("0x1.7407836e2a857p-24")
