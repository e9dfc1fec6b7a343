import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from freudquad import (
    GridInsufficientError,
    HermiteExpansion,
    SpaceWeight,
    coeff_norm_sq,
    lambda_of,
    modulation_norm_sq,
    radial_moment,
    stft_grid_norm_sq,
)
from freudquad import spaces
from freudquad.spaces import Decay

PI = math.pi


class TestSpaceWeight:
    def test_lambda_examples(self):
        assert lambda_of(SpaceWeight.polynomial(2.0), 3) == 16.0
        s = PI * (1.0 - 0.8)  # pi/(pi-s) = 5/4
        assert lambda_of(SpaceWeight.mod_exp2(s), 0) == pytest.approx(1.25, rel=1e-14)
        assert lambda_of(SpaceWeight.exponential(1.0, math.log(1.25)), 2) == pytest.approx(
            1.25 ** 2, rel=1e-14
        )
        assert lambda_of(SpaceWeight.mod_exp(1.0), 4) == pytest.approx(
            math.exp(2.0 / math.sqrt(PI)), rel=1e-14
        )

    def test_mod_poly_lambda_is_exact_moment(self):
        sw = SpaceWeight.mod_poly(1.0)
        assert lambda_of(sw, 2) == pytest.approx(radial_moment(sw, 2), rel=1e-15)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_mod_poly_array_moments_match_scalar_bits(self, s):
        # the closed form summed term by term in Python floats, with math.exp
        def closed_form(k):
            return sum(
                math.comb(s, j) * PI ** (-j) * math.exp(gammaln(k + j + 1) - gammaln(k + 1))
                for j in range(s + 1)
            )

        k = np.arange(5001)
        ref = np.array([closed_form(int(kk)) for kk in k])
        sw = SpaceWeight.mod_poly(s)
        assert np.array_equal(lambda_of(sw, k), ref)
        assert np.array_equal(lambda_of(sw, k.reshape(3, 1667)), ref.reshape(3, 1667))
        assert np.array_equal([radial_moment(sw, kk) for kk in k], ref)

    def test_mod_poly_moments_hold_few_arrays(self):
        # no Python float per mode: at most six arrays of k's size at once
        k = np.arange(40_001)
        sw = SpaceWeight.mod_poly(2.0)
        tracemalloc.start()
        try:
            lambda_of(sw, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * k.size

    def test_mod_poly_table_makes_no_scalar_moment_calls(self, monkeypatch):
        # the k range of `freudq wce --space ms --s 2 --n-range 3:21:2`
        calls = []
        quad = spaces._moment_quad
        monkeypatch.setattr(
            spaces, "_moment_quad", lambda *a: calls.append(a) or quad(*a)
        )
        lambda_of(SpaceWeight.mod_poly(2.0), np.arange(6, 40_001))
        assert calls == []
        lambda_of(SpaceWeight.mod_poly(1.5), np.arange(3))  # the quadrature path
        assert len(calls) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceWeight.polynomial(-1.0)
        with pytest.raises(ValueError):
            SpaceWeight.exponential(0.0, 1.0)
        with pytest.raises(ValueError):
            SpaceWeight.exponential(1.0, -2.0)
        with pytest.raises(ValueError):
            SpaceWeight.mod_exp2(PI)
        with pytest.raises(ValueError):
            SpaceWeight("bogus", s=1.0)
        with pytest.raises(ValueError, match="coefficient index must be >= 0"):
            lambda_of(SpaceWeight.polynomial(2.0), -1)

    def test_has_decay(self):
        # the growth rate of the law is 0 exactly when lambda_k stays bounded
        assert SpaceWeight.polynomial(0.0).decay() == Decay(1.0, s=0.0)
        assert SpaceWeight.polynomial(0.5).decay().s == 0.5
        assert SpaceWeight.exponential(1.0, 0.1).decay().q == 0.1
        assert SpaceWeight.mod_exp(0.0).decay().q == 0.0
        assert SpaceWeight.mod_exp2(0.0).decay().q == 0.0

    def test_coefficient_equivalents(self):
        mse = SpaceWeight.mod_exp(1.0).decay()
        assert (mse.c, mse.s, mse.p) == (1.0, None, 0.5)
        assert mse.q == pytest.approx(1.0 / math.sqrt(PI), rel=1e-15)
        s = PI * (1.0 - 0.8)
        mse2 = SpaceWeight.mod_exp2(s).decay()
        assert (mse2.s, mse2.p) == (None, 1.0)
        assert mse2.q == pytest.approx(math.log(1.25), rel=1e-13)
        assert mse2.c == pytest.approx(0.8, rel=1e-13)
        # the law reproduces the weight, geometric prefactor included
        k = np.arange(12)
        direct = lambda_of(SpaceWeight.mod_exp2(s), k)
        mapped = np.exp(mse2.q * k) / mse2.c
        assert np.max(np.abs(direct - mapped) / direct) < 1e-12


    def test_mod_exp2_keeps_its_t(self):
        # pi/(pi - pi(1 - 1/3)) is 3.000000000000001: a weight given t = 3
        # keeps 3.0, one given s alone derives t from it
        s = PI * (1.0 - 1.0 / 3.0)
        given = SpaceWeight("mod-exp2", s=s, _t=3.0)
        k = np.arange(6)
        assert np.array_equal(lambda_of(given, k), np.exp((k + 1.0) * math.log(3.0)))
        assert given.decay() == Decay(1.0 / 3.0, p=1.0, q=math.log(3.0))
        assert given.describe() == {"kind": "mod-exp2", "s": s, "t": 3.0}
        assert SpaceWeight.mod_exp2(s)._t == PI / (PI - s) != 3.0
        assert SpaceWeight.geometric(3) == given
        with pytest.raises(ValueError, match="only to mod-exp2"):
            SpaceWeight("mod-exp", s=1.0, _t=3.0)

    def test_named_builds_each_report_name(self):
        assert SpaceWeight.names() == ("hs", "epq", "ms", "mse", "mse2")
        assert SpaceWeight.named("hs") == SpaceWeight.polynomial(1.0)
        assert SpaceWeight.named("ms", s=2.5) == SpaceWeight.mod_poly(2.5)
        assert SpaceWeight.named("mse", s=0.5) == SpaceWeight.mod_exp(0.5)
        assert SpaceWeight.named("mse2", s=0.6) == SpaceWeight.mod_exp2(0.6)
        assert SpaceWeight.named("mse2", t=1.25) == SpaceWeight.geometric(1.25)
        assert SpaceWeight.named("epq", p=1, q=2) == SpaceWeight.exponential(1.0, 2.0)
        for name in SpaceWeight.names():
            given = {"p": 1.0, "q": 1.0} if name == "epq" else {}
            assert SpaceWeight.named(name, **given).name == name

    @pytest.mark.parametrize(
        "name, given, message",
        [
            ("hs", {"t": 1.25}, "t applies only to mse2, not hs"),
            ("epq", {"t": 1.25, "p": 1, "q": 1}, "t applies only to mse2, not epq"),
            ("ms", {"p": 1}, "p and q apply only to epq, not ms"),
            ("mse2", {"q": 1, "t": 2}, "p and q apply only to epq, not mse2"),
            ("epq", {"s": 1, "p": 1, "q": 1}, "s does not apply to epq"),
            ("epq", {"p": 1}, "epq needs p and q"),
            ("mse2", {"s": 1, "t": 2}, "s and t both set the mse2 weight; give one"),
            ("mse2", {"t": 1}, "geometric decay needs t > 1"),
            ("hs", {"s": -1}, "poly weights need s >= 0"),
            ("poly", {}, "unknown space name 'poly'"),
        ],
    )
    def test_named_rejects_what_the_space_does_not_take(self, name, given, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SpaceWeight.named(name, **given)

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.0, -2.0])
    def test_geometric_needs_t_above_one(self, t):
        with pytest.raises(ValueError, match="needs t > 1"):
            SpaceWeight.geometric(t)


_LOG10_E = math.log10(math.e)


class TestKindAccessors:
    """What each kind means, given by the weight: the report name, the fit
    axis, the theory slope and the growth law the tail bounds read."""

    @pytest.mark.parametrize(
        "space, name, axis, slope",
        [
            (SpaceWeight.polynomial(2.0 / 3.0), "hs", "log-n", -2.0 / 3.0),
            (SpaceWeight.exponential(0.5, 2.0), "epq", "sqrt-n", None),
            (SpaceWeight.mod_poly(2.5), "ms", "log-n", -2.5),
            (SpaceWeight.mod_exp(0.5), "mse", "sqrt-n",
             -math.sqrt(2.0) * (0.5 / math.sqrt(PI)) * _LOG10_E),
            (SpaceWeight.geometric(1.25), "mse2", "n", -2.0 * math.log10(1.25)),
            (SpaceWeight.mod_exp2(0.6), "mse2", "n", -2.0 * math.log10(PI / (PI - 0.6))),
        ],
    )
    def test_name_axis_and_theory_slope(self, space, name, axis, slope):
        assert (space.name, space.axis, space.theory_slope) == (name, axis, slope)

    @pytest.mark.parametrize(
        "space",
        [
            SpaceWeight.exponential(0.5, 2.0),
            SpaceWeight.exponential(1.0, 0.3),
            SpaceWeight.mod_exp(1.0),
            SpaceWeight.mod_exp(0.5),
            SpaceWeight.geometric(1.25),
            SpaceWeight.mod_exp2(0.6),
        ],
    )
    def test_decay_is_the_exponential_weight(self, space):
        law = space.decay()
        assert law.s is None
        k = np.arange(2001)
        from_law = law.c * np.exp(-law.q * k.astype(float) ** law.p)
        direct = 1.0 / lambda_of(space, k)
        assert np.max(np.abs(from_law - direct) / direct) < 1e-12

    @pytest.mark.parametrize(
        "space",
        [
            SpaceWeight.exponential(0.5, 2.0),
            SpaceWeight.exponential(1.0, 0.3),
            SpaceWeight.exponential(2.0, 0.01),
            SpaceWeight.mod_exp(1.0),
            SpaceWeight.mod_exp(0.5),
        ],
    )
    def test_exponential_weights_keep_their_bits(self, space):
        # lambda_k = e^(q k^p) / c, read from the growth law, has the bits of
        # the expressions written out per kind
        k = np.arange(50_001)
        kf = k.astype(float)
        with np.errstate(over="ignore"):
            if space.kind == "exp":
                written = np.exp(space.q * kf**space.p)
            else:
                written = np.exp(space.s / math.sqrt(math.pi) * np.sqrt(kf))
        assert np.array_equal(lambda_of(space, k), written)
        assert all(lambda_of(space, int(j)) == written[j] for j in (0, 1, 7, 4_096, 50_000))

    @pytest.mark.parametrize(
        "space, k",
        [
            (SpaceWeight.polynomial(0.0), np.arange(2001)),
            (SpaceWeight.polynomial(2.0 / 3.0), np.arange(2001)),
            (SpaceWeight.mod_poly(0.0), np.arange(2001)),
            (SpaceWeight.mod_poly(2.0), np.arange(2001)),
            (SpaceWeight.mod_poly(3.0), np.arange(2001)),
            # non-integer s: one quadrature per moment, so fewer k
            (SpaceWeight.mod_poly(2.5), np.r_[0:40, 100:2001:150]),
        ],
    )
    def test_decay_bounds_the_polynomial_weight(self, space, k):
        law = space.decay()
        assert (law.s, law.p, law.q) == (space.s, None, None)
        bound = law.c * (1.0 + k) ** -law.s
        direct = 1.0 / lambda_of(space, k)
        assert np.all(direct <= bound * (1.0 + 1e-14))
        if space.kind == "poly":
            assert np.max(np.abs(bound - direct) / direct) < 1e-14


class TestCoeffNorm:
    def test_basis_element(self):
        sw = SpaceWeight.polynomial(2.0)
        f = HermiteExpansion.unit(3)
        assert coeff_norm_sq(sw, f) == pytest.approx(16.0, rel=1e-15)

    def test_parseval_at_s0(self):
        sw = SpaceWeight.polynomial(0.0)
        f = HermiteExpansion(np.array([0.3, -0.4, 1.2]))
        assert coeff_norm_sq(sw, f) == pytest.approx(float(np.sum(f.coeffs**2)), rel=1e-15)

    def test_geometric_series(self):
        t = 1.25
        sw = SpaceWeight.exponential(1.0, math.log(t))
        m = 12
        coeffs = t ** (-np.arange(m + 1) / 2.0)
        f = HermiteExpansion(coeffs)
        # lambda_k fhat_k^2 = 1 for every k
        assert coeff_norm_sq(sw, f) == pytest.approx(m + 1.0, rel=1e-13)

    def test_dominates_l2_when_weights_exceed_one(self):
        sw = SpaceWeight.polynomial(1.5)
        f = HermiteExpansion(np.array([0.5, 0.1, -0.7, 0.2]))
        assert coeff_norm_sq(sw, f) >= float(np.sum(f.coeffs**2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HermiteExpansion(np.array([1.0, np.inf]))


class TestRadialMoment:
    def test_mod_poly_s0(self):
        for k in (0, 1, 5, 20):
            assert radial_moment(SpaceWeight.mod_poly(0.0), k) == pytest.approx(1.0, rel=1e-14)

    def test_mod_poly_s1_k2(self):
        assert radial_moment(SpaceWeight.mod_poly(1.0), 2) == pytest.approx(1.0 + 3.0 / PI, rel=1e-13)

    def test_mod_exp2_geometric(self):
        s = PI * (1.0 - 0.8)
        assert radial_moment(SpaceWeight.mod_exp2(s), 3) == pytest.approx(1.25 ** 4, rel=1e-14)

    def test_nonint_s_against_mpmath(self):
        s = 1.5
        for k in (0, 3, 10):
            with mp.workdps(30):
                ref = mp.quad(
                    lambda t: mp.e ** (k * mp.log(t) - t - mp.loggamma(k + 1))
                    * (1 + t / mp.pi) ** s if t > 0 else mp.mpf(0),
                    [0, k + 5, k + 40 * math.sqrt(k + 1) + 60],
                )
            got = radial_moment(SpaceWeight.mod_poly(s), k)
            assert got == pytest.approx(float(ref), rel=1e-10)

    def test_mod_exp_quadrature_against_mpmath(self):
        s = 1.0
        k = 7
        with mp.workdps(30):
            ref = mp.quad(
                lambda t: mp.e
                ** (k * mp.log(t) - t - mp.loggamma(k + 1) + s * mp.sqrt(t / mp.pi))
                if t > 0 else mp.mpf(0),
                [0, k + 5, k + 40 * math.sqrt(k + 1) + 60],
            )
        assert radial_moment(SpaceWeight.mod_exp(s), k) == pytest.approx(float(ref), rel=1e-10)

    def test_validation(self):
        # s is checked once, by the weight
        with pytest.raises(ValueError):
            radial_moment(SpaceWeight.mod_poly(-0.5), 2)
        with pytest.raises(ValueError):
            radial_moment(SpaceWeight.mod_exp2(PI), 2)
        for space in (SpaceWeight.mod_poly(1.0), SpaceWeight.mod_exp(1.0)):
            with pytest.raises(ValueError, match="moment index"):
                radial_moment(space, -1)
        f = HermiteExpansion.unit(0)
        for space in (SpaceWeight.polynomial(1.0), SpaceWeight.exponential(1.0, 1.0)):
            with pytest.raises(ValueError, match="mod-\\* weight"):
                radial_moment(space, 2)
            with pytest.raises(ValueError, match="mod-\\* weight"):
                modulation_norm_sq(space, HermiteExpansion(np.zeros(3)))
            with pytest.raises(ValueError, match="mod-\\* weight"):
                stft_grid_norm_sq(space, f)

    @pytest.mark.parametrize("t", [1.25, 3.0, 50.0 / 49.0])
    def test_mod_exp2_moment_is_the_weight(self, t):
        # the moment of a geometric(t) weight is t^(k+1) at the t it keeps
        space = SpaceWeight.geometric(t)
        for k in range(41):
            assert radial_moment(space, k) == lambda_of(space, k)
            assert radial_moment(space, k) == pytest.approx(t ** (k + 1), rel=1e-14)


class TestModulationNorm:
    def test_exact_geometric_identity(self):
        for t in (1.25, 50.0 / 49.0):
            for k in (0, 1, 7, 15):
                f = HermiteExpansion.unit(k)
                assert modulation_norm_sq(SpaceWeight.geometric(t), f) == pytest.approx(
                    t ** (k + 1), rel=1e-12
                )

    def test_s0_unitary(self):
        f = HermiteExpansion.unit(0)
        assert modulation_norm_sq(SpaceWeight.mod_poly(0.0), f) == pytest.approx(1.0, rel=1e-14)

    def test_poly_s1_h2(self):
        f = HermiteExpansion.unit(2)
        assert modulation_norm_sq(SpaceWeight.mod_poly(1.0), f) == pytest.approx(
            1.0 + 3.0 / PI, rel=1e-13
        )

    def test_requires_alpha2(self):
        f = HermiteExpansion(np.array([1.0]), alpha=4.0)
        with pytest.raises(ValueError):
            modulation_norm_sq(SpaceWeight.mod_poly(1.0), f)

    def test_poly_ratio_interval(self):
        # ||h_k||^2 / (1+k)^s confined to an interval of width <= 4
        for s in (1.0, 2.0):
            k = np.arange(0, 201)
            moments = np.array([radial_moment(SpaceWeight.mod_poly(s), int(kk)) for kk in k])
            ratio = moments / (1.0 + k) ** s
            assert ratio.min() > 0.05
            assert ratio.max() - ratio.min() <= 4.0

    def test_mod_exp_bounded_ratio(self):
        # moment * e^{-(s/sqrt(pi)) sqrt(k)} pinned near a constant
        s = 1.0
        ratios = []
        for k in (10, 25, 50, 100, 200, 400):
            mom = radial_moment(SpaceWeight.mod_exp(s), k)
            ratios.append(mom * math.exp(-s / math.sqrt(PI) * math.sqrt(k)))
        assert max(ratios) / min(ratios) < 1.5
        assert 0.8 < min(ratios) <= max(ratios) < 1.5


class TestGridNorm:
    def test_h1_geometric(self):
        s = PI * (1.0 - 0.8)
        f = HermiteExpansion.unit(1)
        got = stft_grid_norm_sq(SpaceWeight.mod_exp2(s), f)
        assert got == pytest.approx(1.25 ** 2, rel=1e-4)

    def test_h0_unitary(self):
        f = HermiteExpansion.unit(0)
        assert stft_grid_norm_sq(SpaceWeight.mod_poly(0.0), f) == pytest.approx(1.0, rel=1e-6)

    def test_matches_diagonal_two_term(self):
        c = np.zeros(4)
        c[0] = c[3] = 1.0 / math.sqrt(2.0)
        f = HermiteExpansion(c)
        got = stft_grid_norm_sq(SpaceWeight.mod_poly(1.0), f)
        ref = modulation_norm_sq(SpaceWeight.mod_poly(1.0), f)
        assert got == pytest.approx(ref, rel=1e-4)

    def test_matches_diagonal_random_expansion(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=8)
        c /= math.sqrt(float(np.sum(c * c)))
        f = HermiteExpansion(c)
        for kind, s in (("mod-poly", 2.0), ("mod-exp", 0.5), ("mod-exp2", PI / 5)):
            space = SpaceWeight(kind, s=s)
            got = stft_grid_norm_sq(space, f)
            ref = modulation_norm_sq(space, f)
            assert got == pytest.approx(ref, rel=1e-4)

    def test_grid_insufficient(self):
        f = HermiteExpansion.unit(6)
        with pytest.raises(GridInsufficientError):
            stft_grid_norm_sq(SpaceWeight.mod_poly(1.0), f, radius=1.0)
