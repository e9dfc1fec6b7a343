"""Reproducing kernels of the weighted spaces and tail-truncation control.

The closed-form kernel for geometric coefficient decay t^{-(k+1)} at
alpha = 2 is

    K_t(x, y) = sqrt(2/(t^2-1)) * exp( pi/(t^2-1) * (4 t x y - (t^2+1)(x^2+y^2)) )

All other kernels are expansions sum lambda_k^{-1} h_k(x) h_k(y).  Their
tails are bounded through the weight's growth law (``SpaceWeight.decay``)
and the uniform-in-x envelope sup_x |h_k(x)|^2 <= C k^(1/3 - 1/alpha).
The theory gives the envelope exponent and only the existence of C;
``sup_envelope_constant`` measures C on a basis for absolute tail bounds
(``tail_index``).  The series route (``wce.wce_series``) bounds its tail
relative to the first retained term, where C cancels, so it uses the
exponent alone.  An exponential tail is bounded by an integral, an upper
incomplete gamma function Gamma(c, z) that this module evaluates itself
(``_upper_gamma``), so series truncation loads no special-function module.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import UnboundedTailError
from .orthopoly import FreudBasis, _grid_radius_scale, _sweep
from .spaces import SpaceWeight

__all__ = [
    "mehler",
    "sup_envelope_constant",
    "tail_index",
]

_TAIL_HARD_CAP = 50_000_000
_ENVELOPE_K_CAP = 512  # modes scanned for the envelope constant
_ENVELOPE_SAFETY = 4.0  # factor on the measured grid maximum
_GAMMA_CF_STEPS = 10_000  # continued-fraction steps: enough for c up to 1e9
_EPS = sys.float_info.epsilon
_TINY = 1e-300  # Lentz's stand-in for a zero denominator


def mehler(t: float, x, y):
    """Closed-form kernel for geometric decay t^{-(k+1)}, t > 1, alpha = 2.

    The exponent is evaluated in the algebraically equivalent form
    -pi ((t^2+1)(x-y)^2 + 2(t-1)^2 x y) / (t^2-1), which avoids the
    cancellation of two large terms for t near 1.
    """
    if not 1 < t < math.inf:
        raise ValueError(f"kernel parameter must be finite and exceed 1, got t={t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = math.sqrt(2.0 / (t * t - 1.0))
    arg = -math.pi * ((t * t + 1.0) * (x - y) ** 2 + 2.0 * (t - 1.0) ** 2 * x * y) / (
        t * t - 1.0
    )
    out = pref * np.exp(arg)
    return float(out) if out.ndim == 0 else out


def sup_envelope_constant(basis: FreudBasis) -> float:
    """Measured constant C with sup_x |h_k(x)|^2 <= C * k^(1/3 - 1/alpha).

    The envelope exponent is known, the constant is not; it is estimated
    as the maximum of |h_k|^2 k^(1/alpha - 1/3) for k <= 512 on a dense
    grid over the essential support, times a safety factor of 4.  The value
    depends on the basis it is measured on, and each call measures it
    again.  The grid maximum of |h_k| is taken block by block as ``_sweep``
    streams the values, each block dropped before the next is built, and
    then squared: squaring is monotone under rounding, so that is the
    maximum of the squares, bit for bit.
    """
    kmax = min(_ENVELOPE_K_CAP, basis.n_max)
    R = 1.25 * _grid_radius_scale(basis.alpha, max(kmax, 1))
    grid = np.linspace(-R, R, 2001)
    sup = np.empty(kmax + 1)
    for k0, H in _sweep(basis, grid, kmax):
        np.abs(H, out=H).max(axis=1, out=sup[k0:k0 + len(H)])
        del H
    k = np.arange(1, kmax + 1, dtype=float)
    envelope = sup[1:] ** 2 * k ** (1.0 / basis.alpha - 1.0 / 3.0)
    return _ENVELOPE_SAFETY * float(envelope.max())


def _times_exp(kc: float, z: float) -> float:
    """kc e^-z, through logarithms where e^-z alone is below the normal range."""
    e = math.exp(-z)
    if e >= sys.float_info.min or kc == 0.0:
        return kc * e
    return math.exp(math.log(kc) - z)


def _upper_gamma(c: float, z: float, q: float, kc: float) -> float:
    """q^-c Gamma(c, z), given kc = (z/q)^c, for c > 0, q > 0 and z >= 0.

    Gamma(c, z) is the upper incomplete gamma function, the integral of
    t^(c-1) e^-t over t > z.  Below z = c + 1 it is Gamma(c) - gamma(c, z),
    with gamma(c, z) = z^c e^-z sum_n z^n / (c (c+1) ... (c+n)); from
    z = c + 1 up it is z^c e^-z times Lentz's continued fraction, which
    takes about c^(1/3) steps next to the seam (9 015 at c = 1e9).  Both
    write q^-c z^c e^-z as kc e^-z, so neither power overflows or
    underflows on its own; q^-c Gamma(c) falls back to logarithms where a
    factor leaves the float range.  Raises ``OverflowError`` where the
    value is beyond any float, ``UnboundedTailError`` past the step cap.
    """
    if z < c + 1.0:
        try:
            head = math.gamma(c) * q ** -c
        except OverflowError:
            head = 0.0
        if not sys.float_info.min <= head < math.inf:
            head = math.exp(math.lgamma(c) - c * math.log(q))
        term = total = 1.0 / c
        a = c
        while term > total * _EPS:
            a += 1.0
            term *= z / a
            total += term
        return head - _times_exp(kc, z) * total
    b = z + 1.0 - c
    C = 1.0 / _TINY
    D = 1.0 / b
    h = D
    for i in range(1, _GAMMA_CF_STEPS + 1):
        an = -i * (i - c)
        b += 2.0
        D = an * D + b
        if abs(D) < _TINY:
            D = _TINY
        C = b + an / C
        if abs(C) < _TINY:
            C = _TINY
        D = 1.0 / D
        delta = D * C
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return _times_exp(kc, z) * h
    raise UnboundedTailError(
        f"the continued fraction of Gamma({c:.6g}, {z:.6g}) did not converge in "
        f"{_GAMMA_CF_STEPS} steps"
    )


def _exp_tail_bound(K: int, p: float, q: float, gamma_exp: float, const: float) -> float:
    """Upper bound for const * sum_{k>K} k^gamma_exp exp(-q k^p).

    Integral comparison: the integral from K is q^-c Gamma(c, q K^p) / p with
    c = (gamma_exp + 1) / p, from ``_upper_gamma``; when the summand still
    increases past K (gamma_exp > 0, small K) one maximal term is added to
    keep the bound valid.  Never NaN; inf only beyond the float range.
    """
    c = (gamma_exp + 1.0) / p
    Kf = float(max(K, 0))
    try:
        integral = _upper_gamma(c, q * Kf**p, q, Kf ** (gamma_exp + 1.0)) / p
        bound = const * integral
        if gamma_exp > 0:
            x_peak = (gamma_exp / (p * q)) ** (1.0 / p)
            if x_peak > K:
                bound += const * x_peak**gamma_exp * math.exp(-q * x_peak**p)
    except OverflowError:  # q^-c Gamma(c) or the peak is beyond any float
        return math.inf
    return bound


def tail_index(
    space: SpaceWeight, start: int, tol: float, alpha: float, sup_const: float
) -> int:
    """Smallest K with sum_{k>K} lambda_k^{-1} * sup_const * k^(1/3-1/alpha) < tol.

    May return start-1, meaning the whole tail from ``start`` is already
    below the tolerance.  Raises when the weights grow too slowly for the
    envelope bound to reach ``tol`` below a hard cap.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not 1 < alpha < math.inf:  # so that the envelope exponent g exceeds -2/3
        raise ValueError(f"weight exponent must be finite and > 1, got alpha={alpha}")
    law = space.decay()
    if not (law.q if law.s is None else law.s) > 0:
        raise UnboundedTailError(
            f"{space.kind} weight with no growth cannot meet a finite tail bound"
        )
    g = 1.0 / 3.0 - 1.0 / alpha

    if law.s is not None:
        beta = law.s - g
        if beta <= 1.0:
            raise UnboundedTailError(
                f"polynomial weight s={law.s} decays too slowly against the "
                f"k^({g:.3f}) envelope (needs s > {1.0 + g:.3f})"
            )
        # sum_{k>K} k^-beta <= K^(1-beta)/(beta-1)
        try:
            target = (sup_const * law.c / (tol * (beta - 1.0))) ** (1.0 / (beta - 1.0))
            K = max(start - 1, 1, math.ceil(target))
        except OverflowError:  # K is beyond any float
            K = math.inf
        if K > _TAIL_HARD_CAP:
            raise UnboundedTailError(
                f"tail bound needs K ~ {K:.3e} terms, above the cap of {_TAIL_HARD_CAP}"
            )
        return K

    def bound(K: int) -> float:
        return _exp_tail_bound(K, law.p, law.q, g, law.c * sup_const)

    lo = max(start - 1, 0)
    if bound(lo) < tol:
        return lo
    hi = max(lo, 1)
    while bound(hi) >= tol:
        hi *= 2
        if hi > _TAIL_HARD_CAP:
            raise UnboundedTailError(
                f"tail bound needs more than the cap of {_TAIL_HARD_CAP} terms"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi
