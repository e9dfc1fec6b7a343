"""Reproducing kernels of the weighted spaces and tail-truncation control.

The closed-form kernel for geometric coefficient decay t^{-(k+1)} at
alpha = 2 is

    K_t(x, y) = sqrt(2/(t^2-1)) * exp( pi/(t^2-1) * (4 t x y - (t^2+1)(x^2+y^2)) )

All other kernels are truncated expansions sum lambda_k^{-1} h_k(x) h_k(y);
the truncation index comes from a uniform-in-x envelope of |h_k|^2, whose
constant is measured at startup (the theory provides only its existence).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, gammaincc

from ._accum import comp_sum
from .errors import CapacityError, UnboundedTailError
from .orthopoly import FreudBasis, basis_matrix, mrs_number
from .spaces import SpaceWeight, lambda_of

__all__ = [
    "mehler",
    "sup_envelope_constant",
    "tail_index",
    "truncated_kernel",
]

_TAIL_HARD_CAP = 50_000_000
_ENVELOPE_K_CAP = 512  # modes scanned for the envelope constant
_ENVELOPE_SAFETY = 4.0  # factor on the measured grid maximum


def mehler(t: float, x, y):
    """Closed-form kernel for geometric decay t^{-(k+1)}, t > 1, alpha = 2.

    The exponent is evaluated in the algebraically equivalent form
    -pi ((t^2+1)(x-y)^2 + 2(t-1)^2 x y) / (t^2-1), which avoids the
    cancellation of two large terms for t near 1.
    """
    if t <= 1:
        raise ValueError(f"kernel parameter must exceed 1, got t={t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = math.sqrt(2.0 / (t * t - 1.0))
    arg = -math.pi * ((t * t + 1.0) * (x - y) ** 2 + 2.0 * (t - 1.0) ** 2 * x * y) / (
        t * t - 1.0
    )
    out = pref * np.exp(arg)
    return float(out) if out.ndim == 0 else out


_sup_cache: dict[tuple[float, int], float] = {}


def sup_envelope_constant(basis: FreudBasis) -> float:
    """Measured constant C with sup_x |h_k(x)|^2 <= C * k^(1/3 - 1/alpha).

    The envelope exponent is known, the constant is not; it is estimated
    as the maximum of |h_k|^2 k^(1/alpha - 1/3) for k <= 512 on a dense
    grid over the essential support, times a safety factor of 4.  Cached
    per (alpha, scanned modes).
    """
    kmax = min(_ENVELOPE_K_CAP, basis.n_max)
    key = (round(float(basis.alpha), 12), kmax)
    if key in _sup_cache:
        return _sup_cache[key]
    R = 1.25 * mrs_number(basis.alpha, max(kmax, 1))
    grid = np.linspace(-R, R, 2001)
    H = basis_matrix(basis, grid, kmax)
    k = np.arange(1, kmax + 1, dtype=float)
    envelope = (H[1:] ** 2).max(axis=1) * k ** (1.0 / basis.alpha - 1.0 / 3.0)
    value = _ENVELOPE_SAFETY * float(envelope.max())
    _sup_cache[key] = value
    return value


def _exp_tail_bound(K: int, p: float, q: float, gamma_exp: float, const: float) -> float:
    """Upper bound for const * sum_{k>K} k^gamma_exp exp(-q k^p).

    Integral comparison via the upper incomplete gamma function; when the
    summand still increases past K (gamma_exp > 0, small K) one maximal
    term is added to keep the bound valid.
    """
    c = (gamma_exp + 1.0) / p
    z = q * float(max(K, 0)) ** p
    integral = (1.0 / p) * q ** (-c) * gamma(c) * gammaincc(c, z)
    bound = const * integral
    if gamma_exp > 0:
        x_peak = (gamma_exp / (p * q)) ** (1.0 / p)
        if x_peak > K:
            bound += const * x_peak**gamma_exp * math.exp(-q * x_peak**p)
    return bound


def tail_index(
    space: SpaceWeight, start: int, tol: float, alpha: float, sup_const: float
) -> int:
    """Smallest K with sum_{k>K} lambda_k^{-1} * sup_const * k^(1/3-1/alpha) < tol.

    May return start-1, meaning the whole tail from ``start`` is already
    below the tolerance.  Raises when the weights grow too slowly for the
    envelope bound to reach ``tol`` below a hard cap.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not space.has_decay:
        raise UnboundedTailError(
            f"{space.kind} weight with no growth cannot meet a finite tail bound"
        )
    g = 1.0 / 3.0 - 1.0 / alpha

    if space.kind in ("poly", "mod-poly"):
        s = space.s
        const = sup_const
        if space.kind == "mod-poly":
            # sound lower bound mu_k >= (1+k)^s (2 pi)^-s from the digamma
            # inequality psi(k+1) >= log(k + 1/2)
            const = sup_const * (2.0 * math.pi) ** s
        beta = s - g
        if beta <= 1.0:
            raise UnboundedTailError(
                f"polynomial weight s={s} decays too slowly against the "
                f"k^({g:.3f}) envelope (needs s > {1.0 + g:.3f})"
            )
        # sum_{k>K} k^-beta <= K^(1-beta)/(beta-1)
        K = max(start - 1, 1)
        target = (const / (tol * (beta - 1.0))) ** (1.0 / (beta - 1.0))
        K = max(K, int(math.ceil(target)))
        if K > _TAIL_HARD_CAP:
            raise UnboundedTailError(
                f"tail bound needs K ~ {K:.3e} terms; weights too slow for tol={tol:.1e}"
            )
        return max(K, start - 1)

    # exponential families, possibly with a constant prefactor on lambda^-1
    equivalent = space.coefficient_equivalent()  # an exp weight returns itself
    p, q, scale = equivalent.p, equivalent.q, 1.0
    if space.kind == "mod-exp2":  # lambda_k = t^(k+1) = t * e^(k log t)
        t = math.pi / (math.pi - space.s)
        scale = 1.0 / t

    def bound(K: int) -> float:
        return _exp_tail_bound(K, p, q, g, scale * sup_const)

    lo = max(start - 1, 0)
    if bound(lo) < tol:
        return lo
    hi = max(lo, 1)
    while bound(hi) >= tol:
        hi *= 2
        if hi > _TAIL_HARD_CAP:
            raise UnboundedTailError(
                f"tail bound did not reach tol={tol:.1e} below {_TAIL_HARD_CAP} terms"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def truncated_kernel(
    basis: FreudBasis,
    space: SpaceWeight,
    start: int,
    x: float,
    y: float,
    tol: float,
) -> float:
    """sum_{k=start}^{K} lambda_k^{-1} h_k(x) h_k(y), K from ``tail_index``."""
    if start < 0:
        raise ValueError("start must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    K = tail_index(space, start, tol, basis.alpha, sup_envelope_constant(basis))
    if K < start:
        return 0.0
    if K > basis.n_max:
        raise CapacityError(
            f"truncation needs index {K}, basis capacity is {basis.n_max}",
            required=K,
        )
    H = basis_matrix(basis, np.array([x, y]), K)
    k = np.arange(start, K + 1)
    lam = lambda_of(space, k)
    return comp_sum(H[start:, 0] * H[start:, 1] / lam)
