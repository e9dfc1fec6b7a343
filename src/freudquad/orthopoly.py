"""Orthonormal weighted basis for Freud weights W(x) = exp(-pi |x|^alpha).

The basis functions are h_k = H_k * W where the H_k are the polynomials
orthonormal with respect to W^2.  The raw polynomials are never formed:
their values blow up like exp(+pi |x|^alpha), so the three-term recurrence
is applied to the weighted functions directly (the weight factors out, the
coefficients are identical) and every value stays bounded.

For alpha = 2 the recurrence coefficients have the closed form
a_k = sqrt(k / (4 pi)) and c0 = 2**0.25.  For other exponents they are
computed by a Stieltjes procedure on a composite Gauss-Legendre reference
quadrature whose resolution is doubled until the coefficients stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, roots_legendre

from .errors import CapacityError, ConvergenceError

__all__ = [
    "FreudBasis",
    "StieltjesOptions",
    "weight_value",
    "mrs_number",
    "build_basis",
    "eval_basis",
    "basis_matrix",
]


def weight_value(alpha: float, x):
    """Freud weight exp(-pi |x|^alpha); even and strictly positive.

    ``x`` may be a scalar or an array.
    """
    if alpha <= 1:
        raise ValueError(f"weight exponent must exceed 1, got alpha={alpha}")
    return np.exp(-math.pi * np.abs(x) ** alpha)


def mrs_number(alpha: float, n: int) -> float:
    """Mhaskar-Rahmanov-Saff scale for weighted polynomials of degree n.

    m_{n,alpha} = (2/sqrt(pi)) * (Gamma(alpha/2)^2 / (4 Gamma(alpha)))^(1/alpha) * n^(1/alpha)

    Weighted polynomials of degree n are exponentially small outside
    [-m_n, m_n]; all reference-quadrature supports are sized from it.
    """
    if alpha <= 1:
        raise ValueError(f"weight exponent must exceed 1, got alpha={alpha}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got n={n}")
    const = (gamma(alpha / 2.0) ** 2 / (4.0 * gamma(alpha))) ** (1.0 / alpha)
    return 2.0 / math.sqrt(math.pi) * const * n ** (1.0 / alpha)


@dataclass(frozen=True)
class StieltjesOptions:
    """Controls for the recurrence-coefficient iteration (alpha != 2)."""

    coeff_tol: float = 1e-13      # stabilization target between refinements
    ortho_tol: float = 1e-8       # orthonormality defect on the verification grid
    initial_panels: int = 16      # composite Gauss-Legendre panels (even count)
    panel_degree: int = 24        # points per panel
    max_doublings: int = 8


@dataclass(frozen=True)
class FreudBasis:
    """Immutable recurrence data for the weighted basis h_0 .. h_{n_max}.

    ``coeffs[k-1]`` holds a_k in the recurrence
    x h_k = a_{k+1} h_{k+1} + a_k h_{k-1}; there is no diagonal term
    because the weight is even.  ``c0`` is (integral of W^2)^(-1/2), so
    h_0 = c0 * W.
    """

    alpha: float
    c0: float
    coeffs: np.ndarray
    n_max: int

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def _reference_grid(alpha: float, n_max: int, panels: int, degree: int):
    """Composite Gauss-Legendre rule on [-R, R] sized by the MRS number.

    An even panel count keeps x=0 on a panel boundary, where |x|^alpha has
    limited smoothness for non-even alpha.
    """
    R = mrs_number(alpha, 2 * n_max) * (1.0 + 3.0 * n_max ** (-2.0 / 3.0)) + 2.0
    xg, wg = roots_legendre(degree)
    edges = np.linspace(-R, R, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.tile(half * wg, panels)
    return x, w, R


def _stieltjes_pass(alpha: float, n_max: int, x, w):
    """One sweep of the Stieltjes iteration on the weighted functions.

    Orthonormalizes x*h_k against h_{k-1} under the supplied reference
    quadrature; returns (c0, a_1..a_{n_max}).
    """
    # not built on _sweep: this recurrence produces the coefficients it recurs on
    W = np.exp(-math.pi * np.abs(x) ** alpha)
    c0 = 1.0 / math.sqrt(float(np.sum(w * W * W)))
    a = np.zeros(n_max)
    h_prev = np.zeros_like(x)
    h_cur = c0 * W
    for k in range(n_max):
        v = x * h_cur - (a[k - 1] if k >= 1 else 0.0) * h_prev
        norm_sq = float(np.sum(w * v * v))
        if not norm_sq > 0:
            raise ConvergenceError(
                f"Stieltjes norm collapsed at index {k + 1}", index=k + 1
            )
        a[k] = math.sqrt(norm_sq)
        h_prev, h_cur = h_cur, v / a[k]
    return c0, a


_GRAM_CHUNK = 4096  # grid points per Gram update in _verify_orthonormality


def _verify_orthonormality(basis: FreudBasis, x, w, tol: float) -> float:
    """Max deviation of the Gram matrix from the identity on a given grid.

    The grid must be mirrored about 0: an even number of points with
    x[i] = -x[-1-i] to a few ulps of its half-width (``_reference_grid`` is
    off by at most two); otherwise ``ValueError``.  The weights of x and -x
    are pooled, which changes nothing for Gauss-Legendre panels, whose
    weights are mirrored too.

    The weight is even and the recurrence has no diagonal term, so
    h_k(-x) = (-1)^k h_k(x) holds bit for bit (negation is exact).  On the
    mirrored grid every Gram entry sum_x w(x) h_j(x) h_k(x) with j + k odd
    is therefore exactly zero, whatever the coefficients, and the others are
    sums over the positive half with the two weights combined.  So the full
    (n+1)^2 Gram matrix is checked as its even-even and odd-odd blocks, each
    accumulated over chunks of ``_GRAM_CHUNK`` positive points as
    (sqrt(w) H)(sqrt(w) H)^T on the strided rows H[0::2] and H[1::2], which
    numpy sends to syrk without a copy.  At most one chunk of basis columns
    is held.  The combined root weight is hypot(sqrt(w(x)), sqrt(w(-x))), so
    a negative or NaN weight on either half gives a NaN defect, which fails
    the check.
    """
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    half = x.size // 2
    xp = x[half:]
    if x.size % 2 or not np.all(
        np.abs(xp + x[half - 1::-1]) <= 8 * np.spacing(np.abs(x).max())
    ):
        raise ValueError("the verification grid must be mirrored about 0")
    root_w = np.hypot(np.sqrt(w[half:]), np.sqrt(w[half - 1::-1]))
    n = basis.n_max
    Ge = np.zeros((n // 2 + 1, n // 2 + 1))  # h_0, h_2, ...
    Go = np.zeros(((n + 1) // 2, (n + 1) // 2))  # h_1, h_3, ...
    for i in range(0, half, _GRAM_CHUNK):
        H = basis_matrix(basis, xp[i:i + _GRAM_CHUNK], n)
        H *= root_w[i:i + _GRAM_CHUNK]
        He, Ho = H[0::2], H[1::2]
        Ge += He @ He.T
        Go += Ho @ Ho.T
    # np.max, unlike max(), keeps a NaN from either block
    defect = float(np.max([np.abs(G - np.eye(len(G))).max() for G in (Ge, Go)]))
    if not defect <= tol:
        raise ConvergenceError(
            f"orthonormality defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    return defect


def build_basis(
    alpha: float, n_max: int, opts: StieltjesOptions | None = None
) -> FreudBasis:
    """Construct the weighted basis up to index ``n_max``.

    alpha = 2 uses the closed forms unconditionally.  Otherwise the
    Stieltjes procedure runs on the reference grid, doubling the panel
    count until every coefficient moves by less than ``opts.coeff_tol``
    (relative), and the result is checked for orthonormality on a finer
    grid than the one that produced it.
    """
    if alpha <= 1:
        raise ValueError(f"weight exponent must exceed 1, got alpha={alpha}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    opts = opts or StieltjesOptions()

    if alpha == 2.0:
        k = np.arange(1, n_max + 1, dtype=float)
        return FreudBasis(2.0, 2.0 ** 0.25, np.sqrt(k / (4.0 * math.pi)), n_max)

    # c0 from adaptive quadrature, independently of the panel grid
    half, err = quad(
        lambda u: math.exp(-2.0 * math.pi * u ** alpha), 0.0, np.inf,
        epsabs=0.0, epsrel=1e-13,
    )
    c0 = 1.0 / math.sqrt(2.0 * half)

    panels = opts.initial_panels
    prev = None
    for _ in range(opts.max_doublings + 1):
        x, w, _ = _reference_grid(alpha, n_max, panels, opts.panel_degree)
        _, a = _stieltjes_pass(alpha, n_max, x, w)
        if prev is not None:
            change = np.abs(a - prev) / np.abs(a)
            if change.max() < opts.coeff_tol:
                basis = FreudBasis(float(alpha), c0, a, n_max)
                xf, wf, _ = _reference_grid(alpha, n_max, 2 * panels, opts.panel_degree)
                _verify_orthonormality(basis, xf, wf, opts.ortho_tol)
                return basis
        prev = a
        panels *= 2
    failing = int(np.argmax(np.abs(a - prev))) + 1 if prev is not None else 1
    raise ConvergenceError(
        f"recurrence coefficients did not stabilize to {opts.coeff_tol:.1e} "
        f"(worst index {failing}) after {opts.max_doublings} refinements",
        index=failing,
    )


def _sweep(basis: FreudBasis, x, stop: int, block: int = 1024):
    """Yield ``(k0, H)`` blocks covering h_0(x) .. h_stop(x) in order.

    The one evaluation of the three-term recurrence on the weighted
    functions, run once from h_0 = c0 * W(x) for an array ``x`` of any
    shape with at least one axis.  ``H`` has shape ``(b, *x.shape)`` with
    ``H[j] = h_{k0+j}(x)`` and ``b <= block``; every block is a fresh array.
    """
    if stop > basis.n_max:
        raise CapacityError(
            f"requested index {stop} exceeds basis capacity {basis.n_max}",
            required=stop,
        )
    x = np.asarray(x, dtype=float)
    a = [0.0, *basis.coeffs[:stop].tolist()]  # a[k] = a_k, a_0 = 0
    h_prev = 0.0  # h_{-1}; rows are written in place, no extra row is held
    for k0 in range(0, stop + 1, block):
        H = np.empty((min(block, stop + 1 - k0), *x.shape))
        for k, h in zip(range(k0, stop + 1), H):
            if k == 0:
                h[...] = basis.c0 * np.exp(-math.pi * np.abs(x) ** basis.alpha)
            else:
                np.divide(x * h_cur - a[k - 1] * h_prev, a[k], h)
                h_prev = h_cur
            h_cur = h
        yield k0, H


def basis_matrix(basis: FreudBasis, x, n: int) -> np.ndarray:
    """Values h_0(x) .. h_n(x), shape (n+1, len(x)).

    Upward recurrence on the weighted functions; finite for every real x
    because the weight is folded in (far outside the MRS interval the
    values underflow to zero, which is the correct rounded result).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return next(_sweep(basis, x, n, block=n + 1))[1]


def eval_basis(basis: FreudBasis, x: float, n: int) -> np.ndarray:
    """Vector [h_0(x), ..., h_n(x)] at a single point."""
    return basis_matrix(basis, x, n)[:, 0]
