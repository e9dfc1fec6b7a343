"""Orthonormal weighted basis for Freud weights W(x) = exp(-pi |x|^alpha).

The basis functions are h_k = H_k * W where the H_k are the polynomials
orthonormal with respect to W^2.  The raw polynomials are never formed:
their values blow up like exp(+pi |x|^alpha), so the three-term recurrence
is applied to the weighted functions directly (the weight factors out, the
coefficients are identical) and every value stays bounded.

For alpha = 2 the recurrence coefficients have the closed form
a_k = sqrt(k / (4 pi)).  For other exponents they are computed by a
Stieltjes procedure on a composite Gauss-Legendre reference quadrature
whose resolution is doubled until the coefficients stabilize.  Unless
alpha is an even integer, |x|^alpha has a kink at 0, and the panels next
to it are graded dyadically towards 0 so that the quadrature still
converges fast.  The normalization c0 has a closed form for every alpha
(2**0.25 at alpha = 2).

The recurrence runs in one place, ``_sweep``, which yields the values in
blocks of a bounded number of bytes; the Gram check of a built basis sums
over point chunks sized so that a chunk, the Gram blocks and a block product
together stay within 8 MiB, so neither holds a matrix of every mode at every
point.  Before its products the check sets values below 2^-511 to 0: that
moves no entry by more than about 1e-148 and leaves no subnormal product,
which would cost the CPU a slow microcode assist each.  A step of the
recurrence is four ufunc calls on a row of nodes, and on a few hundred nodes
their cost is per-call overhead: numpy converts a float scalar operand on
every call, so the step takes its coefficients as rows of a stride-0 view of
the coefficient array instead.  The Stieltjes pass does the same, and runs
its elementwise work only where W(x) != 0 (elsewhere every h_k is 0); its
norm still sums the whole zero-padded buffer, because numpy's pairwise sum
groups terms by position, and a sum over the live slice alone would move
the coefficients in their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CapacityError, ConvergenceError

__all__ = [
    "FreudBasis",
    "weight_value",
    "mrs_number",
    "build_basis",
    "eval_basis",
    "basis_matrix",
]


# Stieltjes iteration (alpha != 2)
_COEFF_TOL = 1e-13      # stabilization target between refinements
_ORTHO_TOL = 1e-8       # orthonormality defect on the verification grid
_INITIAL_PANELS = 16    # composite Gauss-Legendre panels (even count)
_PANEL_DEGREE = 24      # points per panel
_MAX_DOUBLINGS = 8
_GRADED_LEVELS = 40     # dyadic panels on each side of 0 when alpha is not even


def weight_value(alpha: float, x):
    """Freud weight exp(-pi |x|^alpha); even and strictly positive.

    ``x`` may be a scalar or an array.
    """
    if not 1 < alpha < math.inf:
        raise ValueError(f"weight exponent must be finite and > 1, got alpha={alpha}")
    return np.exp(-math.pi * np.abs(x) ** alpha)


def mrs_number(alpha: float, n: int) -> float:
    """Mhaskar-Rakhmanov-Saff number m_n of W = exp(-pi |x|^alpha).

    m_n^alpha = n Gamma(alpha/2 + 1) / (alpha sqrt(pi) Gamma((alpha+1)/2)),

    the solution of n = (2/pi) int_0^1 m t Q'(m t) / sqrt(1 - t^2) dt with
    Q = pi |x|^alpha (sqrt(n/pi) at alpha = 2).  A weighted polynomial P W
    of degree n attains its sup norm on [-m_n, m_n], and the Gauss nodes of
    order n lie inside it, the largest within O(m_n n^(-2/3)) of m_n.
    """
    if not 1 < alpha < math.inf:
        raise ValueError(f"weight exponent must be finite and > 1, got alpha={alpha}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got n={n}")
    scale = math.gamma(alpha / 2.0 + 1.0) / (
        alpha * math.sqrt(math.pi) * math.gamma((alpha + 1.0) / 2.0)
    )
    return (n * scale) ** (1.0 / alpha)


def _grid_radius_scale(alpha: float, n: int) -> float:
    """Radius scale of the reference and envelope grids, for degree n >= 1.

    (2/sqrt(pi)) (Gamma(alpha/2)^2 / (4 Gamma(alpha)))^(1/alpha) n^(1/alpha):
    the MRS number at alpha = 2, but off by the factor pi^(1/alpha - 1/2)
    elsewhere (x0.75 at alpha = 4, x1.21 at alpha = 1.5).  The grids keep it
    so that every coefficient and envelope constant keeps its bits.
    """
    # imported here, not at module level: scipy.special costs 0.04 s and
    # 2.5 MB at import, and the alpha = 2 closed-form route never needs it
    from scipy.special import gamma

    const = (gamma(alpha / 2.0) ** 2 / (4.0 * gamma(alpha))) ** (1.0 / alpha)
    return 2.0 / math.sqrt(math.pi) * const * n ** (1.0 / alpha)


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
    """Composite Gauss-Legendre rule on [-R, R] sized by ``_grid_radius_scale``.

    ``panels`` uniform panels of width h = 2R / panels; the even count keeps
    x = 0 on a panel boundary.  For even-integer alpha the weight is smooth
    there and the grid is just those panels.  Otherwise |x|^alpha has a kink
    at 0, where uniform panels converge only algebraically, so the two panels
    touching 0 are replaced by dyadic ones, [h 2^(-j-1), h 2^(-j)] for
    j < ``_GRADED_LEVELS`` and [0, h 2^(-_GRADED_LEVELS)] on each side.  The
    negative half is then the exact negation of the positive half (weights
    mirrored), so the grid stays ascending and mirrored about 0.
    """
    # imported here, not at module level: only a Stieltjes build (alpha != 2)
    # needs the Legendre rule, so the alpha = 2 route never loads scipy.special
    from scipy.special import roots_legendre

    R = _grid_radius_scale(alpha, 2 * n_max) * (1.0 + 3.0 * n_max ** (-2.0 / 3.0)) + 2.0
    xg, wg = roots_legendre(degree)
    if alpha % 2 == 0:
        edges = np.linspace(-R, R, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        x = (mid[:, None] + half * xg[None, :]).ravel()
        w = np.tile(half * wg, panels)
        return x, w, R
    uniform = np.linspace(0.0, R, panels // 2 + 1)
    dyadic = uniform[1] * 2.0 ** np.arange(-_GRADED_LEVELS, 0)
    edges = np.concatenate([[0.0], dyadic, uniform[1:]])
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    xp = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wp = (half[:, None] * wg[None, :]).ravel()
    return np.concatenate([-xp[::-1], xp]), np.concatenate([wp[::-1], wp]), R


def _c0(alpha: float) -> float:
    """c0 = (integral of W^2)^(-1/2), correctly rounded.

    integral_R exp(-2 pi |u|^alpha) du = 2 Gamma(1 + 1/alpha) (2 pi)^(-1/alpha),
    evaluated in 40 digits and rounded once; 2**0.25 at alpha = 2.
    """
    with mp.workdps(40):
        inv = 1 / mp.mpf(alpha)
        return float(1 / mp.sqrt(2 * mp.gamma(1 + inv) * (2 * mp.pi) ** -inv))


def _stieltjes_pass(alpha: float, n_max: int, x, w):
    """One sweep of the Stieltjes iteration on the weighted functions.

    Orthonormalizes x*h_k against h_{k-1} under the supplied reference
    quadrature, from h_0 scaled by the grid's own c0; returns a_1..a_{n_max}.

    Where W underflows to 0 every h_k is exactly 0 as well (the recurrence
    has no constant term), and so is each summand w v^2 of the norm.  So the
    h rows hold, and the elementwise work runs on, only the slice from the
    first to the last point with W != 0 (on the ascending reference grid,
    just the points with W != 0).  The summands go into that slice of a
    zero-padded buffer over the whole grid, and the norm reduces the whole
    buffer: numpy's pairwise summation groups the terms by position, so
    summing the slice alone would regroup them and move the coefficients in
    their last bits.  As in ``_sweep``, a_(k-1) and a_k come as rows of a
    stride-0 view of the coefficient array, which the pass fills as it goes.
    """
    # not built on _sweep: this recurrence produces the coefficients it recurs on
    W = weight_value(alpha, x)
    c0 = 1.0 / math.sqrt(float(np.sum(w * W * W)))
    live = np.flatnonzero(W)  # not empty: c0 above is finite
    lo, hi = live[0], live[-1] + 1
    x, w = x[lo:hi], w[lo:hi]  # the live slice from here on
    a = np.zeros(n_max + 1)  # a[k] = a_k, with a_0 = 0
    # rows[k] is a_k at every live point, read as a fills
    rows = as_strided(a, (a.size, x.size), (a.itemsize, 0), writeable=False)
    # v = x h_k - a_k h_{k-1}, then (w v) v, then v / a_{k+1}: the same
    # elementwise operations in the same order as the plain expressions,
    # written into two reused buffers; the three h rows rotate
    h_prev, h_cur, v = np.zeros_like(x), c0 * W[lo:hi], np.empty_like(x)
    padded = np.zeros(W.size)  # the summands, zero outside the live slice
    t = padded[lo:hi]
    mul, sub, div, total = np.multiply, np.subtract, np.divide, np.add.reduce
    for k in range(n_max):
        mul(x, h_cur, v)
        mul(rows[k], h_prev, t)
        sub(v, t, v)
        mul(w, v, t)
        mul(t, v, t)
        norm_sq = float(total(padded))
        if not norm_sq > 0:
            raise ConvergenceError(
                f"Stieltjes norm collapsed at index {k + 1}", index=k + 1
            )
        a[k + 1] = math.sqrt(norm_sq)
        div(v, rows[k + 1], v)
        h_prev, h_cur, v = h_cur, v, h_prev
    return a[1:]


_GRAM_BYTES = 8 << 20  # all that _verify_orthonormality holds at a time
_TINY = 2.0 ** -511  # below it a product of two values is subnormal


def _flush_tiny(H) -> None:
    """Set every value of the C-contiguous ``H`` below ``_TINY`` in magnitude
    to 0, in place and ``_SWEEP_BYTES`` of values at a time; NaN stays."""
    flat = H.reshape(-1)  # a view
    step = _SWEEP_BYTES // 8
    for j in range(0, flat.size, step):
        part = flat[j:j + step]
        part[np.abs(part) < _TINY] = 0.0


def _verify_orthonormality(basis: FreudBasis, x, w, tol: float) -> float:
    """Max deviation of the Gram matrix from the identity on a given grid.

    The grid must be mirrored about 0: an even number of points with
    x[i] = -x[-1-i] to a few ulps of its half-width (``_reference_grid`` is
    off by at most two at even alpha and exact otherwise); otherwise
    ``ValueError``.  The weights of x and -x are pooled, which changes
    nothing for Gauss-Legendre panels, whose weights are mirrored too.

    The weight is even and the recurrence has no diagonal term, so
    h_k(-x) = (-1)^k h_k(x) holds bit for bit (negation is exact).  On the
    mirrored grid every Gram entry sum_x w(x) h_j(x) h_k(x) with j + k odd
    is therefore exactly zero, whatever the coefficients, and the others are
    sums over the positive half with the two weights combined.  So the full
    (n+1)^2 Gram matrix is checked as its even-even and odd-odd blocks, each
    accumulated over chunks of positive points as (sqrt(w) H)(sqrt(w) H)^T
    on the strided rows H[0::2] and H[1::2], which numpy sends to syrk
    without a copy.  ``_GRAM_BYTES`` (8 MiB) bounds all that is held at a
    time: one chunk of basis values, the two blocks, and one block product
    or the flush's scratch (below).  So a chunk shrinks as n grows (about
    700 points at n = 800), but never below ``_SWEEP_BYTES`` of values; that
    floor only applies past n = 1 100 or so, where the blocks alone fill the
    budget.  The combined root weight is hypot(sqrt(w(x)), sqrt(w(-x))), so
    a negative or NaN weight on either half gives a NaN defect, which fails
    the check.  Where h_0 = c0 * W underflows to 0 the recurrence makes
    every h_k exactly 0 too, so those points add nothing to the Gram matrix
    and are left out of it; only their weights are still checked for NaN.

    Next to those points the low modes, scaled by sqrt(w), fall below
    2^-511, where the product of two values is subnormal: the CPU takes a
    microcode assist for each, many times the cost of a normal product.  So
    in a chunk whose h_0 row holds such a value, every value below 2^-511 in
    magnitude is set to 0 before the products (``_flush_tiny``).  Every
    product left is then of two values >= 2^-511, a normal number; a zeroed
    value moves an entry by less than (points) * max|sqrt(w) h| * 2^-511,
    about 1e-148; and NaN or inf fails the comparison and stays.
    """
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    half = x.size // 2
    xp = x[half:]
    if x.size % 2 or not np.all(
        np.abs(xp + x[half - 1::-1]) <= 8 * np.spacing(np.abs(x).max())
    ):
        raise ValueError("the verification grid must be mirrored about 0")
    root_w = np.hypot(np.sqrt(w[half:]), np.sqrt(w[half - 1::-1]))
    # the h_0 of _sweep: zero there means a zero column of every h_k
    live = basis.c0 * weight_value(basis.alpha, xp) != 0
    dead_w = root_w[~live]
    xp, root_w = xp[live], root_w[live]
    n = basis.n_max
    Ge = np.zeros((n // 2 + 1, n // 2 + 1))  # h_0, h_2, ...
    Go = np.zeros(((n + 1) // 2, (n + 1) // 2))  # h_1, h_3, ...
    # besides the chunk: both blocks, then the larger of the product Ge
    # takes and the flush's |values| and mask
    held = Ge.nbytes + Go.nbytes + max(Ge.nbytes, _SWEEP_BYTES * 9 // 8)
    chunk = max(1, max(_GRAM_BYTES - held, _SWEEP_BYTES) // (8 * (n + 1)))
    for i in range(0, xp.size, chunk):
        H = basis_matrix(basis, xp[i:i + chunk], n)
        H *= root_w[i:i + chunk]
        if np.any(np.abs(H[0]) < _TINY):
            _flush_tiny(H)
        He, Ho = H[0::2], H[1::2]
        Ge += He @ He.T
        Go += Ho @ Ho.T
        del H, He, Ho  # so the next chunk is not built while this one is held
    # np.max, unlike max(), keeps a NaN from either block or a left-out weight
    defect = float(np.max([
        *(np.abs(G - np.eye(len(G))).max() for G in (Ge, Go)),
        np.max(0.0 * dead_w, initial=0.0),
    ]))
    if not defect <= tol:
        raise ConvergenceError(
            f"orthonormality defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    return defect


def build_basis(alpha: float, n_max: int) -> FreudBasis:
    """Construct the weighted basis up to index ``n_max``.

    alpha = 2 uses the closed forms unconditionally.  Otherwise the
    Stieltjes procedure runs on the reference grid, doubling the panel
    count until every coefficient moves by less than ``_COEFF_TOL``
    (relative), and the result is checked for orthonormality on a finer
    grid than the one that produced it.
    """
    if not 1 < alpha < math.inf:
        raise ValueError(f"weight exponent must be finite and > 1, got alpha={alpha}")
    if not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    if alpha == 2.0:
        k = np.arange(1, n_max + 1, dtype=float)
        return FreudBasis(2.0, _c0(2.0), np.sqrt(k / (4.0 * math.pi)), n_max)

    # c0 in closed form, independently of the panel grid
    c0 = _c0(alpha)

    panels = _INITIAL_PANELS
    prev, change = None, np.zeros(1)
    for _ in range(_MAX_DOUBLINGS + 1):
        x, w, _ = _reference_grid(alpha, n_max, panels, _PANEL_DEGREE)
        a = _stieltjes_pass(alpha, n_max, x, w)
        if prev is not None:
            change = np.abs(a - prev) / np.abs(a)
            if change.max() < _COEFF_TOL:
                basis = FreudBasis(float(alpha), c0, a, n_max)
                xf, wf, _ = _reference_grid(alpha, n_max, 2 * panels, _PANEL_DEGREE)
                _verify_orthonormality(basis, xf, wf, _ORTHO_TOL)
                return basis
        prev = a
        panels *= 2
    # the largest relative move between the last two passes
    failing = int(np.argmax(change)) + 1
    raise ConvergenceError(
        f"recurrence coefficients did not stabilize to {_COEFF_TOL:.1e} "
        f"(worst index {failing}) after {_MAX_DOUBLINGS} refinements",
        index=failing,
    )


_SWEEP_BYTES = 1 << 20  # basis values per default _sweep block


def _sweep(basis: FreudBasis, x, stop: int, block: int | None = None):
    """Yield ``(k0, H)`` blocks covering h_0(x) .. h_stop(x) in order.

    The one evaluation of the three-term recurrence on the weighted
    functions, run once from h_0 = c0 * W(x) for an array ``x`` of any
    shape with at least one axis.  ``H`` has shape ``(b, *x.shape)`` with
    ``H[j] = h_{k0+j}(x)`` and ``b <= block``; every block is a fresh array
    that the caller may keep or overwrite, and the generator keeps no
    reference to a block it has yielded, so a caller that drops a block
    frees it.  By default a block holds at most ``_SWEEP_BYTES`` of values
    (about 1 000 modes on 130 nodes, 130 modes on 1 000), so a consumer that
    reads the blocks as they come holds no (stop+1) x x.size matrix.

    Each step h_{k+1} = (x h_k - a_k h_{k-1}) / a_{k+1} runs as the four
    elementwise operations of that expression, in its order, written into
    the output row and one scratch row, so a mode allocates nothing.  On a
    few hundred nodes a step costs the calls' overhead, not their
    arithmetic, and numpy converts a float scalar operand on every call; so
    a_k comes as a row of one read-only view of the coefficients with
    stride 0 along x, which a call takes as it is.
    """
    if stop > basis.n_max:
        raise CapacityError(
            f"requested index {stop} exceeds basis capacity {basis.n_max}",
            required=stop,
        )
    x = np.asarray(x, dtype=float)
    if block is None:
        block = max(1, _SWEEP_BYTES // (8 * max(x.size, 1)))
    a = np.concatenate(([0.0, 0.0], basis.coeffs[:stop]))  # a[k + 1] = a_k
    # rows[k + 1] is a_k at every point of x
    rows = as_strided(
        a, (a.size, *x.shape), (a.itemsize, *(0,) * x.ndim), writeable=False
    )
    mul, sub, div = np.multiply, np.subtract, np.divide  # local: called per mode
    h_prev, h_cur = np.zeros(x.shape), basis.c0 * weight_value(basis.alpha, x)
    t = np.empty(x.shape)
    for k0 in range(0, stop + 1, block):
        H = np.empty((min(block, stop + 1 - k0), *x.shape))
        if k0 == 0:
            H[0] = h_cur  # h_0 starts the recurrence; h_1 is its first step
        k = max(k0, 1)  # the block's first step
        a_prev = rows[k]  # h_k takes a_{k-1} = rows[k] and a_k = rows[k + 1]
        for h, a_cur in zip(H[k - k0:], rows[k + 1:k0 + len(H) + 1]):
            mul(x, h_cur, h)
            mul(a_prev, h_prev, t)
            sub(h, t, h)
            div(h, a_cur, h)
            h_prev, h_cur, a_prev = h_cur, h, a_cur
        # the next block recurs on copies, so the caller may overwrite H
        h_prev, h_cur = h_prev.copy(), h_cur.copy()
        # no name here holds H (or its row h) past the yield, so a caller
        # that drops the block frees it
        out, H, h = [H], None, None
        yield k0, out.pop()


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
