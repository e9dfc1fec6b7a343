"""Worst-case integration errors over the coefficient-weighted spaces.

Both evaluation routes return the squared worst-case error of the rule
sum omega(x) f(x) against integral f W over the unit ball of the selected
space, for any nodes and weights that are 1-D, of equal length and finite
(others raise ``ValueError``); a squared error beyond float64 raises
``FreudQuadError``:

* ``wce_me2``    closed-form kernel route for geometric decay (alpha=2);
* ``wce_series`` coefficient route sum_k lambda_k^{-1} e_k^2 over the
  per-mode quadrature errors e_k, the same quantity written mode by mode
  and manifestly nonnegative, cut where ``kernels.series_truncation``
  bounds its tail.

The kernel route subtracts nearly equal quantities (about 15 of 40
digits cancel at n = 41, t = 5/4, and up to 35 at t = 5), so it is evaluated in
mpmath at 40 digits and again at more wherever fewer than 24 are left.
It is the package's only use of mpmath, so ``wce_me2`` imports it, and the
series route and every basis build run without it.  The Mehler kernel
factors into one Gaussian per node and one exponential e^{beta x y} per
node pair: about m^2/2 exponentials for m nodes, and about m^2/8 on a rule
whose nodes and weights are mirrored about 0 (every Gauss rule), where the
four sign pairs of two nodes share one exponential.  The per-node
Gaussians are ``mp.exp`` calls; the pair exponentials are
``mpmath.libmp.mpf_exp`` calls on mpmath's integer layer (see
``_me2_parts``).

The series route adds its terms exactly and rounds the sum once
(``_ExactSums``): each term's integer mantissa is cut into limbs, the limbs
are summed per row and binary exponent with ``np.bincount``, and the bins
are accumulated per row and bit position and added into one Python int
when the row is rounded.  The result is correctly rounded, so it is
bit-identical to ``math.fsum`` of the same terms, in any order.  The
terms are folded in as the basis sweep streams them, one fold per sweep
block, so no row holds all its terms.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FreudQuadError
from .gaussquad import _node_set
from .kernels import series_truncation  # the benchmark replay imports it from here
from .orthopoly import FreudBasis, _sweep
from .spaces import SpaceWeight, lambda_of

__all__ = [
    "WCETable",
    "wce_me2",
    "wce_series",
    "wce_bound",
    "tensor_wce",
    "slope_fit",
]

_ME2_DPS = 40  # first pass; see wce_me2 for the recompute rule
_ME2_DIGITS_LEFT = 24
_BEYOND_FLOAT64 = "the squared worst-case error is beyond float64"

_AXIS_MAPS = {
    "n": lambda n: np.asarray(n, dtype=float),
    "sqrt-n": lambda n: np.sqrt(np.asarray(n, dtype=float)),
    "log-n": lambda n: np.log10(np.asarray(n, dtype=float)),
}


def wce_me2(nodes, omega, t: float) -> float:
    """Squared worst-case error for geometric coefficient decay t^{-(k+1)}.

    Evaluated through the exact kernel identity

        1/(sqrt(2) t) + sum_{x,y} omega(x) omega(y) K_t(x,y)
                      - (2/t) sum_x omega(x) W(x)

    which holds for arbitrary finite nodes and weights.  For a rule that
    integrates W^2 exactly the last term equals 2/(sqrt(2) t) and the
    expression collapses to the double sum minus 1/(sqrt(2) t); keeping
    the computed cross term removes first-order sensitivity to the
    rule's own exactness residual.

    The Mehler kernel factors as K_t(x,y) = pref g(x) g(y) e^{beta x y},
    with c = pi/(t^2-1), beta = 4tc and g(x) = e^{-c(t^2+1) x^2}, so each
    node is weighted once, u = omega g(x), and a pair (i, j) costs one
    exponential e^{beta x_i x_j}: m + m(m+1)/2 + m exponentials for the
    weights, the pairs i <= j and the cross sum.  The weights' and the
    cross sum's are ``mp.exp`` calls, the pairs' are ``mpf_exp`` calls on
    mpmath's integer layer (``_me2_parts``).  When the input is mirrored
    bit for bit (nodes == -nodes[::-1] and omega == omega[::-1],
    as ``gauss_rule`` makes every rule) the sums run over one node of each
    of the h = m // 2 mirrored pairs: the four sign pairs (+-x_a, +-x_b)
    share u_a u_b (e + 1/e) with e = e^{beta x_a x_b}, and a node at 0
    adds u_0^2 + 4 u_0 sum_a u_a to the double sum and omega_0 to the
    cross sum.  That is h + h(h+1)/2 + h exponentials: m = 41 takes
    20 + 210 + 20 = 250, against 41 + 861 + 41 on the general path.

    The sum cancels to far below its terms when the rule is accurate (by
    about 15 digits at n = 41, t = 5/4, and by up to 35 at t = 5), so it is
    evaluated in 40-digit arithmetic and then checked: with L the digits
    lost, log10 of the summed magnitudes of the three parts over |value|
    (or the working digits when the value is not positive), fewer than 24
    digits left means a new pass at max(ceil(L) + 30, 2 dps) digits, until
    24 are left.  A value beyond float64 raises ``FreudQuadError``.
    """
    if not 1 < t < math.inf:
        raise ValueError(f"kernel parameter must be finite and exceed 1, got t={t}")
    nodes, omega = _node_set(nodes, omega, "omega")
    if nodes.size == 0:
        warnings.warn(
            "empty node set: returning the worst-case error of the zero rule",
            stacklevel=2,
        )
        return float(1.0 / (math.sqrt(2.0) * t))
    # imported here, not at module level: mpmath costs about 4 MB and 0.02 s
    # at import, and the series route never needs it
    import mpmath as mp

    m = nodes.size
    mirrored = np.array_equal(nodes, -nodes[::-1]) and np.array_equal(omega, omega[::-1])
    # a mirrored rule keeps one node of each mirrored pair; its middle node is 0
    half = m - m // 2 if mirrored else 0
    xs, ws = nodes[half:].tolist(), omega[half:].tolist()
    w0 = float(omega[m // 2]) if mirrored and m % 2 else 0.0
    dps = _ME2_DPS
    while True:
        with mp.workdps(dps):
            parts = _me2_parts(xs, ws, w0, mirrored, mp.mpf(t))
            val = mp.fsum(parts)
            lost = dps if val <= 0 else mp.log10(mp.fsum(parts, absolute=True) / val)
            if dps - lost >= _ME2_DIGITS_LEFT:
                value = float(val)
                break
            dps = max(int(mp.ceil(lost)) + 30, 2 * dps)
    if value == math.inf:
        raise FreudQuadError(_BEYOND_FLOAT64)
    return value


def _me2_parts(xs, ws, w0, mirrored: bool, t):
    """The three parts of ``wce_me2``'s identity at the working precision.

    ``xs`` and ``ws`` are every node and weight, or on a mirrored rule one
    node of each mirrored pair, with ``w0`` the weight of the node at 0
    (0 if there is none).

    The O(m^2) pair loop runs on mpmath's integer layer: ``mpf_mul``,
    ``mpf_exp``, ``mpf_rdiv_int``, ``mpf_add``, ``mpf_mul_int`` and
    ``mpf_sum`` of ``mpmath.libmp`` on the raw ``_mpf_`` tuples, at the
    context's precision and rounding.  Those are the calls that the mpf
    operators and ``mp.fsum`` make for the same expressions, so every
    intermediate keeps its bits; the loop only skips building an mpf
    object around each one.
    """
    import mpmath as mp
    from mpmath.libmp import (
        mpf_add, mpf_exp, mpf_mul, mpf_mul_int, mpf_rdiv_int, mpf_sum,
    )

    c = mp.pi / (t * t - 1)
    beta, gamma = 4 * t * c, (t * t + 1) * c
    xs = [mp.mpf(x) for x in xs]
    cross = mp.fsum(w * mp.exp(-mp.pi * x * x) for w, x in zip(ws, xs))
    # u = omega g(x); a node of zero weight adds nothing and is dropped
    us = [w * mp.exp(-gamma * x * x) for w, x in zip(ws, xs)]
    xu = [(x._mpf_, u._mpf_) for x, u in zip(xs, us) if u]
    prec, rnd = mp.mp._prec_rounding  # what the mpf operators round to
    b = beta._mpf_
    rows = []  # row i: u_i (u_i k_ii + 2 sum_{j > i} u_j k_ij)
    for i, (xi, ui) in enumerate(xu):
        bxi, row = mpf_mul(b, xi, prec, rnd), []
        for xj, uj in xu[i:]:
            e = mpf_exp(mpf_mul(bxi, xj, prec, rnd), prec, rnd)
            if mirrored:  # k = e^{beta x_i x_j} + e^{-beta x_i x_j}
                e = mpf_add(e, mpf_rdiv_int(1, e, prec, rnd), prec, rnd)
            row.append(mpf_mul(uj, e, prec, rnd))
        twice = mpf_mul_int(mpf_sum(row[1:], prec, rnd), 2, prec, rnd)
        rows.append(mpf_mul(ui, mpf_add(row[0], twice, prec, rnd), prec, rnd))
    double_sum = mp.mp.make_mpf(mpf_sum(rows, prec, rnd))
    if mirrored:
        # each pair of the half stands for its four sign pairs
        double_sum = 2 * double_sum + w0 * (w0 + 4 * mp.fsum(u for u in us if u))
        cross = 2 * cross + w0
    pref = mp.sqrt(2 / (t * t - 1))
    return [1 / (mp.sqrt(2) * t), pref * double_sum, -2 * cross / t]


def wce_series(
    nodes,
    omega,
    basis: FreudBasis,
    space: SpaceWeight,
    start: int,
    tol: float = 1e-16,
    k_max: int | None = None,
) -> float:
    """Coefficient-route squared worst-case error.

    Accumulates lambda_k^{-1} e_k^2 with e_k the quadrature error of the
    k-th mode: sum_x omega(x) h_k(x) minus the mode's integral against W
    (nonzero only at k = 0, where it equals 1/c0).  k runs from ``start``
    up to a truncation index: ``k_max`` when given, otherwise
    ``series_truncation`` at ``tol``, the envelope tail bound relative to
    the first retained envelope term.  For a rule exact on the first 2n
    modes, starting at 0 or at 2n gives the same value; the sum-of-squares
    form is nonnegative by construction.  One basis sweep over the nodes yields
    every h_k up to the truncation index, and each e_k is one dot
    product with omega; the dots of a block of modes run in one
    ``np.vecdot``, which calls the same BLAS ddot per mode in C.
    """
    (value,) = _wce_series_rows([(nodes, omega, start)], basis, space, tol, k_max)
    if isinstance(value, Exception):
        raise value
    return value


def _wce_series_rows(
    rows, basis: FreudBasis, space: SpaceWeight, tol: float = 1e-16,
    k_max: int | None = None,
) -> list:
    """``wce_series`` for several rules at once, in one basis sweep.

    ``rows`` holds ``(nodes, omega, start)`` triples.  The sweep runs over
    the concatenated node sets up to the largest truncation index; each
    row reads its own columns between its own ``start`` and index, with
    the same per-mode dot product as a row on its own, so every value is
    bit-identical to a ``wce_series`` call.  The truncation index is
    computed once per distinct ``start``, and the weights lambda_k once
    over the union of the rows' index ranges.  A row's terms
    lambda_k^{-1} e_k^2 are summed exactly and rounded once
    (``_ExactSums``), so the value does not depend on their order: each
    sweep block's terms are formed as the block arrives and folded in once
    the block is freed, so the memory held is bounded by the sweep's block.
    Returns one entry per row: the value, or the ``ValueError`` or
    ``FreudQuadError`` that row raised (a negative start, nodes and weights
    that are not 1-D, of equal length and finite, truncation, capacity, a
    sum beyond float64, or the shared lambda_k evaluation), which fails
    that row alone.
    """
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    results: list = [None] * len(rows)
    truncation = {}  # start -> K, one series_truncation per distinct start
    live = []  # (slot, omega, start, K, column offset)
    xs = []
    offset = 0
    for slot, (nodes, omega, start) in enumerate(rows):
        try:
            if start < 0:
                raise ValueError("start must be >= 0")
            nodes, omega = _node_set(nodes, omega, "omega")
            if k_max is not None:
                K = k_max
            elif start in truncation:
                K = truncation[start]
            else:
                K = truncation[start] = series_truncation(space, start, tol, basis.alpha)
            if K < start:
                results[slot] = 0.0
                continue
            if K > basis.n_max:
                raise CapacityError(
                    f"series truncation needs index {K}, basis capacity is {basis.n_max}",
                    required=K,
                )
        except (ValueError, FreudQuadError) as exc:
            results[slot] = exc
            continue
        live.append((slot, omega, start, K, offset))
        xs.append(nodes)
        offset += nodes.size
    if not live:
        return results

    k_lo, k_hi = min(row[2] for row in live), max(row[3] for row in live)
    try:
        lam = np.asarray(lambda_of(space, np.arange(k_lo, k_hi + 1)), dtype=float)
    except (ValueError, FreudQuadError) as exc:
        for row in live:
            results[row[0]] = exc
        return results
    sums = _ExactSums(len(live))
    for k0, H in _sweep(basis, np.concatenate(xs), k_hi):
        block = []  # this block's (row, terms)
        # a term beyond float64 makes its row's sum inf or NaN, failed below
        with np.errstate(over="ignore", invalid="ignore"):
            for row, (_, omega, start, K, off) in enumerate(live):
                lo, hi = max(start - k0, 0), min(K + 1 - k0, len(H))
                if lo >= hi:
                    continue
                e = np.vecdot(H[lo:hi, off:off + omega.size], omega)
                if k0 == start == 0:
                    e[0] -= 1.0 / basis.c0  # integral of h_0 W; zero for k >= 1
                e *= e
                e /= lam[k0 + lo - k_lo:k0 + hi - k_lo]
                block.append((row, e))
        del H  # the sweep keeps no reference, so the block is freed before the fold
        sums.fold(block)
    for row, (slot, *_) in enumerate(live):
        try:
            value = sums.rounded(row)
        except OverflowError:  # a sum of finite terms beyond float64, as in math.fsum
            value = math.inf
        results[slot] = value if math.isfinite(value) else FreudQuadError(_BEYOND_FLOAT64)
    return results


# the 53-bit mantissa m = hi 2**35 + mid 2**17 + lo as (bit offset, width)
_LIMBS = ((35, 18), (17, 18), (0, 17))
# every finite double is m * 2**(e - 53) with -1073 <= e <= 1024 from
# np.frexp, so an integer multiple of 2**-_UNIT_SHIFT; its three limbs
# count in columns e + 1073, 17 and 35 higher (see _ExactSums)
_UNIT_SHIFT = 1073 + 53
_COLUMNS = 1073 + 1024 + 35 + 1


class _ExactSums:
    """Exact running sums of floats for a fixed number of rows.

    ``fold`` adds ``(row, terms)`` pairs; ``rounded`` gives a row's sum
    rounded once, half-even.  That is the value ``math.fsum`` returns, which
    is correctly rounded too, computed with array operations instead of one
    scalar at a time.  Every finite double is m * 2**(e - 53) with an integer
    |m| < 2**53 (``np.frexp``, exact for subnormals too).  A fold cuts m into
    limbs of 18, 18 and 17 bits (the top one signed) with float64 floor and
    subtraction, which are exact here, and sums each limb per row and
    exponent with one ``np.bincount`` over all rows; a bin of fewer than 2**35
    terms sums to an integer below 2**53, so the float64 bins are exact.
    ``_wce_series_rows`` folds one sweep block at a time, one term per row
    and mode of the block: at most ``orthopoly._SWEEP_BYTES`` / 8 = 131 072
    terms when every row has a node, far below that bound.  The bins are
    added into int64 columns per row and bit position, one for each bit a
    limb of any finite double can reach (17 KB a row from ``np.zeros``, so
    pages no fold touches stay unmapped), exact up to 2**45 terms a row
    (each adds less than 2**18 to a column); ``rounded`` adds a row's
    nonzero columns into one Python int N, the sum being N * 2**-1126.
    Rounding is CPython's int true division by 2**1126, which is correctly
    rounded half-even on the normal and subnormal grids alike.  An inf or
    NaN term makes the row's sum inf or NaN, as numpy's sum gives it.
    """

    def __init__(self, rows: int):
        # bits[r, j] counts 2**(j - _UNIT_SHIFT) in row r's sum
        self.bits = np.zeros((rows, _COLUMNS), dtype=np.int64)
        self.special = [0.0] * rows  # the sum of a row's inf and NaN terms

    def fold(self, parts: list) -> None:
        """Add every ``(row, terms)`` pair of ``parts`` in one pass."""
        if not parts:
            return
        ids = np.array([r for r, _ in parts])
        counts = [terms.size for _, terms in parts]
        v = np.concatenate([terms.ravel() for _, terms in parts])
        if v.size == 0:
            return
        finite = np.isfinite(v)
        if not finite.all():
            row = np.repeat(ids, counts)
            for r, x in zip(row[~finite].tolist(), v[~finite].tolist()):
                self.special[r] += x  # inf - inf is NaN, as in numpy's sum
            v[~finite] = 0.0  # a zero adds nothing below
        # a fold holds a few arrays of its terms' size: the sweep block bounds it
        frac, e = np.frexp(v)
        del v
        e_min = int(e.min())
        size = int(e.max()) - e_min + 1
        key = np.repeat(ids * size - e_min, counts)  # bins keyed by row and exponent
        key += e
        del e
        window = self.bits[:, e_min + 1073:]
        rows = len(self.special)
        limb = np.empty_like(frac)
        for at, bits in _LIMBS:
            frac *= 2.0**bits
            if at:
                np.floor(frac, out=limb)
                frac -= limb
            else:
                limb = frac
            bins = np.bincount(key, weights=limb, minlength=rows * size)
            window[:, at:at + size] += bins.reshape(rows, size).astype(np.int64)

    def rounded(self, row: int) -> float:
        """The sum of ``row``'s terms so far, rounded once."""
        if self.special[row]:  # inf or NaN
            return self.special[row]
        j = np.flatnonzero(self.bits[row])
        n = sum(map(operator.lshift, self.bits[row, j].tolist(), j.tolist()))
        return n / (1 << _UNIT_SHIFT)


def wce_bound(phi: float, a_n: float) -> float:
    """Abstract sampling bound phi / a_n for the squared worst-case error."""
    # written so that NaN fails the comparison
    if not 0 < a_n < math.inf:
        raise ValueError(f"lower sampling constant must be positive and finite, got {a_n}")
    if not 0 <= phi < math.inf:
        raise ValueError(f"tail functional must be >= 0 and finite, got {phi}")
    return phi / a_n


def tensor_wce(wce1_sq: float, c: float, lambda0: float, d: int) -> float:
    """Exact d-dimensional squared worst-case error of the tensor rule.

    With per-coordinate squared error w and c = integral h_0 W (the only
    nonzero basis integral), the product structure collapses to

        (c^2/lambda_0 + w)^d - (c^2/lambda_0)^d

    evaluated as base^d expm1(d log1p(w/base)), with base = c^2/lambda_0,
    so the d=1 case returns w exactly and small w does not cancel away.  For
    w > base, or where base^d underflows to 0 or the expm1 factor overflows,
    it is factored as (base + w)^d (-expm1(-d log1p(w/base))) instead, so
    neither stands in for a finite value; the rounding error of base + w is
    carried into that power.  A value beyond float64, or a positive one
    that rounds to 0, raises ``FreudQuadError``; invalid inputs raise
    ``ValueError``.
    """
    # written so that NaN fails the comparisons
    if not 1 <= d < math.inf:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if not 0 <= wce1_sq < math.inf:
        raise ValueError(f"squared worst-case error must be >= 0 and finite, got {wce1_sq}")
    if not (0 < c < math.inf and 0 < lambda0 < math.inf):
        raise ValueError(f"c and lambda_0 must be positive and finite, got {c}, {lambda0}")
    base = c * c / lambda0
    if not 0 < base < math.inf:
        raise ValueError(f"c^2/lambda_0 = {base} is not a positive finite float")
    if wce1_sq == 0.0:
        return 0.0
    value = None
    try:
        power = base**d if wce1_sq <= base else 0.0
        if power > 0.0:
            value = float(power * math.expm1(d * math.log1p(wce1_sq / base)))
    except OverflowError:  # base^d or the expm1 factor
        pass
    if value is None:
        # the rounding error of base + w (a two-sum), so that the d-th
        # power does not carry it to d ulps
        total = base + wce1_sq
        err = (base - (total - (total - base))) + (wce1_sq - (total - base))
        try:
            value = float(total**d * math.exp(d * math.log1p(err / total))
                          * -math.expm1(-d * math.log1p(wce1_sq / base)))
        except OverflowError:
            value = math.inf
    if value in (0.0, math.inf):
        raise FreudQuadError(
            f"the d={d} squared worst-case error "
            f"{'underflows' if value == 0.0 else 'overflows'} float64 "
            f"(c^2/lambda_0 = {base}, per-coordinate {wce1_sq})"
        )
    return value


def slope_fit(xs, ys) -> tuple[float, float]:
    """Ordinary least squares line through (xs, ys); returns (slope, intercept)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or xs.size != ys.size:
        raise ValueError("need at least two points with matching abscissae")
    xm = xs.mean()
    denom = float(np.sum((xs - xm) ** 2))
    if denom == 0.0:
        raise ValueError("degenerate abscissa: all x values equal")
    ym = ys.mean()
    slope = float(np.sum((xs - xm) * (ys - ym)) / denom)
    return slope, float(ym - slope * xm)


@dataclass(frozen=True)
class WCETable:
    """Rows of (n, squared worst-case error) plus the fitted decay slope.

    ``axis`` selects the abscissa of the least-squares fit: "n",
    "sqrt-n", or "log-n".  Rows with nonpositive error (tiny negatives
    are clamped to zero and flagged) or a non-finite abscissa (n = 0 on
    "log-n") are excluded from the fit; with fewer than two rows left
    there is no fit, and ``slope`` and ``intercept`` are None.  A NaN or
    infinite error is a ``ValueError``.
    """

    params: dict
    ns: tuple
    wce: tuple
    axis: str
    slope: float | None
    intercept: float | None
    theory_slope: float | None = None
    clamped: tuple = ()

    @classmethod
    def from_rows(
        cls,
        params: dict,
        ns,
        values,
        axis: str,
        theory_slope: float | None = None,
    ) -> "WCETable":
        if axis not in _AXIS_MAPS:
            raise ValueError(f"axis must be one of {sorted(_AXIS_MAPS)}, got {axis!r}")
        order = np.argsort(np.asarray(ns))
        ns = [int(ns[i]) for i in order]
        values = [values[i] for i in order]
        vals, clamped = [], []
        for n, v in zip(ns, values):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"worst-case error {v} at n={n} is not finite")
            if v < -1e-15:
                raise ValueError(
                    f"worst-case error {v} at n={n} is negative beyond rounding"
                )
            if v < 0.0:
                clamped.append(n)
                v = 0.0
            vals.append(v)
        with np.errstate(divide="ignore", invalid="ignore"):  # log10(0), say
            xs = [_AXIS_MAPS[axis](n) for n in ns]
        fit = [i for i, v in enumerate(vals) if v > 0.0 and math.isfinite(xs[i])]
        xs = [xs[i] for i in fit]
        ys = [math.log10(vals[i]) for i in fit]
        slope, intercept = slope_fit(xs, ys) if len(xs) >= 2 else (None, None)
        return cls(
            params=dict(params),
            ns=tuple(ns),
            wce=tuple(vals),
            axis=axis,
            slope=slope,
            intercept=intercept,
            theory_slope=theory_slope,
            clamped=tuple(clamped),
        )

    def to_csv(self) -> str:
        lines = ["n,wce,log10_wce"]
        for n, v in zip(self.ns, self.wce):
            log_v = math.log10(v) if v > 0 else float("nan")
            lines.append(f"{n},{v:.17g},{log_v:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        """JSON-ready summary with a fixed key set."""
        from . import __version__

        return {
            "space": self.params.get("space"),
            "params": self.params,
            "axis": self.axis,
            "rows": [[n, v] for n, v in zip(self.ns, self.wce)],
            "slope": self.slope,
            "intercept": self.intercept,
            "theory_slope": self.theory_slope,
            "seed": self.params.get("seed"),
            "tool_version": __version__,
        }
