"""Worst-case integration errors over the coefficient-weighted spaces.

Both evaluation routes return the squared worst-case error of the rule
sum omega(x) f(x) against integral f W over the unit ball of the selected
space:

* ``wce_me2``    closed-form kernel route for geometric decay (alpha=2);
* ``wce_series`` coefficient route sum_k lambda_k^{-1} e_k^2 over the
  per-mode quadrature errors e_k, the same quantity written mode by mode
  and manifestly nonnegative.

The kernel route subtracts two nearly equal quantities (the double sum
cancels to ~1e-19 absolute for the deep-decay cases), so it is evaluated
in 40-digit arithmetic; costs stay in milliseconds because node counts
are small.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from ._accum import comp_sum
from .errors import CapacityError, FreudQuadError
from .kernels import sup_envelope_constant, tail_index
from .orthopoly import FreudBasis, _sweep
from .spaces import SpaceWeight, lambda_of

__all__ = [
    "WCETable",
    "wce_me2",
    "wce_series",
    "series_truncation",
    "wce_bound",
    "tensor_wce",
    "slope_fit",
]

_ME2_DPS = 40

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

    which holds for arbitrary nodes and weights.  For a rule that
    integrates W^2 exactly the last term equals 2/(sqrt(2) t) and the
    expression collapses to the double sum minus 1/(sqrt(2) t); keeping
    the computed cross term removes first-order sensitivity to the
    rule's own exactness residual.
    """
    if t <= 1:
        raise ValueError(f"kernel parameter must exceed 1, got t={t}")
    nodes = np.asarray(nodes, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if nodes.size == 0:
        warnings.warn(
            "empty node set: returning the worst-case error of the zero rule",
            stacklevel=2,
        )
        return float(1.0 / (math.sqrt(2.0) * t))
    with mp.workdps(_ME2_DPS):
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
        val = 1 / (mp.sqrt(2) * tm) + double_sum - 2 * cross / tm
        return float(val)


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
    up to a truncation index: ``k_max`` when given, otherwise the
    envelope tail bound at ``tol`` relative to the first retained
    envelope term.  For a rule exact on the first 2n modes, starting at
    0 or at 2n gives the same value; the sum-of-squares form is
    nonnegative by construction.  One basis sweep over the nodes yields
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
    bit-identical to a ``wce_series`` call.  The weights lambda_k are
    evaluated once over the union of the rows' index ranges.  Returns one
    entry per row: the value, or the ``ValueError``/``FreudQuadError`` that
    row raised (bad input, truncation, capacity, or the shared lambda_k
    evaluation), which fails that row alone.
    """
    results: list = [None] * len(rows)
    live = []  # (slot, omega, start, K, column offset, squared errors)
    xs = []
    offset = 0
    for slot, (nodes, omega, start) in enumerate(rows):
        try:
            if start < 0:
                raise ValueError("start must be >= 0")
            nodes = np.asarray(nodes, dtype=float)
            omega = np.asarray(omega, dtype=float)
            if nodes.shape != omega.shape or nodes.ndim != 1:
                raise ValueError("nodes and omega must be 1-D arrays of equal length")
            if k_max is None:
                K = series_truncation(
                    space, start, tol, basis.alpha, sup_envelope_constant(basis)
                )
            else:
                K = k_max
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
        live.append((slot, omega, start, K, offset, []))
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
    for k0, H in _sweep(basis, np.concatenate(xs), k_hi):
        for _, omega, start, K, off, sq in live:
            lo, hi = max(start - k0, 0), min(K + 1 - k0, len(H))
            if lo >= hi:
                continue
            e = np.vecdot(H[lo:hi, off:off + omega.size], omega)
            if k0 == start == 0:
                e[0] -= 1.0 / basis.c0  # integral of h_0 W; zero for k >= 1
            sq.append(e * e)
    for slot, _, start, K, _, sq in live:
        results[slot] = comp_sum(np.concatenate(sq) / lam[start - k_lo:K + 1 - k_lo])
    return results


def series_truncation(
    space: SpaceWeight, start: int, tol: float, alpha: float, sup_const: float
) -> int:
    """Truncation index used by ``wce_series``: the envelope tail must be
    below ``tol`` relative to the first retained envelope term."""
    lam_start = float(lambda_of(space, start))
    if math.isinf(lam_start):
        raise FreudQuadError(
            f"lambda_start (k = {start}) of the {space.kind} weight overflows to "
            "inf, so the series tail bound cannot be formed"
        )
    first = sup_const * max(start, 1) ** (1.0 / 3.0 - 1.0 / alpha) / lam_start
    return tail_index(space, start, tol * first, alpha, sup_const)


def wce_bound(phi: float, a_n: float) -> float:
    """Abstract sampling bound phi / a_n for the squared worst-case error."""
    if a_n <= 0:
        raise ValueError(f"lower sampling constant must be positive, got {a_n}")
    if phi < 0:
        raise ValueError(f"tail functional must be >= 0, got {phi}")
    return phi / a_n


def tensor_wce(wce1_sq: float, c: float, lambda0: float, d: int) -> float:
    """Exact d-dimensional squared worst-case error of the tensor rule.

    With per-coordinate squared error w and c = integral h_0 W (the only
    nonzero basis integral), the product structure collapses to

        (c^2/lambda_0 + w)^d - (c^2/lambda_0)^d

    evaluated via expm1/log1p so the d=1 case returns w exactly and small
    w does not cancel away.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if wce1_sq < 0:
        raise ValueError("squared worst-case error must be >= 0")
    if lambda0 <= 0 or c <= 0:
        raise ValueError("c and lambda_0 must be positive")
    base = c * c / lambda0
    if wce1_sq == 0.0:
        return 0.0
    return float(base**d * math.expm1(d * math.log1p(wce1_sq / base)))


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
    are clamped to zero and flagged) are excluded from the fit.
    """

    params: dict
    ns: tuple
    wce: tuple
    axis: str
    slope: float
    intercept: float
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
            if v < -1e-15:
                raise ValueError(
                    f"worst-case error {v} at n={n} is negative beyond rounding"
                )
            if v < 0.0:
                clamped.append(n)
                v = 0.0
            vals.append(v)
        xs = [_AXIS_MAPS[axis](n) for n, v in zip(ns, vals) if v > 0.0]
        ys = [math.log10(v) for v in vals if v > 0.0]
        slope, intercept = slope_fit(xs, ys)
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
