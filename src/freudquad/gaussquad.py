"""Gauss rules for the integration functional f -> integral of f*W.

Nodes are the zeros of h_n, obtained as eigenvalues of the symmetric
tridiagonal Jacobi matrix built from the recurrence coefficients and then
polished by one Newton step on h_n.  The quadrature weight at a node is
omega(x) = Lambda_n(x) * W(x), where Lambda_n is the reciprocal of the
squared partial sum of the basis; tau(x) = Lambda_n(x) is kept alongside
because it is the natural discrete weight for the sampling inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._accum import comp_sum
from .errors import CapacityError, ConvergenceError, EvaluationFailure
from .orthopoly import FreudBasis, basis_matrix, weight_value

__all__ = ["QuadratureRule", "gauss_rule", "integrate"]


@dataclass(frozen=True)
class QuadratureRule:
    """An n-node rule: sorted symmetric nodes, weights omega and tau."""

    alpha: float
    n: int
    nodes: np.ndarray
    omega: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.omega, self.tau):
            arr.setflags(write=False)


def _newton_polish(basis: FreudBasis, n: int, x: np.ndarray) -> np.ndarray:
    """One Newton step on h_n using the recurrence for h and h'."""
    # not built on _sweep: the derivative recurrence runs in lockstep with h
    a = basis.coeffs
    h_prev = np.zeros_like(x)
    h_cur = basis.c0 * weight_value(basis.alpha, x)
    # W'(x) = -pi*alpha*|x|^(alpha-1)*sign(x) * W(x); continuous for alpha > 1
    d_prev = np.zeros_like(x)
    d_cur = h_cur * (-math.pi * basis.alpha * np.abs(x) ** (basis.alpha - 1.0) * np.sign(x))
    for k in range(n):
        am = a[k - 1] if k >= 1 else 0.0
        h_next = (x * h_cur - am * h_prev) / a[k]
        d_next = (h_cur + x * d_cur - am * d_prev) / a[k]
        h_prev, h_cur = h_cur, h_next
        d_prev, d_cur = d_cur, d_next
    safe = np.abs(d_cur) > 0
    step = np.zeros_like(x)
    step[safe] = h_cur[safe] / d_cur[safe]
    return x - step


def gauss_rule(basis: FreudBasis, n: int) -> QuadratureRule:
    """Build the n-node Gauss rule from a basis with capacity > n."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got n={n}")
    if n > basis.n_max - 1:
        raise CapacityError(
            f"rule of order {n} needs basis capacity {n + 1}, have {basis.n_max}",
            required=n + 1,
        )
    if n == 1:
        nodes = np.zeros(1)
    else:
        try:
            nodes = eigh_tridiagonal(
                np.zeros(n), basis.coeffs[: n - 1], eigvals_only=True
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
        nodes = np.sort(nodes)
        nodes = _newton_polish(basis, n, nodes)
        # even weight => spectrum is symmetric; enforce it exactly
        nodes = 0.5 * (nodes - nodes[::-1])
    H = basis_matrix(basis, nodes, n)
    tau = 1.0 / np.sum(H * H, axis=0)  # h_n vanishes at its zeros
    omega = tau * weight_value(basis.alpha, nodes)
    return QuadratureRule(basis.alpha, n, nodes, omega, tau)


def integrate(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Apply the rule: compensated sum of omega(x) * f(x) in node order."""
    values = np.empty(rule.n)
    for j, x in enumerate(rule.nodes):
        try:
            values[j] = f(float(x))
        except Exception as exc:
            raise EvaluationFailure(
                f"integrand evaluation failed at node index {j} (x={x!r})", index=j
            ) from exc
    return comp_sum(rule.omega * values)
