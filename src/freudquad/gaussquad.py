"""Gauss rules for the integration functional f -> integral of f*W.

Nodes are the zeros of h_n: eigenvalues of the symmetric tridiagonal Jacobi
matrix, polished by one Newton step on h_n.  The weight at a node is
omega(x) = tau(x) W(x), with tau = Lambda_n = 1 / sum_{k<=n} h_k^2 the
Christoffel function, kept as the discrete weight of the sampling
inequalities.  The step needs h_n', which the confluent Christoffel-Darboux
identity sum_{k<n} h_k^2 = a_n (h_n' h_{n-1} - h_{n-1}' h_n) gives (its W
factors cancel, so it holds for the weighted functions at every alpha).
Step and tau are each one ``_christoffel`` pass over 64 KiB blocks of the
basis sweep, each dropped before the next, so a rule holds one such block
and a few rows of basis values however large n is (0.16 MiB traced at
n = 1000), never the (n+1) x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, ConvergenceError, EvaluationFailure
from .orthopoly import FreudBasis, _sweep, weight_value

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


_CHRISTOFFEL_BYTES = 1 << 16  # basis values per _christoffel sweep block


def _christoffel(basis: FreudBasis, x: np.ndarray, n: int):
    """``(sum_{k<=n} h_k^2, h_{n-1}, h_n)`` at x, squares added in k order.

    At a zero of h_n the identity gives h_n / h_n' = a_n h_n h_{n-1} / sum.
    The step is below the eigenvalue's own rounding, so how h_n' rounds does
    not reach the node: the nodes are those of a step through the
    differentiated recurrence, bit for bit.  h_{n-1} and h_n, which may sit
    in two blocks, are copied before a block is squared in place.
    """
    norm_sq, h_cur = np.zeros_like(x), None
    block = max(1, _CHRISTOFFEL_BYTES // (8 * max(x.size, 1)))
    for _, H in _sweep(basis, x, n, block):
        h_prev = H[-2].copy() if len(H) > 1 else h_cur
        h_cur = H[-1].copy()
        H *= H
        for h_sq in H:
            norm_sq += h_sq
        del H, h_sq  # h_sq is a view of H
    return norm_sq, h_prev, h_cur


def gauss_rule(basis: FreudBasis, n: int) -> QuadratureRule:
    """Build the n-node Gauss rule from a basis with capacity > n."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"node count must be an integer, got n={n!r}")
    if n < 1:
        raise ValueError(f"node count must be >= 1, got n={n}")
    if n > basis.n_max - 1:
        raise CapacityError(
            f"rule of order {n} needs basis capacity {n + 1}, have {basis.n_max}",
            required=n + 1,
        )
    try:
        nodes = np.sort(eigh_tridiagonal(np.zeros(n), basis.coeffs[: n - 1],
                                         eigvals_only=True))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    # Newton on h_n; no step where h_0 underflows, zeroing every h_k and the sum
    norm_sq, h_prev, h_n = _christoffel(basis, nodes, n)
    nodes -= np.divide(basis.coeffs[n - 1] * h_n * h_prev, norm_sq,
                       out=np.zeros(n), where=norm_sq > 0)
    nodes = 0.5 * (nodes - nodes[::-1])  # even weight: symmetric spectrum
    tau = 1.0 / _christoffel(basis, nodes, n)[0]  # h_n vanishes at its zeros
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
    return math.fsum(rule.omega * values)


def _node_set(nodes, weights, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of a weighted node set, which must be 1-D, of equal
    length and finite (``wce_me2``, ``wce_series`` and ``build_system``)."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.ndim != 1 or nodes.shape != weights.shape:
        raise ValueError(f"nodes and {name} must be 1-D arrays of equal length")
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise ValueError(f"nodes and {name} must be finite")
    return nodes, weights
