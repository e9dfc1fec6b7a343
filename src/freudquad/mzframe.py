"""Discrete sampling systems on the weighted polynomial subspaces.

A node set with nonnegative weights tau defines the semi-inner product
<f, g>_n = sum_x tau(x) f(x) g(x).  Its Gram (frame) matrix on the basis
h_0..h_n controls everything: the extreme eigenvalues a_n <= b_n are the
sampling constants, and solving the Gram system against the coefficient
vector of W yields generalized quadrature weights

    omega(x) = tau(x) * (S_n^{-1} W)(x)

which reduce to the Christoffel weights for exact Gauss nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .errors import GapViolationError, NotAFrameError
from .gaussquad import QuadratureRule
from .orthopoly import FreudBasis, basis_matrix, mrs_number
from .spaces import SpaceWeight
from .wce import _wce_series_rows

__all__ = [
    "MZSystem",
    "build_system",
    "generalized_weights",
    "perturb_nodes",
    "support_check",
    "phi_lambda",
]


@dataclass(frozen=True)
class MZSystem:
    """Frame data of a weighted node set on span{h_0..h_n}.

    ``gram[j, k] = sum_x tau(x) h_j(x) h_k(x)``; ``s_w`` solves
    gram @ s_w = (1/c0, 0, ..., 0), the coefficient vector of W.
    """

    n: int
    nodes: np.ndarray
    tau: np.ndarray
    gram: np.ndarray
    a_n: float
    b_n: float
    s_w: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.tau, self.gram, self.s_w):
            arr.setflags(write=False)


def build_system(basis: FreudBasis, n: int, nodes, tau) -> MZSystem:
    """Assemble the Gram matrix and sampling constants for given nodes/tau.

    Fails with ``NotAFrameError`` when the smallest eigenvalue is at the
    numerical-rank floor (the node set cannot control all of Pi_n), and
    reports the near-null coefficient direction.
    """
    nodes = np.asarray(nodes, dtype=float).copy()
    tau = np.asarray(tau, dtype=float).copy()
    if nodes.ndim != 1 or nodes.shape != tau.shape:
        raise ValueError("nodes and tau must be 1-D arrays of equal length")
    if nodes.size < 1:
        raise ValueError("need at least one node")
    if not (np.isfinite(nodes).all() and np.isfinite(tau).all()):
        raise ValueError("nodes and tau must be finite")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("nodes must be distinct")
    if np.any(tau < 0):
        raise ValueError("tau weights must be nonnegative")

    H = basis_matrix(basis, nodes, n)
    G = (H * tau) @ H.T
    G = 0.5 * (G + G.T)
    evals, evecs = eigh(G)
    a_n, b_n = float(evals[0]), float(evals[-1])
    if a_n <= 1e-12 * b_n:
        raise NotAFrameError(
            f"system is numerically degenerate on the subspace: a={a_n:.3e}, "
            f"b={b_n:.3e}",
            null_vector=evecs[:, 0].copy(),
        )
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0 / basis.c0
    try:
        s_w = cho_solve(cho_factor(G), rhs)
    except np.linalg.LinAlgError as exc:
        raise NotAFrameError(
            f"Gram solve failed at condition estimate {b_n / a_n:.3e}: {exc}",
            null_vector=evecs[:, 0].copy(),
        ) from exc
    return MZSystem(n, nodes, tau, G, a_n, b_n, s_w)


def generalized_weights(system: MZSystem, basis: FreudBasis) -> np.ndarray:
    """omega_j = tau_j * (S_n^{-1} W)(node_j).

    By construction the resulting rule reproduces the integrals of
    h_0..h_n against W exactly (up to the solve residual).
    """
    H = basis_matrix(basis, system.nodes, system.n)
    return system.tau * (H.T @ system.s_w)


def _signs(mode: str, count: int, seed: int) -> np.ndarray:
    if mode == "random":
        rng = np.random.default_rng(seed)
        return rng.choice(np.array([-1.0, 1.0]), size=count)
    if mode == "alternating":
        return np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    if mode == "positive":
        return np.ones(count)
    raise ValueError(f"unknown sign mode {mode!r}")


def perturb_nodes(
    rule: QuadratureRule,
    eps_mag: float,
    sign_mode: str = "random",
    seed: int = 7,
    allow_reorder: bool = False,
):
    """Displace every node by +-eps_mag; tau is carried over unchanged.

    Rejects magnitudes of half the minimal node gap or more, since
    opposite displacements of adjacent nodes could then reorder them.
    ``allow_reorder=True`` skips that guard (the discrete system only
    needs distinct nodes, not sorted ones) and is what the figure
    experiments use at magnitudes comparable to the node spacing;
    coincident perturbed nodes still raise.
    """
    if not 0 <= eps_mag < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps_mag}")
    sg = _signs(sign_mode, rule.nodes.size, seed)
    if rule.nodes.size > 1:
        min_gap = float(np.min(np.diff(rule.nodes)))
        if not allow_reorder and eps_mag >= 0.5 * min_gap:
            raise GapViolationError(
                f"eps={eps_mag} >= half the minimal node gap {min_gap:.6f}; "
                "opposite shifts of adjacent nodes could reorder them"
            )
    nodes = rule.nodes + sg * eps_mag
    if np.unique(nodes).size != nodes.size:
        raise GapViolationError("perturbation produced coincident nodes")
    return nodes, rule.tau.copy()


def support_check(nodes, alpha: float, n: int, L: float = 3.0) -> bool:
    """True iff max |node| <= m_{n,alpha} (1 + L n^{-2/3})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < L < math.inf:
        raise ValueError(f"L must be finite and > 0, got {L}")
    limit = mrs_number(alpha, n) * (1.0 + L * n ** (-2.0 / 3.0))
    return bool(np.max(np.abs(np.asarray(nodes, dtype=float))) <= limit)


def phi_lambda(
    basis: FreudBasis,
    space: SpaceWeight,
    system: MZSystem,
    tol: float = 1e-12,
    k_max: int | None = None,
) -> float:
    """Tail error functional sum_{k>n} lambda_k^{-1} * ||h_k||_n^2.

    Since ``||h_k||_n^2 = sum_x (sqrt(tau(x)) h_k(x))^2``, the functional
    is the sum over the nodes of the squared series errors of the one-node
    rules (x, sqrt(tau(x))) from index n+1, so all nodes run through the
    one basis sweep of ``wce_series``, with the same truncation: k in
    (n, k_max] when ``k_max`` is given, otherwise the envelope tail bound
    at ``tol`` relative to the first retained envelope term.  Where that
    bound cannot be met (weights too slow, or an index past the basis
    capacity) the typed error is raised; no partial sum is returned.
    """
    rows = [
        (np.array([x]), np.array([r]), system.n + 1)
        for x, r in zip(system.nodes, np.sqrt(system.tau))
    ]
    values = _wce_series_rows(rows, basis, space, tol, k_max)
    for value in values:
        if isinstance(value, Exception):
            raise value
    return math.fsum(values)
