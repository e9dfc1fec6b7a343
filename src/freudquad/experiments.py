"""End-to-end error-decay experiments (the three figure families).

Each figure id fixes a rule family, a space, an n-range and a fit axis:

    fig1a/fig1b  Gauss rules, geometric decay t = 5/4 and 50/49,
                 closed-form kernel route, log10(wce) against n.
    fig2a/fig2b  Gauss rules, sqrt-exponential decay s = 1 and 1/2,
                 series route from k = 2n, log10(wce) against sqrt(n).
    fig3a/b/c    uniformly shifted Gauss nodes with generalized weights,
                 series route from k = n+1; sqrt-exponential s = 1/2
                 against sqrt(n), and polynomial s = 1 and 2/3 against
                 log10(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussquad import gauss_rule
from .mzframe import build_system, generalized_weights, perturb_nodes, support_check
from .orthopoly import build_basis
from .spaces import SpaceWeight
from .wce import WCETable, _series_capacity, _series_depth, wce_me2, wce_series

__all__ = ["FigureSpec", "figure_spec", "run_figure", "FIGURE_IDS"]

_LOG10_E = math.log10(math.e)

FIGURE_IDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c")


@dataclass(frozen=True)
class FigureSpec:
    """Fully resolved parameters of one experiment run."""

    id: str
    n_values: tuple
    axis: str
    seed: int = 7
    t: float | None = None            # fig1: geometric decay parameter
    s: float | None = None            # fig2/fig3: space parameter
    space_kind: str | None = None
    eps: float | None = None          # fig3: perturbation magnitude
    sign_mode: str = "positive"
    trunc_tol: float = 1e-16
    k_max: int | None = None          # fixed series depth (fig3b/c by default)

    def space(self) -> SpaceWeight | None:
        if self.space_kind is None:
            return None
        if self.space_kind == "poly":
            return SpaceWeight.polynomial(self.s)
        if self.space_kind == "mod-exp":
            return SpaceWeight.mod_exp(self.s)
        raise ValueError(f"unsupported space kind {self.space_kind!r}")


_ODD_3_41 = tuple(range(3, 42, 2))
_ODD_3_21 = tuple(range(3, 22, 2))

_DEFAULTS = {
    "fig1a": dict(n_values=_ODD_3_41, axis="n", t=1.25),
    "fig1b": dict(n_values=_ODD_3_41, axis="n", t=50.0 / 49.0),
    "fig2a": dict(n_values=_ODD_3_21, axis="sqrt-n", s=1.0, space_kind="mod-exp"),
    "fig2b": dict(n_values=_ODD_3_21, axis="sqrt-n", s=0.5, space_kind="mod-exp"),
    "fig3a": dict(
        n_values=_ODD_3_21, axis="sqrt-n", s=0.5, space_kind="mod-exp", eps=0.1
    ),
    "fig3b": dict(
        n_values=_ODD_3_21, axis="log-n", s=1.0, space_kind="poly", eps=0.1
    ),
    "fig3c": dict(
        n_values=_ODD_3_21, axis="log-n", s=2.0 / 3.0, space_kind="poly", eps=0.1
    ),
}


def figure_spec(figure_id: str, **overrides) -> FigureSpec:
    """Spec with the documented defaults for ``figure_id``; keyword
    arguments override them and are recorded in the output metadata."""
    if figure_id not in _DEFAULTS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {figure_id!r}")
    kwargs = dict(_DEFAULTS[figure_id])
    kwargs.update(overrides)
    spec = FigureSpec(id=figure_id, **kwargs)
    if spec.space() is not None:
        spec = replace(spec, k_max=_series_depth(spec.space(), spec.k_max))
    return spec


def worker_count() -> int:
    """Rows run one after another in the calling thread, so this is 1.

    There is no row pool; the function stays only because the benchmark
    records it with each pass (``perfbench/passrun.py``).
    """
    return 1


def _theory_slope(spec: FigureSpec) -> float:
    if spec.id in ("fig1a", "fig1b"):
        # decay at least t^{-2n}: slope -2 log10(t) against n
        return -2.0 * math.log10(spec.t)
    if spec.space_kind == "mod-exp":
        # decay at least e^{-q sqrt(2n)}: slope -sqrt(2) q log10(e) against sqrt(n)
        return -math.sqrt(2.0) * (spec.s / math.sqrt(math.pi)) * _LOG10_E
    # polynomial families: observed decay n^{-s} on the log-log axis
    return -spec.s


def _required_capacity(spec: FigureSpec) -> int:
    n_top = max(spec.n_values)
    if spec.id in ("fig1a", "fig1b"):
        return n_top + 1
    start = 2 * n_top if spec.id.startswith("fig2") else n_top + 1
    return _series_capacity(spec.space(), start, spec.trunc_tol, 2.0, spec.k_max)


def _row_value(spec: FigureSpec, basis, n: int) -> tuple[float, dict]:
    info: dict = {}
    if spec.id in ("fig1a", "fig1b"):
        rule = gauss_rule(basis, n)
        return wce_me2(rule.nodes, rule.omega, spec.t), info

    if spec.id.startswith("fig2"):
        rule = gauss_rule(basis, n)
        value = wce_series(
            rule.nodes, rule.omega, basis, spec.space(), start=2 * n,
            tol=spec.trunc_tol, k_max=spec.k_max,
        )
        return value, info

    # fig3: system of order n on n+1 perturbed nodes
    rule = gauss_rule(basis, n + 1)
    nodes, tau = perturb_nodes(
        rule, spec.eps, sign_mode=spec.sign_mode, seed=spec.seed, allow_reorder=True
    )
    system = build_system(basis, n, nodes, tau)
    omega = generalized_weights(system, basis)
    info = {
        "a_n": system.a_n,
        "b_n": system.b_n,
        "min_omega": float(np.min(omega)),
        "support_ok": support_check(nodes, basis.alpha, n + 1, L=3.0),
    }
    value = wce_series(
        nodes, omega, basis, spec.space(), start=n + 1,
        tol=spec.trunc_tol, k_max=spec.k_max,
    )
    return value, info


def run_figure(spec: FigureSpec | str, **overrides) -> WCETable:
    """Compute the error-decay table for a figure id or resolved spec.

    Rows whose computation fails are kept in the metadata under
    ``failures`` (n -> error message) instead of being dropped silently;
    the fit runs over the surviving rows.
    """
    if isinstance(spec, str):
        spec = figure_spec(spec, **overrides)
    elif overrides:
        spec = replace(spec, **overrides)

    basis = build_basis(2.0, _required_capacity(spec))
    results: dict[int, tuple[float, dict]] = {}
    failures: dict[int, str] = {}

    for n in spec.n_values:
        try:
            results[n] = _row_value(spec, basis, n)
        except Exception as exc:
            failures[n] = f"{type(exc).__name__}: {exc}"

    ns = sorted(results)
    values = [results[n][0] for n in ns]
    row_info = {n: results[n][1] for n in ns if results[n][1]}

    params = {
        "figure": spec.id,
        "space": _space_label(spec),
        "alpha": 2.0,
        "seed": spec.seed,
        "axis": spec.axis,
        "trunc_tol": spec.trunc_tol,
    }
    if spec.t is not None:
        params["t"] = spec.t
    if spec.s is not None:
        params["s"] = spec.s
    if spec.eps is not None:
        params.update(eps=spec.eps, sign_mode=spec.sign_mode)
    if spec.k_max is not None:
        params["k_max"] = spec.k_max
    if row_info:
        params["systems"] = {str(n): row_info[n] for n in row_info}
    if failures:
        params["failures"] = {str(n): failures[n] for n in failures}

    return WCETable.from_rows(
        params, ns, values, axis=spec.axis, theory_slope=_theory_slope(spec)
    )


def _space_label(spec: FigureSpec) -> str:
    if spec.id in ("fig1a", "fig1b"):
        return "mse2"
    if spec.space_kind == "mod-exp":
        return "mse"
    return "ms"
