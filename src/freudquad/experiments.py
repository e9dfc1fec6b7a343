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

The series rows of a figure share one basis sweep over their
concatenated nodes; each row is prepared on its own first (rule,
perturbation, system), so a failure there or at the sweep's capacity
marks that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussquad import gauss_rule
from .mzframe import build_system, generalized_weights, perturb_nodes, support_check
from .orthopoly import build_basis
from .spaces import SpaceWeight
from .wce import WCETable, _series_capacity, _series_depth, _wce_series_rows, wce_me2

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


def _series_row(spec: FigureSpec, basis, n: int) -> tuple[tuple, dict]:
    """Series-route row n of a fig2/fig3 spec: the ``(nodes, omega, start)``
    triple its worst-case error is summed over, plus its system report."""
    if spec.id.startswith("fig2"):
        rule = gauss_rule(basis, n)
        return (rule.nodes, rule.omega, 2 * n), {}

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
    return (nodes, omega, n + 1), info


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
    space = spec.space()
    values: dict[int, float] = {}
    row_info: dict[int, dict] = {}
    errors: dict[int, Exception] = {}
    rows: dict[int, tuple] = {}

    for n in spec.n_values:
        try:
            if space is None:
                rule = gauss_rule(basis, n)
                values[n] = wce_me2(rule.nodes, rule.omega, spec.t)
            else:
                rows[n], info = _series_row(spec, basis, n)
                if info:
                    row_info[n] = info
        except Exception as exc:
            errors[n] = exc

    # every surviving series row shares one basis sweep
    series = _wce_series_rows(
        list(rows.values()), basis, space, spec.trunc_tol, spec.k_max
    )
    for n, value in zip(rows, series):
        if isinstance(value, Exception):
            errors[n] = value
        else:
            values[n] = value

    ns = sorted(values)
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
    systems = {str(n): row_info[n] for n in ns if n in row_info}
    if systems:
        params["systems"] = systems
    if errors:
        params["failures"] = {
            str(n): f"{type(errors[n]).__name__}: {errors[n]}"
            for n in spec.n_values if n in errors
        }

    return WCETable.from_rows(
        params, ns, [values[n] for n in ns], axis=spec.axis,
        theory_slope=_theory_slope(spec),
    )


def _space_label(spec: FigureSpec) -> str:
    if spec.id in ("fig1a", "fig1b"):
        return "mse2"
    if spec.space_kind == "mod-exp":
        return "mse"
    return "ms"
