"""End-to-end error-decay experiments (the three figure families).

Each figure id fixes a rule family, a space and an n-range.  The space is
one ``SpaceWeight``: the route follows from it, and the weight gives the
reported ``name``, the fit ``axis`` and the ``theory_slope``:

    fig1a/fig1b  Gauss rules, geometric decay t = 5/4 and 50/49 (mse2),
                 closed-form kernel route, log10(wce) against n.
    fig2a/fig2b  Gauss rules, sqrt-exponential decay s = 1 and 1/2 (mse),
                 series route from k = 2n, log10(wce) against sqrt(n).
    fig3a/b/c    uniformly shifted Gauss nodes with generalized weights,
                 series route from k = n+1; sqrt-exponential s = 1/2 (mse)
                 against sqrt(n), and polynomial s = 1 and 2/3 (hs)
                 against log10(n).

A mod-exp2 table takes the kernel route at alpha = 2 and the series route
otherwise, and fits against n on both.

``freudq figure`` and ``freudq wce`` build their rows through one
pipeline (``_table_rows``): one basis at the capacity of the largest row,
each row prepared on its own (rule, perturbation, system), kernel rows
through ``wce_me2`` and all series rows through one basis sweep over
their concatenated nodes.  A failure in preparation or at the sweep's
capacity marks that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError
from .gaussquad import gauss_rule
from .kernels import series_truncation
from .mzframe import build_system, generalized_weights, perturb_nodes, support_check
from .orthopoly import build_basis
from .spaces import SpaceWeight
from .wce import WCETable, _wce_series_rows, wce_me2

__all__ = ["FigureSpec", "figure_spec", "run_figure", "FIGURE_IDS"]

FIGURE_IDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c")

# Polynomial coefficient weights decay too slowly for the envelope-based
# auto-truncation, so their series are cut at this fixed recorded depth.
_POLY_DEPTH = 40_000


@dataclass(frozen=True)
class FigureSpec:
    """Fully resolved parameters of one error-decay table: the space is
    ``space_weight``, and ``eps`` set means shifted rules."""

    id: str
    n_values: tuple
    space_weight: SpaceWeight
    seed: int = 7
    eps: float | None = None          # shifted rules: perturbation magnitude
    sign_mode: str = "positive"
    trunc_tol: float = 1e-16
    k_max: int | None = None          # fixed series depth (polynomial weights by default)
    alpha: float = 2.0

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("n_values must hold at least one n, got none")
        if self.eps is not None and not 0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.k_max is None and self.space_weight.decay().s is not None:
            object.__setattr__(self, "k_max", _POLY_DEPTH)

    def space(self) -> SpaceWeight:
        return self.space_weight

    @property
    def t(self) -> float | None:
        """The ratio t of a mod-exp2 weight t^(k+1), else None."""
        return self.space_weight._t

    @property
    def kernel_route(self) -> bool:
        """Mehler's closed form is for the Gaussian weight, so a mod-exp2
        table at another alpha sums its series at the weight's t."""
        return self.t is not None and self.alpha == 2.0


_ODD_3_41 = tuple(range(3, 42, 2))
_ODD_3_21 = tuple(range(3, 22, 2))

_DEFAULTS = {
    "fig1a": dict(n_values=_ODD_3_41, space_weight=SpaceWeight.geometric(1.25)),
    "fig1b": dict(n_values=_ODD_3_41, space_weight=SpaceWeight.geometric(50.0 / 49.0)),
    "fig2a": dict(n_values=_ODD_3_21, space_weight=SpaceWeight.mod_exp(1.0)),
    "fig2b": dict(n_values=_ODD_3_21, space_weight=SpaceWeight.mod_exp(0.5)),
    "fig3a": dict(n_values=_ODD_3_21, space_weight=SpaceWeight.mod_exp(0.5), eps=0.1),
    "fig3b": dict(n_values=_ODD_3_21, space_weight=SpaceWeight.polynomial(1.0), eps=0.1),
    "fig3c": dict(
        n_values=_ODD_3_21, space_weight=SpaceWeight.polynomial(2.0 / 3.0), eps=0.1
    ),
}


def figure_spec(figure_id: str, **overrides) -> FigureSpec:
    """Spec with the documented defaults for ``figure_id``; keyword
    arguments override them and are recorded in the output metadata."""
    if figure_id not in _DEFAULTS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {figure_id!r}")
    return FigureSpec(id=figure_id, **{**_DEFAULTS[figure_id], **overrides})


def worker_count() -> int:
    """Rows run one after another in the calling thread, so this is 1.

    There is no row pool; the function stays only because the benchmark
    records it with each pass (``perfbench/passrun.py``).
    """
    return 1


def _plan(spec: FigureSpec) -> tuple[dict[int, tuple[int, int]], int]:
    """Each distinct n, in the given order, with ``(size, start)``: its
    rule's node count and its series' first mode (shifted rules take n+1
    nodes from k = n+1, Gauss rules n from k = 2n); and the basis capacity.

    A fixed depth is rejected on the kernel route, which sums no series,
    and below a row's start, where the row would sum nothing and read as an
    exact rule (the first such row is named).  The capacity is the largest
    rule's size plus one, and on the series route the fixed depth or the
    top row's truncation index (which needs no basis) plus four: the sweep
    needs K only, but at alpha != 2 the capacity also sizes the Stieltjes
    reference grid (``orthopoly._reference_grid``), so dropping the four
    would move the pinned alpha = 4 outputs in their last bits.
    """
    shifted = spec.eps is not None
    shapes = {n: (n + 1, n + 1) if shifted else (n, 2 * n) for n in spec.n_values}
    if spec.k_max is not None:
        if spec.kernel_route:
            raise ValueError("--k-max does not apply to the closed-form kernel route")
        for n, (_, start) in shapes.items():
            if spec.k_max < start:
                raise ValueError(
                    f"--k-max {spec.k_max} is below the first summed mode "
                    f"{'n+1' if shifted else '2n'} = {start} of row n = {n}"
                )
    size, start = shapes[max(shapes)]
    depth = spec.k_max  # None on the kernel route (rejected above otherwise)
    if depth is None and not spec.kernel_route:
        depth = series_truncation(spec.space(), start, spec.trunc_tol, spec.alpha) + 4
    return shapes, max(depth or 0, size + 1)


def _gauss_rule(basis, size: int):
    """``gauss_rule``, failing the row with a ``CapacityError`` on non-finite values."""
    rule = gauss_rule(basis, size)
    if not all(np.isfinite(v).all() for v in (rule.nodes, rule.omega, rule.tau)):
        raise CapacityError(f"the {size}-node Gauss rule has non-finite nodes or "
                            f"weights on a basis of capacity {basis.n_max}")
    return rule


def _shifted_rule(
    basis, n: int, eps: float, sign_mode: str, seed: int,
    allow_reorder: bool = True, L: float = 3.0,
) -> tuple:
    """The (n+1)-node Gauss rule with its nodes shifted by ``eps``, the
    system of order n on them and its generalized weights: returns
    ``(nodes, omega, report)`` with the report's a_n, b_n, min omega and
    support check at scale ``L``; a negative n raises ``ValueError``."""
    if n < 0:  # else the (n+1)-node rule's count would be blamed
        raise ValueError(f"system order must be >= 0, got n={n}")
    rule = _gauss_rule(basis, n + 1)
    nodes, tau = perturb_nodes(
        rule, eps, sign_mode=sign_mode, seed=seed, allow_reorder=allow_reorder
    )
    system = build_system(basis, n, nodes, tau)
    omega = generalized_weights(system, basis)
    report = {
        "a_n": system.a_n,
        "b_n": system.b_n,
        "min_omega": float(np.min(omega)),
        "support_ok": support_check(nodes, basis.alpha, n + 1, L=L),
    }
    return nodes, omega, report


def _rule_row(spec: FigureSpec, basis, n: int, shape: tuple) -> tuple[tuple, dict]:
    """Row n's ``(nodes, omega, start)`` triple for its planned ``shape``
    ``(size, start)``, plus the report of its perturbed system (empty for
    plain Gauss rules)."""
    size, start = shape
    if spec.eps is None:
        rule = _gauss_rule(basis, size)
        return (rule.nodes, rule.omega, start), {}
    nodes, omega, report = _shifted_rule(basis, n, spec.eps, spec.sign_mode, spec.seed)
    return (nodes, omega, start), report


def _table_rows(spec: FigureSpec):
    """``(basis, values, reports, errors)`` of one table, the last three
    keyed by n: one basis, kernel rows through ``wce_me2``, all series rows
    in one basis sweep.  A row that fails (rule, system, truncation,
    capacity) is recorded in ``errors`` and fails alone; a fixed depth
    below a row's first summed mode fails the table (``_plan``)."""
    shapes, capacity = _plan(spec)
    basis = build_basis(spec.alpha, capacity)
    values: dict[int, float] = {}
    reports: dict[int, dict] = {}
    errors: dict[int, Exception] = {}
    rows: dict[int, tuple] = {}

    for n, shape in shapes.items():  # a repeated n is one row
        try:
            row, info = _rule_row(spec, basis, n, shape)
            if spec.kernel_route:
                values[n] = wce_me2(row[0], row[1], spec.t)
            else:
                rows[n] = row
            if info:
                reports[n] = info
        except Exception as exc:
            errors[n] = exc

    series = _wce_series_rows(
        list(rows.values()), basis, spec.space(), spec.trunc_tol, spec.k_max
    )
    for n, value in zip(rows, series):
        if isinstance(value, Exception):
            errors[n] = value
        else:
            values[n] = value
    return basis, values, reports, errors


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

    _, values, reports, errors = _table_rows(spec)
    ns = sorted(values)
    space = spec.space()
    params = {
        "figure": spec.id,
        "space": space.name,
        "alpha": spec.alpha,
        "seed": spec.seed,
        "axis": space.axis,
        "trunc_tol": spec.trunc_tol,
    }
    if spec.t is not None:
        params["t"] = spec.t
    else:  # s, or p and q
        params.update((k, v) for k, v in space.describe().items() if k != "kind")
    if spec.eps is not None:
        params.update(eps=spec.eps, sign_mode=spec.sign_mode)
    if spec.k_max is not None:
        params["k_max"] = spec.k_max
    systems = {str(n): reports[n] for n in ns if n in reports}
    if systems:
        params["systems"] = systems
    if errors:
        params["failures"] = {
            str(n): f"{type(errors[n]).__name__}: {errors[n]}"
            for n in spec.n_values if n in errors
        }

    return WCETable.from_rows(
        params, ns, [values[n] for n in ns], axis=space.axis,
        theory_slope=space.theory_slope,
    )
