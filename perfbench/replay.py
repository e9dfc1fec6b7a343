"""Traced replay: rebuild every output of a workload through public calls.

Figures are rebuilt row by row the way ``run_figure`` builds them (capacity
sizing, Gauss rule, perturbed system, series or kernel route), commands the
way ``freudquad.cli`` runs them, with a span around each call into a layer
and counts of the work handed to it.  Spans are kept in memory and returned
at the end.  The series truncation index is computed by an explicit
``series_truncation`` call and passed to ``wce_series`` as ``k_max``, and the
coefficient weights by an explicit ``lambda_of`` call; both give the same
value as the implicit path inside ``wce_series`` (whose own ``lambda_of``
call then finds the radial-moment cache warm).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from freudquad import (
    SpaceWeight,
    build_basis,
    build_system,
    figure_spec,
    gauss_rule,
    generalized_weights,
    lambda_of,
    perturb_nodes,
    sup_envelope_constant,
    tensor_wce,
    wce_me2,
    wce_series,
)
from freudquad.cli import build_parser
from freudquad.wce import series_truncation

from workloads import WORKLOADS, cli_argv, n_range


class Tracer:
    """In-memory spans (id, name, start, end, parent, row) and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._row: str | None = None

    @contextmanager
    def span(self, name: str, row: str | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer_row = self._row
        if row is not None:
            self._row = row
        record = [sid, name, time.perf_counter(), None, parent, self._row]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self._row = outer_row

    def call(self, name: str, fn, *args, **kwargs):
        self.counts[name + ".calls"] += 1
        with self.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise


def _series(tr: Tracer, nodes, omega, basis, space, start, tol, k_max):
    if k_max is None:
        sup = tr.call("kernels.sup_envelope_constant", sup_envelope_constant, basis)
        K = tr.call(
            "wce.series_truncation", series_truncation, space, start, tol, basis.alpha, sup
        )
        tr.counts["wce.series_K"] += K
    else:
        K = k_max
    if start <= K <= basis.n_max:
        tr.counts["spaces.lambda_of.values"] += K + 1 - start
        tr.call("spaces.lambda_of", lambda_of, space, np.arange(start, K + 1))
        tr.counts["wce.series_modes"] += K + 1
        tr.counts["wce.series_mode_nodes"] += (K + 1) * len(nodes)
    return tr.call(
        "wce.wce_series", wce_series, nodes, omega, basis, space,
        start=start, tol=tol, k_max=K,
    )


def _me2(tr: Tracer, rule, t):
    m = rule.n
    tr.counts["wce.me2_pairs"] += m * (m + 1) // 2
    return tr.call("wce.wce_me2", wce_me2, rule.nodes, rule.omega, t)


def _basis(tr: Tracer, alpha, n_max):
    tr.counts["orthopoly.coeffs"] += n_max
    return tr.call("orthopoly.build_basis", build_basis, alpha, n_max)


def _rule(tr: Tracer, basis, n):
    tr.counts["gaussquad.nodes"] += n
    return tr.call("gaussquad.gauss_rule", gauss_rule, basis, n)


def _system(tr: Tracer, rule, eps, sign_mode, seed, allow_reorder, basis, n):
    try:
        nodes, tau = tr.call(
            "mzframe.perturb_nodes", perturb_nodes, rule, eps,
            sign_mode=sign_mode, seed=seed, allow_reorder=allow_reorder,
        )
        system = tr.call("mzframe.build_system", build_system, basis, n, nodes, tau)
        omega = tr.call("mzframe.generalized_weights", generalized_weights, system, basis)
    except Exception:
        tr.counts["mzframe.failed"] += 1
        raise
    tr.counts["mzframe.systems"] += 1
    return nodes, system, omega


def _figure_row(tr: Tracer, spec, basis, n: int) -> float:
    if spec.id in ("fig1a", "fig1b"):
        return _me2(tr, _rule(tr, basis, n), spec.t)
    space = spec.space()
    if spec.id.startswith("fig2"):
        rule = _rule(tr, basis, n)
        return _series(
            tr, rule.nodes, rule.omega, basis, space, 2 * n, spec.trunc_tol, spec.k_max
        )
    rule = _rule(tr, basis, n + 1)
    nodes, _, omega = _system(
        tr, rule, spec.eps, spec.sign_mode, spec.seed, True, basis, n
    )
    return _series(tr, nodes, omega, basis, space, n + 1, spec.trunc_tol, spec.k_max)


def replay_figure(tr: Tracer, fid: str, seed: int) -> dict:
    spec = tr.call("experiments.figure_spec", figure_spec, fid, seed=seed)
    out = {"kind": "figure", "id": fid, "n_values": list(spec.n_values)}
    ns, values, failures = [], [], {}
    try:
        n_top = max(spec.n_values)
        if fid in ("fig1a", "fig1b"):
            cap = n_top + 1
        elif spec.k_max is not None:
            cap = spec.k_max
        else:
            sup = tr.call(
                "kernels.sup_envelope_constant", sup_envelope_constant, _basis(tr, 2.0, 512)
            )
            start = 2 * n_top if fid.startswith("fig2") else n_top + 1
            K = tr.call(
                "wce.series_truncation", series_truncation,
                spec.space(), start, spec.trunc_tol, 2.0, sup,
            )
            tr.counts["wce.series_K"] += K
            cap = K + 4
        basis = _basis(tr, 2.0, cap)
    except Exception as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    for n in spec.n_values:
        with tr.span("row", row=f"{fid}#n={n}"):
            try:
                values.append(_figure_row(tr, spec, basis, n))
                ns.append(n)
            except Exception as exc:
                failures[str(n)] = f"{type(exc).__name__}: {exc}"
    out.update(ns=ns, wce=_clamped(values), failures=failures)
    return out


def _clamped(values):
    # WCETable.from_rows reports rounding-level negative errors as 0
    return [max(float(v), 0.0) for v in values]


_SPACES = {
    "hs": lambda a: SpaceWeight.polynomial(a.s),
    "epq": lambda a: SpaceWeight.exponential(a.p, a.q),
    "ms": lambda a: SpaceWeight.mod_poly(a.s),
    "mse": lambda a: SpaceWeight.mod_exp(a.s),
    "mse2": lambda a: SpaceWeight.mod_exp2(a.s),
}


def _replay_wce(tr: Tracer, a, command: str) -> dict:
    ns = n_range(a.n_range)
    if a.space == "mse2" and a.t is not None:
        a.s = math.pi * (1.0 - 1.0 / a.t)
    space = _SPACES[a.space](a)
    values = []
    if a.space == "mse2" and a.alpha == 2.0:
        t = math.pi / (math.pi - a.s)
        basis = _basis(tr, a.alpha, max(ns) + 1)
        for n in ns:
            with tr.span("row", row=f"{command}#n={n}"):
                values.append(_me2(tr, _rule(tr, basis, n), t))
    else:
        k_max = a.k_max
        if k_max is None and space.kind in ("poly", "mod-poly"):
            k_max = 40_000
        if k_max is None:
            sup = tr.call(
                "kernels.sup_envelope_constant", sup_envelope_constant,
                _basis(tr, a.alpha, 512),
            )
            K = tr.call(
                "wce.series_truncation", series_truncation,
                space, 2 * max(ns), a.trunc_tol, a.alpha, sup,
            )
            tr.counts["wce.series_K"] += K
            cap = K + 4
        else:
            cap = k_max
        basis = _basis(tr, a.alpha, max(cap, max(ns) + 1))
        for n in ns:
            with tr.span("row", row=f"{command}#n={n}"):
                rule = _rule(tr, basis, n)
                values.append(
                    _series(tr, rule.nodes, rule.omega, basis, space, 2 * n, a.trunc_tol, k_max)
                )
    if a.dim > 1:
        c = 1.0 / _basis(tr, a.alpha, 1).c0
        lam0 = float(tr.call("spaces.lambda_of", lambda_of, space, 0))
        tr.counts["spaces.lambda_of.values"] += 1
        values = [tr.call("wce.tensor_wce", tensor_wce, v, c, lam0, a.dim) for v in values]
    return {"ns": ns, "wce": _clamped(values)}


def replay_command(tr: Tracer, command: str, seed: int) -> dict:
    out = {"kind": "cli", "id": command}
    a = build_parser().parse_args(cli_argv(command, seed))
    try:
        if a.subcommand == "coeffs":
            out["a"] = _basis(tr, a.alpha, a.n).coeffs.tolist()
        elif a.subcommand == "nodes":
            rule = _rule(tr, _basis(tr, a.alpha, a.n + 1), a.n)
            out.update(
                nodes=rule.nodes.tolist(), omega=rule.omega.tolist(), tau=rule.tau.tolist()
            )
        elif a.subcommand == "wce":
            out.update(_replay_wce(tr, a, command))
        elif a.subcommand == "perturb":
            basis = _basis(tr, a.alpha, max(a.n + 2, 64))
            rule = _rule(tr, basis, a.n + 1)
            _, system, omega = _system(
                tr, rule, a.eps, a.sign_mode, a.seed, a.allow_reorder, basis, a.n
            )
            out.update(a_n=system.a_n, b_n=system.b_n, min_omega=float(np.min(omega)))
        else:
            raise ValueError(f"no replay for subcommand {a.subcommand!r}")
    except Exception as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def replay_workload(workload: str, seed: int) -> dict:
    tr = Tracer()
    ops = []
    for kind, ident in WORKLOADS[workload]:
        with tr.span("op", row=ident):
            if kind == "figure":
                ops.append(replay_figure(tr, ident, seed))
            else:
                ops.append(replay_command(tr, ident, seed))
    return {"ops": ops, "spans": tr.spans, "counts": dict(tr.counts)}
