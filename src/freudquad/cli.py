"""Command-line interface.

Subcommands::

    coeffs   recurrence coefficients of the weighted basis
    nodes    Gauss rule (index, node, omega, tau)
    wce      worst-case-error table over a range of n
    perturb  perturbed-node system report (a_n, b_n, min omega, support)
    figure   reproduce one of the documented experiments
    check    run the quick invariant suite

``wce`` and ``figure`` build their tables through the same pipeline
(``experiments._table_rows``): ``wce`` scores Gauss rules on the named
space, ``figure`` the documented rule families.  ``wce --space mse2 --t T``
scores the geometric weight at T as given; s = pi (1 - 1/T) is derived for
the report.  ``perturb`` reports the perturbed system of
the fig3 rows (``experiments._shifted_rule``).  ``check`` tests three
invariants at alpha = 2: the 21-node Gauss rule integrates h_0 .. h_41
exactly, its order-20 system is the identity frame (a_n = b_n = 1), and
its squared worst-case error at t = 5/4 is the same through the kernel
route (``wce_me2``) and the coefficient series from k = 42 (``wce_series``).

Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
All CSV output is UTF-8, comma-separated, LF line endings, one header
row, 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FreudQuadError
from .experiments import (
    FIGURE_IDS, FigureSpec, _shifted_rule, _table_rows, figure_spec, run_figure,
)
from .gaussquad import gauss_rule
from .mzframe import build_system
from .orthopoly import basis_matrix, build_basis
from .spaces import SpaceWeight, lambda_of
from .wce import WCETable, tensor_wce, wce_me2, wce_series


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_n_range(text: str) -> list[int]:
    """Accepts 'a:b[:step]' (inclusive) or a comma list of integers; any
    other text raises ``ValueError("bad n-range ...")``."""
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step < 1 or hi < lo:
                raise ValueError
            ns = list(range(lo, hi + 1, step))
        else:
            ns = [int(v) for v in text.split(",") if v.strip()]
        if not ns:
            raise ValueError
    except ValueError:
        # int()'s own message names the one part it could not read
        raise ValueError(f"bad n-range {text!r}") from None
    return ns


def _write(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(content, encoding="utf-8", newline="\n")


def _cmd_coeffs(args) -> int:
    basis = build_basis(args.alpha, args.n)
    if args.format == "json":
        payload = {
            "alpha": args.alpha,
            "c0": basis.c0,
            "coefficients": [float(a) for a in basis.coeffs],
            "tool_version": __version__,
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["k,a_k"] + [
            f"{k + 1},{_fmt(float(a))}" for k, a in enumerate(basis.coeffs)
        ]
        _write(args.out, "\n".join(lines) + "\n")
        if args.out not in (None, "-"):
            print(f"c0 = {_fmt(basis.c0)}")
    return 0


def _cmd_nodes(args) -> int:
    basis = build_basis(args.alpha, args.n + 1)
    rule = gauss_rule(basis, args.n)
    if args.format == "json":
        payload = {
            "alpha": args.alpha,
            "n": args.n,
            "nodes": [float(v) for v in rule.nodes],
            "omega": [float(v) for v in rule.omega],
            "tau": [float(v) for v in rule.tau],
            "tool_version": __version__,
        }
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["index,node,omega,tau"]
        for j in range(rule.n):
            lines.append(
                f"{j},{_fmt(rule.nodes[j])},{_fmt(rule.omega[j])},{_fmt(rule.tau[j])}"
            )
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def _fmt_slope(slope: float | None) -> str:
    return "n/a" if slope is None else f"{slope:.6f}"


def _emit_table(table: WCETable, args, stem: str) -> None:
    if args.out is None or args.out == "-":
        if args.format == "json":
            sys.stdout.write(json.dumps(table.summary(), indent=2) + "\n")
        else:
            sys.stdout.write(table.to_csv())
        print(f"slope = {_fmt_slope(table.slope)}", file=sys.stderr)
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.csv").write_text(table.to_csv(), encoding="utf-8", newline="\n")
    (out / f"{stem}.json").write_text(
        json.dumps(table.summary(), indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    print(f"{stem}: slope={_fmt_slope(table.slope)} -> {out / (stem + '.csv')}")


def _check_trunc_tol(args, spec) -> None:
    """Reject an explicit ``--trunc-tol`` where no tolerance truncates: on the
    kernel route, which sums no series, and at a fixed depth ``spec.k_max``.
    Omitted, the option is None on ``figure`` and the object
    ``FigureSpec.trunc_tol`` itself on ``wce`` (argparse parses only a given
    value, into a new float)."""
    given = args.trunc_tol is not None and args.trunc_tol is not FigureSpec.trunc_tol
    if given and (spec.kernel_route or spec.k_max is not None):
        where = "the closed-form kernel route" if spec.kernel_route else (
            f"the fixed series depth k_max = {spec.k_max}")
        raise ValueError(f"--trunc-tol does not apply to {where}")


def _cmd_wce(args) -> int:
    ns = _parse_n_range(args.n_range)
    weight = SpaceWeight.named(args.space, s=args.s, p=args.p, q=args.q, t=args.t)
    spec = FigureSpec(
        id="wce", n_values=tuple(ns), space_weight=weight, seed=args.seed,
        trunc_tol=args.trunc_tol, k_max=args.k_max, alpha=args.alpha,
    )
    _check_trunc_tol(args, spec)
    basis, rows, _, errors = _table_rows(spec)
    if errors:
        raise next(iter(errors.values()))  # the first row that failed
    values = [rows[n] for n in ns]

    params = {"space": args.space, "alpha": args.alpha}
    if spec.kernel_route:
        params.update(s=weight.s, t=spec.t, seed=args.seed, trunc_tol=args.trunc_tol)
    else:
        params.update(seed=args.seed, trunc_tol=args.trunc_tol, **weight.describe())
        if spec.k_max is not None:
            params["k_max"] = spec.k_max
    if args.dim != 1:
        # tensor extension: per-coordinate squared error lifts exactly;
        # tensor_wce rejects d < 1
        lam0 = float(lambda_of(weight, 0))
        values = [tensor_wce(v, 1.0 / basis.c0, lam0, args.dim) for v in values]
        params["dim"] = args.dim
    table = WCETable.from_rows(params, ns, values, axis=weight.axis)
    _emit_table(table, args, f"wce_{args.space}")
    return 0


def _cmd_perturb(args) -> int:
    basis = build_basis(args.alpha, max(args.n + 2, 64))
    _, _, info = _shifted_rule(
        basis, args.n, args.eps, args.sign_mode, args.seed, args.allow_reorder, args.L
    )
    report = {
        "alpha": args.alpha,
        "n": args.n,
        "eps": args.eps,
        "sign_mode": args.sign_mode,
        "seed": args.seed,
        "a_n": info["a_n"],
        "b_n": info["b_n"],
        "condition": info["b_n"] / info["a_n"],
        "min_omega": info["min_omega"],
        "all_omega_positive": info["min_omega"] > 0,
        "support_check_L": args.L,
        "support_ok": info["support_ok"],
        "tool_version": __version__,
    }
    if args.format == "json":
        _write(args.out, json.dumps(report, indent=2) + "\n")
    else:
        lines = ["key,value"] + [f"{k},{v}" for k, v in report.items()]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_figure(args) -> int:
    overrides = {}
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.n_range is not None:
        overrides["n_values"] = tuple(_parse_n_range(args.n_range))
    if args.trunc_tol is not None:
        overrides["trunc_tol"] = args.trunc_tol
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sign_mode is not None:
        overrides["sign_mode"] = args.sign_mode
    spec = figure_spec(args.id, **overrides)
    _check_trunc_tol(args, spec)
    if args.sign_mode is not None and spec.eps is None:
        # only shifted rules read it, and a figure without eps shifts none
        raise ValueError(
            "--sign-mode applies only to shifted rules (fig3a-fig3c, or --eps)"
        )
    table = run_figure(spec)
    _emit_table(table, args, args.id)
    return 0


def _cmd_check(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        if not ok:
            failures += 1

    basis = build_basis(2.0, 320)

    rule = gauss_rule(basis, 21)
    H = basis_matrix(basis, rule.nodes, 41)
    e = H @ rule.omega
    target = np.zeros(42)
    target[0] = 2.0 ** -0.25
    resid = float(np.abs(e - target).max())
    report("gauss-exactness n=21 k<=41", resid < 1e-9, f"max residual {resid:.3e}")

    system = build_system(basis, 20, rule.nodes, rule.tau)
    defect = float(np.abs(system.gram - np.eye(21)).max())
    report(
        "frame-identity n=20",
        defect < 1e-8 and abs(system.a_n - 1) < 1e-8 and abs(system.b_n - 1) < 1e-8,
        f"max |S-I| {defect:.3e}",
    )

    t = 1.25
    kernel = wce_me2(rule.nodes, rule.omega, t)
    series = wce_series(rule.nodes, rule.omega, basis, SpaceWeight.geometric(t), 42)
    rel = abs(series - kernel) / kernel
    report("kernel-vs-series n=21 t=5/4", rel < 1e-13, f"relative difference {rel:.3e}")

    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freudq",
        description="Quadrature rules for Freud weights and worst-case "
        "integration errors over the associated function spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, alpha=True):
        if alpha:
            p.add_argument("--alpha", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("coeffs", help="recurrence coefficients a_1..a_n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("nodes", help="Gauss rule nodes and weights")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("wce", help="worst-case-error table for Gauss rules")
    common(p)
    p.add_argument("--space", choices=SpaceWeight.names(), required=True)
    p.add_argument("--n-range", default="3:21:2")
    p.add_argument("--s", type=float, default=None)  # 1.0 where s applies
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--t", type=float, default=None,
                   help="geometric decay parameter; implies --s for mse2")
    p.add_argument("--dim", type=int, default=1,
                   help="tensor-product dimension for the reported error")
    # a float default, not None: perfbench/replay.py reads the parsed value
    p.add_argument("--trunc-tol", type=float, default=FigureSpec.trunc_tol)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=_cmd_wce)

    p = sub.add_parser("perturb", help="perturbed-node system report")
    common(p)
    p.add_argument("--n", type=int, required=True, help="system order (n+1 nodes)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--sign-mode", choices=("random", "alternating", "positive"), default="random"
    )
    p.add_argument("--allow-reorder", action="store_true")
    p.add_argument("--L", type=float, default=3.0)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("figure", help="reproduce a documented experiment")
    common(p, alpha=False)
    p.add_argument("id", choices=FIGURE_IDS)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n-range", default=None)
    p.add_argument("--trunc-tol", type=float, default=None)
    p.add_argument(
        "--sign-mode", choices=("random", "alternating", "positive"), default=None
    )
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("check", help="run the quick invariant suite")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FreudQuadError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
