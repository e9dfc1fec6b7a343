"""Correctness checks behind ``correct_frac`` / ``wrong_frac``.

Every completed output is checked by independent oracles, and at the default
seed also against the outputs recorded at the seed commit
(``reference/<workload>.json``) at the fixed relative tolerance ``RTOL``:
a reordered reduction may move the last bits, nothing more.  The oracles use
numpy and scipy only, never ``freudquad``:

* alpha = 4 coefficients satisfy Freud's equation
  8 pi a_n^2 (a_{n-1}^2 + a_n^2 + a_{n+1}^2) = n;
* alpha = 2 coefficients equal sqrt(k / (4 pi)); other exponents agree with an
  independent discretized Stieltjes procedure on a Gauss-Legendre grid;
* Gauss rules are finite, positive, symmetric, integrate h_0 .. h_{2n-1}
  exactly, and their weights sum to the integral of W (the sum is a lower
  bound that converges with n; the workloads' rule sizes meet it to rounding);
* figure slopes stay inside the acceptance windows of the paper's figures;
* tables are finite and nonnegative; perturbation reports are consistent.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy.special import gamma, roots_legendre

from workloads import n_range, option

RTOL = 1e-9

# acceptance windows of the figure slopes (the paper's reported decay rates)
SLOPE_WINDOWS = {
    "fig1a": (-0.40, -0.30),
    "fig1b": (-0.04, -0.02),
    "fig2a": (-0.58, -0.42),
    "fig2b": (-0.34, -0.18),
    "fig3a": (-0.41, -0.11),
    "fig3b": (-1.15, -0.85),
    "fig3c": (-0.81, -0.51),
}


class Wrong(Exception):
    """An output failed a check; the message says which."""


def _require(ok, message: str) -> None:
    if not ok:
        raise Wrong(message)


# ----------------------------------------------------------------- parsing


def parse(op: dict):
    """Numbers of a completed op, or None when the op failed."""
    if op["kind"] == "figure":
        if "error" in op:
            return None
        return {"ns": op["ns"], "wce": op["wce"], "slope": op["slope"]}
    if op["rc"] != 0:
        return None
    sub = op["id"].split()[0]
    text = op["stdout"]
    if sub == "perturb":
        report = json.loads(text)
        report.pop("tool_version", None)
        return report
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [[float(v) for v in r] for r in rows[1:]]
    columns = {name: [r[i] for r in body] for i, name in enumerate(header)}
    if sub == "coeffs":
        return {"a": columns["a_k"]}
    if sub == "nodes":
        return {"nodes": columns["node"], "omega": columns["omega"], "tau": columns["tau"]}
    if sub == "wce":
        return {"ns": [int(v) for v in columns["n"]], "wce": columns["wce"]}
    raise ValueError(f"no parser for {sub!r}")


def values_close(got, ref, rtol: float = RTOL) -> bool:
    """Recursive comparison: numbers to ``rtol``, NaN equal to NaN."""
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and got.keys() == ref.keys()
            and all(values_close(got[k], ref[k], rtol) for k in ref)
        )
    if isinstance(ref, (bool, str)) or ref is None:
        return got == ref
    a = np.asarray(got, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        return False
    with np.errstate(invalid="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        near = np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(same | near))


# ---------------------------------------------------------- closed forms


def integral_w(alpha: float) -> float:
    """Integral of exp(-pi |x|^alpha) over the real line."""
    return 2.0 * math.gamma(1.0 + 1.0 / alpha) * math.pi ** (-1.0 / alpha)


def c0_of(alpha: float) -> float:
    """(integral of W^2)^(-1/2)."""
    return (2.0 * math.gamma(1.0 + 1.0 / alpha) * (2.0 * math.pi) ** (-1.0 / alpha)) ** -0.5


def _mrs(alpha: float, n: int) -> float:
    const = (gamma(alpha / 2.0) ** 2 / (4.0 * gamma(alpha))) ** (1.0 / alpha)
    return 2.0 / math.sqrt(math.pi) * const * n ** (1.0 / alpha)


@lru_cache(maxsize=None)
def independent_coeffs(alpha: float, n: int) -> tuple:
    """a_1..a_n by a discretized Stieltjes procedure, with the weight folded
    into the functions, on one Gauss-Legendre rule per half-line in the
    variable u = sqrt(x / R), which smooths |x|^alpha at 0."""
    if alpha == 2.0:
        return tuple(np.sqrt(np.arange(1, n + 1) / (4.0 * math.pi)))
    radius = 1.25 * _mrs(alpha, 2 * n) + 3.0
    t, wt = roots_legendre(2 * n + 400)
    u = 0.5 * (t + 1.0)
    half_x = radius * u * u
    half_w = radius * u * wt  # dx = 2 R u du, du = wt / 2
    x = np.concatenate([-half_x[::-1], half_x])
    w = np.concatenate([half_w[::-1], half_w])
    weight = np.exp(-math.pi * np.abs(x) ** alpha)
    h_prev = np.zeros_like(x)
    h_cur = weight / math.sqrt(float(np.sum(w * weight * weight)))
    a = np.zeros(n)
    for k in range(n):
        v = x * h_cur - (a[k - 1] if k else 0.0) * h_prev
        a[k] = math.sqrt(float(np.sum(w * v * v)))
        h_prev, h_cur = h_cur, v / a[k]
    return tuple(a)


# ---------------------------------------------------------------- oracles


def check_coeffs(command: str, values: dict) -> None:
    alpha, n = float(option(command, "alpha", 2.0)), int(option(command, "n"))
    a = np.asarray(values["a"], dtype=float)
    _require(a.size == n, f"{a.size} coefficients, expected {n}")
    _require(np.all(np.isfinite(a)) and np.all(a > 0), "non-finite or nonpositive coefficient")
    if alpha == 4.0:
        sq = np.concatenate([[0.0], a * a, [0.0]])
        k = np.arange(1, n)
        lhs = 8.0 * math.pi * sq[k] * (sq[k - 1] + sq[k] + sq[k + 1])
        worst = float(np.max(np.abs(lhs - k) / k))
        _require(worst < 1e-10, f"Freud's equation violated by {worst:.2e}")
    else:
        ref = np.asarray(independent_coeffs(alpha, n))
        worst = float(np.max(np.abs(a - ref) / ref))
        _require(worst < 1e-9, f"independent Stieltjes differs by {worst:.2e}")


def check_nodes(command: str, values: dict) -> None:
    alpha, n = float(option(command, "alpha", 2.0)), int(option(command, "n"))
    x, omega, tau = (np.asarray(values[k], dtype=float) for k in ("nodes", "omega", "tau"))
    _require(x.size == omega.size == tau.size == n, "rule has the wrong size")
    for name, arr in (("nodes", x), ("omega", omega), ("tau", tau)):
        _require(np.all(np.isfinite(arr)), f"non-finite {name}")
    _require(np.all(omega > 0) and np.all(tau > 0), "nonpositive weight")
    _require(np.all(np.diff(x) > 0), "nodes not strictly increasing")
    _require(np.max(np.abs(x + x[::-1])) <= 1e-12 * max(1.0, np.max(np.abs(x))), "nodes not symmetric")
    total = math.fsum(omega)
    _require(
        abs(total - integral_w(alpha)) <= 1e-10 * integral_w(alpha),
        f"weights sum to {total!r}, integral of W is {integral_w(alpha)!r}",
    )
    # exactness on h_0 .. h_{2n-1}
    a = np.asarray(independent_coeffs(alpha, 2 * n - 1)) if n > 1 else np.zeros(0)
    c0 = c0_of(alpha)
    h_prev = np.zeros_like(x)
    h_cur = c0 * np.exp(-math.pi * np.abs(x) ** alpha)
    worst = 0.0
    for k in range(2 * n):
        terms = omega * h_cur
        err = math.fsum(terms) - (1.0 / c0 if k == 0 else 0.0)
        worst = max(worst, abs(err) / max(1.0, float(np.sum(np.abs(terms)))))
        if k < 2 * n - 1:
            h_prev, h_cur = h_cur, (x * h_cur - (a[k - 1] if k else 0.0) * h_prev) / a[k]
    _require(worst < 1e-10, f"exactness defect {worst:.2e} on h_0..h_{2 * n - 1}")


def check_table(command: str, values: dict) -> None:
    _require(values["ns"] == n_range(option(command, "n-range")), "table rows do not match --n-range")
    wce = np.asarray(values["wce"], dtype=float)
    _require(np.all(np.isfinite(wce)) and np.all(wce >= 0), "non-finite or negative wce")


def check_perturb(command: str, values: dict, seed: int) -> None:
    r = values
    _require(r["seed"] == seed, f"report seed {r['seed']} is not {seed}")
    _require(r["n"] == int(option(command, "n")), "report n differs from --n")
    _require(r["eps"] == float(option(command, "eps")), "report eps differs from --eps")
    _require(0 < r["a_n"] <= r["b_n"] < math.inf, "sampling constants out of order")
    _require(abs(r["condition"] - r["b_n"] / r["a_n"]) <= 1e-12 * r["condition"], "condition != b/a")
    _require(r["all_omega_positive"] == (r["min_omega"] > 0), "omega sign flag inconsistent")
    _require(r["support_ok"] is True, "perturbed nodes outside the MRS support bound")


def check_values(command: str, values: dict, seed: int) -> None:
    """Raise ``Wrong`` when the oracles reject a completed command."""
    sub = command.split()[0]
    if sub == "coeffs":
        return check_coeffs(command, values)
    if sub == "nodes":
        return check_nodes(command, values)
    if sub == "wce":
        return check_table(command, values)
    if sub == "perturb":
        return check_perturb(command, values, seed)
    raise ValueError(f"no oracle for {command!r}")


# --------------------------------------------------------------- outcomes


def _figure_outcomes(op: dict, values: dict, ref: dict | None) -> list[tuple[str, str, str]]:
    """Rows are checked one by one; a slope outside its window fails them all."""
    lo, hi = SLOPE_WINDOWS[op["id"]]
    slope = values["slope"]
    shared = None if lo <= slope <= hi else f"slope {slope:.4f} outside [{lo}, {hi}]"
    got = dict(zip(values["ns"], values["wce"]))
    ref_rows = dict(zip(ref["ns"], ref["wce"])) if ref else {}
    out = []
    for n in op["n_values"]:
        row = f"{op['id']}#n={n}"
        if str(n) in op["failures"]:
            out.append((row, "failed", op["failures"][str(n)]))
        elif shared:
            out.append((row, "wrong", shared))
        elif not (math.isfinite(got[n]) and got[n] >= 0):
            out.append((row, "wrong", f"wce {got[n]!r} is not finite and nonnegative"))
        elif n in ref_rows and not values_close(got[n], ref_rows[n]):
            out.append((row, "wrong", f"wce {got[n]!r} differs from the reference {ref_rows[n]!r}"))
        else:
            out.append((row, "ok", ""))
    return out


def op_outcomes(op: dict, seed: int, reference: dict | None) -> list[tuple[str, str, str]]:
    """(row id, "ok" | "wrong" | "failed", reason) for every row of an op.

    A figure op has one row per n, a command op one row.  ``reference``
    maps op ids to the values recorded at the seed commit; it is given only
    for the default seed and holds only outputs that passed the oracles there.
    """
    rows = [f"{op['id']}#n={n}" for n in op["n_values"]] if op["kind"] == "figure" else [op["id"]]
    try:
        values = parse(op)
    except (ValueError, KeyError, IndexError) as exc:
        return [(r, "wrong", f"unparseable output: {exc}") for r in rows]
    if values is None:
        reason = op.get("error") or (op["stderr"].strip().splitlines() or [f"exit {op['rc']}"])[-1]
        return [(r, "failed", reason) for r in rows]
    ref = (reference or {}).get(op["id"])
    if op["kind"] == "figure":
        return _figure_outcomes(op, values, ref)
    try:
        check_values(op["id"], values, seed)
        if ref is not None:
            _require(values_close(values, ref), "differs from the reference output")
    except Wrong as exc:
        return [(op["id"], "wrong", str(exc))]
    return [(op["id"], "ok", "")]
