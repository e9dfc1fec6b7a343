"""Worst-case integration errors of Gauss rules over the weighted spaces.

Two evaluation routes are compared and the decay against n is fitted.
For geometric coefficient decay t^{-(k+1)} there is a closed-form kernel,
so the squared worst-case error is a finite double sum; for the
sqrt-exponential weights the error is a rapidly converging series.
"""

import numpy as np

from freudquad import (
    SpaceWeight,
    build_basis,
    gauss_rule,
    run_figure,
    slope_fit,
    wce_me2,
    wce_series,
)

basis = build_basis(2.0, 2000)

# --- cross-check the two routes at one rule ---------------------------------
t = 1.25
rule = gauss_rule(basis, 9)
space = SpaceWeight.geometric(t)
v_kernel = wce_me2(rule.nodes, rule.omega, t)
v_series = wce_series(rule.nodes, rule.omega, basis, space, start=18)
print("kernel route :", v_kernel)
print("series route :", v_series)
print("relative gap :", abs(v_kernel - v_series) / v_series)

# --- decay against n for the geometric family -------------------------------
ns = list(range(3, 42, 2))
values = []
for n in ns:
    r = gauss_rule(basis, n)
    values.append(wce_me2(r.nodes, r.omega, t))
slope, _ = slope_fit(ns, np.log10(values))
print(f"geometric t=5/4: fitted slope {slope:.3f}, "
      f"guaranteed ceiling {-2*np.log10(t):.3f}")

# --- the documented experiments in one call ---------------------------------
for fid in ("fig1a", "fig1b", "fig2a", "fig2b"):
    table = run_figure(fid)
    print(f"{fid}: slope {table.slope:+.4f}  theory {table.theory_slope:+.4f}  "
          f"axis {table.axis}")
