"""Weighted time-frequency norms computed two ways.

For the squared-exponential weight the transform with a Gaussian window
maps the basis to normalized monomials, so any rotation-invariant weight
gives a diagonal norm: a sum of squared coefficients times 1-D radial
moments.  A plain 2-D grid integration of the defining integral serves
as the independent check, and the geometric family even has the exact
value (pi/(pi-s))^(k+1).
"""

import math

import numpy as np

from freudquad import (
    HermiteExpansion,
    SpaceWeight,
    coeff_norm_sq,
    lambda_of,
    modulation_norm_sq,
    radial_moment,
    stft_grid_norm_sq,
)

geometric = SpaceWeight.mod_exp2(math.pi / 5)   # so pi/(pi - s) = 5/4
print("exact geometric values for basis elements:")
for k in (0, 1, 4, 9):
    f = HermiteExpansion.unit(k)
    diag = modulation_norm_sq(geometric, f)
    grid = stft_grid_norm_sq(geometric, f)
    print(f"  k={k}: diagonal {diag:.12f}  grid {grid:.12f}  exact {(1.25)**(k+1):.12f}")

print("polynomial window, random 8-term expansion:")
rng = np.random.default_rng(0)
c = rng.normal(size=8)
c /= math.sqrt(float(np.sum(c * c)))
f = HermiteExpansion(c)
diag = modulation_norm_sq(SpaceWeight.mod_poly(1.0), f)
grid = stft_grid_norm_sq(SpaceWeight.mod_poly(1.0), f)
print(f"  diagonal {diag:.10f}  grid {grid:.10f}  rel gap {abs(diag-grid)/diag:.2e}")

print("radial moments vs the plain coefficient weight (1+k)^s, s=2:")
for k in (0, 10, 50, 200):
    mu = radial_moment(SpaceWeight.mod_poly(2.0), k)
    print(f"  k={k}: moment/(1+k)^2 = {mu / (1+k)**2:.4f}")

print("coefficient-space norms:")
space = SpaceWeight.polynomial(2.0)
print("  ||h_3||^2 with (1+k)^2 weights:", coeff_norm_sq(space, HermiteExpansion.unit(3)))
print("  lambda_5 of the sqrt-exponential family s=1:",
      lambda_of(SpaceWeight.mod_exp(1.0), 5))
