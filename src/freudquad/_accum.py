"""Deterministic compensated reduction.

Quadrature sums here routinely cancel down to ~1e-15 of their term
magnitudes, so plain left-to-right accumulation is not good enough;
``math.fsum`` gives the exactly rounded sum.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["comp_sum"]


def comp_sum(values) -> float:
    """Exactly rounded sum of a 1-D array of float64 values."""
    return math.fsum(np.asarray(values, dtype=float))

