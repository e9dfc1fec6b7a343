"""Exception types raised by the numerical routines.

Plain ``ValueError`` is used for bad parameters; the classes below mark
failures of the computation itself, so callers can distinguish "you asked
for something invalid" from "the requested computation did not succeed".
"""

from __future__ import annotations

__all__ = [
    "FreudQuadError",
    "ConvergenceError",
    "CapacityError",
    "UnboundedTailError",
    "NotAFrameError",
    "GapViolationError",
    "GridInsufficientError",
    "EvaluationFailure",
]


class FreudQuadError(Exception):
    """Base class for numerical failures in this package."""


class ConvergenceError(FreudQuadError):
    """An iterative procedure (eigensolver, Stieltjes, quadrature) did not
    stabilize to the requested tolerance."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class CapacityError(FreudQuadError):
    """A computation needs basis functions beyond ``n_max``.

    ``required`` carries the index that would have been needed.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class UnboundedTailError(FreudQuadError):
    """The coefficient weights grow too slowly for the tail bound to reach
    the requested tolerance below the hard cap."""


class NotAFrameError(FreudQuadError):
    """The discrete system is numerically rank deficient on the polynomial
    subspace; ``null_vector`` is the offending coefficient direction."""

    def __init__(self, message: str, null_vector=None):
        super().__init__(message)
        self.null_vector = null_vector


class GapViolationError(FreudQuadError):
    """A node perturbation makes adjacent nodes cross or coincide."""


class GridInsufficientError(FreudQuadError):
    """A grid-based integral carries non-negligible mass on its boundary."""


class EvaluationFailure(FreudQuadError):
    """A user-supplied evaluator raised at some node; ``index`` says where."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index
