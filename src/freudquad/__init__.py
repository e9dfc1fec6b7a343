"""Quadrature for Freud weights exp(-pi |x|^alpha).

Gauss rules from the weighted orthonormal basis, generalized rules from
sampling (frame) systems on perturbed nodes, and exact worst-case
integration errors over polynomially and exponentially weighted
coefficient spaces, including the modulation-space families attached to
the squared-exponential weight.
"""

from .errors import (
    CapacityError,
    ConvergenceError,
    EvaluationFailure,
    FreudQuadError,
    GapViolationError,
    GridInsufficientError,
    NotAFrameError,
    UnboundedTailError,
)
from .experiments import FIGURE_IDS, FigureSpec, figure_spec, run_figure
from .gaussquad import QuadratureRule, gauss_rule, integrate
from .kernels import mehler, sup_envelope_constant, tail_index
from .mzframe import (
    MZSystem,
    build_system,
    generalized_weights,
    perturb_nodes,
    phi_lambda,
    support_check,
)
from .orthopoly import (
    FreudBasis,
    basis_matrix,
    build_basis,
    eval_basis,
    mrs_number,
    weight_value,
)
from .spaces import (
    HermiteExpansion,
    SpaceWeight,
    coeff_norm_sq,
    lambda_of,
    modulation_norm_sq,
    radial_moment,
    stft_grid_norm_sq,
)
from .wce import WCETable, slope_fit, tensor_wce, wce_bound, wce_me2, wce_series

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis
    "FreudBasis", "weight_value", "mrs_number",
    "build_basis", "eval_basis", "basis_matrix",
    # rules
    "QuadratureRule", "gauss_rule", "integrate",
    # kernels
    "mehler", "tail_index", "sup_envelope_constant",
    # spaces
    "SpaceWeight", "HermiteExpansion", "lambda_of",
    "coeff_norm_sq", "radial_moment", "modulation_norm_sq",
    "stft_grid_norm_sq",
    # sampling systems
    "MZSystem", "build_system", "generalized_weights", "perturb_nodes",
    "support_check", "phi_lambda",
    # worst-case errors
    "WCETable", "wce_me2", "wce_series", "wce_bound", "tensor_wce",
    "slope_fit",
    # experiments
    "FigureSpec", "figure_spec", "run_figure", "FIGURE_IDS",
    # errors
    "FreudQuadError", "ConvergenceError", "CapacityError",
    "UnboundedTailError", "NotAFrameError", "GapViolationError",
    "GridInsufficientError", "EvaluationFailure",
]
