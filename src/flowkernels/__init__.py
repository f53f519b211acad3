"""flowkernels: mesh-free kernel methods for spectral analysis of flows.

The package approximates principal spectral observables of nonlinear
ODE systems three ways -- variational collocation in an RKHS, symmetrized
Green's-function kernels for transport operators, and path-integral
(characteristic) coordinates -- and cross-checks that the constructions
agree where theory says they must.
"""

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    FlowEscapeError,
    FlowKernelsError,
    NumericalError,
    UnknownEigenvalueError,
    UnsupportedSpectrumError,
)
from .dynamics import (
    IntegratorConfig,
    LinearizationInfo,
    SystemDef,
    builtin_system_names,
    flow,
    linearize,
    make_system,
)
from .kernels import Kernel, KernelMixture, kernel_family_names, make_kernel
from .grids import tensor_grid
from .collocation import (
    CollocationProblem,
    PenaltyConfig,
    Solution,
    evaluate,
    residual_field,
    solve,
)
from .mkl import MKLConfig, MKLResult, mkl_solve, refit_pruned, sparsify
from .path_integral import XiEvaluator, residual_values, xi_values
from .spectral import (
    MercerDecomposition,
    koopman_mode_check,
    mercer_decompose,
    trajectory_eigenrelation_check,
)
from .advection import AdvectionProblem, QuadratureRule, unification_check
from .config import ExperimentConfig, preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "AdvectionProblem",
    "CollocationProblem",
    "ConfigurationError",
    "DimensionMismatchError",
    "ExperimentConfig",
    "FlowEscapeError",
    "FlowKernelsError",
    "IntegratorConfig",
    "Kernel",
    "KernelMixture",
    "LinearizationInfo",
    "MKLConfig",
    "MKLResult",
    "MercerDecomposition",
    "NumericalError",
    "PenaltyConfig",
    "QuadratureRule",
    "Solution",
    "SystemDef",
    "UnknownEigenvalueError",
    "UnsupportedSpectrumError",
    "XiEvaluator",
    "builtin_system_names",
    "evaluate",
    "flow",
    "kernel_family_names",
    "koopman_mode_check",
    "linearize",
    "make_kernel",
    "make_system",
    "mercer_decompose",
    "mkl_solve",
    "preset",
    "preset_names",
    "refit_pruned",
    "residual_field",
    "residual_values",
    "solve",
    "sparsify",
    "tensor_grid",
    "trajectory_eigenrelation_check",
    "unification_check",
    "xi_values",
    "__version__",
]
