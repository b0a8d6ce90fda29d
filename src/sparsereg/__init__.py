"""Tikhonov regularization with weighted lq penalties (1 <= q <= 2).

Solvers for linear and mildly nonlinear operator equations with
coefficientwise penalties, certificates for the assumptions behind
quadratic-growth and sparse convergence-rate theory, and noise-sweep
experiments that measure the predicted rates empirically.
"""

from . import analysis, config, experiments, operators, penalty, solver
from .analysis import *  # noqa: F403
from .config import *  # noqa: F403
from .experiments import *  # noqa: F403
from .operators import *  # noqa: F403
from .penalty import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

# kept constant: perfbench/child.py records it, and perfbench/run.py --compare
# reports every metric as unresolved when it changes
KERNEL_BACKEND = "python"

# each module's own __all__ is its one export list
__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    *penalty.__all__,
    *operators.__all__,
    *solver.__all__,
    *analysis.__all__,
    *experiments.__all__,
    *config.__all__,
]
