"""Tikhonov regularization with weighted lq penalties (1 <= q <= 2).

Solvers for linear and mildly nonlinear operator equations with
coefficientwise penalties, certificates for the assumptions behind
quadratic-growth and sparse convergence-rate theory, and noise-sweep
experiments that measure the predicted rates empirically.
"""

from .analysis import (
    InjectivityReport,
    RateConstants,
    SourceCertificate,
    ValidationReport,
    check_source_condition,
    check_sparse_rate_conditions,
    check_support_injectivity,
    derivative_matrix,
    estimate_rate_constants,
    theoretical_bound,
    validate_rate_inequality,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .experiments import (
    CSV_HEADER,
    PROBLEM_KINDS,
    ProblemInstance,
    RateEstimate,
    RecoveryReport,
    SweepResult,
    SweepRow,
    add_noise,
    alpha_rule,
    exact_recovery_test,
    fit_rate,
    generate_problem,
    generate_source_problem,
    run_sweep,
    solve_instance,
    write_rate_json,
    write_sweep_csv,
)
from .operators import (
    ForwardOperator,
    load_matrix_csv,
    make_convolution_linear,
    make_dense_linear,
    make_diagonal_linear,
    make_toy_nonlinear,
    operator_norm_sq,
)
from .penalty import (
    BregmanReport,
    PenaltySpec,
    bregman_distance,
    penalty_subgradient,
    penalty_value,
    prox,
    scalar_bregman_constant,
    subgradient_interval,
)
from .solver import (
    SolveReport,
    SolverConfig,
    solve_linear_p1,
    solve_linear_p2,
    solve_nonlinear,
)

__version__ = "0.1.0"

# kept constant: perfbench/child.py records it, and perfbench/run.py --compare
# reports every metric as unresolved when it changes
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # penalty
    "PenaltySpec",
    "BregmanReport",
    "penalty_value",
    "penalty_subgradient",
    "subgradient_interval",
    "bregman_distance",
    "scalar_bregman_constant",
    "prox",
    # operators
    "ForwardOperator",
    "make_dense_linear",
    "make_diagonal_linear",
    "make_convolution_linear",
    "make_toy_nonlinear",
    "operator_norm_sq",
    "load_matrix_csv",
    # solver
    "SolverConfig",
    "SolveReport",
    "solve_linear_p2",
    "solve_linear_p1",
    "solve_nonlinear",
    # analysis
    "SourceCertificate",
    "InjectivityReport",
    "RateConstants",
    "ValidationReport",
    "derivative_matrix",
    "check_source_condition",
    "check_support_injectivity",
    "check_sparse_rate_conditions",
    "estimate_rate_constants",
    "validate_rate_inequality",
    "theoretical_bound",
    # experiments
    "PROBLEM_KINDS",
    "CSV_HEADER",
    "ProblemInstance",
    "SweepRow",
    "RateEstimate",
    "SweepResult",
    "RecoveryReport",
    "generate_problem",
    "generate_source_problem",
    "add_noise",
    "alpha_rule",
    "fit_rate",
    "solve_instance",
    "run_sweep",
    "exact_recovery_test",
    "write_sweep_csv",
    "write_rate_json",
    # config
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "load_config",
]
