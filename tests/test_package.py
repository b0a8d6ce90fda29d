"""The package's public names: one export list per module, re-exported."""

import importlib
from pathlib import Path

import sparsereg

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "KERNEL_BACKEND", "__version__",
    # penalty
    "PenaltySpec", "BregmanReport", "penalty_value", "penalty_subgradient",
    "subgradient_interval", "bregman_distance", "scalar_bregman_constant", "prox",
    # operators
    "ForwardOperator", "make_dense_linear", "make_diagonal_linear",
    "make_convolution_linear", "make_toy_nonlinear", "operator_norm_sq", "load_matrix_csv",
    # solver
    "SolveReport", "solve",
    # analysis
    "SourceCertificate", "InjectivityReport", "RateConstants", "ValidationReport",
    "derivative_matrix", "check_source_condition", "check_support_injectivity",
    "check_sparse_rate_conditions", "estimate_rate_constants", "validate_rate_inequality",
    "theoretical_bound",
    # experiments
    "PROBLEM_KINDS", "CSV_HEADER", "ProblemInstance", "SweepRow", "RateEstimate",
    "SweepResult", "RecoveryReport", "generate_problem", "generate_source_problem",
    "add_noise", "alpha_rule", "fit_rate", "solve_instance", "run_sweep",
    "exact_recovery_test", "write_sweep_csv", "write_rate_json",
    # config
    "ExperimentConfig", "ConfigError", "parse_config", "serialize_config", "load_config",
}

MODULES = ("penalty", "operators", "solver", "analysis", "experiments", "config")


def test_public_names_are_pinned_and_resolve():
    assert len(sparsereg.__all__) == len(set(sparsereg.__all__))
    assert set(sparsereg.__all__) == PUBLIC
    for name in sparsereg.__all__:
        assert hasattr(sparsereg, name), name
    # each module's list is the package's, and names what the module defines
    exported = set()
    for module_name in MODULES:
        module = importlib.import_module(f"sparsereg.{module_name}")
        for name in module.__all__:
            assert getattr(sparsereg, name) is getattr(module, name), name
        exported.update(module.__all__)
    assert exported == PUBLIC - {"KERNEL_BACKEND", "__version__"}


def test_readme_quick_start_runs():
    # the README's first python block runs as printed, and its sweep fits
    # the slope 1 that it claims for the q = 1 instance
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert 0.85 <= scope["result"].rate.slope <= 1.15
