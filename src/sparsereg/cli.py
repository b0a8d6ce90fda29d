"""Command-line front end: single solves, noise sweeps, condition checks.

Every command builds the instance as configured.  `check` and `sweep`
call the one hypothesis stage, analysis.check_sparse_rate_conditions:
`check` writes its verdict to check.json, and a sweep's rate.json
records the same "checks" and its bounds use the same validated rate
constants.  A sweep whose hypotheses fail still runs and writes its
artifacts, with NaN bounds, before it exits 3.  `solve` checks no
hypotheses.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
non-convergence or insufficient data for the rate fit, 3 condition-check
failure.  All artifacts are written atomically (temp file then rename).
"""

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from .analysis import check_sparse_rate_conditions
from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    add_noise,
    alpha_rule,
    generate_problem,
    run_sweep,
    solve_instance,
    write_rate_json,
    write_sweep_csv,
)
from .fileio import atomic_write_json, atomic_write_text
from .svgplot import render_rate_plot

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CONDITIONS = 3


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: must be a nonnegative integer, got {args.seed}")
        cfg.seed = args.seed
    if args.out is not None:
        if not args.out:
            raise ConfigError("--out: must name a directory, got ''")
        cfg.out_dir = args.out
    return cfg


def _build_instance(cfg: ExperimentConfig):
    """The configured instance; a config the instance rejects is a
    configuration error.  The config sets weights only under explicit."""
    try:
        return generate_problem(
            cfg.kind,
            cfg.n,
            m=cfg.m,
            sparsity=cfg.sparsity,
            q=cfg.q,
            p=cfg.p,
            seed=cfg.seed,
            weight=cfg.weight,
            decay=cfg.decay,
            kernel_width=cfg.kernel_width,
            eps=cfg.eps,
            matrix_path=cfg.matrix_path,
            positions=cfg.positions,
            weights=cfg.weights,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _make_out_dir(cfg: ExperimentConfig) -> None:
    """Make the output directory.  Each command calls this once, after its
    last config check and before its first solve, so that a bad config
    leaves no directory behind and a directory that cannot be made fails
    the run before the solves."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc.strerror}") from exc


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _solve_alpha(cfg: ExperimentConfig, delta: float) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    if delta > 0.0:
        return alpha_rule(delta, cfg.p, cfg.c_alpha)
    if cfg.p == 1:
        # the p = 1 rule is constant in the noise level
        return cfg.c_alpha
    raise ConfigError("solver.alpha: required for a noise-free solve with p = 2")


def cmd_solve(args) -> int:
    cfg = _load(args)
    delta = args.delta if args.delta is not None else 0.0
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ConfigError(f"--delta: must be finite and nonnegative, got {delta}")
    alpha = _solve_alpha(cfg, delta)
    instance = _build_instance(cfg)
    _make_out_dir(cfg)
    noisy = add_noise(instance.clean_data, delta, cfg.seed)
    report = solve_instance(
        instance, noisy, alpha, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter
    )

    lines = ["index,reference,recovered"]
    for i, (ref, rec) in enumerate(zip(instance.u_dagger, report.minimizer)):
        lines.append(f"{i},{repr(float(ref))},{repr(float(rec))}")
    atomic_write_text(_out_path(cfg, "solution.csv"), "\n".join(lines) + "\n")

    error_norm = float(np.linalg.norm(report.minimizer - instance.u_dagger))
    atomic_write_json(
        _out_path(cfg, "report.json"),
        {
            "delta": delta,
            "alpha": alpha,
            "seed": cfg.seed,
            "objective": report.objective,
            "residual_norm": report.residual_norm,
            "penalty_value": report.penalty_value,
            "iterations": report.iterations,
            "converged": report.converged,
            "error_norm": error_norm,
        },
    )
    if not report.converged:
        print(
            f"solver stopped after {report.iterations} iterations without "
            f"meeting the tolerance",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    print(
        f"solved: error {error_norm:.6e}, residual {report.residual_norm:.6e}, "
        f"{report.iterations} iterations"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    instance = _build_instance(cfg)

    # without validated constants the sweep still runs, and its rows carry
    # NaN bounds
    hypotheses, constants = check_sparse_rate_conditions(
        instance.operator, instance.u_dagger, instance.spec, instance.certificate
    )
    if instance.p == 1 and constants is not None and cfg.c_alpha * constants.residual_coeff >= 1.0:
        raise ConfigError(
            f"sweep.c_alpha: p = 1 bounds need c_alpha * residual_coeff < 1, got "
            f"{cfg.c_alpha * constants.residual_coeff:.6g}"
        )
    _make_out_dir(cfg)

    deltas = np.logspace(
        np.log10(cfg.delta_max), np.log10(cfg.delta_min), cfg.delta_count
    )
    try:
        result = run_sweep(
            instance,
            deltas,
            c_alpha=cfg.c_alpha,
            trials_per_delta=cfg.trials,
            seed=cfg.seed,
            constants=constants,
            solver_tol=cfg.solver_tol,
            solver_max_iter=cfg.solver_max_iter,
        )
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    write_sweep_csv(result, _out_path(cfg, "sweep.csv"))
    write_rate_json(result, _out_path(cfg, "rate.json"), conditions=hypotheses["checks"])

    by_delta: dict = {}
    for row in result.rows:
        by_delta.setdefault(row.delta, []).append(row.error_norm)
    levels = sorted(by_delta, reverse=True)
    means = [float(np.mean(by_delta[d])) for d in levels]
    svg = render_rate_plot(
        levels,
        means,
        result.rate.slope,
        result.rate.intercept,
        reference_slope=1.0 / cfg.q,
        title=f"{cfg.kind} n={cfg.n} q={cfg.q} p={cfg.p}",
    )
    atomic_write_text(_out_path(cfg, "rate.svg"), svg)
    for delta, reason in result.left_out:
        print(f"noise level {delta:.6g} left out of the rate fit: {reason}", file=sys.stderr)
    print(
        f"sweep done: slope {result.rate.slope:.4f}, r^2 {result.rate.r_squared:.4f}, "
        f"{len(result.rows)} rows"
    )
    if not hypotheses["passed"]:
        print("condition check failed; rate.json records the conditions", file=sys.stderr)
        return EXIT_CONDITIONS
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _load(args)
    instance = _build_instance(cfg)
    _make_out_dir(cfg)

    payload, _ = check_sparse_rate_conditions(
        instance.operator, instance.u_dagger, instance.spec, instance.certificate
    )
    atomic_write_json(_out_path(cfg, "check.json"), payload)

    checks, constants = payload["checks"], payload["constants"]
    for name, entry in checks.items():
        if isinstance(entry, dict):  # one entry per checked stage
            print(f"{name}: {'pass' if entry['passed'] else 'FAIL'}")
    print(f"sparse reference: {'pass' if checks['sparse'] else 'FAIL'}")
    if constants.get("applicable", True):
        print(f"rate constants: {'pass' if constants['passed'] else 'FAIL'}")
    else:
        print("rate constants: not applicable (nonlinear operator)")
    print(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
    return EXIT_OK if payload["passed"] else EXIT_CONDITIONS


class _ArgumentParser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1, not argparse's 2 (numerical failure)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--out", help="output directory (overrides the config)")
    common.add_argument("--seed", type=int, help="seed override")

    parser = _ArgumentParser(
        prog="sparsereg",
        description=(
            "Weighted lq-penalized regularization: solve single problems, run "
            "noise sweeps with rate fits, and check the rate-theory hypotheses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser(
        "solve", parents=[common], help="one solve at a fixed noise level"
    )
    p_solve.add_argument(
        "--delta", type=float, help="noise level (default 0: noise-free)"
    )
    p_solve.set_defaults(func=cmd_solve)
    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="noise sweep with a log-log rate fit"
    )
    p_sweep.set_defaults(func=cmd_sweep)
    p_check = sub.add_parser(
        "check", parents=[common], help="source-condition and injectivity checks"
    )
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
