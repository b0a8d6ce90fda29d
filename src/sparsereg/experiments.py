"""Benchmark problems, noise sweeps, and empirical convergence rates.

A problem instance couples a forward operator with an exactly known
reference solution.  Sweeps rerun the solver over a decreasing noise grid
with the regularization weight tied to the noise level, then fit the
log-log slope of error against noise, which is the quantity the rate
theory predicts.
"""

from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    RateConstants,
    SourceCertificate,
    _check_p1_coupling,
    check_source_condition,
    theoretical_bound,
)
from .fileio import atomic_write_json, atomic_write_text
from .operators import (
    ForwardOperator,
    load_matrix_csv,
    make_convolution_linear,
    make_dense_linear,
    make_diagonal_linear,
    make_toy_nonlinear,
)
from .penalty import PenaltySpec, penalty_subgradient
from .solver import _check_p, solve

__all__ = [
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
]

PROBLEM_KINDS = ("diagonal", "convolution", "random-dense", "toy-nonlinear", "csv")
# kinds whose operator is n-by-n by construction, so m can only equal n
SQUARE_KINDS = ("diagonal", "convolution")
# fit_rate needs this many usable noise levels for a meaningful slope
MIN_RATE_LEVELS = 4


@dataclass
class ProblemInstance:
    """Forward operator with an exactly known reference solution.

    p is the data exponent of the functional, checked here where the
    instance is built: 1 or 2, and 1 only for a linear operator.
    """

    operator: ForwardOperator
    u_dagger: np.ndarray
    clean_data: np.ndarray
    spec: PenaltySpec
    p: int

    def __post_init__(self):
        _check_p(self.p, self.operator.is_linear)

    @cached_property
    def certificate(self) -> Optional[SourceCertificate]:
        """The source certificate of the reference, or None when the
        source condition fails; computed on first read."""
        return check_source_condition(self.operator, self.u_dagger, self.spec)


@dataclass(frozen=True)
class SweepRow:
    delta: float
    alpha: float
    trial: int
    error_norm: float
    residual_norm: float
    err_bound: float
    residual_bound: float
    iterations: int
    converged: bool


# sweep.csv has one column per SweepRow field, in field order
CSV_HEADER = ",".join(column.name for column in fields(SweepRow))


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares slope of log(error) against log(noise level)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass
class SweepResult:
    """The rows of a sweep and its rate fit.

    `levels` holds one (delta, mean_error, reason) triple per noise level,
    in sweep order: the mean error norm of the level's cells, and why the
    fit left the level out, or None for a level in the fit.  `left_out`
    lists the (delta, reason) pairs of the left-out levels.
    """

    rows: list
    rate: RateEstimate
    constants: Optional[RateConstants] = None
    levels: list = field(default_factory=list)

    @property
    def left_out(self) -> list:
        return [(delta, reason) for delta, _, reason in self.levels if reason is not None]


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of the noise-free recovery check for the p = 1 functional."""

    status: str  # "pass", "fail", or "inapplicable"
    error: float
    threshold: float


class _ArgumentError(ValueError):
    """ValueError of a rule on the generate_problem argument `name`; the
    config and the CLI report it under the config field of that name."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _named(name: str, check, *args):
    """check(*args), with a ValueError it raises blamed on argument `name`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _ArgumentError(name, str(exc)) from exc


def _check_positions(positions, n: int, sparsity: int) -> None:
    """ValueError unless positions lists exactly sparsity distinct integer
    indices in [0, n)."""
    positions = np.asarray(positions)
    if positions.ndim != 1 or positions.size != sparsity:
        raise ValueError(
            f"positions must list exactly sparsity={sparsity} indices, got {positions.tolist()}"
        )
    # an empty list has a float dtype and stays valid; a boolean mask or
    # a float index is not cast to an index
    if positions.size and positions.dtype.kind not in "iu":
        raise ValueError(f"positions must be integer indices, got {positions.tolist()}")
    # a set, not np.unique: np.unique imports numpy.ma on every run
    if len(set(positions.tolist())) != positions.size:
        raise ValueError("positions must not repeat")
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise ValueError(f"positions must lie in [0, n={n})")


def _kernel_radius(kernel_width: float) -> float:
    # a width near the float maximum gives an inf radius, not an overflow
    return np.ceil(3.0 * float(kernel_width))


def _check_problem(
    kind, n, m, sparsity, q, p, weight, weights, decay, kernel_width, matrix_path, positions
) -> None:
    """Every rule on generate_problem's arguments that needs no file read
    and no n-sized array, so that a config is checked before anything is
    built; raises _ArgumentError naming the argument at fault."""

    def fail(name: str, message: str):
        raise _ArgumentError(name, message)

    if kind not in PROBLEM_KINDS:
        fail("kind", f"kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    if not n >= 1:
        fail("n", f"n must be a positive integer, got {n}")
    if m is not None and not m >= 1:
        fail("m", f"m must be a positive integer, got {m}")
    if m is not None and kind in SQUARE_KINDS and m != n:
        fail("m", f"kind {kind!r} is square, so m must equal n={n}, got {m}")
    if not 0 <= sparsity <= n:
        fail("sparsity", f"sparsity must lie in [0, n={n}], got {sparsity}")
    # the penalty's own rules, q first on a one-weight spec, so that a spec
    # that fails after it fails on its weights
    _named("q", PenaltySpec, q, (1.0,))
    if weights is None:
        _named("weight", PenaltySpec, q, (weight,))
    elif _named("weights", PenaltySpec, q, weights).n != n:
        fail("weights", f"weights must have length n={n}, got {len(weights)}")
    _named("p", _check_p, p, kind != "toy-nonlinear")
    if not decay > 0.0:
        fail("decay", f"decay must be positive, got {decay}")
    # the diagonal kind's smallest singular value, n^-decay, as a scalar
    if kind == "diagonal" and float(n) ** -float(decay) == 0.0:
        fail("decay", f"decay {decay} underflows the singular value n^-decay to 0 at n={n}")
    if not 0.0 < kernel_width < np.inf:
        fail("kernel_width", f"kernel_width must be positive and finite, got {kernel_width}")
    taps = 2.0 * _kernel_radius(kernel_width) + 1.0
    if kind == "convolution" and taps > n:
        fail("kernel_width", f"kernel width {kernel_width} needs {taps:.15g} taps, more than n={n}")
    if kind == "csv" and not matrix_path:
        fail("matrix_path", "kind 'csv' requires matrix_path")
    if positions is not None:
        _named("positions", _check_positions, positions, n, sparsity)


def _draw_reference(rng, n: int, sparsity: int, positions=None) -> np.ndarray:
    u = np.zeros(n)
    if sparsity > 0:
        if positions is None:
            positions = rng.choice(n, size=sparsity, replace=False)
        positions = np.asarray(positions)
        magnitudes = rng.uniform(0.5, 1.5, size=sparsity)
        signs = np.where(rng.random(sparsity) < 0.5, -1.0, 1.0)
        u[positions] = signs * magnitudes
    return u


def _build_operator(kind, n, m, rng, decay, kernel_width, eps, matrix_path):
    # m is None when the caller left it unset: the csv matrix then sets it,
    # and the other kinds take m = n
    if kind == "csv":
        try:
            matrix = load_matrix_csv(matrix_path)
        except (OSError, ValueError) as exc:
            raise _ArgumentError("matrix_path", str(exc)) from exc
        rows, cols = matrix.shape
        if cols != n:
            raise _ArgumentError("n", f"matrix file {matrix_path} has {cols} columns, but n={n}")
        if m is not None and rows != m:
            raise _ArgumentError("m", f"matrix file {matrix_path} has {rows} rows, but m={m}")
        return make_dense_linear(matrix)
    m = n if m is None else m
    if kind == "diagonal":
        return make_diagonal_linear((np.arange(n) + 1.0) ** (-decay))
    if kind == "convolution":
        radius = _kernel_radius(kernel_width)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (offsets / kernel_width) ** 2)
        kernel /= kernel.sum()
        return make_convolution_linear(kernel, n)
    if kind == "random-dense":
        return make_dense_linear(rng.standard_normal((m, n)) / np.sqrt(m))
    # toy-nonlinear, the one kind left after _check_problem
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    b = rng.standard_normal((m, n)) / np.sqrt(m)
    return make_toy_nonlinear(a, b, eps)


def generate_problem(
    kind: str,
    n: int,
    m: Optional[int] = None,
    sparsity: int = 3,
    q: float = 1.0,
    p: int = 2,
    seed: int = 0,
    weight: float = 1.0,
    decay: float = 1.0,
    kernel_width: float = 3.0,
    eps: float = 1e-3,
    matrix_path=None,
    positions=None,
    weights=None,
) -> ProblemInstance:
    """Build a problem instance with a seeded sparse reference solution.

    Reference coefficients have magnitudes in [0.5, 1.5] with random signs
    at positions drawn without replacement, or at explicitly given
    positions (len == sparsity) when reproducible placement matters:
    where the support sits relative to the operator's spectrum decides
    which noise levels keep it above the shrinkage threshold, so rate
    studies need it pinned.  The instance is one draw from the stream
    np.random.default_rng([seed, 0]), built as configured whether or not
    the rate hypotheses hold; the rules on the arguments are checked
    before anything is built, and its source certificate is computed on
    first read.
    """
    _check_problem(
        kind, n, m, sparsity, q, p, weight, weights, decay, kernel_width, matrix_path, positions
    )
    spec = PenaltySpec.uniform(q, weight, n) if weights is None else PenaltySpec(q, weights)
    rng = np.random.default_rng([seed, 0])
    op = _build_operator(kind, n, m, rng, decay, kernel_width, eps, matrix_path)
    u = _draw_reference(rng, op.n, sparsity, positions)
    return ProblemInstance(operator=op, u_dagger=u, clean_data=op.apply(u), spec=spec, p=p)


def generate_source_problem(
    n: int = 64,
    q: float = 1.5,
    p: int = 2,
    seed: int = 0,
    weight: float = 1.0,
    decay: float = 1.0,
    source_decay: float = 2.0,
) -> ProblemInstance:
    """Non-sparse instance built to satisfy the source condition exactly.

    Starts from a decaying dual vector with seeded random signs, pushes it
    through the operator adjoint to get the subgradient, then inverts the
    q > 1 subgradient formula coefficientwise to obtain the reference
    solution.  Every coefficient is nonzero, so this probes the general
    quadratic-growth rate rather than the sparse ones.
    """
    if not 1.0 < q <= 2.0:
        raise ValueError(f"the subgradient inversion needs q > 1, got {q}")
    singular_values = (np.arange(n) + 1.0) ** (-decay)
    op = make_diagonal_linear(singular_values)
    spec = PenaltySpec.uniform(q, weight, n)
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    omega = signs * (np.arange(n) + 1.0) ** (-source_decay)
    xi = singular_values * omega
    u = np.sign(xi) * (np.abs(xi) / (q * spec.weights)) ** (1.0 / (q - 1.0))
    instance = ProblemInstance(operator=op, u_dagger=u, clean_data=op.apply(u), spec=spec, p=p)
    instance.certificate = SourceCertificate(
        subgradient=xi,
        source_element=omega,
        residual=float(np.linalg.norm(penalty_subgradient(u, spec) - xi)),
        source_norm=float(np.linalg.norm(omega)),
    )
    return instance


def add_noise(clean, delta: float, seed) -> np.ndarray:
    """Perturb the data by a seeded Gaussian draw of norm exactly delta."""
    clean = np.asarray(clean, dtype=np.float64)
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    if delta == 0.0:
        return clean.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(clean.size)
    noise *= delta / np.linalg.norm(noise)
    return clean + noise


def alpha_rule(delta: float, p: int, c: float = 1.0) -> float:
    """Regularization weight c * delta^(p-1); constant in delta for p = 1."""
    _check_p(p)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < c < np.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    return c * delta ** (p - 1)


def fit_rate(deltas, errors) -> RateEstimate:
    """Least-squares fit of log(error) against log(delta).

    Needs at least two distinct positive finite deltas and positive finite
    errors; with one distinct delta there is no slope to fit.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if deltas.size != errors.size or deltas.size < 2:
        raise ValueError("rate fit needs matching delta/error sequences of length >= 2")
    for values in (deltas, errors):
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError("rate fit needs positive finite deltas and errors")
    if deltas.min() == deltas.max():
        raise ValueError("rate fit needs at least two distinct deltas")
    x = np.log(deltas)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    total = float(np.sum((y - y.mean()) ** 2))
    leftover = float(np.sum((y - fitted) ** 2))
    r_squared = 1.0 if total == 0.0 else max(0.0, 1.0 - leftover / total)
    return RateEstimate(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        n_points=int(deltas.size),
    )


def solve_instance(
    instance: ProblemInstance,
    data,
    alpha: float,
    tol: float = 1e-10,
    max_iter: int = 50000,
):
    """Solve one regularized problem with the instance's operator, penalty and p."""
    return solve(instance.operator, data, instance.spec, instance.p, alpha, tol, max_iter)


def run_sweep(
    instance: ProblemInstance,
    deltas: Sequence[float],
    c_alpha: float = 1.0,
    trials_per_delta: int = 5,
    seed: int = 0,
    constants: Optional[RateConstants] = None,
    solver_tol: float = 1e-10,
    solver_max_iter: int = 50000,
) -> SweepResult:
    """Noise sweep with the regularization weight tied to the noise level.

    Runs trials_per_delta seeded noise draws per level.  Each cell derives
    its own seed from (seed, level index, trial index), and all cells are
    solved as the rows of one batch, each row bit-identical to solving
    its cell alone; so a row depends on nothing else.  The rate is
    fitted on per-level mean errors, skipping levels where the solver
    stopping threshold is within 1% of the measured error (those
    measurements would reflect the optimizer floor, not the regularization
    error).  Every level is recorded on the result's `levels` with its
    mean error, and a left-out level with its reason: some of its cells
    did not converge ("k of T cells not converged"), its mean error is
    zero ("zero mean error"), or that floor ("solver floor").  Requires at
    least four usable levels; the error raised otherwise lists the
    left-out levels.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 2 or any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be a decreasing positive sequence")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if trials_per_delta < 1:
        raise ValueError("trials_per_delta must be at least 1")
    _check_p1_coupling(instance.p, constants, c_alpha)

    cells = [(level, trial) for level in range(len(deltas)) for trial in range(trials_per_delta)]
    cell_deltas = [deltas[level] for level, _ in cells]
    alphas = [alpha_rule(delta, instance.p, c_alpha) for delta in cell_deltas]
    tols = [min(solver_tol, 1e-4 * delta) for delta in cell_deltas]
    noisy = np.array(
        [
            add_noise(instance.clean_data, deltas[level], np.random.SeedSequence([seed, level, trial]))
            for level, trial in cells
        ]
    )
    reports = solve(instance.operator, noisy, instance.spec, instance.p, alphas, tols,
                    solver_max_iter)

    outcomes = []
    for (level, trial), alpha, tol, report in zip(cells, alphas, tols, reports):
        delta = deltas[level]
        if constants is not None:
            err_bound, residual_bound = theoretical_bound(constants, instance.p, alpha, delta)
        else:
            err_bound = residual_bound = float("nan")
        floor = tol * (1.0 + float(np.linalg.norm(report.minimizer)))
        row = SweepRow(
            delta=delta,
            alpha=alpha,
            trial=trial,
            error_norm=float(np.linalg.norm(report.minimizer - instance.u_dagger)),
            residual_norm=report.residual_norm,
            err_bound=err_bound,
            residual_bound=residual_bound,
            iterations=report.iterations,
            converged=report.converged,
        )
        outcomes.append((row, floor))

    levels = []
    for level, delta in enumerate(deltas):
        group = outcomes[level * trials_per_delta : (level + 1) * trials_per_delta]
        failed = sum(not row.converged for row, _ in group)
        mean_error = float(np.mean([row.error_norm for row, _ in group]))
        worst_floor = max(floor for _, floor in group)
        reason = None
        if failed:
            reason = f"{failed} of {trials_per_delta} cells not converged"
        elif mean_error <= 0.0:
            reason = "zero mean error"
        elif worst_floor > 0.01 * mean_error:
            reason = "solver floor"
        levels.append((delta, mean_error, reason))
    fit = [(delta, mean_error) for delta, mean_error, reason in levels if reason is None]
    if len(fit) < MIN_RATE_LEVELS:
        listed = "; ".join(f"{delta:.6g} ({reason})" for delta, _, reason in levels if reason)
        raise ValueError(
            f"rate fit needs at least {MIN_RATE_LEVELS} usable noise levels, "
            f"got {len(fit)}; left out: {listed}"
        )
    rate = fit_rate([delta for delta, _ in fit], [error for _, error in fit])
    return SweepResult([row for row, _ in outcomes], rate, constants, levels)


def exact_recovery_test(
    instance: ProblemInstance,
    alpha: float,
    solver_max_iter: int = 200000,
    solver_tol: float = 1e-10,
) -> RecoveryReport:
    """Noise-free p = 1 solve; passes when the reference is recovered.

    Inapplicable when alpha reaches the reciprocal of the certificate's
    source norm, the regime where recovery is no longer guaranteed.
    """
    if instance.p != 1:
        raise ValueError("exact recovery applies to p = 1 instances only")
    threshold = 1e-6 * (1.0 + float(np.linalg.norm(instance.u_dagger)))
    if instance.certificate is not None and instance.certificate.source_norm > 0.0:
        if alpha >= 1.0 / instance.certificate.source_norm:
            return RecoveryReport(status="inapplicable", error=float("nan"), threshold=threshold)
    report = solve(instance.operator, instance.clean_data, instance.spec, 1, alpha, solver_tol,
                   solver_max_iter)
    error = float(np.linalg.norm(report.minimizer - instance.u_dagger))
    return RecoveryReport(
        status="pass" if error <= threshold else "fail",
        error=error,
        threshold=threshold,
    )


def _csv_cell(kind, value) -> str:
    """One sweep.csv cell: floats round-trip through repr, bools are 1 or 0."""
    if kind is bool:
        return "1" if value else "0"
    return str(int(value)) if kind is int else repr(float(value))


def write_sweep_csv(result: SweepResult, path) -> None:
    """Write sweep rows in the CSV_HEADER column order, each cell by its field type."""
    columns = fields(SweepRow)
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(",".join(_csv_cell(c.type, getattr(row, c.name)) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_rate_json(result: SweepResult, path, conditions: Optional[dict] = None) -> None:
    """JSON sidecar with the fitted rate, constants, and condition reports."""
    payload = {
        "rate": asdict(result.rate),
        "constants": asdict(result.constants) if result.constants else None,
        "conditions": conditions,
        "n_rows": len(result.rows),
    }
    atomic_write_json(path, payload)
