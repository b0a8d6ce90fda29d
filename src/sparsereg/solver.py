"""First-order solvers for the penalized data-fit functional.

Minimizes ||F(u) - v||^p + alpha * R(u) for p in {1, 2}, where R is the
weighted lq penalty.  The p = 2 linear path is an accelerated
forward-backward method kept monotone by restarts; the p = 1 linear path
is a primal-dual iteration handling the nonsmooth data norm.  Both scale
their primal steps per column by the same diagonal (Jacobi) metric.  The
nonlinear path wraps the p = 2 solver in a damped Gauss-Newton outer loop.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import ForwardOperator, _power_iteration, make_dense_linear
from .penalty import PenaltySpec, _penalty_value, _prox_power, penalty_value

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_linear_p2",
    "solve_linear_p1",
    "solve_nonlinear",
]


@dataclass(frozen=True)
class SolverConfig:
    """Data exponent, penalty weight alpha, and iteration controls.

    tol is a relative iterate-change threshold.  inner_max_iter and
    inner_tol control the linearized subproblem solves of the nonlinear
    path and default to the outer values.  step_safety is a safety factor
    s on the Jacobi-scaled operator norm L = ||K T^(1/2)||^2, T = diag(t),
    t_j = 1/||K[:, j]||^2, that power iteration estimates from slightly
    below, for both linear solvers: coordinate j of the p = 2 step is
    s*t_j/L, and the p = 1 primal-dual steps satisfy
    sigma*||K diag(tau)^(1/2)||^2 = s^2.
    """

    p: int
    alpha: float
    max_iter: int = 50000
    tol: float = 1e-10
    inner_max_iter: Optional[int] = None
    inner_tol: Optional[float] = None
    step_safety: float = 0.99

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"data exponent p must be 1 or 2, got {self.p}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.inner_max_iter is not None and self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be at least 1 when given")
        if self.inner_tol is not None and not (
            np.isfinite(self.inner_tol) and self.inner_tol > 0.0
        ):
            raise ValueError("inner_tol must be positive when given")
        if not 0.0 < self.step_safety <= 1.0:
            raise ValueError(f"step_safety must lie in (0, 1], got {self.step_safety}")


@dataclass
class SolveReport:
    """Minimizer with its objective decomposition and iteration diagnostics.

    objective_trace holds the objective after every p = 2 iteration and
    every accepted nonlinear outer step, but only the initial and final
    values for p = 1, whose iteration does not use the objective.
    """

    minimizer: np.ndarray
    objective: float
    residual_norm: float
    penalty_value: float
    iterations: int
    converged: bool
    objective_trace: list = field(repr=False, default_factory=list)


def _report(op, data, spec, cfg, u, iterations, converged, trace) -> SolveReport:
    resid = float(np.linalg.norm(op.apply(u) - data))
    pen = penalty_value(u, spec)
    return SolveReport(
        minimizer=u,
        objective=resid**cfg.p + cfg.alpha * pen,
        residual_norm=resid,
        penalty_value=pen,
        iterations=iterations,
        converged=converged,
        objective_trace=trace,
    )


def _check_linear(op: ForwardOperator, data, p_expected: int, cfg: SolverConfig):
    if not op.is_linear:
        raise ValueError("this solver handles linear operators only")
    if cfg.p != p_expected:
        raise ValueError(f"config requests p={cfg.p}, this solver handles p={p_expected}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1 or data.size != op.m:
        raise ValueError(f"expected data vector of length {op.m}, got shape {data.shape}")
    return data


def _jacobi_metric(op: ForwardOperator, start=None):
    """Per-column scales t_j = 1/||K[:, j]||^2 and L = ||K T^(1/2)||^2.

    K is the linear operator `op` and T = diag(t), so L T^-1 majorizes
    K^T K.  A zero column leaves its
    coordinate out of the data term; it gets the largest scale of the
    others, so its step stays finite and the prox alone drives it towards
    zero.  `start` warm-starts the power iteration for L.  Returns
    (t, L, top eigenvector of T^(1/2) K^T K T^(1/2)), or None when every
    column is zero.
    """
    with np.errstate(divide="ignore"):
        t = 1.0 / op.column_norms_sq()
    coupled = np.isfinite(t)
    if not coupled.any():
        return None
    t[~coupled] = t[coupled].max()
    lip, top = _power_iteration(_ColumnScaledOperator(op, np.sqrt(t)), start=start)
    return t, lip, top


def solve_linear_p2(
    op: ForwardOperator,
    data,
    spec: PenaltySpec,
    cfg: SolverConfig,
    u0=None,
) -> SolveReport:
    """Minimize ||Fu - v||^2 + alpha*R(u) for linear F.

    Accelerated forward-backward iteration on the equivalent half-scaled
    objective in the diagonal (Jacobi) metric D = (L/s) T^-1 (variable
    metric, Combettes & Vu 2014), with t_j = 1/||K[:, j]||^2,
    L = ||K T^(1/2)||^2 and s = step_safety.  Since L bounds the scaled
    operator, D majorizes K^T K for every linear kind; for K = diag(k) it
    is K^T K/s, so the iteration is near-exact in one step.  Coordinate j
    steps by s*t_j/L, and its prox threshold is that step times
    alpha*w_j/2.  A monotone restart discards the accelerated candidate
    whenever it would increase the objective, falling back to a plain
    step, which keeps the recorded objective trace nonincreasing.
    """
    data = _check_linear(op, data, 2, cfg)
    if spec.n != op.n:
        raise ValueError(f"penalty has {spec.n} weights but operator expects {op.n}")
    return _forward_backward_p2(op, data, spec, cfg, u0)[0]


def _forward_backward_p2(op, data, spec, cfg, u0, start=None):
    """solve_linear_p2 on checked inputs, with the metric's warm start.

    Returns the report and the top eigenvector of the metric's power
    iteration, which warm-starts it for a nearby operator.  The loop
    carries the image K u of each iterate next to it: since K is linear,
    the extrapolated point's image is the same combination of the images,
    so each forward-backward step makes one apply (of its result, which
    the objective reuses) and one adjoint apply.
    """
    x = np.zeros(op.n) if u0 is None else np.asarray(u0, dtype=np.float64).copy()

    def objective(u, image):
        r = image - data
        return float(r @ r) + cfg.alpha * _penalty_value(u, spec)

    x_image = op.apply(x)
    obj = objective(x, x_image)
    trace = [obj]
    metric = _jacobi_metric(op, start)
    if metric is None:
        # zero operator: the penalty alone drives every coefficient to zero
        zero = np.zeros(op.n)
        trace.append(objective(zero, op.apply(zero)))
        return _report(op, data, spec, cfg, zero, 0, True, trace), start
    t, lip, top = metric
    step = (cfg.step_safety / lip) * t
    thresh = step * (cfg.alpha / 2.0) * spec.weights

    def forward_backward(u, image):
        grad = op.derivative_adjoint_apply(u, image - data)
        out = _prox_power(u - step * grad, thresh, spec.q)
        out_image = op.apply(out)
        return out, out_image, objective(out, out_image)

    y, y_image = x, x_image
    momentum = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        cand, cand_image, cand_obj = forward_backward(y, y_image)
        if cand_obj > obj:
            # restart: the plain step from x cannot increase the objective
            momentum = 1.0
            cand, cand_image, cand_obj = forward_backward(x, x_image)
            if cand_obj > obj:
                cand, cand_image, cand_obj = x, x_image, obj
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        y = cand + beta * (cand - x)
        y_image = cand_image + beta * (cand_image - x_image)
        shift = float(np.linalg.norm(cand - x))
        x, x_image, obj, momentum = cand, cand_image, cand_obj, momentum_next
        trace.append(obj)
        if shift <= cfg.tol * (1.0 + float(np.linalg.norm(x))):
            converged = True
            break
    return _report(op, data, spec, cfg, x, iterations, converged, trace), top


def solve_linear_p1(
    op: ForwardOperator,
    data,
    spec: PenaltySpec,
    cfg: SolverConfig,
    u0=None,
) -> SolveReport:
    """Minimize ||Ku - v|| + alpha*R(u) for linear K.

    Primal-dual iteration on the saddle form max over the dual unit ball:
    the dual ascent step shifts by the data and projects back onto the
    ball, the primal descent step applies the penalty prox.  The primal
    step is diagonally preconditioned (Pock & Chambolle 2011): coordinate
    j steps by tau_j = s*t_j/sqrt(L) with t_j = 1/||K[:, j]||^2 and
    L = ||K T^(1/2)||^2, T = diag(t), while the dual step stays the scalar
    sigma = s/sqrt(L) because its prox is the projection onto the l2 ball.
    With s = step_safety this gives sigma*||K diag(tau)^(1/2)||^2 = s^2,
    below 1 for s < 1.  A zero column leaves its coordinate out of the
    data term, so any step is admissible there; it gets the largest step
    of the others and the prox alone drives it towards zero.  Stops when
    both iterates change less than tol in relative terms.
    """
    data = _check_linear(op, data, 1, cfg)
    if spec.n != op.n:
        raise ValueError(f"penalty has {spec.n} weights but operator expects {op.n}")

    def objective(u):
        return float(np.linalg.norm(op.apply(u) - data)) + cfg.alpha * penalty_value(u, spec)

    x = np.zeros(op.n) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    trace = [objective(x)]
    metric = _jacobi_metric(op)
    if metric is None:
        # zero operator: the penalty alone drives every coefficient to zero
        zero = np.zeros(op.n)
        return _report(op, data, spec, cfg, zero, 0, True, trace + [objective(zero)])
    t, lip, _ = metric
    sigma = cfg.step_safety / np.sqrt(lip)
    tau = sigma * t
    thresh = tau * cfg.alpha * spec.weights
    y = np.zeros(op.m)
    x_bar = x.copy()
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        y_next = y + sigma * (op.apply(x_bar) - data)
        norm_y = float(np.linalg.norm(y_next))
        if norm_y > 1.0:
            y_next = y_next / norm_y
        x_next = _prox_power(x - tau * op.derivative_adjoint_apply(x, y_next), thresh, spec.q)
        x_bar = 2.0 * x_next - x
        primal_shift = float(np.linalg.norm(x_next - x))
        dual_shift = float(np.linalg.norm(y_next - y))
        x, y = x_next, y_next
        if primal_shift <= cfg.tol * (1.0 + float(np.linalg.norm(x))) and dual_shift <= cfg.tol * (
            1.0 + float(np.linalg.norm(y))
        ):
            converged = True
            break
    report = _report(op, data, spec, cfg, x, iterations, converged, trace)
    report.objective_trace.append(report.objective)
    return report


class _ColumnScaledOperator(ForwardOperator):
    """Linear operator K diag(scale): K with column j multiplied by scale_j."""

    def __init__(self, op: ForwardOperator, scale: np.ndarray):
        self._op = op
        self._scale = scale
        self._n = op.n
        self._m = op.m
        self._linear = True

    def apply(self, u):
        return self._op.apply(self._scale * u)

    def derivative_apply(self, u, h):
        return self._op.derivative_apply(u, self._scale * h)

    def derivative_adjoint_apply(self, u, y):
        return self._scale * self._op.derivative_adjoint_apply(u, y)


def solve_nonlinear(
    op: ForwardOperator,
    data,
    spec: PenaltySpec,
    cfg: SolverConfig,
    u0=None,
) -> SolveReport:
    """Minimize ||F(u) - v||^2 + alpha*R(u) for differentiable F.

    Gauss-Newton outer loop: linearize F at the current iterate by
    assembling its derivative once as a dense matrix (`derivative_columns`),
    solve the resulting linear p=2 problem warm-started there, then damp
    the step by halving (at most 20 times) until the true objective does
    not increase.  Inner solves use inner_max_iter/inner_tol when set.
    Each inner solve starts the power iteration of its metric from the top
    eigenvector of the previous one, since consecutive linearizations are
    close.
    """
    if cfg.p != 2:
        raise ValueError("the nonlinear path supports p = 2 only")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1 or data.size != op.m:
        raise ValueError(f"expected data vector of length {op.m}, got shape {data.shape}")
    if spec.n != op.n:
        raise ValueError(f"penalty has {spec.n} weights but operator expects {op.n}")
    inner_cfg = SolverConfig(
        p=2,
        alpha=cfg.alpha,
        max_iter=cfg.inner_max_iter if cfg.inner_max_iter is not None else cfg.max_iter,
        tol=cfg.inner_tol if cfg.inner_tol is not None else cfg.tol,
        step_safety=cfg.step_safety,
    )

    def objective(u):
        r = op.apply(u) - data
        return float(r @ r) + cfg.alpha * penalty_value(u, spec)

    u = np.zeros(op.n) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    obj = objective(u)
    trace = [obj]
    top = None
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        linear = make_dense_linear(op.derivative_columns(u, range(op.n)))
        shifted_data = data - op.apply(u) + linear.apply(u)
        inner, top = _forward_backward_p2(linear, shifted_data, spec, inner_cfg, u, top)
        step = inner.minimizer - u
        cand = u + step
        cand_obj = objective(cand)
        halvings = 0
        while cand_obj > obj and halvings < 20:
            step *= 0.5
            cand = u + step
            cand_obj = objective(cand)
            halvings += 1
        if cand_obj > obj:
            # no descent direction left at this linearization: stop here
            converged = True
            break
        shift = float(np.linalg.norm(cand - u))
        u, obj = cand, cand_obj
        trace.append(obj)
        if shift <= cfg.tol * (1.0 + float(np.linalg.norm(u))):
            converged = True
            break
    return _report(op, data, spec, cfg, u, iterations, converged, trace)
