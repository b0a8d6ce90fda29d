"""First-order solvers for the penalized data-fit functional.

Minimizes ||F(u) - v||^p + alpha * R(u) for p in {1, 2}, where R is the
weighted lq penalty.  The p = 2 linear path is an accelerated
forward-backward method kept monotone by restarts; the p = 1 linear path
is a primal-dual iteration handling the nonsmooth data norm.  Both scale
their primal steps per column by the same diagonal (Jacobi) metric.  The
nonlinear path wraps the p = 2 solver in a damped Gauss-Newton outer loop.

The p = 2 paths solve a batch of data rows at once, each row with its own
configuration: one (B, m) stack and one loop, from which each row leaves
when it stops.  Every reduction is a stacked per-row product, so each row
is bit-identical to solving it alone; a single solve is a batch of one.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import ForwardOperator, _matvec, _power_iteration, _power_start, _row_dots
from .penalty import PenaltySpec, _penalty_value, _prox_power, penalty_value

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_linear_p2",
    "solve_linear_p1",
    "solve_nonlinear",
]


# Safety factor s on the Jacobi-scaled operator norm L = ||K T^(1/2)||^2,
# T = diag(t), t_j = 1/||K[:, j]||^2, which power iteration estimates from
# slightly below.  Both linear solvers use it: coordinate j of the p = 2 step
# is s*t_j/L, and the p = 1 primal-dual steps satisfy
# sigma*||K diag(tau)^(1/2)||^2 = s^2.
_STEP_SAFETY = 0.99


@dataclass(frozen=True)
class SolverConfig:
    """Data exponent p in {1, 2}, penalty weight alpha, and iteration controls.

    max_iter caps the iterations and tol is a relative iterate-change
    threshold.  The nonlinear path runs its linearized subproblem solves
    with the same max_iter and tol as its outer loop.
    """

    p: int
    alpha: float
    max_iter: int = 50000
    tol: float = 1e-10

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"data exponent p must be 1 or 2, got {self.p}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")


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


# cap on the float64 entries of one nonlinear batch's Jacobian stack; a
# larger batch runs in chunks of rows, which changes no row
_JACOBIAN_STACK_ENTRIES = 1 << 22


def _reports(op, data, spec, cfgs, x, iterations, converged, traces) -> list:
    """One SolveReport per row of the (B, n) minimizers x.

    A row whose residual norm or penalty value is not finite is reported
    as not converged: its objective cannot be optimal.
    """
    r = op.apply(x) - data
    resid = np.sqrt(_row_dots(r, r)).tolist()
    pen = _penalty_value(x, spec).tolist()
    return [
        SolveReport(
            minimizer=x[b],
            objective=resid[b] ** cfg.p + cfg.alpha * pen[b],
            residual_norm=resid[b],
            penalty_value=pen[b],
            iterations=int(iterations[b]),
            converged=bool(converged[b]) and math.isfinite(resid[b]) and math.isfinite(pen[b]),
            objective_trace=traces[b],
        )
        for b, cfg in enumerate(cfgs)
    ]


def _report(op, data, spec, cfg, u, iterations, converged, trace) -> SolveReport:
    return _reports(op, data[None], spec, [cfg], u[None], [iterations], [converged], [trace])[0]


def _objective(u, image, data, alpha, spec):
    """Per-row ||image - data||^2 + alpha*R(u) of (B, .) stacks."""
    r = image - data
    return _row_dots(r, r) + alpha * _penalty_value(u, spec)


def _per_row(cfgs, *keys):
    """The named SolverConfig fields, one (B,) array each."""
    return [np.array([getattr(cfg, key) for cfg in cfgs]) for key in keys]


def _check(op: ForwardOperator, data, spec: PenaltySpec, cfgs, p: int) -> np.ndarray:
    """The (B, m) data as float64, one row per config, each config with p."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (len(cfgs), op.m):
        raise ValueError(f"expected {len(cfgs)} data rows of length {op.m}, got {data.shape}")
    if spec.n != op.n:
        raise ValueError(f"penalty has {spec.n} weights but operator expects {op.n}")
    if any(cfg.p != p for cfg in cfgs):
        raise ValueError(f"this solver handles p = {p} only")
    return data


def _jacobi_metric(op: ForwardOperator, start=None):
    """Per-column scales t_j = 1/||K[:, j]||^2 and L = ||K T^(1/2)||^2.

    K is the linear operator `op` and T = diag(t), so L T^-1 majorizes
    K^T K.  A zero column leaves its coordinate out of the data term; it
    gets the largest scale of the others, so its step stays finite and the
    prox alone drives it towards zero.  L is the top eigenvalue of the
    Gram map x -> T^(1/2) K^T K T^(1/2) x, found by power iteration from
    `start` (by default the seeded start vector); a nearby top
    eigenvector, such as the previous Gauss-Newton step's, warm-starts it.
    Returns (t, L, top eigenvector, zero), where zero flags an operator
    whose every column is zero; the solvers do not iterate on it, its t
    and L are placeholders and its top is `start`.  A _JacobianStack gets
    one of each per matrix, and needs a (B, n) `start`.
    """
    with np.errstate(divide="ignore"):
        t = 1.0 / op.column_norms_sq()
    coupled = np.isfinite(t)
    zero = ~coupled.any(axis=-1)
    largest = np.where(coupled, t, 0.0).max(axis=-1, keepdims=True)
    t = np.where(coupled, t, np.where(zero[..., None], 1.0, largest))
    scale, at = np.sqrt(t), np.zeros(op.n)

    def gram(x):
        return scale * op.derivative_adjoint_apply(at, op.derivative_apply(at, scale * x))

    start = _power_start(op.n) if start is None else start
    lip, top = _power_iteration(gram, start)
    top[zero] = start[zero]
    return t, lip, top, zero


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
    L = ||K T^(1/2)||^2 and s = _STEP_SAFETY.  Since L bounds the scaled
    operator, D majorizes K^T K for every linear kind; for K = diag(k) it
    is K^T K/s, so the iteration is near-exact in one step.  Coordinate j
    steps by s*t_j/L, and its prox threshold is that step times
    alpha*w_j/2.  A monotone restart discards the accelerated candidate
    whenever it would increase the objective, falling back to a plain
    step, which keeps the recorded objective trace nonincreasing.
    """
    if not op.is_linear:
        raise ValueError("this solver handles linear operators only")
    return _solve_p2(op, np.asarray(data)[None], spec, [cfg], None if u0 is None else [u0])[0]


def _solve_p2(op, data, spec, cfgs, u0=None) -> list:
    """One SolveReport per row of the (B, m) data, row b solved with cfgs[b].

    The batch form of solve_linear_p2 (linear op) and solve_nonlinear
    (nonlinear op); `u0`, when given, holds one start per row.  Each
    report is bit-identical to solving its row alone.  A nonlinear batch
    runs in chunks of rows whose Jacobian stack keeps under
    _JACOBIAN_STACK_ENTRIES entries.
    """
    data = _check(op, data, spec, cfgs, 2)
    u0 = None if u0 is None else np.array(u0, dtype=np.float64)
    if op.is_linear:
        solved = _forward_backward_p2(op, data, spec, cfgs, _jacobi_metric(op), u0)
        return _reports(op, data, spec, cfgs, *solved)
    chunk = max(1, _JACOBIAN_STACK_ENTRIES // (op.m * op.n))
    reports = []
    for lo in range(0, len(cfgs), chunk):
        rows = slice(lo, lo + chunk)
        reports += _gauss_newton(op, data[rows], spec, cfgs[rows], None if u0 is None else u0[rows])
    return reports


class _LiveRows(NamedTuple):
    """What the forward-backward step needs of the rows still iterating."""

    op: ForwardOperator
    data: np.ndarray
    step: np.ndarray
    thresh: np.ndarray
    alpha: np.ndarray
    tol: np.ndarray
    max_iter: np.ndarray

    def take(self, keep, in_place=False) -> "_LiveRows":
        return _LiveRows(self.op._rows(keep, in_place), *(v[keep] for v in self[1:]))


def _kept_rows(done):
    """Indices of the rows not done, in the order that compacts cheaply.

    Of the k rows left, those among the first k keep their positions and
    the ones beyond fill the gaps, so compacting a stack in place moves
    one row per gap instead of every row after the first gap.
    """
    keep = np.flatnonzero(~done)
    order = np.arange(keep.size)
    order[np.flatnonzero(done[: keep.size])] = keep[keep >= keep.size]
    return order


def _forward_backward_p2(op, data, spec, cfgs, metric, u0=None, traced=True):
    """solve_linear_p2 on checked (B, m) data, one config per row.

    `op` takes (B, n) rows: one linear operator shared by every row, or a
    _JacobianStack with one matrix per row, which the loop compacts in
    place as rows stop.  `metric` is `_jacobi_metric(op)`.  Each row has
    its own momentum, restarts, stopping test, iteration count and
    objective trace; when it stops, its row is compacted out of the
    working arrays.  Returns the (B, n) minimizers, iteration counts,
    convergence flags and objective traces (None unless traced).  The loop
    carries the image K u of each iterate next to it: since K is linear,
    the extrapolated point's image is the same combination of the images,
    so each forward-backward step makes one apply (of its result, which
    the objective reuses) and one adjoint apply.
    """
    rows, n = data.shape[0], op.n
    alpha, tol, max_iter = _per_row(cfgs, "alpha", "tol", "max_iter")
    x = np.zeros((rows, n)) if u0 is None else u0.copy()
    x_image = op.apply(x)
    obj = _objective(x, x_image, data, alpha, spec)
    traces = [[value] for value in obj.tolist()] if traced else None
    out = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    t, lip, _, zero = metric
    lip, zero = np.broadcast_to(lip, (rows,)), np.broadcast_to(zero, (rows,))
    # zero operator: the penalty alone drives every coefficient to zero
    dead = np.flatnonzero(zero)
    converged[dead] = True
    if dead.size and traced:
        zeros = np.zeros((dead.size, n))
        final = _objective(zeros, op._rows(dead).apply(zeros), data[dead], alpha[dead], spec)
        for b, value in zip(dead.tolist(), final.tolist()):
            traces[b].append(value)
    live = np.flatnonzero(~zero)
    step = (_STEP_SAFETY / lip[live])[:, None] * np.broadcast_to(t, (rows, n))[live]
    part = _LiveRows(
        op._rows(live, in_place=True),
        data[live],
        step,
        step * (alpha[live] / 2.0)[:, None] * spec.weights,
        alpha[live],
        tol[live],
        max_iter[live],
    )

    def forward_backward(part, u, image):
        grad = part.op.derivative_adjoint_apply(u, image - part.data)
        nxt = _prox_power(u - part.step * grad, part.thresh, spec.q)
        nxt_image = part.op.apply(nxt)
        return nxt, nxt_image, _objective(nxt, nxt_image, part.data, part.alpha, spec)

    x, x_image, obj = x[live], x_image[live], obj[live]
    y, y_image = x, x_image
    momentum = np.ones(live.size)
    iteration = 0
    while live.size:
        iteration += 1
        cand, cand_image, cand_obj = forward_backward(part, y, y_image)
        back = np.flatnonzero(cand_obj > obj)
        if back.size:
            # restart: the plain step from x cannot increase the objective
            momentum[back] = 1.0
            cand[back], cand_image[back], cand_obj[back] = forward_backward(
                part.take(back), x[back], x_image[back]
            )
            stuck = back[cand_obj[back] > obj[back]]
            cand[stuck], cand_image[stuck], cand_obj[stuck] = x[stuck], x_image[stuck], obj[stuck]
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = ((momentum - 1.0) / momentum_next)[:, None]
        y = cand + beta * (cand - x)
        y_image = cand_image + beta * (cand_image - x_image)
        shift = cand - x
        shift = np.sqrt(_row_dots(shift, shift))
        x, x_image, obj, momentum = cand, cand_image, cand_obj, momentum_next
        if traced:
            for b, value in zip(live.tolist(), obj.tolist()):
                traces[b].append(value)
        stop = shift <= part.tol * (1.0 + np.sqrt(_row_dots(x, x)))
        done = stop | (iteration >= part.max_iter)
        if done.any():
            ended = live[done]
            out[ended], iterations[ended], converged[ended] = x[done], iteration, stop[done]
            keep = _kept_rows(done)
            live, part = live[keep], part.take(keep, in_place=True)
            x, x_image, y, y_image, obj, momentum = (
                v[keep] for v in (x, x_image, y, y_image, obj, momentum)
            )
    return out, iterations, converged, traces


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
    With s = _STEP_SAFETY this gives sigma*||K diag(tau)^(1/2)||^2 = s^2,
    below 1 for s < 1.  A zero column leaves its coordinate out of the
    data term, so any step is admissible there; it gets the largest step
    of the others and the prox alone drives it towards zero.  Stops when
    both iterates change less than tol in relative terms.  One data vector
    per call: the p = 1 iteration is not batched.
    """
    if not op.is_linear:
        raise ValueError("this solver handles linear operators only")
    data = _check(op, np.asarray(data)[None], spec, [cfg], 1)[0]

    def objective(u):
        return float(np.linalg.norm(op.apply(u) - data)) + cfg.alpha * penalty_value(u, spec)

    def norm(v):
        # np.linalg.norm of a real vector is sqrt(v @ v), without its overhead
        return math.sqrt(float(v @ v))

    x = np.zeros(op.n) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    trace = [objective(x)]
    t, lip, _, zero = _jacobi_metric(op)
    if zero:
        # zero operator: the penalty alone drives every coefficient to zero
        u = np.zeros(op.n)
        return _report(op, data, spec, cfg, u, 0, True, trace + [objective(u)])
    sigma = _STEP_SAFETY / np.sqrt(lip)
    tau = sigma * t
    thresh = tau * cfg.alpha * spec.weights
    y = np.zeros(op.m)
    x_bar = x.copy()
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        y_next = y + sigma * (op.apply(x_bar) - data)
        norm_y = norm(y_next)
        if norm_y > 1.0:
            y_next = y_next / norm_y
        x_next = _prox_power(x - tau * op.derivative_adjoint_apply(x, y_next), thresh, spec.q)
        x_bar = 2.0 * x_next - x
        primal_shift = norm(x_next - x)
        dual_shift = norm(y_next - y)
        x, y = x_next, y_next
        if primal_shift <= cfg.tol * (1.0 + norm(x)) and dual_shift <= cfg.tol * (1.0 + norm(y)):
            converged = True
            break
    report = _report(op, data, spec, cfg, x, iterations, converged, trace)
    report.objective_trace.append(report.objective)
    return report


class _JacobianStack(ForwardOperator):
    """Linear operators K_b stored as a (B, m, n) stack, one per batch row.

    Row b of a (B, n) input goes through K_b; each product is the stacked
    matrix-vector product of operators._matvec, bit-identical to K_b's own.
    """

    def __init__(self, matrices: np.ndarray):
        self.matrices = matrices
        self._m, self._n = matrices.shape[1:]
        self._linear = True

    def apply(self, u):
        return _matvec(self.matrices, u)

    def derivative_apply(self, u, h):
        return _matvec(self.matrices, h)

    def derivative_adjoint_apply(self, u, y):
        return _matvec(self.matrices.transpose(0, 2, 1), y)

    def column_norms_sq(self):
        return np.einsum("bij,bij->bj", self.matrices, self.matrices)

    def _rows(self, keep, in_place=False):
        if not in_place:
            return _JacobianStack(self.matrices[keep])
        moved = np.flatnonzero(keep != np.arange(keep.size))
        self.matrices[moved] = self.matrices[keep[moved]]
        return _JacobianStack(self.matrices[: keep.size])


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
    not increase.  Inner solves use the outer max_iter and tol.
    Each step computes the Jacobi metric of its Jacobian by power
    iteration started from the previous step's top eigenvector, since
    consecutive linearizations are close.
    """
    data = _check(op, np.asarray(data)[None], spec, [cfg], 2)
    u0 = None if u0 is None else np.asarray(u0, dtype=np.float64)[None]
    return _gauss_newton(op, data, spec, [cfg], u0)[0]


def _linearize(op, base, data):
    """The Jacobians of F at the (B, n) rows of base, and the data of the
    linearized problems, v - F(u) + F'(u) u per row."""
    jacobians = np.empty((base.shape[0], op.m, op.n))
    for jacobian, u in zip(jacobians, base):
        jacobian[...] = op.derivative_columns(u, range(op.n))
    if not np.all(np.isfinite(jacobians)):
        raise ValueError("matrix entries must be finite")
    linear = _JacobianStack(jacobians)
    return linear, data - op.apply(base) + linear.apply(base)


def _gauss_newton(op, data, spec, cfgs, u0=None) -> list:
    """solve_nonlinear on checked (B, m) data, one config per row.

    The rows take their Gauss-Newton steps in lockstep: each step stacks
    the rows' Jacobians into one _JacobianStack, solves every linearized
    problem in one batched inner solve, and halves each row's step on its
    own.  A row leaves the batch when it stops.
    """
    rows, n = data.shape[0], op.n
    alpha, tol, max_iter = _per_row(cfgs, "alpha", "tol", "max_iter")

    def objective(live, u):
        return _objective(u, op.apply(u), data[live], alpha[live], spec)

    u = np.zeros((rows, n)) if u0 is None else u0.copy()
    live = np.arange(rows)
    obj = objective(live, u)
    traces = [[value] for value in obj.tolist()]
    # normalizing the seeded vector is the power iteration's own cold start
    top = np.tile(_power_start(n), (rows, 1))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    iteration = 0
    while live.size:
        iteration += 1
        base = u[live]
        jacobians, linear_data = _linearize(op, base, data[live])
        metric = _jacobi_metric(jacobians, top[live])
        top[live] = metric[2]
        x = _forward_backward_p2(
            jacobians, linear_data, spec, [cfgs[b] for b in live], metric, base, traced=False
        )[0]
        # the Jacobian stack is not kept, so it is freed before the next
        # step allocates its own
        del jacobians
        step = x - base
        cand = base + step
        cand_obj = objective(live, cand)
        halvings = np.zeros(live.size, dtype=np.int64)
        while True:
            damp = np.flatnonzero((cand_obj > obj[live]) & (halvings < 20))
            if not damp.size:
                break
            step[damp] *= 0.5
            cand[damp] = base[damp] + step[damp]
            cand_obj[damp] = objective(live[damp], cand[damp])
            halvings[damp] += 1
        # no descent direction left at its linearization: the row stops
        stuck = cand_obj > obj[live]
        shift = cand - base
        shift = np.sqrt(_row_dots(shift, shift))
        moved = live[~stuck]
        u[moved], obj[moved] = cand[~stuck], cand_obj[~stuck]
        for b, value in zip(moved.tolist(), cand_obj[~stuck].tolist()):
            traces[b].append(value)
        now = u[live]
        stop = stuck | (shift <= tol[live] * (1.0 + np.sqrt(_row_dots(now, now))))
        iterations[live], converged[live] = iteration, stop
        live = live[~stop & (iteration < max_iter[live])]
    return _reports(op, data, spec, cfgs, u, iterations, converged, traces)
