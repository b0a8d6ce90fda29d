"""First-order solvers for the penalized data-fit functional.

`solve` minimizes ||F(u) - v||^p + alpha * R(u) for p in {1, 2}, where R
is the weighted lq penalty, and picks one of three kernels from p and the
operator.  The p = 2 linear kernel is an accelerated forward-backward
method kept monotone by restarts, with one prox call per iteration; the
p = 1 kernel (linear operators only) is a primal-dual iteration handling
the nonsmooth data norm.  Both scale their primal steps per column by the
same diagonal (Jacobi) metric.  The p = 2 nonlinear kernel wraps the
forward-backward one in a damped, inexact Gauss-Newton outer loop, whose
inner solves tighten towards each row's tol.

`solve` takes one data vector, or a batch of data rows, each row with its
own alpha and tol and all with one max_iter.  The p = 2 kernels iterate
on one (B, m) stack in one loop, from which each row leaves when it
stops; every reduction is a stacked per-row product, so each row is
bit-identical to solving it alone.  Rows of a nonlinear batch at one
linearization point share its Jacobian and its metric.  The p = 1 rows
iterate one after another.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import ForwardOperator, _DenseLinear, _power_iteration, _power_start, _row_dots
from .penalty import PenaltySpec, _penalty_value, _prox_power

__all__ = ["SolveReport", "solve"]


# Safety factor s on the Jacobi-scaled operator norm L = ||K T^(1/2)||^2,
# T = diag(t), t_j = 1/||K[:, j]||^2, which power iteration estimates from
# slightly below.  Both linear kernels use it: coordinate j of the p = 2 step
# is s*t_j/L, and the p = 1 primal-dual steps satisfy
# sigma*||K diag(tau)^(1/2)||^2 = s^2.
_STEP_SAFETY = 0.99


@dataclass
class SolveReport:
    """The end state of one solve: the minimizer, its objective
    ||F(u) - v||^p + alpha*R(u) split into the residual norm and the
    penalty value, the iterations run, and whether the stopping test held
    with a finite residual and penalty.
    """

    minimizer: np.ndarray
    objective: float
    residual_norm: float
    penalty_value: float
    iterations: int
    converged: bool


# cap on the float64 entries of one nonlinear batch's Jacobian stack; a
# larger batch runs in chunks of rows, which changes no row
_JACOBIAN_STACK_ENTRIES = 1 << 22


def _reports(op, data, spec, p, alpha, x, iterations, converged) -> list:
    """One SolveReport per row of the (B, n) minimizers x, with objective
    ||F(x) - v||^p + alpha*R(x) for the (B,) alpha.

    A row whose residual norm or penalty value is not finite is reported
    as not converged: its objective cannot be optimal.
    """
    r = op.apply(x) - data
    resid = np.sqrt(_row_dots(r, r)).tolist()
    pen = _penalty_value(x, spec).tolist()
    return [
        SolveReport(
            minimizer=x[b],
            objective=resid[b] ** p + a * pen[b],
            residual_norm=resid[b],
            penalty_value=pen[b],
            iterations=int(iterations[b]),
            converged=bool(converged[b]) and math.isfinite(resid[b]) and math.isfinite(pen[b]),
        )
        for b, a in enumerate(alpha.tolist())
    ]


def _objective(u, image, data, alpha, spec):
    """Per-row ||image - data||^2 + alpha*R(u) of (B, .) stacks."""
    r = image - data
    return _row_dots(r, r) + alpha * _penalty_value(u, spec)


def _check(op: ForwardOperator, data, spec: PenaltySpec, p, alpha, tol, max_iter: int, u0):
    """The (B, m) data and the per-row (B,) alpha and tol as float64, and
    the (B, n) starts (zero unless given) as a new float64 array.

    Every solve goes through here: p must be 1 or 2, and p = 1 needs a
    linear operator; alpha and tol must be positive and finite, and
    max_iter at least 1.
    """
    if p not in (1, 2):
        raise ValueError(f"data exponent p must be 1 or 2, got {p}")
    if p == 1 and not op.is_linear:
        raise ValueError("data exponent p = 1 needs a linear operator")
    data = np.asarray(data, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    tol = np.asarray(tol, dtype=np.float64)
    if alpha.ndim != 1 or tol.shape != alpha.shape:
        raise ValueError(f"expected one alpha and one tol per row, got {alpha.shape}, {tol.shape}")
    if data.shape != (alpha.size, op.m):
        raise ValueError(f"expected {alpha.size} data rows of length {op.m}, got {data.shape}")
    if spec.n != op.n:
        raise ValueError(f"penalty has {spec.n} weights but operator expects {op.n}")
    u0 = np.zeros((alpha.size, op.n)) if u0 is None else np.array(u0, dtype=np.float64)
    if u0.shape != (alpha.size, op.n):
        raise ValueError(f"expected {alpha.size} starts of length {op.n}, got {u0.shape}")
    for name, value in (("alpha", alpha), ("tol", tol)):
        if not np.all(np.isfinite(value) & (value > 0.0)):
            raise ValueError(f"{name} must be positive, got {value}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    return data, alpha, tol, u0


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
    and L are placeholders and its top is `start`.  A _DenseLinear stack
    of matrices gets one of each per matrix, and needs a (B, n) `start`;
    Gauss-Newton passes one matrix per distinct linearization point.
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


def solve(op: ForwardOperator, data, spec: PenaltySpec, p, alpha, tol=1e-10, max_iter=50000,
          u0=None):
    """Minimize ||F(u) - v||^p + alpha*R(u) for p = 1 or 2.

    (m,) data with a scalar alpha and tol, and an (n,) start u0 if given,
    returns one SolveReport.  (B, m) data with (B,) alpha and tol, and
    (B, n) starts if given, returns B reports, row b solved with alpha[b]
    and tol[b] and every row with max_iter; each report is bit-identical
    to solving its row alone.  max_iter caps the iterations and tol is a
    relative iterate-change threshold; the start is zero unless given.

    On a linear operator p = 1 runs _primal_dual_p1 and p = 2 runs
    _forward_backward_p2, each with one Jacobi metric.  p = 1 needs a
    linear operator; p = 2 on a nonlinear one runs _gauss_newton, in
    chunks of rows whose Jacobian stack keeps under _JACOBIAN_STACK_ENTRIES
    entries.  Gauss-Newton caps its linearized subproblem solves at the
    same max_iter, and runs them to a tolerance that starts looser than
    tol and tightens down to it.
    """
    single = np.ndim(data) == 1
    if single:
        data, alpha, tol, u0 = [data], [alpha], [tol], None if u0 is None else [u0]
    data, alpha, tol, u0 = _check(op, data, spec, p, alpha, tol, max_iter, u0)
    if op.is_linear:
        kernel = _primal_dual_p1 if p == 1 else _forward_backward_p2
        solved = kernel(op, data, spec, alpha, tol, max_iter, _jacobi_metric(op), u0)
        reports = _reports(op, data, spec, p, alpha, *solved)
    else:
        chunk = max(1, _JACOBIAN_STACK_ENTRIES // (op.m * op.n))
        reports = []
        for lo in range(0, len(data), chunk):
            rows = slice(lo, lo + chunk)
            reports += _gauss_newton(
                op, data[rows], spec, alpha[rows], tol[rows], max_iter, u0[rows]
            )
    return reports[0] if single else reports


class _LiveRows(NamedTuple):
    """What the forward-backward step needs of the rows still iterating."""

    op: ForwardOperator
    data: np.ndarray
    step: np.ndarray
    thresh: np.ndarray
    alpha: np.ndarray
    tol: np.ndarray

    def take(self, keep) -> "_LiveRows":
        return _LiveRows(self.op._rows(keep), *(v[keep] for v in self[1:]))


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


def _forward_backward_p2(op, data, spec, alpha, tol, max_iter, metric, u0):
    """Minimize ||Ku - v||^2 + alpha*R(u) for linear K, on checked (B, m)
    data and (B,) alpha and tol.

    Accelerated forward-backward iteration on the equivalent half-scaled
    objective in the diagonal (Jacobi) metric D = (L/s) T^-1 (variable
    metric, Combettes & Vu 2014), with t_j = 1/||K[:, j]||^2,
    L = ||K T^(1/2)||^2 and s = _STEP_SAFETY.  Since L bounds the scaled
    operator, D majorizes K^T K for every linear kind; for K = diag(k) it
    is K^T K/s, so the iteration is near-exact in one step.  Coordinate j
    steps by s*t_j/L, and its prox threshold is that step times
    alpha*w_j/2.  A monotone restart (O'Donoghue & Candes 2015) keeps the
    iterate whenever the accelerated candidate would increase the
    objective and resets the momentum, so the next iteration is a plain
    step; the objective of the iterates never increases.  A plain step
    that would increase it ends the solve.

    `op` takes (B, n) rows: one linear operator shared by every row, or a
    _DenseLinear stack with one matrix per row, which the loop compacts in
    place as rows stop.  `metric` is `_jacobi_metric(op)`.  Each row has
    its own momentum, restarts, stopping test and iteration count; when it
    stops, its row is compacted out of the working arrays.  Returns the
    (B, n) minimizers, iteration counts and convergence flags.  The loop
    carries the image K u of each iterate next to it: since K is linear,
    the extrapolated point's image is the same combination of the images,
    so each iteration makes one prox call, one apply (of its result, which
    the objective reuses) and one adjoint apply.
    """
    rows, n = data.shape[0], op.n
    x = u0.copy()
    x_image = op.apply(x)
    obj = _objective(x, x_image, data, alpha, spec)
    out = np.zeros((rows, n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    t, lip, _, zero = metric
    lip, zero = np.broadcast_to(lip, (rows,)), np.broadcast_to(zero, (rows,))
    # zero operator: the penalty alone drives every coefficient to zero
    dead = np.flatnonzero(zero)
    converged[dead] = True
    live = np.flatnonzero(~zero)
    step = (_STEP_SAFETY / lip[live])[:, None] * np.broadcast_to(t, (rows, n))[live]
    part = _LiveRows(
        op._rows(live),
        data[live],
        step,
        step * (alpha[live] / 2.0)[:, None] * spec.weights,
        alpha[live],
        tol[live],
    )
    x, x_image, obj = x[live], x_image[live], obj[live]
    y, y_image = x, x_image
    momentum = np.ones(live.size)
    # rows whose y is x, so that their next step is a plain one
    plain = np.ones(live.size, dtype=bool)
    iteration = 0
    while live.size:
        iteration += 1
        grad = part.op.derivative_adjoint_apply(y, y_image - part.data)
        cand = _prox_power(y - part.step * grad, part.thresh, spec.q)
        cand_image = part.op.apply(cand)
        cand_obj = _objective(cand, cand_image, part.data, part.alpha, spec)
        # restart: a row whose candidate raises its objective keeps x and
        # resets its momentum, so its next step is the plain step from x,
        # which cannot raise it; a row whose plain step raised it is stuck
        # and stops below, since it has not moved
        worse = cand_obj > obj
        back = worse & ~plain
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        if worse.any():
            cand[worse], cand_image[worse], cand_obj[worse] = x[worse], x_image[worse], obj[worse]
            momentum_next[back], beta[back] = 1.0, 0.0
        plain = beta == 0.0
        beta = beta[:, None]
        y = cand + beta * (cand - x)
        y_image = cand_image + beta * (cand_image - x_image)
        shift = cand - x
        shift = np.sqrt(_row_dots(shift, shift))
        x, x_image, obj, momentum = cand, cand_image, cand_obj, momentum_next
        # a restarting row has not moved, which is no sign of convergence
        stop = ~back & (shift <= part.tol * (1.0 + np.sqrt(_row_dots(x, x))))
        done = stop | (iteration >= max_iter)
        if done.any():
            ended = live[done]
            out[ended], iterations[ended], converged[ended] = x[done], iteration, stop[done]
            keep = _kept_rows(done)
            live, part = live[keep], part.take(keep)
            x, x_image, y, y_image, obj, momentum, plain = (
                v[keep] for v in (x, x_image, y, y_image, obj, momentum, plain)
            )
    return out, iterations, converged


def _primal_dual_p1(op, data, spec, alpha, tol, max_iter, metric, u0):
    """Minimize ||Ku - v|| + alpha*R(u) for linear K, on checked (B, m)
    data and (B,) alpha and tol.

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
    both iterates change less than tol in relative terms.  The iteration
    is not batched: the rows run one after another with the one Jacobi
    `metric`, `_jacobi_metric(op)`.  Returns the (B, n) minimizers,
    iteration counts and convergence flags.
    """
    rows = data.shape[0]
    out = np.zeros((rows, op.n))
    iterations = np.zeros(rows, dtype=np.int64)

    def norm(v):
        # np.linalg.norm of a real vector is sqrt(v @ v), without its overhead
        return math.sqrt(float(v @ v))

    t, lip, _, zero = metric
    if zero:
        # zero operator: the penalty alone drives every coefficient to zero
        return out, iterations, np.ones(rows, dtype=bool)
    sigma = _STEP_SAFETY / np.sqrt(lip)
    tau = sigma * t
    converged = np.zeros(rows, dtype=bool)
    for b, (x, row, alpha_b, tol_b) in enumerate(zip(u0, data, alpha.tolist(), tol.tolist())):
        thresh = tau * alpha_b * spec.weights
        y = np.zeros(op.m)
        x_bar = x.copy()
        for k in range(1, max_iter + 1):
            y_next = y + sigma * (op.apply(x_bar) - row)
            norm_y = norm(y_next)
            if norm_y > 1.0:
                y_next = y_next / norm_y
            x_next = _prox_power(x - tau * op.derivative_adjoint_apply(x, y_next), thresh, spec.q)
            x_bar = 2.0 * x_next - x
            primal_shift = norm(x_next - x)
            dual_shift = norm(y_next - y)
            x, y = x_next, y_next
            if primal_shift <= tol_b * (1.0 + norm(x)) and dual_shift <= tol_b * (1.0 + norm(y)):
                converged[b] = True
                break
        out[b], iterations[b] = x, k
    return out, iterations, converged


def _distinct_first(base, start):
    """An order of the (B, n) rows of base and start that puts one row of
    each group of bitwise-equal (base, start) pairs first, and the group of
    each row in that order.

    Group g's first row lands at position g, so rows 0 .. k-1 of the order
    are the k distinct pairs.  The rows of a group have equal Jacobians and
    equal metrics, so the first row's serve them all.
    """
    groups = {}
    group = np.array(
        [groups.setdefault(b.tobytes() + s.tobytes(), len(groups)) for b, s in zip(base, start)]
    )
    first = np.zeros(group.size, dtype=bool)
    first[np.unique(group, return_index=True)[1]] = True
    order = np.argsort(~first, kind="stable")
    return order, group[order]


def _linearize(op, base, data, group):
    """The Jacobians of F at the (B, n) rows of base, and the data of the
    linearized problems, v - F(u) + F'(u) u per row.

    Row b copies the Jacobian of row group[b] <= b, which has its base.
    """
    jacobians = np.empty((base.shape[0], op.m, op.n))
    for b, (u, g) in enumerate(zip(base, group)):
        jacobians[b] = op.derivative_columns(u, range(op.n)) if g == b else jacobians[g]
    if not np.all(np.isfinite(jacobians)):
        raise ValueError("matrix entries must be finite")
    linear = _DenseLinear(jacobians)
    return linear, data - op.apply(base) + linear.apply(base)


# Inexact Gauss-Newton (Dembo, Eisenstat & Steihaug 1982): a row's first
# inner solve runs to _INNER_TOL_START, and each later one to
# _INNER_FORCING times the square of the row's last relative outer step;
# never looser than the one before, and never tighter than the row's tol
_INNER_TOL_START = 1e-4
_INNER_FORCING = 1e-6


def _gauss_newton(op, data, spec, alpha, tol, max_iter, u0) -> list:
    """Minimize ||F(u) - v||^2 + alpha*R(u) for differentiable F, on
    checked (B, m) data and (B,) alpha and tol.

    Gauss-Newton outer loop: linearize F at the current iterate by
    assembling its derivative once as a dense matrix (`derivative_columns`),
    solve the resulting linear p=2 problem warm-started there, then damp
    the step by halving (at most 20 times) until the true objective does
    not increase.  Inner solves are inexact (Dembo, Eisenstat & Steihaug
    1982): the first runs to a loose tolerance, and each later one to a
    tighter one set by the last outer step, down to tol; the solve stops
    only after a step whose inner solve ran at tol.  Inner solves share
    the outer max_iter.  Each step computes the Jacobi metric of its
    Jacobian by power iteration started from the previous step's top
    eigenvector, since consecutive linearizations are close.

    The rows take their Gauss-Newton steps in lockstep: each step stacks
    the rows' Jacobians into one _DenseLinear stack, solves every linearized
    problem in one batched inner solve, and halves each row's step on its
    own.  Rows at bitwise-equal points (with equal power-iteration starts)
    share one Jacobian and one metric.  A row stops when a step whose inner
    solve ran at its own tol moves it less than tol or finds no descent; a
    row with no descent at a looser inner tol retries at its tol, and a
    row whose objective is not finite needs no such step to stop.
    """
    rows, n = data.shape[0], op.n

    def objective(live, u):
        return _objective(u, op.apply(u), data[live], alpha[live], spec)

    u = u0.copy()
    live = np.arange(rows)
    obj = objective(live, u)
    # normalizing the seeded vector is the power iteration's own cold start
    top = np.tile(_power_start(n), (rows, 1))
    inner = np.maximum(tol, _INNER_TOL_START)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    iteration = 0
    while live.size:
        iteration += 1
        order, group = _distinct_first(u[live], top[live])
        live = live[order]
        base, k = u[live], group.max() + 1
        jacobians, linear_data = _linearize(op, base, data[live], group)
        # the first k rows are distinct; each other row shares its group's metric
        metric = _jacobi_metric(_DenseLinear(jacobians.matrix[:k]), top[live[:k]])
        metric = tuple(v[group] for v in metric)
        top[live] = metric[2]
        x = _forward_backward_p2(
            jacobians, linear_data, spec, alpha[live], inner[live], max_iter, metric, base
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
        # no descent found along its Gauss-Newton step: the row is stuck
        stuck = cand_obj > obj[live]
        shift = cand - base
        shift = np.sqrt(_row_dots(shift, shift))
        moved = live[~stuck]
        u[moved], obj[moved] = cand[~stuck], cand_obj[~stuck]
        now = u[live]
        scale = 1.0 + np.sqrt(_row_dots(now, now))
        settled = (inner[live] == tol[live]) | ~np.isfinite(obj[live])
        stop = (stuck | (shift <= tol[live] * scale)) & settled
        # a stuck row made no progress, so its next inner solve runs at its tol
        progress = np.where(stuck, 0.0, shift / scale)
        inner[live] = np.fmax(tol[live], np.fmin(inner[live], _INNER_FORCING * progress**2))
        iterations[live], converged[live] = iteration, stop
        live = live[~stop & (iteration < max_iter)]
    return _reports(op, data, spec, 2, alpha, u, iterations, converged)
