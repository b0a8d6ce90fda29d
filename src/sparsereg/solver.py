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
own alpha and tol and all with one max_iter.  Every kernel iterates on
one (B, m) stack in one loop, from which each row leaves when it stops;
every reduction is a stacked per-row product, so each row is
bit-identical to solving it alone.  All three kernels share that loop,
`_row_loop`: each supplies only its setup and its iteration body, and
the loop records how each row ended (its minimizer, iterations and
whether it converged), compacts finished rows out, and retires the rows
of a zero operator at iteration 0.  Gauss-Newton's body linearizes
through `_linearize`, where rows at one linearization point share its
Jacobian and its metric, and runs the p = 2 linear kernel as its inner
solve.  Every kernel returns (minimizers, iterations, converged), from
which `solve` builds the reports of all rows in one place, `_reports`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import ForwardOperator, _DenseLinear, _power_iteration, _power_start
from .operators import _row_dots, _row_norms
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
    resid = _row_norms(r).tolist()
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


def _check_p(p, linear: bool = True) -> None:
    """ValueError unless the data exponent p is 1 or 2, and 1 only with a
    linear operator.  Every public entry point that takes p calls it."""
    if p not in (1, 2):
        raise ValueError(f"data exponent p must be 1 or 2, got {p}")
    if p == 1 and not linear:
        raise ValueError("data exponent p = 1 needs a linear operator")


def _check(op: ForwardOperator, data, spec: PenaltySpec, p, alpha, tol, max_iter: int, u0):
    """The (B, m) data and the per-row (B,) alpha and tol as float64, and
    the (B, n) starts (zero unless given) as a new float64 array.

    Every solve goes through here: p must be 1 or 2, and p = 1 needs a
    linear operator; data and u0 must be finite, alpha and tol positive
    and finite, and max_iter at least 1.
    """
    _check_p(p, op.is_linear)
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
    for name, value in (("data", data), ("u0", u0)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
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
    and L are the placeholder 1 (so steps computed from them stay finite)
    and its top is `start`.  A _DenseLinear stack of matrices gets one of
    each per matrix, and needs a (B, n) `start`; `_linearize` passes one
    matrix per distinct linearization point.
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
    return t, np.where(zero, 1.0, lip), top, zero


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
    _forward_backward_p2, each on the whole row stack with one Jacobi
    metric.  p = 1 needs a linear operator; p = 2 on a nonlinear one runs
    _gauss_newton, in chunks of rows whose Jacobian stack keeps under
    _JACOBIAN_STACK_ENTRIES entries.  Gauss-Newton caps its linearized
    subproblem solves at the same max_iter, and runs them to a tolerance
    that starts looser than tol and tightens down to it.  All three run
    through the one row loop, `_row_loop`, and return the rows'
    minimizers, iteration counts and convergence flags; the reports of
    every path are built here, by one `_reports` call.
    """
    single = np.ndim(data) == 1
    if single:
        data, alpha, tol, u0 = [data], [alpha], [tol], None if u0 is None else [u0]
    data, alpha, tol, u0 = _check(op, data, spec, p, alpha, tol, max_iter, u0)
    if op.is_linear:
        kernel = _primal_dual_p1 if p == 1 else _forward_backward_p2
        solved = kernel(op, data, spec, alpha, tol, max_iter, _jacobi_metric(op), u0)
    else:
        chunk = max(1, _JACOBIAN_STACK_ENTRIES // (op.m * op.n))
        chunks = []
        for lo in range(0, len(data), chunk):
            rows = slice(lo, lo + chunk)
            chunks.append(
                _gauss_newton(op, data[rows], spec, alpha[rows], tol[rows], max_iter, u0[rows])
            )
        solved = [np.concatenate(parts) for parts in zip(*chunks)]
    reports = _reports(op, data, spec, p, alpha, *solved)
    return reports[0] if single else reports


def _small_step(new, old, tol):
    """Per-row ||new - old|| <= tol*(1 + ||new||) of (B, .) stacks: the
    relative-step test on which each row of a linear kernel stops."""
    return _row_norms(new - old) <= tol * (1.0 + _row_norms(new))


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


def _row_loop(op, zero, max_iter, iterate, fixed, state):
    """The one row loop of every kernel: iterate a (B, .) stack of rows
    until every row has stopped, and record how each row ended.

    `fixed` holds the rows' per-row constants (data, steps, thresholds,
    tol, ...) and `state` their iterates, each a (B, ...) array whose
    first entry is the (B, n) start; `iterate(op, fixed, state)` runs one
    iteration of the rows still live (for Gauss-Newton, one outer step)
    and returns their new iterate x, their (B,) stop flags and their new
    state.  A row is done when it stops or reaches max_iter: its x, the
    iteration and whether it stopped are recorded, and it is compacted
    out of the operator (`op._rows`) and of every per-row array.  The
    rows flagged by `zero` (a linear metric's zero-operator flag; False
    for Gauss-Newton, whose inner solves take that exit) leave at
    iteration 0 as converged with minimizer zero, since the penalty alone
    then drives every coefficient to zero.  Returns the (B, n)
    minimizers, iteration counts and convergence flags.
    """
    rows = len(state[0])
    zero = np.broadcast_to(zero, (rows,))
    out = np.zeros((rows, op.n))
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    # before the first iteration only zero-operator rows are done, and
    # they take their minimizer from out, which is zero
    x, stop, done, iteration = out, zero, zero, 0
    while True:
        if done.any():
            ended = live[done]
            out[ended], iterations[ended], converged[ended] = x[done], iteration, stop[done]
            keep = _kept_rows(done)
            live, op = live[keep], op._rows(keep)
            fixed, state = ([v[keep] for v in arrays] for arrays in (fixed, state))
        if not live.size:
            return out, iterations, converged
        iteration += 1
        x, stop, state = iterate(op, fixed, state)
        done = stop | (iteration >= max_iter)


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
    its own momentum, restarts, stopping test and iteration count.  This
    function sets up the steps and thresholds and supplies the iteration
    body; `_row_loop` runs it, retires and compacts finished rows (and
    the rows of a zero operator at once), and returns the (B, n)
    minimizers, iteration counts and convergence flags.  The loop carries
    the image K u of each iterate next to it: since K is linear, the
    extrapolated point's image is the same combination of the images, so
    each iteration makes one prox call, one apply (of its result, which
    the objective reuses) and one adjoint apply.
    """
    t, lip, _, zero = metric
    step = (_STEP_SAFETY / np.broadcast_to(lip, alpha.shape))[:, None] * t
    thresh = step * (alpha / 2.0)[:, None] * spec.weights
    x_image = op.apply(u0)
    obj = _objective(u0, x_image, data, alpha, spec)

    def iterate(op, fixed, state):
        data, step, thresh, alpha, tol = fixed
        x, x_image, y, y_image, obj, momentum, plain = state
        grad = op.derivative_adjoint_apply(y, y_image - data)
        cand = _prox_power(y - step * grad, thresh, spec.q)
        cand_image = op.apply(cand)
        cand_obj = _objective(cand, cand_image, data, alpha, spec)
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
        # rows whose y is x, so that their next step is a plain one
        plain = beta == 0.0
        beta = beta[:, None]
        y = cand + beta * (cand - x)
        y_image = cand_image + beta * (cand_image - x_image)
        # a restarting row has not moved, which is no sign of convergence
        stop = ~back & _small_step(cand, x, tol)
        return cand, stop, (cand, cand_image, y, y_image, cand_obj, momentum_next, plain)

    fixed = (data, step, thresh, alpha, tol)
    # every row starts at momentum 1 with y = x, so its first step is plain
    plain = np.ones(alpha.size, dtype=bool)
    state = (u0, x_image, u0, x_image, obj, np.ones(alpha.size), plain)
    return _row_loop(op, zero, max_iter, iterate, fixed, state)


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
    of the others and the prox alone drives it towards zero.  A row stops
    when both its iterates change less than its tol in relative terms.

    Every row uses the one Jacobi `metric`, `_jacobi_metric(op)`.  This
    function sets up the steps and thresholds and supplies the iteration
    body; as for _forward_backward_p2, `_row_loop` runs it on the whole
    (B, .) stack, each row with its own threshold, stopping test and
    iteration count, retires the rows of a zero operator at once, and
    returns the (B, n) minimizers, iteration counts and convergence flags.
    """
    t, lip, _, zero = metric
    sigma = _STEP_SAFETY / np.sqrt(lip)
    tau = np.broadcast_to(sigma * t, u0.shape)
    thresh = tau * alpha[:, None] * spec.weights

    def iterate(op, fixed, state):
        data, tau, thresh, tol = fixed
        x, x_bar, y = state
        y_next = y + sigma * (op.apply(x_bar) - data)
        # dividing by 1 leaves a row inside the ball unchanged
        y_next = y_next / np.fmax(_row_norms(y_next), 1.0)[:, None]
        grad = op.derivative_adjoint_apply(x, y_next)
        x_next = _prox_power(x - tau * grad, thresh, spec.q)
        stop = _small_step(x_next, x, tol)
        # the dual test can only matter once some row passes the primal one
        stop &= stop.any() and _small_step(y_next, y, tol)
        return x_next, stop, (x_next, 2.0 * x_next - x, y_next)

    state = (u0, u0, np.zeros(data.shape))
    return _row_loop(op, zero, max_iter, iterate, (data, tau, thresh, tol), state)


def _linearize(op, base, data, top):
    """The problems linearized at the (B, n) rows of base: the Jacobians
    of F there as a _DenseLinear stack, the data v - F(u) + F'(u) u of
    each row, and each Jacobian's Jacobi metric, its power iteration
    started from the row's top.

    The one place that makes one Jacobian and one metric per distinct
    linearization point: rows with bitwise-equal (base, top) share them.
    One (B, m, n) stack is allocated, the most that _JACOBIAN_STACK_ENTRIES
    allows for.  The k distinct Jacobians fill its first k slots, and the
    metric runs on that view.  Group ids are numbered in order of first
    appearance, so a row's group never comes after it, and filling the
    rows from the back copies each group's Jacobian before its slot is
    overwritten.  All three are returned in row order.
    """
    groups, first = {}, []
    group = [groups.setdefault(u.tobytes() + t.tobytes(), len(groups)) for u, t in zip(base, top)]
    stack = np.empty((len(base), op.m, op.n))
    for b, g in enumerate(group):
        if g == len(first):
            first.append(b)
            stack[g] = op.derivative_columns(base[b], range(op.n))
    distinct = stack[: len(first)]
    if not np.all(np.isfinite(distinct)):
        raise ValueError("matrix entries must be finite")
    metric = _jacobi_metric(_DenseLinear(distinct), top[first])
    for b in reversed(range(len(base))):
        if group[b] != b:
            stack[b] = stack[group[b]]
    linear = _DenseLinear(stack)
    linear_data = data - op.apply(base) + linear.apply(base)
    return linear, linear_data, tuple(v[group] for v in metric)


# Inexact Gauss-Newton (Dembo, Eisenstat & Steihaug 1982): a row's first
# inner solve runs to _INNER_TOL_START, and each later one to
# _INNER_FORCING times the square of the row's last relative outer step;
# never looser than the one before, and never tighter than the row's tol
_INNER_TOL_START = 1e-4
_INNER_FORCING = 1e-6


def _gauss_newton(op, data, spec, alpha, tol, max_iter, u0):
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

    This function sets up each row's objective, power-iteration start and
    inner tolerance and supplies the outer step as the iteration body;
    `_row_loop` runs it as it runs the linear kernels, so the rows take
    their Gauss-Newton steps in lockstep and each leaves when it stops.
    Each step linearizes every live row through `_linearize` (rows at
    bitwise-equal points, with equal power-iteration starts, share one
    Jacobian and one metric), solves every linearized problem in one
    batched inner solve, and halves each row's step on its own.  The
    Jacobian stack lives only within its step, so it is freed before the
    next step allocates its own.  A row that finds no descent is stuck
    and keeps its iterate.  A row stops when a step whose inner solve ran
    at its own tol moves it less than tol or finds no descent; a row with
    no descent at a looser inner tol retries at its tol, and a row whose
    objective is not finite needs no such step to stop.  Returns the
    (B, n) minimizers, iteration counts and convergence flags, as the
    linear kernels do; `solve` builds the reports.
    """
    def objective(u, data, alpha):
        return _objective(u, op.apply(u), data, alpha, spec)

    def iterate(op, fixed, state):
        data, alpha, tol = fixed
        base, obj, top, inner = state
        linear, linear_data, metric = _linearize(op, base, data, top)
        x = _forward_backward_p2(linear, linear_data, spec, alpha, inner, max_iter, metric, base)[0]
        step = x - base
        cand = base + step
        cand_obj = objective(cand, data, alpha)
        halvings = np.zeros(len(base), dtype=np.int64)
        while True:
            damp = np.flatnonzero((cand_obj > obj) & (halvings < 20))
            if not damp.size:
                break
            step[damp] *= 0.5
            cand[damp] = base[damp] + step[damp]
            cand_obj[damp] = objective(cand[damp], data[damp], alpha[damp])
            halvings[damp] += 1
        # no descent found along its Gauss-Newton step: the row is stuck
        # and stays at base
        stuck = cand_obj > obj
        shift = _row_norms(cand - base)
        u = np.where(stuck[:, None], base, cand)
        obj = np.where(stuck, obj, cand_obj)
        scale = 1.0 + _row_norms(u)
        settled = (inner == tol) | ~np.isfinite(obj)
        stop = (stuck | (shift <= tol * scale)) & settled
        # a stuck row made no progress, so its next inner solve runs at its tol
        progress = np.where(stuck, 0.0, shift / scale)
        inner = np.fmax(tol, np.fmin(inner, _INNER_FORCING * progress**2))
        return u, stop, (u, obj, metric[2], inner)

    # normalizing the seeded vector is the power iteration's own cold start
    top = np.tile(_power_start(op.n), (len(data), 1))
    state = (u0, objective(u0, data, alpha), top, np.maximum(tol, _INNER_TOL_START))
    return _row_loop(op, False, max_iter, iterate, (data, alpha, tol), state)
