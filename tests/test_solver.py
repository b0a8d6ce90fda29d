"""Solvers for the regularized functional: goldens, certificates, restarts."""

import collections
import inspect
import weakref

import numpy as np
import pytest

from sparsereg import solver
from sparsereg.experiments import generate_problem
from sparsereg.operators import (
    _DenseLinear,
    _ToyNonlinear,
    make_convolution_linear,
    make_dense_linear,
    make_diagonal_linear,
    make_toy_nonlinear,
    operator_norm_sq,
)
from sparsereg.penalty import (
    PenaltySpec,
    _prox_power,
    penalty_subgradient,
    penalty_value,
    prox,
    subgradient_interval,
)
from sparsereg.solver import solve


def test_config_validation():
    # p is an argument like alpha, tol and max_iter, and solve has no other
    # option; every solve checks p, alpha, tol and max_iter, and alpha and
    # tol per row in a batch
    assert list(inspect.signature(solve).parameters) == [
        "op", "data", "spec", "p", "alpha", "tol", "max_iter", "u0"
    ]
    op = make_dense_linear(np.eye(2))
    spec = PenaltySpec.uniform(1.5, 1.0, 2)
    bad = [
        dict(alpha=0.0),
        dict(alpha=np.inf),
        dict(alpha=1.0, tol=0.0),
        dict(alpha=1.0, tol=np.nan),
        dict(alpha=1.0, max_iter=0),
    ]
    for p in (1, 2):
        for values in bad:
            with pytest.raises(ValueError):
                solve(op, np.zeros(2), spec, p, **values)
        with pytest.raises(ValueError, match="alpha"):
            solve(op, np.zeros((2, 2)), spec, p, [0.1, -0.1], [1e-10, 1e-10], 100)
        with pytest.raises(ValueError, match="tol"):
            solve(op, np.zeros((2, 2)), spec, p, [0.1, 0.1], [1e-10, 0.0], 100)
        with pytest.raises(ValueError, match="one alpha and one tol per row"):
            solve(op, np.zeros((2, 2)), spec, p, [0.1, 0.1], [1e-10], 100)
    for p in (0, 1.5, 3):
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            solve(op, np.zeros(2), spec, p, 1.0)


def test_p2_identity_q2_golden():
    # minimizer of (x - z)^2 + x^2 is z/2 componentwise at alpha = 1
    op = make_dense_linear(np.eye(2))
    spec = PenaltySpec.uniform(2.0, 1.0, 2)
    report = solve(op, np.array([2.0, 4.0]), spec, 2, 1.0)
    np.testing.assert_allclose(report.minimizer, [1.0, 2.0], atol=1e-8)
    assert report.converged


def test_p2_zero_data():
    op = make_diagonal_linear(np.array([1.0, 0.5, 0.25]))
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    report = solve(op, np.zeros(3), spec, 2, 0.3)
    np.testing.assert_allclose(report.minimizer, np.zeros(3), atol=1e-12)


def test_p2_identity_q1_golden():
    # threshold alpha/2 on the half-scaled objective; verified against the
    # exact objective ||x - v||^2 + alpha*|x|_1 by grid search
    op = make_dense_linear(np.eye(2))
    spec = PenaltySpec.uniform(1.0, 1.0, 2)
    report = solve(op, np.array([2.0, 0.3]), spec, 2, 1.0)
    np.testing.assert_allclose(report.minimizer, [1.5, 0.0], atol=1e-8)
    grid = np.linspace(-3.0, 3.0, 20001)
    for i, v in enumerate([2.0, 0.3]):
        values = (grid - v) ** 2 + np.abs(grid)
        assert (report.minimizer[i] - v) ** 2 + abs(
            report.minimizer[i]
        ) <= values.min() + 1e-8


def test_p2_report_consistency():
    rng = np.random.default_rng(0)
    op = make_dense_linear(rng.standard_normal((12, 8)))
    spec = PenaltySpec.uniform(1.5, 1.0, 8)
    data = rng.standard_normal(12)
    report = solve(op, data, spec, 2, 0.5)
    resid = float(np.linalg.norm(op.apply(report.minimizer) - data))
    assert report.residual_norm == pytest.approx(resid, rel=1e-12)
    assert report.penalty_value == pytest.approx(
        penalty_value(report.minimizer, spec), rel=1e-12
    )
    assert report.objective == pytest.approx(
        resid**2 + 0.5 * report.penalty_value, rel=1e-10
    )


def test_p2_restart_keeps_iterates_monotone():
    # a row's path does not depend on max_iter until it stops, so the solve
    # capped at k iterations ends at the k-th iterate
    rng = np.random.default_rng(0)
    op = make_dense_linear(rng.standard_normal((12, 8)))
    spec = PenaltySpec.uniform(1.5, 1.0, 8)
    data = rng.standard_normal(12)
    full = solve(op, data, spec, 2, 0.5)
    assert full.converged and full.iterations > 10
    objective = [float(data @ data)]  # the zero start
    for k in range(1, full.iterations + 1):
        report = solve(op, data, spec, 2, 0.5, max_iter=k)
        assert report.iterations == k
        objective.append(report.objective)
    assert report.minimizer.tobytes() == full.minimizer.tobytes()
    objective = np.asarray(objective)
    # the reported objective squares a square root, hence the rounding slack
    assert np.all(np.diff(objective) <= 1e-12 * objective[:-1])


# the three problems solve covers, by the names of the solvers they once had:
# a linear operator with p = 1 or p = 2, and the toy nonlinear one with p = 2
_PROBLEMS = {"solve_linear_p1": (1, "dense"), "solve_linear_p2": (2, "dense"),
             "solve_nonlinear": (2, "toy")}


def _problem_operator(kind, rng):
    a = rng.standard_normal((4, 3))
    if kind == "toy":
        return make_toy_nonlinear(a, rng.standard_normal((4, 3)), 0.1)
    return make_dense_linear(a)


@pytest.mark.parametrize("problem, p", [(name, p) for name, (p, _) in _PROBLEMS.items()])
def test_solvers_reject_bad_input(problem, p):
    # one shared check: data, penalty and start lengths, and p = 1's
    # rejection of a nonlinear operator; each solve reports the objective
    # of its data exponent p
    op = _problem_operator(_PROBLEMS[problem][1], np.random.default_rng(4))
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    report = solve(op, np.ones(4), spec, p, 0.1)
    assert report.residual_norm > 0.0
    assert report.objective == report.residual_norm**p + 0.1 * report.penalty_value
    with pytest.raises(ValueError):
        solve(op, np.zeros(5), spec, p, 0.1)
    with pytest.raises(ValueError):
        solve(op, np.zeros((1, 4)), spec, p, 0.1)
    with pytest.raises(ValueError):
        solve(op, np.zeros(4), PenaltySpec.uniform(1.5, 1.0, 4), p, 0.1)
    with pytest.raises(ValueError, match="starts of length 3"):
        solve(op, np.zeros(4), spec, p, 0.1, u0=np.zeros(4))
    toy = make_toy_nonlinear(np.zeros((4, 3)), np.ones((4, 3)), 0.1)
    if p == 2:
        solve(toy, np.zeros(4), spec, p, 0.1)
    else:
        with pytest.raises(ValueError, match="p = 1 needs a linear operator"):
            solve(toy, np.zeros(4), spec, p, 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("problem", list(_PROBLEMS))
def test_solvers_overflowing_data_is_not_converged(problem):
    # data of 1e300 overflow the residual norm (to inf, or nan through the
    # toy operator's u*u); the iterate stops moving, but is not optimal
    p, kind = _PROBLEMS[problem]
    op = _problem_operator(kind, np.random.default_rng(4))
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    report = solve(op, np.full(4, 1e300), spec, p, 0.1)
    assert not np.isfinite(report.residual_norm)
    assert not report.converged


def _kkt_gap_q_smooth(op, data, spec, alpha, u):
    grad = 2.0 * op.derivative_adjoint_apply(u, op.apply(u) - data)
    return float(np.max(np.abs(grad + alpha * penalty_subgradient(u, spec))))


def test_p2_kkt_certificate_smooth_q():
    rng = np.random.default_rng(2)
    for q in (1.3, 1.5, 2.0):
        op = make_dense_linear(rng.standard_normal((10, 6)))
        spec = PenaltySpec.uniform(q, 1.0, 6)
        data = rng.standard_normal(10)
        report = solve(op, data, spec, 2, 0.4, tol=1e-13)
        assert report.converged
        assert _kkt_gap_q_smooth(op, data, spec, 0.4, report.minimizer) <= 1e-6


def test_p2_kkt_certificate_q1():
    rng = np.random.default_rng(3)
    op = make_dense_linear(rng.standard_normal((10, 6)))
    spec = PenaltySpec.uniform(1.0, 1.0, 6)
    data = rng.standard_normal(10)
    alpha = 0.6
    report = solve(op, data, spec, 2, alpha, tol=1e-13)
    u = report.minimizer
    grad = 2.0 * op.derivative_adjoint_apply(u, op.apply(u) - data)
    for i in range(6):
        if u[i] == 0.0:
            assert abs(grad[i]) <= alpha * spec.weights[i] + 1e-6
        else:
            # interior stationarity with sign consistency
            assert grad[i] + alpha * spec.weights[i] * np.sign(u[i]) == pytest.approx(
                0.0, abs=1e-6
            )


def test_p2_objective_not_above_reference():
    rng = np.random.default_rng(4)
    op = make_diagonal_linear((np.arange(16) + 1.0) ** -1.0)
    u_ref = np.zeros(16)
    u_ref[[0, 3, 7]] = [1.0, -0.8, 0.5]
    data = op.apply(u_ref) + 0.01 * rng.standard_normal(16)
    for q in (1.0, 1.5):
        spec = PenaltySpec.uniform(q, 1.0, 16)
        report = solve(op, data, spec, 2, 0.05)
        ref_objective = (
            float(np.linalg.norm(op.apply(u_ref) - data)) ** 2
            + 0.05 * penalty_value(u_ref, spec)
        )
        assert report.objective <= ref_objective + 1e-10


def test_p2_residual_monotone_in_alpha():
    rng = np.random.default_rng(5)
    op = make_dense_linear(rng.standard_normal((14, 10)))
    spec = PenaltySpec.uniform(1.5, 1.0, 10)
    data = rng.standard_normal(14)
    residuals = []
    for alpha in (1.0, 0.5, 0.2, 0.05, 0.01):
        report = solve(op, data, spec, 2, alpha)
        residuals.append(report.residual_norm)
    # smaller alpha fits the data at least as well
    for larger, smaller in zip(residuals, residuals[1:]):
        assert smaller <= larger + 1e-9


def test_p2_diagonal_matches_closed_form():
    # K = diag(s) splits by coordinate: the minimizer is one prox,
    # u = prox(v/s, alpha*w/(2 s^2)), and the Jacobi metric is K^T K up to
    # the step safety factor, so a few iterations reach it
    n = 64
    s = (np.arange(n) + 1.0) ** -1.0
    op = make_diagonal_linear(s)
    rng = np.random.default_rng(16)
    u_ref = np.zeros(n)
    u_ref[[0, 5, 15]] = [1.0, -0.8, 0.5]
    data = op.apply(u_ref) + 1e-3 * rng.standard_normal(n)
    for q in (1.0, 1.5, 2.0):
        spec = PenaltySpec.uniform(q, 1.0, n)
        report = solve(op, data, spec, 2, 1e-2)
        want = _prox_power(data / s, 1e-2 * spec.weights / (2.0 * s * s), q)
        assert report.converged
        assert report.iterations <= 20
        assert np.linalg.norm(report.minimizer - want) <= 1e-8 * np.linalg.norm(want)


def test_p2_dense_badly_scaled_columns():
    # column norms spanning two decades: a scalar step needs 660 (q = 1)
    # and 1900 (q = 1.5) iterations here, the per-column steps under 100
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((64, 32)) * np.logspace(0, -2, 32)
    u_ref = np.zeros(32)
    u_ref[[2, 9, 20]] = [1.0, -0.6, 0.8]
    op = make_dense_linear(matrix)
    delta = 1e-4
    data = op.apply(u_ref) + delta * rng.standard_normal(64)
    for q in (1.0, 1.5):
        spec = PenaltySpec.uniform(q, 1.0, 32)
        report = solve(op, data, spec, 2, delta)
        assert report.converged
        assert report.iterations <= 200
        u = report.minimizer
        grad = 2.0 * op.derivative_adjoint_apply(u, op.apply(u) - data)
        if q > 1.0:
            assert np.max(np.abs(grad + delta * penalty_subgradient(u, spec))) <= 1e-8
        else:
            lo, hi = subgradient_interval(u, spec)
            assert np.all(-grad >= delta * lo - 1e-8)
            assert np.all(-grad <= delta * hi + 1e-8)


def test_p2_one_apply_and_one_adjoint_per_step(monkeypatch):
    # the loop carries the image K u next to each iterate, so every
    # iteration makes one prox call, one apply and one adjoint apply; a
    # restart costs an iteration, not a second step.  The metric's power
    # iteration pairs each derivative_apply with an adjoint apply
    calls = collections.Counter()

    class Counting(_DenseLinear):
        def apply(self, u):
            calls["apply"] += 1
            return super().apply(u)

        def derivative_apply(self, u, h):
            calls["derivative_apply"] += 1
            return super().derivative_apply(u, h)

        def derivative_adjoint_apply(self, u, y):
            calls["adjoint"] += 1
            return super().derivative_adjoint_apply(u, y)

    steps = []

    def counting_prox(z, thresh, q):
        steps.append(1)
        return _prox_power(z, thresh, q)

    monkeypatch.setattr(solver, "_prox_power", counting_prox)
    rng = np.random.default_rng(0)
    op = Counting(rng.standard_normal((16, 24)))
    data = rng.standard_normal(16)
    spec = PenaltySpec.uniform(1.5, 1.0, 24)
    report = solve(op, data, spec, 2, 1e-2)
    assert report.converged
    assert len(steps) == report.iterations
    # one apply of the start point and one of the returned minimizer
    assert calls["apply"] <= report.iterations + 2
    assert calls["adjoint"] - calls["derivative_apply"] <= len(steps)


def test_p1_zero_data_and_scalar_oracle():
    op = make_dense_linear(np.eye(3))
    spec = PenaltySpec.uniform(1.0, 1.0, 3)
    report = solve(op, np.zeros(3), spec, 1, 0.3)
    np.testing.assert_allclose(report.minimizer, np.zeros(3), atol=1e-10)

    scalar = make_dense_linear(np.array([[1.0]]))
    spec1 = PenaltySpec.uniform(1.0, 1.0, 1)
    report = solve(scalar, np.array([2.0]), spec1, 1, 0.5, max_iter=200000)
    # |x - 2| + 0.5|x| is minimized at x = 2
    assert report.minimizer[0] == pytest.approx(2.0, abs=1e-6)
    grid = np.linspace(-1.0, 4.0, 50001)
    values = np.abs(grid - 2.0) + 0.5 * np.abs(grid)
    assert abs(report.minimizer[0] - 2.0) + 0.5 * abs(
        report.minimizer[0]
    ) <= values.min() + 1e-6


def test_p1_recovers_sparse_reference():
    op = make_diagonal_linear((np.arange(16) + 1.0) ** -1.0)
    u_ref = np.zeros(16)
    u_ref[[0, 2, 5]] = [1.2, -0.7, 0.9]
    spec = PenaltySpec.uniform(1.0, 1.0, 16)
    report = solve(op, op.apply(u_ref), spec, 1, 0.02, max_iter=200000)
    assert report.converged
    assert np.linalg.norm(report.minimizer - u_ref) <= 1e-6 * (
        1.0 + np.linalg.norm(u_ref)
    )


def test_p1_report_consistency():
    rng = np.random.default_rng(6)
    op = make_dense_linear(rng.standard_normal((8, 5)))
    spec = PenaltySpec.uniform(1.0, 1.0, 5)
    data = rng.standard_normal(8)
    report = solve(op, data, spec, 1, 0.2)
    resid = float(np.linalg.norm(op.apply(report.minimizer) - data))
    assert report.objective == pytest.approx(
        resid + 0.2 * report.penalty_value, rel=1e-10
    )
    assert report.iterations > 1


def test_p1_exact_recovery_family_converges_fast():
    # the criterion-05 instances: singular values 1 .. 1/64, which the
    # per-column primal steps equalize; a scalar step needs ~1e5 iterations
    for seed in range(3):
        instance = generate_problem("diagonal", 64, sparsity=3, q=1.0, p=1, seed=seed)
        alpha = 0.5 / instance.certificate.source_norm
        report = solve(
            instance.operator, instance.clean_data, instance.spec, 1, alpha, max_iter=200000
        )
        assert report.converged
        assert report.iterations <= 100
        assert np.linalg.norm(report.minimizer - instance.u_dagger) <= 1e-6 * (
            1.0 + np.linalg.norm(instance.u_dagger)
        )


def test_p1_dense_badly_scaled_columns():
    # column scales from 1 down to 1e-3: a scalar step runs into max_iter
    # here, the per-column steps converge in a few hundred iterations
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((40, 64)) * np.logspace(0, -3, 64)
    u_ref = np.zeros(64)
    u_ref[rng.choice(64, 3, replace=False)] = rng.standard_normal(3)
    op = make_dense_linear(matrix)
    spec = PenaltySpec.uniform(1.0, 1.0, 64)
    report = solve(op, op.apply(u_ref), spec, 1, 0.01, max_iter=200000)
    assert report.converged
    assert report.objective <= 0.01 * penalty_value(u_ref, spec) + 1e-8


def _scalar_step_pdhg(op, data, spec, alpha, tol):
    # reference: the same primal-dual iteration with sigma = tau = 0.99/||K||
    step = 0.99 / np.sqrt(operator_norm_sq(op))
    x = np.zeros(op.n)
    x_bar = x.copy()
    y = np.zeros(op.m)
    for _ in range(200000):
        y_next = y + step * (op.apply(x_bar) - data)
        y_next /= max(1.0, float(np.linalg.norm(y_next)))
        x_next = prox(x - step * op.derivative_adjoint_apply(x, y_next), step * alpha, spec)
        x_bar = 2.0 * x_next - x
        primal_shift = np.linalg.norm(x_next - x)
        dual_shift = np.linalg.norm(y_next - y)
        x, y = x_next, y_next
        if primal_shift <= tol * (1.0 + np.linalg.norm(x)) and dual_shift <= tol * (
            1.0 + np.linalg.norm(y)
        ):
            return x
    raise AssertionError("reference iteration did not converge")


def test_p1_convolution_matches_scalar_step_minimizer():
    # equal column norms (here 5.25): preconditioning only rebalances sigma
    # against tau, so the minimizer must not move
    rng = np.random.default_rng(3)
    op = make_convolution_linear(np.array([2.0, 1.0, 0.5]), 32)
    u_ref = np.zeros(32)
    u_ref[[3, 11, 20]] = [1.0, -0.7, 0.9]
    data = op.apply(u_ref) + 0.05 * rng.standard_normal(32)
    for q in (1.0, 1.5):
        spec = PenaltySpec.uniform(q, 1.0, 32)
        report = solve(op, data, spec, 1, 0.1, tol=1e-13)
        assert report.converged
        want = _scalar_step_pdhg(op, data, spec, 0.1, 1e-13)
        assert np.max(np.abs(report.minimizer - want)) <= 1e-8


def test_p1_zero_column_goes_to_zero():
    # a zero column decouples its coefficient from the data; it still gets
    # a finite step, so the prox drives it to zero from a nonzero start
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((8, 5))
    matrix[:, 2] = 0.0
    op = make_dense_linear(matrix)
    spec = PenaltySpec.uniform(1.0, 1.0, 5)
    data = rng.standard_normal(8)
    u0 = np.full(5, 3.0)
    report = solve(op, data, spec, 1, 0.2, u0=u0)
    assert report.converged
    assert np.all(np.isfinite(report.minimizer))
    assert np.isfinite(report.objective)
    assert report.minimizer[2] == 0.0

    zero = solve(
        make_dense_linear(np.zeros((3, 2))),
        np.ones(3),
        PenaltySpec.uniform(1.0, 1.0, 2),
        1,
        0.2,
        u0=np.ones(2),
    )
    assert zero.converged
    assert zero.minimizer.tolist() == [0.0, 0.0]


def test_nonlinear_linear_degeneration():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 6))
    b = rng.standard_normal((10, 6))
    op = make_toy_nonlinear(a, b, 0.0)
    linear = make_dense_linear(a)
    spec = PenaltySpec.uniform(1.5, 1.0, 6)
    data = rng.standard_normal(10)
    got = solve(op, data, spec, 2, 0.3, tol=1e-12)
    want = solve(linear, data, spec, 2, 0.3, tol=1e-12)
    assert np.max(np.abs(got.minimizer - want.minimizer)) <= 1e-8


def test_nonlinear_stationary_start():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((10, 6))
    b = rng.standard_normal((10, 6))
    op = make_toy_nonlinear(a, b, 1e-3)
    u_ref = np.zeros(6)
    u_ref[[1, 4]] = [1.0, -0.6]
    spec = PenaltySpec.uniform(1.5, 1.0, 6)
    data = op.apply(u_ref)
    report = solve(op, data, spec, 2, 0.1, u0=u_ref)
    assert report.converged
    ref_objective = 0.1 * penalty_value(u_ref, spec)
    assert report.objective <= ref_objective + 1e-10


def test_nonlinear_cross_solver_comparison():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 8))
    b = rng.standard_normal((12, 8))
    op = make_toy_nonlinear(a, b, 1e-3)
    u_ref = np.zeros(8)
    u_ref[[0, 3, 6]] = [0.9, -1.1, 0.7]
    data = op.apply(u_ref)
    spec = PenaltySpec.uniform(1.5, 1.0, 8)
    nonlinear_report = solve(op, data, spec, 2, 0.05, tol=1e-12)

    jac = a + 1e-3 * 2.0 * b * u_ref[np.newaxis, :]
    shifted = data - op.apply(u_ref) + jac @ u_ref
    linear_report = solve(make_dense_linear(jac), shifted, spec, 2, 0.05, tol=1e-12)
    linearized_objective = (
        float(np.linalg.norm(jac @ linear_report.minimizer - shifted)) ** 2
        + 0.05 * penalty_value(linear_report.minimizer, spec)
    )
    assert nonlinear_report.objective <= linearized_objective + 1e-6


def test_nonlinear_inner_solves_make_no_derivative_applies():
    # each Gauss-Newton step assembles its Jacobian once from stored
    # matrices; the inner solves run on that matrix and never call back
    # into the derivative of F
    calls = collections.Counter()

    class Counting(_ToyNonlinear):
        def derivative_apply(self, u, h):
            calls["derivative_apply"] += 1
            return super().derivative_apply(u, h)

        def derivative_adjoint_apply(self, u, y):
            calls["adjoint"] += 1
            return super().derivative_adjoint_apply(u, y)

    rng = np.random.default_rng(9)
    op = Counting(rng.standard_normal((12, 8)), rng.standard_normal((12, 8)), 0.1)
    u_ref = np.zeros(8)
    u_ref[[0, 3, 6]] = [0.9, -1.1, 0.7]
    spec = PenaltySpec.uniform(1.5, 1.0, 8)
    report = solve(op, op.apply(u_ref), spec, 2, 0.05)
    assert report.converged
    assert report.iterations > 1
    assert calls == {}


def test_nonlinear_stationarity_oracle():
    # eps = 0.1 takes several Gauss-Newton steps.  At q = 1.5 the objective
    # is differentiable, so its gradient 2F'(u)^T (F(u) - v) + alpha R'(u)
    # vanishes at the minimizer; Newton's method on that gradient, with the
    # toy operator's exact Hessian, gives a reference to rounding.  A tol of
    # 1e-10 on the iterate change leaves a relative gap of about 2e-8 here
    # (1e-8 to 3e-7 over other seeds of this family)
    rng = np.random.default_rng(0)
    a, b, eps, alpha = rng.standard_normal((12, 8)), rng.standard_normal((12, 8)), 0.1, 0.05
    op = make_toy_nonlinear(a, b, eps)
    u_ref = np.zeros(8)
    u_ref[[0, 3, 6]] = [0.9, -1.1, 0.7]
    data = op.apply(u_ref) + 1e-2 * rng.standard_normal(12)
    spec = PenaltySpec.uniform(1.5, 1.0, 8)

    def gradient(u):
        fit = 2.0 * op.derivative_adjoint_apply(u, op.apply(u) - data)
        return fit, fit + alpha * penalty_subgradient(u, spec)

    report = solve(op, data, spec, 2, alpha)
    assert report.converged and report.iterations >= 3
    fit, grad = gradient(report.minimizer)
    assert np.max(np.abs(grad)) <= 1e-7 * np.max(np.abs(fit))

    u = report.minimizer.copy()
    assert np.all(u != 0.0)
    for _ in range(10):
        jac = a + 2.0 * eps * b * u
        curvature = 4.0 * eps * (b.T @ (op.apply(u) - data)) + alpha * 0.75 / np.sqrt(np.abs(u))
        u = u - np.linalg.solve(2.0 * jac.T @ jac + np.diag(curvature), gradient(u)[1])
    fit, grad = gradient(u)
    assert np.max(np.abs(grad)) <= 1e-12 * np.max(np.abs(fit))
    assert np.max(np.abs(report.minimizer - u)) <= 1e-8 * np.max(np.abs(u))


def test_gauss_newton_inner_tol_tightens_to_each_rows_tol(monkeypatch):
    # each row's first inner solve is looser than its tol, and the step it
    # stops after ran at its tol; alpha tells the rows apart
    rng = np.random.default_rng(15)
    op = _batch_operator("toy", rng)
    spec = PenaltySpec.uniform(1.5, 1.0, op.n)
    data = rng.standard_normal((3, op.m))
    alpha, tol = [0.1, 0.02, 0.3], [1e-10, 1e-9, 1e-11]
    inner = collections.defaultdict(list)
    real = solver._forward_backward_p2

    def recording(op, data, spec, alpha, tol, *args):
        for a, t in zip(alpha.tolist(), tol.tolist()):
            inner[a].append(t)
        return real(op, data, spec, alpha, tol, *args)

    monkeypatch.setattr(solver, "_forward_backward_p2", recording)
    reports = solve(op, data, spec, 2, alpha, tol, 50000)
    assert all(report.converged for report in reports)
    for a, t in zip(alpha, tol):
        assert inner[a][-1] == t
        assert inner[a][0] > t


def test_batched_nonlinear_equal_starts_share_jacobians(monkeypatch):
    # rows that start at one point share its Jacobian and metric in the
    # first step, and each still equals its own single solve
    calls = []

    class Counting(_ToyNonlinear):
        def derivative_columns(self, at, columns):
            calls.append(1)
            return super().derivative_columns(at, columns)

    rng = np.random.default_rng(16)
    op = Counting(rng.standard_normal((30, 20)), rng.standard_normal((30, 20)), 0.05)
    spec = PenaltySpec.uniform(1.5, 1.0, op.n)
    data = rng.standard_normal((5, op.m))
    start = rng.standard_normal((2, op.n))
    u0 = np.array([np.zeros(op.n), start[0], np.zeros(op.n), start[1], start[0]])
    alpha, tol = [0.1, 0.02, 0.3, 0.05, 0.1], [1e-10, 1e-8, 1e-10, 1e-12, 1e-10]
    linearized = []
    real = solver._linearize

    def recording(*args):
        before = len(calls)
        result = real(*args)
        linearized.append(len(calls) - before)
        return result

    monkeypatch.setattr(solver, "_linearize", recording)
    batch = solve(op, data, spec, 2, alpha, tol, 50000, u0)
    assert linearized[0] == 3
    for row, a, t, u, got in zip(data, alpha, tol, u0, batch):
        _same_report(got, solve(op, row, spec, 2, a, t, u0=u))


def test_nonlinear_rejects_p1():
    # the instance checks p where it is built, and every solve checks it
    # again: p = 1 needs a linear operator
    with pytest.raises(ValueError, match="p = 1 needs a linear operator"):
        generate_problem("toy-nonlinear", 6, m=8, sparsity=2, q=1.0, p=1)
    assert generate_problem("toy-nonlinear", 6, m=8, sparsity=2, q=1.0, p=2).p == 2
    rng = np.random.default_rng(1)
    op = make_toy_nonlinear(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), 0.1)
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    with pytest.raises(ValueError, match="p = 1 needs a linear operator"):
        solve(op, np.zeros(4), spec, 1, 0.1)


# --- batched p = 2 solves: every row as if solved alone --------------------


def _same_report(got, want):
    # bit for bit: the minimizer's bytes, and == on every float
    assert got.minimizer.tobytes() == want.minimizer.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert (got.objective, got.residual_norm, got.penalty_value) == (
        want.objective,
        want.residual_norm,
        want.penalty_value,
    )


def _batch_operator(kind, rng):
    if kind == "diagonal":
        return make_diagonal_linear((np.arange(24) + 1.0) ** -1.0)
    if kind == "convolution":
        return make_convolution_linear(np.array([0.25, 0.5, 0.25]), 24)
    if kind == "dense":
        return make_dense_linear(rng.standard_normal((24, 16)))
    return make_toy_nonlinear(rng.standard_normal((30, 20)), rng.standard_normal((30, 20)), 0.05)


@pytest.mark.parametrize("q", [1.0, 1.3, 1.5, 2.0])
@pytest.mark.parametrize("kind", ["diagonal", "convolution", "dense", "toy"])
def test_batched_p2_rows_match_single_solves(kind, q):
    # rows with different alpha and tol stop after different numbers of
    # iterations (and restarts), some at the batch's iteration cap; each
    # must equal its own single solve
    rng = np.random.default_rng(11)
    op = _batch_operator(kind, rng)
    u_ref = np.zeros(op.n)
    u_ref[[1, 5, 9]] = [1.0, -0.8, 0.6]
    spec = PenaltySpec.uniform(q, 1.0, op.n)
    data = op.apply(u_ref) + 1e-2 * rng.standard_normal((5, op.m))
    alpha = [1e-2, 3e-2, 5e-3, 0.2, 1e-2]
    tol = [1e-10, 1e-6, 1e-8, 1e-12, 1e-12]
    max_iter = {"diagonal": 8, "convolution": 60, "dense": 100, "toy": 16}[kind]
    batch = solve(op, data, spec, 2, alpha, tol, max_iter)
    alone = [solve(op, row, spec, 2, a, t, max_iter) for row, a, t in zip(data, alpha, tol)]
    assert len({report.iterations for report in alone}) > 1
    assert not all(report.converged for report in alone)
    for got, want in zip(batch, alone):
        _same_report(got, want)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_batched_p1_rows_match_single_solves(kind):
    # p = 1 rows iterate one after another with one shared metric, some
    # stopping at the cap; each must equal its own single solve
    rng = np.random.default_rng(17)
    op = _batch_operator(kind, rng)
    u_ref = np.zeros(op.n)
    u_ref[[1, 5, 9]] = [1.0, -0.8, 0.6]
    spec = PenaltySpec.uniform(1.0, 1.0, op.n)
    data = op.apply(u_ref) + 1e-2 * rng.standard_normal((3, op.m))
    alpha, tol, starts = [0.05, 0.02, 0.1], [1e-10, 1e-6, 1e-8], rng.standard_normal((3, op.n))
    max_iter = {"diagonal": 300, "dense": 1000}[kind]
    batch = solve(op, data, spec, 1, alpha, tol, max_iter, starts)
    alone = [
        solve(op, row, spec, 1, a, t, max_iter, u)
        for row, a, t, u in zip(data, alpha, tol, starts)
    ]
    assert len({report.iterations for report in alone}) > 1
    assert not all(report.converged for report in alone)
    for got, want in zip(batch, alone):
        _same_report(got, want)


def test_batched_nonlinear_chunks_change_no_row(monkeypatch):
    rng = np.random.default_rng(12)
    op = _batch_operator("toy", rng)
    spec = PenaltySpec.uniform(1.5, 1.0, op.n)
    data = rng.standard_normal((5, op.m))
    rows = ([0.1, 0.02, 0.3, 0.05, 0.01], [1e-10] * 5, 50000)
    whole = solve(op, data, spec, 2, *rows)
    chunks = []
    real = solver._gauss_newton

    def counting(op, data, *args):
        chunks.append(data.shape[0])
        return real(op, data, *args)

    monkeypatch.setattr(solver, "_gauss_newton", counting)
    # room for the Jacobians of two rows per chunk
    monkeypatch.setattr(solver, "_JACOBIAN_STACK_ENTRIES", 2 * op.m * op.n + 1)
    chunked = solve(op, data, spec, 2, *rows)
    assert chunks == [2, 2, 1]
    for got, want in zip(chunked, whole):
        _same_report(got, want)


def test_gauss_newton_frees_each_jacobian_stack_before_the_next(monkeypatch):
    # two Jacobian stacks are never alive at once: when a step linearizes,
    # the previous step's stack (and every view of it) is gone
    rng = np.random.default_rng(14)
    op = _batch_operator("toy", rng)
    spec = PenaltySpec.uniform(1.5, 1.0, op.n)
    data = rng.standard_normal((3, op.m))
    stacks = []
    real = solver._linearize

    def recording(*args):
        assert all(stack() is None for stack in stacks)
        linear, linear_data = real(*args)
        stacks.append(weakref.ref(linear.matrix))
        return linear, linear_data

    monkeypatch.setattr(solver, "_linearize", recording)
    solve(op, data, spec, 2, [0.1, 0.02, 0.3], [1e-10] * 3, 50000)
    assert len(stacks) > 1


def test_batched_zero_jacobian_row_matches_single():
    # a row whose Jacobian is zero takes the zero-operator exit; the rows
    # around it iterate as if it were not there
    rng = np.random.default_rng(13)
    mats = np.array([rng.standard_normal((10, 6)), np.zeros((10, 6)), rng.standard_normal((10, 6))])
    spec = PenaltySpec.uniform(1.5, 1.0, 6)
    data = rng.standard_normal((3, 10))
    alpha, tol = np.array([0.1, 0.2, 0.05]), np.full(3, 1e-10)
    start = rng.standard_normal((3, 6))
    # the loop compacts a stack in place, so each call gets its own copy
    stack = _DenseLinear(mats.copy())
    metric = solver._jacobi_metric(stack, start)
    zeros = np.zeros((3, 6))
    got = solver._forward_backward_p2(stack, data, spec, alpha, tol, 50000, metric, zeros)
    got = (*got, metric[2])
    assert got[1][1] == 0 and got[2][1] and not got[0][1].any()
    assert got[3][1].tobytes() == start[1].tobytes()
    for b in range(3):
        single = _DenseLinear(mats[b : b + 1].copy())
        metric = solver._jacobi_metric(single, start[b : b + 1])
        rows = slice(b, b + 1)
        want = (
            *solver._forward_backward_p2(
                single, data[rows], spec, alpha[rows], tol[rows], 50000, metric, zeros[rows]
            ),
            metric[2],
        )
        assert got[0][b].tobytes() == want[0][0].tobytes()
        assert (got[1][b], got[2][b]) == (want[1][0], want[2][0])
        assert got[3][b].tobytes() == want[3][0].tobytes()


def _matrix(op):
    """The dense matrix of a linear operator, one unit-vector apply per column."""
    return np.column_stack([op.apply(e) for e in np.eye(op.n)])


def _scaled_norm_sq(k, t):
    """Top squared singular value of K diag(t)^(1/2)."""
    return np.linalg.svd(k * np.sqrt(t), compute_uv=False)[0] ** 2


@pytest.mark.parametrize("kind", ["dense", "diagonal", "convolution"])
def test_jacobi_metric_matches_svd(kind):
    rng = np.random.default_rng(21)
    if kind == "dense":
        op = make_dense_linear(rng.standard_normal((7, 5)) * [1.0, 1e-3, 5.0, 1.0, 0.2])
    elif kind == "diagonal":
        op = make_diagonal_linear(rng.uniform(0.1, 3.0, 5))
    else:
        op = make_convolution_linear(rng.standard_normal(3), 5)
    k = _matrix(op)
    t, lip, top, zero = solver._jacobi_metric(op)
    np.testing.assert_allclose(t, 1.0 / (k * k).sum(axis=0), rtol=1e-13)
    assert lip == pytest.approx(_scaled_norm_sq(k, t), rel=1e-9)
    assert top.shape == (5,) and not zero


def test_jacobi_metric_of_jacobian_stack_per_row():
    rng = np.random.default_rng(22)
    mats = rng.standard_normal((2, 6, 4)) * [[1.0, 10.0, 0.1, 1.0]]
    start = rng.standard_normal((2, 4))
    t, lip, top, zero = solver._jacobi_metric(_DenseLinear(mats.copy()), start)
    assert t.shape == top.shape == (2, 4) and lip.shape == zero.shape == (2,)
    assert not zero.any()
    for b in range(2):
        np.testing.assert_allclose(t[b], 1.0 / (mats[b] * mats[b]).sum(axis=0), rtol=1e-13)
        assert lip[b] == pytest.approx(_scaled_norm_sq(mats[b], t[b]), rel=1e-9)


def test_jacobi_metric_zero_columns():
    rng = np.random.default_rng(23)
    k = rng.standard_normal((6, 4))
    k[:, 2] = 0.0
    t, lip, _, zero = solver._jacobi_metric(make_dense_linear(k))
    # the zero column gets the largest scale of the others
    assert t[2] == max(t[[0, 1, 3]])
    assert lip == pytest.approx(_scaled_norm_sq(k, t), rel=1e-9)
    assert not zero
    # an all-zero operator is flagged and keeps its start vector as its top
    mats = np.array([np.zeros((6, 4)), k])
    start = rng.standard_normal((2, 4))
    _, _, top, zero = solver._jacobi_metric(_DenseLinear(mats.copy()), start)
    assert zero.tolist() == [True, False]
    assert top[0].tobytes() == start[0].tobytes()
