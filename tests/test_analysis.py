"""Condition certificates, rate constants, and theoretical bounds."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from sparsereg import analysis
from sparsereg.analysis import (
    RateConstants,
    ValidationReport,
    check_source_condition,
    check_sparse_rate_conditions,
    check_support_injectivity,
    derivative_matrix,
    estimate_rate_constants,
    theoretical_bound,
    validate_rate_inequality,
)
from sparsereg.experiments import generate_problem
from sparsereg.operators import (
    ForwardOperator,
    make_convolution_linear,
    make_dense_linear,
    make_diagonal_linear,
    make_toy_nonlinear,
)
from sparsereg.penalty import PenaltySpec, penalty_subgradient, penalty_value


class _CountingOperator(ForwardOperator):
    """Wraps an operator and counts its derivative applies."""

    def __init__(self, op):
        self._op = op
        self._n = op.n
        self._m = op.m
        self._linear = op.is_linear
        self.derivative_applies = 0

    def apply(self, u):
        return self._op.apply(u)

    def derivative_apply(self, u, h):
        self.derivative_applies += 1
        return self._op.derivative_apply(u, h)

    def derivative_adjoint_apply(self, u, y):
        return self._op.derivative_adjoint_apply(u, y)


def test_source_condition_identity_q2():
    op = make_dense_linear(np.eye(2))
    spec = PenaltySpec.uniform(2.0, 1.0, 2)
    cert = check_source_condition(op, np.array([1.0, 0.0]), spec)
    assert cert is not None
    np.testing.assert_allclose(cert.subgradient, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(cert.source_element, [2.0, 0.0], atol=1e-12)
    assert cert.residual <= 1e-12
    assert cert.source_norm == pytest.approx(2.0)


def test_source_condition_diagonal_q1_least_norm():
    # off-support completion is free; least-norm picks 0 there, so the
    # source element is (1, 0) rather than any (1, 2c)
    op = make_diagonal_linear(np.array([1.0, 0.5]))
    spec = PenaltySpec.uniform(1.0, 1.0, 2)
    cert = check_source_condition(op, np.array([1.0, 0.0]), spec)
    assert cert is not None
    np.testing.assert_allclose(cert.subgradient, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(cert.source_element, [1.0, 0.0], atol=1e-12)
    assert cert.source_norm == pytest.approx(1.0)


def test_source_condition_zero_column_fails():
    mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    op = make_dense_linear(mat)
    spec = PenaltySpec.uniform(1.5, 1.0, 2)
    # support touches the zero column: the subgradient coordinate there is
    # nonzero but unreachable through the adjoint
    assert check_source_condition(op, np.array([1.0, 1.0]), spec) is None


def test_source_certificate_round_trip_inequality():
    rng = np.random.default_rng(0)
    op = make_dense_linear(rng.standard_normal((24, 16)))
    spec = PenaltySpec.uniform(1.5, 1.0, 16)
    u = np.zeros(16)
    u[[1, 5, 9]] = [1.0, -0.5, 0.8]
    cert = check_source_condition(op, u, spec)
    assert cert is not None
    for _ in range(1000):
        direction = rng.standard_normal(16)
        lhs = abs(float(np.dot(cert.subgradient, direction)))
        rhs = cert.source_norm * float(
            np.linalg.norm(op.derivative_apply(u, direction))
        )
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def _dense_least_l2_certificate(matrix, u, spec):
    """(source element, subgradient) of the least-l2 completion, by SVD and lstsq."""
    adjoint = matrix.T
    if spec.q > 1.0:
        xi = penalty_subgradient(u, spec)
        return np.linalg.lstsq(adjoint, xi, rcond=None)[0], xi
    support = np.flatnonzero(u)
    off = np.setdiff1d(np.arange(u.size), support)
    target = spec.weights[support] * np.sign(u[support])
    omega = np.linalg.lstsq(adjoint[support], target, rcond=None)[0]
    null_basis = scipy.linalg.null_space(adjoint[support])
    shift = np.linalg.lstsq(adjoint[off] @ null_basis, -adjoint[off] @ omega, rcond=None)[0]
    omega = omega + null_basis @ shift
    return omega, adjoint @ omega


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "kind, shape",
    [
        ("diagonal", {"decay": 1.0}),
        ("diagonal", {"decay": 2.0}),
        ("convolution", {"kernel_width": 0.5}),
        ("convolution", {"kernel_width": 3.0}),
    ],
)
def test_structured_certificate_matches_dense_completion(kind, shape, q):
    inst = generate_problem(kind, 64, q=q, sparsity=3, seed=1, validate=False, **shape)
    op, u, spec = inst.operator, inst.u_dagger, inst.spec
    assert op.derivative_adjoint_solve(u, penalty_subgradient(u, spec)) is not None
    matrix = np.stack([op.apply(column) for column in np.eye(64)], axis=1)
    omega, xi = _dense_least_l2_certificate(matrix, u, spec)
    cert = check_source_condition(op, u, spec)
    assert cert is not None
    # two backward-stable solves may differ by about cond * eps; that
    # exceeds 1e-12 only for the width-3 kernel (cond 1.6e4)
    tol = max(1e-12, 10.0 * np.linalg.cond(matrix) * np.finfo(np.float64).eps)
    for got, want in ((cert.source_element, omega), (cert.subgradient, xi)):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
    assert cert.source_norm == pytest.approx(np.linalg.norm(omega), rel=tol)


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_source_condition_square_diagonal_makes_no_dense_work(q):
    op = make_diagonal_linear((np.arange(4096) + 1.0) ** -1.0)
    calls = {"apply": 0, "adjoint": 0}

    class Counting(type(op)):
        def derivative_apply(self, u, h):
            calls["apply"] += 1
            return super().derivative_apply(u, h)

        def derivative_adjoint_apply(self, u, y):
            calls["adjoint"] += 1
            return super().derivative_adjoint_apply(u, y)

    counting = Counting(op.singular_values)
    u = np.zeros(4096)
    u[[0, 5, 4000]] = [1.0, -0.5, 2.0]
    spec = PenaltySpec.uniform(q, 1.0, 4096)
    cert = check_source_condition(counting, u, spec)
    assert cert is not None
    assert calls["apply"] == 0
    assert calls["adjoint"] <= 2
    xi = penalty_subgradient(u, spec) if q > 1.0 else np.sign(u)
    np.testing.assert_allclose(cert.source_element, xi / op.singular_values, rtol=1e-15)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "op, u",
    [
        (make_diagonal_linear(np.array([1.0, 1e-17])), np.array([1.0, 0.0])),
        (make_diagonal_linear(np.array([1.0, 1e-17])), np.array([1.0, -1.0])),
        (make_convolution_linear(np.array([0.5, 0.5]), 4), np.array([1.0, 0.0, 0.0, 0.0])),
        (make_convolution_linear(np.array([0.5, 0.5]), 4), np.array([1.0, 0.0, -2.0, 0.0])),
    ],
)
def test_numerically_singular_square_operators_take_the_dense_path(op, u, q):
    # no structured solve below the lstsq cutoff (1e-17 < 2 * eps; the
    # [0.5, 0.5] kernel has an exact zero at the Nyquist frequency), so the
    # certificate is the dense operator's, bit for bit, None included
    spec = PenaltySpec.uniform(q, 1.0, op.n)
    assert op.derivative_adjoint_solve(u, penalty_subgradient(u, spec)) is None
    got = check_source_condition(op, u, spec)
    want = check_source_condition(make_dense_linear(derivative_matrix(op, u)), u, spec)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.source_element == want.source_element).all()
        assert (got.subgradient == want.subgradient).all()
        assert got.source_norm == want.source_norm
        assert got.residual == want.residual


def test_injectivity_golden():
    ident = make_dense_linear(np.eye(4))
    rep = check_support_injectivity(ident, np.array([1.0, 0.0, 2.0, 0.0]))
    assert rep.smallest_singular_value == pytest.approx(1.0)
    assert rep.injective

    op = make_diagonal_linear(np.array([1.0, 0.5, 0.25]))
    rep = check_support_injectivity(op, np.array([1.0, 0.0, -1.0]))
    assert rep.smallest_singular_value == pytest.approx(0.25)
    assert rep.injectivity_constant == pytest.approx(4.0)
    np.testing.assert_array_equal(rep.support, [0, 2])


def test_injectivity_matches_svd_oracle():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((32, 64))
    op = make_dense_linear(mat)
    u = np.zeros(64)
    picks = rng.choice(64, size=5, replace=False)
    u[picks] = rng.uniform(0.5, 1.5, 5)
    rep = check_support_injectivity(op, u)
    want = float(np.linalg.svd(mat[:, np.sort(picks)], compute_uv=False).min())
    assert rep.smallest_singular_value == pytest.approx(want, abs=1e-8)
    assert rep.injective


def test_injectivity_rank_deficient_and_empty():
    mat = np.zeros((4, 3))
    mat[:, 0] = [1.0, 2.0, 0.0, 1.0]
    mat[:, 1] = mat[:, 0]
    mat[:, 2] = [0.0, 1.0, 1.0, 0.0]
    op = make_dense_linear(mat)
    rep = check_support_injectivity(op, np.array([1.0, 1.0, 0.0]))
    assert not rep.injective
    assert not np.isfinite(rep.injectivity_constant)

    empty = check_support_injectivity(op, np.zeros(3))
    assert empty.injective
    assert empty.smallest_singular_value == np.inf


def test_injectivity_applies_only_support_columns():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((24, 40))
    u = np.zeros(40)
    u[[3, 17, 29]] = [1.0, -0.5, 2.0]
    op = _CountingOperator(make_dense_linear(mat))
    rep = check_support_injectivity(op, u)
    assert op.derivative_applies == 3
    want = float(np.linalg.svd(mat[:, [3, 17, 29]], compute_uv=False).min())
    assert rep.smallest_singular_value == pytest.approx(want, rel=1e-12)

    op.derivative_applies = 0
    check_support_injectivity(op, u, support=[0, 5])
    assert op.derivative_applies == 2


def test_stored_columns_make_no_applies():
    # dense and diagonal operators hand out their stored columns
    rng = np.random.default_rng(5)
    u = np.zeros(6)
    u[[1, 4]] = [1.0, -2.0]
    for op, attr in (
        (make_dense_linear(rng.standard_normal((8, 6))), "matrix"),
        (make_diagonal_linear(np.linspace(1.0, 0.1, 6)), "singular_values"),
    ):
        applies = []

        class Counting(type(op)):
            def derivative_apply(self, u, h):
                applies.append(1)
                return super().derivative_apply(u, h)

        counting = Counting(getattr(op, attr))
        assert (derivative_matrix(counting, u) == derivative_matrix(op, u)).all()
        rep = check_support_injectivity(counting, u)
        assert rep.injective
        assert applies == []


def test_derivative_matrix_assembly():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((5, 4))
    op = make_dense_linear(mat)
    np.testing.assert_allclose(derivative_matrix(op, np.zeros(4)), mat, atol=1e-12)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    nl = make_toy_nonlinear(a, b, 0.2)
    u = rng.standard_normal(4)
    want = a + 0.2 * 2.0 * b * u[np.newaxis, :]
    np.testing.assert_allclose(derivative_matrix(nl, u), want, atol=1e-12)


def test_constants_identity_q2_zero_reference():
    op = make_dense_linear(np.eye(8))
    spec = PenaltySpec.uniform(2.0, 1.0, 8)
    u = np.zeros(8)
    constants = estimate_rate_constants(op, u, spec, check_source_condition(op, u, spec), 2.0)
    assert constants.validated
    assert constants.norm_coeff > 0.0
    # R(u) = ||u||^2 makes the inequality hold with coefficient 1; the
    # certified value must not exceed it
    assert constants.norm_coeff <= 1.0 + 1e-12


def test_constants_diagonal_sparse_instances():
    s = (np.arange(16) + 1.0) ** -1.0
    op = make_diagonal_linear(s)
    u = np.zeros(16)
    u[[0, 3, 8]] = [1.0, -0.7, 1.2]
    for q, exponent in ((1.0, 1.0), (1.5, 1.5), (1.5, 2.0), (2.0, 2.0)):
        spec = PenaltySpec.uniform(q, 1.0, 16)
        cert = check_source_condition(op, u, spec)
        constants = estimate_rate_constants(op, u, spec, cert, exponent)
        assert constants.validated
        assert constants.exponent == exponent
        assert constants.norm_coeff > 0.0
        assert constants.residual_coeff > 0.0


def test_constants_validation_catches_inflation():
    # near-tight instance: R(u) = ||u||^2 makes 1.0 the sharp coefficient,
    # so a tenfold inflation of the certified value must fail sampling
    op = make_dense_linear(np.eye(8))
    spec = PenaltySpec.uniform(2.0, 1.0, 8)
    u = np.zeros(8)
    constants = estimate_rate_constants(op, u, spec, check_source_condition(op, u, spec), 2.0)
    inflated = RateConstants(
        norm_coeff=10.0 * constants.norm_coeff,
        residual_coeff=constants.residual_coeff,
        exponent=constants.exponent,
        penalty_radius=constants.penalty_radius,
        residual_radius=constants.residual_radius,
    )
    report = validate_rate_inequality(op, u, spec, inflated, n_samples=1000, radius=0.1)
    # every sample violates; the count is not capped by the ten kept
    assert report.n_in_region == 1000
    assert report.n_violations == 1000
    assert len(report.violations) == 10
    assert [i for i, _ in report.violations] == list(range(10))
    assert report.worst_slack < 0.0
    assert not report.passed
    # the honest certified constants validate at the same radius
    assert constants.validated


def test_validation_without_in_region_sample_fails():
    # a region that no sample reaches checks nothing, so it must not pass
    op = make_dense_linear(np.eye(8))
    spec = PenaltySpec.uniform(2.0, 1.0, 8)
    u = np.zeros(8)
    tiny = RateConstants(
        norm_coeff=0.5, residual_coeff=0.0, exponent=2.0,
        penalty_radius=1e-12, residual_radius=np.inf,
    )
    report = validate_rate_inequality(op, u, spec, tiny)
    assert report.n_in_region == 0
    assert report.n_violations == 0
    assert report.worst_slack == np.inf
    assert not report.passed
    assert report.to_dict()["passed"] is False
    # the quadratic construction's region ends one weight above the
    # reference penalty, which no sample at radius 10 stays below
    spec = PenaltySpec.uniform(1.5, 1.0, 8)
    u = np.full(8, 0.5)
    cert = check_source_condition(op, u, spec)
    with pytest.raises(ValueError, match="none of the 1000 samples"):
        estimate_rate_constants(op, u, spec, cert, 2.0, radius=10.0)


def _validate_one_at_a_time(op, u_dagger, spec, constants, n_samples, radius, seed):
    """Oracle for validate_rate_inequality: draw and check one sample at a time."""
    ref_penalty = penalty_value(u_dagger, spec)
    ref_data = op.apply(u_dagger)
    rng = np.random.default_rng(seed)
    checked = 0
    n_violations = 0
    violations = []
    worst = np.inf
    for index in range(n_samples):
        direction = rng.standard_normal(op.n)
        direction /= np.linalg.norm(direction)
        u = u_dagger + radius * direction
        pen = penalty_value(u, spec)
        data_shift = float(np.linalg.norm(op.apply(u) - ref_data))
        if pen >= constants.penalty_radius or data_shift >= constants.residual_radius:
            continue
        checked += 1
        slack = (
            pen
            - ref_penalty
            - constants.norm_coeff * radius**constants.exponent
            + constants.residual_coeff * data_shift
        )
        worst = min(worst, slack)
        if slack < -1e-9:
            n_violations += 1
            if len(violations) < 10:
                violations.append((index, slack))
    return ValidationReport(
        n_samples=n_samples,
        n_in_region=checked,
        n_violations=n_violations,
        worst_slack=float(worst) if checked else np.inf,
        violations=tuple(violations),
    )


def _linearization_one_at_a_time(op, u_dagger, spec, n_samples, radius, seed):
    """Oracle for the sampled linearization fit: (passed, data_shift_coeff)."""
    rng = np.random.default_rng(seed)
    ref_data = op.apply(u_dagger)
    ref_penalty = penalty_value(u_dagger, spec)
    needed = 0.0
    finite = True
    for _ in range(n_samples):
        direction = rng.standard_normal(op.n)
        direction /= np.linalg.norm(direction)
        u = u_dagger + radius * direction
        gap = penalty_value(u, spec) - ref_penalty
        shifted = op.apply(u) - ref_data
        lin_err = float(np.linalg.norm(shifted - op.derivative_apply(u_dagger, u - u_dagger)))
        data_shift = float(np.linalg.norm(shifted))
        if data_shift <= 0.0:
            if gap < lin_err - 1e-12:
                finite = False
            continue
        needed = max(needed, (lin_err - gap) / data_shift)
    return finite, max(needed, 1e-12)


@pytest.mark.parametrize(
    "n, q, exponent, n_samples, stressed",
    [
        # 2-row chunks; the stressed constants leave some samples outside
        # the region and make about half of the rest violate
        (2048, 1.0, 1.0, 1000, {"norm_coeff": 36.0, "residual_coeff": 0.0,
                                 "penalty_radius": 6.55}),
        # 64-row chunks, with a partial last chunk at 333 samples
        (64, 1.5, 1.5, 1000, {"norm_coeff": 1.6, "residual_coeff": 0.0,
                               "penalty_radius": 3.0}),
        (64, 1.5, 1.5, 333, {"norm_coeff": 1.6, "residual_coeff": 0.0,
                              "penalty_radius": 3.0}),
    ],
)
def test_validation_bit_identical_to_one_sample_at_a_time(n, q, exponent, n_samples, stressed):
    op = make_diagonal_linear((np.arange(n) + 1.0) ** -1.0)
    spec = PenaltySpec.uniform(q, 1.0, n)
    u = np.zeros(n)
    u[[0, 3, 8]] = [1.0, -0.7, 1.2]
    cert = check_source_condition(op, u, spec)
    honest = estimate_rate_constants(op, u, spec, cert, exponent, validate=False)
    fields = honest.to_dict()
    fields.update(stressed)
    for constants in (honest, RateConstants(**fields)):
        for seed in (0, 5):
            report = validate_rate_inequality(
                op, u, spec, constants, n_samples=n_samples, radius=0.1, seed=seed
            )
            oracle = _validate_one_at_a_time(op, u, spec, constants, n_samples, 0.1, seed)
            assert report == oracle
    # the stressed constants reach the region filter and the violation cap
    assert 10 < report.n_violations < report.n_in_region < n_samples


def test_constants_exponent_dispatch_errors():
    op = make_dense_linear(np.eye(4))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    q15 = PenaltySpec.uniform(1.5, 1.0, 4)
    q1 = PenaltySpec.uniform(1.0, 1.0, 4)
    cert15 = check_source_condition(op, u, q15)
    cert1 = check_source_condition(op, u, q1)
    with pytest.raises(ValueError):
        estimate_rate_constants(op, u, q15, cert15, 1.0)
    with pytest.raises(ValueError):
        estimate_rate_constants(op, u, q1, cert1, 1.5)
    with pytest.raises(ValueError):
        estimate_rate_constants(op, u, q1, cert1, 2.0)
    with pytest.raises(ValueError):
        estimate_rate_constants(op, u, q15, cert15, 1.5, n_samples=50)
    with pytest.raises(ValueError, match="source condition fails"):
        estimate_rate_constants(op, u, q15, None, 1.5)


def test_constants_rank_deficient_support_rejected():
    mat = np.zeros((4, 3))
    mat[:, 0] = [1.0, 0.0, 0.0, 0.0]
    mat[:, 1] = mat[:, 0]
    mat[:, 2] = [0.0, 1.0, 0.0, 0.0]
    op = make_dense_linear(mat)
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    u = np.array([1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="rank-deficient"):
        estimate_rate_constants(op, u, spec, check_source_condition(op, u, spec), 1.5)


def test_theoretical_bound_goldens():
    constants = RateConstants(
        norm_coeff=1.0, residual_coeff=1.0, exponent=1.0,
        penalty_radius=np.inf, residual_radius=np.inf,
    )
    err, resid = theoretical_bound(constants, 1, alpha=0.5, delta=0.0)
    assert err == 0.0 and resid == 0.0
    err, resid = theoretical_bound(constants, 1, alpha=0.5, delta=0.1)
    assert err == pytest.approx(0.3)

    for r in (1.0, 1.5, 2.0):
        c = RateConstants(
            norm_coeff=1.0, residual_coeff=1.0, exponent=r,
            penalty_radius=np.inf, residual_radius=np.inf,
        )
        delta = 0.01
        err, _ = theoretical_bound(c, 2, alpha=delta, delta=delta)
        assert err == pytest.approx((2.5 * delta) ** (1.0 / r), rel=1e-12)


def test_theoretical_bound_monotone_and_rejections():
    constants = RateConstants(
        norm_coeff=0.5, residual_coeff=2.0, exponent=1.5,
        penalty_radius=np.inf, residual_radius=np.inf,
    )
    deltas = np.linspace(0.0, 0.5, 20)
    errs = [theoretical_bound(constants, 2, 0.1, d)[0] for d in deltas]
    assert np.all(np.diff(errs) >= 0.0)

    c1 = RateConstants(
        norm_coeff=0.5, residual_coeff=2.0, exponent=1.0,
        penalty_radius=np.inf, residual_radius=np.inf,
    )
    alphas = [0.4, 0.3, 0.2, 0.1]
    errs = [theoretical_bound(c1, 1, a, 0.05)[0] for a in alphas]
    assert np.all(np.diff(errs) >= 0.0)
    with pytest.raises(ValueError):
        theoretical_bound(c1, 1, alpha=0.5, delta=0.1)  # alpha*beta2 = 1
    with pytest.raises(ValueError):
        theoretical_bound(c1, 3, alpha=0.1, delta=0.1)


def test_theoretical_bound_overflow_is_inf():
    # squares past the double range come back as inf, as they do when the
    # constants themselves overflow, not as an OverflowError
    c = RateConstants(
        norm_coeff=1.0, residual_coeff=1.0, exponent=1.5,
        penalty_radius=np.inf, residual_radius=np.inf,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theoretical_bound(c, 2, alpha=0.1, delta=1e160) == (np.inf, np.inf)
        assert theoretical_bound(c, 2, alpha=1e160, delta=0.1) == (np.inf, np.inf)


def test_sparse_conditions_identity_q1():
    op = make_dense_linear(np.eye(6))
    spec = PenaltySpec.uniform(1.0, 1.0, 6)
    u = np.zeros(6)
    u[[0, 2]] = [1.0, -2.0]
    report = check_sparse_rate_conditions(op, u, spec, check_source_condition(op, u, spec))
    assert report["passed"]
    assert report["off_support_margin"]["gap_split"] == 0.5
    assert report["off_support_margin"]["max_off_support"] == pytest.approx(0.0)


def test_sparse_conditions_without_certificate():
    # None stands for a failed source condition: the report records the
    # failure and still runs the other checks
    op = make_dense_linear(np.eye(6))
    spec = PenaltySpec.uniform(1.0, 1.0, 6)
    u = np.zeros(6)
    u[[0, 2]] = [1.0, -2.0]
    report = check_sparse_rate_conditions(op, u, spec, None)
    assert report["source_condition"] == {"passed": False}
    assert report["support_injectivity"]["passed"]
    assert "off_support_margin" not in report
    assert not report["passed"]


def test_sparse_conditions_rank_deficient_support():
    mat = np.zeros((4, 3))
    mat[:, 0] = [1.0, 2.0, 0.0, 1.0]
    mat[:, 1] = mat[:, 0]
    mat[:, 2] = [0.0, 1.0, 1.0, 0.0]
    op = make_dense_linear(mat)
    spec = PenaltySpec.uniform(1.0, 1.0, 3)
    u = np.array([1.0, 1.0, 0.0])
    report = check_sparse_rate_conditions(op, u, spec, check_source_condition(op, u, spec))
    assert not report["support_injectivity"]["passed"]
    assert not report["passed"]


def test_sparse_conditions_nonlinear_sampled():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 16)) / np.sqrt(24)
    b = rng.standard_normal((24, 16)) / np.sqrt(24)
    op = make_toy_nonlinear(a, b, 1e-3)
    spec = PenaltySpec.uniform(1.5, 1.0, 16)
    u = np.zeros(16)
    u[[2, 7, 11]] = [1.0, -0.8, 0.6]
    report = check_sparse_rate_conditions(op, u, spec, check_source_condition(op, u, spec))
    entry = report["linearization_inequality"]
    assert entry["passed"]
    assert np.isfinite(entry["data_shift_coeff"])
    assert entry["linearization_coeff"] == 1.0


@pytest.mark.parametrize("n_samples", [1000, 333])
def test_sparse_conditions_nonlinear_bit_identical(n_samples):
    # the toy operator's samples run in chunks of 170 rows (m = 24), the
    # last one partial
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 16)) / np.sqrt(24)
    b = rng.standard_normal((24, 16)) / np.sqrt(24)
    spec = PenaltySpec.uniform(1.5, 1.0, 16)
    u = np.zeros(16)
    u[[2, 7, 11]] = [1.0, -0.8, 0.6]
    for eps in (1e-3, 0.5):
        op = make_toy_nonlinear(a, b, eps)
        cert = check_source_condition(op, u, spec)
        for seed in (0, 4):
            report = check_sparse_rate_conditions(
                op, u, spec, cert, n_samples=n_samples, radius=0.1, seed=seed
            )
            entry = report["linearization_inequality"]
            oracle = _linearization_one_at_a_time(op, u, spec, n_samples, 0.1, seed)
            assert (entry["passed"], entry["data_shift_coeff"]) == oracle
            assert entry["data_shift_coeff"] > 1e-12


def test_sparse_conditions_nonlinear_unmoved_data():
    # F = 0 leaves every sample's data unmoved, so only the penalty gap can
    # cover the linearization error; samples where it falls short fail
    zero = np.zeros((24, 16))
    op = make_toy_nonlinear(zero, zero, 1.0)
    spec = PenaltySpec.uniform(1.5, 1.0, 16)
    u = np.zeros(16)
    u[[2, 7, 11]] = [1.0, -0.8, 0.6]
    entry = check_sparse_rate_conditions(op, u, spec, None)["linearization_inequality"]
    assert (entry["passed"], entry["data_shift_coeff"]) == (False, 1e-12)
    assert _linearization_one_at_a_time(op, u, spec, 1000, 0.1, 0) == (False, 1e-12)


def _toy_operator(m, n, eps):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    b = rng.standard_normal((m, n)) / np.sqrt(m)
    return make_toy_nonlinear(a, b, eps)


@pytest.mark.parametrize(
    "op, n_samples",
    [
        (make_diagonal_linear((np.arange(2048) + 1.0) ** -1.0), 100),
        (make_diagonal_linear((np.arange(64) + 1.0) ** -1.0), 333),
        (make_convolution_linear(np.array([0.25, 0.5, 0.25]), 100), 333),
        (make_dense_linear(np.random.default_rng(1).standard_normal((40, 70))), 333),
        (_toy_operator(48, 32, 0.1), 1000),
    ],
)
def test_sampled_values_bit_identical_per_sample(op, n_samples):
    # every sample's penalty, data shift and linearization error, not only
    # the extremes a report keeps
    spec = PenaltySpec.uniform(1.5, 1.0, op.n)
    u = np.zeros(op.n)
    u[[0, 3, 8]] = [1.0, -0.7, 1.2]
    pen, data_shift, lin_err = analysis._sample_perturbations(
        op, u, spec, n_samples, 0.1, 6, linearization=True
    )
    rng = np.random.default_rng(6)
    ref_data = op.apply(u)
    for index in range(n_samples):
        direction = rng.standard_normal(op.n)
        direction /= np.linalg.norm(direction)
        sample = u + 0.1 * direction
        shifted = op.apply(sample) - ref_data
        miss = shifted - op.derivative_apply(u, sample - u)
        assert pen[index] == penalty_value(sample, spec)
        assert data_shift[index] == np.linalg.norm(shifted)
        assert lin_err[index] == np.linalg.norm(miss)


def test_sampled_checks_memory_bounded_for_tall_operator():
    # chunks are sized by the longer of n and m: sizing them by n alone
    # would give 1024 rows of 4000 data entries, 32 MB per array
    op = make_dense_linear(np.random.default_rng(0).standard_normal((4000, 4)))
    spec = PenaltySpec.uniform(1.5, 1.0, 4)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    constants = RateConstants(
        norm_coeff=0.1, residual_coeff=1.0, exponent=1.5,
        penalty_radius=np.inf, residual_radius=np.inf,
    )
    tracemalloc.start()
    try:
        report = validate_rate_inequality(op, u, spec, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_in_region == 1000
    assert peak < 2**20
