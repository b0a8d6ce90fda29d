"""Forward operators: apply/derivative/adjoint contracts and norms."""

import numpy as np
import pytest

from sparsereg.operators import (
    ForwardOperator,
    load_matrix_csv,
    make_convolution_linear,
    make_dense_linear,
    make_diagonal_linear,
    make_toy_nonlinear,
    operator_norm_sq,
    _power_iteration,
    _power_start,
)


def _adjoint_gap(op, rng) -> float:
    u = rng.standard_normal(op.n)
    h = rng.standard_normal(op.n)
    y = rng.standard_normal(op.m)
    left = float(np.dot(op.derivative_apply(u, h), y))
    right = float(np.dot(h, op.derivative_adjoint_apply(u, y)))
    scale = max(1.0, abs(left), abs(right))
    return abs(left - right) / scale


def test_dense_golden():
    op = make_dense_linear(np.eye(2))
    np.testing.assert_allclose(op.apply(np.array([3.0, 4.0])), [3.0, 4.0])
    op = make_dense_linear(np.diag([1.0, 0.5]))
    np.testing.assert_allclose(op.apply(np.array([2.0, 2.0])), [2.0, 1.0])
    assert op.is_linear
    assert op.apply(np.zeros(2)).tolist() == [0.0, 0.0]


def test_dense_adjoint_consistency():
    rng = np.random.default_rng(0)
    op = make_dense_linear(rng.standard_normal((4, 6)))
    for _ in range(100):
        assert _adjoint_gap(op, rng) <= 1e-12


def test_dense_validation():
    with pytest.raises(ValueError):
        make_dense_linear(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        make_dense_linear(np.array([1.0, 2.0]))
    # a stack of matrices is the solver's own, not an operator from outside
    with pytest.raises(ValueError, match="2-d"):
        make_dense_linear(np.ones((2, 3, 3)))
    with pytest.raises(ValueError):
        make_dense_linear(np.array([[np.inf, 1.0]]))
    op = make_dense_linear(np.eye(3))
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))


def test_diagonal_golden():
    op = make_diagonal_linear(np.array([1.0, 0.5, 0.25]))
    np.testing.assert_allclose(op.apply(np.ones(3)), [1.0, 0.5, 0.25])
    ident = make_diagonal_linear(np.ones(4))
    u = np.array([1.0, -2.0, 3.0, -4.0])
    np.testing.assert_allclose(ident.apply(u), u)
    with pytest.raises(ValueError):
        make_diagonal_linear(np.array([1.0, 0.0]))


def test_diagonal_condition_number():
    s = (np.arange(64) + 1.0) ** -2.0
    assert s.max() / s.min() == pytest.approx(4096.0)


def test_convolution_golden():
    ident = make_convolution_linear(np.array([1.0]), 5)
    u = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
    np.testing.assert_allclose(ident.apply(u), u, atol=1e-12)
    op = make_convolution_linear(np.array([0.5, 0.5]), 4)
    impulse = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(op.apply(impulse), [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_convolution_adjoint_and_validation():
    rng = np.random.default_rng(1)
    offsets = np.arange(-9, 10, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / 3.0) ** 2)
    kernel /= kernel.sum()
    op = make_convolution_linear(kernel, 32)
    for _ in range(100):
        assert _adjoint_gap(op, rng) <= 1e-12
    with pytest.raises(ValueError):
        make_convolution_linear(np.array([]), 8)
    with pytest.raises(ValueError):
        make_convolution_linear(np.ones(9), 8)


def test_toy_nonlinear_degenerates_to_linear():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    nonlinear = make_toy_nonlinear(a, b, 0.0)
    linear = make_dense_linear(a)
    for _ in range(20):
        u = rng.standard_normal(4)
        np.testing.assert_allclose(nonlinear.apply(u), linear.apply(u), atol=1e-12)
    assert not nonlinear.is_linear
    np.testing.assert_allclose(
        make_toy_nonlinear(a, b, 0.3).apply(np.zeros(4)), np.zeros(5), atol=1e-15
    )


def test_toy_nonlinear_derivative_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 5))
    b = rng.standard_normal((6, 5))
    op = make_toy_nonlinear(a, b, 0.5)
    u = rng.standard_normal(5)
    h = rng.standard_normal(5)
    exact = op.derivative_apply(u, h)
    errors = []
    for t in (1e-3, 1e-4, 1e-5):
        fd = (op.apply(u + t * h) - op.apply(u)) / t
        errors.append(float(np.linalg.norm(fd - exact)))
    # first-order decay: error shrinks by roughly the step ratio
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= 0.2 * errors[0]
    assert errors[2] <= 0.2 * errors[1]


def test_toy_nonlinear_adjoint():
    rng = np.random.default_rng(4)
    op = make_toy_nonlinear(
        rng.standard_normal((7, 5)), rng.standard_normal((7, 5)), 1e-2
    )
    for _ in range(100):
        assert _adjoint_gap(op, rng) <= 1e-12


def test_linearity_flag_truthful():
    rng = np.random.default_rng(5)
    ops = [
        make_dense_linear(rng.standard_normal((4, 3))),
        make_diagonal_linear(rng.uniform(0.1, 2.0, 5)),
        make_convolution_linear(np.array([0.25, 0.5, 0.25]), 8),
    ]
    for op in ops:
        assert op.is_linear
        for _ in range(20):
            u = rng.standard_normal(op.n)
            w = rng.standard_normal(op.n)
            a, b = rng.standard_normal(2)
            lhs = op.apply(a * u + b * w)
            rhs = a * op.apply(u) + b * op.apply(w)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_operator_norm_sq():
    assert operator_norm_sq(make_dense_linear(np.eye(6))) == pytest.approx(1.0)
    assert operator_norm_sq(make_diagonal_linear(np.array([1.0, 0.5]))) == pytest.approx(
        1.0
    )
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((8, 8))
    got = operator_norm_sq(make_dense_linear(mat))
    want = float(np.linalg.eigvalsh(mat.T @ mat).max())
    assert got == pytest.approx(want, rel=1e-6)


def test_column_norms_sq_match_unit_vector_fallback():
    # each kind's structural shortcut agrees with the base-class fallback,
    # which applies the operator to every unit vector
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((5, 7))
    matrix[:, 3] = 0.0
    for op in (
        make_dense_linear(matrix),
        make_diagonal_linear(np.array([2.0, 0.5, 1e-3])),
        make_convolution_linear(np.array([0.5, -1.0, 2.0]), 9),
    ):
        np.testing.assert_allclose(
            op.column_norms_sq(), ForwardOperator.column_norms_sq(op), rtol=1e-12
        )
    np.testing.assert_allclose(
        make_dense_linear(matrix).column_norms_sq(), (matrix**2).sum(axis=0), rtol=1e-12
    )


def test_derivative_columns_match_unit_vector_fallback():
    # stored columns are exactly what one derivative apply per unit vector
    # gives, in the requested order, for every linear kind
    rng = np.random.default_rng(12)
    for op in (
        make_dense_linear(rng.standard_normal((5, 7))),
        make_diagonal_linear(np.array([2.0, 0.5, 1e-3, 7.0, 0.25, 1.5, 3.0])),
        make_convolution_linear(np.array([0.5, -1.0, 2.0]), 7),
    ):
        at = np.zeros(op.n)
        for columns in ([4, 0, 6, 0], range(op.n), []):
            got = op.derivative_columns(at, columns)
            want = ForwardOperator.derivative_columns(op, at, columns)
            assert got.shape == want.shape == (op.m, len(columns))
            assert (got == want).all()


def test_diagonal_adjoint_solve():
    s = np.array([2.0, 0.5, 1e-3])
    op = make_diagonal_linear(s)
    xi = np.array([1.0, -3.0, 0.25])
    omega = op.derivative_adjoint_solve(np.zeros(3), xi)
    np.testing.assert_allclose(omega, xi / s, rtol=1e-15)
    np.testing.assert_allclose(op.derivative_adjoint_apply(np.zeros(3), omega), xi, rtol=1e-15)
    # 1e-17 lies below the lstsq cutoff 2 * eps * 1: no solve
    assert make_diagonal_linear(np.array([1.0, 1e-17])).derivative_adjoint_solve(
        np.zeros(2), np.ones(2)
    ) is None


def test_convolution_adjoint_solve():
    rng = np.random.default_rng(16)
    op = make_convolution_linear(np.array([1.0, 0.4, -0.2]), 16)
    xi = rng.standard_normal(16)
    omega = op.derivative_adjoint_solve(np.zeros(16), xi)
    np.testing.assert_allclose(op.derivative_adjoint_apply(np.zeros(16), omega), xi, atol=1e-13)
    # against a dense solve with the matrix assembled column by column
    mat = np.stack([op.apply(np.eye(16)[j]) for j in range(16)], axis=1)
    np.testing.assert_allclose(omega, np.linalg.solve(mat.T, xi), rtol=1e-12, atol=1e-13)
    # [0.5, 0.5] on length 4 has an exact zero at the Nyquist frequency
    singular = make_convolution_linear(np.array([0.5, 0.5]), 4)
    assert singular.derivative_adjoint_solve(np.zeros(4), np.ones(4)) is None


def test_unstructured_kinds_have_no_adjoint_solve():
    rng = np.random.default_rng(17)
    square = make_dense_linear(np.eye(3))
    toy = make_toy_nonlinear(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), 0.1)
    assert square.derivative_adjoint_solve(np.zeros(3), np.ones(3)) is None
    assert toy.derivative_adjoint_solve(np.zeros(3), np.ones(3)) is None


def test_operator_norm_sq_nonlinear_at_point():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    op = make_toy_nonlinear(a, b, 0.2)
    u = rng.standard_normal(4)
    jac = a + 0.2 * 2.0 * b * u[np.newaxis, :]
    want = float(np.linalg.eigvalsh(jac.T @ jac).max())
    assert operator_norm_sq(op, at=u) == pytest.approx(want, rel=1e-6)


def test_toy_nonlinear_derivative_columns_make_no_applies():
    # the assembled Jacobian a_j + 2*eps*u_j*b_j, which each Gauss-Newton
    # step builds, matches one derivative apply per unit vector
    rng = np.random.default_rng(14)
    op = make_toy_nonlinear(rng.standard_normal((6, 4)), rng.standard_normal((6, 4)), 0.2)
    applies = []

    class Counting(type(op)):
        def derivative_apply(self, u, h):
            applies.append(1)
            return super().derivative_apply(u, h)

    counting = Counting(op.a_matrix, op.b_matrix, op.eps)
    u = rng.standard_normal(4)
    got = counting.derivative_columns(u, range(4))
    assert applies == []
    want = ForwardOperator.derivative_columns(op, u, range(4))
    np.testing.assert_allclose(got, want, rtol=1e-15)
    np.testing.assert_allclose(got[:, [2, 0]], counting.derivative_columns(u, [2, 0]), rtol=1e-15)


def test_power_iteration_warm_start_matches_cold_start():
    rng = np.random.default_rng(15)
    op = make_dense_linear(rng.standard_normal((12, 9)))
    at = np.zeros(9)

    def gram(x):
        return op.derivative_adjoint_apply(at, op.derivative_apply(at, x))

    cold, top = _power_iteration(gram, _power_start(9))
    assert cold == operator_norm_sq(op)
    nearby = top + 1e-3 * rng.standard_normal(9)
    kept = nearby.copy()
    warm, _ = _power_iteration(gram, nearby)
    assert warm == pytest.approx(cold, rel=1e-9)
    # the start vector is normalized in a copy, not in place
    np.testing.assert_array_equal(nearby, kept)


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    mat = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.savetxt(path, mat, delimiter=",")
    np.testing.assert_allclose(load_matrix_csv(path), mat)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_matrix_csv(empty)
