"""Forward operators mapping coefficient vectors to data vectors.

Each operator exposes its action, the action of its derivative at a point,
and the adjoint of that derivative, which is all the solvers need.  Linear
instances simply ignore the linearization point.  The three actions also
take a (B, n) stack of rows and act on each row, bit-identically to acting
on that row alone, so one call serves a whole batch of solves.
"""

import warnings
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = [
    "ForwardOperator",
    "make_dense_linear",
    "make_diagonal_linear",
    "make_convolution_linear",
    "make_toy_nonlinear",
    "operator_norm_sq",
    "load_matrix_csv",
]


def _as_vector(x, size: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != size:
        raise ValueError(f"expected {what} of length {size}, got shape {x.shape}")
    return x


def _as_rows(x, size: int, what: str) -> np.ndarray:
    """A vector of length size, or a (B, size) stack of such rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != size:
        raise ValueError(f"expected {what} of length {size} or rows of it, got shape {x.shape}")
    return x


def _matvec(a, x):
    """a @ x for a vector x, or for each row of a (B, k) stack x.

    a is an (m, k) matrix shared by every row, or a (B, m, k) stack with
    one matrix per row.  The stacked product runs the 1-d product's BLAS
    matrix-vector kernel once per row, so every row is bit-identical to
    its own 1-d product; a matrix product with the stack would not be.
    """
    if x.ndim == 1:
        return a @ x
    return (a @ x[:, :, None])[:, :, 0]


def _row_dots(a, b):
    """Per-row dot products of two (B, k) stacks, as a (B,) array.

    A stacked (1, k) @ (k, 1) product runs the dot kernel of the 1-d
    a[i] @ b[i] (and of np.linalg.norm); einsum and (a*b).sum(1) sum in
    another order and are not bit-identical to it.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a):
    """Per-row Euclidean norms of a (B, k) stack, each bit-identical to
    np.linalg.norm of its row."""
    return np.sqrt(_row_dots(a, a))


def _rank_cutoff(singular_values, shape) -> float:
    """max(shape) * eps * sigma_max for a matrix of the given shape and
    singular values: the numerical-rank cutoff of
    `np.linalg.lstsq(rcond=None)` and `np.linalg.matrix_rank`, below which
    a singular value counts as zero.  No singular value gives 0."""
    return float(max(shape) * np.finfo(np.float64).eps * singular_values.max(initial=0.0))


class ForwardOperator(ABC):
    """Map F from length-n coefficient vectors to length-m data vectors.

    Subclasses implement `apply`, `derivative_apply` and
    `derivative_adjoint_apply`, each for one vector or a (B, n) (or
    (B, m)) stack of rows.  The structural queries `column_norms_sq` (of a
    linear kind), `derivative_columns` and `derivative_adjoint_solve` (at
    single vectors) have generic fallbacks (unit-vector applies, or no
    solve) that kinds holding their matrix, diagonal or frequency response
    override.
    """

    _n: int
    _m: int
    _linear: bool

    @property
    def n(self) -> int:
        """Input (coefficient) dimension."""
        return self._n

    @property
    def m(self) -> int:
        """Output (data) dimension."""
        return self._m

    @property
    def is_linear(self) -> bool:
        return self._linear

    @abstractmethod
    def apply(self, u) -> np.ndarray:
        """Evaluate F(u)."""

    @abstractmethod
    def derivative_apply(self, u, h) -> np.ndarray:
        """Evaluate the derivative of F at u in direction h."""

    @abstractmethod
    def derivative_adjoint_apply(self, u, y) -> np.ndarray:
        """Evaluate the adjoint of the derivative of F at u on y."""

    def column_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of each column of a linear operator.

        This fallback applies the operator to every unit vector, n applies
        in all; kinds that hold their structure override it.  A nonlinear
        kind gets the columns of its derivative at the zero vector.
        """
        at = np.zeros(self.n)
        unit = np.zeros(self.n)
        out = np.empty(self.n)
        for j in range(self.n):
            unit[j] = 1.0
            column = self.derivative_apply(at, unit)
            out[j] = column @ column
            unit[j] = 0.0
        return out

    def derivative_columns(self, at, columns) -> np.ndarray:
        """The given columns of the derivative at `at`, as an m-by-k array.

        This fallback applies the derivative to one unit vector per
        column; kinds that store their matrix or diagonal override it.
        """
        at = _as_vector(at, self.n, "linearization point")
        columns = np.asarray(columns, dtype=np.intp)
        cols = np.empty((self.m, columns.size))
        unit = np.zeros(self.n)
        for k, j in enumerate(columns):
            unit[j] = 1.0
            cols[:, k] = self.derivative_apply(at, unit)
            unit[j] = 0.0
        return cols

    def _rows(self, keep) -> "ForwardOperator":
        """The operator that acts on the batch rows `keep`.

        One operator serves every row; a stack with one operator per row
        overrides this to keep only the given rows, which it moves to the
        front of its own storage instead of copying them, so the caller
        drops the operator it called this on.
        """
        return self

    def derivative_adjoint_solve(self, at, xi) -> Optional[np.ndarray]:
        """omega with F'(at)* omega = xi, or None when no structured solve applies.

        A kind answers only when its derivative is square and every
        singular value exceeds `_rank_cutoff`, max(m, n) * eps * sigma_max,
        below which `np.linalg.lstsq(rcond=None)` treats a singular value
        as zero; the solve then agrees with the least-squares one.  The
        generic operator answers None.
        """
        return None


class _DenseLinear(ForwardOperator):
    """Linear operator held as an (m, n) matrix, or as a (B, m, n) stack of
    matrices that acts on (B, n) rows, row b through matrix b.

    The stacked products are those of _matvec, so each row is bit-identical
    to acting with its own matrix alone.  The matrix is taken as given:
    make_dense_linear checks a matrix from outside.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self._m, self._n = matrix.shape[-2:]
        self._linear = True

    def apply(self, u):
        return _matvec(self.matrix, _as_rows(u, self._n, "coefficient vector"))

    def derivative_apply(self, u, h):
        return _matvec(self.matrix, _as_rows(h, self._n, "direction"))

    def derivative_adjoint_apply(self, u, y):
        return _matvec(np.swapaxes(self.matrix, -1, -2), _as_rows(y, self._m, "data vector"))

    def column_norms_sq(self):
        return np.einsum("...ij,...ij->...j", self.matrix, self.matrix)

    def derivative_columns(self, at, columns):
        return self.matrix[..., np.asarray(columns, dtype=np.intp)]

    def _rows(self, keep):
        if self.matrix.ndim == 2:
            return self
        moved = np.flatnonzero(keep != np.arange(keep.size))
        self.matrix[moved] = self.matrix[keep[moved]]
        return _DenseLinear(self.matrix[: keep.size])


class _DiagonalLinear(ForwardOperator):
    def __init__(self, singular_values):
        s = np.asarray(singular_values, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("singular values must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise ValueError("singular values must be positive and finite")
        self.singular_values = s
        self._n = self._m = s.size
        self._linear = True

    def apply(self, u):
        return self.singular_values * _as_rows(u, self._n, "coefficient vector")

    def derivative_apply(self, u, h):
        return self.singular_values * _as_rows(h, self._n, "direction")

    def derivative_adjoint_apply(self, u, y):
        return self.singular_values * _as_rows(y, self._m, "data vector")

    def column_norms_sq(self):
        return self.singular_values * self.singular_values

    def derivative_columns(self, at, columns):
        columns = np.asarray(columns, dtype=np.intp)
        cols = np.zeros((self._n, columns.size))
        cols[columns, np.arange(columns.size)] = self.singular_values[columns]
        return cols

    def derivative_adjoint_solve(self, at, xi):
        s = self.singular_values
        if s.min() <= _rank_cutoff(s, (self._n, self._n)):
            return None
        return _as_vector(xi, self._n, "subgradient") / s


class _CircularConvolution(ForwardOperator):
    def __init__(self, kernel, n: int):
        k = np.asarray(kernel, dtype=np.float64)
        if k.ndim != 1 or k.size == 0:
            raise ValueError("kernel must be a nonempty 1-d sequence")
        if k.size > n:
            raise ValueError(f"kernel length {k.size} exceeds signal length {n}")
        if not np.all(np.isfinite(k)):
            raise ValueError("kernel entries must be finite")
        self.kernel = k
        padded = np.zeros(n)
        padded[: k.size] = k
        # frequency response; multiplying by its conjugate applies the
        # transpose (correlation with the kernel)
        self._khat = np.fft.rfft(padded)
        self._n = self._m = n
        self._linear = True

    # the transforms run along the last axis, once per row of a stack
    def apply(self, u):
        u = _as_rows(u, self._n, "coefficient vector")
        return np.fft.irfft(np.fft.rfft(u) * self._khat, self._n)

    def derivative_apply(self, u, h):
        return self.apply(h)

    def derivative_adjoint_apply(self, u, y):
        y = _as_rows(y, self._m, "data vector")
        return np.fft.irfft(np.fft.rfft(y) * np.conj(self._khat), self._n)

    def column_norms_sq(self):
        # every column is a circular shift of the zero-padded kernel
        return np.full(self._n, float(self.kernel @ self.kernel))

    def derivative_adjoint_solve(self, at, xi):
        # the singular values are the moduli of the frequency response
        modulus = np.abs(self._khat)
        if modulus.min() <= _rank_cutoff(modulus, (self._n, self._n)):
            return None
        xi = _as_vector(xi, self._n, "subgradient")
        return np.fft.irfft(np.fft.rfft(xi) / np.conj(self._khat), self._n)


class _ToyNonlinear(ForwardOperator):
    """F(u) = A u + eps * B (u * u), with closed-form derivative."""

    def __init__(self, a, b, eps: float):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
            raise ValueError(
                f"matrices must be 2-d with equal shapes, got {a.shape} and {b.shape}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(eps)):
            raise ValueError("matrix entries and eps must be finite")
        self.a_matrix = a
        self.b_matrix = b
        self.eps = float(eps)
        self._m, self._n = a.shape
        self._linear = False

    def apply(self, u):
        u = _as_rows(u, self._n, "coefficient vector")
        return _matvec(self.a_matrix, u) + self.eps * _matvec(self.b_matrix, u * u)

    def derivative_apply(self, u, h):
        u = _as_rows(u, self._n, "linearization point")
        h = _as_rows(h, self._n, "direction")
        return _matvec(self.a_matrix, h) + 2.0 * self.eps * _matvec(self.b_matrix, u * h)

    def derivative_adjoint_apply(self, u, y):
        u = _as_rows(u, self._n, "linearization point")
        y = _as_rows(y, self._m, "data vector")
        return _matvec(self.a_matrix.T, y) + 2.0 * self.eps * u * _matvec(self.b_matrix.T, y)

    def derivative_columns(self, at, columns):
        # column j of the derivative at u is a_j + 2*eps*u_j*b_j, rounded
        # as derivative_apply rounds it for the unit vector e_j; take()
        # keeps the row-major layout of the fallback, so products with the
        # result sum in the same order
        at = _as_vector(at, self._n, "linearization point")
        columns = np.asarray(columns, dtype=np.intp)
        scaled = np.take(self.b_matrix, columns, axis=1) * at[columns]
        return np.take(self.a_matrix, columns, axis=1) + 2.0 * self.eps * scaled


def make_dense_linear(matrix) -> ForwardOperator:
    """Linear operator given by an explicit m-by-n matrix.

    The matrix must be 2-d, nonempty and finite; a stack of matrices is
    built only inside the package, by the Gauss-Newton solver.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"matrix must be 2-d and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _DenseLinear(a)


def make_diagonal_linear(singular_values) -> ForwardOperator:
    """Square linear operator that scales coefficient i by the i-th value.

    Decaying values model increasingly ill-posed problems; the values are
    required positive so the operator stays injective.
    """
    return _DiagonalLinear(singular_values)


def make_convolution_linear(kernel, n: int) -> ForwardOperator:
    """Circular convolution with the given kernel on length-n vectors.

    The adjoint is correlation, implemented as convolution with the
    reversed kernel via the conjugate frequency response.
    """
    return _CircularConvolution(kernel, n)


def make_toy_nonlinear(a, b, eps: float) -> ForwardOperator:
    """Differentiable nonlinear operator F(u) = A u + eps * B (u*u).

    eps = 0 degenerates to the dense linear operator A, which makes the
    nonlinear solver path directly comparable with the linear one.
    """
    return _ToyNonlinear(a, b, eps)


def operator_norm_sq(op: ForwardOperator, at=None) -> float:
    """Largest eigenvalue of F'(u)* F'(u), the squared derivative norm at u.

    Power iteration from a fixed seeded start vector, 200 iterations or
    relative Rayleigh-quotient change below 1e-10; works for matrix-free
    operators.  `at` defaults to the zero vector.
    """
    at = _as_vector(np.zeros(op.n) if at is None else at, op.n, "linearization point")

    def gram(x):
        return op.derivative_adjoint_apply(at, op.derivative_apply(at, x))

    return _power_iteration(gram, _power_start(op.n))[0]


def _power_start(n: int) -> np.ndarray:
    """The seeded start vector of the power iteration, before scaling."""
    return np.random.default_rng(0).standard_normal(n)


def _power_iteration(gram, start):
    """Top eigenvalue and normalized eigenvector of a symmetric PSD map.

    `gram` maps a (B, n) stack of rows to their images, such as
    x -> K^T K x.  The iteration starts from `start` normalized (in a
    copy); a nearby top eigenvector, such as the one returned for a
    neighbouring map, meets the stopping rule in fewer iterations.  A
    (B, n) `start` runs one iteration per row, for a map with one operator
    per row: each row stops on its own rule, and from then on its values
    are frozen, so it gets the values it would get alone.  Returns
    (float, vector) for a 1-d start, else ((B,), (B, n)).
    """
    x = np.atleast_2d(start)
    x = x / _row_norms(x)[:, None]
    lam = np.zeros(x.shape[0])
    live = np.ones(x.shape[0], dtype=bool)
    for _ in range(200):
        z = gram(x)
        lam_new = _row_dots(x, z)
        nz = _row_norms(z)
        # a zero image gives lam_new = 0 and leaves x as it is
        settled = np.abs(lam_new - lam) <= 1e-10 * np.maximum(np.abs(lam_new), 1.0)
        lam = np.where(live, lam_new, lam)
        live &= (nz != 0.0) & ~settled
        if not live.any():
            break
        x[live] = z[live] / nz[live, None]
    if start.ndim == 1:
        return float(lam[0]), x[0]
    return lam, x


def load_matrix_csv(path) -> np.ndarray:
    """Read a row-major, header-free CSV file as a dense matrix."""
    with warnings.catch_warnings():
        # empty input is reported as a ValueError below, not a warning
        warnings.simplefilter("ignore", UserWarning)
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if a.size == 0:
        raise ValueError(f"matrix file {path} is empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"matrix file {path} contains non-finite entries")
    return a
