"""Structural conditions behind the convergence rates, and the error bounds.

Three verifiable ingredients feed the rate predictions: a source
certificate (the penalty subgradient at the reference solution must be
reachable through the adjoint of the operator derivative), injectivity of
the derivative on the support columns, and a growth inequality linking the
penalty gap to the reconstruction error.  This module constructs the
certificates, estimates the growth-inequality coefficients for linear
operators, validates them by sampling, and evaluates the closed-form
error and residual bounds they imply.  check_sparse_rate_conditions is
the one hypothesis stage: it combines every check and the validated
constants into the verdict that `sparsereg check` writes to check.json
and that `sparsereg sweep` reports in rate.json; its verdict and the
sparse rate constants read one `_sparse_hypotheses` record per instance.
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .operators import ForwardOperator, _as_vector, _rank_cutoff, _row_norms, operator_norm_sq
from .penalty import (
    PenaltySpec,
    _penalty_value,
    penalty_subgradient,
    penalty_value,
    scalar_bregman_constant,
)
from .solver import _check_p

__all__ = [
    "SourceCertificate",
    "InjectivityReport",
    "RateConstants",
    "ValidationReport",
    "derivative_matrix",
    "check_source_condition",
    "check_support_injectivity",
    "estimate_rate_constants",
    "validate_rate_inequality",
    "theoretical_bound",
    "check_sparse_rate_conditions",
]

# coefficients smaller than this count as zero when detecting supports;
# reference solutions are constructed exactly, so this only guards float noise
SUPPORT_TOL = 1e-12

_CERT_TOL = 1e-8

# data-shift radius of the region where the sparse q > 1 constants hold
_RESIDUAL_RADIUS = 1.0

# the sampled checks draw and evaluate their perturbations in chunks of rows
# whose coefficient and data arrays hold at most this many float64 entries
# each, so their memory stays flat in n and m
_SAMPLE_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class SourceCertificate:
    """Subgradient at the reference solution written as adjoint of a dual vector.

    source_norm is the norm of the dual vector; it is the constant that
    converts data-space distances into penalty-gap bounds.
    """

    subgradient: np.ndarray
    source_element: np.ndarray
    residual: float
    source_norm: float


@dataclass(frozen=True)
class InjectivityReport:
    """Smallest singular value of the derivative restricted to a set of
    columns; `support` holds their indices."""

    support: np.ndarray
    smallest_singular_value: float
    injectivity_constant: float
    rank_cutoff: float = 0.0

    @property
    def injective(self) -> bool:
        return self.smallest_singular_value > self.rank_cutoff


@dataclass(frozen=True)
class RateConstants:
    """Coefficients of the growth inequality

        penalty(u) - penalty(ref) >= norm_coeff*||u - ref||^exponent
                                     - residual_coeff*||F(u) - F(ref)||

    valid on the region penalty(u) < penalty_radius and
    ||F(u) - F(ref)|| < residual_radius.  A radius of inf leaves the
    region unbounded in that direction; the JSON artifacts write it as
    null.
    """

    norm_coeff: float
    residual_coeff: float
    exponent: float
    penalty_radius: float
    residual_radius: float
    validated: bool = False


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of sampling the growth inequality around the reference.

    n_violations counts every violating sample; violations keeps the
    first ten.  A validation passes only if some sample fell inside the
    validity region and none of them violated the inequality.
    """

    n_samples: int
    n_in_region: int
    n_violations: int
    worst_slack: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return self.n_in_region > 0 and self.n_violations == 0


def derivative_matrix(op: ForwardOperator, at) -> np.ndarray:
    """Dense m-by-n matrix of the operator derivative at a point."""
    return op.derivative_columns(at, range(op.n))


def _support(u) -> np.ndarray:
    return np.flatnonzero(np.abs(u) > SUPPORT_TOL)


def _reference(op: ForwardOperator, u_dagger) -> np.ndarray:
    """u_dagger as a float64 vector; ValueError unless it is a finite
    vector of length op.n.  A NaN entry counts as off the support and fails
    every comparison, so no check can judge a non-finite reference."""
    u_dagger = _as_vector(u_dagger, op.n, "reference solution")
    if not np.all(np.isfinite(u_dagger)):
        raise ValueError("reference solution must be finite")
    return u_dagger


def check_source_condition(
    op: ForwardOperator, u_dagger, spec: PenaltySpec
) -> Optional[SourceCertificate]:
    """Certificate that a penalty subgradient lies in the adjoint range.

    The subgradient xi = penalty_subgradient(u_dagger) is fixed wherever
    the penalty fixes it: on every coordinate for q > 1, on the support
    for q = 1.  For q = 1 it is free in [-w, w] off the support, and the
    certificate takes F'(u)* omega there (the dual certificate of Fuchs
    2004).  One dual vector omega is computed for every q, and one check
    verifies it.

    The operator's structured solve `derivative_adjoint_solve` runs first,
    on xi with its free coordinates set to 0.  It answers only for a
    square derivative whose singular values all exceed the cutoff
    max(m, n)*eps*sigma_max that lstsq uses; then every free value is
    reachable, so zero is the least-l2 completion and both routes give
    the same certificate.  Otherwise the dense route assembles the
    derivative matrix and calls `_least_l2_completion`.

    The check applies the adjoint to omega.  On the fixed coordinates
    ||F'(u)* omega - xi|| must stay within _CERT_TOL*(1 + ||xi||); that
    norm is the recorded residual.  On the free ones |F'(u)* omega| must
    stay within the weights.  Both tests ask for a value inside its bound,
    so a NaN (a subgradient that overflows, say) fails them.  Returns None
    when either fails; the certificate's subgradient is xi on the fixed
    coordinates and F'(u)* omega on the free ones.  Raises ValueError
    unless u_dagger is a finite vector of length n.
    """
    u_dagger = _reference(op, u_dagger)
    fixed = np.arange(op.n) if spec.q > 1.0 else _support(u_dagger)
    free = np.delete(np.arange(op.n), fixed)
    xi = penalty_subgradient(u_dagger, spec)
    xi[free] = 0.0
    omega = op.derivative_adjoint_solve(u_dagger, xi)
    if omega is None:
        adjoint = derivative_matrix(op, u_dagger).T
        omega = _least_l2_completion(adjoint, fixed, xi[fixed])
        reached = adjoint @ omega
    else:
        reached = op.derivative_adjoint_apply(u_dagger, omega)
    residual = float(np.linalg.norm(reached[fixed] - xi[fixed]))
    if not residual <= _CERT_TOL * (1.0 + float(np.linalg.norm(xi[fixed]))):
        return None
    if not np.all(np.abs(reached[free]) <= spec.weights[free] * (1.0 + 1e-10)):
        return None
    xi[free] = reached[free]
    return SourceCertificate(
        subgradient=xi,
        source_element=omega,
        residual=residual,
        source_norm=float(np.linalg.norm(omega)),
    )


def _least_l2_completion(adjoint, fixed, target):
    """Dual vector omega for the dense adjoint, by lstsq and SVD.

    omega solves the fixed rows, adjoint[fixed] @ omega = target, in the
    least-squares sense.  When some rows are free, omega then moves
    within the null space of the fixed rows to the least l2 norm of the
    free entries of adjoint @ omega.  Least l2 does not in general
    minimize the largest free entry, so a certificate with a margin below
    the weights may exist although this one exceeds them.  With no free
    row there is nothing to complete and no SVD is computed.  The caller
    verifies omega.
    """
    rows = adjoint[fixed]
    omega, *_ = np.linalg.lstsq(rows, target, rcond=None)
    free = np.delete(np.arange(adjoint.shape[0]), fixed)
    if free.size == 0:
        return omega
    _, svd_s, svd_vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(svd_s > _rank_cutoff(svd_s, rows.shape)))
    null_basis = svd_vt[rank:].T
    if null_basis.shape[1] > 0:
        block = adjoint[free] @ null_basis
        correction, *_ = np.linalg.lstsq(block, -adjoint[free] @ omega, rcond=None)
        omega = omega + null_basis @ correction
    return omega


def check_support_injectivity(op: ForwardOperator, u_dagger) -> InjectivityReport:
    """Smallest singular value of the derivative columns on the support of
    u_dagger, by `_injectivity`.  An empty support reports an infinite
    constant: there is nothing to invert.  Raises ValueError unless
    u_dagger is a finite vector of length n."""
    u_dagger = _reference(op, u_dagger)
    return _injectivity(op, u_dagger, _support(u_dagger))


def _injectivity(op, at, columns) -> InjectivityReport:
    """Smallest singular value of the derivative at `at` on the given columns.

    columns is an integer index array, as np.flatnonzero returns.  Only
    those columns are assembled, through the operator's
    `derivative_columns`: stored columns where the operator holds them,
    one derivative apply each otherwise.  A singular value at or below
    `_rank_cutoff` counts as zero and makes the constant infinite; no
    column reports an infinite constant with nothing to invert.
    """
    if columns.size == 0:
        return InjectivityReport(
            support=columns, smallest_singular_value=np.inf, injectivity_constant=np.inf
        )
    cols = op.derivative_columns(at, columns)
    singular = np.linalg.svd(cols, compute_uv=False)
    sigma = float(singular.min())
    cutoff = _rank_cutoff(singular, cols.shape)
    constant = 1.0 / sigma if sigma > cutoff else np.inf
    return InjectivityReport(
        support=columns,
        smallest_singular_value=sigma,
        injectivity_constant=constant,
        rank_cutoff=cutoff,
    )


def _constants_quadratic(op, u_dagger, spec, cert) -> RateConstants:
    # general construction: curvature of the penalty alone gives exponent 2,
    # valid while the penalty stays below its reference value plus w_min
    curvature = scalar_bregman_constant(spec.q) * spec.w_min**2
    ref_penalty = penalty_value(u_dagger, spec)
    return RateConstants(
        norm_coeff=curvature / (4.0 * spec.w_min + 3.0 * ref_penalty),
        residual_coeff=cert.source_norm,
        exponent=2.0,
        penalty_radius=ref_penalty + spec.w_min,
        residual_radius=np.inf,
    )


def _sparse_hypotheses(op, u_dagger, spec, cert):
    """(on_support, on_columns, off_support, margin) at a checked u_dagger.

    The injectivity reports on the support, which the verdict tests, and on
    the columns the sparse constants need injective: the support, or for a
    linear q = 1 instance with a certificate every column where it reaches
    w_min.  One report serves both where the sets coincide.  For such an
    instance, the largest |xi_j| off each set (0 off none); else None.
    """
    support = _support(u_dagger)
    on_support = _injectivity(op, u_dagger, support)
    if spec.q > 1.0 or cert is None or not op.is_linear:
        return on_support, on_support, None, None
    xi = np.abs(cert.subgradient)
    columns = np.flatnonzero(xi >= spec.w_min * (1.0 - 1e-12))
    off_support = float(np.max(np.delete(xi, support), initial=0.0))
    if np.array_equal(columns, support):
        return on_support, on_support, off_support, off_support
    # columns takes every entry that reaches w_min, so margin < w_min
    margin = float(np.max(np.delete(xi, columns), initial=0.0))
    return on_support, _injectivity(op, u_dagger, columns), off_support, margin


def _constants_sparse(op, u_dagger, spec, cert, hypotheses) -> RateConstants:
    # sparse construction for every q: the error on the columns that must be
    # injective is controlled through their injectivity constant c, the
    # error off them through the penalty gap; for q = 1 the margin below
    # w_min off them sets the growth coefficient
    _, inj, _, margin = hypotheses
    # no column leaves nothing to invert; rank-deficient columns have c = inf
    c = inj.injectivity_constant if inj.support.size else 0.0
    if not np.isfinite(c):
        name = "support" if spec.q > 1.0 else "certificate"
        raise ValueError(f"{name} columns of the derivative are rank-deficient")
    op_norm = np.sqrt(operator_norm_sq(op, u_dagger))
    if spec.q > 1.0:
        norm_coeff = spec.w_min / (2.0 * (1.0 + 2.0 * c**spec.q * op_norm**spec.q))
        residual_coeff = (
            cert.source_norm + 4.0 * c**spec.q * _RESIDUAL_RADIUS ** (spec.q - 1.0) * norm_coeff
        )
        residual_radius = _RESIDUAL_RADIUS
    else:
        norm_coeff = (spec.w_min - margin) / (1.0 + c * op_norm)
        residual_coeff = cert.source_norm + c * norm_coeff
        residual_radius = np.inf
    return RateConstants(
        norm_coeff=norm_coeff,
        residual_coeff=residual_coeff,
        exponent=spec.q,
        penalty_radius=np.inf,
        residual_radius=residual_radius,
    )


def _check_sampling(n_samples: int, radius: float) -> None:
    """The sampled checks need at least 100 samples at a positive, finite
    radius: fewer samples, or a radius of 0 or NaN, checks nothing."""
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")


def _sample_perturbations(op, u_dagger, spec, n_samples, radius, seed, linearization=False):
    """Penalty and data shift at u_dagger + radius*d for n_samples unit directions d.

    The directions are the rows of one default_rng(seed) standard-normal
    stream, drawn and evaluated in chunks of rows, each array of a chunk
    holding at most _SAMPLE_CHUNK_ENTRIES entries.  Returns (pen,
    data_shift, lin_err), one entry per sample: the penalty at the sample,
    ||F(u) - F(u_dagger)|| and, with linearization,
    ||F(u) - F(u_dagger) - F'(u_dagger)(u - u_dagger)|| (None otherwise).
    Each row is reduced by a stacked dot product, so every value is
    bit-identical to drawing and evaluating its sample alone.
    """
    rng = np.random.default_rng(seed)
    ref_data = op.apply(u_dagger)
    pen = np.empty(n_samples)
    data_shift = np.empty(n_samples)
    lin_err = np.empty(n_samples) if linearization else None
    rows = max(1, _SAMPLE_CHUNK_ENTRIES // max(op.n, op.m))
    buffer = np.empty((min(rows, n_samples), op.n))
    for first in range(0, n_samples, rows):
        chunk = slice(first, min(first + rows, n_samples))
        u = buffer[: chunk.stop - first]
        rng.standard_normal(out=u)
        u /= _row_norms(u)[:, None]
        u *= radius
        u += u_dagger
        shifted = op.apply(u)
        shifted -= ref_data
        pen[chunk] = _penalty_value(u, spec)
        data_shift[chunk] = _row_norms(shifted)
        if linearization:
            miss = shifted - op.derivative_apply(u_dagger, u - u_dagger)
            lin_err[chunk] = _row_norms(miss)
    return pen, data_shift, lin_err


def validate_rate_inequality(
    op: ForwardOperator,
    u_dagger,
    spec: PenaltySpec,
    constants: RateConstants,
    n_samples: int = 1000,
    radius: float = 0.1,
    seed: int = 0,
) -> ValidationReport:
    """Sample the growth inequality on fixed-radius perturbations.

    Samples outside the validity region are skipped.  Slack below -1e-9
    counts as a violation; the report counts every violation and keeps
    the first ten as (sample index, slack) pairs.  Raises ValueError for
    fewer than 100 samples, a radius that is not positive and finite, or
    a u_dagger that is not a finite vector of length n.
    """
    _check_sampling(n_samples, radius)
    u_dagger = _reference(op, u_dagger)
    ref_penalty = penalty_value(u_dagger, spec)
    pen, data_shift, _ = _sample_perturbations(op, u_dagger, spec, n_samples, radius, seed)
    outside = (pen >= constants.penalty_radius) | (data_shift >= constants.residual_radius)
    index = np.flatnonzero(~outside)
    slack = (
        pen[index]
        - ref_penalty
        - constants.norm_coeff * radius**constants.exponent
        + constants.residual_coeff * data_shift[index]
    )
    violated = slack < -1e-9
    first = zip(index[violated][:10].tolist(), slack[violated][:10].tolist())
    return ValidationReport(
        n_samples=n_samples,
        n_in_region=int(index.size),
        n_violations=int(np.count_nonzero(violated)),
        # fmin skips a NaN slack, which the comparisons above never count
        worst_slack=float(np.fmin.reduce(slack, initial=np.inf)),
        violations=tuple(first),
    )


def estimate_rate_constants(
    op: ForwardOperator,
    u_dagger,
    spec: PenaltySpec,
    cert: Optional[SourceCertificate],
    exponent: float,
    n_samples: int = 1000,
    radius: float = 0.1,
    seed: int = 0,
) -> RateConstants:
    """Growth-inequality coefficients for a linear operator, by construction.

    exponent selects one of two constructions.  The sparse one,
    `_constants_sparse`, serves exponent 1 with q = 1, and exponent q
    (within 1e-12) with a sparse reference; its exponent is q, and q only
    picks the columns that must be injective (see `_sparse_hypotheses`).
    The quadratic one serves exponent 2 with q > 1.  When exponent = q = 2
    the sparse construction is preferred if the reference is sparse.  The
    returned coefficients are validated on n_samples perturbations;
    violations raise with the offending samples listed, as does a u_dagger
    that is not a finite vector of length n.
    cert is the source certificate of (op, u_dagger, spec) from
    check_source_condition, or None when the source condition fails.
    """
    if not op.is_linear:
        raise ValueError("rate-constant constructions require a linear operator")
    _check_sampling(n_samples, radius)
    u_dagger = _reference(op, u_dagger)
    return _rate_constants(op, u_dagger, spec, cert, exponent, None, n_samples, radius, seed)


def _rate_constants(
    op, u_dagger, spec, cert, exponent, hypotheses, n_samples, radius, seed
) -> RateConstants:
    """estimate_rate_constants after its argument checks; hypotheses is
    `_sparse_hypotheses` of the instance, or None to compute it if needed."""
    if cert is None:
        raise ValueError("source condition fails: subgradient not in the adjoint range")
    sparse = _support(u_dagger).size < op.n
    if exponent == 1.0 and spec.q != 1.0:
        raise ValueError("exponent 1 requires q = 1")
    if exponent == 1.0 or (abs(exponent - spec.q) <= 1e-12 and sparse):
        hypotheses = hypotheses or _sparse_hypotheses(op, u_dagger, spec, cert)
        constants = _constants_sparse(op, u_dagger, spec, cert, hypotheses)
    elif exponent == 2.0 and spec.q > 1.0:
        constants = _constants_quadratic(op, u_dagger, spec, cert)
    else:
        raise ValueError(
            f"unsupported exponent {exponent} for q = {spec.q}"
            + ("" if sparse else " with a non-sparse reference")
        )
    report = validate_rate_inequality(
        op, u_dagger, spec, constants, n_samples=n_samples, radius=radius, seed=seed
    )
    if report.n_in_region == 0:
        raise ValueError(
            f"growth inequality unchecked: none of the {n_samples} samples "
            "fell inside the validity region"
        )
    if not report.passed:
        listed = ", ".join(f"#{i}: slack {s:.3e}" for i, s in report.violations)
        raise ValueError(
            f"growth inequality violated on {report.n_violations} of "
            f"{report.n_in_region} in-region samples ({listed})"
        )
    return replace(constants, validated=True)


def _check_p1_coupling(p: int, constants: Optional[RateConstants], alpha: float) -> None:
    """ValueError unless alpha*residual_coeff < 1, which the p = 1 bounds
    need; a p = 1 sweep's alpha is its c_alpha.  No constants: no check."""
    if p == 1 and constants is not None and not alpha * constants.residual_coeff < 1.0:
        raise ValueError(
            "p = 1 bounds need alpha*residual_coeff < 1, alpha below the reciprocal "
            f"of the residual coefficient; got {alpha * constants.residual_coeff:.6g}"
        )


def theoretical_bound(constants: RateConstants, p: int, alpha: float, delta: float):
    """Closed-form error and residual bounds implied by the constants.

    Returns (err_bound, residual_bound) comparable directly to the
    reconstruction error norm and the data residual norm.  For p = 1 the
    bounds require alpha*residual_coeff < 1 and vanish at delta = 0; the
    p = 2 residual bound is the square root of the bound on the squared
    residual.
    """
    _check_p(p)
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    _check_p1_coupling(p, constants, alpha)
    coupling = alpha * constants.residual_coeff
    if p == 1:
        err_pow = (1.0 + coupling) * delta / (alpha * constants.norm_coeff)
        residual_bound = (1.0 + coupling) * delta / (1.0 - coupling)
    else:
        # as float64 scalars a square too large for a double is inf, where
        # Python float ** raises OverflowError; both call the same pow
        delta, coupling = np.float64(delta), np.float64(coupling)
        with np.errstate(over="ignore"):
            err_pow = (delta**2 + coupling * delta + 0.5 * coupling**2) / (
                alpha * constants.norm_coeff
            )
            residual_bound = np.sqrt(2.0 * delta**2 + 2.0 * coupling * delta + coupling**2)
    return float(err_pow ** (1.0 / constants.exponent)), float(residual_bound)


def _linearization_fit(op, u_dagger, spec, n_samples, radius, seed) -> dict:
    """check.json's sampled linearization-error fit: with that coefficient
    pinned at one, the least data-shift coefficient covering every sample.
    A sample with unmoved data must be covered by the penalty gap alone."""
    pen, data_shift, lin_err = _sample_perturbations(
        op, u_dagger, spec, n_samples, radius, seed, linearization=True
    )
    gap = pen - penalty_value(u_dagger, spec)
    still = data_shift <= 0.0
    excess = (lin_err[~still] - gap[~still]) / data_shift[~still]
    return {
        "passed": not np.any(gap[still] < lin_err[still] - 1e-12),
        "linearization_coeff": 1.0,
        "data_shift_coeff": max(float(np.fmax.reduce(excess, initial=0.0)), 1e-12),
        "n_samples": n_samples,
        "radius": radius,
    }


def check_sparse_rate_conditions(
    op: ForwardOperator,
    u_dagger,
    spec: PenaltySpec,
    cert: Optional[SourceCertificate],
    n_samples: int = 1000,
    radius: float = 0.1,
    seed: int = 0,
) -> tuple[dict, Optional[RateConstants]]:
    """The hypothesis stage: every check behind the sparse-solution rates,
    the rate constants, and one verdict.

    Returns (payload, constants).  payload is what `sparsereg check`
    writes to check.json: "checks", the report of each hypothesis;
    "constants", the validated rate constants or why there are none; and
    "passed", true when every check passes and so do the constants where
    they apply.  constants is the validated RateConstants, or None.

    Linear operators reduce to the source condition plus support
    injectivity (for q = 1 also the off-support margin, with the penalty
    gap split in half), and get the rate constants of exponent q that
    estimate_rate_constants returns, from the same `_sparse_hypotheses`;
    the ValueError of a failed construction or validation is recorded as
    the constants' error.  Nonlinear operators get `_linearization_fit`
    instead; the explicit constant constructions do not apply to them.
    cert is the source certificate of (op, u_dagger, spec) from
    check_source_condition, or None when the source condition fails.
    Raises ValueError, before any check, for fewer than 100 samples, a
    radius that is not positive and finite, or a u_dagger that is not a
    finite vector of length n.
    """
    _check_sampling(n_samples, radius)
    u_dagger = _reference(op, u_dagger)
    hypotheses = _sparse_hypotheses(op, u_dagger, spec, cert)
    inj, _, off_support, _ = hypotheses
    report: dict = {
        "linear": bool(op.is_linear),
        "q": spec.q,
        "sparsity": int(inj.support.size),
        "sparse": bool(inj.support.size < op.n),
    }
    if cert is None:
        report["source_condition"] = {"passed": False}
    else:
        report["source_condition"] = {
            "passed": True,
            "residual": cert.residual,
            "source_norm": cert.source_norm,
        }
    report["support_injectivity"] = {
        **asdict(inj),
        "support": inj.support.tolist(),
        "injective": inj.injective,
        "passed": inj.injective,
    }
    if off_support is not None:
        report["off_support_margin"] = {
            "passed": off_support < spec.w_min,
            "max_off_support": off_support,
            "min_weight": spec.w_min,
            "gap_split": 0.5,
        }
    constants = None
    if op.is_linear:
        try:
            constants = _rate_constants(
                op, u_dagger, spec, cert, spec.q, hypotheses, n_samples, radius, seed
            )
        except ValueError as exc:
            rates = {"passed": False, "error": str(exc)}
        else:
            rates = {**asdict(constants), "passed": True}
    else:
        report["linearization_inequality"] = _linearization_fit(
            op, u_dagger, spec, n_samples, radius, seed
        )
        rates = {"applicable": False}
    # the verdict: a sparse reference, and every entry above passes
    report["passed"] = report["sparse"] and all(
        entry["passed"] for entry in report.values() if isinstance(entry, dict)
    )
    passed = report["passed"] and rates.get("passed", True)
    return {"checks": report, "constants": rates, "passed": passed}, constants
