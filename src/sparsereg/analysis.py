"""Structural conditions behind the convergence rates, and the error bounds.

Three verifiable ingredients feed the rate predictions: a source
certificate (the penalty subgradient at the reference solution must be
reachable through the adjoint of the operator derivative), injectivity of
the derivative on the support columns, and a growth inequality linking the
penalty gap to the reconstruction error.  This module constructs the
certificates, estimates the growth-inequality coefficients for linear
operators, validates them by sampling, and evaluates the closed-form
error and residual bounds they imply.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .operators import ForwardOperator, _row_dots, operator_norm_sq
from .penalty import (
    PenaltySpec,
    _penalty_value,
    penalty_subgradient,
    penalty_value,
    scalar_bregman_constant,
)

__all__ = [
    "SUPPORT_TOL",
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

# the sampled checks draw and evaluate their perturbations in chunks of rows
# whose coefficient and data arrays hold at most this many float64 entries
# each, so their memory stays flat in n and m
_SAMPLE_CHUNK_ENTRIES = 1 << 12


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
    """Smallest singular value of the derivative restricted to the support."""

    support: np.ndarray
    smallest_singular_value: float
    injectivity_constant: float
    rank_cutoff: float = 0.0

    @property
    def injective(self) -> bool:
        return self.smallest_singular_value > self.rank_cutoff

    def to_dict(self) -> dict:
        return {
            "support": self.support.tolist(),
            "smallest_singular_value": self.smallest_singular_value,
            "injectivity_constant": self.injectivity_constant,
            "rank_cutoff": self.rank_cutoff,
            "injective": self.injective,
        }


@dataclass(frozen=True)
class RateConstants:
    """Coefficients of the growth inequality

        penalty(u) - penalty(ref) >= norm_coeff*||u - ref||^exponent
                                     - residual_coeff*||F(u) - F(ref)||

    valid on the region penalty(u) < penalty_radius and
    ||F(u) - F(ref)|| < residual_radius.
    """

    norm_coeff: float
    residual_coeff: float
    exponent: float
    penalty_radius: float
    residual_radius: float
    validated: bool = False

    def to_dict(self) -> dict:
        return {
            "norm_coeff": self.norm_coeff,
            "residual_coeff": self.residual_coeff,
            "exponent": self.exponent,
            "penalty_radius": self.penalty_radius,
            "residual_radius": self.residual_radius,
            "validated": self.validated,
        }


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

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_in_region": self.n_in_region,
            "n_violations": self.n_violations,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
        }


def derivative_matrix(op: ForwardOperator, at) -> np.ndarray:
    """Dense m-by-n matrix of the operator derivative at a point."""
    return op.derivative_columns(at, range(op.n))


def _support(u) -> np.ndarray:
    return np.flatnonzero(np.abs(u) > SUPPORT_TOL)


def check_source_condition(
    op: ForwardOperator, u_dagger, spec: PenaltySpec
) -> Optional[SourceCertificate]:
    """Certificate that the penalty subgradient lies in the adjoint range.

    For exponent q > 1 the subgradient xi is unique and the dual vector
    solves F'(u)* omega = xi in the least-squares sense.  For q = 1 the
    subgradient is fixed on the support and free in [-w, w] elsewhere; the
    free part is completed by the representable choice of least l2 norm
    off the support.  That only aims at the margin below the weights that
    the q = 1 rate construction needs: it does not in general minimize the
    largest off-support entry, so a certificate with a margin may exist
    although this one exceeds the weights.

    The operator's structured solve `derivative_adjoint_solve` runs first,
    on xi (q > 1) or on xi = w*sign(u) on the support and 0 elsewhere
    (q = 1).  It answers only for a square derivative whose singular
    values all exceed the cutoff max(m, n)*eps*sigma_max that lstsq uses,
    and then every off-support value is reachable, so zero is the least-l2
    completion: both routes give the same certificate.  Otherwise the
    dense route assembles the derivative matrix and solves by SVD and
    lstsq.  Either way the result is verified by applying the adjoint to
    omega.  Returns None when the subgradient is not in the adjoint range
    or the completion exceeds the weights.
    """
    u_dagger = np.asarray(u_dagger, dtype=np.float64)
    if spec.q > 1.0:
        xi = penalty_subgradient(u_dagger, spec)
        omega = op.derivative_adjoint_solve(u_dagger, xi)
        if omega is None:
            adjoint = derivative_matrix(op, u_dagger).T
            omega, *_ = np.linalg.lstsq(adjoint, xi, rcond=None)
            reached = adjoint @ omega
        else:
            reached = op.derivative_adjoint_apply(u_dagger, omega)
        residual = float(np.linalg.norm(reached - xi))
        if residual > _CERT_TOL * (1.0 + float(np.linalg.norm(xi))):
            return None
        return SourceCertificate(
            subgradient=xi,
            source_element=omega,
            residual=residual,
            source_norm=float(np.linalg.norm(omega)),
        )

    support = _support(u_dagger)
    if support.size == 0:
        zero = np.zeros(op.m)
        return SourceCertificate(
            subgradient=np.zeros(op.n), source_element=zero, residual=0.0, source_norm=0.0
        )
    target = spec.weights[support] * np.sign(u_dagger[support])
    xi = np.zeros(op.n)
    xi[support] = target
    omega = op.derivative_adjoint_solve(u_dagger, xi)
    if omega is None:
        completion = _least_l2_completion(derivative_matrix(op, u_dagger).T, support, target)
        if completion is None:
            return None
        omega, xi = completion
    else:
        xi = op.derivative_adjoint_apply(u_dagger, omega)
    off = np.delete(np.arange(op.n), support)
    if np.any(np.abs(xi[support] - target) > _CERT_TOL * (1.0 + spec.weights[support])):
        return None
    if off.size > 0 and np.any(np.abs(xi[off]) > spec.weights[off] * (1.0 + 1e-10)):
        return None
    return SourceCertificate(
        subgradient=xi,
        source_element=omega,
        residual=0.0,
        source_norm=float(np.linalg.norm(omega)),
    )


def _least_l2_completion(adjoint, support, target):
    """Least-l2 off-support completion on the dense adjoint, by SVD and lstsq.

    Returns (omega, adjoint @ omega) with omega meeting target on the
    support rows, or None when the support rows cannot reach the target.
    """
    rows = adjoint[support]
    omega, *_ = np.linalg.lstsq(rows, target, rcond=None)
    if np.linalg.norm(rows @ omega - target) > _CERT_TOL * (1.0 + np.linalg.norm(target)):
        return None
    # move within the solution set of the support rows to shrink the
    # off-support entries: omega + null-space correction
    svd_u, svd_s, svd_vt = np.linalg.svd(rows, full_matrices=True)
    cutoff = max(rows.shape) * np.finfo(np.float64).eps * (svd_s[0] if svd_s.size else 0.0)
    rank = int(np.sum(svd_s > cutoff))
    null_basis = svd_vt[rank:].T
    off = np.delete(np.arange(adjoint.shape[0]), support)
    if null_basis.shape[1] > 0 and off.size > 0:
        block = adjoint[off] @ null_basis
        correction, *_ = np.linalg.lstsq(block, -adjoint[off] @ omega, rcond=None)
        omega = omega + null_basis @ correction
    return omega, adjoint @ omega


def check_support_injectivity(op: ForwardOperator, u_dagger, support=None) -> InjectivityReport:
    """Smallest singular value of the derivative columns on the support.

    Only the support columns are assembled, through the operator's
    `derivative_columns`: stored columns where the operator holds them,
    one derivative apply each otherwise.  An explicit `support` overrides
    detection from u_dagger.  An empty support reports an infinite
    constant: there is nothing to invert.
    """
    u_dagger = np.asarray(u_dagger, dtype=np.float64)
    if support is None:
        support = _support(u_dagger)
    else:
        support = np.asarray(support, dtype=np.int64)
    if support.size == 0:
        return InjectivityReport(
            support=support, smallest_singular_value=np.inf, injectivity_constant=np.inf
        )
    cols = op.derivative_columns(u_dagger, support)
    singular = np.linalg.svd(cols, compute_uv=False)
    sigma = float(singular.min())
    # numerical-rank cutoff, same convention as matrix_rank
    cutoff = float(max(cols.shape) * np.finfo(np.float64).eps * singular.max())
    constant = 1.0 / sigma if sigma > cutoff else np.inf
    return InjectivityReport(
        support=support,
        smallest_singular_value=sigma,
        injectivity_constant=constant,
        rank_cutoff=cutoff,
    )


def _inverse_bound(op, u_dagger, columns, name: str) -> float:
    """Injectivity constant of the given derivative columns; 0 for none."""
    inj = check_support_injectivity(op, u_dagger, support=columns)
    if inj.support.size == 0:
        return 0.0  # nothing to invert
    if not inj.injective or not np.isfinite(inj.injectivity_constant):
        raise ValueError(f"{name} columns of the derivative are rank-deficient")
    return inj.injectivity_constant


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
        validated=False,
    )


def _constants_sparse_q(op, u_dagger, spec, cert, residual_radius) -> RateConstants:
    # sparse construction for q > 1: split the error into support and
    # off-support parts; the support part is controlled through the
    # injectivity constant, the off-support part through the penalty gap
    c = _inverse_bound(op, u_dagger, _support(u_dagger), "support")
    op_norm = np.sqrt(operator_norm_sq(op, u_dagger))
    norm_coeff = spec.w_min / (2.0 * (1.0 + 2.0 * c**spec.q * op_norm**spec.q))
    residual_coeff = cert.source_norm + 4.0 * c**spec.q * residual_radius ** (spec.q - 1.0) * norm_coeff
    return RateConstants(
        norm_coeff=norm_coeff,
        residual_coeff=residual_coeff,
        exponent=spec.q,
        penalty_radius=np.inf,
        residual_radius=residual_radius,
        validated=False,
    )


def _constants_sparse_1(op, u_dagger, spec, cert) -> RateConstants:
    # q = 1 construction: the certificate entries reaching w_min define the
    # columns that must be injective; the margin below w_min elsewhere sets
    # the growth coefficient
    xi = cert.subgradient
    big = np.flatnonzero(np.abs(xi) >= spec.w_min * (1.0 - 1e-12))
    c = _inverse_bound(op, u_dagger, big, "certificate")
    off = np.delete(np.arange(op.n), big)
    margin_top = float(np.max(np.abs(xi[off]))) if off.size else 0.0
    if margin_top >= spec.w_min:
        raise ValueError(
            "certificate has no margin below the minimal weight off the support"
        )
    op_norm = np.sqrt(operator_norm_sq(op, u_dagger))
    norm_coeff = (spec.w_min - margin_top) / (1.0 + c * op_norm)
    return RateConstants(
        norm_coeff=norm_coeff,
        residual_coeff=cert.source_norm + c * norm_coeff,
        exponent=1.0,
        penalty_radius=np.inf,
        residual_radius=np.inf,
        validated=False,
    )


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
    for first in range(0, n_samples, rows):
        chunk = slice(first, min(first + rows, n_samples))
        direction = rng.standard_normal((chunk.stop - first, op.n))
        direction /= np.sqrt(_row_dots(direction, direction))[:, None]
        u = u_dagger + radius * direction
        shifted = op.apply(u) - ref_data
        pen[chunk] = _penalty_value(u, spec)
        data_shift[chunk] = np.sqrt(_row_dots(shifted, shifted))
        if linearization:
            miss = shifted - op.derivative_apply(u_dagger, u - u_dagger)
            lin_err[chunk] = np.sqrt(_row_dots(miss, miss))
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
    the first ten as (sample index, slack) pairs.
    """
    u_dagger = np.asarray(u_dagger, dtype=np.float64)
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
    residual_radius: float = 1.0,
    validate: bool = True,
) -> RateConstants:
    """Growth-inequality coefficients for a linear operator, by construction.

    exponent selects the construction: 1 needs q = 1 and a sparse
    reference; q in (1, 2] needs a sparse reference; 2 is the general
    quadratic construction for q > 1.  When exponent = q = 2 the sparse
    construction is preferred if the reference is sparse.  The returned
    coefficients are validated on n_samples perturbations unless
    validate=False; violations raise with the offending samples listed.
    cert is the source certificate of (op, u_dagger, spec) from
    check_source_condition, or None when the source condition fails.
    """
    if not op.is_linear:
        raise ValueError("rate-constant constructions require a linear operator")
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    u_dagger = np.asarray(u_dagger, dtype=np.float64)
    if cert is None:
        raise ValueError("source condition fails: subgradient not in the adjoint range")
    sparse = _support(u_dagger).size < op.n
    if exponent == 1.0:
        if spec.q != 1.0:
            raise ValueError("exponent 1 requires q = 1")
        constants = _constants_sparse_1(op, u_dagger, spec, cert)
    elif abs(exponent - spec.q) <= 1e-12 and sparse:
        if spec.q <= 1.0:
            raise ValueError("the sparse q-exponent construction requires q > 1")
        constants = _constants_sparse_q(op, u_dagger, spec, cert, residual_radius)
    elif exponent == 2.0 and spec.q > 1.0:
        constants = _constants_quadratic(op, u_dagger, spec, cert)
    else:
        raise ValueError(
            f"unsupported exponent {exponent} for q = {spec.q}"
            + ("" if sparse else " with a non-sparse reference")
        )
    if not validate:
        return constants
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


def theoretical_bound(constants: RateConstants, p: int, alpha: float, delta: float):
    """Closed-form error and residual bounds implied by the constants.

    Returns (err_bound, residual_bound) comparable directly to the
    reconstruction error norm and the data residual norm.  For p = 1 the
    bounds require alpha*residual_coeff < 1 and vanish at delta = 0; the
    p = 2 residual bound is the square root of the bound on the squared
    residual.
    """
    if p not in (1, 2):
        raise ValueError(f"data exponent p must be 1 or 2, got {p}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    coupling = alpha * constants.residual_coeff
    if p == 1:
        if coupling >= 1.0:
            raise ValueError(
                f"p = 1 bound needs alpha*residual_coeff < 1, got {coupling:.6g}"
            )
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


def check_sparse_rate_conditions(
    op: ForwardOperator,
    u_dagger,
    spec: PenaltySpec,
    cert: Optional[SourceCertificate],
    n_samples: int = 1000,
    radius: float = 0.1,
    seed: int = 0,
) -> dict:
    """Check the hypotheses behind the sparse-solution rates, as a report.

    Linear operators reduce to the source condition plus support
    injectivity (for q = 1 also the off-support margin, with the penalty
    gap split in half).  Nonlinear operators get a sampled fit of the
    linearization-error inequality: the data-shift coefficient is the
    smallest value covering all samples with the linearization coefficient
    pinned at one.  cert is the source certificate of (op, u_dagger, spec)
    from check_source_condition, or None when the source condition fails.
    """
    u_dagger = np.asarray(u_dagger, dtype=np.float64)
    support = _support(u_dagger)
    report: dict = {
        "linear": bool(op.is_linear),
        "q": spec.q,
        "sparsity": int(support.size),
        "sparse": bool(support.size < op.n),
    }
    if cert is None:
        report["source_condition"] = {"passed": False}
    else:
        report["source_condition"] = {
            "passed": True,
            "residual": cert.residual,
            "source_norm": cert.source_norm,
        }
    inj = check_support_injectivity(op, u_dagger)
    report["support_injectivity"] = inj.to_dict()
    report["support_injectivity"]["passed"] = inj.injective
    checks = [report["sparse"], cert is not None, inj.injective]
    if op.is_linear and spec.q == 1.0 and cert is not None:
        off = np.delete(np.arange(op.n), support)
        margin_top = float(np.max(np.abs(cert.subgradient[off]))) if off.size else 0.0
        entry = {
            "passed": margin_top < spec.w_min,
            "max_off_support": margin_top,
            "min_weight": spec.w_min,
            "gap_split": 0.5,
        }
        report["off_support_margin"] = entry
        checks.append(entry["passed"])
    if not op.is_linear:
        pen, data_shift, lin_err = _sample_perturbations(
            op, u_dagger, spec, n_samples, radius, seed, linearization=True
        )
        lin_coeff = 1.0
        gap = pen - penalty_value(u_dagger, spec)
        # a sample that leaves the data unmoved needs the penalty gap alone
        # to cover the linearization error; the others set the coefficient
        still = data_shift <= 0.0
        finite = not np.any(gap[still] < lin_coeff * lin_err[still] - 1e-12)
        excess = (lin_coeff * lin_err[~still] - gap[~still]) / data_shift[~still]
        needed = float(np.fmax.reduce(excess, initial=0.0))
        entry = {
            "passed": finite,
            "linearization_coeff": lin_coeff,
            "data_shift_coeff": max(needed, 1e-12),
            "n_samples": n_samples,
            "radius": radius,
        }
        report["linearization_inequality"] = entry
        checks.append(finite)
    report["passed"] = bool(all(checks))
    return report
