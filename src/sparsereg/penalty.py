"""Weighted lq penalty: value, subgradients, prox, and Bregman distances.

The penalty of a coefficient vector u is sum_i w_i*|u_i|^q with exponent
1 <= q <= 2 and weights bounded away from zero.  All routines work on
plain 1-d float arrays.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PenaltySpec",
    "BregmanReport",
    "penalty_value",
    "penalty_subgradient",
    "subgradient_interval",
    "bregman_distance",
    "scalar_bregman_constant",
    "prox",
]


@dataclass(frozen=True, eq=False)
class PenaltySpec:
    """Exponent q and positive weight sequence of the penalty."""

    q: float
    weights: np.ndarray

    def __post_init__(self):
        if not 1.0 <= self.q <= 2.0:
            raise ValueError(f"exponent q must lie in [1, 2], got {self.q}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def w_min(self) -> float:
        return float(self.weights.min())

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, q: float, weight: float, n: int) -> "PenaltySpec":
        return cls(q, np.full(n, float(weight)))


@dataclass(frozen=True)
class BregmanReport:
    """Bregman distance together with its norm-based lower bound."""

    value: float
    lower_bound: float
    slack: float


def _check_len(u: np.ndarray, spec: PenaltySpec) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (spec.n,):
        raise ValueError(f"coefficient vector has length {u.shape}, spec expects {spec.n}")
    return u


def penalty_value(u, spec: PenaltySpec) -> float:
    """sum_i w_i * |u_i|^q."""
    u = _check_len(u, spec)
    if spec.q == 1.0:
        return float(np.dot(spec.weights, np.abs(u)))
    if spec.q == 2.0:
        return float(np.dot(spec.weights, u * u))
    return float(np.dot(spec.weights, np.abs(u) ** spec.q))


def penalty_subgradient(u, spec: PenaltySpec) -> np.ndarray:
    """Canonical subgradient element of the penalty at u.

    For q > 1 this is the gradient q*w_i*|u_i|^(q-1)*sign(u_i); for q = 1
    it is w_i*sign(u_i) with the selection 0 at zero entries (the full
    interval at zeros is available via :func:`subgradient_interval`).
    """
    u = _check_len(u, spec)
    q, w = spec.q, spec.weights
    if q == 1.0:
        return w * np.sign(u)
    return q * w * np.abs(u) ** (q - 1.0) * np.sign(u)


def subgradient_interval(u, spec: PenaltySpec):
    """Coefficientwise subdifferential of the penalty at u as (lo, hi) arrays.

    The interval is degenerate except for q = 1 at zero entries, where it
    equals [-w_i, w_i].
    """
    u = _check_len(u, spec)
    g = penalty_subgradient(u, spec)
    lo, hi = g.copy(), g.copy()
    if spec.q == 1.0:
        at_zero = u == 0.0
        lo[at_zero] = -spec.weights[at_zero]
        hi[at_zero] = spec.weights[at_zero]
    return lo, hi


def _validate_subgradient(u, spec: PenaltySpec, xi, rtol=1e-8):
    lo, hi = subgradient_interval(u, spec)
    scale = 1.0 + np.abs(lo) + np.abs(hi)
    if np.any(xi < lo - rtol * scale) or np.any(xi > hi + rtol * scale):
        raise ValueError("xi is not a subgradient of the penalty at u")


def bregman_distance(u_tilde, u, spec: PenaltySpec, xi) -> BregmanReport:
    """Bregman distance of the penalty from u to u_tilde for subgradient xi.

    value = R(u_tilde) - R(u) - <xi, u_tilde - u>.  The report also carries
    the lower bound c_q*||u_tilde - u||^2 / (3*w_min + 2*R(u) + R(u_tilde))
    with c_q = scalar_bregman_constant(q)*w_min^2 for q > 1 (zero for q = 1),
    and the slack value - lower_bound.

    Raises ValueError if xi fails the coefficientwise subgradient conditions
    at u.
    """
    u = _check_len(u, spec)
    u_tilde = _check_len(u_tilde, spec)
    xi = _check_len(xi, spec)
    _validate_subgradient(u, spec, xi)

    r_u = penalty_value(u, spec)
    r_ut = penalty_value(u_tilde, spec)
    diff = u_tilde - u
    value = r_ut - r_u - float(np.dot(xi, diff))
    if spec.q > 1.0:
        c_q = scalar_bregman_constant(spec.q) * spec.w_min**2
        lower = c_q * float(np.dot(diff, diff)) / (3.0 * spec.w_min + 2.0 * r_u + r_ut)
    else:
        lower = 0.0
    return BregmanReport(value=value, lower_bound=lower, slack=value - lower)


def _ratio_bounded(a, q):
    # (|a|^(2-q) + 1) * (|a+1|^q - |a|^q - q*|a|^(q-1)*sign(a)), the scalar
    # ratio with the difference of the two points normalized to 1; scaling
    # and sign symmetry reduce the two-point search to this single variable.
    # Safe for |a| <= 8: the convexity gap stays far above rounding there
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    gap = np.abs(a + 1.0) ** q - np.abs(a) ** q - q * np.abs(a) ** (q - 1.0) * np.sign(a)
    return (np.abs(a) ** (2.0 - q) + 1.0) * gap


def _ratio_inverse(t, q):
    # Same ratio on the outer region |a| >= 8, parametrized by t = 1/a with
    # t in [-1/8, 1/8].  t = 0 is the point at infinity, where the ratio
    # extends continuously to q*(q-1)/2 * (1 + 0^(2-q)); sampling it directly
    # is what lets the search reach the infimum, which for q < 2 is attained
    # only in this limit.  Near t = 0 the gap (1+t)^q - 1 - q*t is evaluated
    # by its binomial series, which is free of cancellation
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = np.abs(t)
    out = np.empty_like(t)
    small = s <= 0.02
    ts = t[small]
    coeffs = []
    ck = q * (q - 1.0) / 2.0
    for k in range(2, 8):
        coeffs.append(ck)
        ck *= (q - k) / (k + 1.0)
    poly = np.full_like(ts, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly = poly * ts + c
    out[small] = (1.0 + s[small] ** (2.0 - q)) * poly
    tm = t[~small]
    phi = np.expm1(q * np.log1p(tm)) - q * tm
    out[~small] = (np.abs(tm) ** (q - 2.0) + 1.0) * np.abs(tm) ** (-q) * phi
    return out


def _refine(fun, q, center, step, dlo, dhi, best):
    # shrink a bracket around the coarse minimizer, never leaving [dlo, dhi]
    lo, hi = max(dlo, center - step), min(dhi, center + step)
    for _ in range(60):
        local = np.linspace(lo, hi, 129)
        lv = fun(local, q)
        j = int(np.argmin(lv))
        best = min(best, float(lv[j]))
        width = local[1] - local[0]
        lo = max(dlo, local[j] - width)
        hi = min(dhi, local[j] + width)
        if hi - lo <= 1e-15:
            break
    return best


@lru_cache(maxsize=None)
def scalar_bregman_constant(q: float) -> float:
    """Numerical lower estimate of the best constant in the scalar two-point
    inequality  d_q*|a-b|^2 <= (|a|^(2-q)+|a-b|^(2-q)) * (|b|^q - |a|^q -
    q*|a|^(q-1)*sign(a)*(b-a)),  1 < q <= 2.

    Computed by grid search plus local refinement on the scale-reduced ratio.
    The slice is compactified: an inner chart covers moderate coefficient
    scales and an inverse chart covers the rest including the infinite-scale
    limit, so the search cannot miss an infimum approached at large scale.
    The returned value is deflated by 1e-4 relative so it stays a lower
    estimate of the infimum at the advertised 1e-4 accuracy.
    """
    if not 1.0 < q <= 2.0:
        raise ValueError(f"exponent must satisfy 1 < q <= 2, got {q}")
    ga = np.linspace(-8.0, 8.0, 32001)
    va = _ratio_bounded(ga, q)
    ka = int(np.argmin(va))
    gt = np.linspace(-0.125, 0.125, 32001)
    vt = _ratio_inverse(gt, q)
    kt = int(np.argmin(vt))
    best = min(float(va[ka]), float(vt[kt]))
    best = _refine(_ratio_bounded, q, float(ga[ka]), float(ga[1] - ga[0]), -8.0, 8.0, best)
    best = _refine(
        _ratio_inverse, q, float(gt[kt]), float(gt[1] - gt[0]), -0.125, 0.125, best
    )
    return best * (1.0 - 1e-4)


def prox(z, tau: float, spec: PenaltySpec) -> np.ndarray:
    """Coefficientwise minimizer of x -> 0.5*||x - z||^2 + tau*R(x)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = _check_len(z, spec)
    return _prox_power(z, tau * spec.weights, spec.q)


# The Newton loop below stops once no lane decreases: convergence is
# quadratic, and a lane at its floating-point root is not lowered again.
# That takes 5 to 12 passes for 1.001 <= q <= 1.999.  The cap is a safety
# bound only, in case rounding lets some lane creep down an ulp per pass.
_NEWTON_MAX_ITER = 100


def _prox_power(z, thresh, q):
    """Coefficientwise minimizer of x -> 0.5*(x - z_i)^2 + thresh_i*|x|^q.

    ``z`` and ``thresh`` are 1-d float arrays of equal length, ``thresh``
    nonnegative, ``1 <= q <= 2``.  q = 1 and q = 2 are closed forms.  For
    interior q the stationarity equation x + c*x^(q-1) = |z|, c = q*thresh,
    is solved in y = x^(q-1): g(y) = y^r + c*y - |z| with r = 1/(q-1) is
    convex and increasing, so Newton started from the upper bound
    min(|z|/c, |z|^(q-1)) decreases monotonically onto the root.

    For 1.001 <= q < 2, |z| in [1e-8, 1e6] and thresh in [1e-4, 1e2] the
    result x meets |x - x*| <= 1e-12*|x*| + 1e-300 against the exact root
    x*: the bound is relative down to underflow, roots near zero included.
    Mapping y back to x = y^r multiplies the relative rounding error by
    about r, so below q = 1.001 the error grows like 1e-16/(q-1), e.g.
    1.1e-12 relative at q = 1.0001.
    """
    z = np.asarray(z, dtype=np.float64)
    thresh = np.asarray(thresh, dtype=np.float64)
    if q == 1.0:
        return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
    if q == 2.0:
        return z / (1.0 + 2.0 * thresh)

    a = np.abs(z)
    c = q * thresh
    r = 1.0 / (q - 1.0)
    # thresh = 0 gives |z|/0 = inf (or nan at z = 0) and a zero derivative
    # at y = 0; fmin drops those nans and keeps such lanes at their bound
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.fmin(a / c, a ** (q - 1.0))
        for _ in range(_NEWTON_MAX_ITER):
            yr1 = y ** (r - 1.0)
            y_new = y - (yr1 * y + c * y - a) / (r * yr1 + c)
            if not (y_new < y).any():
                break
            y = np.fmin(y, y_new)
    return np.sign(z) * y**r
