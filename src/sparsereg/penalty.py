"""Weighted lq penalty: value, subgradients, prox, and Bregman distances.

The penalty of a coefficient vector u is sum_i w_i*|u_i|^q with exponent
1 <= q <= 2 and weights bounded away from zero.  The public routines work
on plain 1-d float arrays; the solver kernels `_penalty_value` and
`_prox_power` also take a (B, n) stack of rows, one solve per row.
"""

from dataclasses import dataclass

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
    return _penalty_value(_check_len(u, spec), spec)


def _penalty_value(u: np.ndarray, spec: PenaltySpec):
    """penalty_value without the argument check, for solver loops.

    ``u`` must already be a float array of length spec.n, or a (B, spec.n)
    stack of rows; a stack gets a (B,) array of values.  Each row's value
    is a stacked dot product, bit-identical to the row's own.
    """
    if spec.q == 1.0:
        powers = np.abs(u)
    elif spec.q == 2.0:
        powers = u * u
    else:
        powers = np.abs(u) ** spec.q
    if powers.ndim == 1:
        return float(np.dot(spec.weights, powers))
    return (powers[:, None, :] @ spec.weights[:, None])[:, 0, 0]


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
    # written as "inside", so that a NaN entry is outside
    if not np.all((xi >= lo - rtol * scale) & (xi <= hi + rtol * scale)):
        raise ValueError("xi is not a subgradient of the penalty at u")


def bregman_distance(u_tilde, u, spec: PenaltySpec, xi) -> BregmanReport:
    """Bregman distance of the penalty from u to u_tilde for subgradient xi.

    value = R(u_tilde) - R(u) - <xi, u_tilde - u>.  The report also carries
    the lower bound c_q*||u_tilde - u||^2 / (3*w_min + 2*R(u) + R(u_tilde))
    with c_q = d_q*w_min^2 for q > 1 (zero for q = 1), where
    d_q = scalar_bregman_constant(q) is the closed form q*(q-1)/2 for q < 2
    and 2 at q = 2, deflated by 1e-4 relative; and the slack
    value - lower_bound.

    Raises ValueError if u or u_tilde is not finite, or if xi fails the
    coefficientwise subgradient conditions at u.
    """
    u = _check_len(u, spec)
    u_tilde = _check_len(u_tilde, spec)
    xi = _check_len(xi, spec)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(u_tilde))):
        raise ValueError("u and u_tilde must be finite")
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


def scalar_bregman_constant(q: float) -> float:
    """Best constant d_q of the scalar two-point inequality
    d_q*|a-b|^2 <= (|a|^(2-q)+|a-b|^(2-q)) * (|b|^q - |a|^q -
    q*|a|^(q-1)*sign(a)*(b-a)),  1 < q <= 2, deflated by 1e-4 relative:
    q*(q-1)/2 for 1 < q < 2 and 2 at q = 2.

    Proof.  Both sides are homogeneous of degree 2 in (a, b) and even
    under (a, b) -> (-a, -b), so take b - a = 1.  Taylor's formula with
    integral remainder gives the bracket as
    g(a) = q(q-1) * int_0^1 (1-s)*|a+s|^(q-2) ds >= q(q-1)/2 * (|a|+1)^(q-2),
    since |a+s| <= |a|+1 and q - 2 <= 0.  The prefactor satisfies
    |a|^(2-q) + 1 >= (|a|+1)^(2-q), because t -> t^(2-q) is subadditive on
    t >= 0, so the ratio prefactor*g(a) is at least q(q-1)/2.  For q < 2 the
    ratio tends to q(q-1)/2 as |a| -> infinity, so the constant is the
    best possible.  At q = 2 the bracket is (b-a)^2 and the prefactor is 2,
    so the ratio is 2 everywhere: the constant jumps from the limit 1 as
    q -> 2 from below to 2 at q = 2.

    The 1e-4 deflation leaves the lower bound a margin under the
    floating-point rounding of both sides.
    """
    if not 1.0 < q <= 2.0:
        raise ValueError(f"exponent must satisfy 1 < q <= 2, got {q}")
    best = 2.0 if q == 2.0 else q * (q - 1.0) / 2.0
    return best * (1.0 - 1e-4)


def prox(z, tau: float, spec: PenaltySpec) -> np.ndarray:
    """Coefficientwise minimizer of x -> 0.5*||x - z||^2 + tau*R(x)."""
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    z = _check_len(z, spec)
    return _prox_power(z, tau * spec.weights, spec.q)


# The Newton loop below stops a row once none of its lanes decreases:
# convergence is quadratic, and a lane at its floating-point root is not
# lowered again.  That takes 5 to 12 passes for 1.001 <= q <= 1.999.  The
# cap is a safety bound only, in case rounding lets some lane creep down an
# ulp per pass.
_NEWTON_MAX_ITER = 100


def _newton_step(y, a, c, r):
    """One Newton step on g(y) = y^r + c*y - a, lane by lane."""
    yr1 = y ** (r - 1.0)
    return y - (yr1 * y + c * y - a) / (r * yr1 + c)


def _prox_power(z, thresh, q):
    """Coefficientwise minimizer of x -> 0.5*(x - z_i)^2 + thresh_i*|x|^q.

    ``z`` and ``thresh`` are float arrays of equal shape, a vector or a
    (B, n) stack of rows, ``thresh`` nonnegative, ``1 <= q <= 2``.  For
    x >= 0 the stationarity equation is x + c*x^(q-1) = |z| with
    c = q*thresh.  q = 1 and q = 2 are closed forms, and so is q = 3/2
    (Combettes & Pesquet 2007): there y = x^(1/2) solves y^2 + c*y = |z|,
    whose root is taken in the cancellation-free form
    y = 2|z| / (c + sqrt(c^2 + 4|z|)), and x = y^2; z = 0 with thresh = 0
    gives 0.  For other interior q the equation is solved in y = x^(q-1):
    g(y) = y^r + c*y - |z| with r = 1/(q-1) is convex and increasing, so
    Newton started from the upper bound min(|z|/c, |z|^(q-1)) decreases
    monotonically onto the root.  Each row of a stack leaves the Newton
    loop after its own last pass, so it gets the passes, and the values,
    it would get alone.

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
    if q == 1.5:
        with np.errstate(over="ignore", invalid="ignore"):
            square = c * c + 4.0 * a
            denom = c + np.sqrt(square)
            # the denominator is 0 only where z = 0 and thresh = 0; y stays 0 there
            y = np.divide(2.0 * a, denom, out=np.zeros_like(a), where=denom > 0.0)
        # c*c overflows past c ~ 1.34e154 and 4|z| past |z| ~ 4.5e307; there
        # the root is scaled by s = |z|^(1/2): y = 2s / (k + hypot(k, 2)), k = c/s
        wide = np.isinf(square)
        if wide.any():
            s = np.sqrt(a[wide])
            with np.errstate(divide="ignore"):
                k = c[wide] / s
            y[wide] = 2.0 * s / (k + np.hypot(k, 2.0))
        return np.sign(z) * (y * y)
    r = 1.0 / (q - 1.0)
    # thresh = 0 gives |z|/0 = inf (or nan at z = 0) and a zero derivative
    # at y = 0; fmin drops those nans and keeps such lanes at their bound
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.fmin(a / c, a ** (q - 1.0))
        rows, a, c = np.atleast_2d(y), np.atleast_2d(a), np.atleast_2d(c)
        live = np.arange(rows.shape[0])
        for _ in range(_NEWTON_MAX_ITER):
            y_live = rows[live]
            y_new = _newton_step(y_live, a[live], c[live], r)
            down = (y_new < y_live).any(axis=1)
            live = live[down]
            if not live.size:
                break
            rows[live] = np.fmin(y_live[down], y_new[down])
    return np.sign(z) * y**r
