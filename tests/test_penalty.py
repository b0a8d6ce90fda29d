"""Penalty evaluation, subgradients, Bregman bounds, and the prox map."""

import decimal
import warnings

import numpy as np
import pytest

from sparsereg import penalty
from sparsereg.penalty import (
    PenaltySpec,
    bregman_distance,
    penalty_subgradient,
    penalty_value,
    prox,
    scalar_bregman_constant,
    subgradient_interval,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec.uniform(0.5, 1.0, 4)
    with pytest.raises(ValueError):
        PenaltySpec.uniform(2.5, 1.0, 4)
    with pytest.raises(ValueError):
        PenaltySpec(1.5, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PenaltySpec(1.5, np.array([]))
    spec = PenaltySpec(1.5, np.array([2.0, 0.5]))
    assert spec.w_min == 0.5
    assert spec.n == 2


def test_value_golden():
    spec = PenaltySpec.uniform(1.0, 1.0, 3)
    assert penalty_value(np.array([1.0, -2.0, 0.0]), spec) == 3.0
    assert penalty_value(np.zeros(2), PenaltySpec.uniform(1.7, 2.0, 2)) == 0.0
    spec = PenaltySpec.uniform(1.5, 2.0, 2)
    value = penalty_value(np.array([0.5, 0.5]), spec)
    assert value == pytest.approx(4.0 * 0.5**1.5, abs=1e-15)


def test_subgradient_golden():
    spec = PenaltySpec.uniform(2.0, 1.0, 2)
    np.testing.assert_allclose(
        penalty_subgradient(np.array([3.0, -1.0]), spec), [6.0, -2.0]
    )
    spec1 = PenaltySpec.uniform(1.0, 1.0, 2)
    np.testing.assert_allclose(penalty_subgradient(np.array([5.0, 0.0]), spec1), [1.0, 0.0])
    lo, hi = subgradient_interval(np.array([5.0, 0.0]), spec1)
    np.testing.assert_allclose(lo, [1.0, -1.0])
    np.testing.assert_allclose(hi, [1.0, 1.0])
    spec15 = PenaltySpec.uniform(1.5, 1.0, 1)
    np.testing.assert_allclose(penalty_subgradient(np.array([4.0]), spec15), [3.0])


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for q in (1.25, 1.5, 1.75, 2.0):
        weights = rng.uniform(0.5, 2.0, 6)
        spec = PenaltySpec(q, weights)
        # differentiable region only: all coefficients bounded away from 0
        u = rng.uniform(0.1, 2.0, 6) * np.where(rng.random(6) < 0.5, -1.0, 1.0)
        grad = penalty_subgradient(u, spec)
        h = 1e-7
        for i in range(6):
            step = np.zeros(6)
            step[i] = h
            fd = (penalty_value(u + step, spec) - penalty_value(u - step, spec)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_bregman_golden():
    spec = PenaltySpec.uniform(2.0, 1.0, 1)
    report = bregman_distance(np.array([3.0]), np.array([1.0]), spec, np.array([2.0]))
    assert report.value == pytest.approx(4.0, abs=1e-12)
    u = np.array([0.7, -0.2])
    spec2 = PenaltySpec.uniform(1.5, 1.0, 2)
    same = bregman_distance(u, u, spec2, penalty_subgradient(u, spec2))
    assert same.value == pytest.approx(0.0, abs=1e-14)
    spec15 = PenaltySpec.uniform(1.5, 1.0, 1)
    report = bregman_distance(
        np.array([2.0]), np.array([1.0]), spec15, np.array([1.5])
    )
    assert report.value == pytest.approx(2.0**1.5 - 2.5, abs=1e-12)
    assert report.value == pytest.approx(0.3284271247461903, abs=1e-12)


def test_bregman_rejects_bad_subgradient():
    spec = PenaltySpec.uniform(1.5, 1.0, 1)
    with pytest.raises(ValueError):
        bregman_distance(np.array([2.0]), np.array([1.0]), spec, np.array([-4.0]))


def test_bregman_lower_bound_sampled():
    rng = np.random.default_rng(11)
    for q in (1.25, 1.5, 2.0):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            spec = PenaltySpec(q, rng.uniform(0.2, 2.0, n))
            u = rng.uniform(-3.0, 3.0, n)
            u_tilde = rng.uniform(-3.0, 3.0, n)
            report = bregman_distance(u_tilde, u, spec, penalty_subgradient(u, spec))
            assert report.value >= report.lower_bound - 1e-10 * max(
                1.0, report.lower_bound
            )


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


def _grid_search_constant(q):
    # the numerical search the closed form replaced: grid search plus local
    # refinement on the scale-reduced ratio.  An inner chart covers moderate
    # coefficient scales and an inverse chart covers the rest including the
    # infinite-scale limit, so the search cannot miss an infimum approached
    # at large scale.  Deflated by 1e-4 like the closed form
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


def _reduced_ratio(a, q):
    # the scale-reduced ratio at b - a = 1 through the oracle's charts,
    # free of cancellation at every scale: direct for |a| <= 8, in t = 1/a
    # beyond
    a = np.asarray(a, dtype=np.float64)
    inner = np.abs(a) <= 8.0
    out = np.empty_like(a)
    out[inner] = _ratio_bounded(a[inner], q)
    out[~inner] = _ratio_inverse(1.0 / a[~inner], q)
    return out


def test_constant_golden_values():
    # the closed form q(q-1)/2 (2 at q = 2), deflated by 1e-4; the interior
    # infimum is the large-scale limit of the ratio
    assert scalar_bregman_constant(2.0) == pytest.approx(1.9997999999999538, rel=1e-12)
    assert scalar_bregman_constant(1.5) == pytest.approx(0.3749625, rel=1e-12)
    assert scalar_bregman_constant(1.25) == pytest.approx(0.156234375, rel=1e-12)
    assert scalar_bregman_constant(1.0001) == pytest.approx(
        4.999999949999449e-05, rel=1e-9
    )
    assert abs(scalar_bregman_constant(2.0) - 2.0) <= 1e-3


def test_constant_rejects_out_of_range():
    for bad in (1.0, 0.5, 2.1):
        with pytest.raises(ValueError):
            scalar_bregman_constant(bad)


def test_constant_matches_grid_search_oracle():
    for q in (1.0001, 1.001, 1.1, 1.25, 1.3, 1.5, 1.7, 1.9, 1.999, 1.9999):
        assert scalar_bregman_constant(q) == _grid_search_constant(q), q
    want = _grid_search_constant(2.0)
    assert abs(scalar_bregman_constant(2.0) - want) <= 1e-13 * want


def test_constant_extreme_scales():
    # the two-point inequality over |a| in [1e-8, 1e6] of both signs, with
    # b - a = 1 by scaling and symmetry; beyond |a| = 8 direct evaluation
    # cancels catastrophically, so the ratio goes through the oracle charts
    mags = np.geomspace(1e-8, 1e6, 4001)
    a = np.concatenate([-mags[::-1], mags])
    for q in (1.001, 1.25, 1.5, 1.9, 1.999, 2.0):
        ratio = _reduced_ratio(a, q)
        assert np.all(ratio >= scalar_bregman_constant(q)), q


def test_constant_two_point_inequality():
    # d_q * (a-b)^2 <= (|a|^{2-q} + |a-b|^{2-q}) * (|b|^q - |a|^q - q|a|^{q-1}sgn(a)(b-a))
    # sampled on moderate scales where direct float evaluation is well
    # conditioned; test_constant_extreme_scales covers the extreme scales,
    # where direct evaluation cancels catastrophically
    rng = np.random.default_rng(5)
    for q in (1.25, 1.5, 1.75, 2.0):
        d = scalar_bregman_constant(q)
        a = rng.uniform(-8.0, 8.0, 2000)
        b = rng.uniform(-8.0, 8.0, 2000)
        keep = np.abs(a - b) > 1e-3
        a, b = a[keep], b[keep]
        bracket = (
            np.abs(b) ** q
            - np.abs(a) ** q
            - q * np.abs(a) ** (q - 1.0) * np.sign(a) * (b - a)
        )
        prefactor = np.abs(a) ** (2.0 - q) + np.abs(a - b) ** (2.0 - q)
        lhs = prefactor * bracket
        rhs = d * (a - b) ** 2
        assert np.all(lhs >= rhs - 1e-9 * np.maximum(1.0, np.abs(rhs)))


def _scalar_prox_oracle(z: float, tau: float, w: float, q: float) -> float:
    # golden-section search on [0, |z|]; the objective is even in x with
    # the minimizer sharing the sign of z.  Extended precision keeps the
    # flat-bottom comparison noise (~sqrt(eps)*scale) below the 1e-8
    # comparison tolerance.
    one = np.longdouble(1.0)
    a = np.abs(np.longdouble(z))
    tw = np.longdouble(tau) * np.longdouble(w)
    qq = np.longdouble(q)
    lo, hi = np.longdouble(0.0), a
    golden = (np.sqrt(np.longdouble(5.0)) - one) / 2

    def objective(x):
        return (x - a) ** 2 / 2 + tw * x**qq

    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    for _ in range(150):
        if objective(c) < objective(d):
            hi, d = d, c
            c = hi - golden * (hi - lo)
        else:
            lo, c = c, d
            d = lo + golden * (hi - lo)
    x = (lo + hi) / 2
    return float(np.sign(z) * x)


def test_prox_golden():
    spec1 = PenaltySpec.uniform(1.0, 1.0, 1)
    np.testing.assert_allclose(prox(np.array([2.0]), 0.5, spec1), [1.5])
    spec2 = PenaltySpec.uniform(2.0, 1.0, 1)
    np.testing.assert_allclose(prox(np.array([2.0]), 0.5, spec2), [1.0])
    for q in (1.0, 1.3, 1.5, 2.0):
        spec = PenaltySpec.uniform(q, 1.0, 3)
        np.testing.assert_array_equal(prox(np.zeros(3), 0.7, spec), np.zeros(3))


def test_prox_kink_tie_break():
    # |z| exactly at the q = 1 threshold resolves to 0
    spec = PenaltySpec.uniform(1.0, 2.0, 1)
    assert prox(np.array([1.0]), 0.5, spec)[0] == 0.0
    assert prox(np.array([-1.0]), 0.5, spec)[0] == 0.0


def test_prox_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for q in (1.0, 1.25, 1.5, 1.75, 2.0):
        for _ in range(40):
            z = float(rng.uniform(-5.0, 5.0))
            tau = float(rng.uniform(0.05, 2.0))
            w = float(rng.uniform(0.1, 3.0))
            spec = PenaltySpec.uniform(q, w, 1)
            got = prox(np.array([z]), tau, spec)[0]
            want = _scalar_prox_oracle(z, tau, w, q)
            assert abs(got - want) <= 1e-8


def _log_bisection_root(a, c, q, iters=100):
    # root x* of x + c*x^(q-1) = a per lane, by bisection in log x in
    # extended precision; no Newton step, so it shares nothing with the
    # kernel.  At the root x* >= a/2 or c*x*^(q-1) >= a/2, which brackets
    # log x* between min(log(a/2), log(a/(2c))/(q-1)) and log(a)
    a = np.asarray(a, dtype=np.longdouble)
    c = np.asarray(c, dtype=np.longdouble)
    qq = np.longdouble(q)
    lo = np.minimum(np.log(a / 2), np.log(a / (2 * c)) / (qq - 1))
    hi = np.log(a)
    for _ in range(iters):
        mid = (lo + hi) / 2
        above = np.exp(mid) + c * np.exp((qq - 1) * mid) > a
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.exp((lo + hi) / 2)


def _assert_prox_near_root(z, thresh, q):
    got = prox(z, 1.0, PenaltySpec(q, thresh))
    want = np.sign(z) * _log_bisection_root(np.abs(z), q * thresh, q)
    excess = np.abs(got - want) / (1e-12 * np.abs(want) + 1e-300)
    assert np.all(excess <= 1.0), f"q = {q}: error {float(excess.max()):.3e} x the bound"


def test_prox_root_near_zero():
    # the root is -4.934e-11; a Newton iteration stopping on an absolute
    # step of 1e-12 returned -5.7e-13 here
    z = np.array([-0.002373110513369142])
    _assert_prox_near_root(z, np.array([0.023152883405773695]), 1.1)


def test_prox_relative_accuracy_sweep():
    rng = np.random.default_rng(23)
    for q in (1.001, 1.1, 1.5, 1.9, 1.999):
        z = 10.0 ** rng.uniform(-8.0, 6.0, 2000) * rng.choice([-1.0, 1.0], 2000)
        thresh = 10.0 ** rng.uniform(-4.0, 2.0, 2000)
        _assert_prox_near_root(z, thresh, q)


def test_prox_q15_closed_form_edges():
    # the q = 3/2 closed form raises no floating-point warning at its edges:
    # z = 0 (with thresh = 0 its denominator is 0), thresh = 0, and a root
    # near zero where |z| is tiny against the threshold
    with np.errstate(all="raise"):
        for thresh in (0.0, 0.7):
            got = penalty._prox_power(np.array([0.0, -0.0]), np.full(2, thresh), 1.5)
            assert (got == 0.0).all()
        z = np.array([-3.0, -1e-8, 0.5, 2.0, 1e6])
        np.testing.assert_allclose(penalty._prox_power(z, np.zeros(5), 1.5), z, rtol=1e-15)
        got = penalty._prox_power(np.array([1e-8]), np.array([1e2]), 1.5)[0]
    want = float(_log_bisection_root(1e-8, 1.5 * 1e2, 1.5))
    assert abs(got - want) <= 1e-12 * want


def test_prox_q15_huge_threshold():
    # c = q*thresh = 1e300 overflows c*c; the root of y^2 + c*y = |z| at
    # |z| = c is y = 1 - O(1e-300), so x = 1, and a lane beside it keeps
    # the bits it gets alone.  The last three lanes overflow 4|z| (and
    # 2|z|), the last one c*c as well.
    z = np.array([1e300, -2.0, 1e308, -5e307, 1.7e308])
    thresh = np.array([1e300 / 1.5, 0.7, 1.0, 1e154 / 1.5, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = penalty._prox_power(z, thresh, 1.5)
    assert got[0] == pytest.approx(1.0, rel=1e-12)
    assert got[1] == penalty._prox_power(z[1:2], thresh[1:2], 1.5)[0]
    # the root of x + c*x^(1/2) = |z| is x = y^2 with
    # y = 2|z| / (c + sqrt(c^2 + 4|z|)), here in 60-digit decimals
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for zi, ti, xi in zip(z[2:], thresh[2:], got[2:]):
            a, c = decimal.Decimal(abs(zi)), decimal.Decimal(1.5 * ti)
            root = float((2 * a / (c + (c * c + 4 * a).sqrt())) ** 2)
            assert np.sign(xi) == np.sign(zi)
            assert abs(xi) == pytest.approx(root, rel=1e-12)


def test_zero_threshold_is_identity():
    z = np.linspace(-2.0, 2.0, 9)
    for q in (1.0, 1.5, 2.0):
        np.testing.assert_allclose(penalty._prox_power(z, np.zeros(9), q), z, atol=1e-12)


def test_prox_optimality_on_grid():
    rng = np.random.default_rng(9)
    for q in (1.0, 1.5, 2.0):
        z = rng.uniform(-4.0, 4.0, 5)
        tau = 0.8
        spec = PenaltySpec(q, rng.uniform(0.3, 2.0, 5))
        x = prox(z, tau, spec)
        for i in range(5):
            grid = np.linspace(-2.0 * abs(z[i]) - 1.0, 2.0 * abs(z[i]) + 1.0, 10001)
            best = 0.5 * (x[i] - z[i]) ** 2 + tau * spec.weights[i] * abs(x[i]) ** q
            candidates = 0.5 * (grid - z[i]) ** 2 + tau * spec.weights[i] * np.abs(grid) ** q
            assert best <= candidates.min() + 1e-10


def test_prox_nonexpansive():
    rng = np.random.default_rng(13)
    for q in (1.0, 1.4, 1.8, 2.0):
        spec = PenaltySpec.uniform(q, 1.3, 50)
        z1 = rng.uniform(-5.0, 5.0, 50)
        z2 = rng.uniform(-5.0, 5.0, 50)
        x1 = prox(z1, 0.6, spec)
        x2 = prox(z2, 0.6, spec)
        assert np.all(np.abs(x1 - x2) <= np.abs(z1 - z2) + 1e-12)


def test_norm_monotonicity_inequality():
    # (sum |c|^t)^(1/t) <= (sum |c|^s)^(1/s) for 0 < s <= t
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        c = rng.uniform(-4.0, 4.0, n)
        s = float(rng.uniform(0.25, 3.0))
        t = float(rng.uniform(s, 4.0))
        lhs = float(np.sum(np.abs(c) ** t)) ** (1.0 / t)
        rhs = float(np.sum(np.abs(c) ** s)) ** (1.0 / s)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_penalty_coercivity():
    # R_q(u) >= w_min * ||u||^q in an orthonormal basis
    rng = np.random.default_rng(19)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        q = float(rng.uniform(1.0, 2.0))
        spec = PenaltySpec(q, rng.uniform(0.2, 3.0, n))
        u = rng.uniform(-4.0, 4.0, n)
        lhs = penalty_value(u, spec)
        rhs = spec.w_min * float(np.linalg.norm(u)) ** q
        assert lhs >= rhs * (1.0 - 1e-12)


def test_length_mismatch_rejected():
    spec = PenaltySpec.uniform(1.5, 1.0, 3)
    with pytest.raises(ValueError):
        penalty_value(np.zeros(4), spec)
    with pytest.raises(ValueError):
        prox(np.zeros(2), 1.0, spec)


def test_prox_newton_stops_each_row_on_its_own(monkeypatch):
    # a stack of rows takes each row through exactly the Newton passes it
    # takes alone, and returns each row bit for bit as alone
    passes = []
    real = penalty._newton_step

    def counting(y, a, c, r):
        passes.append(y.shape[0])
        return real(y, a, c, r)

    monkeypatch.setattr(penalty, "_newton_step", counting)
    q = 1.3
    easy = np.full(8, 1e-3)  # |z| tiny against the threshold: few passes
    hard = np.geomspace(1e-6, 1e6, 8)  # a spread of scales: more passes
    thresh = np.stack([np.full(8, 1e2), np.full(8, 1e-3)])
    alone = []
    for z, t in zip((easy, hard), thresh):
        passes.clear()
        alone.append((penalty._prox_power(z, t, q), len(passes)))
    assert alone[0][1] < alone[1][1]
    passes.clear()
    stacked = penalty._prox_power(np.stack([easy, hard]), thresh, q)
    # rows processed over all passes: each row only in its own passes
    assert sum(passes) == alone[0][1] + alone[1][1]
    for row, (want, _) in zip(stacked, alone):
        assert row.tobytes() == want.tobytes()
