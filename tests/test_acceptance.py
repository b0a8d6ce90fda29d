"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Run with -s (or read the -v listing) to see a measured-value line per
criterion.  Tolerances here are the contract; do not relax them.
"""

import time

import numpy as np
import pytest

from sparsereg.analysis import estimate_rate_constants
from sparsereg.experiments import (
    exact_recovery_test,
    generate_problem,
    generate_source_problem,
    run_sweep,
    write_sweep_csv,
)
from sparsereg.penalty import (
    PenaltySpec,
    bregman_distance,
    penalty_subgradient,
    penalty_value,
    prox,
    scalar_bregman_constant,
)

DELTAS = np.logspace(-1, -4, 10)
TRIALS = 5
SWEEP_SEED = 42

# (q, rate exponent, support positions, instance seed) per rate criterion.
# q = 1 keeps the support on the strongest singular values; for q > 1 the
# support must straddle the spectrum so shrinkage bites across the whole
# noise grid instead of leaving a near-linear error trend.
RATE_SETUPS = {
    1: (1.0, 1.0, (0, 1, 2), 0),
    2: (1.5, 1.5, (0, 5, 15), 7),
    3: (2.0, 2.0, (0, 5, 15), 7),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _run_rate_pipeline(q, exponent, positions, seed):
    instance = generate_problem(
        "diagonal", 64, m=64, sparsity=3, q=q, p=2, seed=seed, positions=positions
    )
    constants = estimate_rate_constants(
        instance.operator, instance.u_dagger, instance.spec, instance.certificate, exponent
    )
    result = run_sweep(
        instance,
        DELTAS,
        c_alpha=1.0,
        trials_per_delta=TRIALS,
        seed=SWEEP_SEED,
        constants=constants,
    )
    return instance, constants, result


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    start = time.perf_counter()
    out[1] = _run_rate_pipeline(*RATE_SETUPS[1])
    out["c1_elapsed"] = time.perf_counter() - start
    out[2] = _run_rate_pipeline(*RATE_SETUPS[2])
    out[3] = _run_rate_pipeline(*RATE_SETUPS[3])
    return out


def test_criterion_01_sparse_q1_linear_rate(sweeps):
    _, _, result = sweeps[1]
    elapsed = sweeps["c1_elapsed"]
    slope, r2 = result.rate.slope, result.rate.r_squared
    ok = 0.85 <= slope <= 1.15 and r2 >= 0.98 and elapsed < 60.0
    _report(1, ok, f"slope {slope:.4f} in [0.85, 1.15], r^2 {r2:.5f} >= 0.98, "
                   f"{elapsed:.1f}s single-threaded < 60s")


def test_criterion_02_sparse_q15_rate(sweeps):
    _, _, result = sweeps[2]
    slope = result.rate.slope
    _report(2, 0.55 <= slope <= 0.80, f"slope {slope:.4f} in [0.55, 0.80]")


def test_criterion_03_sparse_q2_rate(sweeps):
    _, _, result = sweeps[3]
    slope = result.rate.slope
    _report(3, 0.40 <= slope <= 0.65, f"slope {slope:.4f} in [0.40, 0.65]")


def test_criterion_04_source_condition_sqrt_rate():
    # dense reference built by inverting the subgradient formula on an
    # adjoint image, so only the range condition (not sparsity) holds
    instance = generate_source_problem(n=64, q=1.5, p=2, seed=0)
    assert int(np.count_nonzero(instance.u_dagger)) == 64
    constants = estimate_rate_constants(
        instance.operator, instance.u_dagger, instance.spec, instance.certificate, 2.0
    )
    result = run_sweep(
        instance,
        DELTAS,
        c_alpha=1.0,
        trials_per_delta=TRIALS,
        seed=SWEEP_SEED,
        constants=constants,
    )
    slope = result.rate.slope
    _report(4, slope >= 0.40, f"non-sparse reference slope {slope:.4f} >= 0.40")


def test_criterion_05_exact_recovery_p1():
    worst = 0.0
    failures = 0
    for seed in range(10):
        instance = generate_problem("diagonal", 64, sparsity=3, q=1.0, p=1, seed=seed)
        alpha = 0.5 / instance.certificate.source_norm
        report = exact_recovery_test(instance, alpha)
        if report.status != "pass":
            failures += 1
        else:
            worst = max(worst, report.error)
    _report(5, failures == 0,
            f"{10 - failures}/10 instances recovered, worst error {worst:.3e} "
            f"within 1e-6*(1+||reference||)")


def test_criterion_06_error_and_residual_bounds(sweeps):
    checked = 0
    violations = 0
    for key in (1, 2, 3):
        _, constants, result = sweeps[key]
        assert constants.validated
        beta2 = constants.residual_coeff
        for row in result.rows:
            checked += 1
            # p = 2 display: 2*delta^2 + 2*alpha*beta2*delta + (alpha*beta2)^2
            coupling = row.alpha * beta2
            display = 2.0 * row.delta**2 + 2.0 * coupling * row.delta + coupling**2
            if not row.error_norm <= row.err_bound:
                violations += 1
            if not row.residual_norm**2 <= display:
                violations += 1
    _report(6, checked == 150 and violations == 0,
            f"{checked} sweep rows checked, {violations} bound violations")


def _prox_oracle_batch(z, thresh, q):
    # golden-section search per lane on [0, |z|]; the minimizer shares
    # the sign of z.  Extended precision keeps the flat-bottom comparison
    # noise (~sqrt(eps)*scale in double) below the 1e-8 tolerance.
    a = np.abs(z.astype(np.longdouble))
    thresh = thresh.astype(np.longdouble)
    qq = np.longdouble(q)
    lo = np.zeros_like(a)
    hi = a.copy()
    golden = (np.sqrt(np.longdouble(5.0)) - np.longdouble(1.0)) / np.longdouble(2.0)

    def objective(x):
        return (x - a) ** 2 / 2 + thresh * x**qq

    for _ in range(160):
        c = hi - golden * (hi - lo)
        d = lo + golden * (hi - lo)
        take = objective(c) < objective(d)
        hi = np.where(take, d, hi)
        lo = np.where(take, lo, c)
    return np.sign(z) * ((lo + hi) / 2).astype(np.float64)


def test_criterion_07_prox_matches_scalar_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for q in (1.0, 1.25, 1.5, 1.75, 2.0):
        # 10 batches of 100 share a tau; z and w vary per lane, so all
        # three of (z, tau, w) are random across the 1000 triples
        for _ in range(10):
            tau = float(rng.uniform(1e-3, 2.0))
            z = rng.uniform(-5.0, 5.0, 100)
            w = rng.uniform(0.1, 3.0, 100)
            got = prox(z, tau, PenaltySpec(q, w))
            want = _prox_oracle_batch(z, tau * w, q)
            worst = max(worst, float(np.max(np.abs(got - want))))
            count += z.size
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0 and count == 5000
    _report(7, ok, f"{count} triples, worst |prox - oracle| {worst:.3e} <= 1e-8, "
                   f"{elapsed:.1f}s < 10s")


def test_criterion_08_bregman_lower_bound():
    rng = np.random.default_rng(77)
    violations = 0
    checked = 0
    worst_rel = np.inf
    for q in (1.25, 1.5, 2.0):
        dq = scalar_bregman_constant(q)
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            spec = PenaltySpec(q, rng.uniform(0.1, 2.0, n))
            u = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
            u_tilde = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
            xi = penalty_subgradient(u, spec)
            breg = bregman_distance(u_tilde, u, spec, xi).value
            bound = dq * spec.w_min**2 * float(np.linalg.norm(u_tilde - u)) ** 2 / (
                3.0 * spec.w_min
                + 2.0 * penalty_value(u, spec)
                + penalty_value(u_tilde, spec)
            )
            rel = (breg - bound) / max(1.0, bound)
            worst_rel = min(worst_rel, rel)
            checked += 1
            if rel < -1e-10:
                violations += 1
    dq2 = scalar_bregman_constant(2.0)
    ok = violations == 0 and checked == 3000 and abs(dq2 - 2.0) <= 1e-3
    _report(8, ok, f"{checked} pairs, {violations} violations, worst relative slack "
                   f"{worst_rel:.3e}, dq(2) = {dq2:.6f} within 2.0 +/- 1e-3")


def test_criterion_09_norm_inequalities():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(10000):
        n = int(rng.integers(1, 12))
        c = rng.uniform(-4.0, 4.0, n)
        s = float(rng.uniform(0.25, 3.0))
        t = float(rng.uniform(s, 4.0))
        lhs = float(np.sum(np.abs(c) ** t)) ** (1.0 / t)
        rhs = float(np.sum(np.abs(c) ** s)) ** (1.0 / s)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    for _ in range(10000):
        n = int(rng.integers(1, 12))
        q = float(rng.uniform(1.0, 2.0))
        spec = PenaltySpec(q, rng.uniform(0.2, 3.0, n))
        u = rng.uniform(-4.0, 4.0, n)
        lhs = spec.w_min * float(np.linalg.norm(u)) ** q
        if penalty_value(u, spec) < lhs * (1.0 - 1e-12):
            violations += 1
    _report(9, violations == 0,
            f"2 x 10^4 random vectors, {violations} inequality violations")


def test_criterion_10_sweep_determinism(sweeps, tmp_path):
    _, _, first = sweeps[1]
    _, _, second = _run_rate_pipeline(*RATE_SETUPS[1])
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(first, path_a)
    write_sweep_csv(second, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    _report(10, identical,
            f"two identical sweeps, CSV bytes equal: {identical}")
