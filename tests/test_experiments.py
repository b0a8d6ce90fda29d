"""Problem generation, noise sweeps, rate fits, and artifact writers."""

import numpy as np
import pytest

from sparsereg import experiments
from sparsereg.analysis import (
    RateConstants,
    check_source_condition,
    check_sparse_rate_conditions,
    estimate_rate_constants,
    theoretical_bound,
)
from sparsereg.experiments import (
    CSV_HEADER,
    RateEstimate,
    SweepResult,
    SweepRow,
    add_noise,
    alpha_rule,
    exact_recovery_test,
    fit_rate,
    generate_problem,
    generate_source_problem,
    run_sweep,
    solve_instance,
    write_rate_json,
    write_sweep_csv,
)
from sparsereg.penalty import penalty_subgradient


def test_fit_rate_recovers_exact_power_law():
    deltas = np.logspace(-1, -4, 10)
    for coeff, slope in ((3.0, 1.0), (0.5, 0.37), (12.0, 2.0)):
        errors = coeff * deltas**slope
        rate = fit_rate(deltas, errors)
        assert rate.slope == pytest.approx(slope, abs=1e-12)
        assert rate.intercept == pytest.approx(np.log(coeff), abs=1e-10)
        assert rate.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rate.n_points == 10


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([0.1], [0.2])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.0], [0.2, 0.1])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.01], [0.2, -0.1])


def test_add_noise_contract():
    clean = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(add_noise(clean, 0.0, 5), clean)
    noisy = add_noise(clean, 0.37, 5)
    assert np.linalg.norm(noisy - clean) == pytest.approx(0.37, rel=1e-14)
    np.testing.assert_array_equal(noisy, add_noise(clean, 0.37, 5))
    assert not np.array_equal(noisy, add_noise(clean, 0.37, 6))


def test_alpha_rule_goldens():
    assert alpha_rule(0.01, 2, 1.0) == pytest.approx(0.01)
    assert alpha_rule(0.5, 1, 0.1) == pytest.approx(0.1)
    assert alpha_rule(0.1, 2, 5.0) == pytest.approx(0.5)


def test_generate_problem_diagonal_passes_checks():
    inst = generate_problem("diagonal", 64, sparsity=3, q=1.0, p=2, seed=7)
    assert inst.certificate is not None
    assert int(np.count_nonzero(inst.u_dagger)) == 3
    np.testing.assert_array_equal(inst.clean_data, inst.operator.apply(inst.u_dagger))
    magnitudes = np.abs(inst.u_dagger[inst.u_dagger != 0.0])
    assert np.all((magnitudes >= 0.5) & (magnitudes <= 1.5))


_BOUND_CONSTANTS = RateConstants(
    norm_coeff=0.5, residual_coeff=2.0, exponent=1.5,
    penalty_radius=np.inf, residual_radius=np.inf,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_rule(np.nan, 2),
        lambda: alpha_rule(0.1, 2, np.nan),
        lambda: add_noise(np.ones(3), np.nan, 5),
        lambda: theoretical_bound(_BOUND_CONSTANTS, 2, np.nan, 0.1),
        lambda: theoretical_bound(_BOUND_CONSTANTS, 2, 0.1, np.nan),
        lambda: fit_rate([0.1, 0.01], [0.2, np.nan]),
        lambda: fit_rate([np.inf, 0.01], [0.2, 0.1]),
    ],
    ids=["alpha_rule-delta", "alpha_rule-c", "add_noise", "bound-alpha", "bound-delta",
         "fit_rate-error", "fit_rate-delta"],
)
def test_non_finite_inputs_raise(call):
    # NaN fails every comparison, so each guard must accept only what it
    # names; an inf must not reach the least-squares fit
    with pytest.raises(ValueError):
        call()


def test_generate_problem_zero_sparsity():
    inst = generate_problem("diagonal", 16, sparsity=0, q=1.5, p=2, seed=0)
    np.testing.assert_array_equal(inst.u_dagger, np.zeros(16))
    np.testing.assert_array_equal(inst.clean_data, np.zeros(16))


def test_generate_problem_random_dense_first_draw_rate():
    # m >= 2*sparsity*log(n) keeps both condition checks passing on the
    # first draw for nearly every seed; only q = 1 admits a dual
    # certificate here, since for q > 1 the subgradient is a fixed sparse
    # vector that a strict rowspace generically misses
    n, sparsity = 64, 3
    m = 32
    assert m >= 2.0 * sparsity * np.log(n)
    passes = 0
    for seed in range(100):
        inst = generate_problem(
            "random-dense", n, m=m, sparsity=sparsity, q=1.0, p=2, seed=seed
        )
        # the instance is the draw from the stream [seed, 0]
        if inst.certificate is not None:
            rng = np.random.default_rng([seed, 0])
            rng.standard_normal((m, n))
            positions = rng.choice(n, size=sparsity, replace=False)
            u = np.zeros(n)
            magnitudes = rng.uniform(0.5, 1.5, size=sparsity)
            signs = np.where(rng.random(sparsity) < 0.5, -1.0, 1.0)
            u[positions] = signs * magnitudes
            if np.array_equal(u, inst.u_dagger):
                passes += 1
    assert passes >= 95


def test_generate_problem_keeps_a_failing_instance(tmp_path, monkeypatch):
    # two equal columns under a pinned support: injectivity fails, and the
    # instance is built once, as configured
    matrix = np.random.default_rng(0).standard_normal((6, 4))
    matrix[:, 1] = matrix[:, 0]
    path = tmp_path / "mat.csv"
    np.savetxt(path, matrix, delimiter=",")
    original, reads = experiments.load_matrix_csv, []

    def counting(*args, **kwargs):
        reads.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "load_matrix_csv", counting)
    inst = generate_problem("csv", 4, sparsity=2, seed=0, matrix_path=path, positions=[0, 1])
    assert len(reads) == 1
    np.testing.assert_array_equal(np.flatnonzero(inst.u_dagger), [0, 1])
    # for q > 1 and m < n the source condition generically fails, and the
    # instance carries no certificate
    inst = generate_problem("random-dense", 64, m=24, sparsity=3, q=1.5, seed=0)
    assert inst.certificate is None


def test_generate_problem_positions_override():
    inst = generate_problem(
        "diagonal", 32, sparsity=3, q=1.5, p=2, seed=4, positions=(0, 5, 15)
    )
    np.testing.assert_array_equal(np.flatnonzero(inst.u_dagger), [0, 5, 15])
    with pytest.raises(ValueError):
        generate_problem("diagonal", 32, sparsity=3, seed=4, positions=(0, 5))
    with pytest.raises(ValueError, match="positions must not repeat"):
        generate_problem("diagonal", 32, sparsity=3, seed=4, positions=(0, 5, 5))
    with pytest.raises(ValueError):
        generate_problem("diagonal", 32, sparsity=3, seed=4, positions=(0, 5, 32))


def test_generate_problem_validation_errors():
    for sparsity in (9, -2):
        with pytest.raises(ValueError, match="sparsity must lie in"):
            generate_problem("diagonal", 8, sparsity=sparsity, seed=0)
    with pytest.raises(ValueError):
        generate_problem("unknown-kind", 8, seed=0)
    with pytest.raises(ValueError):
        generate_problem("csv", 8, seed=0)
    with pytest.raises(ValueError):
        generate_problem("diagonal", 8, sparsity=2, seed=0, weights=np.ones(7))
    for kind in ("diagonal", "convolution"):
        with pytest.raises(ValueError, match="square"):
            generate_problem(kind, 8, m=4, sparsity=2, seed=0, kernel_width=0.5)


def test_problem_instance_checks_p_where_built():
    for p in (0, 3):
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            generate_problem("diagonal", 8, sparsity=2, p=p, seed=0)
    with pytest.raises(ValueError, match="p must be 1 or 2"):
        generate_source_problem(n=8, p=3)


def test_certificate_is_computed_on_first_read(monkeypatch):
    calls = []
    real = experiments.check_source_condition

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, "check_source_condition", counting)
    inst = generate_problem("diagonal", 16, sparsity=2, q=1.0, p=1, seed=0)
    assert calls == []
    cert = inst.certificate
    assert cert is not None and inst.certificate is cert
    assert len(calls) == 1
    # the source problem carries its certificate by construction
    assert generate_source_problem(n=16).certificate is not None
    assert len(calls) == 1


def test_generate_source_problem_dense_reference():
    inst = generate_source_problem(n=64, q=1.5, p=2, seed=0)
    assert int(np.count_nonzero(inst.u_dagger)) == 64
    cert = inst.certificate
    assert cert is not None
    # the attached certificate is exact: adjoint of the source element
    # equals the subgradient at the reference
    xi = penalty_subgradient(inst.u_dagger, inst.spec)
    np.testing.assert_allclose(cert.subgradient, xi, atol=1e-12)
    recomputed = check_source_condition(inst.operator, inst.u_dagger, inst.spec)
    assert recomputed is not None
    with pytest.raises(ValueError):
        generate_source_problem(q=1.0)


def test_run_sweep_reference_and_trend():
    inst = generate_problem(
        "diagonal", 64, sparsity=3, q=1.0, p=2, seed=0, positions=(0, 1, 2)
    )
    constants = estimate_rate_constants(
        inst.operator, inst.u_dagger, inst.spec, inst.certificate, 1.0
    )
    deltas = np.logspace(-1, -4, 10)
    result = run_sweep(inst, deltas, 1.0, 5, seed=42, constants=constants)
    assert 0.85 <= result.rate.slope <= 1.15
    assert all(row.converged for row in result.rows)
    by_delta = {}
    for row in result.rows:
        by_delta.setdefault(row.delta, []).append(row.error_norm)
    means = [np.mean(by_delta[d]) for d in sorted(by_delta, reverse=True)]
    assert means[0] > means[-1]


def test_run_sweep_determinism():
    inst = generate_problem(
        "diagonal", 32, sparsity=3, q=1.5, p=2, seed=3, positions=(0, 4, 9)
    )
    deltas = np.logspace(-1, -3, 5)
    a = run_sweep(inst, deltas, 1.0, 3, seed=11)
    b = run_sweep(inst, deltas, 1.0, 3, seed=11)
    assert len(a.rows) == len(b.rows)
    for row_a, row_b in zip(a.rows, b.rows):
        assert row_a.error_norm == row_b.error_norm
        assert row_a.residual_norm == row_b.residual_norm
    assert a.rate.slope == b.rate.slope


@pytest.mark.parametrize("kind", ["diagonal", "toy-nonlinear"])
def test_run_sweep_solves_every_cell_in_one_batch(kind, monkeypatch):
    # p = 2 cells are the rows of one batched solve, and each row equals
    # solving its cell alone, bit for bit
    inst = generate_problem(kind, 24, m=24 if kind == "diagonal" else 30, sparsity=3,
                            q=1.5, p=2, seed=4, positions=(0, 4, 9))
    deltas = np.logspace(-1, -3, 4)
    batches = []
    real = experiments.solve

    def counting(op, data, spec, p, alpha, *args):
        batches.append(len(alpha))
        return real(op, data, spec, p, alpha, *args)

    monkeypatch.setattr(experiments, "solve", counting)
    result = run_sweep(inst, deltas, 1.0, 3, seed=5, solver_tol=1e-9)
    assert batches == [12]
    monkeypatch.setattr(experiments, "solve", real)
    for k, row in enumerate(result.rows):
        level, trial = divmod(k, 3)
        assert (row.delta, row.trial) == (deltas[level], trial)
        noisy = add_noise(inst.clean_data, row.delta, np.random.SeedSequence([5, level, trial]))
        alone = solve_instance(inst, noisy, row.alpha, min(1e-9, 1e-4 * row.delta))
        assert row.error_norm == float(np.linalg.norm(alone.minimizer - inst.u_dagger))
        assert row.residual_norm == alone.residual_norm
        assert (row.iterations, row.converged) == (alone.iterations, alone.converged)


def test_run_sweep_validation():
    inst = generate_problem("diagonal", 16, sparsity=2, q=1.5, p=2, seed=1)
    with pytest.raises(ValueError):
        run_sweep(inst, [0.1, 0.2, 0.05, 0.01], 1.0, 2, seed=0)  # not decreasing
    with pytest.raises(ValueError):
        run_sweep(inst, np.logspace(-1, -2, 3), 1.0, 2, seed=0)  # too few levels


def test_run_sweep_p1_rejects_c_alpha_past_the_bound_before_solving(monkeypatch):
    # the instance of configs/p1_exact.cfg: its residual coefficient is
    # about 4.49, so c_alpha = 1 breaks c_alpha * residual_coeff < 1
    inst = generate_problem("diagonal", 64, sparsity=3, q=1.0, p=1, seed=0, positions=(0, 1, 2))
    constants = check_sparse_rate_conditions(
        inst.operator, inst.u_dagger, inst.spec, inst.certificate
    )[1]
    assert constants.residual_coeff > 1.0
    solves = []
    monkeypatch.setattr(experiments, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="reciprocal of the residual coefficient"):
        run_sweep(inst, np.logspace(-1, -3, 4), 1.0, 2, seed=0, constants=constants)
    assert not solves


def test_exact_recovery_statuses():
    inst = generate_problem("diagonal", 32, sparsity=3, q=1.0, p=1, seed=2)
    beta2 = inst.certificate.source_norm
    report = exact_recovery_test(inst, 0.5 / beta2)
    assert report.status == "pass"
    assert report.error <= report.threshold

    inapplicable = exact_recovery_test(inst, 2.0 / beta2)
    assert inapplicable.status == "inapplicable"

    zero = generate_problem("diagonal", 16, sparsity=0, q=1.0, p=1, seed=0)
    assert exact_recovery_test(zero, 0.1).status == "pass"


def test_csv_and_json_artifacts(tmp_path):
    inst = generate_problem(
        "diagonal", 32, sparsity=3, q=1.0, p=2, seed=5, positions=(0, 1, 2)
    )
    constants = estimate_rate_constants(
        inst.operator, inst.u_dagger, inst.spec, inst.certificate, 1.0
    )
    result = run_sweep(inst, np.logspace(-1, -3, 5), 1.0, 2, seed=9, constants=constants)
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(result, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.rows)
    # floats round-trip exactly through repr
    first = lines[1].split(",")
    assert float(first[0]) == result.rows[0].delta
    assert float(first[3]) == result.rows[0].error_norm
    assert first[8] in {"0", "1"}

    json_path = tmp_path / "rate.json"
    write_rate_json(result, json_path, conditions={"passed": True})
    import json

    payload = json.loads(json_path.read_text())
    assert payload["rate"]["slope"] == result.rate.slope
    assert payload["constants"]["validated"] is True
    assert payload["conditions"] == {"passed": True}
    assert payload["n_rows"] == len(result.rows)


def test_sweep_writers_golden_text(tmp_path):
    # one hand-built row pins the bytes of both writers: floats by repr
    # (nan and inf included), the int and bool fields by their declared
    # type even when NumPy scalars hold them, and sorted strict JSON with
    # the unbounded radius as null
    row = SweepRow(
        delta=0.1, alpha=0.01, trial=2, error_norm=0.25, residual_norm=1.0 / 3.0,
        err_bound=float("nan"), residual_bound=np.inf,
        iterations=np.int64(17), converged=np.bool_(True),
    )
    result = SweepResult(
        rows=[row],
        rate=RateEstimate(slope=1.0, intercept=-0.5, r_squared=0.99, n_points=4),
        constants=RateConstants(
            norm_coeff=0.5, residual_coeff=2.0, exponent=1.5,
            penalty_radius=np.inf, residual_radius=1.0, validated=True,
        ),
    )
    write_sweep_csv(result, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == (
        "delta,alpha,trial,error_norm,residual_norm,err_bound,residual_bound,"
        "iterations,converged\n"
        "0.1,0.01,2,0.25,0.3333333333333333,nan,inf,17,1\n"
    )
    write_rate_json(result, tmp_path / "rate.json", conditions={"sparse": True, "passed": False})
    assert (tmp_path / "rate.json").read_text() == """\
{
  "conditions": {
    "passed": false,
    "sparse": true
  },
  "constants": {
    "exponent": 1.5,
    "norm_coeff": 0.5,
    "penalty_radius": null,
    "residual_coeff": 2.0,
    "residual_radius": 1.0,
    "validated": true
  },
  "n_rows": 1,
  "rate": {
    "intercept": -0.5,
    "n_points": 4,
    "r_squared": 0.99,
    "slope": 1.0
  }
}
"""
