"""Config parsing round-trips and end-to-end CLI runs with exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsereg import analysis
from sparsereg.cli import main
from sparsereg.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)

ROOT = Path(__file__).resolve().parents[1]

CSV_HEADER = (
    "delta,alpha,trial,error_norm,residual_norm,err_bound,residual_bound,"
    "iterations,converged"
)


def test_config_roundtrip_defaults():
    cfg = ExperimentConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrip_all_optionals():
    cfg = ExperimentConfig(
        kind="csv",
        n=4,
        m=6,
        sparsity=2,
        q=1.5,
        p=1,
        seed=3,
        decay=2.0,
        kernel_width=1.5,
        eps=1e-4,
        matrix_path="mat.csv",
        positions=(0, 2),
        weights_mode="explicit",
        weight=2.0,
        weights=(1.0, 2.0, 0.5, 1.25),
        delta_min=1e-3,
        delta_max=1e-1,
        delta_count=5,
        c_alpha=0.3,
        trials=2,
        solver_max_iter=1000,
        solver_tol=1e-8,
        alpha=0.05,
        out_dir="results",
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_diagnostics_name_fields():
    with pytest.raises(ConfigError, match="problem.q"):
        parse_config("[problem]\nq = 3.0\n")
    with pytest.raises(ConfigError, match="problem.q"):
        parse_config("[problem]\nq = banana\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="problem.volume"):
        parse_config("[problem]\nvolume = 11\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        parse_config("q = 1.0\n")  # key before any section header
    with pytest.raises(ConfigError, match="weights.values"):
        parse_config("[problem]\nn = 4\n[weights]\nmode = explicit\nvalues = 1.0,2.0\n")
    with pytest.raises(ConfigError, match="sweep.delta_min"):
        parse_config("[sweep]\ndelta_min = 0.5\ndelta_max = 0.1\n")


def _write(path, text):
    path.write_text(text)
    return str(path)


SWEEP_CFG = """\
[problem]
kind = diagonal
n = 32
sparsity = 3
q = 1.0
p = 2
seed = 0
positions = 0,1,2

[sweep]
delta_min = 1e-3
delta_max = 1e-1
delta_count = 5
trials = 2
"""


def test_cli_sweep_artifacts_and_determinism(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", SWEEP_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["rate.json", "rate.svg", "sweep.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    lines = (out_a / "sweep.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5 * 2
    payload = json.loads((out_a / "rate.json").read_text())
    assert 0.85 <= payload["rate"]["slope"] <= 1.15
    assert payload["conditions"]["passed"] is True
    svg = (out_a / "rate.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_cli_sweep_reference_q1_and_q2_slopes(tmp_path):
    assert (
        main(["sweep", "--config", "configs/q1_diagonal.cfg", "--out", str(tmp_path / "q1")])
        == 0
    )
    slope1 = json.loads((tmp_path / "q1" / "rate.json").read_text())["rate"]["slope"]
    assert 0.85 <= slope1 <= 1.15
    assert (
        main(["sweep", "--config", "configs/q2_diagonal.cfg", "--out", str(tmp_path / "q2")])
        == 0
    )
    slope2 = json.loads((tmp_path / "q2" / "rate.json").read_text())["rate"]["slope"]
    assert 0.40 <= slope2 <= 0.65


def test_cli_sweep_too_few_levels_is_numeric_failure(tmp_path, capsys):
    # five levels pass validation, but one iteration converges in none of
    # them, so every level is left out of the fit
    cfg = _write(tmp_path / "short.cfg", SWEEP_CFG + "\n[solver]\nmax_iter = 1\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "4 usable noise levels" in capsys.readouterr().err


# at a noise level of 1e300 the solver's data products overflow too
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_sweep_overflowing_bound_is_inf(tmp_path):
    text = (ROOT / "configs" / "q15_diagonal.cfg").read_text()
    cfg = _write(tmp_path / "big.cfg", text.replace("delta_max = 1e-1", "delta_max = 1e300"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    first = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert first["delta"] == "1e+300"
    assert first["err_bound"] == first["residual_bound"] == "inf"
    # the five levels whose residual overflows are not converged, and so
    # leave the rate fit
    table = [dict(zip(rows[0].split(","), row.split(","))) for row in rows[1:]]
    failed = {row["delta"] for row in table if row["converged"] == "0"}
    assert len(failed) == 5
    assert all((row["residual_norm"] == "inf") == (row["delta"] in failed) for row in table)
    assert json.loads((tmp_path / "o" / "rate.json").read_text())["rate"]["n_points"] == 5


def test_cli_sweep_too_few_levels_is_config_error(tmp_path, capsys):
    cfg = _write(
        tmp_path / "short.cfg", SWEEP_CFG.replace("delta_count = 5", "delta_count = 3")
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sweep.delta_count" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, line",
    [
        ("sweep", "c_alpha = nan"),
        ("sweep", "delta_max = inf"),
        ("sweep", "delta_min = nan"),
        ("solver", "tol = nan"),
    ],
)
def test_cli_non_finite_value_is_config_error(tmp_path, capsys, section, line):
    # such values parse as floats; they must fail at config time, naming
    # the key, not later inside a solve
    name = line.split()[0]
    rows = [row for row in SWEEP_CFG.splitlines() if not row.startswith(f"{name} ")]
    if f"[{section}]" not in rows:
        rows.append(f"[{section}]")
    rows.insert(rows.index(f"[{section}]") + 1, line)
    cfg = _write(tmp_path / "bad.cfg", "\n".join(rows) + "\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{section}.{name}" in err and "must be finite" in err
    assert not (tmp_path / "o").exists()


def test_cli_square_kinds_reject_m(tmp_path, capsys):
    exact = Path("configs/p1_exact.cfg").read_text()
    for kind in ("diagonal", "convolution"):
        text = exact.replace("kind = diagonal", f"kind = {kind}")
        with pytest.raises(ConfigError, match="problem.m"):
            parse_config(text.replace("n = 64", "n = 64\nm = 10"))
        assert parse_config(text.replace("n = 64", "n = 64\nm = 64")).m == 64
    cfg = _write(tmp_path / "m.cfg", exact.replace("n = 64", "n = 64\nm = 10"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "problem.m" in capsys.readouterr().err


def test_cli_sweep_empty_grid_is_config_error(tmp_path, capsys):
    cfg = _write(
        tmp_path / "empty.cfg", SWEEP_CFG.replace("delta_count = 5", "delta_count = 0")
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "sweep.delta_count" in capsys.readouterr().err


def test_cli_missing_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_malformed_config_names_field(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "[problem]\nq = 7\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "problem.q" in capsys.readouterr().err


def test_cli_usage_errors_are_config_errors(tmp_path, capsys):
    # exit 2 means numerical failure, so a bad command line must exit 1
    assert main(["sweep"]) == 1
    assert "required: --config" in capsys.readouterr().err
    cfg = _write(tmp_path / "sweep.cfg", SWEEP_CFG)
    assert main(["sweep", "--config", cfg, "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _count_certificates(monkeypatch) -> list:
    """Count check_source_condition calls through every module binding it."""
    original = analysis.check_source_condition
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sparsereg" and (
            getattr(module, "check_source_condition", None) is original
        ):
            monkeypatch.setattr(module, "check_source_condition", counting)
    return calls


def test_cli_check_computes_one_certificate(tmp_path, monkeypatch):
    calls = _count_certificates(monkeypatch)
    out = tmp_path / "out"
    assert main(["check", "--config", "configs/q1_diagonal.cfg", "--out", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads((out / "check.json").read_text())
    assert payload["checks"]["source_condition"]["passed"] is True
    assert payload["constants"]["passed"] is True


def test_cli_sweep_computes_one_certificate(tmp_path, monkeypatch):
    calls = _count_certificates(monkeypatch)
    cfg = _write(tmp_path / "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads((out / "rate.json").read_text())
    assert payload["conditions"]["source_condition"]["passed"] is True
    assert payload["constants"]["validated"] is True


def test_cli_solve_exact_recovery(tmp_path):
    out = tmp_path / "out"
    assert (
        main(["solve", "--config", "configs/p1_exact.cfg", "--out", str(out)]) == 0
    )
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[0] == "index,reference,recovered"
    worst = max(
        abs(float(ref) - float(rec))
        for _, ref, rec in (line.split(",") for line in rows[1:])
    )
    assert worst <= 1e-6
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["delta"] == 0.0


def test_cli_solve_noisy_residual_bound(tmp_path):
    # p = 1 at alpha below 1/source_norm keeps the data residual within
    # delta * (1 + alpha*beta2) / (1 - alpha*beta2)
    from sparsereg.config import load_config
    from sparsereg.experiments import generate_problem

    out = tmp_path / "out"
    code = main(
        ["solve", "--config", "configs/p1_exact.cfg", "--out", str(out), "--delta", "0.1"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    cfg = load_config("configs/p1_exact.cfg")
    inst = generate_problem(
        cfg.kind,
        cfg.n,
        sparsity=cfg.sparsity,
        q=cfg.q,
        p=cfg.p,
        seed=cfg.seed,
        positions=cfg.positions,
    )
    coupling = cfg.alpha * inst.certificate.source_norm
    assert coupling < 1.0
    assert report["residual_norm"] <= 0.1 * (1.0 + coupling) / (1.0 - coupling)


def test_cli_solve_nonconvergence(tmp_path, capsys):
    cfg = _write(
        tmp_path / "tiny.cfg",
        SWEEP_CFG + "\n[solver]\nmax_iter = 5\ntol = 1e-14\n",
    )
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out), "--delta", "0.01"])
    assert code == 2
    assert "without" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["iterations"] == 5


def test_cli_solve_noise_free_p2_needs_alpha(tmp_path, capsys):
    cfg = _write(tmp_path / "p2.cfg", SWEEP_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "solver.alpha" in capsys.readouterr().err


def test_cli_check_reference_configs(tmp_path, capsys):
    out = tmp_path / "lin"
    assert main(["check", "--config", "configs/q1_diagonal.cfg", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "source_condition: pass" in text
    assert "overall: pass" in text
    payload = json.loads((out / "check.json").read_text())
    assert payload["passed"] is True
    assert payload["constants"]["passed"] is True

    out2 = tmp_path / "nonlin"
    assert (
        main(["check", "--config", "configs/nonlinear_toy.cfg", "--out", str(out2)]) == 0
    )
    text = capsys.readouterr().out
    assert "linearization_inequality: pass" in text
    assert "not applicable (nonlinear operator)" in text
    payload = json.loads((out2 / "check.json").read_text())
    assert payload["passed"] is True
    assert payload["constants"] == {"applicable": False}


def test_cli_check_rank_deficient_support(tmp_path, capsys):
    # duplicate columns under the support make the restricted operator
    # singular, which the check must flag
    matrix = tmp_path / "mat.csv"
    cols = np.random.default_rng(0).standard_normal((6, 4))
    cols[:, 1] = cols[:, 0]
    np.savetxt(matrix, cols, delimiter=",")
    cfg = _write(
        tmp_path / "rank.cfg",
        f"""\
[problem]
kind = csv
n = 4
sparsity = 2
q = 1.0
seed = 0
matrix_path = {matrix}
positions = 0,1
""",
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    text = capsys.readouterr().out
    assert "support_injectivity: FAIL" in text
    assert "overall: FAIL" in text
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["passed"] is False
    assert payload["checks"]["support_injectivity"]["passed"] is False


def test_cli_no_stray_temp_files(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["rate.json", "rate.svg", "sweep.csv"]


def test_cli_sweep_setup_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs every process milliseconds and about a megabyte of
    # memory; nothing on the sweep path needs it
    script = (
        "import sys\n"
        "from sparsereg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    config = str(ROOT / "configs" / "q15_diagonal.cfg")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout.splitlines()[-1] == "0 False"


def test_cli_duplicate_positions_is_config_error(tmp_path, capsys):
    text = (ROOT / "configs" / "q15_diagonal.cfg").read_text()
    cfg = _write(tmp_path / "dup.cfg", text.replace("positions = 0,5,15", "positions = 0,5,5"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "problem.positions" in err and "must not repeat" in err
