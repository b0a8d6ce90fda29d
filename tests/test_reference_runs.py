"""The reference runs: the CLI commands whose artifacts must stay byte-identical.

`RUNS` is the one list of them.  Each run writes its artifacts under
OUTDIR/<command>_<config>/ and must return its exit code.  Tier-1 runs the
table in process and again in a fresh interpreter, and requires the two
sets of artifacts to be equal byte for byte.

Run as a script, with `RuntimeWarning` as an error:

    python tests/test_reference_runs.py OUTDIR

It exits 1 if any run returns the wrong exit code.  To see which artifacts
a change moves, run that command in a checkout of the parent and in one of
the change, then `diff -r` the two OUTDIRs.
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

ARTIFACTS = {
    "check": ["check.json"],
    "solve": ["report.json", "solution.csv"],
    "sweep": ["rate.json", "rate.svg", "sweep.csv"],
}

# (command, config, extra flags, exit code); dense, dense_p1 and rank are
# the csv configs that _write_inputs generates, dense_p1 a p = 1 sweep on
# the dense matrix and rank with two equal support columns
RUNS = [
    ("check", "n2048", [], 0),
    ("check", "nonlinear_toy", [], 0),
    ("check", "p1_exact", [], 0),
    ("check", "q15_diagonal", [], 0),
    ("check", "q1_diagonal", [], 0),
    ("check", "q2_diagonal", [], 0),
    ("check", "dense", [], 0),
    ("solve", "p1_exact", [], 0),
    ("solve", "q15_diagonal", ["--delta", "0.01"], 0),
    ("solve", "nonlinear_toy", ["--delta", "0.01"], 0),
    ("sweep", "q1_diagonal", [], 0),
    ("sweep", "q2_diagonal", [], 0),
    ("sweep", "q15_diagonal", [], 0),
    ("sweep", "nonlinear_toy", [], 0),
    ("sweep", "dense", [], 0),
    ("sweep", "dense_p1", [], 0),
    ("check", "rank", [], 3),
    ("sweep", "rank", [], 3),
]

EXPECTED_CODES = {f"{command}_{config}": code for command, config, _, code in RUNS}


def _write_inputs(directory: Path) -> dict:
    """Write the generated csv matrices and their configs into directory;
    return the path of every config in the table by name."""
    dense = np.random.default_rng(0).standard_normal((48, 32))
    rank = np.random.default_rng(0).standard_normal((6, 4))
    rank[:, 1] = rank[:, 0]
    np.savetxt(directory / "dense.csv", dense, delimiter=",")
    np.savetxt(directory / "rank.csv", rank, delimiter=",")
    (directory / "dense.cfg").write_text(
        "[problem]\nkind = csv\nn = 32\nsparsity = 3\nq = 1.0\nseed = 0\n"
        f"matrix_path = {directory / 'dense.csv'}\n"
    )
    (directory / "dense_p1.cfg").write_text(
        "[problem]\nkind = csv\nn = 32\nsparsity = 3\nq = 1.0\np = 1\nseed = 0\n"
        f"matrix_path = {directory / 'dense.csv'}\n"
        "[sweep]\ndelta_min = 1e-2\ndelta_count = 4\nc_alpha = 0.1\ntrials = 2\n"
    )
    (directory / "rank.cfg").write_text(
        "[problem]\nkind = csv\nn = 4\nsparsity = 2\nq = 1.0\nseed = 0\n"
        f"matrix_path = {directory / 'rank.csv'}\npositions = 0,1\n"
    )
    configs = {path.stem: path for path in (ROOT / "configs").glob("*.cfg")}
    configs["n2048"] = ROOT / "perfbench" / "check_n2048.cfg"
    configs["dense"] = directory / "dense.cfg"
    configs["dense_p1"] = directory / "dense_p1.cfg"
    configs["rank"] = directory / "rank.cfg"
    return configs


def run_reference(out: Path) -> dict:
    """Run every reference run under out; return the exit codes by run name."""
    from sparsereg.cli import main  # here, so that the script can set sys.path first

    codes = {}
    with tempfile.TemporaryDirectory() as inputs:
        configs = _write_inputs(Path(inputs))
        for command, config, flags, _ in RUNS:
            name = f"{command}_{config}"
            argv = [command, "--config", str(configs[config]), *flags, "--out", str(out / name)]
            codes[name] = main(argv)
    return codes


def _files(out: Path) -> list:
    return sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file())


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    return out, run_reference(out)


def test_reference_runs_exit_codes_and_artifacts(reference):
    out, codes = reference
    assert codes == EXPECTED_CODES
    for command, config, _, _ in RUNS:
        run = out / f"{command}_{config}"
        assert sorted(path.name for path in run.iterdir()) == ARTIFACTS[command]
        assert all(path.stat().st_size > 0 for path in run.iterdir())
    assert len(_files(out)) == 35
    # every JSON artifact is strict JSON: an unbounded radius is null, not
    # the bare token Infinity
    written = sorted(out.rglob("*.json"))
    assert len(written) == 18
    payloads = {
        str(path.relative_to(out)): json.loads(path.read_text(), parse_constant=_reject_constant)
        for path in written
    }
    assert payloads["check_q1_diagonal/check.json"]["constants"]["penalty_radius"] is None
    assert payloads["sweep_q15_diagonal/rate.json"]["constants"]["penalty_radius"] is None


def test_every_committed_config_has_a_reference_run():
    # a config added under configs/ joins the byte-identity check only
    # through a row of RUNS
    stems = {path.stem for path in (ROOT / "configs").glob("*.cfg")}
    assert stems and stems <= {config for _, config, _, _ in RUNS}


def test_reference_runs_are_byte_identical_in_a_fresh_interpreter(reference, tmp_path):
    out, _ = reference
    fresh = tmp_path / "fresh"
    run = subprocess.run([sys.executable, __file__, str(fresh)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert _files(fresh) == _files(out)
    for name in _files(out):
        assert (fresh / name).read_bytes() == (out / name).read_bytes(), name


def test_module_entry_point_matches_the_table(reference, tmp_path):
    out, _ = reference
    config = str(ROOT / "configs" / "q15_diagonal.cfg")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sparsereg.cli",
         "sweep", "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    for name in ARTIFACTS["sweep"]:
        assert (tmp_path / "o" / name).read_bytes() == (
            out / "sweep_q15_diagonal" / name
        ).read_bytes(), name


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("error", RuntimeWarning)
    codes = run_reference(Path(sys.argv[1]))
    wrong = {name: code for name, code in codes.items() if code != EXPECTED_CODES[name]}
    for name, code in wrong.items():
        print(f"{name}: exit {code}, expected {EXPECTED_CODES[name]}", file=sys.stderr)
    sys.exit(1 if wrong else 0)
