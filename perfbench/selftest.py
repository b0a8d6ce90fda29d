"""Fast self-test of the benchmark at tiny problem sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema and names the same
workloads and metrics as the code, runs every workload once untraced and
once traced on tiny configs, and checks each printed result line: its
keys, that every metric name and unit matches BENCHMARK.json, and that
the run is correct.  Also checks that a changed artifact fails the run,
runs --compare on the results, checks the pooled fail_frac verdict, and
checks that the benchmark refuses to run in a directory without the
package.  Takes under a minute; writes only under perfbench/_work/selftest.
"""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import tracing

WORK = run.WORK_DIR / "selftest"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

TINY_CONFIGS = {
    "sweep-q15": "[problem]\nkind = diagonal\nn = 16\nq = 1.5\nseed = 7\npositions = 0,2,5\n"
                 "[sweep]\ndelta_count = 4\ntrials = 1\n",
    "check-n2048": "[problem]\nkind = diagonal\nn = 64\nq = 1.0\npositions = 0,1,2\n",
    "sweep-nonlinear": "[problem]\nkind = toy-nonlinear\nn = 8\nm = 12\nsparsity = 2\n"
                       "q = 1.5\n[sweep]\ndelta_count = 4\ntrials = 1\n",
}


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds must be a whole number from 1 to 60")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        fail("names must be unique and well formed")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer entry {m}")
    if not all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]):
        fail("malformed unit")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["bound"] != max(
            m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must be present, in s, with the largest bound")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracing.PER_LAYER):
        fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def check_result(stdout: str, expected: list, workload: str) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: run not correct: {result}")
    got = [(name, entry["unit"]) for name, entry in result["metrics"].items()]
    if got != [(m["name"], m["unit"]) for m in expected]:
        fail(f"{workload}: printed metrics {got} differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or not math.isfinite(entry["value"]):
            fail(f"{workload}: metric {name} = {entry}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    run.RESULTS = WORK / "results.json"
    run.DIGESTS = WORK / "digests.json"
    for name, text in TINY_CONFIGS.items():
        path = WORK / f"{name}.cfg"
        path.write_text(text)
        workload = run.WORKLOADS[name]
        command = tuple(str(path.relative_to(run.ROOT)) if a.endswith(".cfg") else a
                        for a in workload.command)
        rows = 4 if workload.sweep_rows else 0
        window = (0.0, 10.0) if workload.slope_window else None
        run.WORKLOADS[name] = replace(workload, command=command, sweep_rows=rows,
                                      slope_window=window)
    run.WORKLOADS["recover-p1"] = replace(run.WORKLOADS["recover-p1"], command=("recover", "8"))

    for name in run.WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace)])
            if code != 0:
                fail(f"{name} --trace {trace} exited {code}")
            check_result(stdout.getvalue(), expected, name)
            print(f"ok  {name} --trace {trace}")

    stored = json.loads(run.DIGESTS.read_text())
    stored["artifacts"] = {key: "0" * 64 for key in stored["artifacts"]}
    run.DIGESTS.write_text(json.dumps(stored))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.main(["--workload", "check-n2048", "--seed", "3", "--seconds", "0"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1:
        fail(f"a changed check.json was not counted as a failure: {result}")
    run.RESULTS.write_text(json.dumps({"runs": json.loads(run.RESULTS.read_text())["runs"][:-1]}))
    print("ok  a changed artifact fails the run")

    ok = [{"failed": 0, "attempted": 10, "correct": True}] * 10
    one_bad = ok[1:] + [{"failed": 1, "attempted": 10, "correct": False}]
    if run.fail_verdict(ok, one_bad)[2] != "worse" or run.fail_verdict(one_bad, ok)[2] != "better":
        fail("fail_frac verdict does not follow the pooled failure fraction")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.compare(run.RESULTS, run.RESULTS)
    rows = stdout.getvalue().splitlines()[1:]
    # fail_frac on every workload; slope_dev and recovery_err on one each
    if len(rows) != len(run.WORKLOADS) * (len(run.END_TO_END) + 1) + 2:
        fail(f"--compare printed {len(rows)} rows:\n{stdout.getvalue()}")
    print("ok  --compare")

    bare = WORK / "bare"
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sweep-q15", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout:
        fail("the benchmark ran without the package next to it")
    print("ok  refuses to run without the package")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
