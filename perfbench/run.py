"""The sparsereg benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.json

Run from the root of a plain checkout; nothing is built.  Every
workload process is a fresh interpreter with ``src`` on its path, and
one runs at a time (a closed loop with one client).  An operation is one
CLI command or one recovery instance.  The workload seed picks the
inputs (see WORKLOADS for what it picks), so the same seed gives the
same inputs.  A run ends at the process boundary nearest to S seconds
after it started: another process starts only if at least half of it is
expected to fall within S seconds.  The artifacts of a CLI input must
be byte-identical whenever the same code runs that input again, in this
run or an earlier one in the same checkout (see check_outputs).

--trace 0 reports the end-to-end metrics (medians over the run's
workload processes) with tracing off.  --trace 1 runs each input untraced and
then traced, and derives the per-layer metrics from the spans the traced
process writes (see tracing.py).  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
same run, with sample counts and the environment, is appended to
perfbench/results/results.json.

--compare prints, for each workload and end-to-end metric, the ratio of
the medians of OLD.json and perfbench/results/results.json, the metric's
bound from BENCHMARK.json and a verdict: better, no change, worse or
unresolved.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
RESULTS = BENCH_DIR / "results" / "results.json"
DIGESTS = WORK_DIR / "digests.json"  # artifact digests of earlier runs
PACKAGE = ROOT / "src" / "sparsereg"

SETUP_SAMPLES = 6  # set-up-only processes per untraced run, after one warm-up
OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # start no process whose expected end lies past this
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of the end-to-end metrics reported with --trace 0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# quality metrics printed and stored with the run but not in BENCHMARK.json:
# fail_frac is 0 on a correct run, and the other two exist on one workload
# each.  --compare judges fail_frac pooled over runs and the other two
# against these bounds.
QUALITY_BOUNDS = {"slope_dev": 1.0, "recovery_err": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    # child.py mode and arguments; the input seed is appended
    command: tuple
    # input seeds: drawn from the workload seed, or (seeded=False) the
    # config's own seed; a pool is run whole by one process, in an order the
    # workload seed shuffles
    seeded: bool = False
    pool: tuple = ()
    # files each input writes; every later run of the same input and code
    # must reproduce them byte for byte
    artifacts: tuple = ()
    sweep_rows: int = 0
    slope_window: Optional[tuple] = None
    q: Optional[float] = None  # penalty exponent, for slope_dev


SWEEP_ARTIFACTS = ("sweep.csv", "rate.json", "rate.svg")
WORKLOADS = {
    w.name: w
    for w in (
        # FISTA sweep whose every step runs the interior-q prox Newton kernel.
        # The reference instance is kept: its cost moves by +-10% with the seed.
        Workload("sweep-q15", ("cli", "sweep", "--config", "configs/q15_diagonal.cfg"),
                 artifacts=SWEEP_ARTIFACTS, sweep_rows=50, slope_window=(0.55, 0.80), q=1.5),
        # noise-free p = 1 PDHG solves; closed-form prox, so iteration count
        # times per-iteration overhead is the whole cost.  Iterations range
        # from 5k to 140k over random instances, so every run recovers the
        # same criterion-05 instances, in one process so that swings in CPU
        # speed average out over its whole wall time; the seed sets the
        # order.  The first six of its ten seeds keep a run near 25 s.
        Workload("recover-p1", ("recover", "64"), pool=tuple(range(6))),
        # dense O(n^3) analysis at n = 2048, no solver; the cost does not
        # depend on the data, so the workload seed picks it.  Each drawn
        # input runs twice in a row, so that its artifacts are compared.
        Workload("check-n2048", ("cli", "check", "--config", "perfbench/check_n2048.cfg"),
                 seeded=True, artifacts=("check.json",)),
        # dense nonlinear operator: Gauss-Newton with a power iteration per
        # step; the reference instance is kept, as for sweep-q15
        Workload("sweep-nonlinear", ("cli", "sweep", "--config", "configs/nonlinear_toy.cfg"),
                 artifacts=SWEEP_ARTIFACTS, sweep_rows=50),
    )
}


@dataclass
class Op:
    """One workload process: its measurements and the outputs it left."""

    directory: Path
    inputs: tuple  # one CLI seed (None: the config's own), or recovery seeds
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: Optional[float] = None
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    failed: int = 0  # failed operations: CLI commands or recovery instances

    @property
    def size(self) -> int:
        return len(self.inputs)


class HarnessError(RuntimeError):
    """The benchmark cannot measure anything in this checkout."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPARSEREG_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


def spawn(workload: Workload, directory: Path, inputs: tuple, setup_only=False,
          trace_run_id: Optional[int] = None) -> Op:
    """Run one workload process to completion and measure it."""
    directory.mkdir(parents=True)
    op = Op(directory, inputs, traced=trace_run_id is not None)
    mode, *args = workload.command
    if mode == "cli":
        args = [str(ROOT / a) if a.endswith(".cfg") else a for a in args]
        args += ["--out", str(directory / "out")]
        if inputs[0] is not None:
            args += ["--seed", str(inputs[0])]
    else:
        args += [str(seed) for seed in inputs]
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "--summary",
            str(directory / "summary.json")]
    if setup_only:
        argv.append("--setup-only")
    if op.traced:
        argv += ["--trace", str(directory / "trace.npz"), "--run-id", str(trace_run_id)]
    argv += [mode, *args]

    with open(directory / "stdout.txt", "wb") as out, open(directory / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        lock = threading.Lock()
        exited = False

        def expire():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, expire)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            op.wall_s = time.monotonic() - started
            with lock:
                exited = True
        finally:
            timer.cancel()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.peak_rss_mb = usage.ru_maxrss / 1024.0
    try:
        op.summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        op.problems.append("no summary from the workload process")
    if op.summary.get("setup_mark") is not None:
        op.setup_s = op.summary["setup_mark"] - started
    if proc.returncode != 0:
        op.problems.append(f"exit code {proc.returncode}")
    return op


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


def code_digest() -> str:
    """Digest of the package source and the workload process script."""
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [BENCH_DIR / "child.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_digests(code: str) -> dict:
    """Artifact digests stored by earlier runs of the same code, by key."""
    try:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return stored["artifacts"] if stored.get("code") == code else {}


def save_digests(code: str, digests: dict) -> None:
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": code, "artifacts": digests}, indent=1) + "\n",
                   encoding="utf-8")
    os.replace(tmp, DIGESTS)


def check_outputs(workload: Workload, op: Op, digests: dict) -> dict:
    """Record output problems and failed operations in op; return the
    quality values (name -> list).

    digests maps (workload, config, input, artifact) keys to the SHA-256 of
    the artifact that the same code wrote before; a new key is added.
    """
    quality = {}
    out = op.directory / "out"
    if workload.command[0] == "recover":
        instances = op.summary.get("result", {}).get("instances", [])
        if len(instances) != op.size:
            op.problems.append(f"{len(instances)} of {op.size} recoveries reported")
        for instance in instances:
            if instance["status"] != "pass":
                op.problems.append(f"instance {instance['seed']}: status {instance['status']!r}")
        op.failed = op.size - sum(1 for i in instances if i["status"] == "pass")
        quality["recovery_err"] = [i["recovery_err"] for i in instances]
        return quality
    if workload.sweep_rows:
        rows = (_read(out / "sweep.csv") or b"").count(b"\n") - 1
        if rows != workload.sweep_rows:
            op.problems.append(f"sweep.csv has {rows} rows, expected {workload.sweep_rows}")
        try:
            slope = json.loads(_read(out / "rate.json") or b"")["rate"]["slope"]
        except (ValueError, KeyError, TypeError):
            op.problems.append("rate.json missing or without a slope")
        else:
            if workload.slope_window is not None:
                low, high = workload.slope_window
                if not low <= slope <= high:
                    op.problems.append(f"slope {slope:.4f} outside [{low}, {high}]")
            if workload.q is not None:
                quality["slope_dev"] = [abs(slope - 1.0 / workload.q)]
    if "check.json" in workload.artifacts:
        stdout = _read(op.directory / "stdout.txt") or b""
        try:
            passed = json.loads(_read(out / "check.json") or b"")["passed"]
        except (ValueError, KeyError, TypeError):
            passed = False
        if not passed or b"overall: pass" not in stdout:
            op.problems.append("check did not report overall: pass")
    configs = [hashlib.sha256(_read(ROOT / a) or b"").hexdigest()[:16]
               for a in workload.command if a.endswith(".cfg")]
    for name in workload.artifacts:
        content = _read(out / name)
        if content is None:
            op.problems.append(f"{name} missing")
            continue
        key = " ".join([workload.name, *configs, str(op.inputs[0]), name])
        digest = hashlib.sha256(content).hexdigest()
        if digests.setdefault(key, digest) != digest:
            op.problems.append(f"{name} differs from an earlier run of this input")
    op.failed = 1 if op.problems else 0
    return quality


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git only ("unknown" if none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_sequence(workload: Workload, seed: int, traced: bool):
    """Yield the inputs of the run's workload processes, in order.

    A traced run takes a pool one input at a time: the per-layer metrics
    need no more, and each input runs both untraced and traced.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.pool:
        order = list(workload.pool)
        rng.shuffle(order)
        while True:
            yield from ((s,) for s in order) if traced else [tuple(order)]
    # a drawn input with artifacts runs twice, so that the run compares them
    repeats = 2 if workload.seeded and workload.artifacts and not traced else 1
    while True:
        inputs = (rng.randrange(2**31) if workload.seeded else None,)
        for _ in range(repeats):
            yield inputs


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload for `seconds` and return the run record."""
    configs = [ROOT / a for a in workload.command if a.endswith(".cfg")]
    for path in (PACKAGE / "__init__.py", *configs):
        if not path.is_file():
            raise HarnessError(f"{path.relative_to(ROOT)} not found; run from a sparsereg checkout")
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    code = code_digest()
    digests = load_digests(code)
    sequence = input_sequence(workload, seed, traced)
    inputs = next(sequence)
    started = time.monotonic()
    deadline = started + seconds

    warm = spawn(workload, work / "warmup", inputs[:1], setup_only=True)
    package = warm.summary.get("package", "")
    if warm.problems or warm.setup_s is None:
        raise HarnessError(f"warm-up process failed ({'; '.join(warm.problems)}); "
                           f"see {warm.directory / 'stderr.txt'}")
    if not Path(package).resolve().is_relative_to(PACKAGE):
        raise HarnessError(f"imported sparsereg from {package}, not from {PACKAGE}")

    setups = []
    if not traced:
        for i in range(SETUP_SAMPLES):
            op = spawn(workload, work / f"setup{i}", inputs[:1], setup_only=True)
            if op.problems or op.setup_s is None:
                raise HarnessError(f"set-up process failed: {'; '.join(op.problems)}")
            setups.append(op.setup_s)

    ops, quality = [], {}
    pairs = []  # traced runs: (untraced op, traced op) of the same input
    steps_started = time.monotonic()
    steps = 0
    while True:
        untraced = None
        for trace_run_id in ([None, len(ops) + 1] if traced else [None]):
            op = spawn(workload, work / f"op{len(ops)}", inputs, trace_run_id=trace_run_id)
            for name, values in check_outputs(workload, op, digests).items():
                quality.setdefault(name, []).extend(values)
            if op.traced and (op.directory / "trace.npz").is_file():
                pairs.append((untraced, op))
            untraced = untraced or op
            ops.append(op)
        # end the run at the step boundary nearest to the deadline
        steps += 1
        now = time.monotonic()
        step_s = (now - steps_started) / steps
        if now + step_s / 2 > deadline or now + step_s > started + RUN_LIMIT_S:
            break
        inputs = next(sequence)
    save_digests(code, digests)

    attempted = sum(op.size for op in ops)
    failed = sum(op.failed for op in ops)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops": [{"inputs": op.inputs, "traced": op.traced, "wall_s": op.wall_s,
                 "cpu_s": op.cpu_s, "setup_s": op.setup_s} for op in ops],
        "problems": [f"op{i}: {p}" for i, op in enumerate(ops) for p in op.problems],
        "env": {
            "kernel_backend": warm.summary["kernel_backend"],
            "blas_threads": NPROC,
            "nproc": NPROC,
            "cpu_model": cpu_model(),
            "python": warm.summary["python"],
            "numpy": warm.summary["numpy"],
            "commit": git_commit(),
        },
        "metrics": {},
    }
    metrics = record["metrics"]
    if traced:
        if not pairs:
            raise HarnessError("no traced operation wrote its trace file")
        values = tracing.layer_metrics(
            [op.directory / "trace.npz" for _, op in pairs],
            [op.wall_s for _, op in pairs],
            [untraced.wall_s for untraced, _ in pairs],
            [op.summary["import_s"] for _, op in pairs],
        )
        for name, unit in tracing.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit, "samples": len(pairs)}
    else:
        setups += [op.setup_s for op in ops if op.setup_s is not None]
        samples = {
            "wall_s": [op.wall_s for op in ops],
            "setup_s": setups,
            "cpu_s": [op.cpu_s for op in ops],
            "peak_rss_mb": [op.peak_rss_mb for op in ops],
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit,
                             "samples": len(samples[name])}
    record["quality"] = {"fail_frac": {"value": failed / attempted, "unit": "ratio",
                                       "samples": attempted}}
    for name, values in quality.items():
        if values:
            # worst case over the run: the largest deviation or error
            record["quality"][name] = {"value": max(values), "unit": "1",
                                       "samples": len(values)}
    return record


def save(record: dict) -> None:
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    try:
        runs = json.loads(RESULTS.read_text(encoding="utf-8"))["runs"]
    except (OSError, ValueError, KeyError):
        runs = []
    runs.append(record)
    tmp = RESULTS.with_suffix(".tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, RESULTS)


def report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':44} {'value':>16} {'unit':6} samples")
    for name, entry in {**record["metrics"], **record["quality"]}.items():
        print(f"{name:44} {entry['value']:16.6g} {entry['unit']:6} {entry['samples']}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in record["metrics"].items()},
    }))


# ---------------------------------------------------------------------------
# --compare


def _spread(values):
    """Interquartile distance as a share of the median (inf below 3 runs)."""
    if len(values) < 3:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / median if median else float("inf")


def verdict(old: list, new: list, bound: float) -> tuple:
    """(ratio, spread, verdict) for a lower-is-better metric.

    Better needs nine tenths of all (old run, new run) pairs won and the
    medians apart by more than the old runs' interquartile distance, or
    every new run below every old run when the spread exceeds the bound.
    """
    m_old, m_new = statistics.median(old), statistics.median(new)
    ratio = m_new / m_old if m_old else (1.0 if m_new == 0 else float("inf"))
    spread = max(_spread(old), _spread(new))
    wins = sum(n < o for o in old for n in new) / (len(old) * len(new))
    if spread > bound:
        return ratio, spread, "better" if wins == 1.0 else "unresolved"
    if ratio > 1.0 + bound:
        return ratio, spread, "worse"
    q1, _, q3 = statistics.quantiles(old, n=4)
    if wins >= 0.9 and m_old - m_new > q3 - q1:
        return ratio, spread, "better"
    return ratio, spread, "no change"


def fail_verdict(old: list, new: list) -> tuple:
    """(old, new, verdict) of fail_frac pooled over runs: failed operations
    over attempted ones.  Any failure more than before is worse."""
    pooled = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in (old, new)]
    if pooled[1] > pooled[0] or not all(r["correct"] for r in new):
        call = "worse"
    else:
        call = "better" if pooled[1] < pooled[0] else "no change"
    return pooled[0], pooled[1], call


def compare(old_path: Path, new_path: Path) -> int:
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    bounds.update(QUALITY_BOUNDS)

    def load(path):
        groups = {}
        for rec in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
            if not rec["trace"]:
                groups.setdefault(rec["workload"], []).append(rec)
        return groups

    old, new = load(old_path), load(new_path)
    print(f"{'workload':16} {'metric':14} {'old':>11} {'new':>11} {'ratio':>7} "
          f"{'bound':>6} {'spread':>7} runs   verdict")
    for name in WORKLOADS:
        if name not in old or name not in new:
            continue
        backends = ({r["env"]["kernel_backend"] for r in old[name]},
                    {r["env"]["kernel_backend"] for r in new[name]})
        m_old, m_new, call = fail_verdict(old[name], new[name])
        print(f"{name:16} {'fail_frac':14} {m_old:11.5g} {m_new:11.5g} {'':7} "
              f"{0.0:6.2f} {'pooled':>7} {len(old[name])}/{len(new[name]):<4} {call}")
        for metric in bounds:
            o = [r[k][metric]["value"] for r in old[name] for k in ("metrics", "quality")
                 if metric in r[k]]
            n = [r[k][metric]["value"] for r in new[name] for k in ("metrics", "quality")
                 if metric in r[k]]
            if not o or not n:
                continue
            ratio, spread, call = verdict(o, n, bounds[metric])
            if backends[0] != backends[1]:
                call = f"unresolved: kernel backend {sorted(backends[0])} vs {sorted(backends[1])}"
            print(f"{name:16} {metric:14} {statistics.median(o):11.5g} "
                  f"{statistics.median(n):11.5g} {ratio:7.3f} {bounds[metric]:6.2f} "
                  f"{spread:7.3f} {len(o)}/{len(n):<4} {call}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="OLD.json",
                        help=f"compare OLD.json with {RESULTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare), RESULTS)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        save(record)
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
