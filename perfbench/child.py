"""One benchmark operation in a fresh interpreter (spawned by run.py).

    child.py --summary PATH [--setup-only] [--trace PATH --run-id N] cli ARG...
    child.py --summary PATH [--setup-only] [--trace PATH --run-id N] recover N SEED...

`cli` runs ``sparsereg.cli.main(ARG...)``; `recover` runs one exact p = 1
recovery per SEED on the criterion-05 instance family (diagonal, n = N,
3-sparse random support, q = 1, alpha = 0.5/source_norm).
The summary file records when set-up finished: the clock is
CLOCK_MONOTONIC, which the spawning process shares, so it can subtract
its own spawn time.  Set-up ends when the workload's generate_problem
call returns; with --setup-only the process stops there.
"""

import argparse
import json
import sys
import time


class _SetupDone(Exception):
    """Raised through the CLI to stop a --setup-only process after set-up."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("mode", choices=("cli", "recover"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    started = time.perf_counter()
    import numpy as np
    import sparsereg
    import sparsereg.cli

    summary = {
        "import_s": time.perf_counter() - started,
        "package": sparsereg.__file__,
        "kernel_backend": sparsereg.KERNEL_BACKEND,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "setup_mark": None,
        "result": {},
    }
    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer(opts.run_id)
        tracing.install(tracer)

    def setup_done():
        summary["setup_mark"] = time.monotonic()
        if opts.setup_only:
            raise _SetupDone

    code = 0
    try:
        if opts.mode == "cli":
            generate = sparsereg.cli.generate_problem

            def generate_then_mark(*args, **kwargs):
                instance = generate(*args, **kwargs)
                setup_done()
                return instance

            sparsereg.cli.generate_problem = generate_then_mark
            code = sparsereg.cli.main(opts.args)
        else:
            n, seeds = int(opts.args[0]), [int(a) for a in opts.args[1:]]
            summary["result"] = {"instances": []}
            for seed in seeds:
                instance = sparsereg.generate_problem(
                    "diagonal", n, sparsity=3, q=1.0, p=1, seed=seed
                )
                if summary["setup_mark"] is None:
                    setup_done()
                alpha = 0.5 / instance.certificate.source_norm
                report = sparsereg.exact_recovery_test(instance, alpha)
                scale = 1.0 + float(np.linalg.norm(instance.u_dagger))
                summary["result"]["instances"].append(
                    {"seed": seed, "status": report.status, "recovery_err": report.error / scale}
                )
    except _SetupDone:
        pass
    if tracer is not None:
        tracer.save(opts.trace)
    with open(opts.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
