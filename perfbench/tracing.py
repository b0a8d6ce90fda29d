"""Span recording for traced benchmark runs, and the per-layer metrics
derived from the recorded spans.

The recording side runs inside a workload process.  ``install`` wraps
every public function of the package's layer modules at every place a
``sparsereg.*`` module binds it (so ``sparsereg.solver.prox`` is wrapped
as well as ``sparsereg.penalty.prox``), plus the operator methods of every
``ForwardOperator`` subclass.  No file under ``src/`` is edited.  Spans
are kept in flat arrays in memory and written to one ``.npz`` trace file
when the process ends.

The deriving side runs in the benchmark client: ``layer_metrics`` reads
the trace files of a run and turns them into the per-layer metrics.
Self time is a span's duration minus the time its direct child spans
cover; the process is single-threaded, so children never overlap.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layer modules whose public functions get spans; the span name is
# "<layer>.<function>".  _kernels is left out on purpose: the penalty
# layer's prox span includes the kernel it calls.
LAYERS = ("penalty", "operators", "solver", "analysis", "experiments", "config",
          "svgplot", "fileio", "cli")
OPERATOR_METHODS = ("apply", "derivative_apply", "derivative_adjoint_apply")
LINEAR_SOLVERS = ("solver.solve_linear_p1", "solver.solve_linear_p2")
SOLVERS = LINEAR_SOLVERS + ("solver.solve_nonlinear",)
# float64 read (z, thresholds) and written (result) per prox coefficient
PROX_BYTES_PER_COEF = 24


def _prox_size(args, kwargs, result):
    return len(result), 0


def _solve_outcome(args, kwargs, result):
    return result.iterations, int(result.converged)


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8")), 0


# per-span count and flag recorded from a call's arguments and result
MEASURES = {
    "penalty.prox": _prox_size,
    "fileio.atomic_write_text": _text_bytes,
    **{name: _solve_outcome for name in SOLVERS},
}


class Tracer:
    """In-memory span store for one workload process (one run id)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names = []
        self._index = {}
        self.parent = array("i")
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.flag = array("b")
        self._stack = [-1]

    def wrap(self, span_name, fn):
        """Return fn wrapped so that every call records one span."""
        if span_name not in self._index:
            self._index[span_name] = len(self.names)
            self.names.append(span_name)
        index = self._index[span_name]
        measure = MEASURES.get(span_name)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        count, flag, stack = self.count, self.flag, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            name.append(index)
            count.append(0)
            flag.append(0)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if measure is not None:
                count[span], flag[span] = measure(args, kwargs, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            run_id=np.int64(self.run_id),
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            count=np.frombuffer(self.count, dtype=np.int64),
            flag=np.frombuffer(self.flag, dtype=np.int8),
        )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and operator methods in spans."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sparsereg.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for module_name, module in list(sys.modules.items()):
        if module_name != "sparsereg" and not module_name.startswith("sparsereg."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    from sparsereg.operators import ForwardOperator

    for cls in _subclasses(ForwardOperator):
        for method in OPERATOR_METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(f"operators.{method}", vars(cls)[method]))


# ---------------------------------------------------------------------------
# deriving per-layer metrics (benchmark client side)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("penalty.prox.calls", "count"),
    ("penalty.prox.coefs", "count"),
    ("penalty.prox.self_s", "s"),
    ("penalty.prox.ns_per_coef", "ns"),
    ("penalty.prox.bytes_computed", "bytes"),
    ("penalty.prox.wall_share", "ratio"),
    ("penalty.penalty_value.self_s", "s"),
    ("solver.calls", "count"),
    ("solver.iterations", "count"),
    ("solver.iterations_max", "count"),
    ("solver.us_per_iter", "us"),
    ("solver.self_s", "s"),
    ("solver.solve_ms.p50", "ms"),
    ("solver.solve_ms.p80", "ms"),
    ("solver.not_converged", "count"),
    ("solver.prox_per_iter", "ratio"),
    ("solver.wall_share", "ratio"),
    ("operators.apply.calls", "count"),
    ("operators.derivative_apply.calls", "count"),
    ("operators.adjoint.calls", "count"),
    ("operators.self_s", "s"),
    ("operators.operator_norm_sq.calls", "count"),
    ("operators.operator_norm_sq.self_s", "s"),
    ("analysis.check_source_condition.calls", "count"),
    ("analysis.check_source_condition.self_s", "s"),
    ("analysis.check_support_injectivity.calls", "count"),
    ("analysis.check_support_injectivity.self_s", "s"),
    ("analysis.derivative_matrix.calls", "count"),
    ("analysis.derivative_matrix.self_s", "s"),
    ("analysis.validate_rate_inequality.self_s", "s"),
    ("analysis.estimate_rate_constants.s", "s"),
    ("analysis.check_sparse_rate_conditions.s", "s"),
    ("analysis.wall_share", "ratio"),
    ("experiments.generate_problem.s", "s"),
    ("experiments.run_sweep.s", "s"),
    ("experiments.solve_instance.calls", "count"),
    ("experiments.add_noise.self_s", "s"),
    ("cli.import_s", "s"),
    ("config.load_config.s", "s"),
    ("svgplot.render_rate_plot.s", "s"),
    ("fileio.atomic_write_text.calls", "count"),
    ("fileio.atomic_write_text.bytes", "bytes"),
    ("fileio.atomic_write_text.s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class _Spans:
    """One trace file as arrays, with durations and self times in seconds."""

    def __init__(self, path):
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            self.parent = data["parent"].astype(np.int64)
            name = data["name"].astype(np.int64)
            self.count = data["count"]
            self.flag = data["flag"]
            self.duration = (data["end"] - data["start"]) * 1e-9
        labels = np.array(names + [""], dtype=object)
        self.label = labels[name]
        self.layer = np.array([n.split(".", 1)[0] for n in labels], dtype=object)[name]
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.duration[nested],
                              minlength=self.parent.size)
        self.self_time = self.duration - covered

    def of(self, *labels):
        return np.isin(self.label, labels)

    def outermost(self, mask):
        """Mask of spans in `mask` that have no ancestor in `mask`."""
        inside = np.zeros(mask.size, dtype=bool)
        cursor = self.parent.copy()
        while True:
            live = cursor >= 0
            if not live.any():
                break
            inside[live] |= mask[cursor[live]]
            cursor[live] = self.parent[cursor[live]]
        return mask & ~inside, inside


def layer_metrics(trace_paths, traced_walls, untraced_walls, import_times) -> dict:
    """Per-layer metrics of one traced run, per process unless a ratio.

    trace_paths[i] was written by the traced process whose wall time is
    traced_walls[i]; untraced_walls[i] is the wall time of the same input
    run untraced, just before.  Sums are averaged over the traced
    processes; ratios are pooled (total over total).
    """
    ops = len(trace_paths)
    totals = {}
    solve_ms = []
    iterations_max = 0

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + float(value)

    for path, wall in zip(trace_paths, traced_walls):
        spans = _Spans(path)
        add("spans", spans.label.size)
        add("wall", wall)
        prox = spans.of("penalty.prox")
        add("prox.calls", prox.sum())
        add("prox.coefs", spans.count[prox].sum())
        add("prox.self", spans.self_time[prox].sum())
        add("penalty_value.self", spans.self_time[spans.of("penalty.penalty_value")].sum())

        solvers = spans.of(*SOLVERS)
        linear = spans.of(*LINEAR_SOLVERS)
        top_solvers, in_solver = spans.outermost(solvers)
        add("solver.calls", solvers.sum())
        add("solver.iterations", spans.count[linear].sum())
        add("solver.linear_s", spans.duration[linear].sum())
        add("solver.self", spans.self_time[solvers].sum())
        add("solver.not_converged", (spans.flag[top_solvers] == 0).sum())
        add("solver.prox", (prox & in_solver).sum())
        add("solver.top_s", spans.duration[top_solvers].sum())
        solve_ms.extend((spans.duration[top_solvers] * 1e3).tolist())
        if linear.any():
            iterations_max = max(iterations_max, int(spans.count[linear].max()))

        add("apply.calls", spans.of("operators.apply").sum())
        add("derivative_apply.calls", spans.of("operators.derivative_apply").sum())
        add("adjoint.calls", spans.of("operators.derivative_adjoint_apply").sum())
        add("operators.self", spans.self_time[spans.layer == "operators"].sum())
        norm = spans.of("operators.operator_norm_sq")
        add("norm.calls", norm.sum())
        add("norm.self", spans.self_time[norm].sum())

        for func in ("check_source_condition", "check_support_injectivity",
                     "derivative_matrix"):
            mask = spans.of(f"analysis.{func}")
            add(f"{func}.calls", mask.sum())
            add(f"{func}.self", spans.self_time[mask].sum())
        for label in ("analysis.validate_rate_inequality", "experiments.add_noise"):
            add(f"{label}.self", spans.self_time[spans.of(label)].sum())
        for label in ("analysis.estimate_rate_constants", "analysis.check_sparse_rate_conditions",
                      "experiments.generate_problem", "experiments.run_sweep",
                      "config.load_config", "svgplot.render_rate_plot",
                      "fileio.atomic_write_text"):
            # inclusive time of the outermost calls, so recursion through
            # the same function is not counted twice
            top, _ = spans.outermost(spans.of(label))
            add(f"{label}.s", spans.duration[top].sum())
        top_analysis, _ = spans.outermost(spans.layer == "analysis")
        add("analysis.top_s", spans.duration[top_analysis].sum())
        add("solve_instance.calls", spans.of("experiments.solve_instance").sum())
        writes = spans.of("fileio.atomic_write_text")
        add("write.calls", writes.sum())
        add("write.bytes", spans.count[writes].sum())

    def per_op(key):
        return totals.get(key, 0.0) / ops

    def ratio(num, den):
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    return {
        "penalty.prox.calls": per_op("prox.calls"),
        "penalty.prox.coefs": per_op("prox.coefs"),
        "penalty.prox.self_s": per_op("prox.self"),
        "penalty.prox.ns_per_coef": 1e9 * ratio("prox.self", "prox.coefs"),
        "penalty.prox.bytes_computed": PROX_BYTES_PER_COEF * per_op("prox.coefs"),
        "penalty.prox.wall_share": ratio("prox.self", "wall"),
        "penalty.penalty_value.self_s": per_op("penalty_value.self"),
        "solver.calls": per_op("solver.calls"),
        "solver.iterations": per_op("solver.iterations"),
        "solver.iterations_max": iterations_max,
        "solver.us_per_iter": 1e6 * ratio("solver.linear_s", "solver.iterations"),
        "solver.self_s": per_op("solver.self"),
        "solver.solve_ms.p50": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
        "solver.solve_ms.p80": float(np.percentile(solve_ms, 80)) if solve_ms else 0.0,
        "solver.not_converged": per_op("solver.not_converged"),
        "solver.prox_per_iter": ratio("solver.prox", "solver.iterations"),
        "solver.wall_share": ratio("solver.top_s", "wall"),
        "operators.apply.calls": per_op("apply.calls"),
        "operators.derivative_apply.calls": per_op("derivative_apply.calls"),
        "operators.adjoint.calls": per_op("adjoint.calls"),
        "operators.self_s": per_op("operators.self"),
        "operators.operator_norm_sq.calls": per_op("norm.calls"),
        "operators.operator_norm_sq.self_s": per_op("norm.self"),
        "analysis.check_source_condition.calls": per_op("check_source_condition.calls"),
        "analysis.check_source_condition.self_s": per_op("check_source_condition.self"),
        "analysis.check_support_injectivity.calls": per_op("check_support_injectivity.calls"),
        "analysis.check_support_injectivity.self_s": per_op("check_support_injectivity.self"),
        "analysis.derivative_matrix.calls": per_op("derivative_matrix.calls"),
        "analysis.derivative_matrix.self_s": per_op("derivative_matrix.self"),
        "analysis.validate_rate_inequality.self_s":
            per_op("analysis.validate_rate_inequality.self"),
        "analysis.estimate_rate_constants.s": per_op("analysis.estimate_rate_constants.s"),
        "analysis.check_sparse_rate_conditions.s":
            per_op("analysis.check_sparse_rate_conditions.s"),
        "analysis.wall_share": ratio("analysis.top_s", "wall"),
        "experiments.generate_problem.s": per_op("experiments.generate_problem.s"),
        "experiments.run_sweep.s": per_op("experiments.run_sweep.s"),
        "experiments.solve_instance.calls": per_op("solve_instance.calls"),
        "experiments.add_noise.self_s": per_op("experiments.add_noise.self"),
        "cli.import_s": sum(import_times) / len(import_times),
        "config.load_config.s": per_op("config.load_config.s"),
        "svgplot.render_rate_plot.s": per_op("svgplot.render_rate_plot.s"),
        "fileio.atomic_write_text.calls": per_op("write.calls"),
        "fileio.atomic_write_text.bytes": per_op("write.bytes"),
        "fileio.atomic_write_text.s": per_op("fileio.atomic_write_text.s"),
        "trace.spans": per_op("spans"),
        "trace.wall_s": per_op("wall"),
        "trace.overhead_s": float(np.median(np.subtract(traced_walls, untraced_walls))),
    }
