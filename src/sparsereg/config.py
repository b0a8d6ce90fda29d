"""Experiment configuration: sectioned key-value files with round-trip.

The format is INI-style text with `#` comments, read through the standard
library parser.  Every recognized key lives in a fixed section; unknown
keys or sections are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

import configparser
import io
import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .experiments import MIN_RATE_LEVELS, PROBLEM_KINDS, SQUARE_KINDS

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config", "load_config"]


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or out-of-range configuration."""


@dataclass
class ExperimentConfig:
    kind: str = "diagonal"
    n: int = 64
    m: Optional[int] = None
    sparsity: int = 3
    q: float = 1.0
    p: int = 2
    seed: int = 0
    decay: float = 1.0
    kernel_width: float = 3.0
    eps: float = 1e-3
    matrix_path: Optional[str] = None
    positions: Optional[Tuple[int, ...]] = None
    weights_mode: str = "uniform"
    weight: float = 1.0
    weights: Optional[Tuple[float, ...]] = None
    delta_min: float = 1e-4
    delta_max: float = 1e-1
    delta_count: int = 10
    c_alpha: float = 1.0
    trials: int = 5
    solver_max_iter: int = 50000
    solver_tol: float = 1e-10
    alpha: Optional[float] = None
    out_dir: str = "out"


# section -> key -> (attribute, parser); drives both directions of the
# serialization so the two cannot drift apart.
def _parse_positions(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float(text: str) -> float:
    # nan and inf parse as floats but would only fail later, inside a solve
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_weights(text: str) -> Tuple[float, ...]:
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


_SCHEMA = {
    "problem": {
        "kind": ("kind", str),
        "n": ("n", int),
        "m": ("m", int),
        "sparsity": ("sparsity", int),
        "q": ("q", _parse_float),
        "p": ("p", int),
        "seed": ("seed", int),
        "decay": ("decay", _parse_float),
        "kernel_width": ("kernel_width", _parse_float),
        "eps": ("eps", _parse_float),
        "matrix_path": ("matrix_path", str),
        "positions": ("positions", _parse_positions),
    },
    "weights": {
        "mode": ("weights_mode", str),
        "value": ("weight", _parse_float),
        "values": ("weights", _parse_weights),
    },
    "sweep": {
        "delta_min": ("delta_min", _parse_float),
        "delta_max": ("delta_max", _parse_float),
        "delta_count": ("delta_count", int),
        "c_alpha": ("c_alpha", _parse_float),
        "trials": ("trials", int),
    },
    "solver": {
        "max_iter": ("solver_max_iter", int),
        "tol": ("solver_tol", _parse_float),
        "alpha": ("alpha", _parse_float),
    },
    "output": {
        "directory": ("out_dir", str),
    },
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def fail(field: str, message: str):
        raise ConfigError(f"{field}: {message}")

    if cfg.kind not in PROBLEM_KINDS:
        fail("problem.kind", f"got {cfg.kind!r}, expected one of {PROBLEM_KINDS}")
    if cfg.n < 1:
        fail("problem.n", f"must be a positive integer, got {cfg.n}")
    if cfg.m is not None and cfg.m < 1:
        fail("problem.m", f"must be a positive integer, got {cfg.m}")
    if cfg.m is not None and cfg.m != cfg.n and cfg.kind in SQUARE_KINDS:
        fail("problem.m", f"kind {cfg.kind} is square, so m must equal n={cfg.n}, got {cfg.m}")
    if not 0 <= cfg.sparsity <= cfg.n:
        fail("problem.sparsity", f"must lie in [0, n={cfg.n}], got {cfg.sparsity}")
    if not 1.0 <= cfg.q <= 2.0:
        fail("problem.q", f"must lie in [1, 2], got {cfg.q}")
    if cfg.p not in (1, 2):
        fail("problem.p", f"must be 1 or 2, got {cfg.p}")
    if cfg.p == 1 and cfg.kind == "toy-nonlinear":
        fail("problem.p", "p = 1 needs a linear kind, got toy-nonlinear")
    if cfg.seed < 0:
        fail("problem.seed", f"must be a nonnegative integer, got {cfg.seed}")
    if cfg.decay <= 0:
        fail("problem.decay", f"must be positive, got {cfg.decay}")
    if cfg.kernel_width <= 0:
        fail("problem.kernel_width", f"must be positive, got {cfg.kernel_width}")
    if cfg.kind == "csv" and not cfg.matrix_path:
        fail("problem.matrix_path", "required when kind = csv")
    if cfg.positions is not None:
        if len(cfg.positions) != cfg.sparsity:
            fail(
                "problem.positions",
                f"must list exactly sparsity={cfg.sparsity} indices, got {len(cfg.positions)}",
            )
        if len(set(cfg.positions)) != len(cfg.positions):
            fail("problem.positions", "indices must not repeat")
        if any(pos < 0 or pos >= cfg.n for pos in cfg.positions):
            fail("problem.positions", f"indices must lie in [0, n={cfg.n})")
    if cfg.weights_mode not in ("uniform", "explicit"):
        fail("weights.mode", f"must be 'uniform' or 'explicit', got {cfg.weights_mode!r}")
    if cfg.weights_mode == "uniform":
        if cfg.weight <= 0:
            fail("weights.value", f"must be positive, got {cfg.weight}")
        if cfg.weights is not None:
            fail("weights.values", "set only with mode = explicit")
    else:
        if cfg.weights is None:
            fail("weights.values", "required when mode = explicit")
        if len(cfg.weights) != cfg.n:
            fail(
                "weights.values",
                f"must list exactly n={cfg.n} entries, got {len(cfg.weights)}",
            )
        if any(w <= 0 for w in cfg.weights):
            fail("weights.values", "all entries must be positive")
    if cfg.delta_min <= 0:
        fail("sweep.delta_min", f"noise levels must be positive, got {cfg.delta_min}")
    if cfg.delta_max <= 0:
        fail("sweep.delta_max", f"noise levels must be positive, got {cfg.delta_max}")
    if cfg.delta_min >= cfg.delta_max:
        fail(
            "sweep.delta_min",
            f"must be below delta_max, got [{cfg.delta_min}, {cfg.delta_max}]",
        )
    if cfg.delta_count < MIN_RATE_LEVELS:
        fail(
            "sweep.delta_count",
            f"the rate fit needs at least {MIN_RATE_LEVELS} noise levels, got {cfg.delta_count}",
        )
    if cfg.c_alpha <= 0:
        fail("sweep.c_alpha", f"must be positive, got {cfg.c_alpha}")
    if cfg.trials < 1:
        fail("sweep.trials", f"must be at least 1, got {cfg.trials}")
    if cfg.solver_max_iter < 1:
        fail("solver.max_iter", f"must be at least 1, got {cfg.solver_max_iter}")
    if cfg.solver_tol <= 0:
        fail("solver.tol", f"must be positive, got {cfg.solver_tol}")
    if cfg.alpha is not None and cfg.alpha <= 0:
        fail("solver.alpha", f"must be positive, got {cfg.alpha}")
    if not cfg.out_dir:
        fail("output.directory", "must not be empty")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"{section}.{key}: unknown key; expected one of "
                    f"{sorted(_SCHEMA[section])}"
                )
            attr, converter = _SCHEMA[section][key]
            try:
                values[attr] = converter(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {raw!r}: {exc}") from exc
    # weight has a default, so only the keys read show that it was set
    if values.get("weights_mode") == "explicit" and "weight" in values:
        raise ConfigError("weights.value: set only with mode = uniform")
    return _validate(ExperimentConfig(**values))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render the canonical text form; parse_config inverts it exactly."""
    buffer = io.StringIO()
    for section, keys in _SCHEMA.items():
        lines = []
        for key, (attr, _) in keys.items():
            value = getattr(cfg, attr)
            # value is read only with mode = uniform
            if value is None or (attr == "weight" and cfg.weights_mode == "explicit"):
                continue
            lines.append(f"{key} = {_format_value(value)}")
        if lines:
            buffer.write(f"[{section}]\n")
            buffer.write("\n".join(lines))
            buffer.write("\n\n")
    return buffer.getvalue()


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
