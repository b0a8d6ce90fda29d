"""Atomic text-file writes for experiment artifacts."""

import json
import math
import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename.

    Readers never observe a partially written artifact; os.replace is
    atomic on POSIX when source and target share a filesystem, which the
    same-directory temp file guarantees.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _finite_or_null(value):
    """value with every non-finite float inside it replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def atomic_write_json(path, payload) -> None:
    """Write payload atomically as strict JSON: indented by 2, keys sorted,
    and a final newline, the format of every JSON artifact.

    A non-finite float is written as null (an unbounded radius, say), since
    strict parsers reject the bare Infinity and NaN tokens.
    """
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")
