"""Atomic, reproducible output writers.

Reports are JSON (schema-tagged "vexs/1"), CSV tables with a header row,
or whitespace-separated two-column plot data.  All writes go through a
temp file in the target directory followed by an atomic rename, so an
interrupted run never leaves a truncated report.  Nothing time- or
environment-dependent enters the payloads; re-running a scenario with
the same config yields byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

SCHEMA = "vexs/1"


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: str, payload: dict) -> None:
    body = dict(payload)
    body.setdefault("schema", SCHEMA)
    _atomic_write(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_plot_data(path: str, xs, ys, annotation: str | None = None) -> None:
    lines = []
    if annotation is not None:
        lines.append(f"# {annotation}")
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(x)} {_fmt(y)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v) -> str:
    # float() first: under numpy 2, repr of np.float64 (a float subclass)
    # is "np.float64(...)"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)
