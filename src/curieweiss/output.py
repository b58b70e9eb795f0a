"""Deterministic file output: CSV tables, JSON summaries, run manifests.

Identical inputs must produce byte-identical files, so nothing here writes
timestamps, environment data, or unordered collections.  Floats are
rendered with repr (shortest round-trip form).  Tables are written from
columns formatted once by :func:`column`, so a .dat twin reuses the columns
of its CSV instead of formatting them again.  Each file is rendered whole,
written once over any earlier file in place, and hashed from the bytes in
memory; the writers return that record, and a command's manifest lists the
records of the files it wrote.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os

import numpy as np


def fmt(value) -> str:
    # note: numpy scalars subclass float/complex but repr differently
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, complex):
        return repr(complex(value))
    return str(value)


def column(values) -> list[str]:
    """A table column rendered as fmt renders each value: a float64 array in
    one pass of repr (which already gives nan and inf), anything else value
    by value."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return list(map(repr, values.tolist()))
    return [fmt(v) for v in values]


def _write(path, text: str) -> dict:
    """Write text over the file at path in place, creating its run directory
    on first use; returns the file's manifest record, hashed from the bytes
    in memory.

    The file is opened without truncation and cut to the new length after
    the write, which is much cheaper than reopening an existing file with
    truncation when a command rewrites its run directory.
    """
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return {"name": os.path.basename(path), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def write_csv(path, header: list[str], columns) -> dict:
    """RFC-4180-style CSV of formatted columns (see :func:`column`): comma
    separated, '.' decimal, LF line endings.  Returns the file's record."""
    return _write(path, "\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


def write_dat(path, columns) -> dict:
    """Two-or-more-column whitespace table (gnuplot-ready) of formatted
    columns, no header.  Returns the file's record."""
    return _write(path, "\n".join([*map(" ".join, zip(*columns)), ""]))


def _jsonify(obj):
    """Recursively convert to JSON-safe types; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf", "-inf", "nan": JSON has no literals for these
    return obj


def write_json(path, payload: dict) -> dict:
    """Sorted, indented JSON of the payload; returns the file's record."""
    return _write(path, json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")


def write_manifest(directory, payload: dict, files) -> dict:
    """Write ``manifest.json`` with the records of the files this command
    wrote (as the writers return them), sorted by name; returns the payload
    with its ``files`` listing."""
    payload["files"] = sorted(files, key=lambda record: record["name"])
    write_json(os.path.join(directory, "manifest.json"), payload)
    return payload
