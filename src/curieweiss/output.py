"""Deterministic file output: CSV tables, JSON summaries, run manifests.

Identical inputs must produce byte-identical files, so nothing here writes
timestamps, environment data, or unordered collections.  Floats are
rendered with repr (shortest round-trip form).  Tables are written from
columns formatted once by :func:`column`, so a .dat twin reuses the columns
of its CSV instead of formatting them again.
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
        if math.isnan(value):
            return "nan"
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


def _create(path):
    """Open a text file for writing, creating its run directory on first use."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, header: list[str], columns) -> None:
    """RFC-4180-style CSV of formatted columns (see :func:`column`): comma
    separated, '.' decimal, LF line endings."""
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_dat(path, columns) -> None:
    """Two-or-more-column whitespace table (gnuplot-ready) of formatted
    columns, no header."""
    with _create(path) as fh:
        fh.writelines(" ".join(row) + "\n" for row in zip(*columns))


def _jsonify(obj):
    """Recursively convert to JSON-safe types; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return repr(obj)  # "inf", "-inf", "nan": JSON has no literals for these
    if isinstance(obj, complex):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_json(path, payload: dict) -> None:
    with _create(path) as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def file_inventory(directory, exclude=("manifest.json",)) -> list[dict]:
    """Sorted checksum listing of every file in a run directory."""
    entries = []
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if not os.path.isfile(full) or name in exclude:
            continue
        entries.append(
            {"name": name, "bytes": os.path.getsize(full), "sha256": sha256_of(full)}
        )
    return entries


def write_manifest(directory, payload: dict) -> dict:
    """Write ``manifest.json`` with the checksums of every other file in the
    run directory; returns the payload with its ``files`` listing."""
    os.makedirs(directory, exist_ok=True)
    payload["files"] = file_inventory(directory)
    write_json(os.path.join(directory, "manifest.json"), payload)
    return payload
