"""Deterministic file output: CSV tables, JSON summaries, run manifests.

Identical inputs must produce byte-identical files, so nothing here writes
timestamps, environment data, or unordered collections.  Floats are
rendered with repr (shortest round-trip form).  Tables are written from
columns formatted once by :func:`column`, so a .dat twin reuses the columns
of its CSV instead of formatting them again.  Each file is rendered whole,
written once over any earlier file in place, and hashed from the bytes in
memory; the writers return that record, and a command's manifest lists the
records of the files it wrote.

A manifest is rendered in one pass as ``json.dumps(indent=2, sort_keys=True)``
renders it with keys made str, tuples lists, enums their values and the
non-finite floats their repr in quotes ("nan", "inf", "-inf"); other types
raise TypeError.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
import sys
from json.encoder import encode_basestring_ascii


def fmt(value) -> str:
    # note: numpy scalars subclass float/complex but repr differently
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, complex):
        return repr(complex(value))
    return str(value)


def column(values) -> list[str]:
    """A table column rendered as fmt renders each value.  A float64 array
    takes one pass of repr over its list (which already gives nan and inf),
    any other column that starts with a float one pass of float.__repr__,
    which equals fmt on every float, numpy's float64 included.  That pass
    raises TypeError on any other value (a str, None, an int or bool, a
    complex, a numpy float32); the column is then rendered value by value,
    as is a column that starts with such a value.  So values must be a
    sequence that can be iterated twice, such as a list or a tuple.  An array
    exists only once numpy is loaded, so numpy is looked up, never imported,
    here."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray) and values.dtype == np.float64:
        return list(map(repr, values.tolist()))
    if isinstance(next(iter(values), 0.0), float):  # a label column skips the pass
        try:
            return list(map(float.__repr__, values))
        except TypeError:
            pass
    return [fmt(v) for v in values]


def _write(path, text: str) -> dict:
    """Write text over the file at path in place, creating its run directory
    on first use; returns the file's manifest record, hashed from the bytes
    in memory.  An OSError names path, which os.write and os.ftruncate omit.

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
    except OSError as exc:
        exc.filename = path
        raise
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


def _encode(obj, indent: str) -> str:
    """obj rendered as JSON, its nested lines indented two spaces past indent."""
    cls = type(obj)  # the common leaves first
    if cls is str:
        return encode_basestring_ascii(obj)
    if cls is float and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        inner = indent + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{\n" + ",\n".join([inner + encode_basestring_ascii(k) + ": " + _encode(v, inner)
                                   for k, v in items]) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        inner = indent + "  "
        return "[\n" + ",\n".join([inner + _encode(v, inner) for v in obj]) + "\n" + indent + "]"
    if isinstance(obj, enum.Enum):
        return _encode(obj.value, indent)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else encode_basestring_ascii(repr(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> dict:
    """The payload as the module docstring's manifest rule renders it; returns the file's record."""
    return _write(path, _encode(payload, "") + "\n")


def write_manifest(directory, payload: dict, files) -> dict:
    """Write ``manifest.json`` with the records of the files this command
    wrote (as the writers return them), sorted by name; returns the payload
    with its ``files`` listing."""
    payload["files"] = sorted(files, key=lambda record: record["name"])
    write_json(os.path.join(directory, "manifest.json"), payload)
    return payload
