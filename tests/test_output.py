"""Column formatting renders every table byte for byte as fmt does per
value, and the manifest encoder every payload as json.dumps does."""

import array
import enum
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curieweiss import output, scenario
from curieweiss.cli import main
from curieweiss.output import column, fmt
from curieweiss.statics import PointKind

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 0.1, 1e300]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
# the cells of the sweep and stationary tables: None, labels, floats and numpy
# floats; and values that no table holds but fmt renders: bools, complex, float32
CELLS = st.one_of(st.none(), st.sampled_from(["registered", "failed/invalid-regime", "minimum"]),
                  FLOATS, FLOATS.map(np.float64), st.integers(-5, 5), st.booleans(),
                  st.complex_numbers(), st.floats(width=32).map(np.float32))


def reference_csv(header, rows) -> str:
    """The row-wise rendering the writers must reproduce."""
    return "\n".join([",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]) + "\n"


def reference_dat(rows) -> str:
    return "".join(" ".join(fmt(v) for v in row) + "\n" for row in rows)


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, st.integers(0, 40), elements=FLOATS))
@example(np.array(SPECIAL))
def test_float64_column_matches_fmt(arr):
    assert column(arr) == [fmt(v) for v in arr.tolist()]


@settings(deadline=None, max_examples=200)
@given(st.lists(CELLS, max_size=20))
@example([True, False])
@example([None, None])
@example([1 + 2j, complex(math.nan, -0.0)])
@example([np.float32(0.1), np.float32(-2.5)])
@example([0, -7, 2**70])
@example([0.5, True])  # each after a float: the fallback follows a partial pass
@example([0.5, np.float32(0.1)])
@example([0.5, 1 + 2j])
@example([0.5, 3])
def test_mixed_column_matches_fmt(values):
    assert column(values) == [fmt(v) for v in values]


def test_other_dtypes_fall_back_to_fmt():
    for arr in (np.array([1, -2, 3]), np.array([0.1, 2.5], dtype=np.float32),
                np.array([1 + 2j, math.nan - 1j])):
        assert column(arr) == [fmt(v) for v in arr]


@settings(deadline=None, max_examples=100)
@given(st.lists(FLOATS, max_size=20))
@example(SPECIAL)
def test_float_sequences_match_fmt(values):
    # the one-pass branch: lists, tuples, array("d") and numpy float64 scalars
    expected = [fmt(v) for v in values]
    for seq in (values, tuple(values), array.array("d", values), list(map(np.float64, values))):
        assert column(seq) == expected


def test_fallback_after_a_partial_float_pass():
    # a sweep's critical_g column: floats first, then None where g_c is undefined
    values = (0.12, -0.0, math.inf, 0.075, None, math.nan, None)
    assert column(values) == ["0.12", "-0.0", "inf", "0.075", "None", "nan", "None"]
    assert column(values) == [fmt(v) for v in values]


def test_statics_formats_only_its_label_columns_value_by_value(tmp_path, monkeypatch):
    # a cold statics command renders every float column in one pass: fmt
    # sees only the kind and label strings of the stationary tables
    scenario._landscape_m_column.cache_clear()
    seen = []

    def counting_fmt(value):
        seen.append(value)
        return fmt(value)

    monkeypatch.setattr(output, "fmt", counting_fmt)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    assert main(["statics", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = sum(len((tmp_path / f"stationary_{name}.csv").read_text().splitlines()) - 1
               for name in ("up", "down"))
    assert rows > 0 and len(seen) == 2 * rows
    assert all(type(v) is str for v in seen)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(arrays(np.float64, n, elements=FLOATS),
                        arrays(np.float64, n, elements=FLOATS),
                        st.lists(CELLS, min_size=n, max_size=n))))
def test_writers_match_rowwise_rendering(tmp_path_factory, table):
    a, b, mixed = table
    rows = list(zip(a.tolist(), b.tolist(), mixed))
    cols = [column(a), column(b), column(mixed)]
    directory = tmp_path_factory.mktemp("tables")
    output.write_csv(directory / "t.csv", ["a", "b", "mixed"], cols)
    output.write_dat(directory / "t.dat", cols[:2])
    with open(directory / "t.csv", newline="") as fh:
        assert fh.read() == reference_csv(["a", "b", "mixed"], rows)
    with open(directory / "t.dat", newline="") as fh:
        assert fh.read() == reference_dat([r[:2] for r in rows])


def test_rewrite_in_place_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "run" / "t.csv"  # the run directory does not exist yet
    long_cols = [column(np.linspace(0.0, 1.0, 500)), column(np.geomspace(1e-9, 1.0, 500))]
    short_cols = [column(np.array([0.5, math.nan])), column(np.array([-0.0, math.inf]))]
    first = output.write_csv(path, ["a", "b"], long_cols)
    assert first["bytes"] == path.stat().st_size > 10_000
    record = output.write_csv(path, ["a", "b"], short_cols)
    blob = path.read_bytes()
    assert blob == b"a,b\n0.5,-0.0\nnan,inf\n"
    assert record == {"name": "t.csv", "bytes": len(blob),
                      "sha256": hashlib.sha256(blob).hexdigest()}


def test_manifest_lists_the_records_it_is_given(tmp_path):
    directory = tmp_path / "new" / "run"
    files = [output.write_dat(directory / "b.dat", [["1"], ["2"]]),
             output.write_json(directory / "a.json", {"x": math.inf})]
    (directory / "stale.csv").write_text("left by an earlier command\n")
    payload = output.write_manifest(directory, {"k": 1}, files)
    assert [f["name"] for f in payload["files"]] == ["a.json", "b.dat"]
    for entry in payload["files"]:
        blob = (directory / entry["name"]).read_bytes()
        assert entry["bytes"] == len(blob)
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
    assert (directory / "a.json").read_text() == '{\n  "x": "inf"\n}\n'


# the oracle: the manifest rendering the encoder replaced, a conversion to
# JSON-safe types followed by json.dumps


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


def reference_json(payload) -> str:
    """The two-pass rendering the manifest encoder must reproduce."""
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**80, 2**80), FLOATS,
                    FLOATS.map(np.float64), st.text(max_size=8), st.sampled_from(list(PointKind)))
KEYS = st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6))
PAYLOADS = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=5),
                                     st.lists(inner, max_size=5).map(tuple),
                                     st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=20)


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(KEYS, PAYLOADS, max_size=6))
@example({"special": SPECIAL, "neg": [-math.inf, -0.0], "big": 1e300, "tiny": 5e-324})
@example({"text": ["\u00e9t\u00e9 \u03c8 \U0001d53c", "tab\tnew\nline\x00\x1f", '"q"', "back\\slash"],
          "\u00fcnicode key \"\\": "x"})
@example({"empty": {}, "nest": [[], {}, [{}], {"a": []}, ()]})
@example({1: "int key", "2": 2, -3: PointKind.MINIMUM, "huge": 2**70, "neg": -2**70})
def test_manifest_encoding_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "encoded.json"
    record = output.write_json(path, payload)
    blob = path.read_bytes()
    assert blob == reference_json(payload).encode("ascii")
    assert record["bytes"] == len(blob)


@pytest.mark.parametrize("value", [object(), np.float32(1)])
def test_manifest_encoding_rejects_what_json_dumps_rejects(tmp_path, value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        reference_json({"x": [value]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        output.write_json(tmp_path / "m.json", {"x": [value]})
    assert not (tmp_path / "m.json").exists()
