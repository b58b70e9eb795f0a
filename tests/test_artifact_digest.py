import contextlib
import importlib.util
import io
import re
from pathlib import Path

from curieweiss.cli import main
from curieweiss.output import fmt

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_digest", ROOT / "tools" / "artifact_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_lists_one_manifest_per_command(capsys):
    tool = load_tool()
    assert tool.run() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == sorted(lines, key=lambda line: line.split("  ")[::-1])
    assert all(re.fullmatch(r"[0-9a-f]{64}  \w+/[\w.]+|exit 0  \w+", line) for line in lines)
    manifests = [line.split("  ")[1] for line in lines if line.endswith("/manifest.json")]
    assert manifests == sorted(f"{name}/manifest.json" for name in tool.COMMANDS)
    assert sum(line.startswith("exit 0  ") for line in lines) == len(tool.COMMANDS)


def test_digest_twins_write_the_same_bytes(capsys):
    # an argv that argparse parses (--flag=VALUE, an abbreviation) writes what
    # its exact form, which the CLI reads itself, writes
    tool = load_tool()
    assert tool.run() == 0
    digests = {}
    for line in capsys.readouterr().out.splitlines():
        digest, _, path = line.partition("  ")
        name, _, file = path.partition("/")
        digests.setdefault(name, {})[file] = digest
    assert tool.TWINS
    for name, twin in tool.TWINS.items():
        assert name in tool.COMMANDS and twin in tool.COMMANDS
        assert digests[name] == digests[twin]
        assert "manifest.json" in digests[name]


def test_digest_sweeps_a_column_of_floats_then_none(tmp_path):
    # the listing pins column()'s fallback after a partial float pass
    tool = load_tool()
    changes, args = tool.COMMANDS["sweep_none_cells"]
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep"
    tool._config(cfg, changes)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*args[:1], "--config", str(cfg), "--out", str(out), *args[1:]]) == 0
    header, *rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    for name in ("critical_g", "tau_reg"):
        cells = [row[header.index(name)] for row in rows]
        assert cells[0] == fmt(float(cells[0])) and "None" in cells
