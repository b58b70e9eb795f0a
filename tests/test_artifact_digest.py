import importlib.util
import re
from pathlib import Path

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
