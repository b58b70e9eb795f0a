"""scipy is a test-only dependency: no module of the package imports it, at
the top or inside a function (the oracles that need it live in tests/), and
no CLI command loads it.  Of numpy a command loads only the core: no module
names numpy.random, numpy.polynomial, np.polyfit or np.linalg (the last two
call LAPACK).  Each command runs in a fresh interpreter that reports, at
exit, every scipy, numpy.random and numpy.polynomial module it imported,
and whether it loaded numpy at all: only the commands that build arrays
(collapse, register, scenario, and a sweep with t_max, which integrates
each point's flow) do, and importing the package or its CLI loads none.
Only the array modules (offdiag, ode, registration) import numpy, at any
level.
The macroscopic runs, at N = 1e12 with a coupling spread, also show that no
command holds an array of size N.
Importing the CLI builds no argument parser and loads no argparse, and
neither does a command in the exact form (every flag spelled in full, each
with its value): argparse parses only the other forms.  Nor do the CLI and
its scalar commands load dataclasses, inspect or typing.  hbar = 1 is fixed
in the code, so no module names it outside docstrings and comments.
Modules meet through public names: none reaches a private name of another.
The package ships only what its commands, demos and acceptance criteria
run: every public function and class, and every
public method and property of a public class, is used outside its own
definition, every default parameter of a public function
is passed by one of them, and every error class is caught by name by one of
them."""

import ast
import collections
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curieweiss import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CFG = ROOT / "configs" / "reference.cfg"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_scipy():
    modules = sorted((ROOT / "src" / "curieweiss").glob("*.py"))
    assert len(modules) > 5
    offenders = [path.name for path in modules
                 if "scipy" in _imported_roots(ast.parse(path.read_text()))]
    assert offenders == []


#: the modules that hold arrays: the collapse, the registration flow and
#: its quadrature.  A function of the parameters alone is scalar and lives
#: in statics
ARRAY_MODULES = {"offdiag", "ode", "registration"}


def test_only_the_array_modules_import_numpy():
    # at any level: an import inside a function loads numpy as surely
    modules = sorted((ROOT / "src" / "curieweiss").glob("*.py"))
    assert len(modules) > 5
    importers = {path.stem for path in modules
                 if "numpy" in _imported_roots(ast.parse(path.read_text()))}
    assert importers == ARRAY_MODULES


#: numpy attributes and submodules that no module of the package names
NUMPY_UNUSED = {"random", "polynomial", "polyfit", "linalg"}


def _numpy_names(tree):
    """numpy attributes and submodules that tree names through np. or
    numpy., or imports, with their line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy"):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("numpy.")]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "numpy"):
            names = node.module.split(".")[1:2] or [a.name for a in node.names]
        else:
            continue
        yield from ((name, node.lineno) for name in names)


def test_no_module_names_numpy_random_polynomial_or_lapack():
    modules = sorted((ROOT / "src" / "curieweiss").glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{path.name}: numpy.{name} at line {line}" for path in modules
                 for name, line in _numpy_names(ast.parse(path.read_text()))
                 if name in NUMPY_UNUSED]
    assert offenders == []


def test_numpy_names_sees_every_spelling():
    source = ("import numpy.random\nfrom numpy import polynomial\n"
              "from numpy.linalg import lstsq\nnp.polyfit(x, y, 1)\n")
    assert sorted(_numpy_names(ast.parse(source))) == [
        ("linalg", 3), ("polyfit", 4), ("polynomial", 2), ("random", 1)]


#: public names kept although only the unit tests use them, with the reason
UNUSED_ALLOWED = {
    "spectral_density": "the bath spectrum, kept until the finite-N registration "
                        "chain decides whether the library calls it",
}


def _loaded_names(tree, skip=None):
    """Names read anywhere in tree, as a bare name or an attribute, outside
    the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _unused(definitions, trees):
    """The names of the public definitions of the package's trees that
    neither the demos and acceptance criteria nor the package outside the
    definition itself read."""
    users = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    used = {name for path in users for name in _loaded_names(ast.parse(path.read_text()))}
    return [node.name for node in definitions
            if not node.name.startswith("_") and node.name not in used
            and not any(node.name in _loaded_names(tree, skip=node) for tree in trees)]


def _package_trees():
    return [ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "curieweiss").glob("*.py"))]


def test_every_public_name_is_used_by_the_program_demos_or_criteria():
    # a re-export from __init__ is an import, not a use, so it does not count
    trees = _package_trees()
    unused = _unused([node for tree in trees for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))], trees)
    assert sorted(unused) == sorted(UNUSED_ALLOWED)


def test_every_public_method_is_used_by_the_program_demos_or_criteria():
    # a method or property of a public class that only the unit tests read is
    # surface without a use.  A read is matched by name alone, so where two
    # public classes define one name it cannot tell whose it is: both count
    # as unused
    trees = _package_trees()
    methods = [(cls.name, f) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not f.name.startswith("_")]
    assert len(methods) > 5
    unused = set(_unused([f for _, f in methods], trees))
    owners = collections.Counter(f.name for _, f in methods)
    assert [f"{c}.{f.name}" for c, f in methods
            if f.name in unused or owners[f.name] > 1] == []


#: parameters with a default that no caller passes, with the reason
DEFAULT_ALLOWED = {
    ("main", "argv"): "the console-script entry point calls main() without argv",
}


def _defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default in
    the public functions and methods of tree.  The position counts the
    arguments of a call, so it skips a method's self or cls; it is None for
    a keyword-only parameter."""
    funcs = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    funcs += [(f, 1) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for f in cls.body if isinstance(f, ast.FunctionDef)]
    for func, skip in funcs:
        if func.name.startswith("_"):
            continue
        positional = func.args.posonlyargs + func.args.args
        first = len(positional) - len(func.args.defaults)
        for i, arg in enumerate(positional[first:], start=first - skip):
            yield func.name, arg.arg, i
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield func.name, arg.arg, None


def _passed_parameters(tree):
    """(function, parameter) pairs that some call in tree passes: by keyword,
    or by position from the count of its positional arguments."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        yield from ((name, kw.arg) for kw in node.keywords)
        yield from ((name, i) for i in range(len(node.args)))


def test_every_default_is_passed_by_the_program_demos_or_criteria():
    # a default that only tests override is a knob nobody turns: make it a constant
    callers = [*sorted((ROOT / "src" / "curieweiss").glob("*.py")),
               *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    passed = {pair for path in callers for pair in _passed_parameters(ast.parse(path.read_text()))}
    unpassed = [(func, name) for path in sorted((ROOT / "src" / "curieweiss").glob("*.py"))
                for func, name, position in _defaulted_parameters(ast.parse(path.read_text()))
                if (func, name) not in passed and (func, position) not in passed]
    assert sorted(unpassed) == sorted(DEFAULT_ALLOWED)


#: error classes that no caller catches by name, with the reason they stay
UNCAUGHT_ALLOWED = {
    "CriticalOrSubcritical": "manifests record its name as the tau_reg_error of a run "
                             "whose registration time is undefined",
}


def _caught_names(tree):
    """Names in the exception types of every except clause of tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            yield from _loaded_names(node.type)


def test_every_error_class_is_one_a_caller_catches():
    # a subclass that no caller tells apart from CurieWeissError is surface
    # without a use: raise CurieWeissError with the message instead
    tree = ast.parse((ROOT / "src" / "curieweiss" / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes[0] == "CurieWeissError"
    users = [*sorted((ROOT / "src" / "curieweiss").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    caught = {name for path in users for name in _caught_names(ast.parse(path.read_text()))}
    uncaught = [name for name in classes[1:] if name not in caught]
    assert sorted(uncaught) == sorted(UNCAUGHT_ALLOWED)


def _hbar_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "hbar":
            yield f"argument at line {node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr == "hbar":
            yield f".hbar at line {node.lineno}"
        elif isinstance(node, ast.Name) and node.id == "hbar":
            yield f"name at line {node.lineno}"


def test_no_module_takes_or_reads_hbar():
    modules = sorted((ROOT / "src" / "curieweiss").glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{path.name}: {use}" for path in modules
                 for use in _hbar_uses(ast.parse(path.read_text()))]
    assert offenders == []


def _private_uses(tree):
    """Private names taken from a sibling module: ``from .m import _x`` or
    ``m._x`` for a module m bound by ``from . import m``."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    yield f"from .{node.module} import {alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr} at line {node.lineno}"


def test_no_module_uses_a_private_name_of_another_module():
    modules = sorted((ROOT / "src" / "curieweiss").glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{path.name}: {use}" for path in modules
                 for use in _private_uses(ast.parse(path.read_text()))]
    assert offenders == []


_PROBE = """
import json, sys
from curieweiss.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(k for k in sys.modules
                               if k.startswith(("scipy", "numpy.random", "numpy.polynomial"))),
                  "numpy" in sys.modules, "argparse" in sys.modules]))
"""

COMMANDS = {
    "validate": ["validate"],
    "statics": ["statics"],
    "register": ["register"],
    "scenario": ["scenario"],
    "sweep": ["sweep", "--sweep", "coupling_g=0.05:0.11:4"],
    "sweep_t_max": ["sweep", "--sweep", "coupling_g=0.05:0.11:4"],
    "collapse_echo": ["collapse", "--echo-at", "7.5"],
    "collapse_dispersed": ["collapse"],
    "collapse_macroscopic_echo": ["collapse", "--echo-at", "7.5"],
    "scenario_macroscopic": ["scenario"],
}


#: the commands whose stages are all scalar, so that they load no numpy
SCALAR_COMMANDS = {"statics", "sweep", "validate"}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """(name, config flag) -> (exit code, unwanted modules, numpy loaded,
    argparse loaded, {file: bytes} written) of the command of COMMANDS in a
    fresh interpreter, with its config given by that flag, run once per
    module."""
    runs = {}

    def run(name, config_flag="--config"):
        if (name, config_flag) not in runs:
            tmp_path = tmp_path_factory.mktemp(name)
            cfg = tmp_path / "run.cfg"
            text = REFERENCE_CFG.read_text()
            if name == "collapse_dispersed" or "macroscopic" in name:
                text = re.sub(r"(?m)^delta_g\s*=.*$", "delta_g = 0.0045", text)
            if "macroscopic" in name:
                text = re.sub(r"(?m)^n_spins\s*=.*$", "n_spins = 1e12", text)
            if name == "sweep_t_max":
                text += "t_max = 100000\n"
            cfg.write_text(text)
            out = tmp_path / "out"
            argv = [*COMMANDS[name][:1], config_flag, str(cfg), "--out", str(out),
                    *COMMANDS[name][1:]]
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            runs[name, config_flag] = [*json.loads(proc.stdout.splitlines()[-1]), files]
        return runs[name, config_flag]

    return run


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_imports_no_scipy(name, probe):
    code, unwanted_modules, _, _, _ = probe(name)
    assert code == 0
    assert unwanted_modules == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_only_the_array_commands_load_numpy(name, probe):
    # collapse*, register, scenario* and sweep_t_max load numpy; statics,
    # validate and a sweep without t_max do not
    code, _, numpy_loaded, _, _ = probe(name)
    assert code == 0
    assert numpy_loaded is (name not in SCALAR_COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_exact_form_commands_load_no_argparse(name, probe):
    # every flag spelled in full with its value after it: the CLI reads the
    # argv itself, and argparse is left to every other form
    code, _, _, argparse_loaded, _ = probe(name)
    assert code == 0
    assert argparse_loaded is False


def test_an_abbreviated_flag_goes_to_argparse_and_writes_the_same_files(probe):
    code, _, _, argparse_loaded, files = probe("statics", "--conf")
    assert code == 0
    assert argparse_loaded is True
    assert files == probe("statics")[4]
    assert "manifest.json" in files


_STDLIB_PROBE = """
import json, sys
from curieweiss.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules)]))
"""


@pytest.mark.parametrize("name", ["import", "validate", "statics", "sweep"])
def test_cli_loads_no_dataclasses_inspect_or_typing(name, tmp_path):
    # the value classes are namedtuple records and the annotations strings,
    # so neither the CLI's import nor a scalar command in the exact form loads
    # these three.  -S skips site, whose .pth hooks may import typing first
    argv = [] if name == "import" else [*COMMANDS[name][:1], "--config", str(REFERENCE_CFG),
                                        "--out", str(tmp_path / "out"), *COMMANDS[name][1:]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", _STDLIB_PROBE, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


_IMPORT_PROBE = """
import json, sys
import curieweiss, curieweiss.cli
loaded = ["numpy" in sys.modules, "argparse" in sys.modules]
names = {}
exec("from curieweiss import *", names)
print(json.dumps([*loaded, sorted(set(curieweiss.__all__) - set(names))]))
"""


def test_import_loads_no_numpy_and_resolves_every_export():
    # nor argparse: the CLI imports it only for an argv it does not read itself
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, []]


def test_every_export_is_the_defining_modules_object():
    import importlib

    import curieweiss

    assert curieweiss.__all__[-1] == "__version__"
    for name in curieweiss.__all__[:-1]:
        obj = getattr(curieweiss, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)
        assert obj.__module__.startswith("curieweiss.")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curieweiss.no_such_name


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(FINITE, FINITE, st.integers(1, 50))
@example(-0.0, 1.0, 1)  # 0 * delta + start is +0.0
@example(-1e308, 1e308, 1)  # stop - start overflows: nan
@example(-1e308, 1e308, 3)
@example(0.0, 5e-324, 40)  # the step underflows to 0
@example(0.05, 0.11, 4)
def test_sweep_axis_is_numpy_linspace_to_the_bit(start, stop, steps):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(start, stop, steps).tolist()
    key, grid = cli._parse_sweep_axis(f"temperature={start!r}:{stop!r}:{steps}")
    assert key == "temperature"
    assert [x.hex() for x in grid] == [x.hex() for x in want]


def test_import_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import curieweiss.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
