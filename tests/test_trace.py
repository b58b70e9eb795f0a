"""The benchmark's trace mode (perfbench/tracer.py) wraps the functions of
every layer module of the package by name.  It needs each layer to exist,
and its counter on ode.integrate expects an integrator that returns a
solution object, which the package no longer has; a traced scenario must
still reach the registration quadrature in ode."""

import importlib
import importlib.util
from pathlib import Path

from curieweiss import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CFG = ROOT / "configs" / "reference.cfg"


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_a_module_of_the_package():
    layers = {name: importlib.import_module(f"curieweiss.{name}") for name in _tracer().LAYERS}
    assert "integrate" not in vars(layers["ode"])


def test_traced_scenario_reaches_the_quadrature(tmp_path):
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["scenario", "--config", str(REFERENCE_CFG), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.take()["ode.calls"] > 0
