"""The benchmark's traced run wraps sumsetlab functions by name; every name
it lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_module(tracer):
    for layer, names in tracer.TRACED.items():
        home = importlib.import_module(f"sumsetlab.{layer}")
        for name in names:
            owner = home
            for part in name.split("."):
                owner = getattr(owner, part, None)
                assert owner is not None, f"sumsetlab.{layer}.{name}"
            assert callable(owner), f"sumsetlab.{layer}.{name}"


def test_tracer_installs_and_restores_every_name(tracer):
    structure = importlib.import_module("sumsetlab.structure")
    original = structure.derived_series
    t = tracer.Tracer()
    t.install()
    try:
        assert structure.derived_series is not original
    finally:
        t.uninstall()
    assert structure.derived_series is original
