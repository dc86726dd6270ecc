"""The traced benchmark looks relsyn functions up by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from relsyn import SynthesisProblem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
WRAPPED = [(mod, fn) for _, mod, fn, _ in tracing.LAYERS] + [
    (mod, fn) for mod, fn, _ in tracing.COUNTED_ONLY
]


@pytest.mark.parametrize("module, function", WRAPPED, ids=[f"{m}.{f}" for m, f in WRAPPED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_horizon_counter_attribute_exists():
    # the solve counters read args[0].horizon_obj
    assert hasattr(SynthesisProblem, "horizon_obj")
