"""The names that the benchmark's tracer wraps must exist in evtkit.

``perfbench/tracer.py`` patches ``evtkit.<module>.<function>`` and the
probability methods of the distribution base class by name. It is loaded
here by path; it imports nothing heavy.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from evtkit.distributions import _EvdFamily

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
WRAPPED = [(module, name) for module, names in tracer.FUNCTIONS.items() for name in names]


@pytest.mark.parametrize("module, name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"evtkit.{module}"), name))


@pytest.mark.parametrize("method", tracer.DISTRIBUTION_METHODS)
def test_wrapped_distribution_method_is_on_the_base_class(method):
    assert method in _EvdFamily.__dict__
