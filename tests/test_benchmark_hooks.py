"""The names that the benchmark's tracer wraps must exist in evtkit.

``perfbench/tracer.py`` patches ``evtkit.<module>.<function>`` and the
probability methods of the distribution base class by name. It is loaded
here by path; it imports nothing heavy.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from evtkit import Dataset, emit_plot_data, run_pipeline
from evtkit.distributions import _EvdFamily

from conftest import GEV_MM

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


def test_tracer_sees_the_plot_diagnostics(tmp_path):
    # Each fitted family's Q-Q and probability-difference files come from the public diagnostics.
    dataset = Dataset("small", GEV_MM.sample(60, 3))
    report = run_pipeline(dataset)
    fitted = sum(fit.result is not None for fit in report.fits)
    traced = tracer.Tracer()
    restore = tracer.install(traced)
    try:
        emit_plot_data(report, dataset, tmp_path)
    finally:
        restore()
    assert traced.stats["diagnostics.qq_series"][0] == fitted
    assert traced.stats["diagnostics.probability_difference"][0] == fitted
