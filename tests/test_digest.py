"""``tools/digest.py``, the hash of every output over a fixed corpus, loaded here by path."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

DIGEST_FILE = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


@pytest.fixture
def digest(monkeypatch):
    # Loading puts the checkout's src/ and perfbench/ first on sys.path; monkeypatch restores the old list.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("evtkit_digest", DIGEST_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_that_cannot_be_fitted_is_one_error_entry(digest):
    assert digest._record_outputs("x", [1.0, 1.0, 1.0]) == {
        "x/error": b"NumericalError: no distribution family could be fitted: sample standard deviation is zero"
    }


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_the_order_of_the_rows_moves_no_output_but_the_time_series(digest, order):
    values = digest.evtkit.load_csv(digest.FIXTURE).sample.values
    reordered = values[::-1] if order == "reversed" else np.random.default_rng(5).permutation(values)
    original, moved = digest._record_outputs("fixture", values), digest._record_outputs("fixture", reordered)
    assert original.keys() == moved.keys() and "fixture/report.json" in original
    assert original.pop("fixture/timeseries.csv") != moved.pop("fixture/timeseries.csv")
    assert original == moved


def test_the_line_break_file_loads_every_row(digest, tmp_path):
    path = tmp_path / "line_breaks.csv"
    path.write_bytes(digest.line_breaks_text().encode("utf-8"))
    dataset = digest.evtkit.load_csv(path)
    n = len(digest.LINE_BREAKS)
    assert dataset.years == tuple(range(1950, 1950 + n))
    assert dataset.sample.values.tolist() == [100.25 + 7 * i for i in range(n)]


def test_each_simulate_entry_is_the_exit_code_and_the_file(digest):
    outputs = digest._simulate_outputs()
    assert sorted(outputs) == [f"cli/simulate/{family}" for family in sorted(digest.SIMULATE_PARAMS)]
    for data in outputs.values():
        head, *rows = data.decode().splitlines()
        assert head == "exit 0" and len(rows) == 51
