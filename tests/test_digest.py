"""``tools/digest.py``, the hash of every output over a fixed corpus, loaded here by path."""

import importlib.util
import json
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


def test_each_exit_entry_is_its_code_and_a_message_with_no_path(digest):
    messages = {
        "cli/exit/1": "evtkit fit: error: the following arguments are required: --input",
        "cli/exit/2": "evtkit: error: row 3: could not parse 'abc' as a number",
        "cli/exit/3": "evtkit: error: no distribution family could be fitted: "
        "need at least 3 observations to fit, got 2",
    }
    outputs = digest._exit_outputs()
    assert outputs.keys() == messages.keys()
    for name, data in outputs.items():
        text = data.decode()
        assert text.startswith(f"exit {name[-1]}\n--- stdout\n--- stderr\n") and text.endswith(messages[name] + "\n")


def test_usage_and_help_text_do_not_depend_on_the_terminal_width(digest, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    narrow = digest._run_cli(["fit"]), digest._run_cli(["report", "--help"])
    monkeypatch.setenv("COLUMNS", "200")
    assert (digest._run_cli(["fit"]), digest._run_cli(["report", "--help"])) == narrow


def test_the_tied_record_has_no_gev_search_and_notes_the_fallback(digest):
    values = dict(digest._records())["tied/station059"]
    assert np.count_nonzero(values == values.min()) == 22 and values.size == 23
    outputs = digest._record_outputs("tied", values)
    gev = json.loads(outputs["tied/report.json"])["fits"][3]["fit"]
    assert (gev["converged"], gev["iterations"], gev["n_evaluations"]) == (False, 0, 0)
    assert gev["params"] == gev["initial_params"]
    assert "Best family: Weibull (no family passed; smallest A-D statistic)\n" in outputs["tied/report.txt"].decode()
