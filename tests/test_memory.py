"""Traced memory of loading a long record and writing its plot files, per row, and of the GEV forms."""

import gc
import tracemalloc

import numpy as np
import pytest

from evtkit import GEV, Gumbel, emit_plot_data, load_csv, run_pipeline, simulate_to_csv

from conftest import GEV_MM

N_ROWS = 20_000


def _peak_bytes_per_row(call) -> float:
    """Peak of the memory that ``call()`` allocates, as tracemalloc sees it, over N_ROWS."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / N_ROWS
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    path = simulate_to_csv(GEV_MM, N_ROWS, 7, tmp_path_factory.mktemp("long") / "record.csv")
    dataset = load_csv(path)
    return path, dataset, run_pipeline(dataset)


def test_load_csv_keeps_little_beside_the_text(record):
    # One value per line: about 18 B of text per row, read a block at a time into a float array.
    path, _, _ = record
    assert _peak_bytes_per_row(lambda: load_csv(path)) <= 64


def test_plot_data_holds_one_chunk_of_cells(record, tmp_path):
    # Every float column at once (8 B a row each), and the cell strings of one chunk of rows.
    _, dataset, report = record
    assert _peak_bytes_per_row(lambda: emit_plot_data(report, dataset, tmp_path)) <= 200


def test_nothing_of_a_record_outlives_its_analysis(record, tmp_path):
    # The plotting positions are kept on the sample, not in a process-wide cache: once the
    # dataset and its report are dropped, what stays traced is under 1 B per row. A record of
    # another size is analysed first, so nothing of this one's size is held before.
    path, _, _ = record
    small = load_csv(simulate_to_csv(GEV_MM, 51, 7, tmp_path / "small.csv"))
    emit_plot_data(run_pipeline(small), small, tmp_path / "small")

    def analyse():
        dataset = load_csv(path)
        emit_plot_data(run_pipeline(dataset), dataset, tmp_path / "long")

    tracemalloc.start()
    try:
        analyse()
        gc.collect()  # a full collection also empties the interpreter's free lists of tuples, floats and lists
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left / N_ROWS < 1


@pytest.mark.parametrize("dist", [Gumbel(100.0, 30.0), GEV(100.0, 30.0, 5e-324), GEV(100.0, 30.0, 0.1)])
@pytest.mark.parametrize("method", ["cdf", "quantile", "log_pdf"])
def test_gev_forms_keep_few_arrays_of_the_data(dist, method):
    # The form of shape*z is made in place of shape*z, and the quantile's level in place of
    # its form: two arrays. Below |shape| 2**-970 the shape-0 limit's mask (two comparisons
    # and their union, one byte per value each) comes on top, for 2.4 arrays at most.
    n = 100_000
    data = np.linspace(1e-6, 1.0 - 1e-6, n) if method == "quantile" else np.linspace(-100.0, 500.0, n)
    call = getattr(dist, method)
    tracemalloc.start()
    try:
        call(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


def test_a_sample_keeps_no_other_array_of_its_size(record, tmp_path):
    # Beside its values a sample keeps its sorted values and plotting positions; of its
    # standardization it keeps three numbers. A kept array of size n (the standardized
    # values, the Anderson-Darling weights) raised the benchmark's peak RSS on a long record.
    _, dataset, _ = record
    sample = dataset.sample
    emit_plot_data(run_pipeline(dataset), dataset, tmp_path)
    kept = {}
    for name, value in vars(sample).items():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray) and item.size == sample.n:
                kept[name] = item
    assert kept.keys() == {"values", "_sorted", "_positions"}
    assert all(isinstance(number, float) for number in sample._standardization)
