"""Traced memory of loading a long record and writing its plot files, per row of the record."""

import tracemalloc

import pytest

from evtkit import emit_plot_data, load_csv, run_pipeline, simulate_to_csv

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
