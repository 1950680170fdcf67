"""CSV ingestion, dataset invariants, and simulated-file round trips."""

import numpy as np
import pytest

from evtkit import Dataset, Sample, load_csv, simulate_to_csv
from evtkit.errors import DomainError, EmptyDatasetError, ParseError
from evtkit.io import CHUNK_CELLS, format_column, write_csv

from conftest import GEV_MM


class TestLoadCsv:
    def test_year_value_rows(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1956,131.2\n1957,98.4\n")
        ds = load_csv(f)
        assert ds.years == (1956, 1957)
        assert ds.sample.n == 2
        assert np.array_equal(ds.sample.values, [131.2, 98.4])
        assert ds.label == "data"

    def test_single_column(self, tmp_path):
        f = tmp_path / "vals.csv"
        f.write_text("10.5\n11.25\n9\n")
        ds = load_csv(f)
        assert ds.years is None
        assert np.array_equal(ds.sample.values, [10.5, 11.25, 9.0])

    def test_header_row_skipped(self, tmp_path):
        f = tmp_path / "with_header.csv"
        f.write_text("year,rainfall_mm\n1970,120.0\n1971,88.5\n")
        ds = load_csv(f)
        assert ds.years == (1970, 1971)

    def test_first_row_with_a_typo_is_parse_error(self, tmp_path):
        # It was taken for a header, so its value was dropped without a word.
        f = tmp_path / "typo.csv"
        f.write_text("1956,12O\n1957,10.5\n1958,11.0\n1959,12.5\n")
        with pytest.raises(ParseError, match="row 1: could not parse '12O'"):
            load_csv(f)

    def test_one_column_text_row_is_header(self, tmp_path):
        f = tmp_path / "one_column.csv"
        f.write_text("rainfall_mm\n10.5\n11.0\n")
        assert load_csv(f).sample.values.tolist() == [10.5, 11.0]

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n4.5\n")
        ds = load_csv(f)
        assert np.array_equal(ds.sample.values, [1.5, 2.5, 3.5, 4.5])

    def test_blank_lines_ignored_but_counted(self, tmp_path):
        f = tmp_path / "gaps.csv"
        f.write_text("1.0\n\n2.0\n")
        ds = load_csv(f)
        assert ds.sample.n == 2

    def test_non_numeric_row_reports_row_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0\n2.0\nabc\n4.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 3

    def test_non_utf8_byte_reports_row_number(self, tmp_path):
        f = tmp_path / "latin1.csv"
        f.write_bytes(b"\xef\xbb\xbfvalue\r\n1.0\r\n\r\n2.\xe95\n4.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 4
        assert "0xe9" in err.value.reason

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "inf.csv"
        f.write_text("1.0\nnan\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 2

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e400"])
    def test_infinite_and_overflowing_values_rejected(self, tmp_path, token):
        f = tmp_path / "inf.csv"
        f.write_text(f"1970,1.0\n1971,{token}\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_csv(f)

    def test_header_only_file_is_empty(self, tmp_path):
        f = tmp_path / "header_only.csv"
        f.write_text("year,value\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_inconsistent_column_count(self, tmp_path):
        f = tmp_path / "mixed.csv"
        f.write_text("1956,131.2\n98.4\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 2

    def test_too_many_columns(self, tmp_path):
        f = tmp_path / "wide.csv"
        f.write_text("1,2,3\n")
        with pytest.raises(ParseError):
            load_csv(f)

    def test_forced_layout(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("1956,131.2\n")
        assert load_csv(f, columns="year_value").years == (1956,)
        with pytest.raises(ParseError):
            load_csv(f, columns="value")
        with pytest.raises(DomainError):
            load_csv(f, columns="wide")

    def test_bad_year(self, tmp_path):
        f = tmp_path / "year.csv"
        f.write_text("1956.5,131.2\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 1


class TestDataset:
    def test_years_must_match_length(self):
        with pytest.raises(DomainError):
            Dataset("x", Sample(np.array([1.0, 2.0])), years=(1990,))

    def test_years_strictly_increasing(self):
        with pytest.raises(DomainError):
            Dataset("x", Sample(np.array([1.0, 2.0])), years=(1991, 1990))
        with pytest.raises(DomainError):
            Dataset("x", Sample(np.array([1.0, 2.0])), years=(1990, 1990))


class TestWriteCsv:
    def test_columns_across_chunk_edges_match_row_wise_text(self, tmp_path):
        n = 2 * CHUNK_CELLS + 1
        index = np.arange(n)
        values = np.linspace(-1.0, 1.0, n) ** 3
        path = write_csv(tmp_path / "t.csv", "i,v", format_column(index), format_column(values))
        rows = [f"{i},{float(v)!r}" for i, v in zip(index, values)]
        assert path.read_text() == "\n".join(["i,v", *rows]) + "\n"

    def test_format_column_chunks(self):
        chunks = format_column(np.array([0.1, -0.0, 5e-324, 1e16] * CHUNK_CELLS))
        assert len(chunks) == 4
        assert chunks[0].split("\n")[:4] == ["0.1", "-0.0", "5e-324", "1e+16"]
        assert format_column(range(3)) == ["0\n1\n2"]


class TestSimulate:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        simulate_to_csv(GEV_MM, 100, 42, a)
        simulate_to_csv(GEV_MM, 100, 42, b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_through_load(self, tmp_path):
        path = tmp_path / "sim.csv"
        simulate_to_csv(GEV_MM, 64, 5, path)
        ds = load_csv(path)
        assert ds.sample.n == 64
        assert np.array_equal(ds.sample.values, GEV_MM.sample(64, 5).values)

    def test_zero_size_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            simulate_to_csv(GEV_MM, 0, 1, tmp_path / "never.csv")
        assert not (tmp_path / "never.csv").exists()
