"""CSV ingestion, dataset invariants, and simulated-file round trips."""

import math
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtkit import Dataset, Sample, io, load_csv, simulate_to_csv
from evtkit.errors import DomainError, EmptyDatasetError, ParseError
from evtkit.io import CHUNK_CELLS, write_csv

from conftest import GEV_MM


def _is_text(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


@st.composite
def csv_texts(draw):
    """A file's text in either layout, with the values and years (or None) it holds.

    Values are finite and written by ``repr``. The file may carry a non-numeric
    header of one or two cells, blank lines anywhere, and a BOM.
    """
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    years = None
    if draw(st.booleans()):
        n = len(values)
        years = tuple(sorted(draw(st.sets(st.integers(-5000, 5000), min_size=n, max_size=n))))
        rows = [f"{year},{value!r}" for year, value in zip(years, values)]
    else:
        rows = [repr(value) for value in values]
    header_cell = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_ ", max_size=10).filter(_is_text)
    header = draw(st.none() | st.lists(header_cell, min_size=1, max_size=2))
    if header is not None:
        rows.insert(0, ",".join(header))
    for at in sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)), reverse=True):
        rows.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(rows) + "\n", values, years


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
        assert ds.header == (1, "year,rainfall_mm")

    def test_skipped_header_keeps_its_row_after_blank_lines(self, tmp_path):
        f = tmp_path / "gap_header.csv"
        f.write_text("\n \nNA\n10.5\n11.0\n")
        ds = load_csv(f)
        assert ds.header == (3, "NA")
        assert ds.sample.values.tolist() == [10.5, 11.0]

    def test_no_header_is_none(self, tmp_path):
        f = tmp_path / "plain.csv"
        f.write_text("10.5\n11.0\n")
        assert load_csv(f).header is None

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(written=csv_texts())
    def test_layout_comes_from_the_first_data_row(self, tmp_path_factory, written):
        text, values, years = written
        f = tmp_path_factory.mktemp("layout") / "series.csv"
        f.write_text(text, encoding="utf-8")
        ds = load_csv(f)
        assert [v.hex() for v in ds.sample.values.tolist()] == [v.hex() for v in values]
        assert ds.years == years

    @pytest.mark.parametrize(
        "text",
        ["value\n1.5\ninf\nabc\n", "year,value\n1,1.5\n2,inf\n3,abc\n"],
        ids=["one_column", "year_value"],
    )
    def test_first_bad_row_wins_whatever_its_kind(self, tmp_path, text):
        # A non-finite value is found after the rows are read; it still comes before a later text cell.
        f = tmp_path / "two_bad_rows.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match="row 3: non-finite value 'inf'"):
            load_csv(f)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("1.5\n\nabc\n4e999\n", "row 3: could not parse 'abc' as a number"),
            ("1,1.5\n2,1,3\n3,inf\n", "row 2: expected 2 columns, found 3"),
            ("1,1.5\n2.5,inf\n", "row 2: could not parse '2.5' as a year"),
            ("1,1.5\n  \n3, nan \n4,x\n", "row 3: non-finite value 'nan'"),
        ],
    )
    def test_error_names_the_first_bad_row(self, tmp_path, text, error):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=error):
            load_csv(f)

    def test_padded_and_underscored_values_load(self, tmp_path):
        f = tmp_path / "loose.csv"
        f.write_text("value\n1.5\n 2.5 \n\n1_0\n")
        assert load_csv(f).sample.values.tolist() == [1.5, 2.5, 10.0]

    def test_bad_year(self, tmp_path):
        f = tmp_path / "year.csv"
        f.write_text("1956.5,131.2\n")
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.row == 1


# Every line break str.splitlines knows.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _reference_load(path) -> Dataset:
    """load_csv as one loop over ``text.splitlines()``, the whole text split at once."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    lines = text.splitlines()
    rows = (i for i, line in enumerate(lines) if line.strip())
    first = next(rows, None)
    if first is not None and not any(io._parses(float, cell) for cell in lines[first].split(",")):
        first = next(rows, None)
    if first is None:
        raise EmptyDatasetError(f"no data rows in {path}")
    n_columns = len(lines[first].split(","))
    if n_columns not in (1, 2):
        raise ParseError(first + 1, f"expected 1 or 2 columns, found {n_columns}")
    years, values = [], []
    error = None
    for row, line in enumerate(lines[first:], first + 1):
        try:
            if n_columns == 1:
                values.append(float(line))
            else:
                year, value = line.split(",")
                years.append(int(year))
                values.append(float(value))
        except ValueError:
            if line.strip():
                error = io._row_error(line, row, n_columns)
                break
    array = np.array(values)
    finite = np.isfinite(array)
    if not finite.all():
        data_rows = ((row, line) for row, line in enumerate(lines[first:], first + 1) if line.strip())
        row, line = next(islice(data_rows, int(np.argmin(finite)), None))
        raise ParseError(row, f"non-finite value {line.split(',')[-1].strip()!r}")
    if error is not None:
        raise error
    return Dataset(label=path.stem, sample=Sample(array), years=tuple(years) if years else None)


def _outcome(load, path):
    """What ``load(path)`` gives: its label, value bits and years, or its exception's type and message."""
    try:
        ds = load(path)
    except ValueError as exc:  # evtkit's data errors
        return type(exc), str(exc)
    return ds.label, ds.sample.values.tobytes(), ds.years


ROWS_OF_KIND = {
    "blank": st.sampled_from(["", " ", "\t", " \t  "]),
    "header": st.sampled_from(["value", "year,value", "x"]),
    "bad": st.sampled_from(["abc", "1,2,3", "x,1", "2.5,1", ",", "1_"]),
    "non-finite": st.sampled_from(["nan", "inf", "-Infinity", "1e400", "3,nan", "4, inf "]),
}


@st.composite
def messy_texts(draw):
    """Numeric rows of one layout among blank, header, bad and non-finite rows, joined by any line breaks."""
    two_columns = draw(st.booleans())
    numeric = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-99, 99).map(str)
    kinds = draw(st.lists(st.sampled_from(["numeric"] * 5 + ["blank"] * 2 + list(ROWS_OF_KIND)), max_size=12))
    lines = []
    for i, kind in enumerate(kinds):
        if kind == "numeric":
            value = draw(st.sampled_from(["{}", " {} "])).format(draw(numeric))
            lines.append(f"{1900 + i},{value}" if two_columns else value)
        else:
            lines.append(draw(ROWS_OF_KIND[kind]))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    bom = "\ufeff" if draw(st.booleans()) else ""
    text = "".join(line + sep for line, sep in zip(lines, breaks))
    return bom + (text[: -len(breaks[-1])] if lines and draw(st.booleans()) else text)


class TestBlockReader:
    """load_csv splits its text a block at a time, and reads it exactly as one split of the whole text."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=messy_texts(), block=st.integers(0, 6))
    @example(text="1\x0c2\x0c3\n", block=1)
    @example(text="1\u20282\u20283", block=1)
    @example(text="1\r2\r3\r", block=1)
    @example(text="year,value\r\n\r\n\r\n1,2\r\n2,3\r\n", block=2)
    @example(text="1\ninf\nabc\n", block=1)  # row 2: non-finite 'inf'
    @example(text="1\nabc\ninf\n", block=1)  # row 2: could not parse 'abc'
    def test_matches_one_split_of_the_whole_text(self, tmp_path_factory, text, block):
        f = tmp_path_factory.mktemp("blocks") / "series.csv"
        f.write_bytes(text.encode("utf-8"))
        expected = _outcome(_reference_load, f)
        with mock.patch.object(io, "BLOCK_CHARS", block):
            assert _outcome(load_csv, f) == expected

    @pytest.mark.parametrize("text", ["1\x0c2\x0c3\n", "1\u20282\u20283", "1\r2\r3\r"])
    def test_every_line_break_separates_rows(self, tmp_path, text):
        f = tmp_path / "breaks.csv"
        f.write_bytes(text.encode("utf-8"))
        for block in (1, io.BLOCK_CHARS):
            with mock.patch.object(io, "BLOCK_CHARS", block):
                assert load_csv(f).sample.values.tolist() == [1.0, 2.0, 3.0]


class TestDataset:
    @pytest.mark.parametrize(
        "years, message",
        [
            ((1990,), "years and values must have the same length"),
            ((1991, 1990), "years must be strictly increasing"),
            ((1990, 1990), "years must be strictly increasing"),
            # int() kept 1990 of 1990.7, and 1990.2, 1990.9 were not increasing.
            ((1990.7, 1991.2), "year 1990.7 is not a whole number"),
            ((1990.2, 1990.9), "year 1990.2 is not a whole number"),
            ((1990, math.nan), "year nan is not a whole number"),
            ((math.inf, 1991), "year inf is not a whole number"),
        ],
    )
    def test_invalid_years_are_domain_errors(self, years, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Dataset("x", Sample(np.array([1.0, 2.0])), years=years)


class TestWriteCsv:
    def test_columns_across_chunk_edges_match_row_wise_text(self, tmp_path):
        n = 2 * CHUNK_CELLS + 1
        index = np.arange(n)
        values = np.linspace(-1.0, 1.0, n) ** 3
        (path,) = write_csv({tmp_path / "t.csv": ("i,v", [index, values])})
        rows = [f"{i},{float(v)!r}" for i, v in zip(index, values)]
        assert path.read_text() == "\n".join(["i,v", *rows]) + "\n"

    def test_shared_column_serves_files_of_several_lengths(self, tmp_path):
        cells = np.array([0.1, -0.0, 5e-324, 1e16] * CHUNK_CELLS)
        files = {
            tmp_path / "one.csv": ("v", [cells]),
            tmp_path / "two.csv": ("v,w", [cells, cells[::-1].copy()]),
            tmp_path / "short.csv": (None, [np.arange(3)]),
        }
        one, two, short = write_csv(files)
        assert one.read_text().splitlines()[:5] == ["v", "0.1", "-0.0", "5e-324", "1e+16"]
        rows = [f"{a!r},{b!r}" for a, b in zip(cells.tolist(), cells[::-1].tolist())]
        assert two.read_text() == "\n".join(["v,w", *rows]) + "\n"
        assert short.read_text() == "0\n1\n2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "short.csv", "two.csv"]

    def test_failure_before_the_renames_writes_no_file(self, tmp_path):
        # The second file's column is not an array, so its first chunk fails after the first file's.
        files = {tmp_path / "good.csv": ("v", [np.arange(5.0)]), tmp_path / "bad.csv": ("v", [[1.0, 2.0]])}
        with pytest.raises(AttributeError):
            write_csv(files)
        assert list(tmp_path.iterdir()) == []


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
