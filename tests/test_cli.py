"""Command-line interface: subcommands, formats, and exit codes."""

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import pstats
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtkit
from evtkit import (
    GEV,
    emit_plot_data,
    emit_report,
    load_csv,
    report_to_dict,
    run_pipeline,
    simulate_to_csv,
)
from evtkit.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main

from conftest import GEV_MM, run_python, strict_json

FIXTURE_FILE = Path(__file__).resolve().parents[1] / "data" / "synthetic_annual_maxima.csv"

HUGE_VALUES = (1e200, 2e200, 3e200, 4e200, 4.2e200)

# Tables of the text report: the width of the indent and the left-aligned
# first column, then the widths of the right-aligned cells after it.
TEXT_TABLE_COLUMNS = {
    "Descriptive statistics": (24, (12,)),
    "Fitted parameters": (11, (10, 10, 10, 12, 11)),
    "Goodness of fit": (11, (11, 10, 8)),
    "Return levels": (15, (10,)),
}
# The same tables as the step commands print them, with no indent; the
# return-level table has one column per fitted family.
STEP_TABLE_COLUMNS = {
    "fit": (9, (10, 10, 10, 12, 11)),
    "gof": (9, (11, 10, 8)),
    "return-levels": (13, (10,)),
}


def _scaled_inputs():
    fixture = load_csv(FIXTURE_FILE).sample.values
    for sign in (1.0, -1.0):
        yield pytest.param(sign * np.array(HUGE_VALUES), id=f"{sign:+g}e200")
        for k in (*range(-15, -2), *range(3, 16)):
            yield pytest.param(sign * 10.0**k * fixture, id=f"fixture{sign:+g}e{k}")


def assert_columns_kept(rows, lead, widths):
    """Every row fills its columns exactly, each right-aligned cell starts with a space, and none reads zero.

    No fitted value in these tables is zero, so a cell such as ``0.00`` or
    ``-0.000`` is a nonzero number rounded away.
    """
    starts = list(itertools.accumulate(widths[:-1], initial=lead))
    for row in rows:
        if "ERROR:" not in row:  # a failed fit's message spans the row
            assert len(row) == lead + sum(widths), row
            assert all(row[start] == " " for start in starts), row
            cells = [row[start:end] for start, end in itertools.pairwise([*starts, len(row)])]
            assert not any(re.fullmatch(r" *-?0\.0+", cell) for cell in cells), row


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "maxima.csv"
    simulate_to_csv(GEV_MM, 400, 7, path)
    return path


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_text_output_all_families(self, data_file, capsys):
        code, out, _ = run_main(["fit", "--input", str(data_file)], capsys)
        assert code == EXIT_OK
        for label in ("Gumbel", "Frechet", "Weibull", "GEV"):
            assert label in out

    def test_json_single_family(self, data_file, capsys):
        code, out, _ = run_main(
            ["fit", "--input", str(data_file), "--dist", "gev", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["fits"]) == 1
        fit = doc["fits"][0]["fit"]
        assert fit["converged"] is True
        assert abs(fit["params"]["location"] - 92.41) < 5.0

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run_main(["fit", "--input", str(tmp_path / "nope.csv")], capsys)
        assert code == EXIT_DATA
        assert "error" in err

    def test_parse_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nabc\n")
        code, _, err = run_main(["fit", "--input", str(bad)], capsys)
        assert code == EXIT_DATA
        assert "row 2" in err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1.0\n2.0\n3.0 caf\xe9\n")
        code, _, err = run_main(["fit", "--input", str(bad)], capsys)
        assert code == EXIT_DATA
        assert "row 3" in err and "0xe9" in err

    def test_degenerate_data_is_numerical_failure(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("5.0\n5.0\n5.0\n5.0\n")
        code, out, _ = run_main(["fit", "--input", str(flat)], capsys)
        assert code == EXIT_NUMERICAL


class TestGofCommand:
    def test_text_table(self, data_file, capsys):
        code, out, _ = run_main(["gof", "--input", str(data_file)], capsys)
        assert code == EXIT_OK
        assert "PASS" in out or "FAIL" in out
        assert "best family:" in out

    def test_json_includes_gate(self, data_file, capsys):
        code, out, _ = run_main(
            ["gof", "--input", str(data_file), "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["best_family"] == "gev"
        for row in doc["gof"]:
            assert row["critical_value"] == 2.502
            assert row["passed"] == (row["statistic"] < 2.502)

    @pytest.mark.parametrize("command", ["gof", "report"])
    @pytest.mark.parametrize("alpha", ["0.01", "abc"])
    def test_unknown_alpha_is_usage_error(self, data_file, capsys, command, alpha):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(data_file), "--alpha", alpha])
        assert exc.value.code == EXIT_USAGE


class TestReturnLevelsCommand:
    def test_default_periods_text(self, data_file, capsys):
        code, out, _ = run_main(["return-levels", "--input", str(data_file)], capsys)
        assert code == EXIT_OK
        for period in ("5", "10", "50", "100", "200"):
            assert period in out

    def test_custom_periods_json(self, data_file, capsys):
        code, out, _ = run_main(
            [
                "return-levels",
                "--input",
                str(data_file),
                "--dist",
                "gev",
                "--periods",
                "2,20",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        entries = doc["return_levels"][0]["entries"]
        assert [e["period"] for e in entries] == [2.0, 20.0]
        assert entries[0]["level"] < entries[1]["level"]

    def test_all_families_text_table(self, capsys):
        code, out, _ = run_main(["return-levels", "--input", str(FIXTURE_FILE), "--dist", "all"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "period (yr)      Gumbel   Frechet   Weibull       GEV"
        assert lines[4] == "100              230.88    371.19    215.95    248.34"
        assert len(lines) == 6

    def test_period_labels_read_back_as_their_periods(self, capsys):
        # Six significant digits printed 1234567.5 and 1234567.75 both as 1.23457e+06.
        periods = [4 / 3, 1.5, 2.25, 1234567.5, 1234567.75, 1e14]
        text = ",".join(map(repr, periods))
        args = ["return-levels", "--input", str(FIXTURE_FILE), "--dist", "all", "--periods", text]
        code, out, _ = run_main(args, capsys)
        assert code == EXIT_OK
        rows = out.splitlines()
        labels = [row.split()[0] for row in rows[1:]]
        assert [float(label) for label in labels] == periods
        assert labels[1:3] == ["1.5", "2.25"] and labels[-1] == "1e+14"
        assert_columns_kept(rows, len(labels[0]), (10,) * 4)  # the first column widens

    @pytest.mark.parametrize(
        "periods, message",
        [("50,5", "return periods must be strictly increasing"), ("5,abc", "could not parse periods '5,abc'")],
    )
    def test_bad_periods_is_usage_error(self, data_file, capsys, periods, message):
        with pytest.raises(SystemExit) as exc:
            main(["return-levels", "--input", str(data_file), "--periods", periods])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument --periods: {message}\n")

    def test_period_too_large_for_its_probability_is_usage_error(self, capsys):
        args = ["return-levels", "--input", str(FIXTURE_FILE), "--dist", "gev", "--periods", "5,1e17"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "return period 1e+17 is too large" in captured.err


class TestReportCommand:
    def test_text_report(self, data_file, capsys):
        code, out, _ = run_main(["report", "--input", str(data_file)], capsys)
        assert code == EXIT_OK
        assert "Best family" in out

    def test_heading_rules_match_their_titles(self, capsys):
        code, out, _ = run_main(["report", "--input", str(FIXTURE_FILE)], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        rules = [i for i, line in enumerate(lines) if line and set(line) <= {"-", "="}]
        assert len(rules) == 5
        for i in rules:
            assert len(lines[i]) == len(lines[i - 1]), lines[i - 1]

    def test_out_dir_under_a_file_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["report", "--input", str(FIXTURE_FILE), "--out-dir", str(blocker / "sub")]
        code, out, err = run_main(args, capsys)
        assert code == EXIT_DATA
        assert err.startswith("evtkit: error:")
        assert out == ""

    def test_period_next_to_one_draws_its_curve(self, tmp_path, capsys):
        # The curve started at (1 + p_max) / 2, which rounds to 1: 15 files, then exit 2.
        out_dir = tmp_path / "plots"
        period = repr(math.nextafter(1.0, 2.0))
        args = ["report", "--input", str(FIXTURE_FILE), "--periods", period, "--out-dir", str(out_dir)]
        code, _, err = run_main(args, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert len(list(out_dir.iterdir())) == 16
        rows = (out_dir / "return_curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 256 and {row.split(",")[0] for row in rows} == {period}

    @pytest.mark.parametrize("command", ["report", "return-levels"])
    @pytest.mark.parametrize(
        "text,reason",
        [("1\n2\n", "need at least 3 observations to fit, got 2"), ("5\n5\n5\n5\n", "sample standard deviation is zero")],
    )
    def test_no_fitted_family_says_why(self, tmp_path, capsys, command, text, reason):
        path = tmp_path / "unfittable.csv"
        path.write_text(text)
        code, out, err = run_main([command, "--input", str(path)], capsys)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == f"evtkit: error: no distribution family could be fitted: {reason}\n"

    def test_no_converged_family_is_numerical_failure(self, monkeypatch, capsys):
        search = functools.partial(evtkit.fitting._search, max_iterations=2)
        monkeypatch.setattr(evtkit.fitting, "_search", search)
        code, out, err = run_main(["report", "--input", str(FIXTURE_FILE)], capsys)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == "evtkit: error: no distribution family converged\n"

    def test_out_dir_writes_files(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code, out, _ = run_main(
            ["report", "--input", str(data_file), "--format", "json", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["best_family"] == "gev"
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "timeseries.csv").exists()
        assert (out_dir / "return_curve.csv").exists()
        assert (out_dir / "qq_gev.csv").exists()
        written = json.loads((out_dir / "report.json").read_text())
        assert written == doc

        # Every file is byte for byte what the same report writes in process.
        dataset = load_csv(data_file)
        report = run_pipeline(dataset)
        plots = emit_plot_data(report, dataset, tmp_path / "reference")
        expected = {path.name: path.read_bytes() for path in plots.values()}
        expected["report.txt"] = emit_report(report, "text").encode()
        expected["report.json"] = (emit_report(report, "json") + "\n").encode()
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == expected
        assert out == emit_report(report, "json")

    def test_json_is_strict_for_a_short_bounded_tail(self, tmp_path, capsys):
        # Without the shape floor the GEV fit here ran to shape -1.47 and
        # wrote its log-likelihood as -Infinity.
        path = tmp_path / "short.csv"
        simulate_to_csv(GEV(100.0, 20.0, -0.6), 15, 0, path)
        code, out, _ = run_main(["report", "--input", str(path), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = strict_json(out)
        gev = next(entry["fit"] for entry in doc["fits"] if entry["family"] == "gev")
        assert gev["params"]["shape"] > -1.0

    def test_json_writes_undefined_statistics_as_null(self, tmp_path, capsys):
        # Excess kurtosis needs four values; it was written as NaN, which is not JSON.
        path = tmp_path / "three.csv"
        path.write_text("10\n12\n15\n")
        code, out, _ = run_main(["report", "--input", str(path), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["descriptive"]["excess_kurtosis"] is None
        assert math.isfinite(doc["descriptive"]["skewness"])
        assert doc == report_to_dict(run_pipeline(load_csv(path)))

    def test_json_writes_statistics_past_the_float_range_as_null(self, tmp_path, capsys):
        # The variance of these values is inf; it was written as Infinity, which is not JSON.
        path = tmp_path / "huge.csv"
        path.write_text("1e200\n2e200\n3e200\n4e200\n4.2e200\n")
        code, out, _ = run_main(["report", "--input", str(path), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["descriptive"]["variance"] is None
        assert doc == report_to_dict(run_pipeline(load_csv(path)))

    @pytest.mark.parametrize("command", ["report", "fit", "return-levels"])
    def test_json_writes_levels_past_the_float_range_as_null(self, tmp_path, capsys, command):
        # The Gumbel is the best fit here, and its 50- to 200-year levels are inf;
        # they were written as Infinity.
        path = tmp_path / "near_max.csv"
        values = np.random.default_rng(1).uniform(2e307, 1.7e308, 30)
        path.write_text("".join(f"{value!r}\n" for value in values.tolist()))
        code, out, _ = run_main([command, "--input", str(path), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = strict_json(out)
        if command == "report":
            assert None in [row["level"] for row in doc["return_levels"]]
            assert doc == report_to_dict(run_pipeline(load_csv(path)))
        elif command == "return-levels":
            assert None in [row["level"] for table in doc["return_levels"] for row in table["entries"]]

    @pytest.mark.parametrize("values", _scaled_inputs())
    def test_text_tables_keep_their_columns_at_every_scale(self, tmp_path, capsys, values):
        # From 1e3 on, fixed-point cells ran into their neighbours, and near
        # 1e200 they were printed with .2f as 200-digit numbers.
        path = tmp_path / "scaled.csv"
        path.write_text("".join(f"{value!r}\n" for value in values.tolist()))
        code, out, _ = run_main(["report", "--input", str(path)], capsys)
        assert code == EXIT_OK
        tables = {}
        for block in out.split("\n\n"):
            title, *lines = block.splitlines()
            if title.split(" (")[0] in TEXT_TABLE_COLUMNS:
                tables[title.split(" (")[0]] = lines[1:]  # below the underline
        assert set(tables) == set(TEXT_TABLE_COLUMNS)
        for name, rows in tables.items():
            assert_columns_kept(rows, *TEXT_TABLE_COLUMNS[name])

        fitted = 4 if values.min() > 0.0 else 2  # Frechet and Weibull need positive data
        for command, (lead, widths) in STEP_TABLE_COLUMNS.items():
            code, out, _ = run_main([command, "--input", str(path)], capsys)
            assert code == EXIT_OK
            rows = [row for row in out.splitlines() if not row.startswith("best family:")]
            if command == "return-levels":
                widths = widths * fitted
            assert_columns_kept(rows, lead, widths)


class TestStepCommandsPrintTheReportRows:
    """``fit``, ``gof`` and ``return-levels`` write the rows ``report`` writes for the same data."""

    @pytest.fixture(scope="class")
    def report(self):
        return report_to_dict(run_pipeline(load_csv(FIXTURE_FILE)))

    def test_fit(self, report, capsys):
        code, out, _ = run_main(["fit", "--input", str(FIXTURE_FILE), "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["fits"] == report["fits"]

    def test_gof(self, report, capsys):
        code, out, _ = run_main(["gof", "--input", str(FIXTURE_FILE), "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["gof"] == report["gof"]
        assert doc["best_family"] == report["best_family"]

    def test_return_levels(self, report, capsys):
        best = report["best_family"]  # the Gumbel, by a smaller A2 than the GEV's
        args = ["return-levels", "--input", str(FIXTURE_FILE), "--dist", best, "--format", "json"]
        code, out, _ = run_main(args, capsys)
        assert code == EXIT_OK
        (entry,) = json.loads(out)["return_levels"]
        assert entry == {"family": best, "entries": report["return_levels"]}


FALLBACK_NOTE = " (no family passed; smallest A-D statistic)"


def _all_failed(gofs):
    return tuple(dataclasses.replace(gof, passed=False) for gof in gofs)


@pytest.mark.parametrize("passed", [True, False], ids=["a-family-passed", "none-passed"])
class TestFallbackNote:
    """The best-family line of the report and of ``gof`` notes that no family passed if and only if none did."""

    def test_report(self, passed):
        report = run_pipeline(load_csv(FIXTURE_FILE))
        assert all(gof.passed for gof in report.gofs)
        if not passed:
            report = dataclasses.replace(report, gofs=_all_failed(report.gofs))
        (line,) = [row for row in emit_report(report, "text").splitlines() if row.startswith("Best family:")]
        label = evtkit.FAMILY_LABELS[report.best_family]
        assert line == f"Best family: {label}" + ("" if passed else FALLBACK_NOTE)

    def test_gof_command(self, passed, monkeypatch, capsys):
        if not passed:
            tested = evtkit.cli.goodness_of_fit
            monkeypatch.setattr(evtkit.cli, "goodness_of_fit", lambda *args: _all_failed(tested(*args)))
        code, out, _ = run_main(["gof", "--input", str(FIXTURE_FILE)], capsys)
        assert code == EXIT_OK
        assert out.count("PASS" if passed else "FAIL") == 4
        # The smallest statistic of all four: the family that had the smallest of those that passed.
        label = evtkit.FAMILY_LABELS[run_pipeline(load_csv(FIXTURE_FILE)).best_family]
        assert out.splitlines()[-1] == f"best family: {label}" + ("" if passed else FALLBACK_NOTE)


@st.composite
def _first_cells(draw):
    """A number, a typo of one (a digit read as a letter, a doubled point), or a missing-value code."""
    number = repr(draw(st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6).map(float)))
    kind = draw(st.sampled_from(["number", "typo", "missing"]))
    if kind == "number":
        return number
    if kind == "missing":
        return draw(st.sampled_from(["NA", "N/A", "na", "NaN", "nan", "-", ".", "?", "null", "missing", "#N/A"]))
    digits = [i for i, char in enumerate(number) if char.isdigit()]
    if "." in number and draw(st.booleans()):
        return number.replace(".", "..", 1)
    at = draw(st.sampled_from(digits))
    return number[:at] + draw(st.sampled_from("OolIS")) + number[at + 1 :]


class TestHeaderNote:
    """A first row skipped as a header is named on standard error by every command that loads a file."""

    @pytest.mark.parametrize("command", ["fit", "gof", "return-levels", "report"])
    def test_each_loading_command_says_so(self, command, tmp_path, capsys):
        path = tmp_path / "na.csv"
        path.write_text("\nNA\n" + FIXTURE_FILE.read_text())
        code, out, err = run_main([command, "--input", str(path)], capsys)
        assert (code, err) == (EXIT_OK, 'evtkit: note: row 2 ("NA") read as a header and skipped\n')
        assert out == run_main([command, "--input", str(FIXTURE_FILE)], capsys)[1]

    def test_no_note_without_a_header(self, capsys):
        assert run_main(["fit", "--input", str(FIXTURE_FILE)], capsys)[2] == ""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        first=_first_cells(),
        rest=st.lists(st.floats(1.0, 1000.0), min_size=4, max_size=8, unique=True),
    )
    @example(first="1O0.5", rest=[90.0, 120.5, 101.25])
    @example(first="NA", rest=[90.0, 120.5, 101.25])
    def test_every_value_loads_or_is_named(self, tmp_path_factory, first, rest):
        path = tmp_path_factory.mktemp("header") / "one_column.csv"
        path.write_text("\n".join([first, *map(repr, rest)]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fit", "--dist", "gumbel", "--input", str(path)])
        try:
            value = float(first)
        except ValueError:  # a header, skipped and named
            assert code == EXIT_OK
            assert err.getvalue() == f'evtkit: note: row 1 ("{first}") read as a header and skipped\n'
            assert load_csv(path).sample.values.tolist() == rest
            return
        if math.isfinite(value):  # a value, loaded
            assert (code, err.getvalue()) == (EXIT_OK, "")
            assert load_csv(path).sample.values.tolist() == [value, *rest]
        else:  # a value that cannot load, named in the error
            assert code == EXIT_DATA
            assert err.getvalue() == f"evtkit: error: row 1: non-finite value {first!r}\n"


UNFITTABLE = {"two_values": "1\n2\n", "equal_values": "5\n5\n5\n5\n"}


@pytest.mark.parametrize(
    "command,dist,data",
    [
        *((command, "all", data) for command in ("fit", "gof", "return-levels") for data in UNFITTABLE),
        ("gof", "gev", "fixture"),
    ],
)
def test_step_command_exit_paths(tmp_path, capsys, command, dist, data):
    path = FIXTURE_FILE
    if data in UNFITTABLE:
        path = tmp_path / "data.csv"
        path.write_text(UNFITTABLE[data])
    code, out, err = run_main([command, "--input", str(path), "--dist", dist], capsys)
    if data == "fixture":  # one family tested: no best family to name
        assert (code, err) == (EXIT_OK, "")
        assert len(out.splitlines()) == 2 and "best family:" not in out
    elif command == "return-levels":  # no table to print: only the reason
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("evtkit: error: no distribution family could be fitted: ")
    else:  # each family's ERROR row
        assert (code, err) == (EXIT_NUMERICAL, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 4 and all("ERROR" in row for row in rows)


class TestSimulateCommand:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_main(
            [
                "simulate",
                "--dist",
                "gev",
                "--params",
                "92.41,30.85,0.06",
                "--n",
                "25",
                "--seed",
                "9",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert str(out) in stdout
        ds = load_csv(out)
        assert ds.sample.n == 25
        assert np.array_equal(ds.sample.values, GEV_MM.sample(25, 9).values)

    def test_wrong_param_count_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_main(
            [
                "simulate",
                "--dist",
                "gumbel",
                "--params",
                "1.0",
                "--n",
                "5",
                "--output",
                str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "parameters" in err

    def test_frechet_takes_no_location(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        args = ["simulate", "--dist", "frechet", "--params", "3.37,88.16,10", "--n", "51", "--output", str(out)]
        message = "evtkit simulate: error: frechet takes 2 parameters (shape, scale), got 3\n"
        assert run_main(args, capsys) == (EXIT_USAGE, "", message)
        assert not out.exists()

    def test_zero_n_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--dist",
                    "gev",
                    "--params",
                    "1,1,0",
                    "--n",
                    "0",
                    "--output",
                    str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "option, value, message",
        [("--seed", "-1", "value must be at least 0"), ("--n", "ten", "expected an integer, got 'ten'")],
    )
    def test_bad_count_or_seed_is_usage_error(self, tmp_path, capsys, option, value, message):
        args = ["simulate", "--dist", "gev", "--params", "1,1,0", "--n", "5", option, value]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {option}: {message}\n" in capsys.readouterr().err

    def test_draws_beyond_the_float_range_print_only_the_error(self, tmp_path):
        # A numpy RuntimeWarning and its source line used to come before the error.
        args = ["--dist", "frechet", "--params", "0.002,1", "--n", "5", "--output", str(tmp_path / "f.csv")]
        proc = run_module("simulate", *args)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (
            "evtkit simulate: error: Frechet(shape=0.002, scale=1.0) with seed 0"
            " draws a value beyond the float range\n"
        )
        assert not (tmp_path / "f.csv").exists()

    def test_output_under_a_file_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["simulate", "--dist", "gumbel", "--params", "0,1", "--n", "5", "--output", str(blocker / "x.csv")]
        code, _, err = run_main(args, capsys)
        assert code == EXIT_DATA
        assert err.startswith("evtkit: error:")


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_dist(self, data_file):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(data_file), "--dist", "normal"])
        assert exc.value.code == EXIT_USAGE


class TestOptionSurface:
    OPTIONS = {
        "fit": {"--input", "--dist", "--format"},
        "gof": {"--input", "--dist", "--format", "--alpha"},
        "return-levels": {"--input", "--dist", "--format", "--periods"},
        "report": {"--input", "--format", "--alpha", "--periods", "--out-dir"},
        "simulate": {"--dist", "--params", "--n", "--seed", "--output"},
    }

    def test_each_command_has_exactly_its_options(self):
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {s for a in command._actions if a.dest != "help" for s in a.option_strings}
            for name, command in commands.items()
        }
        assert options == self.OPTIONS

    def test_periods_help_is_the_same_on_both_commands(self, capsys):
        entries = []
        for command in ("report", "return-levels"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("  --periods"))
            end = next((i for i in range(start + 1, len(lines)) if not lines[i].startswith("   ")), len(lines))
            entries.append(lines[start:end])
        assert entries[0] == entries[1]
        assert "(default: 5,10,50,100,200)" in " ".join(" ".join(entries[0]).split())

    @pytest.mark.parametrize("command", ["fit", "gof", "return-levels", "report"])
    def test_the_layout_option_is_gone(self, data_file, capsys, command):
        # The first data row alone sets the layout of an input file.
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(data_file), "--columns", "value"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --columns value" in capsys.readouterr().err


def run_module(*args, **kwargs):
    """``python -m evtkit`` with ``args`` in a child process; keywords as for ``run_python``."""
    return run_python("-m", "evtkit", *args, **kwargs)


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    args = ["--dist", "gumbel", "--params", "93.61,32.02", "--n", "10", "--seed", "1", "--output", str(out)]
    proc = run_module("simulate", *args)
    assert proc.returncode == 0
    assert out.exists()


def in_process(args, capsys):
    """``main(args)`` as ``(exit code, stdout, stderr)``, also when argparse exits."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProcessExit:
    """``python -m evtkit`` ends through ``cli.run``: ``main``, then ``os._exit`` unless a hook is set."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [["report", "--format", "json"], ["fit"]], ids=["report", "fit"])
    def test_a_failed_write_to_stdout_is_a_data_error(self, command, unbuffered):
        # Buffered, the write used to fail only at interpreter teardown, which exited 120.
        with open("/dev/full", "w") as full:
            proc = run_module(*command, "--input", str(FIXTURE_FILE), stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == "evtkit: error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize(
        "code, args",
        [
            (EXIT_OK, ["report", "--input", str(FIXTURE_FILE), "--format", "json"]),
            (EXIT_USAGE, ["report", "--input", str(FIXTURE_FILE), "--no-such-option"]),
            (EXIT_DATA, ["report", "--input", "missing.csv"]),
            (EXIT_NUMERICAL, ["fit", "--input", "two.csv"]),
        ],
        ids=["ok", "usage", "data", "numerical"],
    )
    def test_the_child_is_the_in_process_program(self, tmp_path, monkeypatch, capsys, code, args):
        monkeypatch.chdir(tmp_path)
        Path("two.csv").write_text("1.0\n2.0\n")

        def out_dir(name):
            return ["--out-dir", name] if code == EXIT_OK else []

        child = run_module(*args, *out_dir("child"))
        expected = in_process([*args, *out_dir("here")], capsys)
        assert (child.returncode, child.stdout, child.stderr) == expected
        assert expected[0] == code
        if code == EXIT_OK:
            files = {path.name: path.read_bytes() for path in Path("here").iterdir()}
            assert len(files) == 16
            assert {path.name: path.read_bytes() for path in Path("child").iterdir()} == files

    def test_a_profiled_run_writes_its_profile(self, tmp_path):
        profile = tmp_path / "prof.out"
        proc = run_python("-m", "cProfile", "-o", str(profile), "-m", "evtkit", "report", "--input", str(FIXTURE_FILE))
        assert proc.returncode == EXIT_OK
        assert pstats.Stats(str(profile)).total_calls > 0

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_atexit_callbacks_run_only_under_a_trace_hook(self, traced):
        hook = "sys.settrace(lambda *event: None)" if traced else "pass"
        proc = run_python("-c", evtkit_after(hook, "report", "--input", str(FIXTURE_FILE), "--format", "json"))
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert proc.stdout.endswith("atexit ran\n") == traced

    def test_a_monitoring_tool_is_a_hook(self):
        # From Python 3.12 cProfile, coverage and pdb hook in as a sys.monitoring tool and set no trace or
        # profile function. Before 3.12, a stand-in with sys.monitoring's get_tool registers tool 2.
        hook = (
            "sys.monitoring.use_tool_id(2, 'test') if hasattr(sys, 'monitoring') else "
            "setattr(sys, 'monitoring', types.SimpleNamespace(get_tool={2: 'test'}.get))"
        )
        proc = run_python("-c", evtkit_after(hook, "report", "--input", str(FIXTURE_FILE), "--format", "json"))
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert proc.stdout.endswith("atexit ran\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_write_to_stdout_is_a_data_error_under_a_trace_hook(self):
        # The bytes main could not write stay buffered; the normal exit must not retry them and exit 120.
        code = evtkit_after("sys.settrace(lambda *event: None)", "report", "--input", str(FIXTURE_FILE))
        with open("/dev/full", "w") as full:
            proc = run_python("-c", code, stdout=full, PYTHONUNBUFFERED=None)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == "evtkit: error: [Errno 28] No space left on device\n"


def evtkit_after(hook, *args):
    """Python code that registers an ``atexit`` print, runs ``hook`` and then ``python -m evtkit`` with ``args``."""
    return (
        "import atexit, runpy, sys, types\n"
        "atexit.register(print, 'atexit ran')\n"
        f"{hook}\n"
        f"sys.argv = ['evtkit', *{list(args)!r}]\n"
        "runpy.run_module('evtkit', run_name='__main__')\n"
    )
