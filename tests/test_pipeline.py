"""End-to-end pipeline, report formats, and plot-data emission."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtkit import (
    FAMILIES,
    GEV,
    Dataset,
    Distribution,
    Gumbel,
    ReturnSpec,
    Sample,
    emit_plot_data,
    emit_report,
    fit_mle,
    make_params,
    report_to_dict,
    run_pipeline,
)
from evtkit.errors import DegenerateSampleError, DomainError, NumericalError, UnsupportedFormatError
from evtkit.io import CHUNK_CELLS
from evtkit.pipeline import (
    PDF_GRID_MARGIN,
    PDF_GRID_POINTS,
    RETURN_CURVE_MIN_PERIOD,
    RETURN_CURVE_POINTS,
)
from evtkit.returns import ReturnLevelTable, return_curve

from conftest import GEV_MM, strict_json


@pytest.fixture(scope="module")
def synthetic_dataset():
    return Dataset("synthetic", GEV_MM.sample(2000, 7))


@pytest.fixture(scope="module")
def report(synthetic_dataset):
    return run_pipeline(synthetic_dataset)


def _with_a_failed_family():
    # Frechet and Weibull cannot be fitted below 0.
    rng = np.random.default_rng(14)
    return run_pipeline(Dataset("neg", Sample(np.concatenate([[-10.0], rng.gumbel(100.0, 20.0, 199)]))))


def _past_the_float_range(report):
    """``report`` with a first log-likelihood of -inf and a last return level of inf."""
    first = report.fits[0]
    fits = (dataclasses.replace(first, result=dataclasses.replace(first.result, log_likelihood=-math.inf)),)
    *entries, (period, _) = report.return_levels.entries
    return dataclasses.replace(
        report,
        fits=fits + report.fits[1:],
        return_levels=ReturnLevelTable(entries=(*entries, (period, math.inf))),
    )


# Reports that hold each kind of entry: all finite, failed families, a log-likelihood of -inf
# and a level of inf, a range of inf, and an undefined coefficient of variation and kurtosis.
EDGE_REPORTS = {
    "finite": lambda report: report,
    "failed_family": lambda report: _with_a_failed_family(),
    "past_the_float_range": _past_the_float_range,
    "wide": lambda report: run_pipeline(Dataset("wide", Sample(np.array([1e308, -1e308, 5e307])))),
    "tiny_mean": lambda report: run_pipeline(Dataset("tiny_mean", Sample(np.array([1.0, -1.0, 3e-320])))),
}


def _assert_section(section: dict, record) -> None:
    """``section`` holds every field of the dataclass ``record``: each parameter record as the
    dict that rebuilds it, each other value equal, and null exactly where a number is not finite."""
    assert set(section) == {field.name for field in dataclasses.fields(record)}
    for name, value in section.items():
        expected = getattr(record, name)
        if isinstance(expected, Distribution):
            assert make_params(**value) == expected
        elif isinstance(expected, float) and not math.isfinite(expected):
            assert value is None
        else:
            assert value is not None and value == expected


class TestRunPipeline:
    def test_selects_gev_on_gev_data(self, report):
        assert report.best_family == "gev"

    def test_all_sections_present(self, report):
        assert report.descriptive.n == 2000
        assert tuple(f.family for f in report.fits) == ("gumbel", "frechet", "weibull", "gev")
        assert len(report.gofs) == 4
        assert len(report.return_levels.entries) == 5

    def test_gof_uses_default_gate(self, report):
        for gof in report.gofs:
            assert gof.alpha == 0.05
            assert gof.critical_value == 2.502
            assert gof.passed == (gof.statistic < 2.502)

    def test_custom_periods(self, synthetic_dataset):
        r = run_pipeline(synthetic_dataset, spec=ReturnSpec((2.0, 20.0)))
        assert r.return_levels.periods == (2.0, 20.0)

    def test_deterministic(self, synthetic_dataset, report):
        assert run_pipeline(synthetic_dataset) == report

    def test_partial_family_failure_recorded(self):
        r = _with_a_failed_family()
        by_family = {f.family: f for f in r.fits}
        assert by_family["frechet"].error is not None
        assert by_family["weibull"].error is not None
        assert by_family["gumbel"].ok and by_family["gev"].ok
        gofs = dict(zip((f.family for f in r.fits), r.gofs))
        assert gofs["frechet"] is None and gofs["gumbel"] is not None
        assert r.best_family in ("gumbel", "gev")

    def test_degenerate_data_cannot_run(self):
        ds = Dataset("flat", Sample(np.full(10, 5.0)))
        with pytest.raises(NumericalError):
            run_pipeline(ds)


def _fit_or_error(family, sample):
    try:
        return repr(fit_mle(family, sample))
    except (DomainError, DegenerateSampleError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestRowOrder:
    """Block maxima are exchangeable: the report and every fit depend on the values, not on their order."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.integers(20, 150),
        location=st.floats(50.0, 500.0),
        scale=st.floats(1.0, 50.0),
        shape=st.sampled_from([None]) | st.floats(-0.4, 0.4),
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**32 - 1),
    )
    def test_a_permutation_changes_no_report_and_no_fit(self, n, location, scale, shape, seed, order_seed):
        s = (Gumbel(location, scale) if shape is None else GEV(location, scale, shape)).sample(n, seed)
        permuted = Sample(np.random.default_rng(order_seed).permutation(s.values))
        assert report_to_dict(run_pipeline(Dataset("r", permuted))) == report_to_dict(run_pipeline(Dataset("r", s)))
        for family in FAMILIES:
            assert _fit_or_error(family, permuted) == _fit_or_error(family, s), family


class TestEmitReport:
    def test_text_contains_gof_rows_and_verdicts(self, report):
        text = emit_report(report, "text")
        for label in ("Gumbel", "Frechet", "Weibull", "GEV"):
            assert label in text
        assert "PASS" in text or "FAIL" in text
        assert "Best family: GEV" in text
        assert "Return levels" in text

    def test_text_failed_family_shows_error(self):
        text = emit_report(_with_a_failed_family(), "text")
        assert "ERROR" in text

    def test_json_round_trip_equality(self, report):
        assert strict_json(emit_report(report, "json")) == report_to_dict(report)

    def test_json_top_level_keys(self, report):
        doc = json.loads(emit_report(report, "json"))
        assert set(doc) == {"descriptive", "fits", "gof", "best_family", "return_levels"}
        assert doc["best_family"] == "gev"
        assert len(doc["return_levels"]) == 5

    def test_fit_entry_fields(self, report):
        doc = json.loads(emit_report(report, "json"))
        assert set(doc) == {"descriptive", "fits", "gof", "best_family", "return_levels"}
        fields = {"params", "log_likelihood", "converged", "iterations", "n_evaluations", "initial_params"}
        assert [set(entry["fit"]) for entry in doc["fits"]] == [fields] * 4
        assert doc == report_to_dict(report)

    # Seed 3 is a sample on which a search from the moment start used to beat
    # the one from the Gumbel anchor; seed 1 one on which the anchor won. The
    # GEV now runs only the anchored search on both, and records that start.
    @pytest.mark.parametrize("seed, start", [(3, "moment"), (1, "gumbel_anchor")])
    def test_winning_gev_start_inside_fit(self, seed, start):
        report = run_pipeline(Dataset("s", GEV_MM.sample(51, seed)))
        doc = json.loads(emit_report(report, "json"))
        fits = {entry["family"]: entry["fit"] for entry in doc["fits"]}
        assert all("winning_start" not in fit for fit in fits.values())
        gumbel, gev = fits["gumbel"], fits["gev"]
        anchor = {"family": "gev", "location": gumbel["params"]["location"],
                  "scale": gumbel["params"]["scale"], "shape": 0.0}
        assert gev["initial_params"] == anchor
        assert gev["log_likelihood"] >= gumbel["log_likelihood"]
        assert doc == report_to_dict(report)

    @pytest.mark.parametrize("kind", EDGE_REPORTS)
    def test_dict_holds_every_field_of_the_report(self, report, kind):
        report = EDGE_REPORTS[kind](report)
        doc = report_to_dict(report)
        assert set(doc) == {"descriptive", "fits", "gof", "best_family", "return_levels"}
        _assert_section(doc["descriptive"], report.descriptive)
        assert len(doc["fits"]) == len(doc["gof"]) == len(report.fits) == len(report.gofs)
        for entry, gof_entry, fit, gof in zip(doc["fits"], doc["gof"], report.fits, report.gofs):
            assert set(entry) == {"family", "error", "fit"}
            assert (entry["family"], entry["error"]) == (fit.family, fit.error)
            if fit.result is None:
                assert entry["fit"] is None
            else:
                _assert_section(entry["fit"], fit.result)
            if gof is None:
                assert gof_entry is None
            else:
                _assert_section(gof_entry, gof)
        assert doc["best_family"] == report.best_family
        levels = [level if math.isfinite(level) else None for _, level in report.return_levels.entries]
        assert doc["return_levels"] == [
            {"period": period, "level": level} for period, level in zip(report.return_levels.periods, levels)
        ]

    def test_round_trip_with_error_entries(self):
        partial = _with_a_failed_family()
        doc = strict_json(emit_report(partial, "json"))
        assert [entry["fit"] is None for entry in doc["fits"]] == [False, True, True, False]
        assert doc == report_to_dict(partial)

    def test_json_round_trip_past_the_float_range(self, report):
        # A level of inf and a log-likelihood of -inf were written as Infinity and -Infinity.
        beyond = _past_the_float_range(report)
        doc = strict_json(emit_report(beyond, "json"))
        assert doc["fits"][0]["fit"]["log_likelihood"] is None
        assert doc["return_levels"][-1]["level"] is None
        assert doc == report_to_dict(beyond)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_json_round_trip_of_magnitudes_past_the_float_range(self):
        wide = run_pipeline(Dataset("wide", Sample(np.array([1e308, -1e308, 5e307]))))
        assert wide.descriptive.range == math.inf
        doc = strict_json(emit_report(wide, "json"))
        assert doc["descriptive"]["range"] is None
        assert doc == report_to_dict(wide)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values", [[1.0, -1.0, 3e-320], [-1.0, 1.0, -3e-320]])
    def test_json_round_trip_of_a_coefficient_of_variation_past_the_float_range(self, values):
        # 100 * sd / mean overflows to inf or -inf, which the sample leaves undefined: NaN.
        report = run_pipeline(Dataset("tiny_mean", Sample(np.array(values))))
        assert math.isnan(report.descriptive.coef_variation_pct)
        doc = strict_json(emit_report(report, "json"))
        assert doc["descriptive"]["coef_variation_pct"] is None
        assert doc == report_to_dict(report)

    def test_unknown_format(self, report):
        with pytest.raises(UnsupportedFormatError):
            emit_report(report, "xml")


@pytest.fixture(scope="module")
def plot_files(report, synthetic_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("plots")
    return emit_plot_data(report, synthetic_dataset, out), out


class TestEmitPlotData:
    def test_expected_files_written(self, plot_files):
        written, out = plot_files
        names = set(written)
        assert "timeseries" in names and "return_curve" in names
        for family in ("gumbel", "frechet", "weibull", "gev"):
            assert f"pdf_{family}" in names
            assert f"qq_{family}" in names
            assert f"prob_diff_{family}" in names
        for path in written.values():
            assert path.exists()

    def test_headers(self, plot_files):
        written, _ = plot_files
        assert written["timeseries"].read_text().splitlines()[0] == "year,value"
        assert written["pdf_gev"].read_text().splitlines()[0] == "x,pdf"
        assert written["qq_gev"].read_text().splitlines()[0] == "p,theoretical,observed"
        assert written["prob_diff_gev"].read_text().splitlines()[0] == "x,diff"
        assert written["return_curve"].read_text().splitlines()[0] == "period,level"

    def test_qq_files_have_n_rows(self, plot_files, synthetic_dataset):
        written, _ = plot_files
        for family in ("gumbel", "frechet", "weibull", "gev"):
            rows = written[f"qq_{family}"].read_text().splitlines()
            assert len(rows) == synthetic_dataset.sample.n + 1

    def test_pdf_grid_spans_padded_range(self, plot_files, synthetic_dataset):
        written, _ = plot_files
        rows = written["pdf_gev"].read_text().splitlines()[1:]
        assert len(rows) == 512
        xs = np.array([float(r.split(",")[0]) for r in rows])
        values = synthetic_dataset.sample.values
        span = values.max() - values.min()
        assert xs[0] == pytest.approx(values.min() - 0.1 * span)
        assert xs[-1] == pytest.approx(values.max() + 0.1 * span)
        pdf = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(pdf >= 0)

    @pytest.mark.parametrize("k", [-1000, -20, 20, 1000])
    def test_grid_follows_a_binary_rescaling(self, tmp_path, k):
        sample = GEV_MM.sample(51, 22)
        grids = []
        for name, factor in (("base", 1.0), ("scaled", 2.0**k)):
            dataset = Dataset(name, Sample(sample.values * factor))
            written = emit_plot_data(run_pipeline(dataset), dataset, tmp_path / name)
            rows = written["pdf_gumbel"].read_text().splitlines()[1:]
            grids.append([float(row.split(",")[0]) for row in rows])
        assert grids[1] == [math.ldexp(x, k) for x in grids[0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_stays_finite_when_the_range_passes_the_float_range(self, tmp_path):
        # hi - lo overflowed, and every pdf row was nan or inf, with a RuntimeWarning.
        dataset = Dataset("wide", Sample(np.array([1e308, -1e308, 5e307])))
        report = run_pipeline(dataset)
        assert report.descriptive.range == math.inf
        written = emit_plot_data(report, dataset, tmp_path)
        for family in ("gumbel", "gev"):
            rows = [r.split(",") for r in written[f"pdf_{family}"].read_text().splitlines()[1:]]
            xs, pdf = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
            assert len(xs) == PDF_GRID_POINTS and np.all(np.isfinite(xs)), family
            assert np.all(np.diff(xs) >= 0.0) and xs[0] < -1e308 and xs[-1] > 1e308, family
            assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0), family

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_values_at_the_float_maximum_fail_only_numerically(self, tmp_path):
        dataset = Dataset("edge", Sample(np.array([1.7e308, 1.7e308, -1.7e308])))
        try:
            report = run_pipeline(dataset)
        except NumericalError:
            return
        emit_plot_data(report, dataset, tmp_path)

    def test_best_family_without_a_fit_is_a_numerical_error(self, tmp_path):
        dataset = Dataset("with-negative", Sample(np.array([-1.0, 1.0, 2.0, 3.0, 5.0])))
        report = dataclasses.replace(run_pipeline(dataset), best_family="weibull")
        with pytest.raises(NumericalError, match="^no fitted parameters for family 'weibull'$"):
            emit_plot_data(report, dataset, tmp_path)

    def test_period_next_to_one_draws_its_curve(self, synthetic_dataset, tmp_path):
        # (1 + p_max) / 2 rounds to 1 here; the curve falls back to p_max alone.
        p_max = math.nextafter(1.0, 2.0)
        report = run_pipeline(synthetic_dataset, ReturnSpec((p_max,)))
        written = emit_plot_data(report, synthetic_dataset, tmp_path)
        rows = written["return_curve"].read_text().splitlines()[1:]
        assert len(rows) == RETURN_CURVE_POINTS
        assert set(rows) == {f"{p_max!r},{report.return_levels.levels[0]!r}"}

    def test_return_curve_strictly_increasing(self, plot_files):
        written, _ = plot_files
        rows = written["return_curve"].read_text().splitlines()[1:]
        levels = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(levels) > 0)

    def test_probability_columns_in_unit_interval(self, plot_files):
        written, _ = plot_files
        rows = written["qq_gev"].read_text().splitlines()[1:]
        p = np.array([float(r.split(",")[0]) for r in rows])
        assert np.all((p > 0) & (p < 1))
        rows = written["prob_diff_gev"].read_text().splitlines()[1:]
        diff = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.abs(diff) <= 1.0)

    def test_timeseries_uses_index_when_years_missing(self, plot_files, synthetic_dataset):
        written, _ = plot_files
        rows = written["timeseries"].read_text().splitlines()[1:]
        assert len(rows) == synthetic_dataset.sample.n
        assert rows[0].split(",")[0] == "1"

    def test_failed_rename_leaves_no_temp_file(self, report, synthetic_dataset, tmp_path):
        # qq_gev.csv cannot replace a directory; the set is renamed only after the last chunk.
        (tmp_path / "qq_gev.csv").mkdir()
        with pytest.raises(OSError):
            emit_plot_data(report, synthetic_dataset, tmp_path)
        assert not list(tmp_path.glob(".*.tmp"))
        assert (tmp_path / "qq_gev.csv").is_dir()
        assert not (tmp_path / "prob_diff_gev.csv").exists()

    def test_emission_is_deterministic(self, report, synthetic_dataset, tmp_path):
        first = emit_plot_data(report, synthetic_dataset, tmp_path / "a")
        second = emit_plot_data(report, synthetic_dataset, tmp_path / "b")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()


def _row_wise_csv(header, rows):
    """Plot-file text by the row-wise rule: ``repr`` of each float cell, ``str`` of each int."""
    lines = [header]
    lines.extend(
        ",".join(repr(cell) if isinstance(cell, float) else str(cell) for cell in row)
        for row in rows
    )
    return "\n".join(lines) + "\n"


def _floats(*columns):
    return zip(*(map(float, column) for column in columns))


def _row_wise_plot_files(report, dataset):
    sample = dataset.sample
    x = sample.values
    years = dataset.years if dataset.years is not None else range(1, sample.n + 1)
    files = {"timeseries": _row_wise_csv("year,value", zip(years, map(float, x)))}
    lo, hi = float(x.min()), float(x.max())
    margin = PDF_GRID_MARGIN * (hi - lo)
    grid = np.linspace(lo - margin, hi + margin, PDF_GRID_POINTS)
    p = np.arange(1, sample.n + 1) / (sample.n + 1.0)
    observed = np.sort(x, kind="stable")
    for fit in report.fits:
        if fit.result is None:
            continue
        dist, family = fit.result.params, fit.family
        files[f"pdf_{family}"] = _row_wise_csv("x,pdf", _floats(grid, dist.pdf(grid)))
        files[f"qq_{family}"] = _row_wise_csv("p,theoretical,observed", _floats(p, dist.quantile(p), observed))
        files[f"prob_diff_{family}"] = _row_wise_csv("x,diff", _floats(observed, p - dist.cdf(observed)))
    best = next(f.result.params for f in report.fits if f.family == report.best_family)
    p_max = max(report.return_levels.periods)
    assert p_max > RETURN_CURVE_MIN_PERIOD
    curve = return_curve(best, RETURN_CURVE_MIN_PERIOD, p_max, RETURN_CURVE_POINTS)
    files["return_curve"] = _row_wise_csv("period,level", curve)
    return files


EDGE_CELLS = (-0.0, 5e-324, 1e-5, 1e16, 0.1)


class TestPlotFileBytes:
    """Column-wise plot files equal the row-wise rule byte for byte, across chunk edges."""

    @pytest.mark.parametrize("n", [CHUNK_CELLS - 1, CHUNK_CELLS, CHUNK_CELLS + 1])
    @pytest.mark.parametrize("years", ["plain", "beyond_int64", "index"])
    def test_every_file_matches_row_wise_rule(self, report, tmp_path, n, years):
        body = GEV_MM.sample(n - len(EDGE_CELLS), n).values
        values = np.concatenate([body[: n // 2], EDGE_CELLS, body[n // 2 :]])
        year_column = {
            "plain": tuple(range(1900, 1900 + n)),
            # numpy would read a mix of int64 and uint64 magnitudes as floats
            "beyond_int64": tuple(range(n - 1)) + (2**63,),
            "index": None,
        }[years]
        dataset = Dataset("edges", Sample(values), years=year_column)
        written = emit_plot_data(report, dataset, tmp_path)
        expected = _row_wise_plot_files(report, dataset)
        assert set(written) == set(expected)
        for name, text in expected.items():
            assert written[name].read_bytes() == text.encode(), name
        timeseries = expected["timeseries"]
        for cell in ("-0.0", "5e-324", "1e-05", "1e+16", "0.1"):
            assert f",{cell}\n" in timeseries
