"""Tests of the benchmark itself: inputs, correctness checks, counts and tracer.

    PYTHONPATH=src python -m pytest perfbench -q

They sit outside the package's ``tests`` directory, so the package's own
test run does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import evtkit  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


# --- inputs -------------------------------------------------------------------


def test_fixture_recipe_reproduces_the_repository_fixture():
    committed = np.array(
        [float(line) for line in (ROOT / "data" / "synthetic_annual_maxima.csv").read_text().split()]
    )
    assert np.array_equal(inputs.fixture_values(inputs.FIXTURE_SEED), committed)


@pytest.mark.parametrize(
    "make",
    [
        inputs.fixture_values,
        lambda seed: [(s.params, s.values) for s in inputs.stations(seed, 20)],
        lambda seed: inputs.long_record(seed, 1000).values,
        inputs.unit_factors,
    ],
    ids=["fixture", "stations", "long_record", "units"],
)
def test_inputs_repeat_for_a_seed_and_differ_for_another(make):
    def same(a, b):
        return repr(a) == repr(b) if not isinstance(a, np.ndarray) else np.array_equal(a, b)

    assert same(make(7), make(7))
    assert not same(make(7), make(8))


def test_stations_cover_the_stated_ranges():
    series = inputs.stations(3)
    assert len(series) == inputs.STATIONS_COUNT
    lengths = [len(s.values) for s in series]
    assert min(lengths) >= 20 and max(lengths) <= 150
    assert all(-0.3 <= s.params[2] <= 0.3 for s in series)
    # Some records reach non-positive values, so the per-family error path runs.
    assert any(s.values.min() <= 0.0 for s in series)


def test_units_always_run_every_factor():
    assert sorted(inputs.unit_factors(5)) == list(range(-9, 10))


# --- correctness checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def station():
    series = inputs.stations(11, 1)[0]
    report = evtkit.run_pipeline(workloads._dataset(series.label, series.values))
    return series, workloads.report_to_dict(report)


def test_station_check_accepts_the_program_output(station):
    series, report = station
    workloads.check_report(report, series.values, series.params)


def _gev(report):
    return next(e for e in report["fits"] if e["family"] == "gev")["fit"]


def test_station_check_rejects_a_perturbed_parameter(station):
    series, report = station
    bad = json.loads(json.dumps(report))
    _gev(bad)["params"]["location"] *= 1.001
    with pytest.raises(CheckError, match="not that of its parameters"):
        workloads.check_report(bad, series.values, series.params)


def test_station_check_rejects_a_fit_below_the_truth(station):
    series, report = station
    bad = json.loads(json.dumps(report))
    fit = _gev(bad)
    fit["params"]["scale"] *= 1.5
    p = fit["params"]
    fit["log_likelihood"] = workloads.gev_loglik(series.values, p["location"], p["scale"], p["shape"])
    with pytest.raises(CheckError, match="below the generating"):
        workloads.check_report(bad, series.values, series.params)


def test_station_check_rejects_levels_that_do_not_increase(station):
    series, report = station
    bad = json.loads(json.dumps(report))
    bad["return_levels"][-1]["level"] = bad["return_levels"][0]["level"]
    with pytest.raises(CheckError, match="increase"):
        workloads.check_report(bad, series.values, series.params)


def test_station_check_rejects_a_missing_family(station):
    series, report = station
    bad = json.loads(json.dumps(report))
    bad["fits"] = [e for e in bad["fits"] if e["family"] != "gumbel"]
    with pytest.raises(CheckError, match="no gumbel entry"):
        workloads.check_report(bad, series.values, series.params)


def test_long_record_check_rejects_missing_or_short_plot_files(tmp_path):
    workload = workloads.LongRecord(4, tmp_path, n=300)
    report = workload.run(0)
    workload.check(0, report)

    qq = workload.out_dir / "qq_gev.csv"
    lines = qq.read_text().splitlines(keepends=True)
    qq.write_text("".join(lines[:-1]))
    with pytest.raises(CheckError, match="qq_gev.csv: 299 rows"):
        workload.check(0, report)
    qq.unlink()
    with pytest.raises(CheckError, match="plot files"):
        workload.check(0, report)


def test_units_check_rejects_a_level_off_scale():
    workload = workloads.Units(1)
    workload.exponents = [0, 3]  # two fast factors stand in for the sweep
    sweep = workload.run(0)
    workload.check(0, sweep)
    k, report = sweep[1]
    entries = tuple((p, v * (1 + 1e-5)) for p, v in report.return_levels.entries)
    bad = dataclasses.replace(report, return_levels=evtkit.ReturnLevelTable(entries))
    with pytest.raises(CheckError, match="factor 1e3: .*relative error"):
        workload.check(0, [sweep[0], (k, bad)])


@pytest.fixture(scope="module")
def cli_call(tmp_path_factory):
    workload = workloads.CliFixture(2, tmp_path_factory.mktemp("cli"), _env())
    workload.prepare(0)
    return workload, workload.run(0)


def test_cli_check_accepts_the_program_output(cli_call):
    workload, proc = cli_call
    workload.check(0, proc)


def test_cli_check_rejects_a_changed_byte(cli_call):
    workload, proc = cli_call
    path = workload.out_dir / "pdf_gev.csv"
    original = path.read_bytes()
    try:
        path.write_bytes(original[:-2] + bytes([original[-2] ^ 1]) + original[-1:])
        with pytest.raises(CheckError, match="pdf_gev.csv differs"):
            workload.check(0, proc)
    finally:
        path.write_bytes(original)


def test_cli_check_rejects_a_missing_file_and_a_failed_exit(cli_call):
    workload, proc = cli_call
    path = workload.out_dir / "return_curve.csv"
    original = path.read_bytes()
    try:
        path.unlink()
        with pytest.raises(CheckError, match="files"):
            workload.check(0, proc)
    finally:
        path.write_bytes(original)
    with pytest.raises(CheckError, match="exit code 3"):
        workload.check(0, subprocess.CompletedProcess(proc.args, 3, proc.stdout, proc.stderr))


# --- counts and tracer ------------------------------------------------------------


def _traced_counts(seed: int) -> dict:
    workload = workloads.Stations(seed, 6)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for i in range(workload.size):
            workload.run(i)
    finally:
        restore()
    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    return {"counts": tracer.counts, "calls": calls}


def test_deterministic_counts_repeat_exactly():
    first, second = _traced_counts(5), _traced_counts(5)
    assert first == second
    assert first["counts"]["simplex.runs.gev"] == 3 * 6
    assert first["calls"]["fitting.objective"] == sum(
        n for name, n in first["counts"].items() if name.startswith("simplex.evaluations.")
    )


def test_install_restores_every_original():
    before = evtkit.pipeline.fit_all, evtkit.fitting.nelder_mead, evtkit.GEV.log_pdf
    restore = tracing.install(tracing.Tracer())
    assert evtkit.fitting.nelder_mead is not before[1]
    restore()
    assert (evtkit.pipeline.fit_all, evtkit.fitting.nelder_mead, evtkit.GEV.log_pdf) == before


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    outer = tracer.push("pipeline.outer")
    inner = tracer.push("fitting.inner")
    tracer.pop(inner)
    leaf = tracer.push("fitting.leaf", store=False)
    tracer.pop(leaf)
    tracer.pop(outer)
    calls, total, own = tracer.stats["pipeline.outer"]
    child = tracer.stats["fitting.inner"][1] + tracer.stats["fitting.leaf"][1]
    assert calls == 1 and own == pytest.approx(total - child, abs=1e-12)
    assert tracer.top_s == pytest.approx(total)
    # The unstored leaf rolls up into its stored ancestor.
    assert tracer.spans[0]["rollup"]["fitting.leaf"][0] == 1
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:10]) is None


def test_metric_names_match_the_benchmark_file():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in config["per_layer"]}
    assert not per_layer & set(run.LAYER_ONLY)
    assert {m["name"] for m in config["end_to_end"]} == {"setup_s", "op_ms_p50", "ops_per_s", "peak_rss_mb"}
