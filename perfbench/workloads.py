"""The four benchmark workloads and the checks that their outputs are correct.

A workload is a fixed list of operations made from the seed; one pass runs
each operation once. ``prepare(i)`` runs untimed before operation ``i``,
``run(i)`` is the timed call into evtkit, and ``check(i, output)`` raises
:class:`CheckError` when the output is wrong. The checks compute what they
need with numpy and never take evtkit's word for it.

evtkit's functions are always looked up as module attributes at call time
(``evtkit.run_pipeline``), so that the tracer's wrappers are the ones called
in the traced run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import evtkit
import inputs
from tracer import FAMILIES, now

REPORT_KEYS = {"descriptive", "fits", "gof", "best_family", "return_levels"}
PDF_ROWS = 512
CURVE_ROWS = 256
# A fitted maximum may not fall below the likelihood at the true parameters
# (or the GEV's below the Gumbel's) by more than this share of its size.
LL_SLACK = 1e-6
# Equivariance of the 100-year level under rescaling; the worst error on the
# seed code is about 4e-8.
UNITS_RTOL = 1e-6
RETURN_PERIOD = 100.0

HERE = Path(__file__).resolve().parent

# Bound at import, before any tracing is installed, so that checks add no spans.
report_to_dict = evtkit.pipeline.report_to_dict


class CheckError(Exception):
    """An operation's output failed its correctness check."""


def _fail_unless(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- independent likelihoods --------------------------------------------------


def gev_loglik(x: np.ndarray, location: float, scale: float, shape: float) -> float:
    """GEV log-likelihood; -inf when a value lies outside the support."""
    z = (np.asarray(x, dtype=float) - location) / scale
    if abs(shape) < 1e-8:
        return gumbel_loglik(x, location, scale)
    t = 1.0 + shape * z
    if np.any(t <= 0.0):
        return -math.inf
    lt = np.log(t)
    return float(np.sum(-math.log(scale) - (1.0 + 1.0 / shape) * lt - np.exp(-lt / shape)))


def gumbel_loglik(x: np.ndarray, location: float, scale: float) -> float:
    z = (np.asarray(x, dtype=float) - location) / scale
    return float(np.sum(-math.log(scale) - z - np.exp(-z)))


def _close(a: float, b: float, rtol: float = 1e-8) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def check_fits(fits: dict[str, dict], values: np.ndarray, true_params) -> None:
    """Check the per-family fit entries of one report (``report_to_dict`` form).

    The families that fail are exactly those whose support excludes the
    data, each reported log-likelihood matches its parameters, the GEV fit
    reaches the likelihood of the parameters the data were drawn from, and
    it is at least as likely as the Gumbel fit.
    """
    positive = bool(np.all(values > 0.0))
    for family in FAMILIES:
        entry = fits.get(family)
        _fail_unless(entry is not None, f"no {family} entry in the report")
        expect_fit = positive or family in ("gumbel", "gev")
        _fail_unless(
            (entry["fit"] is not None) == expect_fit,
            f"{family}: fit {'missing' if expect_fit else 'present'} for data with minimum {values.min()!r}",
        )
    gev = fits["gev"]["fit"]
    p = gev["params"]
    gev_ll = gev_loglik(values, p["location"], p["scale"], p["shape"])
    _fail_unless(
        _close(gev_ll, gev["log_likelihood"]),
        f"gev: reported log-likelihood {gev['log_likelihood']!r} is not that of its parameters ({gev_ll!r})",
    )
    true_ll = gev_loglik(values, *true_params)
    _fail_unless(
        gev_ll >= true_ll - LL_SLACK * (1.0 + abs(true_ll)),
        f"gev: fitted log-likelihood {gev_ll!r} below the generating parameters' {true_ll!r}",
    )
    g = fits["gumbel"]["fit"]
    gumbel_ll = gumbel_loglik(values, g["params"]["location"], g["params"]["scale"])
    _fail_unless(
        _close(gumbel_ll, g["log_likelihood"]),
        f"gumbel: reported log-likelihood {g['log_likelihood']!r} is not that of its parameters ({gumbel_ll!r})",
    )
    _fail_unless(
        gev_ll >= gumbel_ll - LL_SLACK * (1.0 + abs(gumbel_ll)),
        f"gev log-likelihood {gev_ll!r} below gumbel's {gumbel_ll!r}",
    )


def check_levels(levels) -> None:
    levels = [row["level"] for row in levels]
    _fail_unless(all(math.isfinite(v) for v in levels), f"non-finite return level in {levels}")
    _fail_unless(
        all(b > a for a, b in zip(levels, levels[1:])),
        f"return levels do not increase strictly: {levels}",
    )


def check_report(report: dict, values: np.ndarray, true_params) -> None:
    _fail_unless(set(report) == REPORT_KEYS, f"report keys {sorted(report)}")
    check_fits({entry["family"]: entry for entry in report["fits"]}, values, true_params)
    check_levels(report["return_levels"])


def expected_plot_rows(fitted_families, n: int) -> dict[str, int]:
    """Data rows of every plot file ``emit_plot_data`` writes for an n-value record."""
    rows = {"timeseries.csv": n, "return_curve.csv": CURVE_ROWS}
    for family in fitted_families:
        rows[f"pdf_{family}.csv"] = PDF_ROWS
        rows[f"qq_{family}.csv"] = n
        rows[f"prob_diff_{family}.csv"] = n
    return rows


def check_plot_files(out_dir: Path, fitted_families, n: int) -> None:
    rows = expected_plot_rows(fitted_families, n)
    present = {p.name for p in out_dir.iterdir()} - {"report.json", "report.txt"}
    _fail_unless(present == set(rows), f"plot files {sorted(present)}, expected {sorted(rows)}")
    for name, expected in rows.items():
        found = (out_dir / name).read_bytes().count(b"\n") - 1
        _fail_unless(found == expected, f"{name}: {found} rows, expected {expected}")


def unconverged(report: dict) -> tuple[int, int]:
    """(unconverged fits, fits) of one report in ``report_to_dict`` form."""
    fits = [entry["fit"] for entry in report["fits"] if entry["fit"] is not None]
    return sum(not fit["converged"] for fit in fits), len(fits)


def _dataset(label: str, values: np.ndarray):
    return evtkit.Dataset(label=label, sample=evtkit.Sample(values))


# --- workloads ------------------------------------------------------------------


class Workload:
    """Base class; subclasses set ``size`` and implement run and check."""

    size = 1
    in_process = True  # False when the operation runs in a child process

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def run_traced(self, i: int, tracer):
        return self.run(i)

    def check(self, i: int, output) -> None:
        raise NotImplementedError

    def fit_counts(self, output) -> tuple[int, int]:
        """(unconverged fits, fits) in one operation's output."""
        raise NotImplementedError


class CliFixture(Workload):
    """``evtkit report --format json --out-dir`` on a fixture-sized file, one process per call."""

    in_process = False

    def __init__(self, seed: int, scratch: Path, env: dict):
        self.env = env
        self.values = inputs.fixture_values(seed)
        self.input = inputs.write_values_csv(scratch / "fixture.csv", self.values)
        self.out_dir = scratch / "report"
        self.spans_file = scratch / "cli_spans.json"
        self.args = ["report", "--input", str(self.input), "--format", "json", "--out-dir", str(self.out_dir)]

        # The reference: the same report made in this process.
        dataset = evtkit.load_csv(self.input)
        report = evtkit.run_pipeline(dataset)
        self.stdout = evtkit.emit_report(report, "json").encode()
        reference_dir = scratch / "reference"
        evtkit.emit_plot_data(report, dataset, reference_dir)
        self.reference = {p.name: p.read_bytes() for p in reference_dir.iterdir()}
        self.reference["report.json"] = self.stdout + b"\n"
        self.reference["report.txt"] = evtkit.emit_report(report, "text").encode()

    def prepare(self, i):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.spans_file.unlink(missing_ok=True)

    def run(self, i):
        return subprocess.run(
            [sys.executable, "-m", "evtkit", *self.args], env=self.env, capture_output=True
        )

    def run_traced(self, i, tracer):
        spawned = now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_launcher.py"), str(self.spans_file), repr(spawned), *self.args],
            env=self.env,
            capture_output=True,
        )
        reaped = now()
        text, exit_time = self.spans_file.read_text(encoding="utf-8").splitlines()
        tracer.merge(json.loads(text), tracer.op)
        tracer.add_span("cli.exit", float(exit_time), reaped)
        return proc

    def check(self, i, proc):
        _fail_unless(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.decode()[-500:]}")
        check_report(json.loads(proc.stdout), self.values, inputs.FIXTURE_PARAMS)
        _fail_unless(proc.stdout == self.stdout, "stdout differs from the in-process report")
        written = {p.name for p in self.out_dir.iterdir()}
        _fail_unless(written == set(self.reference), f"files {sorted(written)}, expected {sorted(self.reference)}")
        for name, expected in self.reference.items():
            _fail_unless((self.out_dir / name).read_bytes() == expected, f"{name} differs from the in-process output")
        report = json.loads((self.out_dir / "report.json").read_bytes())
        _fail_unless(set(report) == REPORT_KEYS, f"report.json keys {sorted(report)}")

    def fit_counts(self, proc):
        return unconverged(json.loads(proc.stdout))


class Stations(Workload):
    """``run_pipeline`` in process on many short records of varied shape and scale."""

    def __init__(self, seed: int, count: int = inputs.STATIONS_COUNT):
        self.series = inputs.stations(seed, count)
        self.size = len(self.series)

    def run(self, i):
        s = self.series[i]
        return evtkit.run_pipeline(_dataset(s.label, s.values))

    def check(self, i, report):
        s = self.series[i]
        check_report(report_to_dict(report), s.values, s.params)

    def fit_counts(self, report):
        return unconverged(report_to_dict(report))


class LongRecord(Workload):
    """One long record from a CSV file: load, analyse, write the report and the plot data."""

    def __init__(self, seed: int, scratch: Path, n: int = inputs.LONG_RECORD_N):
        self.series = inputs.long_record(seed, n)
        self.input = inputs.write_values_csv(scratch / "long_record.csv", self.series.values)
        self.out_dir = scratch / "long_record"

    def prepare(self, i):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, i):
        dataset = evtkit.load_csv(self.input)
        report = evtkit.run_pipeline(dataset)
        evtkit.io.write_text_atomic(self.out_dir / "report.json", evtkit.emit_report(report, "json") + "\n")
        evtkit.emit_plot_data(report, dataset, self.out_dir)
        return report

    def check(self, i, report):
        data = json.loads((self.out_dir / "report.json").read_bytes())
        check_report(data, self.series.values, self.series.params)
        fitted = [entry["family"] for entry in data["fits"] if entry["fit"] is not None]
        check_plot_files(self.out_dir, fitted, len(self.series.values))

    def fit_counts(self, report):
        return unconverged(report_to_dict(report))


class Units(Workload):
    """The fixture rescaled by 10**k for k = -9..9, ``run_pipeline`` on each; one operation is the sweep."""

    def __init__(self, seed: int):
        self.base = inputs.fixture_values(inputs.FIXTURE_SEED)
        self.exponents = inputs.unit_factors(seed)
        self.reference = self._level(report_to_dict(evtkit.run_pipeline(_dataset("fixture", self.base))))

    @staticmethod
    def _level(report: dict) -> float:
        return {row["period"]: row["level"] for row in report["return_levels"]}[RETURN_PERIOD]

    def run(self, i):
        return [
            (k, evtkit.run_pipeline(_dataset(f"fixture_x1e{k}", self.base * 10.0**k)))
            for k in self.exponents
        ]

    def check(self, i, sweep):
        location, scale, shape = inputs.FIXTURE_PARAMS
        for k, report in sweep:
            data = report_to_dict(report)
            check_report(data, self.base * 10.0**k, (location * 10.0**k, scale * 10.0**k, shape))
            level = self._level(data)
            error = abs(level / 10.0**k - self.reference) / abs(self.reference)
            _fail_unless(
                error <= UNITS_RTOL,
                f"factor 1e{k}: 100-year level {level!r} is not 1e{k} x {self.reference!r} (relative error {error:.2e})",
            )

    def fit_counts(self, sweep):
        counts = [unconverged(report_to_dict(report)) for _, report in sweep]
        return sum(c[0] for c in counts), sum(c[1] for c in counts)


WORKLOADS = ("cli_fixture", "stations", "long_record", "units")


def make(name: str, seed: int, scratch: Path, env: dict) -> Workload:
    if name == "cli_fixture":
        return CliFixture(seed, scratch, env)
    if name == "stations":
        return Stations(seed)
    if name == "long_record":
        return LongRecord(seed, scratch)
    if name == "units":
        return Units(seed)
    raise ValueError(f"unknown workload {name!r}")
