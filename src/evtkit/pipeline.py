"""End-to-end analysis pipeline: describe, fit, test, select, return levels."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    DescriptiveStats,
    GofResult,
    anderson_darling,
    describe,
    probability_difference,
    qq_series,
    select_best,
)
from .distributions import FAMILY_LABELS, Distribution, params_to_dict
from .errors import NumericalError, UnsupportedFormatError
from .fitting import FitOutcome, fit_all
from .io import Dataset, write_csv
from .returns import ReturnLevelTable, ReturnSpec, return_curve, return_level_table
from .sample import Sample, _binary_unit

__all__ = [
    "AnalysisReport",
    "run_pipeline",
    "emit_report",
    "emit_plot_data",
    "report_to_dict",
    "fit_outcome_to_dict",
    "gof_to_dict",
    "return_levels_to_dict",
    "goodness_of_fit",
    "render_fit_table",
    "render_gof_table",
    "render_return_table",
    "REPORT_FORMATS",
]

REPORT_FORMATS = ("text", "json")

PDF_GRID_POINTS = 512
PDF_GRID_MARGIN = 0.1  # fraction of the data range padded on each side
RETURN_CURVE_POINTS = 256
RETURN_CURVE_MIN_PERIOD = 1.1


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated pipeline output; fits and gof rows are aligned by family."""

    descriptive: DescriptiveStats
    fits: tuple[FitOutcome, ...]
    gofs: tuple[GofResult | None, ...]
    best_family: str
    return_levels: ReturnLevelTable


def run_pipeline(dataset: Dataset, spec: ReturnSpec | None = None, alpha: float = 0.05) -> AnalysisReport:
    """Full deterministic analysis of one dataset.

    Fits all four families, tests each successful fit with the
    Anderson-Darling statistic at level ``alpha``, selects the best family,
    and computes its return-level table for ``spec`` (the default periods
    when None). Per-family failures are recorded in the report.

    Raises
    ------
    DomainError
        ``alpha`` has no critical value in ``AD_CRITICAL_VALUES``.
    NumericalError
        No family could be fitted, or none of the fits converged.
    """
    spec = spec or ReturnSpec()
    descriptive = describe(dataset.sample)
    fits = tuple(fit_all(dataset.sample))
    gofs = goodness_of_fit(dataset.sample, fits, alpha)
    if not any(gofs):
        raise _no_fit_error(fits)
    if not any(fit.result.converged for fit in fits if fit.result is not None):
        raise NumericalError("no distribution family converged")
    best_family = select_best(gofs)
    best_params = _params_for(fits, best_family)
    return AnalysisReport(
        descriptive=descriptive,
        fits=fits,
        gofs=gofs,
        best_family=best_family,
        return_levels=return_level_table(best_params, spec),
    )


def goodness_of_fit(sample: Sample, fits, alpha: float = 0.05) -> tuple[GofResult | None, ...]:
    """Anderson-Darling test at level ``alpha`` of each fit, aligned with ``fits``; None where a fit failed."""
    return tuple(None if fit.result is None else anderson_darling(sample, fit.result.params, alpha) for fit in fits)


def _no_fit_error(fits) -> NumericalError:
    """The error when no family could be fitted, naming each distinct per-family reason once."""
    reasons = "; ".join(dict.fromkeys(fit.error for fit in fits if fit.error))
    return NumericalError(f"no distribution family could be fitted: {reasons}")


def _fallback_note(gofs) -> str:
    return "" if any(g and g.passed for g in gofs) else " (no family passed; smallest A-D statistic)"


def _params_for(fits: tuple[FitOutcome, ...], family: str) -> Distribution:
    for fit in fits:
        if fit.family == family and fit.result is not None:
            return fit.result.params
    raise NumericalError(f"no fitted parameters for family {family!r}")


# --- serialization ---------------------------------------------------------


def _finite_or_none(value: float) -> float | None:
    """``value``, or None when it is not finite: strict JSON has no inf or nan."""
    return value if math.isfinite(value) else None


def report_to_dict(report: AnalysisReport) -> dict:
    """Plain-dict form of a report (stable field names, full precision, None for non-finite numbers)."""
    descriptive = dataclasses.asdict(report.descriptive)
    return {
        "descriptive": {name: _finite_or_none(value) for name, value in descriptive.items()},
        "fits": [fit_outcome_to_dict(fit) for fit in report.fits],
        "gof": [gof_to_dict(g) for g in report.gofs],
        "best_family": report.best_family,
        "return_levels": return_levels_to_dict(report.return_levels),
    }


def fit_outcome_to_dict(fit: FitOutcome) -> dict:
    """Plain-dict form of one per-family fit entry; a log-likelihood that is not finite is None."""
    if fit.result is None:
        return {"family": fit.family, "error": fit.error, "fit": None}
    result = fit.result
    return {
        "family": fit.family,
        "error": None,
        "fit": {
            "params": params_to_dict(result.params),
            "log_likelihood": _finite_or_none(result.log_likelihood),
            "converged": result.converged,
            "iterations": result.iterations,
            "n_evaluations": result.n_evaluations,
            "initial_params": params_to_dict(result.initial_params),
        },
    }


def gof_to_dict(gof: GofResult | None) -> dict | None:
    """Plain-dict form of one goodness-of-fit row; None for a family that was not fitted."""
    return None if gof is None else dataclasses.asdict(gof)


def return_levels_to_dict(table: ReturnLevelTable) -> list[dict]:
    """Plain-dict form of a return-level table: one ``{"period", "level"}`` entry per period, None for an inf level."""
    return [{"period": period, "level": _finite_or_none(level)} for period, level in table.entries]


# --- report formatting ------------------------------------------------------


def emit_report(report: AnalysisReport, fmt: str = "text") -> str:
    """Render a report as human-readable text or a machine-readable JSON document.

    Raises
    ------
    UnsupportedFormatError
        Unknown ``fmt``.
    """
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2)
    if fmt == "text":
        return _text_report(report)
    raise UnsupportedFormatError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


# Widths of the table columns: the family label, then (header, width) of each cell.
_FAMILY_WIDTH = 9
_FIT_COLUMNS = {"location": 10, "scale": 10, "shape": 10, "log-lik": 12, "converged": 11}
_GOF_COLUMNS = {"statistic": 11, "critical": 10, "result": 8}
_PERIOD_WIDTH, _LEVEL_WIDTH = 13, 10


def _cell(value, width: int, nd: int = 2) -> str:
    """``value`` right-aligned in ``width`` characters, after at least one space.

    Numbers get ``nd`` decimals when that text is shorter than ``width`` and
    does not round a nonzero number to zero, else ``nd`` significant digits in
    scientific notation; None prints as ``-``, text as is.
    """
    if value is None:
        value = "-"
    elif not isinstance(value, str):
        text = f"{value:.{nd}f}"
        fixed = len(text) < width and (value == 0.0 or float(text) != 0.0)
        value = text if fixed else f"{value:.{nd - 1}e}"
    return f"{value:>{width}}"


def _row(indent: str, first: str, first_width: int, cells, widths, nd: int = 2) -> str:
    """One table line: ``first`` left-aligned in ``first_width``, then each cell in its width."""
    return f"{indent}{first:<{first_width}}" + "".join(_cell(c, w, nd) for c, w in zip(cells, widths))


def _text_report(report: AnalysisReport) -> str:
    def _heading(title: str, rule: str = "-") -> tuple[str, str]:
        return title, rule * len(title)

    lines: list[str] = []
    d = report.descriptive
    lines.extend(_heading("Block-maxima extreme value analysis", "="))
    lines.append("")
    lines.extend(_heading("Descriptive statistics"))
    for name, value, nd in [
        ("sample size", str(d.n), 2),
        ("range", d.range, 2),
        ("mean", d.mean, 2),
        ("variance", d.variance, 2),
        ("std deviation", d.std_dev, 2),
        ("coef of variation %", d.coef_variation_pct, 2),
        ("std error", d.std_error, 2),
        ("skewness", d.skewness, 3),
        ("excess kurtosis", d.excess_kurtosis, 3),
    ]:
        lines.append(_row("  ", name, 22, (value,), (12,), nd))
    lines.append("")

    lines.extend(_heading("Fitted parameters (maximum likelihood)"))
    lines.extend(render_fit_table(report.fits, indent="  "))
    lines.append("")

    alpha = next((g.alpha for g in report.gofs if g is not None), 0.05)
    lines.extend(_heading(f"Goodness of fit (Anderson-Darling, alpha = {alpha:g})"))
    lines.extend(render_gof_table(report.fits, report.gofs, indent="  "))
    lines.append("")

    best_label = FAMILY_LABELS[report.best_family]
    lines.append(f"Best family: {best_label}{_fallback_note(report.gofs)}")
    lines.append("")
    lines.extend(_heading(f"Return levels ({best_label})"))
    lines.extend(render_return_table({"level": report.return_levels}, indent="  "))
    return "\n".join(lines) + "\n"


def render_fit_table(fits, indent: str = "") -> list[str]:
    """Lines of the fitted-parameter table, one row per family, each prefixed by ``indent``."""
    widths = _FIT_COLUMNS.values()
    lines = [_row(indent, "family", _FAMILY_WIDTH, _FIT_COLUMNS, widths)]
    for fit in fits:
        label = FAMILY_LABELS[fit.family]
        if fit.result is None:
            lines.append(f"{indent}{label:<{_FAMILY_WIDTH}}ERROR: {fit.error}")
            continue
        p = params_to_dict(fit.result.params)
        cells = (p.get("location"), p.get("scale"), p.get("shape"), fit.result.log_likelihood)
        converged = "yes" if fit.result.converged else "NO"
        lines.append(_row(indent, label, _FAMILY_WIDTH, (*cells, converged), widths))
    return lines


def render_gof_table(fits, gofs, indent: str = "") -> list[str]:
    """Lines of the Anderson-Darling table, one row per family, each prefixed by ``indent``."""
    widths = _GOF_COLUMNS.values()
    lines = [_row(indent, "family", _FAMILY_WIDTH, _GOF_COLUMNS, widths)]
    for fit, gof in zip(fits, gofs):
        label = FAMILY_LABELS[fit.family]
        if gof is None:
            cells = ("ERROR", None, None)
        else:
            cells = (gof.statistic, gof.critical_value, "PASS" if gof.passed else "FAIL")
        lines.append(_row(indent, label, _FAMILY_WIDTH, cells, widths, nd=3))
    return lines


def render_return_table(columns: dict[str, ReturnLevelTable], indent: str = "") -> list[str]:
    """Lines of the return-level table, one column per header in ``columns``, prefixed by ``indent``."""
    widths = [_LEVEL_WIDTH] * len(columns)
    rows = list(zip(*(table.entries for table in columns.values())))
    # Six significant digits where they read back as the period, else all of them;
    # the first column widens for a long label.
    labels = [f"{p:g}" if float(f"{p:g}") == p else repr(p) for p in (row[0][0] for row in rows)]
    first = max([_PERIOD_WIDTH, *map(len, labels)])
    lines = [_row(indent, "period (yr)", first, columns, widths)]
    for label, row in zip(labels, rows):
        lines.append(_row(indent, label, first, [level for _, level in row], widths))
    return lines


# --- plot data --------------------------------------------------------------


def emit_plot_data(report: AnalysisReport, dataset: Dataset, out_dir) -> dict[str, Path]:
    """Write plot-ready CSV series and return the written paths by name.

    Files: ``timeseries.csv`` (year,value); per fitted family ``pdf_<family>.csv`` (x,pdf over a
    data-spanning grid), ``qq_<family>.csv`` (p,theoretical,observed) from :func:`~.qq_series` and
    ``prob_diff_<family>.csv`` (x,diff) from :func:`~.probability_difference`; and ``return_curve.csv``
    (period,level) for the best family. All go in one :func:`~evtkit.io.write_csv` pass, which formats
    once per chunk the positions and sorted values that the sample keeps and every family's series share.
    """
    sample = dataset.sample
    x = sample.values
    # Given years stay Python ints: numpy would turn a mix of int64 and uint64 magnitudes to float.
    years = np.arange(1, sample.n + 1) if dataset.years is None else np.array(dataset.years, dtype=object)
    files = {"timeseries": ("year,value", [years, x])}

    low, high = sample.sorted_values()[[0, -1]].tolist()
    unit = _binary_unit(low, high, False)  # pad at the data's unit, then clip to the finite floats
    lo, hi = low / unit, high / unit
    margin, limit = PDF_GRID_MARGIN * (hi - lo), float(np.finfo(float).max) / unit
    grid = np.clip(np.linspace(lo - margin, hi + margin, PDF_GRID_POINTS), -limit, limit) * unit
    for fit in report.fits:
        if fit.result is None:
            continue
        dist, family = fit.result.params, fit.family
        qq, diff = qq_series(sample, dist), probability_difference(sample, dist)
        files[f"pdf_{family}"] = ("x,pdf", [grid, dist.pdf(grid)])
        files[f"qq_{family}"] = ("p,theoretical,observed", [qq.positions, qq.theoretical, qq.observed])
        files[f"prob_diff_{family}"] = ("x,diff", [diff.x, diff.diff])

    best_params = _params_for(report.fits, report.best_family)
    p_max = max(report.return_levels.periods)
    p_min = RETURN_CURVE_MIN_PERIOD if p_max > RETURN_CURVE_MIN_PERIOD else (1.0 + p_max) / 2.0
    # Just above 1 the midpoint rounds to 1; the curve is then p_max alone.
    p_min = p_min if p_min > 1.0 else p_max
    curve = np.array(return_curve(best_params, p_min, p_max, RETURN_CURVE_POINTS))
    files["return_curve"] = ("period,level", [curve[:, 0], curve[:, 1]])
    paths = write_csv({Path(out_dir, f"{name}.csv"): spec for name, spec in files.items()})
    return dict(zip(files, paths))
