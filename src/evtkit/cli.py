"""Command-line interface.

Subcommands: ``fit``, ``gof``, ``return-levels``, ``report`` (full
pipeline), ``simulate``. Exit codes: 0 success, 1 usage error, 2 data
error (including a path that cannot be read or written), 3 numerical
failure (no family converged).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagnostics import AD_CRITICAL_VALUES, select_best
from .distributions import FAMILIES, FAMILY_LABELS, params_from_sequence
from .errors import (
    DegenerateSampleError,
    DomainError,
    EmptyDatasetError,
    EmptyInputError,
    NumericalError,
    ParseError,
)
from .fitting import FitOutcome, fit_all, fit_mle
from .io import load_csv, simulate_to_csv, write_text_atomic
from .pipeline import REPORT_FORMATS, emit_plot_data, emit_report, goodness_of_fit, run_pipeline
from .pipeline import _no_fit_error, fit_outcome_to_dict, gof_to_dict, return_levels_to_dict
from .pipeline import render_fit_table, render_gof_table, render_return_table
from .returns import DEFAULT_RETURN_PERIODS, ReturnSpec, return_level_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_DATA_ERRORS = (
    OSError,
    ParseError,
    EmptyDatasetError,
    DegenerateSampleError,
    DomainError,
    EmptyInputError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _numbers(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {what} {text!r}") from None


def _periods_arg(text: str) -> ReturnSpec:
    try:
        return ReturnSpec(_numbers(text, "periods"))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _params_arg(text: str) -> tuple[float, ...]:
    return _numbers(text, "parameters")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be at least {minimum}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evtkit", description="Block-maxima extreme value analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="CSV file: value per line or year,value rows")

    def add_dist(p):
        p.add_argument("--dist", choices=FAMILIES + ("all",), default="all")

    def add_format(p):
        p.add_argument("--format", choices=REPORT_FORMATS, default="text")

    def add_alpha(p):
        p.add_argument("--alpha", type=float, choices=tuple(AD_CRITICAL_VALUES), default=0.05)

    def add_periods(p):
        default = ",".join(f"{period:g}" for period in DEFAULT_RETURN_PERIODS)
        p.add_argument(
            "--periods",
            type=_periods_arg,
            default=ReturnSpec(DEFAULT_RETURN_PERIODS),
            help=f"comma-separated return periods in years (default: {default})",
        )

    p_fit = sub.add_parser("fit", help="fit distribution parameters by maximum likelihood")
    add_input(p_fit)
    add_dist(p_fit)
    add_format(p_fit)
    p_fit.set_defaults(handler=_cmd_step, rows=_fit_rows)

    p_gof = sub.add_parser("gof", help="Anderson-Darling goodness-of-fit test")
    add_input(p_gof)
    add_dist(p_gof)
    add_format(p_gof)
    add_alpha(p_gof)
    p_gof.set_defaults(handler=_cmd_step, rows=_gof_rows)

    p_rl = sub.add_parser("return-levels", help="return levels for fitted families")
    add_input(p_rl)
    add_dist(p_rl)
    add_format(p_rl)
    add_periods(p_rl)
    p_rl.set_defaults(handler=_cmd_step, rows=_return_level_rows)

    p_report = sub.add_parser("report", help="full pipeline: describe, fit, test, return levels")
    add_input(p_report)
    add_format(p_report)
    add_alpha(p_report)
    add_periods(p_report)
    p_report.add_argument(
        "--out-dir", default=None, help="also write report files and plot-data CSVs here"
    )
    p_report.set_defaults(handler=_cmd_report)

    p_sim = sub.add_parser("simulate", help="write a seeded synthetic sample as CSV")
    p_sim.add_argument("--dist", choices=FAMILIES, required=True)
    p_sim.add_argument(
        "--params",
        type=_params_arg,
        required=True,
        help=(
            "comma-separated parameters: gumbel location,scale; frechet shape,scale; "
            "weibull shape,scale; gev location,scale,shape"
        ),
    )
    p_sim.add_argument("--n", type=_int_at_least(1), required=True)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--output", required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


def _cmd_step(args) -> int:
    """``fit``, ``gof`` and ``return-levels``: fit ``--dist`` and print the command's rows.

    ``args.rows(args, sample, outcomes)`` gives the JSON payload that follows
    ``"dataset"`` and the text lines.
    """
    dataset = load_csv(args.input)
    if args.dist == "all":
        outcomes = fit_all(dataset.sample)
    else:  # single family: surface data errors directly
        outcomes = [FitOutcome(args.dist, result=fit_mle(args.dist, dataset.sample))]
    payload, lines = args.rows(args, dataset.sample, outcomes)
    if args.format == "json":
        print(json.dumps({"dataset": dataset.label, **payload}, indent=2))
    else:
        print("\n".join(lines))
    converged = any(o.result is not None and o.result.converged for o in outcomes)
    return EXIT_OK if converged else EXIT_NUMERICAL


def _fit_rows(args, sample, outcomes):
    return {"fits": [fit_outcome_to_dict(o) for o in outcomes]}, render_fit_table(outcomes)


def _gof_rows(args, sample, outcomes):
    gofs = goodness_of_fit(sample, outcomes, args.alpha)
    best = select_best(gofs) if any(gofs) else None
    lines = render_gof_table(outcomes, gofs)
    if best is not None and len(gofs) > 1:
        lines.append(f"best family: {FAMILY_LABELS[best]}")
    fits = [fit_outcome_to_dict(o) for o in outcomes]
    return {"fits": fits, "gof": [gof_to_dict(g) for g in gofs], "best_family": best}, lines


def _return_level_rows(args, sample, outcomes):
    tables = {
        o.family: return_level_table(o.result.params, args.periods) for o in outcomes if o.result is not None
    }
    if not tables:
        raise _no_fit_error(outcomes)
    levels = [{"family": family, "entries": return_levels_to_dict(table)} for family, table in tables.items()]
    columns = {FAMILY_LABELS[family]: table for family, table in tables.items()}
    return {"return_levels": levels}, render_return_table(columns)


def _cmd_report(args) -> int:
    dataset = load_csv(args.input)
    report = run_pipeline(dataset, spec=args.periods, alpha=args.alpha)
    # Each format is rendered once. The files are written first, so a directory
    # that cannot be made or written leaves only the error, not a report that exits with 2.
    formats = (args.format,) if args.out_dir is None else REPORT_FORMATS
    rendered = {fmt: emit_report(report, fmt) for fmt in formats}
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        write_text_atomic(out_dir / "report.txt", rendered["text"])
        write_text_atomic(out_dir / "report.json", rendered["json"] + "\n")
        emit_plot_data(report, dataset, out_dir)
    print(rendered[args.format], end="")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # A parameter choice that fails, in the record or in its draws, is a usage error.
    try:
        dist = params_from_sequence(args.dist, args.params)
        path = simulate_to_csv(dist, args.n, args.seed, args.output)
    except DomainError as exc:
        print(f"evtkit simulate: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _DATA_ERRORS as exc:
        print(f"evtkit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"evtkit: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
