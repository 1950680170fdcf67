"""Measure one workload in a fresh interpreter and write the result as JSON.

run.py starts this script with the evtkit sources on PYTHONPATH and passes
its clock reading at spawn time. The workload runs as a closed loop with one
client: each operation starts when the previous one and its check are done.

Untraced run: operations repeat, pass after pass, until a pass ends after
``--seconds`` have gone, and the result holds each operation's latency, as
wall time and as time at reference speed (see yardstick.py).

Traced run: each operation runs untraced and then traced, pass after pass,
the same way. The result also holds the per-layer metrics, the tracing
overhead (traced over untraced time of the same operations) and the path of
the span file.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import FAMILIES, LAYERS, Tracer, install, now  # noqa: E402

MAX_ERRORS_KEPT = 5


def _run_op(workload, k: int, i: int, tracer=None):
    """Time operation ``k`` (the i-th of the run) and check its output.

    Returns (latency, kernel times sampled during it, output or None, error
    message or None). The latency leaves out the time the samples took.
    """
    import yardstick  # imports numpy, so not before main has timed that

    workload.prepare(k)
    error = output = None
    restore = None
    if tracer is not None:
        restore = install(tracer)
        tracer.op = i
    sampler = yardstick.Sampler(tracer) if workload.in_process else contextlib.nullcontext()
    with sampler:
        start = now()
        try:
            output = workload.run_traced(k, tracer) if tracer is not None else workload.run(k)
        except Exception as exc:  # the loop goes on; the operation counts as failed
            error = f"op {i}: {type(exc).__name__}: {exc}"
        end = now()
    paused, kernels = sampler.within(start, end) if workload.in_process else (0.0, [])
    if restore is not None:
        tracer.op = None
        restore()
    if output is not None:
        try:
            workload.check(k, output)
        except Exception as exc:
            error = f"op {i}{' traced' if tracer else ''}: {type(exc).__name__}: {exc}"
    return end - start - paused, kernels, output, error


def _totals(tracer: Tracer) -> dict:
    return {name: (entry[1], entry[2]) for name, entry in tracer.stats.items()}


def _fold(into: dict, tracer: Tracer, before: dict, scale: float) -> None:
    """Add the span time one operation added to ``tracer``, scaled to reference speed."""
    for name, (_, total, own) in tracer.stats.items():
        total0, own0 = before.get(name, (0.0, 0.0))
        if total != total0:
            acc = into.setdefault(name, [0.0, 0.0])
            acc[0] += (total - total0) * scale
            acc[1] += (own - own0) * scale


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole passes over the workload's operations until ``seconds`` have gone.

    Each operation's wall time is kept with its time at reference speed
    (see yardstick.py). With a tracer, each operation runs twice in a row,
    untraced and then traced, so that the two differ only by the tracing,
    and the span times of the traced operations are kept at reference
    speed too.
    """
    import yardstick  # imports numpy, so not before main has timed that

    variants = (None,) if tracer is None else (None, tracer)
    runs = [{"wall": [], "ref": []} for _ in variants]
    span_ref: dict[str, list] = {}
    errors = []
    failed = unconverged = fits = 0
    pass_snapshot = None
    kernel = yardstick.kernel_time()
    deadline = now() + seconds
    i = 0
    while True:
        k = i % workload.size
        for run, traced in zip(runs, variants):
            before = _totals(traced) if traced is not None else None
            latency, kernels, output, error = _run_op(workload, k, i, traced)
            kernel_after = yardstick.kernel_time()
            scale = yardstick.reference(1.0, [kernel, *kernels, kernel_after])
            kernel = kernel_after
            run["wall"].append(latency)
            run["ref"].append(latency * scale)
            if traced is not None:
                _fold(span_ref, traced, before, scale)
            if error is not None:
                failed += 1
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append(error)
            if traced is None and error is None and i < workload.size:
                u, f = workload.fit_counts(output)
                unconverged += u
                fits += f
        i += 1
        if tracer is not None and i == workload.size:
            pass_snapshot = tracer.snapshot()
        if i % workload.size == 0 and now() >= deadline:
            break
    return {
        "runs": runs,
        "passes": i // workload.size,
        "failed": failed,
        "errors": errors,
        "fits": [unconverged, fits],
        "pass": pass_snapshot,
        "span_ref": span_ref,
    }


def layer_metrics(tracer: Tracer, startup: dict, result: dict) -> dict:
    """Per-layer metrics of a traced run, by name.

    Times are at reference speed. Those named ``*_s`` are seconds per
    operation, averaged over the traced operations; ``import.*`` and
    ``cli.process_s`` are seconds per process start; ``fit_mle_ms.*`` is
    milliseconds per call. Counts are those of the first full pass, so they
    repeat exactly for a seed.
    """
    plain, traced = result["runs"]
    ops = len(traced["ref"])
    span_ref = {**result["span_ref"], **startup}
    calls = {name: entry[0] for name, entry in tracer.stats.items()}
    calls.update({name: 1 for name in startup})
    first = result["pass"]

    def total(name, column=0):
        return span_ref.get(name, [0.0, 0.0])[column]

    def per_op(name, column=0):
        return total(name, column) / ops

    def per_call(name):
        return total(name) / calls[name] if calls.get(name) else 0.0

    def rate(count, name):
        return tracer.counts.get(count, 0) / total(name) if total(name) else 0.0

    def counted(name):
        return first["counts"].get(name, 0)

    m = {
        "import.evtkit_s": per_call("import.evtkit"),
        "import.numpy_s": per_call("import.numpy"),
        "cli.process_s": per_call("cli.process"),
        "cli.main_s": per_op("cli.main"),
        "cli.exit_s": per_op("cli.exit"),
        "io.load_csv_s": per_op("io.load_csv"),
        "io.load_csv_rows_per_s": rate("io.load_csv_rows", "io.load_csv"),
        "io.write_csv_s": per_op("io.write_csv"),
        "io.write_csv_rows": counted("io.write_csv_rows"),
        "io.write_csv_bytes": counted("io.write_csv_bytes"),
        "io.files_written": counted("io.files_written"),
        "pipeline.run_pipeline_s": per_op("pipeline.run_pipeline"),
        "pipeline.emit_report_s": per_op("pipeline.emit_report"),
        "pipeline.emit_plot_data_s": per_op("pipeline.emit_plot_data"),
        "pipeline.emit_plot_data_self_s": per_op("pipeline.emit_plot_data", 1),
    }
    for family in FAMILIES:
        m[f"fitting.fit_mle_ms.{family}"] = 1e3 * per_call(f"fitting.fit_mle.{family}")
    m.update(
        {
            "fitting.objective_calls": first["stats"].get("fitting.objective", [0])[0],
            "fitting.objective_s": per_op("fitting.objective"),
            "fitting.objective_overhead_s": per_op("fitting.objective", 1),
            "fitting.us_per_evaluation": 1e6 * per_call("fitting.objective"),
            "fitting.unconverged_fits": counted("fitting.unconverged_fits"),
        }
    )
    for kind in ("runs", "iterations", "evaluations"):
        for family in FAMILIES:
            m[f"simplex.{kind}.{family}"] = counted(f"simplex.{kind}.{family}")
    m.update(
        {
            "simplex.unconverged_runs": counted("simplex.unconverged_runs"),
            "simplex.self_s": per_op("simplex.nelder_mead", 1),
            "distributions.log_pdf_calls": first["stats"].get("distributions.log_pdf", [0])[0],
            "distributions.log_pdf_s": per_op("distributions.log_pdf"),
            "distributions.log_pdf_values_per_s": rate("distributions.log_pdf_values", "distributions.log_pdf"),
            "distributions.cdf_s": per_op("distributions.cdf"),
            "distributions.quantile_s": per_op("distributions.quantile"),
            "distributions.pdf_s": per_op("distributions.pdf"),
            "diagnostics.describe_s": per_op("diagnostics.describe"),
            "diagnostics.anderson_darling_s": per_op("diagnostics.anderson_darling"),
            "diagnostics.qq_series_s": per_op("diagnostics.qq_series"),
            "diagnostics.probability_difference_s": per_op("diagnostics.probability_difference"),
            "returns.return_level_table_s": per_op("returns.return_level_table"),
            "returns.return_curve_s": per_op("returns.return_curve"),
            "trace.overhead_share": sum(traced["ref"]) / sum(plain["ref"]) - 1.0,
            "trace.coverage": tracer.top_s / sum(traced["wall"]),
        }
    )
    return m


def layer_table(span_ref: dict, calls: dict, ops: int) -> dict:
    """Self time per operation (at reference speed) and calls per operation of each layer."""
    table = {layer: [0.0, 0.0] for layer in LAYERS}
    for name, (_, own) in span_ref.items():
        row = table[name.split(".")[0]]
        row[0] += own / ops
        row[1] += calls[name] / ops
    return table


def write_spans(path: Path, *tracers: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    # The CLI workload's process starts and imports are traced in each CLI
    # process; every other workload runs in this one.
    startup = Tracer()
    startup.add_span("cli.process", args.spawn_time, STARTED)
    with startup.span("import.evtkit"):
        with startup.span("import.numpy"):
            import numpy  # noqa: F401
        import evtkit  # noqa: F401

    import workloads
    import yardstick

    workload = workloads.make(args.workload, args.seed, args.scratch, dict(os.environ))
    startup_ref = {}
    if workload.in_process:
        scale = yardstick.reference(1.0, [yardstick.kernel_time()])
        startup_ref = {name: [t * scale, own * scale] for name, (_, t, own) in startup.stats.items()}
    else:
        startup.spans.clear()
    if not args.trace:
        result = measure(workload, args.seconds)
    else:
        tracer = Tracer()
        result = measure(workload, args.seconds, tracer)
        write_spans(args.spans, startup, tracer)
        result["layers"] = layer_metrics(tracer, startup_ref, result)
        calls = {name: entry[0] for name, entry in tracer.stats.items()}
        result["layer_table"] = layer_table(result["span_ref"], calls, len(result["runs"][1]["ref"]))
    del result["pass"], result["span_ref"]
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
