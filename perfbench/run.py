"""evtkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the evtkit sources under
``src/`` there. With ``--trace 0`` it measures set-up time (median of fresh
interpreters importing evtkit), then runs the workload in a fresh worker
process and prints the end-to-end metrics. With ``--trace 1`` the worker
runs the workload untraced and then traced, and the per-layer metrics are
printed. Every operation's output is checked; the last line of standard
output is one JSON object, and the exit code is 1 when any check failed.
Scratch files and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cli_fixture", "stations", "long_record", "units")
# What one operation is, per workload, and the name of the time of one pass.
OPERATION = {
    "cli_fixture": ("report", None),
    "stations": ("series", None),
    "long_record": ("record", "record_s"),
    "units": ("sweep", "sweep_s"),
}
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170.0

# Per-layer times of layers that run only in some workloads. They are printed
# and saved with the trace where their layer runs; a time that is zero on
# every run of a workload cannot go in the JSON line.
LAYER_ONLY = {
    "cli.main_s": "s",
    "cli.exit_s": "s",
    "io.load_csv_s": "s",
    "io.load_csv_rows_per_s": "1/s",
    "io.write_csv_s": "s",
    "pipeline.emit_report_s": "s",
    "pipeline.emit_plot_data_s": "s",
    "pipeline.emit_plot_data_self_s": "s",
    "distributions.pdf_s": "s",
    "diagnostics.qq_series_s": "s",
    "diagnostics.probability_difference_s": "s",
    "returns.return_curve_s": "s",
}
COVERAGE_BAR = 0.95


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (value, percentile)."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def measure_setup(env: dict, repeats: int) -> list[tuple[float, float]]:
    """(reference, wall) seconds of fresh interpreters running ``import evtkit``.

    One untimed run first compiles the bytecode caches.
    """
    cmd = [sys.executable, "-c", "import evtkit"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    kernel = yardstick.kernel_time()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        wall = time.perf_counter() - start
        kernel_after = yardstick.kernel_time()
        times.append((yardstick.reference(wall, [kernel, kernel_after]), wall))
        kernel = kernel_after
    return times


def share(part: int, base: int) -> str:
    return f"{part / base if base else 0.0:.4g} ({part}/{base})"


def _line(name: str, ref: float, wall: float, unit: str, note: str = "") -> None:
    print(f"{name:<34}{ref:>12.4f} {unit:<4}[wall {wall:.4f}] {note}")


def print_end_to_end(args, result, setup, rss_mb, names: dict) -> dict:
    run = result["runs"][0]
    ref, wall = run["ref"], run["wall"]
    n = len(ref)
    op, pass_name = OPERATION[args.workload]
    w = args.workload
    print("times at reference speed (see perfbench/yardstick.py), wall clock in brackets")
    setup_ref = statistics.median(t[0] for t in setup)
    _line("setup_s", setup_ref, statistics.median(t[1] for t in setup), "s", f"(median of {len(setup)} fresh 'import evtkit')")
    p50 = statistics.median(ref)
    _line(f"{w}.{op}_ms_p50", 1e3 * p50, 1e3 * statistics.median(wall), "ms", f"(n={n})")
    t_ref, t_wall = tail(ref), tail(wall)
    if t_ref is not None:
        _line(f"{w}.{op}_ms_tail", 1e3 * t_ref[0], 1e3 * t_wall[0], "ms", f"(p{t_ref[1]:.1f}, n={n})")
    ops_per_s = n / sum(ref)
    _line(f"{w}.{op}_per_s", ops_per_s, n / sum(wall), "1/s", f"({result['passes']} passes of {n // result['passes']})")
    if pass_name is not None:
        passes = result["passes"]
        _line(f"{w}.{pass_name}", sum(ref) / passes, sum(wall) / passes, "s", "(mean per pass)")
    print(f"{f'{w}.peak_rss_mb':<34}{rss_mb:>12.2f} MB   (largest child process)")
    print(f"{f'{w}.ops_failed_share':<34}{share(result['failed'], n):>12}")
    print(f"{f'{w}.fits_unconverged_share':<34}{share(*result['fits']):>12}  (first pass)")
    values = {"setup_s": setup_ref, "op_ms_p50": 1e3 * p50, "ops_per_s": ops_per_s, "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}


def print_per_layer(result, names: dict) -> dict:
    layers = result["layers"]
    ops = len(result["runs"][1]["ref"])
    print(f"{ops} operations untraced and {ops} traced; spans: {result['spans_file']}")
    print("times at reference speed (see perfbench/yardstick.py)")
    print(f"{'layer':<16}{'self s/op':>14}{'calls/op':>12}")
    for layer, (own, calls) in result["layer_table"].items():
        if calls:
            print(f"{layer:<16}{own:>14.6f}{calls:>12.1f}")
    for name, unit in {**names, **LAYER_ONLY}.items():
        if name in LAYER_ONLY and not layers[name]:
            continue  # the layer did not run in this workload
        print(f"{name:<40}{layers[name]:>16.6g} {unit}")
    print(f"unconverged fits in the first pass: {share(*result['fits'])}")
    if layers["trace.coverage"] < COVERAGE_BAR:
        print(f"warning: layer spans cover {layers['trace.coverage']:.3f} of the traced time, below {COVERAGE_BAR}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    src = ROOT / "src"
    if not (src / "evtkit" / "__init__.py").is_file():
        print(f"run.py: no evtkit sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # Imports use bytecode caches, as a user's do, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    # One core for this process and every process it starts, so that the
    # yardstick and the operations it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup = measure_setup(env, SETUP_REPEATS if not args.trace else 0)
        result_file = scratch / "result.json"
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", str(scratch), "--result", str(result_file), "--spans", str(spans),
        ]
        proc = subprocess.run(
            cmd + ["--spawn-time", repr(time.perf_counter())], env=env, timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0:
            print(f"run.py: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, closed loop with one client")
    if args.trace:
        metrics = print_per_layer(result, names)
        (OUT / f"layers-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(result["layers"], indent=1), encoding="utf-8"
        )
    else:
        metrics = print_end_to_end(args, result, setup, rss_mb, names)
    for error in result["errors"]:
        print(f"check failed: {error}")
    attempted = sum(len(run["ref"]) for run in result["runs"])
    print(json.dumps({"correct": result["failed"] == 0, "attempted": attempted, "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
