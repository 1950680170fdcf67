"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/sweep.py --workloads cli_fixture,stations --seeds 1-10 \\
        [--trace 0|1] [--seconds S] [--out summary.json]

Run it from the root of a checkout. For each workload and metric it prints
the median, the quartiles and the spread: the distance between the first
and third quartile over the median, with the quartiles as
``statistics.quantiles(values, n=4)`` gives them. ``--out`` also writes the
values and the machine's facts as JSON. The runs go one after another, never
side by side, so that they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def machine() -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"machine": machine(), "trace": args.trace, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or last is None or not last["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            if last is not None:
                runs.append({"seed": seed, **last})
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items())
                print(f"{workload} seed {seed}: {values}", flush=True)
        names = runs[0]["metrics"] if runs else {}
        summary["workloads"][workload] = {
            "runs": len(runs),
            "failed_runs": sum(not r["correct"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summarise([r["metrics"][name]["value"] for r in runs])}
                for name in names
            },
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name:<40} median {s['median']:<14.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
