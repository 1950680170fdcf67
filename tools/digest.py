"""Hash evtkit's outputs over a fixed corpus, so that two checkouts compare output by output.

    python3 tools/digest.py --out FILE

Run it from anywhere; it imports the evtkit sources under ``src/`` of the
checkout it sits in, and the benchmark's seeded record generators from
``perfbench/inputs.py`` there (read, never changed). It writes one
``<sha256>  <name>`` line per output to FILE, sorted by name, and prints the
sha256 of FILE. Two runs on one tree give the same FILE; ``diff`` the FILEs of
two trees to see which outputs differ. The head of FILE names the numpy
version, its dispatch targets and those enabled on the host: numpy's
exp, log, log1p, expm1 and power give other last bits on other targets
(X86_V4, AVX-512, against X86_V3, AVX2), and so do the fits, so two FILEs
compare output by output only when their heads match. The corpus:

- the repository fixture: ``evtkit report`` as text and JSON, and every file
  ``report --out-dir`` writes;
- ``fit``, ``gof`` and ``return-levels`` on the fixture, with each ``--dist``
  and ``--format``;
- ``--help`` of the program and of each command;
- ``simulate --n 51 --seed 22`` of each family, at the fixture's fitted
  parameters: the exit code and the written file, not standard output,
  which names the file's temporary path;
- the ``stations`` records of seeds 1 and 2, the ``long_record`` of seed 1,
  and the fixture times 10**k for k = -9..9 (the ``units`` scalings): for
  each, the text and JSON reports of ``run_pipeline`` and the plot files of
  ``emit_plot_data``, or the error it raised;
- ``load_csv`` of the ``long_record`` of seed 1, written one value per line
  as the benchmark writes it, and of a small ``year,value`` file with a BOM,
  a header, blank rows and every line break ``str.splitlines`` knows: the
  label, the bytes of the values and the years it returns.

Each command's output is hashed together with its exit code and standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import evtkit  # noqa: E402
import inputs  # noqa: E402
from evtkit.cli import main as evtkit_main  # noqa: E402

FIXTURE = ROOT / "data" / "synthetic_annual_maxima.csv"
COMMANDS = ("fit", "gof", "return-levels", "report", "simulate")
STEP_COMMANDS = ("fit", "gof", "return-levels")
STATION_SEEDS = (1, 2)
LONG_RECORD_SEED = 1
SIMULATE_PARAMS = {
    "gev": "92.41,30.85,0.06",
    "gumbel": "93.61,32.02",
    "frechet": "3.37,88.16",
    "weibull": "3.34,122.27",
}
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> bytes:
    """Exit code, standard output and standard error of ``evtkit ARGV``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = evtkit_main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def _files(directory: Path, prefix: str) -> dict[str, bytes]:
    return {f"{prefix}/{path.name}": path.read_bytes() for path in sorted(directory.iterdir())}


def _cli_outputs() -> dict[str, bytes]:
    outputs = {}
    for fmt in ("text", "json"):
        outputs[f"cli/report/{fmt}"] = _run_cli(["report", "--input", str(FIXTURE), "--format", fmt])
        for command in STEP_COMMANDS:
            for dist in (*evtkit.FAMILIES, "all"):
                argv = [command, "--input", str(FIXTURE), "--dist", dist, "--format", fmt]
                outputs[f"cli/{command}/{dist}/{fmt}"] = _run_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outputs["cli/report/out-dir/stdout"] = _run_cli(["report", "--input", str(FIXTURE), "--out-dir", tmp])
        outputs.update(_files(Path(tmp), "cli/report/out-dir"))
    outputs["cli/help"] = _run_cli(["--help"])
    for command in COMMANDS:
        outputs[f"cli/help/{command}"] = _run_cli([command, "--help"])
    return outputs


def _simulate_outputs() -> dict[str, bytes]:
    """Exit code and written file of ``evtkit simulate`` for each family."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for family, params in SIMULATE_PARAMS.items():
            path = Path(tmp, f"{family}.csv")
            argv = ["simulate", "--dist", family, "--params", params, "--n", "51", "--seed", "22", "--output", str(path)]
            outputs[f"cli/simulate/{family}"] = f"exit {evtkit_main(argv)}\n".encode() + path.read_bytes()
    return outputs


def _record_outputs(name: str, values) -> dict[str, bytes]:
    """Reports and plot files of one record, or the error that ``run_pipeline`` raised."""
    dataset = evtkit.Dataset(label=name, sample=evtkit.Sample(values))
    try:
        report = evtkit.run_pipeline(dataset)
    except (ValueError, evtkit.errors.NumericalError) as exc:  # evtkit's data and numerical errors
        return {f"{name}/error": f"{type(exc).__name__}: {exc}".encode()}
    outputs = {
        f"{name}/report.txt": evtkit.emit_report(report, "text").encode(),
        f"{name}/report.json": evtkit.emit_report(report, "json").encode(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        evtkit.emit_plot_data(report, dataset, tmp)
        outputs.update(_files(Path(tmp), name))
    return outputs


def _records():
    for seed in STATION_SEEDS:
        for series in inputs.stations(seed):
            yield f"stations/{seed}/{series.label}", series.values
    yield f"long_record/{LONG_RECORD_SEED}", inputs.long_record(LONG_RECORD_SEED).values
    base = inputs.fixture_values(inputs.FIXTURE_SEED)
    for k in inputs.UNIT_EXPONENTS:
        yield f"units/1e{k}", base * 10.0**k


def line_breaks_text() -> str:
    """A ``year,value`` file with a BOM, a header, blank rows and each line break after one row."""
    rows = "".join(
        f"{1950 + i},{100.25 + 7 * i}{sep}" + (f" \t{sep}" if i % 3 == 0 else "") for i, sep in enumerate(LINE_BREAKS)
    )
    return "\ufeffyear,value\r\n\n" + rows


def _reader_outputs() -> dict[str, bytes]:
    """What ``load_csv`` returns for each file of its corpus: label, value bytes and years."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        long_record = Path(tmp, "long_record.csv")
        inputs.write_values_csv(long_record, inputs.long_record(LONG_RECORD_SEED).values)
        line_breaks = Path(tmp, "line_breaks.csv")
        line_breaks.write_bytes(line_breaks_text().encode("utf-8"))
        for name, path in ((f"long_record/{LONG_RECORD_SEED}", long_record), ("line_breaks", line_breaks)):
            dataset = evtkit.load_csv(path)
            head = f"{dataset.label}\n{dataset.years!r}\n".encode()
            outputs[f"load_csv/{name}"] = head + dataset.sample.values.tobytes()
    return outputs


def digest() -> dict[str, str]:
    """sha256 of every output of the corpus, by name."""
    outputs = _cli_outputs() | _simulate_outputs() | _reader_outputs()
    for name, values in _records():
        outputs.update(_record_outputs(name, values))
    return {name: _sha(data) for name, data in sorted(outputs.items())}


def dispatch_head() -> str:
    """Comment lines naming numpy's version, its dispatch targets and those enabled here."""
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return (
        f"# numpy {np.__version__}\n"
        f"# dispatch targets: {' '.join(__cpu_dispatch__)}\n"
        f"# enabled: {' '.join(enabled) or '(baseline only)'}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file for the per-output hashes")
    args = parser.parse_args(argv)
    text = dispatch_head() + "".join(f"{sha}  {name}\n" for name, sha in digest().items())
    Path(args.out).write_text(text, encoding="utf-8")
    print(_sha(text.encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
