"""In-memory span tracer that wraps evtkit's public functions from outside.

:func:`install` replaces module attributes such as ``evtkit.fitting.nelder_mead``
and ``evtkit.cli.load_csv``, and the probability methods of the distribution
classes, with timing wrappers; the returned callable puts the originals back.
Nothing under ``src/`` knows about it.

Each wrapped call is a span: name, start, end, parent and operation id. A
span's self time is its duration minus the time its direct child spans
cover. The two per-evaluation spans, ``fitting.objective`` and
``distributions.log_pdf``, are not stored one by one: their counts and times
roll up into the nearest stored ancestor (a ``simplex.nelder_mead`` span), so
that the trace of a long run stays small. Every span, stored or not, adds to
the per-name totals in :attr:`Tracer.stats`.

This module imports nothing heavy, so that the traced CLI run can time
``import numpy`` and ``import evtkit`` after loading it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# On Linux this is CLOCK_MONOTONIC, one clock for every process on the host,
# which lets a child process's spans line up with its parent's.
now = time.perf_counter

FAMILIES = ("gumbel", "frechet", "weibull", "gev")
LAYERS = (
    "import",
    "cli",
    "io",
    "pipeline",
    "fitting",
    "simplex",
    "distributions",
    "diagnostics",
    "returns",
)

# Public functions wrapped per evtkit module; span name "<module>.<function>".
FUNCTIONS = {
    "cli": ("main",),
    "io": ("load_csv", "write_csv", "write_text_atomic"),
    "pipeline": ("run_pipeline", "emit_report", "emit_plot_data", "report_to_dict"),
    "fitting": ("fit_all", "fit_mle", "initial_params", "log_likelihood"),
    "simplex": ("nelder_mead",),
    "diagnostics": (
        "describe",
        "anderson_darling",
        "qq_series",
        "probability_difference",
        "select_best",
    ),
    "returns": ("return_level", "return_level_table", "return_curve"),
}
# Methods every distribution family inherits from the shared base class.
DISTRIBUTION_METHODS = ("log_pdf", "cdf", "pdf", "quantile")


class _Frame:
    __slots__ = ("name", "start", "child", "record", "owner", "family")

    def __init__(self, name, start, record, owner, family):
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record
        self.owner = owner
        self.family = family


class Tracer:
    """Collects spans, per-name totals and counters of one process."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.op = None
        self.top_s = 0.0  # time covered by spans that have no parent

    # --- spans -------------------------------------------------------------

    def push(self, name: str, store: bool = True, family: str | None = None) -> _Frame:
        stack = self.stack
        parent = stack[-1] if stack else None
        if family is None and parent is not None:
            family = parent.family
        if store:
            record = {
                "id": len(self.spans),
                "parent": parent.owner["id"] if parent is not None and parent.owner else None,
                "op": self.op,
                "name": name,
            }
            if family is not None:
                record["family"] = family
            self.spans.append(record)
            owner = record
        else:
            record = None
            owner = parent.owner if parent is not None else None
        frame = _Frame(name, 0.0, record, owner, family)
        stack.append(frame)
        frame.start = now()
        return frame

    def pop(self, frame: _Frame) -> None:
        end = now()
        duration = end - frame.start
        stack = self.stack
        stack.pop()
        entry = self.stats.get(frame.name)
        if entry is None:
            entry = self.stats[frame.name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child
        if stack:
            stack[-1].child += duration
        else:
            self.top_s += duration
        if frame.record is not None:
            frame.record["start"] = frame.start
            frame.record["end"] = end
        elif frame.owner is not None:
            rollup = frame.owner.setdefault("rollup", {})
            totals = rollup.get(frame.name)
            if totals is None:
                rollup[frame.name] = [1, duration]
            else:
                totals[0] += 1
                totals[1] += duration

    def span(self, name: str):
        """Context manager for a span around a block of the benchmark's own code."""
        return _Span(self, name)

    def add_span(self, name: str, start: float, end: float) -> None:
        """A top-level span timed outside this process, such as interpreter start."""
        self.spans.append(
            {"id": len(self.spans), "parent": None, "op": self.op, "name": name, "start": start, "end": end}
        )
        duration = end - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration
        self.top_s += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, store: bool = True, after=None, family_arg: bool = False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, kwargs, result, frame)`` runs once the call returns.
        With ``family_arg`` the span is named ``<name>.<family>`` after the
        call's first argument and tags its descendants with that family.
        """
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if family_arg:
                family = args[0] if args else kwargs["family"]
                frame = push(f"{name}.{family}", store, family)
            else:
                frame = push(name, store)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame)
            if after is not None:
                after(args, kwargs, result, frame)
            return result

        return traced

    # --- transfer between processes ---------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "stats": self.stats, "counts": self.counts, "top_s": self.top_s}

    def merge(self, data: dict, op) -> None:
        """Add a child process's dump, its spans tagged with operation ``op``."""
        base = len(self.spans)
        for span in data["spans"]:
            span["id"] += base
            if span["parent"] is not None:
                span["parent"] += base
            span["op"] = op
            self.spans.append(span)
        for name, (calls, total, own) in data["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, n in data["counts"].items():
            self.count(name, n)
        self.top_s += data["top_s"]

    def snapshot(self) -> dict:
        """Copy of the totals and counters, for counts over one pass."""
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "counts": dict(self.counts),
        }


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.push(self.name)
        return self.frame

    def __exit__(self, *exc):
        self.tracer.pop(self.frame)
        return False


# --- patching ---------------------------------------------------------------


def _after_nelder_mead(tracer):
    def after(args, kwargs, result, frame):
        family = frame.family or "unknown"
        tracer.count(f"simplex.runs.{family}")
        tracer.count(f"simplex.iterations.{family}", result.iterations)
        tracer.count(f"simplex.evaluations.{family}", result.n_evaluations)
        if not result.converged:
            tracer.count("simplex.unconverged_runs")
        frame.record["iterations"] = result.iterations
        frame.record["evaluations"] = result.n_evaluations
        frame.record["converged"] = bool(result.converged)

    return after


def _after_fit_mle(tracer):
    def after(args, kwargs, result, frame):
        if not result.converged:
            tracer.count("fitting.unconverged_fits")

    return after


def _after_load_csv(tracer):
    def after(args, kwargs, result, frame):
        tracer.count("io.load_csv_rows", result.sample.n)

    return after


def _after_write_text(tracer):
    def after(args, kwargs, result, frame):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("io.files_written")
        if str(result).endswith(".csv"):
            tracer.count("io.write_csv_rows", text.count("\n") - 1)
            tracer.count("io.write_csv_bytes", len(text))  # the CSV text is ASCII

    return after


def _traced_nelder_mead(tracer, fn):
    """``nelder_mead`` whose objective is itself traced as ``fitting.objective``.

    The objective is the closure ``fitting`` builds around the log-likelihood,
    so its time outside ``log_pdf`` is fitting's per-evaluation overhead.
    """
    wrap = tracer.wrap

    def with_traced_objective(func, *args, **kwargs):
        return fn(wrap("fitting.objective", func, store=False), *args, **kwargs)

    functools.update_wrapper(with_traced_objective, fn)
    return wrap("simplex.nelder_mead", with_traced_objective, after=_after_nelder_mead(tracer))


def _traced_log_pdf(tracer, fn):
    push, pop, counts = tracer.push, tracer.pop, tracer.counts

    @functools.wraps(fn)
    def log_pdf(self, x):
        frame = push("distributions.log_pdf", False)
        try:
            return fn(self, x)
        finally:
            pop(frame)
            counts["distributions.log_pdf_values"] = counts.get(
                "distributions.log_pdf_values", 0
            ) + getattr(x, "size", 1)

    return log_pdf


def install(tracer: Tracer):
    """Wrap evtkit's public functions in every evtkit module that holds them.

    Returns a callable that restores the original attributes.
    """
    for module_name in FUNCTIONS:
        importlib.import_module(f"evtkit.{module_name}")
    modules = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "evtkit"}
    replacements = {}
    after = {
        "fitting.fit_mle": _after_fit_mle(tracer),
        "io.load_csv": _after_load_csv(tracer),
        "io.write_text_atomic": _after_write_text(tracer),
    }
    for module_name, names in FUNCTIONS.items():
        module = modules[f"evtkit.{module_name}"]
        for fname in names:
            original = getattr(module, fname)
            span = f"{module_name}.{fname}"
            if span == "simplex.nelder_mead":
                replacements[id(original)] = (original, _traced_nelder_mead(tracer, original))
            else:
                replacements[id(original)] = (
                    original,
                    tracer.wrap(span, original, after=after.get(span), family_arg=span == "fitting.fit_mle"),
                )

    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    base = modules["evtkit.distributions"]._EvdFamily
    for method in DISTRIBUTION_METHODS:
        original = base.__dict__[method]
        if method == "log_pdf":
            traced = _traced_log_pdf(tracer, original)
        else:
            traced = tracer.wrap(f"distributions.{method}", original)
        setattr(base, method, traced)
        undo.append((base, method, original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
