"""A fixed yardstick for how fast the machine runs at the moment of measuring.

On a shared host the speed of a core changes by up to a half, for tens of
seconds at a time, as other tenants load it; a whole run can fall inside a
slow spell. The benchmark times this fixed kernel, which mixes interpreted
Python with numpy calls on small arrays much as evtkit does, before and
after every operation and, for operations in the benchmark's own process,
every ``SAMPLE_INTERVAL_S`` while they run (:class:`Sampler`). An
operation's reference time is its wall time scaled by ``REFERENCE_S`` over
the mean of those kernel times: the time it would take on a machine where
the kernel takes exactly ``REFERENCE_S``.

The kernel is the benchmark's own code and never changes with the program,
so a change that makes evtkit faster lowers reference times in proportion.
"""

from __future__ import annotations

import signal

import numpy as np

from tracer import now

REFERENCE_S = 1e-3
SAMPLE_INTERVAL_S = 0.2
_REPEATS = 3
_X = np.linspace(0.1, 2.0, 64)


def _kernel() -> float:
    total = 0.0
    for i in range(100):
        y = _X * (1.0 + i * 1e-3)
        total += float(np.sum(np.exp(-y) + np.log(y)))
        for j in range(20):
            total += j * 0.5
    return total


def kernel_time() -> float:
    """Median wall time of three runs of the kernel, in seconds."""
    times = []
    for _ in range(_REPEATS):
        start = now()
        _kernel()
        times.append(now() - start)
    return sorted(times)[_REPEATS // 2]


def reference(seconds: float, kernels: list[float]) -> float:
    """``seconds`` of wall time, as time at reference speed, given the kernel times around it."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)


class Sampler:
    """Times the kernel every ``SAMPLE_INTERVAL_S`` of wall time, from a SIGALRM handler.

    The handler runs between two bytecodes of whatever is executing. Each
    sample's own time is later taken off the operation it interrupted
    (:meth:`within`), and off the spans that were open in ``tracer``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[tuple[float, float, float]] = []  # (start, kernel, duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = now()
        kernel = kernel_time()
        duration = now() - start
        self.samples.append((start, kernel, duration))
        if self.tracer is not None:
            for open_frame in self.tracer.stack:
                open_frame.start += duration

    def within(self, start: float, end: float) -> tuple[float, list[float]]:
        """Time the samples took between ``start`` and ``end``, and their kernel times."""
        inside = [(kernel, duration) for t, kernel, duration in self.samples if start <= t < end]
        return sum(d for _, d in inside), [kernel for kernel, _ in inside]
