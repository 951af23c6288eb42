"""Scale wall time to a fixed reference speed of the machine.

On a small shared VM the speed of the interpreter drifts by 15-30 % over
seconds (other tenants share the cores, caches and memory bus; pinning does
not help). A run-level median cannot remove a drift that lasts the whole run.
So the benchmark times a fixed reference kernel around and during every
measured interval and scales the interval by::

    REFERENCE_S / mean(kernel times taken around and during it)

A timed stream of library calls samples the kernel between calls, every 1024
calls. A CLI command runs in-process without hooks, so a timer signal
samples the kernel every ``TIMER_S`` while it runs; the handler's own time is
taken out of the command's time.

The kernel does the kind of work the library does per sample (a frozen
dataclass rebuilt with ``replace``, 3-vector numpy calls, ``math`` calls and
float formatting) and never calls the library, so a change to the library
moves the scaled time exactly as it moves the wall time at a fixed machine
speed. Both the wall times and the factors are kept in the results file.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

# Kernel time at the reference speed, within the 3.3-4.2 ms its median took
# over several hours on the 2-core VM the benchmark was defined on (Python 3.11,
# numpy 2.4). Changing it rescales every reported time, so it is fixed with
# the benchmark.
REFERENCE_S = 0.0036
KERNEL_STEPS = 300
TIMER_S = 0.05

# Import time depends on the host far more than the warm kernel does (it moved
# by +60 % in an hour in which the kernel moved by +20 %), so set-up is scaled
# by the import of a fixed set of standard-library modules instead. None of
# them is imported by the harness, numpy or the library. IMPORT_REFERENCE_S
# is their import time at the reference speed, within the 60-80 ms measured
# on the same VM.
IMPORT_REFERENCE_MODULES = (
    "asyncio", "unittest", "email.mime.multipart", "http.client", "xml.dom.minidom",
    "logging.handlers", "tarfile", "difflib", "calendar",
)
IMPORT_REFERENCE_S = 0.07


def import_reference_s() -> float:
    """Seconds to import the reference modules; once per fresh interpreter."""
    import importlib
    import sys

    loaded = [name for name in IMPORT_REFERENCE_MODULES if name in sys.modules]
    if loaded:
        raise RuntimeError(f"reference modules already imported: {loaded}")
    start = time.perf_counter()
    for name in IMPORT_REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


@dataclass(frozen=True)
class _State:
    value: float
    vector: object


def kernel(steps: int = KERNEL_STEPS) -> str:
    """Fixed work resembling one library call per step; returns its last line."""
    # Imported here so that importing this module leaves numpy's import time
    # to the library's set-up, which the benchmark measures.
    import numpy as np

    vector = np.array([0.1, 0.2, 9.8])
    state = _State(0.0, vector)
    line = ""
    for _ in range(steps):
        vector = np.asarray(vector * 1.0001, dtype=float)
        if np.all(np.isfinite(vector)):
            total = state.value + math.atan2(vector[1], vector[2]) + float(np.linalg.norm(vector))
            state = replace(state, value=total, vector=vector)
        line = f"{state.value:.6f},{vector[0]:.6f}"
    return line


class SpeedGauge:
    """Reference-speed factors for consecutive measured intervals."""

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.factors: list[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        """Kernel seconds now (median of ``repeats``), with the cyclic GC paused
        so a collection triggered by the program's own heap is not charged to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.repeats):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)

    @contextlib.contextmanager
    def sampling(self):
        """Time a block with the kernel sampled every ``TIMER_S`` inside it.

        The yielded object gets ``wall_s``, the block's wall time, and
        ``scaled_s``, that time without the sampling pauses at reference speed.
        """
        samples = [self.sample()]
        pause = 0.0

        def on_timer(_signum, _frame):
            nonlocal pause
            start = time.perf_counter()
            samples.append(self.sample())
            pause += time.perf_counter() - start

        interval = SimpleNamespace()
        previous = signal.signal(signal.SIGALRM, on_timer)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        try:
            yield interval
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            interval.wall_s = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        samples.append(self.sample())
        factor = REFERENCE_S / statistics.fmean(samples)
        self.factors.append(factor)
        self._last = samples[-1]
        interval.scaled_s = (interval.wall_s - pause) * factor

    def restart(self) -> None:
        """Sample afresh before an interval that follows unmeasured work."""
        self._last = self.sample()

    def factor(self) -> float:
        """Sample again; the factor for the interval since the previous sample."""
        now = self.sample()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        self.factors.append(factor)
        return factor
