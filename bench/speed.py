"""Machine-speed normalisation for timings taken on a shared, drifting CPU.

On a small shared VM the speed of the same code drifts by +-20 % over tens of
seconds (CPU time drifts with it, so it is not waiting). A fixed pure-Python
loop tracks that drift for interpreter-bound work: sampled while a workload
runs, or right around a set-up repeat, its rate scales a raw time t to
t * rate / NOMINAL_RATE, the seconds the work would take on a machine that
runs the loop at NOMINAL_RATE iterations per second. The loop's own time is
taken out of the raw time. This module imports nothing outside the standard
library, so set-up children can load it before anything else.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

LOOP_ITERS = 40_000  # about 3.5 ms
NOMINAL_RATE = 1.0e7  # loop iterations per nominal second
PERIOD_S = 0.15


def speed_loop(n: int = LOOP_ITERS) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def loop_rate(n: int = LOOP_ITERS) -> float:
    """Loop iterations per second, measured once."""
    t0 = perf_counter()
    speed_loop(n)
    return n / (perf_counter() - t0)


class SpeedSampler:
    """Samples `loop_rate` from a SIGALRM timer while a block of work runs.

    `busy_s` is the wall time spent inside the sampler, for callers to take
    out of the intervals they time. Samples are evenly spaced in wall time, so
    their mean rate weights every part of the run alike.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.rates: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def sample(self, *_ignored) -> None:
        t0 = perf_counter()
        self.rates.append(loop_rate())
        self.busy_s += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextmanager
    def paused(self):
        """Stop sampling while the block runs (for example, while a child process works)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def scale(self) -> float:
        """Factor from raw seconds to nominal seconds."""
        return statistics.fmean(self.rates) / NOMINAL_RATE
