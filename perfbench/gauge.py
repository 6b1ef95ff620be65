"""Host-speed gauge: fixed reference work sampled while a timed step runs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
30-50% over seconds to minutes as neighbours load it.  The drift moves
whole runs, so no statistic over one run's campaigns removes it.  While a
step is timed, an interval timer interrupts it every ``INTERVAL_S`` and the
signal handler times one call of a fixed piece of pure-Python work: format
integer rows as text lines and parse them back, the kind of work that
dominates hwfatigue's file format.  The work uses no code of the package, so
a change to the package cannot move it.  The handler's time is taken out of
the step's time, and what is left is scaled by
``REFERENCE_S / (mean handler work time during the step)``: the time the
step would have taken at the reference speed.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.05
# Seconds one ``reference_work()`` takes at the reference speed: its mean
# over 2,996 samples taken during 13 paper-campaign campaigns on the 2-vCPU
# Xeon (Sapphire Rapids, 2.1 GHz, Python 3.11.7) that the baseline in
# README.md was measured on.
REFERENCE_S = 0.00065

_ROWS = [[(i * 7919 + j * 104729) % 65536 for j in range(7)] for i in range(150)]


def reference_work() -> int:
    text = "".join(" ".join(map(str, row)) + "\n" for row in _ROWS)
    return sum(int(v) for line in text.splitlines() for v in line.split())


@dataclass
class Step:
    wall_s: float = float("nan")       # wall time of the step, gauge samples included
    own_s: float = float("nan")        # wall time less the gauge samples
    reference_s: float = float("nan")  # own_s at the reference speed


class Gauge:
    """Samples ``reference_work`` during the steps it times (main thread only)."""

    def __init__(self) -> None:
        self.times: list[float] = []  # seconds per sample, over every step

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def timing(self):
        """Time the body; the yielded ``Step`` is filled in when it ends."""
        step, first = Step(), len(self.times)
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield step
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            inside = sum(self.times[first:])
            self._sample()  # so that a step shorter than the interval has one sample
            samples = self.times[first:]
            step.wall_s, step.own_s = t1 - t0, t1 - t0 - inside
            step.reference_s = step.own_s * REFERENCE_S * len(samples) / sum(samples)
