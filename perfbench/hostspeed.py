"""Host-speed calibration, so that timings taken on a shared host compare.

On a shared host the throughput of one vCPU drifts by 15% or more over
seconds to minutes, for reasons outside the benchmark (a pure-Python loop
timed in 30-second windows on a 2-vCPU Xeon guest spread 0.17 of its
median between the quartiles of the windows, with no steal time
reported).  That drift would swamp any change to the program.  So the
worker measures the host's speed at the same moments and on the same CPU
as the program: a timer interrupts the measured code every PERIOD_S
seconds and runs a fixed pure-Python loop, whose duration is one sample
of the host's current speed.  A timing is then reported in reference
seconds: each stretch of measured time between two samples is scaled by
REF_LOOP_S over the median of the WINDOW samples around it, which is the
time the same work would take on a host that runs the loop in
REF_LOOP_S.  On repeated 10-second passes this cut the spread between
the quartiles from about 0.2 of the median (raw) to about 0.05.

The loops cost about 1% of the measured time; the clock this module
gives excludes them.  The loop's speed also depends a little on what the
interrupted program left in the caches, so a change to the program's
memory traffic moves the scale slightly as well as the raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW = 21

# duration of one loop on a quiet 2.1 GHz Xeon vCPU (CPython 3.11); only
# the scale of reported timings depends on it
REF_LOOP_S = 0.0003


def loop() -> int:
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


def factor(samples) -> float:
    """Reference seconds per measured second, from loop durations."""
    return REF_LOOP_S / statistics.median(samples)


def reference_seconds(ticks, t0: float, t1: float) -> float:
    """The time from t0 to t1 in reference seconds.  `ticks` are
    (time, loop duration) pairs in time order, at least one; the stretch
    ending at tick i (and the last one, ending at t1) is scaled by the
    median duration of the WINDOW ticks centred on i."""
    durations = [d for _, d in ticks]
    ends = [t for t, _ in ticks] + [t1]
    total, prev = 0.0, t0
    for i, t in enumerate(ends):
        lo = max(0, min(i, len(durations) - 1) - WINDOW // 2)
        total += (t - prev) * factor(durations[lo : lo + WINDOW])
        prev = t
    return total


class Calibrator:
    """Samples the host's speed from a SIGALRM timer while running.

    The timer is re-armed at the end of each sample, so samples never
    nest and the measured code gets PERIOD_S between them."""

    def __init__(self, period: float = PERIOD_S, clock=time.perf_counter):
        self.period = period
        self._clock = clock
        self.ticks: list[tuple[float, float]] = []  # (clock(), loop duration)
        self.spent = 0.0  # seconds spent in the loops
        self._old = None
        self._running = False

    @property
    def samples(self) -> list[float]:
        return [d for _, d in self.ticks]

    def clock(self) -> float:
        """A clock that stands still while a loop runs."""
        return self._clock() - self.spent

    def sample(self) -> None:
        t = self._clock()
        loop()
        d = self._clock() - t
        self.ticks.append((t - self.spent, d))
        self.spent += d

    def _tick(self, *_):
        if self._running:  # a tick pending when stop() ran must not re-arm
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def start(self) -> "Calibrator":
        self._running = True
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """reference_seconds() of this calibrator's samples; a span shorter
        than one period is sampled once now."""
        if not self.ticks:
            self.sample()
        return reference_seconds(self.ticks, t0, t1)
