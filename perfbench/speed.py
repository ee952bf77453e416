"""How fast the CPU running the benchmark is, sampled while it runs.

On small virtual machines a vCPU's speed drifts with what the host runs on
its sibling hyperthread.  On the 2-vCPU KVM guest this benchmark was built
on, a pure-Python loop of 20000 iterations took 1.0-1.7 ms from one second
to the next, with no steal time reported, and the two vCPUs drifted
independently; wall times of whole passes moved by up to 1.6x between runs
of the same seed.

``SpeedProbe`` times that loop from a SIGALRM handler every ``INTERVAL_S``
(the handler runs in the main thread, between bytecodes; a long native call
defers it).  A sample is the fastest of ``REPEATS`` short runs of the loop,
which drops interruptions inside the sample but keeps a slowdown that
lasts.  Its slowdown is its time over ``REFERENCE_S``, the time on an
uncontended vCPU of that machine, smoothed over five neighbouring samples.
``scaled(a, b)`` integrates dt / slowdown over [a, b]: the wall time of
that interval at the reference speed.  The benchmark pins itself and its
children to one CPU so that the probe samples the CPU that does the work.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
LOOP = 4000
REPEATS = 5
REFERENCE_S = 0.2e-3


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self._smoothed: list[float] | None = None
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        self.times.append(t0)
        self.loops.append(best)
        self._smoothed = None

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _slowdowns(self) -> list[float]:
        if self._smoothed is None:
            n = len(self.loops)
            self._smoothed = [
                statistics.median(self.loops[max(0, k - 2): k + 3]) / REFERENCE_S for k in range(n)
            ]
        return self._smoothed

    def scaled(self, a: float, b: float) -> float:
        """Seconds that [a, b] (``perf_counter`` times) would take at the reference speed."""
        if not self.times:
            return b - a
        slow = self._slowdowns()
        i = max(bisect.bisect_right(self.times, a) - 1, 0)
        total, t = 0.0, a
        while t < b:
            end = min(b, self.times[i + 1]) if i + 1 < len(self.times) else b
            total += (end - t) / slow[i]
            t, i = end, i + 1
        return total

    def factor(self, a: float, b: float) -> float:
        """Reference-speed seconds per wall second over [a, b]."""
        return self.scaled(a, b) / (b - a) if b > a else 1.0
