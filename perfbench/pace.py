"""Machine-speed meter, so that times survive a host whose speed drifts.

On a shared host the speed available to one process can change by 2x for
seconds at a time.  ``Pace`` times a fixed reference task every ``every_s``
seconds; ``factor`` converts a time measured while the reference took ``d``
seconds into the time it would have taken at nominal speed, where the
reference takes ``nominal_s``.  In-process work is paced by a pure-Python
loop, run from a timer signal so that a long item is sampled inside too
(``busy`` is the sampling time to take back out of its latency).  CLI
processes are paced by the start-up of a bare interpreter, run between
items.  Each reference is the task that tracked its workload best.
NOTES.md gives the raw figures next to the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import subprocess
import sys
import time

LOOP_ITERATIONS = 40_000
LOOP_NOMINAL_S = 0.003  # the loop on an uncontended core of the machine the bounds were set on
BARE_NOMINAL_S = 0.040  # `python -c pass` on the same


def reference_loop() -> int:
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return s


def bare_interpreter():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Pace:
    def __init__(
        self,
        reference=reference_loop,
        nominal_s: float = LOOP_NOMINAL_S,
        every_s: float = 0.2,
        on_timer: bool = True,
    ):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.on_timer = on_timer
        self.at: list[float] = []
        self.took: list[float] = []

    @contextlib.contextmanager
    def running(self):
        """Sample from a SIGALRM timer while the block runs (``on_timer``)."""
        if not self.on_timer:
            yield
            return
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def sample(self):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def maybe_sample(self):
        """Between items: sample unless the last sample is younger than ``every_s``."""
        if not self.on_timer and (not self.at or time.perf_counter() - self.at[-1] >= self.every_s):
            self.sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent sampling inside [t0, t1]."""
        return sum(self.took[bisect.bisect_left(self.at, t0) : bisect.bisect_right(self.at, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Nominal / actual speed over [t0, t1], from the samples around it."""
        lo = max(0, bisect.bisect_right(self.at, t0) - 1)
        hi = min(len(self.at) - 1, bisect.bisect_left(self.at, t1))
        near = self.took[lo : hi + 1]
        return self.nominal_s / (sum(near) / len(near))
