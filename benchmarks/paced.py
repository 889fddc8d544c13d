"""Best-of-passes timing, scaled to nominal machine speed.

On a shared host the speed one process gets can drift by 2x within
minutes, so raw times of unchanged code disagree from run to run.  ``best``
runs ``perfbench/pace.py``'s reference loop right before and right after
each timed pass and scales the fastest raw pass to the speed at which that
loop takes its nominal time, as the perfbench workloads scale their
latencies.  The benchmark scripts in this directory import it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from pace import Pace  # noqa: E402


def best(fn, passes: int, before=None) -> tuple[float, float]:
    """(scaled, raw) seconds of the fastest raw pass of ``fn()`` over ``passes`` passes.

    The scaled time is that pass's, so a pass whose pace samples misread
    the host's speed cannot set it unless it was also the fastest.
    ``before``, if given, runs untimed ahead of every pass.
    """
    pace = Pace(on_timer=False)
    best_scaled = best_raw = float("inf")
    for _ in range(passes):
        if before is not None:
            before()
        pace.sample()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        pace.sample()
        if t1 - t0 < best_raw:
            best_raw = t1 - t0
            best_scaled = best_raw * pace.factor(t0, t1)
    return best_scaled, best_raw
