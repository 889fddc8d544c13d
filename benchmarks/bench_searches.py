#!/usr/bin/env python3
"""Benchmark of ring-level decisions with a cold and a warm per-stalk memo.

``decide_ring_strongly_clean(R, n)`` runs ``gsrc_search`` and
``verify_gsrc`` on every monic degree-n h over R, and a product ring repeats
each stalk polynomial many times: Z/60 at degree 2 has 3,600 polynomials but
only 16 + 9 + 25 distinct stalk polynomials.  Each case is timed with the
search memo emptied before every pass (cold) and with it already filled by
an earlier pass (warm), as the best of ``PASSES`` passes.

Every cell is scaled to nominal machine speed by ``perfbench/pace.py``'s
reference loop (``paced.best``), so runs taken while the host's speed
drifts stay comparable; the raw best time is printed beside it.  On a
checkout without the memo both columns time the same cold search.  Run with
``python benchmarks/bench_searches.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import factor  # noqa: E402
from cleanmat.decide import decide_ring_strongly_clean  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from paced import best  # noqa: E402

PASSES = 5
CASES = [("Z/60", {"type": "zmod", "n": 60}, 2), ("Z/12", {"type": "zmod", "n": 12}, 3)]


def main():
    memo = getattr(factor, "_STALK_MEMO", {})
    print(f"ms per decide_ring_strongly_clean, best of {PASSES} passes; scaled (raw)")
    print(f"{'ring':>6} {'n':>2} {'cold':>17} {'warm':>17} {'verdict':>8} {'entries':>8}")
    for label, descriptor, n in CASES:
        R = build_ring(descriptor)
        run = lambda: decide_ring_strongly_clean(R, n)  # noqa: E731
        cold = best(run, PASSES, before=memo.clear)
        memo.clear()
        verdict = run().verdict
        warm = best(run, PASSES)
        cells = " ".join(f"{1e3 * s:>8.1f} ({1e3 * r:>6.1f})" for s, r in (cold, warm))
        print(f"{label:>6} {n:>2} {cells} {verdict:>8} {len(memo):>8}")


if __name__ == "__main__":
    main()
