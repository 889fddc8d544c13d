#!/usr/bin/env python3
"""Benchmark of the global searches: ring-level decisions and single stalk searches.

Ring level.  ``decide_ring_strongly_clean(R, n)`` runs ``gsrc_search`` and
``verify_gsrc`` on every monic degree-n h over R, and a product ring repeats
each stalk polynomial many times: Z/60 at degree 2 has 3,600 polynomials but
only 16 + 9 + 25 distinct stalk polynomials.  Each case is timed with the
search memo emptied before every pass (cold) and with it already filled by
an earlier pass (warm), as the best of ``PASSES`` passes.

Per stalk.  ``gsrc_search`` (SRC) and ``gsp_search`` over the one-stalk
rings Z_(2), Z_(3), Z_(5) and Z/9, on ``STALK_INPUTS`` seeded monic h of
each degree 1-3, with the memo emptied before every call, so each call runs
the stalk search itself.  The cells are microseconds per call, the best of
``PASSES`` passes.  To compare two commits, copy this script into the other
checkout's ``benchmarks/`` and run it there too.

Every timing is scaled to nominal machine speed by ``perfbench/pace.py``'s
reference loop (``paced.best``), so runs taken while the host's speed
drifts stay comparable; the raw best time is printed beside it.  On a
checkout without the memo both ring-level columns time the same cold
search.  Run with ``python benchmarks/bench_searches.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import factor  # noqa: E402
from cleanmat.decide import decide_ring_strongly_clean  # noqa: E402
from cleanmat.polys import Poly  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from paced import best  # noqa: E402

PASSES = 5
CASES = [("Z/60", {"type": "zmod", "n": 60}, 2), ("Z/12", {"type": "zmod", "n": 12}, 3)]
STALK_INPUTS = 64
STALK_RINGS = [
    ("Z_(2)", {"type": "zloc", "p": 2}),
    ("Z_(3)", {"type": "zloc", "p": 3}),
    ("Z_(5)", {"type": "zloc", "p": 5}),
    ("Z/9", {"type": "zmod", "n": 9}),
]


def ring_level(memo):
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


def per_stalk(memo):
    print(
        f"\nus per call with a cold memo, best of {PASSES} passes"
        f" over {STALK_INPUTS} seeded h; scaled (raw)"
    )
    print(f"{'stalk':>6} {'n':>2} {'gsrc_search':>17} {'gsp_search':>17}")
    for label, descriptor in STALK_RINGS:
        R = build_ring(descriptor)
        rng = random.Random(2027)
        for n in (1, 2, 3):
            hs = [
                Poly(R, [R.random_element(rng) for _ in range(n)] + [R.one])
                for _ in range(STALK_INPUTS)
            ]
            cells = []
            for search in (
                lambda h: factor.gsrc_search(h, R, "SRC"),
                lambda h: factor.gsp_search(h, R),
            ):

                def one_pass(search=search):
                    for h in hs:
                        memo.clear()
                        search(h)

                s, r = best(one_pass, PASSES)
                cells.append(f"{1e6 * s / len(hs):>8.1f} ({1e6 * r / len(hs):>6.1f})")
            print(f"{label:>6} {n:>2} " + " ".join(cells))


def main():
    memo = getattr(factor, "_STALK_MEMO", {})
    ring_level(memo)
    per_stalk(memo)


if __name__ == "__main__":
    main()
