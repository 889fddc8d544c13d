#!/usr/bin/env python3
"""Benchmark of the global searches: ring level, single stalks and whole results.

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

Global result.  ``gsrc_search`` + ``verify_gsrc`` and ``gsp_search`` +
``verify_gsp`` over the rings of ``GLOBAL_RINGS`` on ``STALK_INPUTS``
seeded monic h of each degree 1-3, with the memo already filled by an
untimed pass, so each call costs what a repeated fuzz or audit call costs:
the memo lookups, the write-down of the result (blocks, transcript) and the
verifier.  A Z_(p) stalk has no memo entry and is searched on every call.
The cells are microseconds per search-and-verify, the best of ``PASSES``
passes.

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
from cleanmat.verify import verify_gsp, verify_gsrc  # noqa: E402
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

ZLOC2, ZLOC3 = {"type": "zloc", "p": 2}, {"type": "zloc", "p": 3}
# GF(4) = F2[a]/(a^2 + a + 1), the element b1*a + b0 encoded as 2*b1 + b0
F4_TABLE = {
    "type": "table",
    "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    "mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
}
GLOBAL_RINGS = [
    ("Z/5", {"type": "zmod", "n": 5}),
    ("Z/12", {"type": "zmod", "n": 12}),
    ("F4", F4_TABLE),
    ("Z_(3)", ZLOC3),
    ("Z_(2)^2", {"type": "product", "factors": [ZLOC2, ZLOC2]}),
    ("Z/4xZ_(3)", {"type": "product", "factors": [{"type": "zmod", "n": 4}, ZLOC3]}),
]


def _seeded_polys(R, n, rng):
    return [
        Poly(R, [R.random_element(rng) for _ in range(n)] + [R.one]) for _ in range(STALK_INPUTS)
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
            hs = _seeded_polys(R, n, rng)
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


def global_result():
    print(
        f"\nus per search + verify with a warm memo, best of {PASSES} passes"
        f" over {STALK_INPUTS} seeded h; scaled (raw)"
    )
    print(f"{'ring':>10} {'n':>2} {'gsrc + verify':>17} {'gsp + verify':>17}")
    pairs = (
        (lambda h, R: factor.gsrc_search(h, R, "SRC"), verify_gsrc),
        (factor.gsp_search, verify_gsp),
    )
    for label, descriptor in GLOBAL_RINGS:
        R = build_ring(descriptor)
        rng = random.Random(2029)
        for n in (1, 2, 3):
            hs = _seeded_polys(R, n, rng)
            cells = []
            for search, verify in pairs:

                def one_pass(search=search, verify=verify):
                    for h in hs:
                        res = search(h, R)
                        if res.found:
                            verify(h, R, res.certificate)

                one_pass()  # fills the memo
                s, r = best(one_pass, PASSES)
                cells.append(f"{1e6 * s / len(hs):>8.1f} ({1e6 * r / len(hs):>6.1f})")
            print(f"{label:>10} {n:>2} " + " ".join(cells))


def main():
    memo = getattr(factor, "_STALK_MEMO", {})
    ring_level(memo)
    per_stalk(memo)
    global_result()


if __name__ == "__main__":
    main()
