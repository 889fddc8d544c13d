#!/usr/bin/env python3
"""Micro-benchmark of the polynomial layer: per-call time of each polynomial operation.

For every ring of the fuzz_mixed pool (``perfbench/workloads.py``'s
``FUZZ_RINGS``) a fixed seed draws 48 inputs: a monic h of degree 1, 2 or
3 (in turn), a monic g of degree 1..deg h, and a random element c.
The table gives the per-call microseconds of ``h * g`` and of the raw
stalk kernels the searches, constructions and verifiers run, each called
once per stalk: ``polys.raw_divide`` of h by g, ``polys.raw_translate`` of
h by c, and ``polys.raw_bezout`` of (g, h) (a Sylvester system of size
deg g + deg h) up to the first stalk that has no pair; then
``factor.gsrc_search(h, R)``, ``verify.verify_gsrc`` of the
certificates that search found (over Z_(p) some h have none, so that column
averages over fewer inputs), ``factor.gsp_search(h, R)`` and
``verify.verify_gsp`` of the certificates it found, as the best of
10 passes over the inputs, each pass scaled to nominal machine speed by
``perfbench/pace.py``'s reference loop (``paced.best``).  The two searches
keep each finite stalk's answer in their per-stalk memo, so their best pass
is a warm one: on a finite stalk it times the memo hit, the gluing and the
transcript, not the lift.  Rows follow the pool's order, so the three
4-element tables are F4, dual-F2 and F2 x F2.  Run with
``python benchmarks/bench_polys.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run against this checkout's src/ whether or not the package is installed,
# on the ring pool of the fuzz_mixed workload
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cleanmat.factor import gsp_search, gsrc_search  # noqa: E402
from cleanmat.polys import Poly, raw_bezout, raw_divide, raw_translate  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from cleanmat.verify import verify_gsp, verify_gsrc  # noqa: E402
from paced import best  # noqa: E402
from workloads import FUZZ_RINGS  # noqa: E402

SEED = 2024
INPUTS = 48
PASSES = 10


def inputs(R):
    rng = random.Random(SEED)

    def monic(d):
        return Poly(R, [R.random_element(rng) for _ in range(d)] + [R.one])

    out = []
    for i in range(INPUTS):
        d = 1 + i % 3
        h = monic(d)
        g = monic(rng.randint(1, d))
        out.append((h, g, R.random_element(rng)))
    return out


def per_call_us(fn, args):
    def one_pass():
        for a in args:
            fn(*a)

    return 1e6 * best(one_pass, PASSES)[0] / len(args)


def stalk_divides(R, h, g):
    for stalk in zip(R.stalks, h.parts, g.parts):
        raw_divide(*stalk)


def stalk_translates(R, h, c):
    for stalk in zip(R.stalks, h.parts, c.parts):
        raw_translate(*stalk)


def stalk_bezouts(R, g, h):
    for stalk in zip(R.stalks, g.parts, h.parts):
        if raw_bezout(*stalk) is None:
            return


def main():
    ops = [
        "h * g", "raw_divide", "raw_translate", "raw_bezout",
        "gsrc_search", "verify_gsrc", "gsp_search", "verify_gsp",
    ]
    print(
        f"per-call microseconds at nominal speed, best of {PASSES} passes "
        f"over {INPUTS} seeded inputs"
    )
    print(f"{'ring':>19} " + " ".join(f"{op:>13}" for op in ops))
    totals = [0.0] * len(ops)
    for k, descriptor in enumerate(FUZZ_RINGS):
        R = build_ring(descriptor)
        inp = inputs(R)
        found = [(h, gsrc_search(h, R, "SRC")) for h, _, _ in inp]
        certs = [(h, res.certificate) for h, res in found if res.found]
        found_sp = [(h, gsp_search(h, R)) for h, _, _ in inp]
        certs_sp = [(h, res.certificate) for h, res in found_sp if res.found]
        times = [
            per_call_us(lambda h, g: h * g, [(h, g) for h, g, _ in inp]),
            per_call_us(stalk_divides, [(R, h, g) for h, g, _ in inp]),
            per_call_us(stalk_translates, [(R, h, c) for h, _, c in inp]),
            per_call_us(stalk_bezouts, [(R, g, h) for h, g, _ in inp]),
            per_call_us(lambda h: gsrc_search(h, R, "SRC"), [(h,) for h, _, _ in inp]),
            per_call_us(lambda h, c: verify_gsrc(h, R, c), certs),
            per_call_us(lambda h: gsp_search(h, R), [(h,) for h, _, _ in inp]),
            per_call_us(lambda h, c: verify_gsp(h, R, c), certs_sp),
        ]
        totals = [a + b for a, b in zip(totals, times)]
        print(f"{k:>2} {R.label():>16} " + " ".join(f"{t:>13.1f}" for t in times))
    means = [t / len(FUZZ_RINGS) for t in totals]
    print(f"{'mean':>19} " + " ".join(f"{t:>13.1f}" for t in means))


if __name__ == "__main__":
    main()
