#!/usr/bin/env python3
"""Benchmark the exhaustive strong-cleanness scan and the π-regularity oracle.

The workload mirrors the two audits: the companion matrix of every monic
polynomial of the given degree over each ring goes through
``strongly_clean_bruteforce`` and ``pi_regular_oracle`` as
``theorem_main_audit`` and ``pi_regular_audit`` call them.  Both oracles
keep a per-stalk memo (``brute._stalk_scan`` and ``brute._stalk_drazin``).
The first table gives the scan's time per companion cold (the memo and the
ring's stalk idempotent indexes emptied before each call), with a warm
index (only the memo emptied before each call) and on a memo hit (both
filled by an earlier pass).  The second gives the oracle's time per
companion cold (the memo emptied before each call) and on a memo hit; its
multi-stalk rows show each stalk raised to its own GL exponent.  Each time
is the best of ``PASSES`` passes, scaled to nominal machine speed by
``perfbench/pace.py``'s reference loop (``paced.best``), with the raw best
time beside it.  Run with ``python benchmarks/bench_bruteforce.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import brute  # noqa: E402
from cleanmat.brute import pi_regular_oracle, strongly_clean_bruteforce  # noqa: E402
from cleanmat.decide import monic_polys  # noqa: E402
from cleanmat.matrices import companion  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from paced import best  # noqa: E402
# paced puts perfbench/ on the path: GF(4) is the fuzz_mixed workload's table
from workloads import _f4_tables  # noqa: E402

SCAN_RINGS = [4, 6, 8, 9, 12, 16, 30]
PASSES = 5
F4_ADD, F4_MUL = _f4_tables()
ORACLE_CASES = [
    ("Z/9", {"type": "zmod", "n": 9}, 2),
    ("Z/12", {"type": "zmod", "n": 12}, 2),
    ("Z/36", {"type": "zmod", "n": 36}, 2),
    ("F4", {"type": "table", "add": F4_ADD, "mul": F4_MUL}, 2),
    ("Z/9", {"type": "zmod", "n": 9}, 3),
    ("Z/12", {"type": "zmod", "n": 12}, 3),
]


def _cell(seconds: tuple[float, float], calls: int) -> str:
    scaled, raw = seconds
    return f"{1e6 * scaled / calls:>9.1f} ({1e6 * raw / calls:>7.1f})"


def _empty_memo():
    brute._stalk_scan.cache_clear()
    brute._stalk_drazin.cache_clear()


def _empty_indexes(R):
    for s in R.stalks:
        brute._stalk_tables(s)[4].clear()


def scan():
    print(f"strongly_clean_bruteforce per companion, best of {PASSES} passes; us scaled (raw)")
    print(f"{'ring':>6} {'polys':>6} {'cold':>20} {'warm index':>20} {'memo hit':>20}")
    for n in SCAN_RINGS:
        R = build_ring({"type": "zmod", "n": n})
        mats = [companion(h) for h in monic_polys(R, 2)]

        def run(empty_indexes, empty_memo):
            for C in mats:
                if empty_indexes:
                    _empty_indexes(R)
                if empty_memo:
                    _empty_memo()
                assert strongly_clean_bruteforce(C) is not None

        t_cold = best(lambda: run(True, True), PASSES)
        run(False, True)
        t_warm = best(lambda: run(False, True), PASSES)
        run(False, False)
        t_hit = best(lambda: run(False, False), PASSES)
        cells = " ".join(_cell(t, len(mats)) for t in (t_cold, t_warm, t_hit))
        print(f"{'Z/' + str(n):>6} {len(mats):>6} {cells}")


def oracle():
    print(f"\npi_regular_oracle per companion, best of {PASSES} passes; us scaled (raw)")
    print(f"{'ring':>6} {'n':>2} {'polys':>6} {'cold':>20} {'memo hit':>20}")
    for label, descriptor, n in ORACLE_CASES:
        R = build_ring(descriptor)
        mats = [companion(h) for h in monic_polys(R, n)]

        def run(empty_memo):
            for C in mats:
                if empty_memo:
                    _empty_memo()
                assert pi_regular_oracle(C) is not None

        t_cold = best(lambda: run(True), PASSES)
        run(False)
        t_hit = best(lambda: run(False), PASSES)
        print(f"{label:>6} {n:>2} {len(mats):>6} {_cell(t_cold, len(mats))} {_cell(t_hit, len(mats))}")


def main():
    scan()
    oracle()


if __name__ == "__main__":
    main()
