#!/usr/bin/env python3
"""Benchmark the exhaustive strong-cleanness scan and the π-regularity oracle.

The workload mirrors the two audits: every monic quadratic over each ring
gets its companion matrix scanned over all |R|^4 candidate idempotent
complements.  Run with ``python benchmarks/bench_bruteforce.py``.  The
first table times the scan without an idempotent index; a second table
gives its per-call time on Z/12 without an index, with an index emptied
before each call (cold) and with an index that an earlier pass filled
(warm).  A third table gives the per-call time of ``pi_regular_oracle`` on
the companion of every monic h, as ``pi_regular_audit`` calls it, scaled
to nominal machine speed by ``perfbench/pace.py``'s reference loop
(``paced.best``) with the raw best time beside it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import _kernels  # noqa: E402
from cleanmat.brute import encode_matrix, encode_ring, pi_regular_oracle  # noqa: E402
from cleanmat.decide import monic_polys  # noqa: E402
from cleanmat.matrices import companion  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from paced import best  # noqa: E402
# paced puts perfbench/ on the path: GF(4) is the fuzz_mixed workload's table
from workloads import _f4_tables  # noqa: E402

RINGS = [4, 6, 8, 9, 12]
PASSES = 5
F4_ADD, F4_MUL = _f4_tables()
ORACLE_CASES = [
    ("Z/9", {"type": "zmod", "n": 9}, 2),
    ("Z/12", {"type": "zmod", "n": 12}, 2),
    ("F4", {"type": "table", "add": F4_ADD, "mul": F4_MUL}, 2),
    ("Z/9", {"type": "zmod", "n": 9}, 3),
]


def workload(ring_n):
    R = build_ring({"type": "zmod", "n": ring_n})
    tab = encode_ring(R)
    perms, signs = _kernels.permutation_table(2)
    jobs = []
    for h in monic_polys(R, 2):
        jobs.append(encode_matrix(tab, companion(h)))
    return tab, perms, signs, jobs, R.size**4


def run(tab, perms, signs, jobs, total, index=None, cold=False):
    """Seconds and hit count of one pass over the jobs.

    With ``index``, the scan keeps its idempotent index there; ``cold``
    empties it before each call.
    """
    hits = 0
    kwargs = {} if index is None else {"idempotents": index}
    t0 = time.perf_counter()
    for a in jobs:
        if cold:
            index.clear()
        if (
            _kernels.scan_strongly_clean(
                tab.add, tab.mul, tab.neg, tab.unit, a, 2, perms, signs,
                tab.one, tab.zero, 0, total, **kwargs,
            )
            >= 0
        ):
            hits += 1
    return time.perf_counter() - t0, hits


def indexed(n=12):
    tab, perms, signs, jobs, total = workload(n)
    index = {}
    t_none, hits = run(tab, perms, signs, jobs, total)
    t_cold, hits_cold = run(tab, perms, signs, jobs, total, index, cold=True)
    run(tab, perms, signs, jobs, total, index)
    t_warm, hits_warm = run(tab, perms, signs, jobs, total, index)
    assert hits == hits_cold == hits_warm, "indexed and unindexed scans disagree"
    print(f"\nscan per call on Z/{n}, {len(jobs)} companions:")
    for label, t in (("no index", t_none), ("cold index", t_cold), ("warm index", t_warm)):
        print(f"{label:>12} {1e3 * t / len(jobs):>8.3f} ms")


def oracle():
    print(f"\npi_regular_oracle per companion, best of {PASSES} passes; scaled (raw)")
    print(f"{'ring':>6} {'n':>2} {'polys':>6} {'us per call':>20}")
    for label, descriptor, n in ORACLE_CASES:
        R = build_ring(descriptor)
        mats = [companion(h) for h in monic_polys(R, n)]
        scaled, raw = best(lambda: [pi_regular_oracle(C) for C in mats], PASSES)
        cell = f"{1e6 * scaled / len(mats):>9.1f} ({1e6 * raw / len(mats):>7.1f})"
        print(f"{label:>6} {n:>2} {len(mats):>6} {cell:>20}")


def main():
    print(f"{'ring':>6} {'polys':>6} {'candidates':>11} {'scan (s)':>10}")
    for n in RINGS:
        tab, perms, signs, jobs, total = workload(n)
        t, _ = run(tab, perms, signs, jobs, total)
        print(f"{'Z/' + str(n):>6} {len(jobs):>6} {len(jobs) * total:>11} {t:>10.3f}")
    indexed()
    oracle()


if __name__ == "__main__":
    main()
