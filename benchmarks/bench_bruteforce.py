#!/usr/bin/env python3
"""Benchmark the exhaustive strong-cleanness scan: numba kernel vs pure numpy.

The workload mirrors the theorem-equivalence audit: every monic quadratic
over each ring gets its companion matrix scanned over all |R|^4 candidate
idempotent complements.  Run with ``python benchmarks/bench_bruteforce.py``;
numba must be importable for the jit column (the script measures both paths
explicitly, independent of the CLEANMAT_PURE_NUMPY switch).  The table
times the numpy path without an idempotent index; a second table gives its
per-call time on Z/12 without an index, with an index emptied before each
call (cold) and with an index that an earlier pass filled (warm).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import _kernels  # noqa: E402
from cleanmat.brute import encode_matrix, encode_ring  # noqa: E402
from cleanmat.decide import monic_polys  # noqa: E402
from cleanmat.matrices import companion  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402

RINGS = [4, 6, 8, 9, 12]


def workload(ring_n):
    R = build_ring({"type": "zmod", "n": ring_n})
    tab = encode_ring(R)
    perms, signs = _kernels.permutation_table(2)
    jobs = []
    for h in monic_polys(R, 2):
        jobs.append(encode_matrix(tab, companion(h)))
    return tab, perms, signs, jobs, R.size**4


def run(scan, tab, perms, signs, jobs, total, index=None, cold=False):
    """Seconds and hit count of one pass over the jobs.

    With ``index``, the numpy scan keeps its idempotent index there; ``cold``
    empties it before each call.
    """
    hits = 0
    kwargs = {} if index is None else {"idempotents": index}
    t0 = time.perf_counter()
    for a in jobs:
        if cold:
            index.clear()
        if (
            scan(
                tab.add, tab.mul, tab.neg, tab.unit, a, 2, perms, signs,
                tab.one, tab.zero, 0, total, **kwargs,
            )
            >= 0
        ):
            hits += 1
    return time.perf_counter() - t0, hits


def indexed(n=12):
    tab, perms, signs, jobs, total = workload(n)
    scan = _kernels._scan_strongly_clean_numpy
    index = {}
    t_none, hits = run(scan, tab, perms, signs, jobs, total)
    t_cold, hits_cold = run(scan, tab, perms, signs, jobs, total, index, cold=True)
    run(scan, tab, perms, signs, jobs, total, index)
    t_warm, hits_warm = run(scan, tab, perms, signs, jobs, total, index)
    assert hits == hits_cold == hits_warm, "indexed and unindexed scans disagree"
    print(f"\nnumpy scan per call on Z/{n}, {len(jobs)} companions:")
    for label, t in (("no index", t_none), ("cold index", t_cold), ("warm index", t_warm)):
        print(f"{label:>12} {1e3 * t / len(jobs):>8.3f} ms")


def main():
    if not _kernels.HAVE_NUMBA:
        print("numba is not active in this process; only the numpy path runs")
    header = f"{'ring':>6} {'polys':>6} {'candidates':>11} {'numpy (s)':>10}"
    if _kernels.HAVE_NUMBA:
        header += f" {'numba (s)':>10} {'speedup':>8}"
    print(header)
    for n in RINGS:
        tab, perms, signs, jobs, total = workload(n)
        if _kernels.HAVE_NUMBA:
            # warm the jit cache outside the timed region
            run(_kernels._scan_strongly_clean_jit, tab, perms, signs, jobs[:1], total)
        t_np, hits_np = run(
            _kernels._scan_strongly_clean_numpy, tab, perms, signs, jobs, total
        )
        row = f"{'Z/' + str(n):>6} {len(jobs):>6} {len(jobs) * total:>11} {t_np:>10.3f}"
        if _kernels.HAVE_NUMBA:
            t_jit, hits_jit = run(
                _kernels._scan_strongly_clean_jit, tab, perms, signs, jobs, total
            )
            assert hits_np == hits_jit, "kernel paths disagree"
            row += f" {t_jit:>10.3f} {t_np / t_jit:>7.1f}x"
        print(row)
    indexed()


if __name__ == "__main__":
    main()
