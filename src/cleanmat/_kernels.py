"""The exhaustive strong-cleanness scan over table-encoded finite rings.

The scan walks the |R|^(n^2) candidate matrices E in mixed-radix order
(last entry fastest) and returns the first with E^2 = E, EA = AE and
det(A - E) a unit, entirely in vectorized small-int table arithmetic.

Only idempotents can pass, and they are few (386 of the 65,536 2x2
matrices over Z/16), so the scan keeps an idempotent index: the E^2 = E
survivors of each chunk of the enumeration, built the first time a scan
reaches the chunk and kept by the caller (``brute`` keeps it on the ring's
cached ``RingTable``).  Later scans test EA = AE and the determinant on
the indexed idempotents only.  The determinant's permutation table is
likewise built once per matrix size and shared read-only.
"""

from __future__ import annotations

import itertools

import numpy as np

# read by perfbench/run.py's env stamp; the scan has no jit tier
HAVE_NUMBA = False


# n -> the read-only (permutations, signs) arrays of ``permutation_table``
_PERMUTATION_TABLES: dict = {}


def permutation_table(n: int):
    """The permutations of range(n) and their signs, built once per n.

    The arrays are cached and read-only, so every scan of an n x n matrix
    shares them.
    """
    if n not in _PERMUTATION_TABLES:
        perms = list(itertools.permutations(range(n)))
        signs = []
        for p in perms:
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
            )
            signs.append(1 if inv % 2 == 0 else -1)
        table = np.array(perms, dtype=np.int64), np.array(signs, dtype=np.int64)
        for arr in table:
            arr.flags.writeable = False
        _PERMUTATION_TABLES[n] = table
    return _PERMUTATION_TABLES[n]


def scan_strongly_clean(
    add, mul, neg, unit, a, n, perms, signs, one, zero, start, stop, *,
    chunk=1 << 14, idempotents=None,
):
    """First enumeration index in [start, stop) whose E certifies A, or -1.

    The enumeration is cut into chunks on a fixed grid, [lo, lo + chunk).
    The first scan to reach a chunk decodes it and keeps its E^2 = E
    survivors, their enumeration indices and E arrays, in ``idempotents``
    under the key (n, lo, hi); later scans read them back instead of
    decoding and squaring every candidate again.  With no dict given, the
    survivors are kept for this call only.  Survivors stay in enumeration
    order, so the first hit is the one a full scan finds.
    """
    if idempotents is None:
        idempotents = {}
    total = add.shape[0] ** (n * n)
    for lo in range(start - start % chunk, min(stop, total), chunk):
        key = (n, lo, min(total, lo + chunk))
        if key not in idempotents:
            idempotents[key] = _chunk_idempotents(add, mul, zero, n, *key[1:])
        sel, E = idempotents[key]
        if lo < start or key[2] > stop:
            mask = (sel >= start) & (sel < stop)
            sel, E = sel[mask], E[mask]
        if not sel.size:
            continue

        Ab = np.broadcast_to(a, E.shape)
        mask = (
            _batch_matmul(add, mul, zero, E, Ab)
            == _batch_matmul(add, mul, zero, Ab, E)
        ).all(axis=(1, 2))
        if not mask.any():
            continue
        sel, E = sel[mask], E[mask]

        U = add[a[None, :, :], neg[E]]
        dets = np.full(sel.size, zero, dtype=np.int64)
        for p, s in zip(perms, signs):
            prod = np.full(sel.size, one, dtype=np.int64)
            for i in range(n):
                prod = mul[prod, U[:, i, p[i]]]
            if s < 0:
                prod = neg[prod]
            dets = add[dets, prod]
        mask = unit[dets]
        if mask.any():
            return int(sel[np.nonzero(mask)[0][0]])
    return -1


def _chunk_idempotents(add, mul, zero, n, lo, hi):
    """Enumeration indices in [lo, hi) whose matrix E has E^2 = E, and the Es."""
    m = add.shape[0]
    sel = np.arange(lo, hi, dtype=np.int64)
    E = np.empty((sel.size, n, n), dtype=np.int64)
    rem = sel.copy()
    for pos in range(n * n - 1, -1, -1):
        E[:, pos // n, pos % n] = rem % m
        rem //= m
    mask = (_batch_matmul(add, mul, zero, E, E) == E).all(axis=(1, 2))
    sel, E = sel[mask], E[mask]
    sel.flags.writeable = E.flags.writeable = False
    return sel, E


def _batch_matmul(add, mul, zero, X, Y):
    B, n, _ = X.shape
    C = np.full((B, n, n), zero, dtype=np.int64)
    for k in range(n):
        term = mul[X[:, :, k][:, :, None], Y[:, k, :][:, None, :]]
        C = add[C, term]
    return C


