"""The exhaustive strong-cleanness scan over a finite ring's operation tables.

The scan walks the |S|^(n^2) candidate matrices E in mixed-radix order
(last entry fastest) and returns the first with E^2 = E, EA = AE and
det(A - E) a unit, in pure-Python arithmetic on lists of element indices.

Only idempotents can pass, and they are few (386 of the 65,536 2x2
matrices over Z/16), so the scan walks an idempotent index instead: per n,
the (enumeration index, E) with E^2 = E in enumeration order, kept by the
caller (``brute`` keeps one per stalk, beside the stalk's cached tables).
The index grows lazily from one generator, only as far as a scan reaches,
so a one-off scan costs no more than a walk of the candidates up to its
hit.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left

# read by perfbench/run.py's env stamp; the scan has no jit tier
HAVE_NUMBA = False


@functools.cache
def permutation_table(n: int) -> tuple[tuple, tuple]:
    """The permutations of range(n) and their signs, as tuples, built once per n."""
    perms = tuple(itertools.permutations(range(n)))
    signs = tuple(
        -1 if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 else 1
        for p in perms
    )
    return perms, signs


def scan_strongly_clean(
    add, mul, neg, unit, a, n, perms, signs, one, zero, start, stop, *, idempotents=None
):
    """First enumeration index in [start, stop) whose E certifies A, or -1.

    ``a`` holds A's rows of element indices.  ``idempotents[n]`` is the
    index, a pair (list, generator) created by the first scan of an n x n
    matrix and extended only when a scan needs a candidate past the end of
    the list; with no dict given it is kept for this call only.
    """
    if idempotents is None:
        idempotents = {}
    if n not in idempotents:
        idempotents[n] = [], _idempotents(add, mul, zero, n)
    found, more = idempotents[n]
    rows = range(n)
    at = bisect_left(found, (start,))
    while True:
        if at == len(found):
            entry = next(more, None)
            if entry is None:
                return -1
            found.append(entry)
        k, e = found[at]
        at += 1
        if k >= stop:
            return -1
        if k < start:
            continue
        if any(
            _dot(add, mul, zero, e[i], a, j) != _dot(add, mul, zero, a[i], e, j)
            for i in rows
            for j in rows
        ):
            continue
        u = [[add[x][neg[y]] for x, y in zip(ra, re)] for ra, re in zip(a, e)]
        det = zero
        for p, sign in zip(perms, signs):
            prod = one
            for i in rows:
                prod = mul[prod][u[i][p[i]]]
            det = add[det][prod if sign > 0 else neg[prod]]
        if unit[det]:
            return k


def _dot(add, mul, zero, row, b, j):
    """Entry j of the row vector ``row`` times the matrix ``b``."""
    acc = zero
    for x, b_row in zip(row, b):
        acc = add[acc][mul[x][b_row[j]]]
    return acc


def _idempotents(add, mul, zero, n):
    """Yield (enumeration index, E as rows) for every E with E^2 = E, in order.

    A depth-first walk sets the entries in row-major order, smallest index
    first.  Entry (i, j) of E^2 is tested as soon as row i and column j are
    set, so a partial matrix that already fails is dropped with all its
    completions.
    """
    m = len(add)
    nn = n * n
    # position -> the entries of E^2 complete once it is set: (flat index, row, column)
    due = [[] for _ in range(nn)]
    for i in range(n):
        for j in range(n):
            due[max(i * n + n - 1, nn - n + j)].append(
                (i * n + j, range(i * n, i * n + n), range(j, nn, n))
            )
    e = [zero] * nn

    def squares(pos):
        for ij, row, col in due[pos]:
            acc = zero
            for r, c in zip(row, col):
                acc = add[acc][mul[e[r]][e[c]]]
            if acc != e[ij]:
                return False
        return True

    def walk(pos, k):
        for x in range(m):
            e[pos] = x
            if not squares(pos):
                continue
            if pos == nn - 1:
                yield k * m + x, tuple(tuple(e[r : r + n]) for r in range(0, nn, n))
            else:
                yield from walk(pos + 1, k * m + x)

    return walk(0, 0)
