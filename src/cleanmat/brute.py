"""Exhaustive ground-truth oracles over finite rings.

The strong-cleanness scan and the Drazin-inverse oracle for
pi-regularity are the independent side of the two audits
(``theorem_main_audit`` and ``pi_regular_audit``), the only place the
package runs them: no decider consults an oracle.

The scan runs stalk by stalk, as the Pierce sheaf allows: A is strongly
clean iff each restriction A_i over the stalk ring S_i is, and the
per-stalk pairs (E_i, U_i) glue entry by entry into one pair over R.  A
finite stalk's raw values are 0 ... |S| - 1 in ``elements()`` order, so
they are the scan's element indices as they stand: ``_stalk_tables``
fills add, mul, neg and unit tables over them with the stalk's own
primitives, and A_i's raw values go to the pure-Python scan in
``_kernels`` unchanged.  Enumeration order is the canonical element order,
so results are deterministic.  ``_kernels`` is imported by the function
that runs it.

The tables are cached per interned stalk, so every ring with that stalk
shares them, and beside them the scan's idempotent index: for each matrix
size n, the candidates with E^2 = E in enumeration order, found lazily as
far as some scan has reached.  Every later scan of an n x n matrix over
the same stalk tests those idempotents first, in the same order, and a
hit's E is read off its index entry.

Neither oracle solves or eliminates anything.  ``_gl_exponent`` computes
M, a multiple of the exponent of GL_n(R), as the lcm of each stalk's
exponent, which comes from the stalk's residue field and nilpotency index,
once per stalk and size.  The scan's certificate takes U^-1 = U^(M-1), and
over a finite ring the Drazin inverse of A is a power of A too:
A^(2M-1), as M is past the Fitting index.  Both use only matrix products,
powers and equality.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import lcm

from .errors import DEFAULT_BUDGET, BudgetExceeded, InfiniteRing, UnsupportedSize
from .errors import enumeration_size
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
from .rings import Ring
from .stalks import factorize

ENCODE_CAP = 1024


@lru_cache(maxsize=None)
def _stalk_tables(s) -> tuple:
    """(add, mul, neg, unit, idempotent index) of a finite stalk, built once per stalk.

    The tables run over the raw values ``range(s.size)``; the index maps a
    matrix size n to the scan kernel's (idempotents found so far, their
    generator).
    """
    if s.size > ENCODE_CAP:
        raise UnsupportedSize(f"|R| = {s.size} exceeds the {ENCODE_CAP} encode cap")
    values = range(s.size)
    add, mul = s.add, s.mul
    return (
        [[add(a, b) for b in values] for a in values],
        [[mul(a, b) for b in values] for a in values],
        [s.neg(a) for a in values],
        [s.is_unit(a) for a in values],
        {},
    )


def strongly_clean_bruteforce(
    A: SquareMatrix, budget: int = DEFAULT_BUDGET
) -> StrongCleanCertificate | None:
    """Exhaustive scan for E with E^2 = E, EA = AE, A - E a unit.

    Scans A.restrict(i) over each stalk ring S_i and glues the first hit
    of every stalk into E.  Returns a verified certificate, or None when
    some stalk has no hit after scanning every candidate (definitive
    absence).  Raises when the ring is infinite or the sum over the stalks
    of |S_i|^(n^2) candidates exceeds the budget, before any scan starts.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing(f"brute force cannot scan {R.label()}")
    n = A.n
    totals = [enumeration_size(s.size, n * n, budget, "candidates") for s in R.stalks]
    if sum(totals) > budget:
        raise BudgetExceeded(f"{sum(totals)} candidates exceed budget {budget}")
    from . import _kernels

    perms, signs = _kernels.permutation_table(n)
    hits = []
    for i, (s, total) in enumerate(zip(R.stalks, totals)):
        add, mul, neg, unit, index = _stalk_tables(s)
        a = [[x.parts[0] for x in row] for row in A.restrict(i).rows]
        hit = _kernels.scan_strongly_clean(
            add, mul, neg, unit, a, n, perms, signs, s.one, s.zero, 0, total,
            idempotents=index,
        )
        if hit < 0:
            return None
        found = index[n][0]
        hits.append(found[bisect_left(found, (hit,))][1])
    E = SquareMatrix(
        R, [[R.from_parts([e[r][c] for e in hits]) for c in range(n)] for r in range(n)]
    )
    U = A - E
    U_inv = U ** (_gl_exponent(R, n) - 1)
    assert E @ E == E and E @ U == U @ E and U @ U_inv == SquareMatrix.identity(R, n)
    return StrongCleanCertificate(E, U, U_inv)


def _gl_exponent(R: Ring, n: int) -> int:
    """A multiple of the exponent of GL_n(R), for a finite ring R: the lcm
    of its stalks' ``_stalk_gl_exponent``."""
    return lcm(*(_stalk_gl_exponent(s, n) for s in R.stalks))


@lru_cache(maxsize=None)
def _stalk_gl_exponent(s, n: int) -> int:
    """A multiple of the exponent of GL_n(S), for a finite stalk S, computed
    once per (stalk, n).

    With maximal ideal m, m^N = 0 and residue field F_q of characteristic
    p, reduction mod m maps GL_n(S) into GL_n(F_q), whose exponent divides
    p^ceil(log_p n) * lcm(q - 1, ..., q^n - 1).  Its kernel I + M_n(m) has
    exponent dividing p^(N - 1): each p-th power takes I + M_n(m^j) into
    I + M_n(m^(j+1)), because p lies in m.  The result is at least n * N,
    since p^(N - 1) >= N and p^ceil(log_p n) >= n.
    """
    q = s.size // sum(not s.is_unit(a) for a in s.elements())
    p = factorize(q)[0][0]
    unipotent = 1
    while unipotent < n:
        unipotent *= p
    return lcm(p ** (s.nil_index() - 1) * unipotent, *(q**i - 1 for i in range(1, n + 1)))


def pi_regular_oracle(A: SquareMatrix) -> PiRegularCertificate | None:
    """Drazin-inverse oracle: the first k with A^{k+1}D = A^k, and D, as (k, D, D).

    D is a power of A (Drazin 1958).  By Fitting's lemma R^n = im e + ker e
    for an idempotent e commuting with A, with A invertible on im e and
    A^K = 0 on ker e once K = n * (max stalk nilpotency index): modulo a
    stalk's maximal ideal the nilpotent part vanishes within n steps, and
    the nilpotency index kills the rest.  So u = A e + (I - e) is a unit, and
    for M a multiple of the exponent of GL_n(R) with M >= K (``_gl_exponent``
    is one), A^M = u^M e = e and D = A^(2M-1) = u^-1 e is the Drazin
    inverse.  It commutes with A, so the witness D A^{k+1} = A^k holds with
    the same k.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing("the Drazin-inverse oracle needs a finite ring")
    K = A.n * R.max_nil_index()
    D = A ** (2 * _gl_exponent(R, A.n) - 1)
    Ak = A
    for k in range(1, K + 1):
        Ak1 = Ak @ A
        if Ak1 @ D == Ak:
            return PiRegularCertificate(k, D, D)
        Ak = Ak1
    return None
