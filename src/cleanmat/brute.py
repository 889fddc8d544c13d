"""Exhaustive ground-truth oracles over finite rings.

The strong-cleanness scan and the Drazin-inverse oracle for
pi-regularity are the independent side of the two audits
(``theorem_main_audit`` and ``pi_regular_audit``), the only place the
package runs them: no decider consults an oracle.

Both run stalk by stalk, as the Pierce sheaf allows, and a stalk's answer
is a pure function of the stalk and the restriction A_i =
``A.restrict(i)``: ``_stalk_scan`` and ``_stalk_drazin`` keep it in an
``lru_cache`` of ``factor.STALK_MEMO_CAP`` entries keyed by the interned
stalk and A_i (which compares by its raw grid), so rings and calls that
share a stalk matrix share its entry.  The oracles make their checks
first, then glue the stalk answers with ``SquareMatrix.glue``.

A finite stalk's raw values 0 ... |S| - 1 (in ``elements()`` order) are
the scan's element indices: ``_stalk_tables`` fills add, mul, neg and unit
tables over them once per stalk, beside the scan's idempotent index (per
size n, the E^2 = E candidates in enumeration order, found lazily as far
as some scan has reached).  A_i's raw values go to the pure-Python scan in
``_kernels``, imported by the function that runs it; enumeration order is
canonical, so results are deterministic.  A memo hit runs no scan.

Neither oracle solves anything.  ``_stalk_gl_exponent`` is M, a multiple
of the exponent of GL_n(S), from the stalk's residue field and nilpotency
index.  A stalk's certificate takes U^-1 = U^(M-1), and its Drazin inverse
is A_i^(2M-1), as M is past the Fitting index.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import lcm

from .errors import DEFAULT_BUDGET, BudgetExceeded, InfiniteRing, UnsupportedSize
from .errors import enumeration_size
from .factor import STALK_MEMO_CAP
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
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

    Glues each stalk's first hit E_i and its U_i^-1; None when some stalk
    has no hit among all its candidates (definitive absence).  Raises when
    the ring is infinite or the sum over the stalks of |S_i|^(n^2)
    candidates exceeds the budget, before any scan starts.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing(f"brute force cannot scan {R.label()}")
    n = A.n
    totals = [enumeration_size(s.size, n * n, budget, "candidates") for s in R.stalks]
    if sum(totals) > budget:
        raise BudgetExceeded(f"{sum(totals)} candidates exceed budget {budget}")
    hits = [_stalk_scan(s, A.restrict(i)) for i, s in enumerate(R.stalks)]
    if None in hits:
        return None
    E, U_inv = (SquareMatrix.glue(R, part) for part in zip(*hits))
    U = A - E
    assert E @ E == E and E @ U == U @ E and U @ U_inv == SquareMatrix.identity(R, n)
    return StrongCleanCertificate(E, U, U_inv)


@lru_cache(maxsize=STALK_MEMO_CAP)
def _stalk_scan(s, A: SquareMatrix) -> tuple | None:
    """(E, (A - E)^(M-1)) for the scan's first hit E on A over the finite
    stalk s, M = ``_stalk_gl_exponent(s, n)``; None if nothing hits."""
    from . import _kernels

    n = A.n
    add, mul, neg, unit, index = _stalk_tables(s)
    a = [[x.parts[0] for x in row] for row in A.rows]
    hit = _kernels.scan_strongly_clean(
        add, mul, neg, unit, a, n, *_kernels.permutation_table(n), s.one, s.zero,
        0, s.size ** (n * n), idempotents=index,
    )
    if hit < 0:
        return None
    found = index[n][0]
    S, e = A.ring, found[bisect_left(found, (hit,))][1]
    E = SquareMatrix(S, [[S.from_parts((x,)) for x in row] for row in e])
    return E, (A - E) ** (_stalk_gl_exponent(s, n) - 1)


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

    D glues the stalks' Drazin inverses.  On each stalk the identity holds
    from its first k on, so over R from the largest; D commutes with A, so
    the witness D A^{k+1} = A^k holds with the same k.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing("the Drazin-inverse oracle needs a finite ring")
    parts = [_stalk_drazin(s, A.restrict(i)) for i, s in enumerate(R.stalks)]
    if None in parts:
        return None
    ks, Ds = zip(*parts)
    D = SquareMatrix.glue(R, Ds)
    return PiRegularCertificate(max(ks), D, D)


@lru_cache(maxsize=STALK_MEMO_CAP)
def _stalk_drazin(s, A: SquareMatrix) -> tuple | None:
    """(k, D) for A over the finite stalk s: the first k with A^{k+1}D = A^k
    and D = A^(2M-1), M = ``_stalk_gl_exponent(s, n)``, the Drazin inverse.

    By Fitting's lemma S^n = im e + ker e for an idempotent e commuting with
    A, A invertible on im e and A^K = 0 on ker e, K = n * (nilpotency index
    of s).  So u = A e + (I - e) is a unit, and as u^M = I and M >= K,
    A^M = u^M e = e and A^(2M-1) = u^-1 e (Drazin 1958).
    """
    D = A ** (2 * _stalk_gl_exponent(s, A.n) - 1)
    AD, Ak = A @ D, A
    for k in range(1, A.n * s.nil_index() + 1):
        if Ak @ AD == Ak:
            return k, D
        Ak = Ak @ A
    return None
