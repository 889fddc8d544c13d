"""Exhaustive ground-truth oracles over finite rings.

The strong-cleanness scan and the Drazin-inverse oracle for
pi-regularity are the independent side of the two audits
(``theorem_main_audit`` and ``pi_regular_audit``), the only place the
package runs them: no decider consults an oracle.

The scan runs stalk by stalk, as the Pierce sheaf allows: A is strongly
clean iff each restriction A_i over the stalk ring S_i is, and the
per-stalk pairs (E_i, U_i) glue entry by entry into one pair over R.  Each
stalk ring is encoded as Python lists of element indices (add, mul, neg
and unit tables, filled from the stalk's raw values; a ring of several
stalks glues its stalks' tables in mixed radix) and handed to the
pure-Python scan in ``_kernels``; enumeration order is the canonical
element order, so results are deterministic.  ``_kernels`` is imported by
the function that runs it.

Each stalk ring's ``RingTable`` is encoded once and cached, and it also
holds the scan's idempotent index: for each matrix size n, the candidates
with E^2 = E in enumeration order, found lazily as far as some scan has
reached.  Every later scan of an n x n matrix over the same stalk ring
tests those idempotents first, in the same order.

Neither oracle solves or eliminates anything.  ``_gl_exponent`` computes
M, a multiple of the exponent of GL_n(R), from each stalk's residue field
and nilpotency index, once per ring and size.  The scan's certificate takes
U^-1 = U^(M-1), and over a finite ring the Drazin inverse of A is a power
of A too: A^(2M-1), as M is past the Fitting index.  Both use only matrix
products, powers and equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .errors import DEFAULT_BUDGET, BudgetExceeded, InfiniteRing, UnsupportedSize
from .errors import enumeration_size
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
from .rings import Element, Ring
from .stalks import factorize

ENCODE_CAP = 1024


@dataclass
class RingTable:
    ring: Ring
    elements: list[Element]
    index: dict
    add: list[list[int]]
    mul: list[list[int]]
    neg: list[int]
    unit: list[bool]
    zero: int
    one: int
    # the scan kernel's idempotent index: n -> (idempotents found so far, their generator)
    idempotents: dict = field(default_factory=dict)


_TABLE_CACHE: dict[str, RingTable] = {}


def encode_ring(R: Ring) -> RingTable:
    if not R.is_finite:
        raise InfiniteRing(f"{R.label()} cannot be table-encoded")
    if R.size > ENCODE_CAP:
        raise UnsupportedSize(f"|R| = {R.size} exceeds the {ENCODE_CAP} encode cap")
    if R.key in _TABLE_CACHE:
        return _TABLE_CACHE[R.key]
    add, mul, neg, unit = _stalk_tables(R.stalks[0])
    for s in R.stalks[1:]:
        # elements run in mixed radix, the first stalk most significant
        add2, mul2, neg2, unit2 = _stalk_tables(s)
        m = len(neg2)
        add = [[x * m + y for x in ra for y in rb] for ra in add for rb in add2]
        mul = [[x * m + y for x in ra for y in rb] for ra in mul for rb in mul2]
        neg = [x * m + y for x in neg for y in neg2]
        unit = [a and b for a in unit for b in unit2]
    elems = list(R.elements())
    index = {e: i for i, e in enumerate(elems)}
    tab = RingTable(R, elems, index, add, mul, neg, unit, index[R.zero], index[R.one])
    _TABLE_CACHE[R.key] = tab
    return tab


def _stalk_tables(s) -> tuple:
    """Stalk s's add, mul, neg and unit tables on its element indices, from raw values."""
    values = list(s.elements())
    index = {v: i for i, v in enumerate(values)}
    add, mul = s.add, s.mul
    return (
        [[index[add(a, b)] for b in values] for a in values],
        [[index[mul(a, b)] for b in values] for a in values],
        [index[s.neg(a)] for a in values],
        [s.is_unit(a) for a in values],
    )


def encode_matrix(tab: RingTable, A: SquareMatrix) -> list[list[int]]:
    return [[tab.index[x] for x in row] for row in A.rows]


def decode_matrix(tab: RingTable, flat_index: int, n: int) -> SquareMatrix:
    m = len(tab.elements)
    entries = []
    rem = flat_index
    for _ in range(n * n):
        entries.append(rem % m)
        rem //= m
    entries.reverse()
    rows = [
        [tab.elements[entries[i * n + j]] for j in range(n)] for i in range(n)
    ]
    return SquareMatrix(tab.ring, rows)


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
    for i, total in enumerate(totals):
        tab = encode_ring(R.stalk_ring(i))
        a = encode_matrix(tab, A.restrict(i))
        hit = _kernels.scan_strongly_clean(
            tab.add, tab.mul, tab.neg, tab.unit, a, n, perms, signs, tab.one, tab.zero,
            0, total, idempotents=tab.idempotents,
        )
        if hit < 0:
            return None
        hits.append(decode_matrix(tab, hit, n).rows)
    E = SquareMatrix(
        R,
        [
            [R.from_parts([Ei[r][c].parts[0] for Ei in hits]) for c in range(n)]
            for r in range(n)
        ],
    )
    U = A - E
    U_inv = U ** (_gl_exponent(R, n) - 1)
    assert E @ E == E and E @ U == U @ E and U @ U_inv == SquareMatrix.identity(R, n)
    return StrongCleanCertificate(E, U, U_inv)


# (ring key, n) -> ``_gl_exponent(R, n)``
_GL_EXPONENTS: dict = {}


def _gl_exponent(R: Ring, n: int) -> int:
    """A multiple of the exponent of GL_n(R), for a finite ring R, computed
    once per (ring key, n).

    On a stalk S with maximal ideal m, m^N = 0 and residue field F_q of
    characteristic p, reduction mod m maps GL_n(S) into GL_n(F_q), whose
    exponent divides p^ceil(log_p n) * lcm(q - 1, ..., q^n - 1).  Its kernel
    I + M_n(m) has exponent dividing p^(N - 1): each p-th power takes
    I + M_n(m^j) into I + M_n(m^(j+1)), because p lies in m.  The result is
    at least n * N for every stalk, since p^(N - 1) >= N and
    p^ceil(log_p n) >= n.
    """
    key = (R.key, n)
    if key in _GL_EXPONENTS:
        return _GL_EXPONENTS[key]
    exponent = 1
    for s in R.stalks:
        q = s.size // sum(not s.is_unit(a) for a in s.elements())
        p = factorize(q)[0][0]
        unipotent = 1
        while unipotent < n:
            unipotent *= p
        exponent = lcm(
            exponent,
            p ** (s.nil_index() - 1) * unipotent,
            *(q**i - 1 for i in range(1, n + 1)),
        )
    _GL_EXPONENTS[key] = exponent
    return exponent


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
