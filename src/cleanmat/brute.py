"""Exhaustive ground-truth oracles over finite rings.

The strong-cleanness scan and the Drazin-inverse oracle for
pi-regularity are the independent side of the two audits
(``theorem_main_audit`` and ``pi_regular_audit``), the only place the
package runs them: no decider consults an oracle.  Finite rings are
encoded as numpy operation tables and handed to the scan in ``_kernels``;
enumeration order is the canonical element order, so results are
deterministic.  numpy and ``_kernels`` are imported by the functions that
use them, so importing this module does not load numpy.

Each ring's ``RingTable`` is encoded once and cached, and it also holds the
scan's idempotent index: for each matrix size n and chunk of the
enumeration, the candidates with E^2 = E.  The first scan that reaches a
chunk builds its entry, and every later scan of an n x n matrix over the
same ring tests only those idempotents, in the same order.

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
from typing import TYPE_CHECKING

from .errors import DEFAULT_BUDGET, InfiniteRing, UnsupportedSize, enumeration_size
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
from .rings import Element, Ring
from .stalks import factorize

if TYPE_CHECKING:
    import numpy as np

ENCODE_CAP = 1024


@dataclass
class RingTable:
    ring: Ring
    elements: list[Element]
    index: dict
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    unit: np.ndarray
    zero: int
    one: int
    # the scan kernel's idempotent index: (n, lo, hi) -> (indices, E arrays)
    idempotents: dict = field(default_factory=dict)


_TABLE_CACHE: dict[str, RingTable] = {}


def encode_ring(R: Ring) -> RingTable:
    if not R.is_finite:
        raise InfiniteRing(f"{R.label()} cannot be table-encoded")
    if R.size > ENCODE_CAP:
        raise UnsupportedSize(f"|R| = {R.size} exceeds the {ENCODE_CAP} encode cap")
    if R.key in _TABLE_CACHE:
        return _TABLE_CACHE[R.key]
    import numpy as np

    elems = list(R.elements())
    index = {e: i for i, e in enumerate(elems)}
    m = len(elems)
    add = np.empty((m, m), dtype=np.int64)
    mul = np.empty((m, m), dtype=np.int64)
    neg = np.empty(m, dtype=np.int64)
    unit = np.zeros(m, dtype=bool)
    for i, a in enumerate(elems):
        neg[i] = index[-a]
        unit[i] = R.is_unit(a)
        for j, b in enumerate(elems):
            add[i, j] = index[a + b]
            mul[i, j] = index[a * b]
    tab = RingTable(
        R, elems, index, add, mul, neg, unit, index[R.zero], index[R.one]
    )
    _TABLE_CACHE[R.key] = tab
    return tab


def encode_matrix(tab: RingTable, A: SquareMatrix) -> np.ndarray:
    import numpy as np

    return np.array(
        [[tab.index[x] for x in row] for row in A.rows], dtype=np.int64
    )


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

    Returns a verified certificate, or None after scanning every candidate
    (definitive absence).  Raises when the ring is infinite or the scan would
    exceed the budget.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing(f"brute force cannot scan {R.label()}")
    total = enumeration_size(R.size, A.n * A.n, budget, "candidates")
    from . import _kernels

    tab = encode_ring(R)
    perms, signs = _kernels.permutation_table(A.n)
    hit = _kernels.scan_strongly_clean(
        tab.add,
        tab.mul,
        tab.neg,
        tab.unit,
        encode_matrix(tab, A),
        A.n,
        perms,
        signs,
        tab.one,
        tab.zero,
        0,
        total,
        idempotents=tab.idempotents,
    )
    if hit < 0:
        return None
    E = decode_matrix(tab, hit, A.n)
    U = A - E
    U_inv = U ** (_gl_exponent(R, A.n) - 1)
    assert E @ E == E and E @ U == U @ E and U @ U_inv == SquareMatrix.identity(R, A.n)
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
