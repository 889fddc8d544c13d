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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DEFAULT_BUDGET, InfiniteRing, UnsupportedSize, enumeration_size
from .matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    inverse,
    solve_matrix_equation,
)
from .rings import Element, Ring

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
    U_inv = inverse(U)
    assert U_inv is not None and E @ E == E and E @ U == U @ E
    return StrongCleanCertificate(E, U, U_inv)


def pi_regular_oracle(A: SquareMatrix) -> PiRegularCertificate | None:
    """Drazin-inverse oracle: the first k with A^{k+1}D = A^k = DA^{k+1}, and D.

    Each step solves A^{k+1}X = A^k once and forms D = A^k X^{k+1}.  When a
    left witness YA^{k+1} = A^k exists as well, D is the unique Drazin
    inverse of A (Drazin 1958), so DA^{k+1} = A^k; when that holds, D is
    itself a left witness.  The certificate is (k, D, D).

    The chain bound k <= n * (max stalk nilpotency index) suffices: modulo the
    stalk maximal ideal the Fitting chain stabilizes within n steps, and the
    nilpotent correction is killed by the nilpotency index.
    """
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing("the Drazin-inverse oracle needs a finite ring")
    K = A.n * R.max_nil_index()
    Ak = A
    for k in range(1, K + 1):
        Ak1 = Ak @ A
        X = solve_matrix_equation(Ak1, Ak)
        if X is not None:
            D = Ak @ X ** (k + 1)
            if D @ Ak1 == Ak:
                return PiRegularCertificate(k, D, D)
        Ak = Ak1
    return None
