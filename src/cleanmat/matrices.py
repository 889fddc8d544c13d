"""Square matrices over a Ring: arithmetic, characteristic polynomials, solving.

A ``SquareMatrix`` is the family of its stalk matrices, as the Pierce sheaf
sees it: its only state besides ``ring`` and ``n`` is ``grids``, one raw grid
(a list of lists of raw stalk values) per stalk of the ring.
``SquareMatrix(ring, rows)`` unpacks Element rows once, and the ``rows``
property boxes Elements on demand, for serializing, printing and the
exhaustive scan's encoding.  Every operator (``+ - neg * @ ** == hash``) and
every public function (``transpose``, ``identity``, ``zeros``,
``companion``, ``sylvester``, ``char_poly``, ``inverse``, ``poly_at_matrix``,
``random_with_charpoly``, ``solve_matrix_equation``) runs one raw kernel per
stalk with that stalk's own ``dot``/``add``/``sub``/``mul``/``neg``/``inv``.
The kernels and the raw-grid format are private to this module: the
certificate constructions in ``decide`` and the verifiers in ``verify`` use
the public operations only.

The characteristic polynomial is computed by the Berkowitz algorithm, which
uses no divisions and is therefore valid over rings with zero divisors.  The
inverse is the Cayley-Hamilton one, -c_0^{-1} (A^{n-1} + c_{n-1} A^{n-2} +
... + c_1 I), and exists exactly when c_0 = (-1)^n det A is a unit on every
stalk.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BudgetExceeded, RingMismatch
from .intlinalg import solve_mod, solve_zloc
from .polys import Poly
from .rings import Element, Ring
from .stalks import TableStalk, ZLocStalk, ZModStalk

TABLE_SOLVE_BUDGET = 500_000


class SquareMatrix:
    __slots__ = ("ring", "n", "grids")

    def __init__(self, ring: Ring, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.ring = ring
        self.n = n
        self.grids = _unbox(ring, rows)

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of tuples of Elements, boxed on each access."""
        return _box(self.ring, self.grids)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "SquareMatrix":
        return _matrix(ring, [_raw_identity(s, n) for s in ring.stalks])

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> "SquareMatrix":
        return _matrix(ring, [[[s.zero] * n for _ in range(n)] for s in ring.stalks])

    @classmethod
    def from_ints(cls, ring: Ring, rows) -> "SquareMatrix":
        return cls(ring, [[ring.from_int(v) for v in row] for row in rows])

    def _check(self, other: "SquareMatrix"):
        if self.ring.key != other.ring.key or self.n != other.n:
            raise RingMismatch("matrix shape/ring mismatch")

    def _entrywise(self, other: "SquareMatrix", op: str) -> "SquareMatrix":
        """The stalk method ``op`` applied entry by entry to self and other."""
        self._check(other)
        grids = []
        for s, a, b in zip(self.ring.stalks, self.grids, other.grids):
            f = getattr(s, op)
            grids.append([[f(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)])
        return _matrix(self.ring, grids)

    def __add__(self, other):
        return self._entrywise(other, "add")

    def __sub__(self, other):
        return self._entrywise(other, "sub")

    def __neg__(self):
        return _matrix(
            self.ring,
            [
                [[s.neg(x) for x in row] for row in a]
                for s, a in zip(self.ring.stalks, self.grids)
            ],
        )

    def __matmul__(self, other):
        self._check(other)
        return _matrix(
            self.ring,
            [
                _raw_matmul(s, a, b)
                for s, a, b in zip(self.ring.stalks, self.grids, other.grids)
            ],
        )

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.ring.key != self.ring.key:
            raise RingMismatch("matrix and scalar over different rings")
        return _matrix(
            self.ring,
            [
                [[s.mul(x, c) for x in row] for row in a]
                for s, a, c in zip(self.ring.stalks, self.grids, other.parts)
            ],
        )

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            raise ValueError("negative powers not supported; invert first")
        return _matrix(
            self.ring,
            [_raw_power(s, a, k) for s, a in zip(self.ring.stalks, self.grids)],
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (
            self.ring.key == other.ring.key
            and self.n == other.n
            and self.grids == other.grids
        )

    def __hash__(self):
        return hash(
            (self.ring.key, self.n, tuple(tuple(map(tuple, a)) for a in self.grids))
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.ring.render_value(a)) for a in row) for row in self.rows
        )
        return f"<matrix [{body}] over {self.ring.label()}>"

    def column(self, j: int) -> tuple:
        """Column j as a tuple of Elements, boxed on each access."""
        return tuple(
            Element(self.ring, tuple(a[i][j] for a in self.grids)) for i in range(self.n)
        )

    def restrict(self, i: int) -> "SquareMatrix":
        return _matrix(self.ring.stalk_ring(i), [self.grids[i]])


def _matrix(ring: Ring, grids: list) -> SquareMatrix:
    """The matrix whose state is ``grids``, one raw grid per stalk of ``ring``."""
    M = object.__new__(SquareMatrix)
    M.ring = ring
    M.n = len(grids[0])
    M.grids = grids
    return M


def _unbox(ring: Ring, rows) -> list:
    """One raw grid per stalk from rows of Elements (any rectangular shape)."""
    return [
        [[e.parts[s] for e in row] for row in rows] for s in range(ring.num_stalks)
    ]


def _box(ring: Ring, grids) -> tuple:
    """Rows of Elements from one raw grid per stalk (any rectangular shape)."""
    return tuple(
        tuple([Element(ring, parts) for parts in zip(*stalk_rows)])
        for stalk_rows in zip(*grids)
    )


def companion(h: Poly) -> SquareMatrix:
    """Companion matrix: subdiagonal 1s, last column -coefficients."""
    if not h.is_monic or h.degree < 1:
        raise ValueError("companion needs a monic polynomial of degree >= 1")
    ring = h.ring
    n = h.degree
    grids = []
    for s, c in zip(ring.stalks, h.parts):
        a = [[s.zero] * n for _ in range(n)]
        for i in range(1, n):
            a[i][i - 1] = s.one
        for i in range(n):
            a[i][n - 1] = s.neg(c[i])
        grids.append(a)
    return _matrix(ring, grids)


def sylvester(f0: Poly, f1: Poly) -> SquareMatrix:
    """The matrix of (u, v) -> u*f0 + v*f1 on monomial bases, for monic f0, f1.

    Column j < deg f1 holds t^j * f0 and column deg f1 + j holds t^j * f1;
    the matrix is square of size deg f0 + deg f1.
    """
    if not f0.is_monic or not f1.is_monic:
        raise ValueError("sylvester needs monic polynomials")
    if f0.ring.key != f1.ring.key:
        raise RingMismatch("polynomials over different rings")
    d0, d1 = f0.degree, f1.degree
    grids = []
    for s, a, b in zip(f0.ring.stalks, f0.parts, f1.parts):
        z = s.zero
        cols = [[z] * j + list(a) + [z] * (d1 - 1 - j) for j in range(d1)]
        cols += [[z] * j + list(b) + [z] * (d0 - 1 - j) for j in range(d0)]
        grids.append([list(row) for row in zip(*cols)])
    return _matrix(f0.ring, grids)


def transpose(A: SquareMatrix) -> SquareMatrix:
    return _matrix(A.ring, [[list(col) for col in zip(*a)] for a in A.grids])


# -- raw per-stalk kernels -----------------------------------------------------------
#
# Each helper takes a stalk and raw grids of that stalk's values (lists of
# lists, n x n) and returns raw values; the matrix operations above and the
# public functions below wrap them, one call per stalk.


def _raw_identity(s, n: int) -> list:
    one, zero = s.one, s.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _raw_matmul(s, a: list, b: list) -> list:
    dot = s.dot
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def _raw_power(s, a: list, k: int) -> list:
    """a^k by binary powering, k >= 0."""
    acc = _raw_identity(s, len(a))
    while k:
        if k & 1:
            acc = _raw_matmul(s, acc, a)
        k >>= 1
        if k:
            a = _raw_matmul(s, a, a)
    return acc


def _raw_berkowitz(s, a: list) -> list:
    """Coefficients of det(tI - a), highest degree first."""
    n = len(a)
    if n == 0:
        return [s.one]
    if n == 1:
        return [s.one, s.neg(a[0][0])]
    dot, neg = s.dot, s.neg
    top = a[0][1:]
    sub = [row[1:] for row in a[1:]]
    vec = [row[0] for row in a[1:]]
    # items[k + 2] = -top . sub^k . vec for k = 0 .. n-2
    items = [s.one, neg(a[0][0]), neg(dot(top, vec))]
    for _ in range(n - 2):
        vec = [dot(row, vec) for row in sub]
        items.append(neg(dot(top, vec)))
    # items has length n+1; the (n+1) x n Toeplitz product with the
    # Berkowitz vector of the trailing principal submatrix.
    d = _raw_berkowitz(s, sub)
    return [dot(items[r::-1], d[: r + 1]) for r in range(n + 1)]


def _raw_char_poly(s, a: list) -> list:
    """Coefficients of det(tI - a), lowest degree first."""
    return _raw_berkowitz(s, a)[::-1]


def _raw_horner(s, coeffs, a: list) -> list:
    """sum coeffs[k] a^k (Horner; coefficients lowest degree first, trimmed).

    A stalk's coefficients carry no trailing zeros (a ``Poly`` stalk is
    trimmed, a char poly ends in 1), so a polynomial glued from factors of
    different degrees costs each stalk only its own degree in matmuls.  The
    leading coefficient starts the scalar matrix, and each later step adds
    its coefficient on the diagonal of ``acc @ a``.
    """
    n = len(a)
    add, zero = s.add, s.zero
    if not coeffs:
        return [[zero] * n for _ in range(n)]
    lead = coeffs[-1]
    acc = [[lead if i == j else zero for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = _raw_matmul(s, acc, a)
        for i in range(n):
            acc[i][i] = add(acc[i][i], c)
    return acc


def _raw_inverse(s, a: list, chi: list, c0_inv) -> list:
    """-c0^{-1} (chi[1:])(a), checked against a on the raw grids."""
    k = s.neg(c0_inv)
    mul = s.mul
    inv = [[mul(x, k) for x in row] for row in _raw_horner(s, chi[1:], a)]
    assert _raw_matmul(s, inv, a) == _raw_identity(s, len(a))
    return inv


def _raw_inverses(stalks, grids):
    """One inverse grid per stalk, or None when det is not a unit on some stalk.

    Every stalk's char poly and c_0 inverse come first, so a matrix that is
    singular on some stalk costs no Horner step on any.
    """
    polys = []
    for s, a in zip(stalks, grids):
        chi = _raw_char_poly(s, a)
        c0_inv = s.inv(chi[0])
        if c0_inv is None:
            return None
        polys.append((chi, c0_inv))
    return [
        _raw_inverse(s, a, chi, c0_inv)
        for s, a, (chi, c0_inv) in zip(stalks, grids, polys)
    ]


# -- public matrix functions ---------------------------------------------------------


def char_poly(A: SquareMatrix) -> Poly:
    """Monic characteristic polynomial det(tI - A), by Berkowitz."""
    ring = A.ring
    p = Poly.from_parts(ring, [_raw_char_poly(s, a) for s, a in zip(ring.stalks, A.grids)])
    assert p.is_monic and p.degree == A.n
    return p


def inverse(A: SquareMatrix):
    """Inverse via Cayley-Hamilton, or None when det is not a unit."""
    inv = _raw_inverses(A.ring.stalks, A.grids)
    return None if inv is None else _matrix(A.ring, inv)


def poly_at_matrix(f: Poly, A: SquareMatrix) -> SquareMatrix:
    """Evaluate a polynomial at a matrix argument (Horner, stalk by stalk)."""
    ring = A.ring
    if f.ring.key != ring.key:
        raise RingMismatch("polynomial and matrix over different rings")
    return _matrix(
        ring,
        [
            _raw_horner(s, c, a)
            for s, c, a in zip(ring.stalks, f.parts, A.grids)
        ],
    )


@dataclass
class StrongCleanCertificate:
    """A = E + U with E idempotent, U invertible, EU = UE."""

    E: SquareMatrix
    U: SquareMatrix
    U_inv: SquareMatrix


@dataclass
class PiRegularCertificate:
    """Witnesses A^{k+1} X = A^k and Y A^{k+1} = A^k."""

    k: int
    X: SquareMatrix
    Y: SquareMatrix


# -- linear solving ----------------------------------------------------------------


def linear_solve(ring: Ring, mat_rows, rhs_rows):
    """One solution X (rows of Elements) of mat*X = rhs, or None."""
    x = _solve_grids(ring, _unbox(ring, mat_rows), _unbox(ring, rhs_rows))
    return None if x is None else _box(ring, x)


def _solve_grids(ring: Ring, mats, rhss):
    """One raw solution grid per stalk of m*X = b, or None.

    Z/p^k and Z_(p) stalks lift to integer systems solved via Smith normal
    form; table stalks fall back to exhaustive search.  Free coordinates are
    fixed to 0, so the answer is canonical.
    """
    out = []
    for stalk, m, b in zip(ring.stalks, mats, rhss):
        if isinstance(stalk, ZModStalk):
            x = solve_mod(m, b, stalk.q)
        elif isinstance(stalk, ZLocStalk):
            x = solve_zloc(m, b, stalk.p)
        elif isinstance(stalk, TableStalk):
            x = _solve_table(stalk, m, b)
        else:  # pragma: no cover
            raise AssertionError(f"unknown stalk {stalk!r}")
        if x is None:
            return None
        out.append(x)
    return out


def _solve_table(stalk: TableStalk, m, b):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    k = len(b[0]) if b and b[0] else 0
    size = stalk.size
    if size**cols > TABLE_SOLVE_BUDGET:
        raise BudgetExceeded(
            f"table solve over {size}^{cols} candidate vectors exceeds budget"
        )
    out_cols = []
    for col in range(k):
        target = [b[i][col] for i in range(rows)]
        found = None
        for cand in itertools.product(stalk.elements(), repeat=cols):
            ok = True
            for i in range(rows):
                acc = stalk.zero
                for j in range(cols):
                    acc = stalk.add(acc, stalk.mul(m[i][j], cand[j]))
                if acc != target[i]:
                    ok = False
                    break
            if ok:
                found = cand
                break
        if found is None:
            return None
        out_cols.append(found)
    return [[out_cols[col][i] for col in range(k)] for i in range(cols)]


def solve_matrix_equation(A: SquareMatrix, B: SquareMatrix):
    A._check(B)
    x = _solve_grids(A.ring, A.grids, B.grids)
    return None if x is None else _matrix(A.ring, x)


# -- seeded similar matrices ----------------------------------------------------------


def random_with_charpoly(h: Poly, seed: int) -> SquareMatrix:
    """A seeded random conjugate P*C_h*P^{-1}; char poly is exactly h.

    P is drawn entry by entry, row-major, with one ``random`` per stalk in
    stalk order (the order of ``Ring.random_element``), and split into
    per-stalk raw grids; P^{-1}, the product and the char-poly check run on
    those grids.
    """
    ring = h.ring
    n = h.degree
    C = companion(h)
    if n == 1:
        return C
    stalks = ring.stalks
    rng = random.Random(seed)

    def draw():
        return tuple(s.random(rng) for s in stalks)

    def grids(entries):
        return [[[e[k] for e in row] for row in entries] for k in range(len(stalks))]

    for _ in range(64):
        P = grids([[draw() for _ in range(n)] for _ in range(n)])
        P_inv = _raw_inverses(stalks, P)
        if P_inv is not None:
            break
    else:
        # unit-triangular product: always invertible, still seed-dependent
        one, zero = ring.one.parts, ring.zero.parts
        up = [[one if i == j else zero for j in range(n)] for i in range(n)]
        lo = [row[:] for row in up]
        for i in range(n):
            for j in range(n):
                if i < j:
                    up[i][j] = draw()
                elif i > j:
                    lo[i][j] = draw()
        P = [_raw_matmul(s, u, v) for s, u, v in zip(stalks, grids(up), grids(lo))]
        P_inv = _raw_inverses(stalks, P)
    A = [
        _raw_matmul(s, _raw_matmul(s, p, c), p_inv)
        for s, p, c, p_inv in zip(stalks, P, C.grids, P_inv)
    ]
    for s, a, c in zip(stalks, A, h.parts):
        assert tuple(_raw_char_poly(s, a)) == c
    return _matrix(ring, A)
