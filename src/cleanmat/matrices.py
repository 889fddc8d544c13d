"""Square matrices over a Ring: arithmetic, char polys, similar samples.

A ``SquareMatrix`` is the family of its stalk matrices, as the Pierce sheaf
sees it: its only state besides ``ring`` and ``n`` is ``grids``, one raw grid
(a list of lists of raw stalk values) per stalk of the ring.
``SquareMatrix(ring, rows)`` unpacks Element rows once, and the ``rows``
property boxes Elements on demand, for serializing, printing and the
exhaustive scan's encoding.  Every operator (``+ - neg * @ ** == hash``) and
every public function (``identity``, ``zeros``, ``companion``,
``char_poly``, ``poly_at_matrix``, ``random_with_charpoly``) runs one raw
kernel per stalk with that stalk's own
``matmul``/``dot``/``submul``/``add``/``sub``/``mul``/``neg``/``inv``.
Every multi-term step calls a primitive that reduces once per result: a
product (of ``@``, ``**`` and each Horner step) is one stalk ``matmul``, a
Berkowitz step is one ``dot``, and a transvection step is one
``submul(x, f, y) = x - f*y`` per entry, never a ``mul`` then a ``sub``.
The kernels and the raw-grid format are private to this module: the
certificate constructions in ``decide`` and the verifiers in ``verify`` use
the public operations only.

The characteristic polynomial is computed by the Berkowitz algorithm, which
uses no divisions and is therefore valid over rings with zero divisors.
Nothing here eliminates or inverts a matrix: ``random_with_charpoly``
conjugates a companion matrix by elementary operations, each row operation
followed by the column operation of its inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import RingMismatch
from .polys import Poly
from .rings import Element, Ring


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
            [s.matmul(a, b) for s, a, b in zip(self.ring.stalks, self.grids, other.grids)],
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
            raise ValueError("negative powers not supported")
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

    def restrict(self, i: int) -> "SquareMatrix":
        return _matrix(self.ring.stalk_ring(i), [self.grids[i]])

    @classmethod
    def glue(cls, ring: Ring, parts) -> "SquareMatrix":
        """The inverse of ``restrict``: ``parts[i]`` is the restriction to stalk i."""
        return _matrix(ring, [M.grids[0] for M in parts])


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


# -- raw per-stalk kernels -----------------------------------------------------------
#
# Each helper takes a stalk and raw grids of that stalk's values (lists of
# lists, n x n) and returns raw values; the matrix operations above and the
# public functions below wrap them, one call per stalk.


def _raw_identity(s, n: int) -> list:
    one, zero = s.one, s.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _raw_power(s, a: list, k: int) -> list:
    """a^k by binary powering, k >= 0, with no product by the identity.

    For k == 1 the result is a itself: a matrix's grids are never changed
    once it is built, so the two matrices may share them.
    """
    if not k:
        return _raw_identity(s, len(a))
    matmul = s.matmul
    acc = None
    while True:
        if k & 1:
            acc = a if acc is None else matmul(acc, a)
        k >>= 1
        if not k:
            return acc
        a = matmul(a, a)


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
    different degrees costs each stalk matmuls for its own degree only.  The
    first step needs no matmul: for degree d >= 1 it starts from
    lead*a + c_{d-1}*I, so a degree-d stalk costs d - 1 matmuls, and each
    later step adds its coefficient on the diagonal of ``acc @ a``.
    """
    n = len(a)
    add, zero = s.add, s.zero
    if not coeffs:
        return [[zero] * n for _ in range(n)]
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return [[lead if i == j else zero for j in range(n)] for i in range(n)]
    mul, matmul = s.mul, s.matmul
    acc = [[mul(lead, x) for x in row] for row in a]
    for i in range(n):
        acc[i][i] = add(acc[i][i], coeffs[-2])
    for c in reversed(coeffs[:-2]):
        acc = matmul(acc, a)
        for i in range(n):
            acc[i][i] = add(acc[i][i], c)
    return acc


def _raw_transvect(s, a: list, i: int, j: int, c) -> None:
    """a <- T a T^{-1} in place, for T = I + c e_ij (i != j).

    T adds c * (row j) to row i, and T^{-1} on the right subtracts
    c * (column i) from column j: one ``submul`` per entry.
    """
    submul, nc = s.submul, s.neg(c)
    a[i] = [submul(x, nc, y) for x, y in zip(a[i], a[j])]
    for row in a:
        row[j] = submul(row[j], c, row[i])


def _raw_scale(s, a: list, i: int, u) -> None:
    """a <- D a D^{-1} in place, for D = I with the unit u at (i, i)."""
    mul, u_inv = s.mul, s.inv(u)
    a[i] = [mul(x, u) for x in a[i]]
    for row in a:
        row[i] = mul(row[i], u_inv)


# -- public matrix functions ---------------------------------------------------------


def char_poly(A: SquareMatrix) -> Poly:
    """Monic characteristic polynomial det(tI - A), by Berkowitz."""
    ring = A.ring
    p = Poly.from_parts(ring, [_raw_char_poly(s, a) for s, a in zip(ring.stalks, A.grids)])
    assert p.is_monic and p.degree == A.n
    return p


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


# -- seeded similar matrices ----------------------------------------------------------


def random_with_charpoly(h: Poly, seed: int) -> SquareMatrix:
    """A seeded conjugate P*C_h*P^{-1}; char poly is exactly h.

    P is a word of elementary operations, applied to C_h's per-stalk grids
    in place: four sweeps of transvections T_ij(c), lower triangle, upper,
    lower, upper, then one diagonal unit per index.  Each coefficient is
    drawn with one ``random`` per stalk in stalk order (the order of
    ``Ring.random_element``).  A diagonal draw x gives u = x where x is a
    unit and u = 1 + x where it is not, a unit on a local stalk either way.
    Over a local ring every unitriangular matrix is one sweep, four
    alternating sweeps give every matrix of determinant 1 (a local ring has
    stable rank 1) and the diagonal the rest of GL_n, so every conjugate of
    C_h has a seed.
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

    lower = [(i, j) for i in range(n) for j in range(i)]
    upper = [(j, i) for i, j in lower]
    word = [(i, j, draw()) for i, j in (lower + upper) * 2]
    units = [draw() for _ in range(n)]
    for k, (s, a) in enumerate(zip(stalks, C.grids)):
        for i, j, c in word:
            _raw_transvect(s, a, i, j, c[k])
        for i, x in enumerate(units):
            u = x[k] if s.is_unit(x[k]) else s.add(s.one, x[k])
            _raw_scale(s, a, i, u)
        assert tuple(_raw_char_poly(s, a)) == h.parts[k]
    return C

