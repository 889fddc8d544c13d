"""Square matrices over a Ring: arithmetic, characteristic polynomials, solving.

A ``SquareMatrix`` is the family of its stalk matrices, as the Pierce sheaf
sees it: its only state besides ``ring`` and ``n`` is ``grids``, one raw grid
(a list of lists of raw stalk values) per stalk of the ring.
``SquareMatrix(ring, rows)`` unpacks Element rows once, and the ``rows``
property boxes Elements on demand, for serializing, printing and the
exhaustive scan's encoding.  Every operator (``+ - neg * @ ** == hash``) and
every public function (``identity``, ``zeros``, ``companion``,
``sylvester``, ``sylvester_solve``, ``char_poly``, ``inverse``,
``poly_at_matrix``, ``random_with_charpoly``, ``solve_matrix_equation``) runs
one raw kernel per stalk with that stalk's own
``dot``/``submul``/``add``/``sub``/``mul``/``neg``/``inv``.  Every multi-term
step calls a primitive that reduces once per result: a product entry or a
Berkowitz step is one ``dot``, and an elimination step is one
``submul(x, f, y) = x - f*y`` per entry, never a ``mul`` then a ``sub``.
The kernels and the raw-grid format are private to this module: the
certificate constructions in ``decide`` and the verifiers in ``verify`` use
the public operations only.

The characteristic polynomial is computed by the Berkowitz algorithm, which
uses no divisions and is therefore valid over rings with zero divisors.
Inverting and solving are eliminations on each local stalk, in the stalk's
own arithmetic.  Over a local ring a matrix is invertible exactly when
Gauss-Jordan finds a unit pivot in every column, so ``inverse`` pivots on
the first unit of each column and stops at a column that has none, and
``sylvester_solve`` solves one Sylvester system M x = e_0 by forward
elimination on the same pivots and back substitution.  Z/p^k and Z_(p) are
chain rings: an entry of least valuation divides every entry of its block,
so ``solve_matrix_equation`` pivots on one (a row swap and a column swap),
back-substitutes with the free coordinates 0 and finds the system solvable
exactly when each reduced right-hand side is divisible by its pivot.  A
table stalk need not be a chain ring; its systems are searched exhaustively
under a budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import RingMismatch, enumeration_size
from .polys import Poly
from .rings import Element, Ring
from .stalks import TableStalk

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
    return _matrix(
        f0.ring,
        [_raw_sylvester(s, a, b) for s, a, b in zip(f0.ring.stalks, f0.parts, f1.parts)],
    )


def sylvester_solve(f0: Poly, f1: Poly):
    """(u, v) with u*f0 + v*f1 = 1 and deg u < deg f1, deg v < deg f0, or None.

    For monic f0, f1 of degree >= 1 (anything else raises ``ValueError``)
    this is the solution of M (u, v) = e_0 for M = ``sylvester(f0, f1)``, by
    one unit-pivot elimination per stalk.
    It is None exactly when some stalk's M has a column with no unit pivot,
    that is when the resultant is not a unit.  Both polynomials are tested
    for monicity in one pass over the stalks, before any solve.
    """
    if f0.ring.key != f1.ring.key:
        raise RingMismatch("polynomials over different rings")
    stalks = f0.ring.stalks
    n0, n1 = len(f0.parts[0]), len(f1.parts[0])
    if min(n0, n1) < 2 or not all(
        len(a) == n0 and len(b) == n1 and a[-1] == s.one and b[-1] == s.one
        for s, a, b in zip(stalks, f0.parts, f1.parts)
    ):
        raise ValueError("a Sylvester solve needs monic polynomials of degree >= 1")
    d1 = n1 - 1
    us, vs = [], []
    for s, a, b in zip(stalks, f0.parts, f1.parts):
        m = _raw_sylvester(s, a, b)
        x = _raw_unit_solve(s, m, [s.one] + [s.zero] * (len(m) - 1))
        if x is None:
            return None
        us.append(x[:d1])
        vs.append(x[d1:])
    return Poly.from_parts(f0.ring, us), Poly.from_parts(f0.ring, vs)


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


def _raw_inverse(s, a: list):
    """The inverse grid of a by Gauss-Jordan on a local stalk, or None.

    Column c pivots on its first unit at or below the diagonal.  When it has
    none, a is block triangular over the columns already cleared, and the
    trailing block has a column in the maximal ideal, so det a is not a unit.
    The elimination runs in place: once column c is cleared it holds column
    c of the inverse of the row-swapped matrix, and the swaps permute the
    columns of the result back at the end.
    """
    n = len(a)
    is_unit, mul, submul, zero = s.is_unit, s.mul, s.submul, s.zero
    m = [list(row) for row in a]
    perm = list(range(n))
    for c in range(n):
        for p in range(c, n):
            if is_unit(m[p][c]):
                break
        else:
            return None
        m[c], m[p], perm[c], perm[p] = m[p], m[c], perm[p], perm[c]
        k = s.inv(m[c][c])
        m[c][c] = s.one
        top = m[c] = [mul(x, k) for x in m[c]]
        for r in range(n):
            f = m[r][c]
            if r != c and f != zero:
                m[r][c] = zero
                m[r] = [submul(x, f, y) for x, y in zip(m[r], top)]
    order = sorted(range(n), key=perm.__getitem__)
    inv = [[row[k] for k in order] for row in m]
    assert _raw_matmul(s, inv, a) == _raw_identity(s, n)
    return inv


def _raw_unit_solve(s, a: list, b: list):
    """The solution x of a x = b on a local stalk, or None when det a is not a unit.

    Forward elimination pivots column c on its first unit at or below the
    diagonal, the same pivots as ``_raw_inverse``, so it fails at the same
    column; back substitution then scales by the stored pivot inverses.
    """
    n = len(a)
    is_unit, mul, sub, submul, zero = s.is_unit, s.mul, s.sub, s.submul, s.zero
    m = [row + [v] for row, v in zip(a, b)]
    pivot_inv = []
    for c in range(n):
        for p in range(c, n):
            if is_unit(m[p][c]):
                break
        else:
            return None
        m[c], m[p] = m[p], m[c]
        k = s.inv(m[c][c])
        pivot_inv.append(k)
        top = m[c][c + 1 :]
        for r in range(c + 1, n):
            row = m[r]
            if row[c] != zero:
                f = mul(row[c], k)
                row[c + 1 :] = [submul(x, f, y) for x, y in zip(row[c + 1 :], top)]
    x = [zero] * n
    for c in reversed(range(n)):
        row = m[c]
        x[c] = mul(sub(row[n], s.dot(row[c + 1 : n], x[c + 1 :])), pivot_inv[c])
    return x


def _raw_sylvester(s, a, b) -> list:
    """The Sylvester grid of two monic stalk polynomials a, b (see ``sylvester``)."""
    d0, d1 = len(a) - 1, len(b) - 1
    z = s.zero
    cols = [[z] * j + list(a) + [z] * (d1 - 1 - j) for j in range(d1)]
    cols += [[z] * j + list(b) + [z] * (d0 - 1 - j) for j in range(d0)]
    return [list(row) for row in zip(*cols)]


def _raw_inverses(stalks, grids):
    """One inverse grid per stalk, or None when some stalk's grid has none."""
    out = []
    for s, a in zip(stalks, grids):
        inv = _raw_inverse(s, a)
        if inv is None:
            return None
        out.append(inv)
    return out


# -- public matrix functions ---------------------------------------------------------


def char_poly(A: SquareMatrix) -> Poly:
    """Monic characteristic polynomial det(tI - A), by Berkowitz."""
    ring = A.ring
    p = Poly.from_parts(ring, [_raw_char_poly(s, a) for s, a in zip(ring.stalks, A.grids)])
    assert p.is_monic and p.degree == A.n
    return p


def inverse(A: SquareMatrix):
    """The inverse of A, or None when det A is not a unit.

    Gauss-Jordan runs on each stalk and pivots on a unit; a stalk with a
    column that has no unit pivot makes the answer None.
    """
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


def _solve_grids(ring: Ring, mats, rhss):
    """One raw solution grid per stalk of m*X = b (all n x n), or None.

    Z/p^k and Z_(p) stalks run the least-valuation elimination; table stalks
    search exhaustively.  Free coordinates are 0, so the answer is canonical.
    """
    out = []
    for stalk, m, b in zip(ring.stalks, mats, rhss):
        solve = _solve_table if isinstance(stalk, TableStalk) else _solve_chain
        x = solve(stalk, m, b)
        if x is None:
            return None
        out.append(x)
    return out


def _least_valuation(s, m: list, t: int):
    """(i, j) of the first nonzero entry of least valuation in m[t:][t:], or None."""
    cells = [
        (s.valuation(x), i, j)
        for i in range(t, len(m))
        for j, x in enumerate(m[i][t:], t)
        if x != s.zero
    ]
    return min(cells)[1:] if cells else None


def _solve_chain(s, m, b):
    """One solution of m*X = b on a chain stalk (Z/p^k or Z_(p)), or None.

    Step t moves an entry of least valuation in the trailing block to (t, t)
    by a row swap and a column swap.  It divides every entry of that block,
    so ``s.divide`` clears the column below it.  Row i of the reduced system
    is then d_i (y_i + sum_j u_ij y_j) = b_i, which is solvable exactly when
    d_i divides b_i, and rows past the rank need b_i = 0.  Back substitution
    sets the free coordinates to 0 and divides each reduced right-hand side
    by its pivot.
    """
    n = len(m)
    zero, sub, submul = s.zero, s.sub, s.submul
    m = [list(row) for row in m]
    b = [list(row) for row in b]
    perm = list(range(n))
    rank = 0
    for t in range(n):
        at = _least_valuation(s, m, t)
        if at is None:
            break
        i, j = at
        m[t], m[i], b[t], b[i] = m[i], m[t], b[i], b[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        perm[t], perm[j] = perm[j], perm[t]
        d, top, rhs = m[t][t], m[t], b[t]
        for r in range(t + 1, n):
            if m[r][t] != zero:
                f = s.divide(m[r][t], d)
                m[r] = [submul(x, f, y) for x, y in zip(m[r], top)]
                b[r] = [submul(x, f, y) for x, y in zip(b[r], rhs)]
        rank = t + 1
    if any(x != zero for row in b[rank:] for x in row):
        return None
    y = [[zero] * n for _ in range(n)]
    for i in reversed(range(rank)):
        for c in range(n):
            r = sub(b[i][c], s.dot(m[i][i + 1 : rank], [y[j][c] for j in range(i + 1, rank)]))
            y[i][c] = s.divide(r, m[i][i])
            if y[i][c] is None:
                return None
    return [row for _, row in sorted(zip(perm, y))]


def _solve_table(stalk: TableStalk, m, b):
    """One solution of m*X = b by trying every column vector, first found."""
    n, dot = len(m), stalk.dot
    enumeration_size(stalk.size, n, TABLE_SOLVE_BUDGET, "table-solve candidate vectors")
    cols = []
    for target in zip(*b):
        for x in itertools.product(stalk.elements(), repeat=n):
            if all(dot(row, x) == t for row, t in zip(m, target)):
                cols.append(x)
                break
        else:
            return None
    return [list(row) for row in zip(*cols)]


def solve_matrix_equation(A: SquareMatrix, B: SquareMatrix):
    """One X with A @ X == B, or None when there is none."""
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
