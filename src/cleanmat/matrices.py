"""Square matrices over a Ring: arithmetic, characteristic polynomials, solving.

A ``SquareMatrix`` holds a tuple of tuples of ``Element``s, but ``@``,
``**``, ``char_poly``, ``poly_at_matrix``, ``inverse`` and
``random_with_charpoly`` compute on per-stalk raw grids: each operand is
unpacked once per stalk into a list of lists of raw stalk values
(``SquareMatrix._grids``), one raw helper per operation works on a stalk and
its grids with that stalk's own ``dot``/``add``/``sub``/``mul``/``neg``/``inv``,
and each result entry is boxed into an ``Element`` once, at the end
(``SquareMatrix._from_grids``).  The raw helpers are ``_raw_identity``,
``_raw_sub``, ``_raw_matmul``, ``_raw_power``, ``_raw_char_poly`` (Berkowitz),
``_raw_horner`` (polynomial at a matrix), ``_raw_inverse`` and
``_raw_inverses`` (every stalk's inverse, or None).  ``decide`` builds the
(E, U) and (k, X) certificates with them and ``verify`` checks those
certificates with them.  They are the only code path; there are no
Element-level versions beside them, and matrices are compared on their
entries' ``parts`` after one ring-key and size check.

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
    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: Ring, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.ring = ring
        self.n = n
        self.rows = rows

    @classmethod
    def _make(cls, ring: Ring, rows: tuple) -> "SquareMatrix":
        """Internal constructor: ``rows`` is already a square tuple of tuples."""
        M = object.__new__(cls)
        M.ring = ring
        M.n = len(rows)
        M.rows = rows
        return M

    @classmethod
    def _from_grids(cls, ring: Ring, grids) -> "SquareMatrix":
        """Box one raw grid per stalk of ``ring`` into a matrix of Elements."""
        return cls._make(
            ring,
            tuple(
                [
                    tuple([Element(ring, parts) for parts in zip(*stalk_rows)])
                    for stalk_rows in zip(*grids)
                ]
            ),
        )

    def _grids(self) -> list:
        """One raw grid (a list of lists of stalk values) per stalk."""
        rows = self.rows
        return [
            [[e.parts[s] for e in row] for row in rows]
            for s in range(self.ring.num_stalks)
        ]

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "SquareMatrix":
        one, zero = ring.one, ring.zero
        return cls._make(
            ring,
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
        )

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> "SquareMatrix":
        return cls._make(ring, ((ring.zero,) * n,) * n)

    @classmethod
    def from_ints(cls, ring: Ring, rows) -> "SquareMatrix":
        return cls(ring, [[ring.from_int(v) for v in row] for row in rows])

    def _check(self, other: "SquareMatrix"):
        if self.ring.key != other.ring.key or self.n != other.n:
            raise RingMismatch("matrix shape/ring mismatch")

    def __add__(self, other):
        self._check(other)
        return SquareMatrix._make(
            self.ring,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        self._check(other)
        return SquareMatrix._make(
            self.ring,
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self):
        return SquareMatrix._make(
            self.ring, tuple(tuple(-a for a in r) for r in self.rows)
        )

    def __matmul__(self, other):
        self._check(other)
        ring = self.ring
        return SquareMatrix._from_grids(
            ring,
            [
                _raw_matmul(s, a, b)
                for s, a, b in zip(ring.stalks, self._grids(), other._grids())
            ],
        )

    def __mul__(self, other):
        if isinstance(other, Element):
            return SquareMatrix._make(
                self.ring, tuple(tuple(a * other for a in r) for r in self.rows)
            )
        return NotImplemented

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            raise ValueError("negative powers not supported; invert first")
        ring = self.ring
        return SquareMatrix._from_grids(
            ring, [_raw_power(s, a, k) for s, a in zip(ring.stalks, self._grids())]
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.ring.key != other.ring.key or self.n != other.n:
            return False
        return all(
            a.parts == b.parts
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.ring.key, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.ring.render_value(a)) for a in row) for row in self.rows
        )
        return f"<matrix [{body}] over {self.ring.label()}>"

    def restrict(self, i: int) -> "SquareMatrix":
        R = self.ring
        return SquareMatrix._make(
            R.stalk_ring(i),
            tuple(tuple(R.restrict_element(a, i) for a in row) for row in self.rows),
        )

    def sort_key(self):
        return tuple(a.sort_key() for row in self.rows for a in row)


def companion(h: Poly) -> SquareMatrix:
    """Companion matrix: subdiagonal 1s, last column -coefficients."""
    if not h.is_monic or h.degree < 1:
        raise ValueError("companion needs a monic polynomial of degree >= 1")
    ring = h.ring
    n = h.degree
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = ring.one
    for i in range(n):
        rows[i][n - 1] = -h.coeff(i)
    return SquareMatrix._make(ring, tuple(map(tuple, rows)))


def transpose(A: SquareMatrix) -> SquareMatrix:
    return SquareMatrix._make(A.ring, tuple(zip(*A.rows)))


# -- raw per-stalk kernels -----------------------------------------------------------
#
# Each helper takes a stalk and raw grids of that stalk's values (lists of
# lists, n x n) and returns raw values; the public functions below unpack
# and box.


def _raw_identity(s, n: int) -> list:
    one, zero = s.one, s.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _raw_sub(s, a: list, b: list) -> list:
    sub = s.sub
    return [[sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


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


def _raw_horner(s, coeffs: list, a: list) -> list:
    """sum coeffs[k] a^k (Horner; coefficients lowest degree first).

    The leading coefficient starts the scalar matrix, and each later step
    adds its coefficient on the diagonal of ``acc @ a``.
    """
    n = len(a)
    add, zero = s.add, s.zero
    if not coeffs:
        return [[zero] * n for _ in range(n)]
    *lower, lead = coeffs
    acc = [[lead if i == j else zero for j in range(n)] for i in range(n)]
    for c in reversed(lower):
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
    per_stalk = [_raw_char_poly(s, a) for s, a in zip(ring.stalks, A._grids())]
    p = Poly(ring, [Element(ring, parts) for parts in zip(*per_stalk)])
    assert p.is_monic and p.degree == A.n
    return p


def inverse(A: SquareMatrix):
    """Inverse via Cayley-Hamilton, or None when det is not a unit."""
    inv = _raw_inverses(A.ring.stalks, A._grids())
    return None if inv is None else SquareMatrix._from_grids(A.ring, inv)


def poly_at_matrix(f: Poly, A: SquareMatrix) -> SquareMatrix:
    """Evaluate a polynomial at a matrix argument (Horner)."""
    ring = A.ring
    if f.ring.key != ring.key:
        raise RingMismatch("polynomial and matrix over different rings")
    return SquareMatrix._from_grids(
        ring,
        [
            _raw_horner(s, [c.parts[i] for c in f.coeffs], a)
            for i, (s, a) in enumerate(zip(ring.stalks, A._grids()))
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
    """One solution X (list of lists of Elements) of mat*X = rhs, or None.

    Works per stalk: Z/p^k and Z_(p) stalks lift to integer systems solved via
    Smith normal form; table stalks fall back to exhaustive search.  Free
    coordinates are fixed to 0, so the answer is canonical.
    """
    rows = len(mat_rows)
    cols = len(mat_rows[0]) if rows else 0
    k = len(rhs_rows[0]) if rhs_rows and rhs_rows[0] else 0
    per_stalk = []
    for idx, stalk in enumerate(ring.stalks):
        m = [[e.parts[idx] for e in row] for row in mat_rows]
        b = [[e.parts[idx] for e in row] for row in rhs_rows]
        if isinstance(stalk, ZModStalk):
            x = solve_mod(m, b, stalk.q)
        elif isinstance(stalk, ZLocStalk):
            x = solve_zloc(m, b, stalk.p)
        elif isinstance(stalk, TableStalk):
            x = _solve_table(stalk, m, b, rows, cols, k)
        else:  # pragma: no cover
            raise AssertionError(f"unknown stalk {stalk!r}")
        if x is None:
            return None
        per_stalk.append(x)
    out = []
    for i in range(cols):
        row = []
        for j in range(k):
            parts = tuple(per_stalk[s][i][j] for s in range(ring.num_stalks))
            row.append(Element(ring, parts))
        out.append(row)
    return out


def _solve_table(stalk: TableStalk, m, b, rows, cols, k):
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
    x = linear_solve(A.ring, [list(r) for r in A.rows], [list(r) for r in B.rows])
    if x is None:
        return None
    return SquareMatrix(A.ring, x)


# -- seeded similar matrices ----------------------------------------------------------


def random_with_charpoly(h: Poly, seed: int) -> SquareMatrix:
    """A seeded random conjugate P*C_h*P^{-1}; char poly is exactly h.

    P is drawn entry by entry, row-major, with one ``random`` per stalk in
    stalk order (the order of ``Ring.random_element``), and split into
    per-stalk raw grids; P^{-1}, the product and the char-poly check run on
    those grids, and A is boxed once.
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
        for s, p, c, p_inv in zip(stalks, P, C._grids(), P_inv)
    ]
    for k, (s, a) in enumerate(zip(stalks, A)):
        assert _raw_char_poly(s, a) == [c.parts[k] for c in h.coeffs]
    return SquareMatrix._from_grids(ring, A)
