"""Square matrices over a Ring: arithmetic, characteristic polynomials, solving.

The characteristic polynomial is computed by the Berkowitz algorithm, which
uses no divisions and is therefore valid over rings with zero divisors.  A
cofactor-expansion oracle over the polynomial ring is kept alongside for
cross-checks at small sizes.
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
    def identity(cls, ring: Ring, n: int) -> "SquareMatrix":
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> "SquareMatrix":
        return cls(ring, [[ring.zero] * n for _ in range(n)])

    @classmethod
    def from_ints(cls, ring: Ring, rows) -> "SquareMatrix":
        return cls(ring, [[ring.from_int(v) for v in row] for row in rows])

    def _check(self, other: "SquareMatrix"):
        if self.ring.key != other.ring.key or self.n != other.n:
            raise RingMismatch("matrix shape/ring mismatch")

    def __add__(self, other):
        self._check(other)
        return SquareMatrix(
            self.ring,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        return SquareMatrix(
            self.ring,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        return SquareMatrix(self.ring, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        self._check(other)
        dot = self.ring.dot
        cols = list(zip(*other.rows))
        return SquareMatrix(
            self.ring, [[dot(row, col) for col in cols] for row in self.rows]
        )

    def __mul__(self, other):
        if isinstance(other, Element):
            return SquareMatrix(
                self.ring, [[a * other for a in r] for r in self.rows]
            )
        return NotImplemented

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            raise ValueError("negative powers not supported; invert first")
        acc = SquareMatrix.identity(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (
            self.ring.key == other.ring.key
            and self.n == other.n
            and self.rows == other.rows
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
        return SquareMatrix(
            R.stalk_ring(i),
            [[R.restrict_element(a, i) for a in row] for row in self.rows],
        )

    def sort_key(self):
        return tuple(a.sort_key() for row in self.rows for a in row)


def glue_matrices(R: Ring, per_stalk: list[SquareMatrix]) -> SquareMatrix:
    if len(per_stalk) != R.num_stalks:
        raise RingMismatch("need one matrix per stalk")
    n = per_stalk[0].n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            parts = tuple(
                R.stalks[s].from_standalone(per_stalk[s].rows[i][j].parts[0])
                for s in range(R.num_stalks)
            )
            row.append(Element(R, parts))
        rows.append(row)
    return SquareMatrix(R, rows)


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
    return SquareMatrix(ring, rows)


def char_poly(A: SquareMatrix) -> Poly:
    """Monic characteristic polynomial det(tI - A), by Berkowitz."""
    desc = _berkowitz_vector(A.ring, [list(r) for r in A.rows], A.n)
    coeffs = list(reversed(desc))
    p = Poly(A.ring, coeffs)
    assert p.is_monic and p.degree == A.n
    return p


def _berkowitz_vector(ring, rows, n):
    # Coefficients of det(tI - A), highest degree first.
    if n == 0:
        return [ring.one]
    if n == 1:
        return [ring.one, -rows[0][0]]
    a = rows[0][0]
    R = rows[0][1:]
    C = [rows[i][0] for i in range(1, n)]
    sub = [rows[i][1:] for i in range(1, n)]
    items = [ring.one, -a]
    vec = C
    for _ in range(n - 1):
        items.append(-ring.dot(R, vec))
        vec = [ring.dot(sub_row, vec) for sub_row in sub]
    # items has length n+1; build the (n+1) x n Toeplitz product with the
    # Berkowitz vector of the trailing principal submatrix.
    d = _berkowitz_vector(ring, sub, n - 1)
    return [ring.dot(items[r::-1], d[: r + 1]) for r in range(n + 1)]


def char_poly_cofactor(A: SquareMatrix) -> Poly:
    """Oracle: det(tI - A) by cofactor expansion over the polynomial ring."""
    ring = A.ring
    t = Poly.t_power(ring, 1)
    grid = [
        [
            (t if i == j else Poly.zero(ring)) - Poly.constant(A.rows[i][j])
            for j in range(A.n)
        ]
        for i in range(A.n)
    ]
    return _poly_det(ring, grid)


def _poly_det(ring, grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = Poly.zero(ring)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = grid[0][j] * _poly_det(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det(A: SquareMatrix) -> Element:
    chi = char_poly(A)
    d = chi(A.ring.zero)
    if A.n % 2 == 1:
        d = -d
    return d


def inverse(A: SquareMatrix):
    """Inverse via Cayley-Hamilton, or None when det is not a unit."""
    ring = A.ring
    chi = char_poly(A)
    c0 = chi.coeff(0)
    c0_inv = ring.inv(c0)
    if c0_inv is None:
        return None
    # A * (A^{n-1} + c_{n-1} A^{n-2} + ... + c_1 I) = -c_0 I
    inv = poly_at_matrix(Poly(ring, chi.coeffs[1:]), A) * (-c0_inv)
    assert inv @ A == SquareMatrix.identity(ring, A.n)
    return inv


def transpose(A: SquareMatrix) -> SquareMatrix:
    return SquareMatrix(A.ring, list(zip(*A.rows)))


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


@dataclass
class MatrixClassification:
    is_unit: bool
    inverse: SquareMatrix | None
    is_idempotent: bool
    is_nilpotent: bool


def matrix_classify(A: SquareMatrix) -> MatrixClassification:
    ring = A.ring
    inv = inverse(A)
    chi = char_poly(A)
    nilpotent = all(
        ring.radical_membership(chi.coeff(i)).in_nil for i in range(A.n)
    )
    return MatrixClassification(
        is_unit=inv is not None,
        inverse=inv,
        is_idempotent=A @ A == A,
        is_nilpotent=nilpotent,
    )


def poly_at_matrix(f: Poly, A: SquareMatrix) -> SquareMatrix:
    """Evaluate a polynomial at a matrix argument (Horner).

    Each step adds the coefficient on the diagonal of ``acc @ A``; the
    leading coefficient starts the scalar matrix, so no step multiplies
    the zero matrix.
    """
    ring = A.ring
    if f.is_zero:
        return SquareMatrix.zeros(ring, A.n)
    *lower, lead = f.coeffs
    acc = _plus_diagonal(SquareMatrix.zeros(ring, A.n), lead)
    for c in reversed(lower):
        acc = _plus_diagonal(acc @ A, c)
    return acc


def _plus_diagonal(M: SquareMatrix, c: Element) -> SquareMatrix:
    return SquareMatrix(
        M.ring,
        [
            [x + c if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(M.rows)
        ],
    )


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
    """A seeded random conjugate P*C_h*P^{-1}; char poly is exactly h."""
    ring = h.ring
    n = h.degree
    C = companion(h)
    if n == 1:
        return C
    rng = random.Random(seed)
    P = P_inv = None
    for _ in range(64):
        cand = SquareMatrix(
            ring,
            [[ring.random_element(rng) for _ in range(n)] for _ in range(n)],
        )
        P_inv = inverse(cand)
        if P_inv is not None:
            P = cand
            break
    if P is None:
        # unit-triangular product: always invertible, still seed-dependent
        upper = SquareMatrix.identity(ring, n)
        lower = SquareMatrix.identity(ring, n)
        up = [list(r) for r in upper.rows]
        lo = [list(r) for r in lower.rows]
        for i in range(n):
            for j in range(n):
                if i < j:
                    up[i][j] = ring.random_element(rng)
                elif i > j:
                    lo[i][j] = ring.random_element(rng)
        P = SquareMatrix(ring, up) @ SquareMatrix(ring, lo)
        P_inv = inverse(P)
    A = P @ C @ P_inv
    assert char_poly(A) == h
    return A
