"""Independent slow oracles, used only by the tests.

``fold_poly_add``, ``fold_poly_sub``, ``fold_poly_mul``, ``fold_translate``,
``fold_eval`` and ``fold_monic_divide`` are polynomial arithmetic as Element
folds over the boxed coefficients, sharing no kernel with the per-stalk
arithmetic of ``cleanmat.polys``; the polynomial oracles below use only
them.  ``char_poly_cofactor`` expands det(tI - A) over the polynomial ring,
``matrix_classify`` classifies a matrix from its inverse, char poly and
square, and ``comaximality_cramer`` takes the Bezout pair of two monic
polynomials by Cramer's rule on the Sylvester matrix, with determinants by
cofactor expansion on Elements.  ``rational_roots_horner`` finds the
rational roots of a monic Z_(p) polynomial by Fraction Horner at every
rational-root-theorem candidate.  ``verify_strong_clean_elementwise`` and
``verify_pi_regular_elementwise`` check the certificate identities on the
boxed Element rows, with every product an Element fold (``fold_matmul``,
powers as repeated products) and every comparison entry by entry, so they
share no matrix kernel with the verifiers in ``cleanmat.verify``.
``pi_regular_bruteforce`` enumerates every
X and Y for strong pi-regularity, ``drazin_bruteforce`` every candidate
Drazin inverse, ``strongly_clean_element`` scans the
idempotents for a clean split of one element, and
``ideal_membership_search`` writes a Z[sqrt(-5)] element in the ideal
(2, 1+theta) by a search over a coefficient box.  ``smith_normal_form``
diagonalizes an integer matrix by unimodular row and column operations;
``solve_mod`` and ``solve_zloc`` solve a system over Z/q or Z_(p) by
lifting it to Z and solving the diagonal equations, and ``smith_solvable``
applies them stalk by stalk.  ``nilpotents`` lists a
ring's nilpotents by powering on each stalk.  ``radical_membership_definitional``,
``is_clean_definitional`` and ``is_j_clean_definitional`` classify a finite
ring from the definitions (1 + a*s a unit for every s; r - e or
r*e + (1 - e) a unit for some idempotent e), without its stalk structure.
``table_axiom_failure_numpy`` checks the ring axioms of two operation
tables as whole-array numpy comparisons and returns the first failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from cleanmat.errors import (
    BudgetExceeded,
    InfiniteRing,
    NonMonicDivisor,
    RingMismatch,
    VerificationFailed,
)
from cleanmat.matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    char_poly,
    inverse,
)
from cleanmat.polys import Poly
from cleanmat.quadz5 import ONE, THETA, QuadInt
from cleanmat.rings import Element, RadicalMembership


# -- Element-level polynomial arithmetic ----------------------------------------------
#
# Folds over the boxed coefficients (``Poly.coeffs``) with Element operators,
# so they share no kernel with the per-stalk arithmetic of ``cleanmat.polys``.


def _coeff(f: Poly, i: int):
    cs = f.coeffs
    return cs[i] if 0 <= i < len(cs) else f.ring.zero


def _check_rings(f: Poly, g: Poly):
    if f.ring.key != g.ring.key:
        raise RingMismatch("polynomials over different rings")


def fold_poly_add(f: Poly, g: Poly) -> Poly:
    _check_rings(f, g)
    n = max(len(f.coeffs), len(g.coeffs))
    return Poly(f.ring, [_coeff(f, i) + _coeff(g, i) for i in range(n)])


def fold_poly_sub(f: Poly, g: Poly) -> Poly:
    _check_rings(f, g)
    n = max(len(f.coeffs), len(g.coeffs))
    return Poly(f.ring, [_coeff(f, i) - _coeff(g, i) for i in range(n)])


def fold_poly_mul(f: Poly, g: Poly) -> Poly:
    _check_rings(f, g)
    fc, gc = f.coeffs, g.coeffs
    if not fc or not gc:
        return Poly.zero(f.ring)
    out = [f.ring.zero] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] = out[i + j] + a * b
    return Poly(f.ring, out)


def fold_translate(f: Poly, c) -> Poly:
    """f(t + c) by repeated synthetic division on Elements."""
    coeffs = list(f.coeffs)
    n = len(coeffs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            coeffs[j] = coeffs[j] + c * coeffs[j + 1]
    return Poly(f.ring, coeffs)


def fold_eval(f: Poly, x):
    """Horner evaluation on Elements."""
    acc = f.ring.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def fold_monic_divide(f: Poly, g: Poly):
    """Long division f = q*g + r by a monic g on Elements; returns (q, r, exact)."""
    cs = g.coeffs
    if not cs or cs[-1] != g.ring.one:
        raise NonMonicDivisor(f"divisor {g!r} is not monic")
    _check_rings(f, g)
    ring = f.ring
    rem = list(f.coeffs)
    dg = len(cs) - 1
    if len(rem) - 1 < dg:
        r = Poly(ring, rem)
        return Poly.zero(ring), r, r.is_zero
    q = [ring.zero] * (len(rem) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        q[top - dg] = c
        for i, gc in enumerate(cs):
            rem[top - dg + i] = rem[top - dg + i] - c * gc
    r = Poly(ring, rem[:dg])
    return Poly(ring, q), r, r.is_zero


def char_poly_cofactor(A: SquareMatrix) -> Poly:
    """det(tI - A) by cofactor expansion over the polynomial ring."""
    ring = A.ring
    t = Poly.t_power(ring, 1)
    grid = [
        [
            fold_poly_sub(t if i == j else Poly.zero(ring), Poly.constant(A.rows[i][j]))
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
        term = fold_poly_mul(grid[0][j], _poly_det(ring, minor))
        acc = fold_poly_add(acc, term) if j % 2 == 0 else fold_poly_sub(acc, term)
    return acc


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


def _det_cofactor(ring, rows):
    n = len(rows)
    if n == 0:
        return ring.one
    acc = ring.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det_cofactor(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def comaximality_cramer(f0: Poly, f1: Poly):
    """Bezout pair (u, v) with u*f0 + v*f1 = 1, or None if not comaximal.

    Column j < deg f1 of the Sylvester matrix holds t^j * f0 and column
    deg f1 + j holds t^j * f1; the pair is comaximal exactly when its
    determinant (the resultant up to sign) is a unit, and then Cramer's rule
    solves M (u, v) = e_0 with one determinant per coefficient.
    """
    if not f0.is_monic or not f1.is_monic:
        raise ValueError("comaximality needs monic polynomials")
    R = f0.ring
    if f0.degree == 0:
        return Poly.one(R), Poly.zero(R)
    if f1.degree == 0:
        return Poly.zero(R), Poly.one(R)
    d0, d1 = f0.degree, f1.degree
    n = d0 + d1
    cols = []
    for j in range(d1):
        cols.append([_coeff(f0, r - j) for r in range(n)])
    for j in range(d0):
        cols.append([_coeff(f1, r - j) for r in range(n)])
    M = [[cols[c][r] for c in range(n)] for r in range(n)]
    res_inv = R.inv(_det_cofactor(R, M))
    if res_inv is None:
        return None
    e0 = [R.one] + [R.zero] * (n - 1)
    w = []
    for i in range(n):
        rows = [[e0[r] if c == i else M[r][c] for c in range(n)] for r in range(n)]
        w.append(_det_cofactor(R, rows) * res_inv)
    u = Poly(R, w[:d1])
    v = Poly(R, w[d1:])
    if fold_poly_add(fold_poly_mul(u, f0), fold_poly_mul(v, f1)) != Poly.one(R):
        raise VerificationFailed(["Cramer Bezout pair failed its identity check"])
    return u, v


def rational_roots_horner(h: Poly) -> list[Fraction]:
    """The rational roots of a monic h over Z_(p), by Fraction Horner on its coefficients.

    Every candidate r = a/b with a | const and b | lead of the cleared integer
    polynomial (after dividing out t^v) is evaluated at the Fraction
    coefficients themselves, so no integer identity is shared with
    ``factor.rational_roots``.
    """
    (coeffs,) = h.parts
    v = next(i for i, c in enumerate(coeffs) if c != 0)
    rest = coeffs[v:]
    scale = lcm(*(c.denominator for c in rest))
    const, lead = int(rest[0] * scale), int(rest[-1] * scale)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    roots = {Fraction(0)} if v else set()
    for a in divisors(const):
        for b in divisors(lead):
            for r in (Fraction(a, b), Fraction(-a, b)):
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * r + c
                if acc == 0:
                    roots.add(r)
    return sorted(roots)


def fold_dot(R, xs, ys):
    acc = R.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def fold_matmul(A: SquareMatrix, B: SquareMatrix) -> SquareMatrix:
    """A @ B as Element folds over the boxed rows; a shape or ring mismatch raises."""
    if A.ring.key != B.ring.key or A.n != B.n:
        raise RingMismatch("matrix shape/ring mismatch")
    cols = list(zip(*B.rows))
    return SquareMatrix(A.ring, [[fold_dot(A.ring, r, c) for c in cols] for r in A.rows])


def _same(M: SquareMatrix, N: SquareMatrix) -> bool:
    # Element rows compared entry by entry: any other ring or size is unequal
    return M.rows == N.rows


def verify_strong_clean_elementwise(
    A: SquareMatrix, cert: StrongCleanCertificate
) -> list[str]:
    E, U, U_inv = cert.E, cert.U, cert.U_inv
    R, n = E.ring, E.n
    I = SquareMatrix(R, [[R.one if i == j else R.zero for j in range(n)] for i in range(n)])
    fails = []
    if not _same(fold_matmul(E, E), E):
        fails.append("E is not idempotent")
    if tuple(tuple(e + u for e, u in zip(r1, r2)) for r1, r2 in zip(E.rows, U.rows)) != A.rows:
        fails.append("E + U != A")
    if not _same(fold_matmul(E, U), fold_matmul(U, E)):
        fails.append("E and U do not commute")
    if not (_same(fold_matmul(U, U_inv), I) and _same(fold_matmul(U_inv, U), I)):
        fails.append("U_inv is not a two-sided inverse of U")
    return fails


def verify_pi_regular_elementwise(A: SquareMatrix, cert: PiRegularCertificate) -> list[str]:
    fails = []
    if cert.k < 1:
        fails.append("exponent k must be >= 1")
        return fails
    Ak = A
    for _ in range(cert.k - 1):
        Ak = fold_matmul(Ak, A)
    Ak1 = fold_matmul(Ak, A)
    if not _same(fold_matmul(Ak1, cert.X), Ak):
        fails.append("A^{k+1} X != A^k")
    if not _same(fold_matmul(cert.Y, Ak1), Ak):
        fails.append("Y A^{k+1} != A^k")
    return fails


def pi_regular_bruteforce(
    A: SquareMatrix, budget: int = 10**4
) -> PiRegularCertificate | None:
    """Naive enumeration oracle: scan all X (and Y) directly, tiny rings only."""
    R = A.ring
    if not R.is_finite:
        raise InfiniteRing(f"brute force cannot scan {R.label()}")
    total = R.size ** (A.n * A.n)
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
    elems = list(R.elements())
    K = A.n * R.max_nil_index()
    Ak = A
    for k in range(1, K + 1):
        Ak1 = Ak @ A
        X = _enumerate_solution(R, elems, lambda M: Ak1 @ M == Ak, A.n)
        if X is not None:
            Y = _enumerate_solution(R, elems, lambda M: M @ Ak1 == Ak, A.n)
            if Y is not None:
                return PiRegularCertificate(k, X, Y)
        Ak = Ak1
    return None


def drazin_bruteforce(A: SquareMatrix, budget: int = 10**4):
    """(k, Ds): the least k >= 1 at which some D has DAD = D, AD = DA and
    A^{k+1} D = A^k, and every such D, by enumerating all n x n matrices.

    Products run on element indices through addition and multiplication
    tables built from Element ``+`` and ``*``, so no matrix kernel is shared
    with ``cleanmat``.  Drazin's theorem says the list has exactly one entry.
    """
    R = A.ring
    n = A.n
    total = R.size ** (n * n)
    if total > budget:
        raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
    elems = list(R.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[a + b] for b in elems] for a in elems]
    mul = [[index[a * b] for b in elems] for a in elems]
    zero = index[R.zero]

    def mm(X, Y):
        cols = list(zip(*Y))
        out = []
        for row in X:
            out_row = []
            for col in cols:
                acc = zero
                for x, y in zip(row, col):
                    acc = add[acc][mul[x][y]]
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    a = tuple(tuple(index[x] for x in row) for row in A.rows)
    commuting = []
    for combo in itertools.product(range(len(elems)), repeat=n * n):
        d = tuple(combo[i * n : (i + 1) * n] for i in range(n))
        ad = mm(a, d)
        if ad == mm(d, a) and mm(d, ad) == d:
            commuting.append(d)
    ak = a
    for k in range(1, n * R.max_nil_index() + 1):
        ak1 = mm(ak, a)
        ds = [d for d in commuting if mm(ak1, d) == ak]
        if ds:
            return k, [SquareMatrix(R, [[elems[i] for i in row] for row in d]) for d in ds]
        ak = ak1
    return None


def _enumerate_solution(R, elems, pred, n):
    for combo in itertools.product(elems, repeat=n * n):
        M = SquareMatrix(R, [list(combo[i * n : (i + 1) * n]) for i in range(n)])
        if pred(M):
            return M
    return None


def strongly_clean_element(R, r):
    """Split r = e + u with e idempotent and u a unit, scanning idempotents."""
    for e in R.idempotents():
        u = r - e
        if R.is_unit(u):
            return e, u
    return None


def ideal_membership_search(x: QuadInt, box: int = 12) -> bool:
    """Cross-check: write x = 2u + (1+theta)v with coefficients in a box."""
    g = ONE + THETA
    for ua in range(-box, box + 1):
        for ub in range(-box, box + 1):
            rest = x - QuadInt(2) * QuadInt(ua, ub)
            v = rest.exact_div(g)
            if v is not None:
                return True
    return False


def nilpotents(R) -> list[Element]:
    """Every nilpotent of R in canonical order (over Z_(p) only 0)."""
    per_stalk = []
    for s in R.stalks:
        if not s.finite:
            per_stalk.append([s.zero])
            continue
        values = []
        for a in s.elements():
            acc = a
            for _ in range(s.size):
                acc = s.mul(acc, a)
            if acc == s.zero:
                values.append(a)
        per_stalk.append(values)
    return [Element(R, parts) for parts in itertools.product(*per_stalk)]


def radical_membership_definitional(R, a) -> RadicalMembership:
    """Jacobson membership as 1 + a*s a unit for every s; nilpotence by powering."""
    in_j = all(R.is_unit(R.one + a * s) for s in R.elements())
    acc = a
    for _ in range(R.size):
        acc = acc * a
    return RadicalMembership(in_j, acc == R.zero)


def is_clean_definitional(R) -> bool:
    """Every r is r = e + u with e idempotent and u a unit."""
    idems = R.idempotents()
    return all(any(R.is_unit(r - e) for e in idems) for r in R.elements())


def is_j_clean_definitional(R) -> bool:
    """Every r has an idempotent e with r*e + (1 - e) a unit and r*(1 - e) in J."""
    idems = R.idempotents()
    return all(
        any(
            R.is_unit(r * e + (R.one - e))
            and radical_membership_definitional(R, r * (R.one - e)).in_jacobson
            for e in idems
        )
        for r in R.elements()
    )


# -- integer Smith normal form and the stalk solvers built on it ------------------------


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in A]


def smith_normal_form(mat):
    """Return (U, D, V) with U*mat*V = D diagonal and U, V unimodular over Z.

    Diagonal entries are non-negative and satisfy the divisibility chain
    d_0 | d_1 | ... .
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    D = [list(map(int, row)) for row in mat]
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for j in range(cols):
            D[dst][j] += c * D[src][j]
        for j in range(rows):
            U[dst][j] += c * U[src][j]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(rows, cols):
        # locate the entry of least nonzero magnitude in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = D[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t] != 0:
                    add_row(t, i, -(D[i][t] // D[t][t]))
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j] != 0:
                    add_col(t, j, -(D[t][j] // D[t][t]))
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the rest of the block by the pivot
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            t += 1
    return U, D, V


def solve_mod(mat, rhs, q):
    """One solution X (cols x k, entries in [0, q)) of mat*X = rhs over Z/q, or None."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    k = len(rhs[0]) if rhs else 0
    U, D, V = smith_normal_form(mat)
    C = _mat_mul(U, rhs)
    Y = [[0] * k for _ in range(cols)]
    for col in range(k):
        for i in range(rows):
            d = D[i][i] if i < cols else 0
            c = C[i][col] % q
            if d == 0:
                if c != 0:
                    return None
                continue
            g = gcd(d, q)
            if c % g != 0:
                return None
            qq = q // g
            Y[i][col] = (c // g) * pow(d // g, -1, qq) % qq if qq > 1 else 0
    return [[x % q for x in row] for row in _mat_mul(V, Y)]


def solve_zloc(mat, rhs, p):
    """One solution of mat*X = rhs over Z_(p) (entries Fraction), or None.

    Each row is scaled by the lcm of its denominators, a unit of Z_(p), to
    give an integer system.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    k = len(rhs[0]) if rhs else 0
    int_mat, int_rhs = [], []
    for i in range(rows):
        scale = lcm(*(Fraction(x).denominator for x in [*mat[i], *rhs[i]]))
        int_mat.append([int(Fraction(x) * scale) for x in mat[i]])
        int_rhs.append([int(Fraction(x) * scale) for x in rhs[i]])
    U, D, V = smith_normal_form(int_mat)
    C = _mat_mul(U, int_rhs)
    Y = [[Fraction(0)] * k for _ in range(cols)]
    for col in range(k):
        for i in range(rows):
            d = D[i][i] if i < cols else 0
            c = C[i][col]
            if d == 0:
                if c != 0:
                    return None
                continue
            y = Fraction(c, d)
            if y.denominator % p == 0:
                return None
            Y[i][col] = y
    return _mat_mul(V, Y)


def smith_solvable(A: SquareMatrix, B: SquareMatrix) -> bool:
    """Whether A X = B has a solution, by the Smith-form solver on every stalk.

    Only Z/p^k and Z_(p) stalks are supported.
    """
    for s, a, b in zip(A.ring.stalks, A.grids, B.grids):
        if s.kind == "zmod":
            x = solve_mod(a, b, s.q)
        elif s.kind == "zloc":
            x = solve_zloc(a, b, s.p)
        else:
            raise ValueError(f"no Smith-form solver over {s.label()}")
        if x is None:
            return False
    return True


# -- ring axioms of operation tables, vectorized ----------------------------------------


def table_axiom_failure_numpy(add, mul):
    """(axiom, witness) of the first failing ring axiom, or None.

    Axioms are tried in the order ``cleanmat.rings`` checks them; the witness
    of an equational axiom is the first offending index tuple in C order.
    """
    import numpy as np

    A = np.asarray(add, dtype=np.int64)
    M = np.asarray(mul, dtype=np.int64)
    idx = np.arange(len(A))

    def first(mask):
        return tuple(map(int, np.argwhere(mask)[0]))

    equations = (
        ("addition commutativity", A, A.T),
        ("multiplication commutativity", M, M.T),
        ("addition associativity", A[A, :], A[:, A]),
        ("multiplication associativity", M[M, :], M[:, M]),
        ("distributivity", M[:, A], A[M[:, :, None], M[:, None, :]]),
    )
    for axiom, lhs, rhs in equations:
        if not np.array_equal(lhs, rhs):
            return axiom, first(lhs != rhs)
    zero_rows = np.nonzero((A == idx[None, :]).all(axis=1))[0]
    if zero_rows.size == 0:
        return "additive identity", None
    has_inverse = (A == zero_rows[0]).any(axis=1)
    if not has_inverse.all():
        return "additive inverse", (int(np.nonzero(~has_inverse)[0][0]),)
    one_rows = np.nonzero((M == idx[None, :]).all(axis=1))[0]
    if one_rows.size == 0:
        return "multiplicative identity", None
    if one_rows[0] == zero_rows[0]:
        return "one equals zero", None
    return None
