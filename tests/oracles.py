"""Independent slow oracles, used only by the tests.

``char_poly_cofactor`` expands det(tI - A) over the polynomial ring,
``matrix_classify`` classifies a matrix from its inverse, char poly and
square, and ``comaximality_cramer`` takes the Bezout pair of two monic
polynomials by Cramer's rule on the Sylvester matrix, with determinants by
cofactor expansion on Elements.  ``pi_regular_bruteforce`` enumerates every
X and Y for strong pi-regularity, ``strongly_clean_element`` scans the
idempotents for a clean split of one element, and
``ideal_membership_search`` writes a Z[sqrt(-5)] element in the ideal
(2, 1+theta) by a search over a coefficient box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from cleanmat.errors import BudgetExceeded, InfiniteRing, VerificationFailed
from cleanmat.matrices import (
    PiRegularCertificate,
    SquareMatrix,
    char_poly,
    inverse,
)
from cleanmat.polys import Poly
from cleanmat.quadz5 import ONE, THETA, QuadInt


def char_poly_cofactor(A: SquareMatrix) -> Poly:
    """det(tI - A) by cofactor expansion over the polynomial ring."""
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
        cols.append([f0.coeff(r - j) for r in range(n)])
    for j in range(d0):
        cols.append([f1.coeff(r - j) for r in range(n)])
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
    if (u * f0 + v * f1) != Poly.one(R):
        raise VerificationFailed(["Cramer Bezout pair failed its identity check"])
    return u, v


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
