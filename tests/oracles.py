"""Independent slow oracles, used only by the tests.

``fold_poly_add``, ``fold_poly_sub``, ``fold_poly_mul``, ``fold_translate``,
``fold_eval`` and ``fold_monic_divide`` are polynomial arithmetic as Element
folds over the boxed coefficients, sharing no kernel with the per-stalk
arithmetic of ``cleanmat.polys``; the polynomial oracles below use only
them.  ``char_poly_cofactor`` expands det(tI - A) over the polynomial ring,
``inverse_adjugate`` inverts a matrix as adj(A) / det A (the package has
no general inverse) and ``comaximality_cramer`` takes the Bezout pair of
two monic polynomials by Cramer's rule on their ``sylvester`` matrix, both with
determinants by cofactor expansion on Elements; ``matrix_classify``
classifies a matrix from that inverse, its char poly and its square.
``rational_roots_horner`` finds the rational roots of a monic Z_(p)
polynomial by Fraction Horner at every rational-root-theorem candidate.
``verify_strong_clean_elementwise`` and
``verify_pi_regular_elementwise`` check the certificate identities on the
boxed Element rows, with every product an Element fold (``fold_matmul``,
powers as repeated products) and every comparison entry by entry, so they
share no matrix kernel with the verifiers in ``cleanmat.verify``.
``verify_src_boxed``, ``verify_sp_boxed``, ``verify_gsrc_boxed`` and
``verify_gsp_boxed`` are the polynomial-certificate verifiers on boxed
polynomials: each block's h is rebuilt over its block ring, and every
product and sum is a fold, so they share no kernel with the stalk-by-stalk
leaf checks of ``cleanmat.verify``.
``strong_clean_reference``, ``gsrc_reference``, ``triangular_reference`` and
``drazin_reference`` build the strong-clean and Drazin certificates as
products of matrix polynomials, each a sum of powers of A, with U^-1 =
``inverse_adjugate(U)``: the constructions that ``cleanmat.decide``
replaced by one reduced polynomial in A per matrix.
``pi_regular_bruteforce`` enumerates every
X and Y for strong pi-regularity, ``drazin_bruteforce`` every candidate
Drazin inverse, ``strongly_clean_element`` scans the
idempotents for a clean split of one element, and
``ideal_membership_search`` writes a Z[sqrt(-5)] element in the ideal
(2, 1+theta) by a search over a coefficient box.  ``nilpotents`` lists a
ring's nilpotents by powering on each stalk.  ``radical_membership_definitional``,
``is_clean_definitional`` and ``is_j_clean_definitional`` classify a finite
ring from the definitions (1 + a*s a unit for every s; r - e or
r*e + (1 - e) a unit for some idempotent e), without its stalk structure.
``encode_ring`` writes a finite ring as tables on its element indices, in
the canonical order: it glues the stalk tables of ``cleanmat.brute`` in
mixed radix, the whole-ring reference for the stalk-by-stalk scan, and its
``RingTable`` encodes and decodes matrices.
``unindexed_scan`` is the exhaustive strong-cleanness scan over the whole
ring, vectorized in numpy: it decodes every candidate of a range chunk by
chunk and tests E^2 = E, EA = AE and det(A - E), with no idempotent index
and no stalk split.  ``table_axiom_failure_numpy`` checks the ring axioms
of two operation tables as whole-array numpy comparisons and returns the
first failure.  Both skip the calling test when numpy is not installed.
``whole_ring_scan`` and ``whole_ring_drazin`` are the exhaustive oracles
of ``cleanmat.brute`` on the whole matrix, with no per-stalk memo: the
scan's stalk hits glued Element by Element, with U^-1 = U^(M-1), and the
Drazin inverse A^(2M-1) with its k found on the whole matrix, where M =
``gl_exponent(R, n)`` is the lcm of the stalks' GL exponents.
``restrict_element``, ``restrict_poly``, ``idempotent_support``,
``is_complete_orthogonal`` and ``pierce_glue`` are the Pierce restriction
and gluing on boxed Elements, which no decision needs.
``stalk_search_boxed`` and ``stalk_outcomes_boxed`` are the per-stalk
searches of ``cleanmat.factor`` written on one-stalk polynomials with the
Element-level references above, for the differential test of the raw
searches.  Only the trial divisions of their candidate scans run a kernel
of ``cleanmat.polys``: ``divide_by_kernel``, one ``raw_divide``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from cleanmat import _kernels
from cleanmat.brute import _stalk_gl_exponent, _stalk_tables
from cleanmat.errors import BudgetExceeded, InfiniteRing, RingMismatch, VerificationFailed
from cleanmat.factor import BOUNDED_HEIGHT, SPCertificate, SRCCertificate
from cleanmat.matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    char_poly,
)
from cleanmat.polys import Poly, raw_divide
from cleanmat.quadz5 import ONE, THETA, QuadInt
from cleanmat.rings import Element, RadicalMembership, block_ring


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
        raise ValueError(f"divisor {g!r} is not monic")
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


def t_power(R, d: int) -> Poly:
    """The monic t^d over R."""
    return Poly.from_ints(R, [0] * d + [1])


def char_poly_cofactor(A: SquareMatrix) -> Poly:
    """det(tI - A) by cofactor expansion over the polynomial ring."""
    ring = A.ring
    t = t_power(ring, 1)
    grid = [
        [
            fold_poly_sub(t if i == j else Poly.zero(ring), Poly(ring, [A.rows[i][j]]))
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
    inv = inverse_adjugate(A)
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


def inverse_adjugate(A: SquareMatrix) -> SquareMatrix | None:
    """A^-1 = adj(A) / det A with cofactor determinants on Elements, or None
    when det A is not a unit."""
    R, rows = A.ring, A.rows
    det_inv = R.inv(_det_cofactor(R, rows))
    if det_inv is None:
        return None

    def minor(i, j):
        return [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]

    return SquareMatrix(
        R,
        [
            [
                _det_cofactor(R, minor(j, i)) * (det_inv if (i + j) % 2 == 0 else -det_inv)
                for j in range(A.n)
            ]
            for i in range(A.n)
        ],
    )


def sylvester(f0: Poly, f1: Poly) -> SquareMatrix:
    """The matrix of (u, v) -> u*f0 + v*f1 on monomial bases, for monic f0, f1.

    Column j < deg f1 holds t^j * f0 and column deg f1 + j holds t^j * f1;
    the matrix is square of size deg f0 + deg f1.
    """
    if not f0.is_monic or not f1.is_monic:
        raise ValueError("sylvester needs monic polynomials")
    d0, d1 = f0.degree, f1.degree
    n = d0 + d1
    cols = [[_coeff(f0, r - j) for r in range(n)] for j in range(d1)]
    cols += [[_coeff(f1, r - j) for r in range(n)] for j in range(d0)]
    return SquareMatrix(f0.ring, [[cols[c][r] for c in range(n)] for r in range(n)])


def comaximality_cramer(f0: Poly, f1: Poly):
    """Bezout pair (u, v) with u*f0 + v*f1 = 1, or None if not comaximal.

    The pair is comaximal exactly when the determinant of its ``sylvester``
    matrix M (the resultant up to sign) is a unit, and then Cramer's rule
    solves M (u, v) = e_0: with column i replaced by e_0 the determinant is
    the (0, i) cofactor of M, so coefficient i is that cofactor over det M.
    """
    if not f0.is_monic or not f1.is_monic:
        raise ValueError("comaximality needs monic polynomials")
    R = f0.ring
    if f0.degree == 0:
        return Poly.one(R), Poly.zero(R)
    if f1.degree == 0:
        return Poly.zero(R), Poly.one(R)
    d1 = f1.degree
    M = [list(row) for row in sylvester(f0, f1).rows]
    n = len(M)
    res_inv = R.inv(_det_cofactor(R, M))
    if res_inv is None:
        return None
    w = []
    for i in range(n):
        cofactor = _det_cofactor(R, [row[:i] + row[i + 1 :] for row in M[1:]])
        w.append((cofactor if i % 2 == 0 else -cofactor) * res_inv)
    u = Poly(R, w[:d1])
    v = Poly(R, w[d1:])
    if fold_poly_add(fold_poly_mul(u, f0), fold_poly_mul(v, f1)) != Poly.one(R):
        raise VerificationFailed(["Cramer Bezout pair failed its identity check"])
    return u, v


def rational_roots_horner(h: Poly) -> list[Fraction]:
    """The rational roots of a monic h over Z_(p), by Fraction Horner on its coefficients.

    Every candidate r = a/b with a | const and b | lead of the cleared integer
    polynomial (after dividing out t^v) is evaluated at the Fraction
    coefficients themselves, so no integer identity is shared with the integer
    root search of ``cleanmat.factor``.
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


# -- the polynomial-certificate verifiers on boxed block polynomials ------------------
#
# The checks of ``cleanmat.verify`` as they read before they ran on raw parts:
# h is rebuilt as a polynomial over each block's ring, every product and sum
# is an Element fold, a unit test evaluates on Elements, and every comparison
# is a whole-polynomial ``==`` (so a polynomial over another ring is unequal).


def _on_block(h: Poly, support) -> Poly:
    """h as a polynomial over the block ring of the stalks in ``support``."""
    support = tuple(support)
    return Poly.from_parts(block_ring(h.ring, support), [h.parts[i] for i in support])


def _monic_boxed(p: Poly) -> bool:
    cs = p.coeffs
    return bool(cs) and cs[-1] == p.ring.one


def _unit_at(p: Poly, x) -> bool:
    return p.ring.is_unit(fold_eval(p, x))


def verify_src_boxed(h: Poly, cert) -> list[str]:
    R = h.ring
    fails = []
    if not _monic_boxed(cert.f0) or not _monic_boxed(cert.f1):
        fails.append("factors are not monic")
    if fold_poly_mul(cert.f0, cert.f1) != h:
        fails.append("f0 * f1 != h")
    if not _unit_at(cert.f0, cert.f0.ring.zero):
        fails.append("f0(0) is not a unit")
    if not _unit_at(cert.f1, cert.f1.ring.one):
        fails.append("f1(1) is not a unit")
    if cert.kind not in ("SR", "SRC"):
        fails.append(f"unknown certificate kind {cert.kind!r}")
    elif cert.kind == "SRC":
        if cert.bezout_u is None or cert.bezout_v is None:
            fails.append("SRC certificate lacks a Bezout pair")
        elif fold_poly_add(
            fold_poly_mul(cert.bezout_u, cert.f0), fold_poly_mul(cert.bezout_v, cert.f1)
        ) != Poly.one(R):
            fails.append("Bezout identity u*f0 + v*f1 = 1 fails")
    return fails


def verify_sp_boxed(h: Poly, cert) -> list[str]:
    R = h.ring
    fails = []
    if not _monic_boxed(cert.h0) or not _monic_boxed(cert.p0):
        fails.append("factors are not monic")
    if fold_poly_mul(cert.h0, cert.p0) != h:
        fails.append("h0 * p0 != h")
    if not _unit_at(cert.h0, cert.h0.ring.zero):
        fails.append("h0(0) is not a unit")
    d = cert.p0.degree
    for i in range(d):
        # a stalk shorter than i + 1 has coefficient 0 there, which is nilpotent
        if not all(
            i >= len(p) or s.is_nilpotent(p[i]) for s, p in zip(R.stalks, cert.p0.parts)
        ):
            fails.append(f"p0 coefficient {i} is not nilpotent")
    return fails


def _verify_blocks_boxed(h: Poly, R, blocks, leaf) -> list[str]:
    if h.ring.key != R.key:
        raise RingMismatch("h is not over the certificate's ring")
    fails = []
    if len(blocks) > h.degree + 1:
        fails.append(f"{len(blocks)} blocks exceed the deg(h)+1 bound")
    covered = sorted(i for b in blocks for i in b.support)
    if covered != list(range(R.num_stalks)):
        fails.append("block supports do not partition the stalks")
    if any(
        b.idempotent.ring.key != R.key or b.idempotent.parts != R.indicator(b.support).parts
        for b in blocks
    ):
        fails.append("block idempotent does not match its support")
    for b in blocks:
        for msg in leaf(_on_block(h, b.support), b.cert):
            fails.append(f"block {b.support}: {msg}")
    return fails


def verify_gsrc_boxed(h: Poly, R, cert) -> list[str]:
    return _verify_blocks_boxed(h, R, cert.blocks, verify_src_boxed)


def verify_gsp_boxed(h: Poly, R, cert) -> list[str]:
    return _verify_blocks_boxed(h, R, cert.blocks, verify_sp_boxed)


# -- the certificate constructions as matrix products ---------------------------------
#
# E = u(A) f0(A) with U^-1 = adj(U) / det U, and X = -h0(0)^-1 q(A) v(A) p0(A):
# each polynomial is evaluated as a sum of powers A**k, never by Horner, and
# the certificate's polynomials are never reduced or combined before evaluation.


def poly_at_matrix_powers(f: Poly, A: SquareMatrix) -> SquareMatrix:
    """sum f_k A^k with every power taken by ``**``."""
    acc = SquareMatrix.from_ints(A.ring, [[0] * A.n] * A.n)
    for k, c in enumerate(f.coeffs):
        acc = acc + (A**k) * c
    return acc


def _blocks_over_R(R, blocks, polys) -> Poly:
    """The polynomial over R that is ``polys[j]`` on the stalks of ``blocks[j]``."""
    parts = [()] * R.num_stalks
    for b, f in zip(blocks, polys):
        for i, part in zip(b.support, f.parts):
            parts[i] = part
    return Poly.from_parts(R, parts)


def strong_clean_reference(A: SquareMatrix, u: Poly, f0: Poly):
    """(E, U^-1) with E = u(A) f0(A) and U^-1 = ``inverse_adjugate(A - E)``."""
    E = poly_at_matrix_powers(u, A) @ poly_at_matrix_powers(f0, A)
    return E, inverse_adjugate(A - E)


def gsrc_reference(A: SquareMatrix, gcert):
    """``strong_clean_reference`` of a gSRC certificate's glued u and f0."""
    R, blocks = A.ring, gcert.blocks
    u = _blocks_over_R(R, blocks, [b.cert.bezout_u for b in blocks])
    f0 = _blocks_over_R(R, blocks, [b.cert.f0 for b in blocks])
    return strong_clean_reference(A, u, f0)


def triangular_reference(T: SquareMatrix):
    """``strong_clean_reference`` of T's diagonal split, its Bezout u by Cramer."""
    R = T.ring
    us, f0s = [], []
    for i in range(R.num_stalks):
        S = R.stalk_ring(i)
        f0, f1 = Poly.one(S), Poly.one(S)
        for d in range(T.n):
            x = restrict_element(R, T.rows[d][d], i)
            lin = Poly(S, [-x, S.one])
            if S.is_unit(x):
                f0 = fold_poly_mul(f0, lin)
            else:
                f1 = fold_poly_mul(f1, lin)
        us.append(comaximality_cramer(f0, f1)[0].parts[0])
        f0s.append(f0.parts[0])
    return strong_clean_reference(T, Poly.from_parts(R, us), Poly.from_parts(R, f0s))


def drazin_reference(A: SquareMatrix, gcert) -> SquareMatrix:
    """X = -h0(0)^-1 q(A) v(A) p0(A), h0 = t q + h0(0), v by Cramer per block."""
    R, blocks = A.ring, gcert.blocks
    vs = [comaximality_cramer(b.cert.h0, b.cert.p0)[1] for b in blocks]
    v = _blocks_over_R(R, blocks, vs)
    p0 = _blocks_over_R(R, blocks, [b.cert.p0 for b in blocks])
    h0 = _blocks_over_R(R, blocks, [b.cert.h0 for b in blocks])
    q = Poly(R, h0.coeffs[1:])
    M = poly_at_matrix_powers(q, A) @ poly_at_matrix_powers(v, A)
    return (M @ poly_at_matrix_powers(p0, A)) * -R.inv(h0.coeff(0))


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


def gl_exponent(R, n: int) -> int:
    """A multiple of the exponent of GL_n(R), for a finite ring R: the lcm
    of its stalks' ``brute._stalk_gl_exponent``."""
    return lcm(*(_stalk_gl_exponent(s, n) for s in R.stalks))


def whole_ring_scan(A: SquareMatrix) -> StrongCleanCertificate | None:
    """The stalk scans' first hits glued entry by entry into E, and
    U^-1 = U^(M-1) over the whole ring, M = ``gl_exponent(R, n)``."""
    R, n = A.ring, A.n
    perms, signs = _kernels.permutation_table(n)
    hits = []
    for i, s in enumerate(R.stalks):
        add, mul, neg, unit, index = _stalk_tables(s)
        a = [[x.parts[0] for x in row] for row in A.restrict(i).rows]
        hit = _kernels.scan_strongly_clean(
            add, mul, neg, unit, a, n, perms, signs, s.one, s.zero, 0, s.size ** (n * n),
            idempotents=index,
        )
        if hit < 0:
            return None
        hits.append(next(e for k, e in index[n][0] if k == hit))
    E = SquareMatrix(
        R, [[R.from_parts([e[r][c] for e in hits]) for c in range(n)] for r in range(n)]
    )
    U = A - E
    return StrongCleanCertificate(E, U, U ** (gl_exponent(R, n) - 1))


def whole_ring_drazin(A: SquareMatrix) -> PiRegularCertificate | None:
    """D = A^(2M-1), M = ``gl_exponent(R, n)``, and the first k up to
    n * (max nilpotency index) with A^{k+1} D = A^k, on the whole matrix."""
    R = A.ring
    D = A ** (2 * gl_exponent(R, A.n) - 1)
    Ak = A
    for k in range(1, A.n * R.max_nil_index() + 1):
        Ak1 = Ak @ A
        if Ak1 @ D == Ak:
            return PiRegularCertificate(k, D, D)
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


# -- whole-ring table encoding --------------------------------------------------------


@dataclass
class RingTable:
    """A finite ring as tables on the indices of its canonical element order."""

    ring: object
    elements: list
    index: dict
    add: list
    mul: list
    neg: list
    unit: list
    zero: int
    one: int

    def encode(self, A: SquareMatrix) -> list[list[int]]:
        """A's rows of element indices."""
        return [[self.index[x] for x in row] for row in A.rows]

    def decode(self, flat_index: int, n: int) -> SquareMatrix:
        """The n x n matrix at ``flat_index`` of the mixed-radix enumeration
        (last entry fastest)."""
        m = len(self.elements)
        entries = []
        for _ in range(n * n):
            flat_index, x = divmod(flat_index, m)
            entries.append(self.elements[x])
        entries.reverse()
        return SquareMatrix(self.ring, [entries[i : i + n] for i in range(0, n * n, n)])


def encode_ring(R) -> RingTable:
    """R's tables, glued in mixed radix (the first stalk most significant)
    from each stalk's ``brute._stalk_tables``."""
    add, mul, neg, unit, _ = _stalk_tables(R.stalks[0])
    for s in R.stalks[1:]:
        add2, mul2, neg2, unit2, _ = _stalk_tables(s)
        m = len(neg2)
        add = [[x * m + y for x in ra for y in rb] for ra in add for rb in add2]
        mul = [[x * m + y for x in ra for y in rb] for ra in mul for rb in mul2]
        neg = [x * m + y for x in neg for y in neg2]
        unit = [a and b for a in unit for b in unit2]
    elems = list(R.elements())
    index = {e: i for i, e in enumerate(elems)}
    return RingTable(R, elems, index, add, mul, neg, unit, index[R.zero], index[R.one])


# -- vectorized numpy references ----------------------------------------------------


def unindexed_scan(
    add, mul, neg, unit, a, n, perms, signs, one, zero, start, stop, chunk=1 << 14
):
    """The first enumeration index in [start, stop) whose E certifies A, or -1.

    Takes the arguments of ``cleanmat._kernels.scan_strongly_clean`` (list
    tables of one ring, A's rows of element indices) and scans the
    candidates of [start, stop) chunk by chunk, testing E^2 = E, EA = AE and
    det(A - E) on every one.
    """
    np = pytest.importorskip("numpy")
    add, mul, neg, unit, a = (np.asarray(t) for t in (add, mul, neg, unit, a))
    m = add.shape[0]
    nn = n * n

    def matmul(X, Y):
        C = np.full((X.shape[0], n, n), zero, dtype=np.int64)
        for k in range(n):
            C = add[C, mul[X[:, :, k][:, :, None], Y[:, k, :][:, None, :]]]
        return C

    for base in range(start, stop, chunk):
        sel = np.arange(base, min(stop, base + chunk), dtype=np.int64)
        E = np.empty((sel.size, n, n), dtype=np.int64)
        rem = sel.copy()
        for pos in range(nn - 1, -1, -1):
            E[:, pos // n, pos % n] = rem % m
            rem //= m
        Ab = np.broadcast_to(a, E.shape)
        mask = (matmul(E, E) == E).all(axis=(1, 2))
        mask &= (matmul(E, Ab) == matmul(Ab, E)).all(axis=(1, 2))
        sel, E = sel[mask], E[mask]
        U = add[a[None, :, :], neg[E]]
        dets = np.full(sel.size, zero, dtype=np.int64)
        for p, sign in zip(perms, signs):
            prod = np.full(sel.size, one, dtype=np.int64)
            for i in range(n):
                prod = mul[prod, U[:, i, p[i]]]
            dets = add[dets, neg[prod] if sign < 0 else prod]
        hits = np.nonzero(unit[dets])[0]
        if hits.size:
            return int(sel[hits[0]])
    return -1


def table_axiom_failure_numpy(add, mul):
    """(axiom, witness) of the first failing ring axiom, or None.

    Axioms are tried in the order ``cleanmat.rings`` checks them; the witness
    of an equational axiom is the first offending index tuple in C order.
    """
    np = pytest.importorskip("numpy")

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


# -- Pierce restriction and gluing on boxed Elements ----------------------------------


def restrict_element(R, a: Element, i: int) -> Element:
    """The value of a on stalk i, as an element of the stalk ring."""
    return Element(R.stalk_ring(i), (a.parts[i],))


def restrict_poly(h: Poly, i: int) -> Poly:
    """The stalk-i part of h, as a polynomial over the stalk ring."""
    return Poly.from_parts(h.ring.stalk_ring(i), [h.parts[i]])


def idempotent_support(R, e: Element) -> tuple[int, ...]:
    """The stalks on which the idempotent e is 1; any other non-0 value raises."""
    support = []
    for i, (s, v) in enumerate(zip(R.stalks, e.parts)):
        if v == s.one:
            support.append(i)
        elif v != s.zero:
            raise ValueError(f"{e!r} is not an idempotent of {R.label()}")
    return tuple(support)


def is_complete_orthogonal(R, idems: list[Element]) -> bool:
    for i, e in enumerate(idems):
        if e * e != e:
            return False
        for f in idems[i + 1 :]:
            if e * f != R.zero:
                return False
    total = R.zero
    for e in idems:
        total = total + e
    return total == R.one


def pierce_glue(R, blocks) -> Element:
    """Glue per-block values along a complete orthogonal set of idempotents.

    Each block is a pair ``(e, v)`` where ``e`` is an idempotent of ``R`` and
    ``v`` is either an element of ``R`` or an element of the block subring
    ``e*R``.  The result is the unique element restricting to ``v`` on the
    stalks covered by each ``e``.
    """
    idems = [e for e, _ in blocks]
    if not is_complete_orthogonal(R, idems):
        raise ValueError("idempotents are not a complete orthogonal set")
    acc = R.zero
    for e, v in blocks:
        if not isinstance(v, Element):
            raise RingMismatch(f"block value {v!r} is not a ring element")
        if v.ring.key == R.key:
            acc = acc + e * v
            continue
        support = idempotent_support(R, e)
        B = block_ring(R, support)
        if v.ring.key != B.key:
            raise RingMismatch(
                f"block value lives in {v.ring.label()}, expected {B.label()} or {R.label()}"
            )
        parts = list(R.zero.parts)
        for i, x in zip(support, v.parts):
            parts[i] = x
        acc = acc + Element(R, tuple(parts))
    return acc


# -- the per-stalk searches on one-stalk polynomials ----------------------------------
#
# ``cleanmat.factor`` searches each stalk on its raw coefficients with the
# kernels of ``cleanmat.polys``.  These are the same searches written on boxed
# one-stalk polynomials (``restrict_poly``) with the Element-level references
# above: every Taylor shift is ``fold_translate``, every unit test a
# ``fold_eval``, every Bezout pair ``comaximality_cramer``, every rational root
# ``rational_roots_horner`` and every division ``fold_monic_divide``, except in
# the two candidate scans, whose many trial divisions take one ``raw_divide``
# each (``divide_by_kernel``).  Each outcome generator yields (certificate,
# complete, note) per degree split, in degree order.


def _first_unit_index_boxed(h: Poly) -> int:
    R = h.ring
    return next(i for i, c in enumerate(h.coeffs) if R.is_unit(c))


# the searches meet the same factor pairs and lifts again and again, and both
# are pure functions of their input, so each is computed once
_cramer_once = functools.lru_cache(maxsize=1 << 14)(comaximality_cramer)


def divide_by_kernel(f: Poly, g: Poly):
    """``fold_monic_divide``'s (q, r, exact) of one-stalk polynomials, by ``raw_divide``."""
    (s,) = f.ring.stalks
    q, r = raw_divide(s, f.parts[0], g.parts[0])
    return Poly.from_parts(f.ring, [q]), Poly.from_parts(f.ring, [r]), not r


@functools.lru_cache(maxsize=1 << 12)
def hensel_split_boxed(h: Poly, a: int):
    """(q, p, rounds): the Newton lift h = q*p with p = t^a mod m, on Polys."""
    R = h.ring
    limit = (R.max_nil_index() - 1).bit_length() + 1
    p = t_power(R, a)
    for rounds in range(1, limit + 1):
        q, r, exact = fold_monic_divide(h, p)
        if exact:
            return q, p, rounds
        bez = _cramer_once(q, p)
        if bez is None:
            break
        p = fold_poly_add(p, fold_monic_divide(fold_poly_mul(r, bez[0]), p)[1])
    raise VerificationFailed([f"Hensel lift of {h!r} from t^{a} did not converge"])


def _attempt_pair(h: Poly, f0: Poly, mode: str, divide=fold_monic_divide):
    """An SRCCertificate of the monic candidate f0, or None."""
    R = h.ring
    f1, _, exact = divide(h, f0)
    if not exact or not _unit_at(f0, R.zero) or not _unit_at(f1, R.one):
        return None
    if mode == "SR":
        return SRCCertificate(f0, f1, None, None, "SR")
    bez = _cramer_once(f0, f1)
    if bez is None:
        return None
    return SRCCertificate(f0, f1, bez[0], bez[1], "SRC")


def _first_candidate_pair(h: Poly, candidates, mode: str):
    """The ``_attempt_pair`` of the first candidate that has one, or None."""
    for f0 in candidates:
        cert = _attempt_pair(h, f0, mode, divide_by_kernel)
        if cert is not None:
            return cert
    return None


def _monic_candidates_boxed(R, d: int):
    (s,) = R.stalks
    elems = s.elements()
    for c0 in (x for x in elems if s.is_unit(x)):
        for mids in itertools.product(elems, repeat=d - 1):
            yield Poly.from_parts(R, [(c0, *mids, s.one)])


def src_outcomes_finite_boxed(h: Poly, mode: str):
    R = h.ring
    g = fold_translate(h, R.one)
    b = _first_unit_index_boxed(g)
    for _ in range(b):
        yield None, True, f"(t-1)^{b} divides h mod m but not f1 mod m, so deg f0 >= {b}"
    q, p, _ = hensel_split_boxed(g, b)
    f0, f1 = fold_translate(p, -R.one), fold_translate(q, -R.one)
    bez = (None, None)
    if mode == "SRC":
        bez = _cramer_once(f0, f1)
        if bez is None:
            raise VerificationFailed([f"Hensel split of {h!r} is not comaximal"])
    yield SRCCertificate(f0, f1, *bez, mode), True, "found"
    for d in range(b + 1, h.degree + 1):
        cert = _first_candidate_pair(h, _monic_candidates_boxed(R, d), mode)
        yield cert, True, "found" if cert else f"exhausted all monic degree-{d} candidates"


def src_outcomes_zloc_boxed(h: Poly, mode: str):
    R = h.ring
    n = h.degree
    roots = None

    def linear(r: Fraction) -> Poly:
        return Poly(R, [R.from_parts((-r,)), R.one])

    for d in range(n + 1):
        if d == 0:
            cert = _attempt_pair(h, Poly.one(R), mode)
            note = f"h(1) = {fold_eval(h, R.one)!r} is not a unit"
            yield cert, True, "found" if cert else note
        elif d == n:
            cert = _attempt_pair(h, h, mode)
            note = f"h(0) = {fold_eval(h, R.zero)!r} is not a unit"
            yield cert, True, "found" if cert else note
        elif d in (1, n - 1):
            if roots is None:
                roots = rational_roots_horner(h)
            cert = None
            for r in roots:
                f0 = linear(r) if d == 1 else fold_monic_divide(h, linear(r))[0]
                cert = _attempt_pair(h, f0, mode)
                if cert is not None:
                    break
            note = (
                "found"
                if cert
                else f"all rational roots {[str(r) for r in roots]} fail the unit tests"
            )
            yield cert, True, note
        else:
            lo = _first_unit_index_boxed(fold_translate(h, R.one))
            hi = n - _first_unit_index_boxed(h)
            if not lo <= d <= hi:
                yield None, True, f"f0(0) and f1(1) units force {lo} <= deg f0 <= {hi}"
                continue
            span = range(-BOUNDED_HEIGHT, BOUNDED_HEIGHT + 1)
            p = R.stalks[0].p
            candidates = (
                Poly.from_ints(R, [c0, *mids, 1])
                for c0 in span
                if c0 % p
                for mids in itertools.product(span, repeat=d - 1)
            )
            cert = _first_candidate_pair(h, candidates, mode)
            note = (
                "found"
                if cert
                else f"bounded search (height {BOUNDED_HEIGHT}) exhausted; not decisive"
            )
            yield cert, cert is not None, note


def sp_outcomes_boxed(h: Poly):
    R = h.ring
    n = h.degree
    if R.is_finite:
        a = _first_unit_index_boxed(h)
        q, p, _ = hensel_split_boxed(h, a)
        for d in range(n + 1):
            if d == a:
                yield SPCertificate(q, p), True, "found"
            else:
                yield None, True, f"no nilpotent-tail divisor of degree {d}"
        return
    coeffs = h.coeffs
    val = next(i for i, c in enumerate(coeffs) if c != R.zero)
    for d in range(n + 1):
        cert = None
        note = f"p0 = t^{d} does not divide h"
        if d == val:
            h0 = Poly(R, coeffs[d:])
            if _unit_at(h0, R.zero):
                cert = SPCertificate(h0, t_power(R, d))
                note = "found"
            else:
                note = f"h0(0) = {h0.coeff(0)!r} is not a unit"
        elif d < val:
            note = f"h0(0) would be 0 (valuation of h is {val})"
        yield cert, True, note


def _cert_parts(cert) -> tuple | None:
    """The raw parts of a one-stalk certificate: (f0, f1, u, v) or (h0, p0)."""
    if cert is None:
        return None
    if isinstance(cert, SPCertificate):
        return cert.h0.parts[0], cert.p0.parts[0]
    fields = (cert.f0, cert.f1, cert.bezout_u, cert.bezout_v)
    return tuple(None if f is None else f.parts[0] for f in fields)


def _stalk_outcomes_boxed(h: Poly, mode: str):
    if mode == "SP":
        outcomes = sp_outcomes_boxed(h)
    elif h.ring.is_finite:
        outcomes = src_outcomes_finite_boxed(h, mode)
    else:
        outcomes = src_outcomes_zloc_boxed(h, mode)
    for cert, done, note in outcomes:
        yield _cert_parts(cert), done, note


def stalk_outcomes_boxed(h: Poly, mode: str) -> list:
    """(raw parts or None, complete, note) of every degree split 0..deg h of a one-stalk h."""
    return list(_stalk_outcomes_boxed(h, mode))


def stalk_search_boxed(h: Poly, mode: str) -> tuple:
    """(hit, notes, complete) of a one-stalk h: its lowest degree split and what was examined.

    The SR(C) search stops at its first hit; one SP lift decides every
    degree, so SP examines them all.
    """
    examined, hit = [], None
    for d, out in enumerate(_stalk_outcomes_boxed(h, mode)):
        examined.append(out)
        if out[0] is not None and hit is None:
            hit = d, out[0]
            if mode != "SP":
                break
    notes = tuple(
        (str(d), note if done else note + " [incomplete]")
        for d, (_, done, note) in enumerate(examined)
    )
    return hit, notes, all(done for _, done, _ in examined)
