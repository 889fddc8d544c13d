from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.matrices import (
    SquareMatrix,
    char_poly,
    companion,
    poly_at_matrix,
    random_with_charpoly,
)
from cleanmat.polys import Poly
from cleanmat.rings import Element, Ring, build_ring
from cleanmat.stalks import ZModStalk

from conftest import CERT_RINGS, dual_f2_tables, f2xf2_tables, f4_tables
from oracles import (
    char_poly_cofactor,
    fold_dot,
    fold_eval,
    fold_matmul,
    gl_exponent,
    inverse_adjugate,
    matrix_classify,
)


def test_companion_and_charpoly_roundtrip(zmod):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [2, 3, 1])
    C = companion(h)
    assert [[R8.to_int(x) for x in row] for row in C.rows] == [[0, 6], [1, 5]]
    assert char_poly(C) == h


def test_companion_over_product(zloc2_squared):
    R = zloc2_squared
    h = Poly(
        R,
        [
            Element(R, (Fraction(2), Fraction(3))),
            Element(R, (Fraction(3), Fraction(1))),
            R.one,
        ],
    )
    C = companion(h)
    assert C.rows[0][1].parts == (Fraction(-2), Fraction(-3))
    assert C.rows[1][1].parts == (Fraction(-3), Fraction(-1))
    assert C.rows[1][0] == R.one and C.rows[0][0] == R.zero
    assert char_poly(C) == h


def test_charpoly_identity(zmod):
    R12 = zmod(12)
    chi = char_poly(SquareMatrix.identity(R12, 2))
    assert [R12.to_int(c) for c in chi.coeffs] == [1, 10, 1]


def test_charpoly_exhaustive_companion_roundtrip(zmod):
    for n in (4, 6):
        R = build_ring({"type": "zmod", "n": n})
        for lows in itertools.product(range(n), repeat=2):
            h = Poly.from_ints(R, [*lows, 1])
            assert char_poly(companion(h)) == h
    # sampled higher degrees
    R = zmod(6)
    rng = random.Random(7)
    for _ in range(25):
        for deg in (3, 4):
            h = Poly.from_ints(R, [rng.randrange(6) for _ in range(deg)] + [1])
            assert char_poly(companion(h)) == h


def test_charpoly_matches_cofactor_oracle(zmod):
    R6 = zmod(6)
    rng = random.Random(123)
    for _ in range(30):
        A = SquareMatrix(
            R6, [[R6.random_element(rng) for _ in range(3)] for _ in range(3)]
        )
        assert char_poly(A) == char_poly_cofactor(A)


def test_charpoly_similarity_invariance(zmod):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [3, 2, 1])
    A = random_with_charpoly(h, seed=5)
    assert char_poly(A) == h


def test_matrix_classify_examples(zmod):
    R2 = zmod(2)
    c = matrix_classify(SquareMatrix.from_ints(R2, [[0, 0], [1, 1]]))
    assert c.is_idempotent and not c.is_unit and not c.is_nilpotent
    R4 = zmod(4)
    c = matrix_classify(SquareMatrix.from_ints(R4, [[0, 2], [0, 0]]))
    assert c.is_nilpotent and not c.is_unit
    c = matrix_classify(SquareMatrix.identity(R4, 2))
    assert c.is_unit and c.is_idempotent and not c.is_nilpotent


def test_nilpotency_agrees_with_powering(zmod):
    rng = random.Random(99)
    for n in (4, 6, 9):
        R = build_ring({"type": "zmod", "n": n})
        bound = 2 * R.max_nil_index()
        for _ in range(40):
            A = SquareMatrix(
                R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
            )
            powered = A ** bound == SquareMatrix.from_ints(R, [[0, 0], [0, 0]])
            assert matrix_classify(A).is_nilpotent == powered


_ZLOC = {
    "Z_(2)": {"type": "zloc", "p": 2},
    "Z_(3)": {"type": "zloc", "p": 3},
}


def _ring(name):
    if name in CERT_RINGS:
        return build_ring(CERT_RINGS[name])
    if name in _ZLOC:
        return build_ring(_ZLOC[name])
    return build_ring({"type": "zmod", "n": int(name.removeprefix("Z/"))})


def _random_matrix(R, rng, n):
    return SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("name", ["Z/12", "Z/27", "Z_(2)", "Z/4 x Z_(3)", "dual-F2", "F2 x F2"])
def test_inverse_at_larger_sizes(name):
    """At n = 4..6, A is invertible exactly when char_poly(A)(0) is a unit,
    and over a finite ring its inverse is the power A^(M-1), M =
    ``oracles.gl_exponent(R, n)``, the lcm of the GL exponents that the
    exhaustive scan's certificate takes on each stalk.  The inverse it is
    compared with is ``inverse_adjugate``."""
    R = _ring(name)
    rng = random.Random(name)
    seen = set()
    for n in (4, 5, 6):
        I = SquareMatrix.identity(R, n)
        for k in range(10):
            A = _random_matrix(R, rng, n)
            if k % 2:
                # (I + upper nilpotent) @ random: invertible exactly when the random factor is
                up = [[R.random_element(rng) if i < j else R.zero for j in range(n)] for i in range(n)]
                A = (I + SquareMatrix(R, up)) @ SquareMatrix(R, zip(*A.rows))
            inv = inverse_adjugate(A)
            assert (inv is not None) == R.is_unit(char_poly(A).coeff(0))
            if inv is not None:
                assert A @ inv == I and inv @ A == I
                if R.is_finite:
                    assert A ** (gl_exponent(R, n) - 1) == inv
            seen.add(inv is not None)
    assert seen == {False, True}


def test_random_with_charpoly_determinism(zmod):
    R6 = zmod(6)
    h = Poly.from_ints(R6, [2, 3, 1])
    A1 = random_with_charpoly(h, seed=42)
    A2 = random_with_charpoly(h, seed=42)
    assert A1 == A2
    assert char_poly(A1) == h
    assert random_with_charpoly(Poly.from_ints(R6, [0, 1]), seed=0) == companion(
        Poly.from_ints(R6, [0, 1])
    )


@pytest.mark.parametrize("name", ["Z/2", "Z/3", "Z/4", "F2 x F2"])
def test_similar_samples_reach_every_conjugate(name):
    """At n = 2, seeds 0..399 reach every P C(h) P^-1 of every monic h, with
    P^-1 = ``inverse_adjugate(P)`` over every 2 x 2 matrix P; each sample has
    char poly h, and equal seeds give equal matrices."""
    R = _ring(name)
    units = []
    for entries in itertools.product(list(R.elements()), repeat=4):
        P = SquareMatrix(R, [entries[:2], entries[2:]])
        P_inv = inverse_adjugate(P)
        if P_inv is not None:
            units.append((P, P_inv))
    for c0, c1 in itertools.product(list(R.elements()), repeat=2):
        h = Poly(R, [c0, c1, R.one])
        C = companion(h)
        conjugates = {P @ C @ P_inv for P, P_inv in units}
        samples = set()
        for seed in range(400):
            A = random_with_charpoly(h, seed)
            assert A in conjugates and char_poly(A) == h, (h, seed)
            assert A == random_with_charpoly(h, seed)
            samples.add(A)
        assert samples == conjugates, h


def test_poly_at_matrix_cayley_hamilton(zmod, zloc):
    rng = random.Random(3)
    for R in (zmod(8), zmod(12), zloc(2)):
        for _ in range(10):
            A = SquareMatrix(
                R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
            )
            assert poly_at_matrix(char_poly(A), A) == SquareMatrix.from_ints(R, [[0, 0], [0, 0]])


# -- raw-value folds against Element folds ----------------------------------------------

_FOLD_RINGS = [
    build_ring({"type": "zmod", "n": 8}),
    build_ring({"type": "zmod", "n": 9}),
    build_ring({"type": "zmod", "n": 12}),
    build_ring({"type": "zloc", "p": 2}),
    build_ring({"type": "zloc", "p": 3}),
    build_ring({"type": "product", "factors": [{"type": "zloc", "p": 2}, {"type": "zloc", "p": 2}]}),
    build_ring({"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}]}),
    *(
        build_ring({"type": "table", "add": add, "mul": mul})
        for add, mul in (f4_tables(), dual_f2_tables(), f2xf2_tables())
    ),
]


def _stalk_values(s):
    if s.kind == "zmod":
        return st.integers(0, s.q - 1)
    if s.kind == "zloc":
        dens = [d for d in (1, 2, 3, 5, 7, 9) if d % s.p]
        return st.builds(Fraction, st.integers(-30, 30), st.sampled_from(dens))
    return st.sampled_from(s.elements())


def _elements(R):
    return st.tuples(*(_stalk_values(s) for s in R.stalks)).map(
        lambda parts: Element(R, parts)
    )


def _fold_poly_at(f, A):
    ident = SquareMatrix.identity(A.ring, A.n)
    acc = SquareMatrix.from_ints(A.ring, [[0] * A.n] * A.n)
    for c in reversed(f.coeffs):
        acc = fold_matmul(acc, A) + ident * c
    return acc


def _draw_matrix(data, R, n):
    return SquareMatrix(
        R, [[data.draw(_elements(R)) for _ in range(n)] for _ in range(n)]
    )


@settings(max_examples=60, deadline=None)
@given(R=st.sampled_from(_FOLD_RINGS), length=st.integers(0, 5), data=st.data())
def test_ring_dot_matches_element_fold(R, length, data):
    # the stalk-level dot that the raw kernels fold with, stalk by stalk
    xs = [data.draw(_elements(R)) for _ in range(length)]
    ys = [data.draw(_elements(R)) for _ in range(length)]
    parts = tuple(
        s.dot([x.parts[i] for x in xs], [y.parts[i] for y in ys])
        for i, s in enumerate(R.stalks)
    )
    assert parts == fold_dot(R, xs, ys).parts


@settings(max_examples=60, deadline=None)
@given(R=st.sampled_from(_FOLD_RINGS), n=st.integers(0, 3), data=st.data())
def test_matmul_matches_element_fold(R, n, data):
    A, B = _draw_matrix(data, R, n), _draw_matrix(data, R, n)
    assert A @ B == fold_matmul(A, B)


@settings(max_examples=60, deadline=None)
@given(R=st.sampled_from(_FOLD_RINGS), n=st.integers(1, 3), data=st.data())
def test_char_poly_and_poly_at_matrix_match_element_folds(R, n, data):
    A = _draw_matrix(data, R, n)
    chi = char_poly(A)
    assert chi == char_poly_cofactor(A)
    assert poly_at_matrix(chi, A) == SquareMatrix.from_ints(R, [[0] * n] * n)
    f = Poly(R, [data.draw(_elements(R)) for _ in range(data.draw(st.integers(0, 4)))])
    assert poly_at_matrix(f, A) == _fold_poly_at(f, A)
    inv = inverse_adjugate(A)
    if inv is not None:
        # the Cayley-Hamilton inverse, folded on Elements
        q = Poly(R, chi.coeffs[1:])
        assert inv == _fold_poly_at(q, A) * (-R.inv(chi.coeff(0)))


# -- edges of the per-stalk raw kernels -------------------------------------------------


def test_results_are_tuple_rows_that_equal_and_hash_like_constructed():
    R = _FOLD_RINGS[6]
    rng = random.Random(5)
    A = SquareMatrix(R, [[R.random_element(rng) for _ in range(3)] for _ in range(3)])
    B = SquareMatrix(R, [[R.random_element(rng) for _ in range(3)] for _ in range(3)])
    f = Poly(R, [R.random_element(rng) for _ in range(3)] + [R.one])
    results = [A @ B, poly_at_matrix(f, A), A + B, A - B, -A, A * R.one, SquareMatrix(R, zip(*A.rows))]
    results += [A**3, random_with_charpoly(f, 5)]
    for P in results:
        assert type(P.rows) is tuple and all(type(r) is tuple for r in P.rows)
        assert P.n == 3 and all(len(r) == 3 for r in P.rows)
        Q = SquareMatrix(R, P.rows)
        assert P == Q and hash(P) == hash(Q)
        assert all(isinstance(e, Element) and e.ring is R for r in P.rows for e in r)


def test_equality_truth_table():
    Z12, Z6 = build_ring({"type": "zmod", "n": 12}), build_ring({"type": "zmod", "n": 6})
    A = SquareMatrix.from_ints(Z12, [[1, 2], [3, 4]])
    assert A == SquareMatrix.from_ints(build_ring({"type": "zmod", "n": 12}), [[1, 2], [3, 4]])
    assert A != SquareMatrix.from_ints(Z6, [[1, 2], [3, 4]])
    # Z/4 x Z/3 has Z/12's stalks, so only the ring key tells the two apart
    P = build_ring(
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zmod", "n": 3}]}
    )
    assert A != SquareMatrix(P, [[Element(P, e.parts) for e in r] for r in A.rows])
    assert A != SquareMatrix.from_ints(Z12, [[1, 2, 0], [3, 4, 0], [0, 0, 1]])
    assert A.__eq__(A.rows) is NotImplemented and A != A.rows
    for stalk in range(Z12.num_stalks):
        # one entry moved on one stalk only
        parts = list(A.rows[1][0].parts)
        parts[stalk] = Z12.stalks[stalk].add(parts[stalk], Z12.stalks[stalk].one)
        rows = [list(r) for r in A.rows]
        rows[1][0] = Element(Z12, tuple(parts))
        assert A != SquareMatrix(Z12, rows)


def test_sizes_zero_and_one():
    for R in _FOLD_RINGS:
        E = SquareMatrix(R, [])
        assert E @ E == E
        assert char_poly(E) == Poly.one(R)
        assert poly_at_matrix(Poly.from_ints(R, [1, 1]), E) == E
        rng = random.Random(R.key)
        for _ in range(6):
            a, b = R.random_element(rng), R.random_element(rng)
            A = SquareMatrix(R, [[a]])
            assert A @ SquareMatrix(R, [[b]]) == SquareMatrix(R, [[a * b]])
            assert char_poly(A) == Poly(R, [-a, R.one])
            f = Poly(R, [b, a, R.one])
            assert poly_at_matrix(f, A) == SquareMatrix(R, [[fold_eval(f, a)]])
            assert poly_at_matrix(Poly.zero(R), A) == SquareMatrix.from_ints(R, [[0]])


def test_berkowitz_dot_count():
    """char_poly folds 4 stalk dots for a 2x2 matrix and 12 for a 3x3 one.

    A level of size m >= 2 takes m - 1 dots for the items -R sub^k C,
    (m - 1)(m - 2) for the sub^k C vectors those items read, and m + 1 for
    the Toeplitz product, and the levels m = n, ..., 2 add up.  A vector
    past the last item is not computed.
    """
    stalk = ZModStalk(7, 1)
    R = Ring({"type": "zmod", "n": 7}, [stalk])
    calls = []
    plain = stalk.dot
    stalk.dot = lambda xs, ys: calls.append(len(xs)) or plain(xs, ys)
    for n, expected in ((2, 4), (3, 12)):
        calls.clear()
        A = SquareMatrix.from_ints(R, [[i * n + j + 1 for j in range(n)] for i in range(n)])
        chi = char_poly(A)
        assert len(calls) == expected
        assert chi == char_poly_cofactor(A)


@pytest.mark.parametrize("name", ["Z/12", "Z/4 x Z_(3)", "F2 x F2"])
def test_glued_poly_costs_each_stalk_its_own_degree(name, monkeypatch):
    """A glued polynomial evaluates stalk by stalk at each stalk's degree.

    With f_i of different degrees and f the polynomial whose stalk i is f_i,
    poly_at_matrix(f, A) restricts to poly_at_matrix(f_i, A_i) on stalk i,
    and stalk i makes exactly max(deg f_i - 1, 0) calls of its ``matmul``:
    the coefficients above its own degree are zeros that Horner skips, and
    its first step lead*A + c*I needs no matmul.
    """
    R = build_ring(CERT_RINGS[name])
    assert R.num_stalks == 2
    rng = random.Random(name)
    n = 3
    A = SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
    matmuls = [0, 0]
    # F2 x F2's two blocks are one stalk object, so a call is told apart by
    # its right factor, which Horner takes to be stalk i's grid of A
    for s in dict.fromkeys(R.stalks):

        def counted(a, b, plain=s.matmul):
            for i, grid in enumerate(A.grids):
                matmuls[i] += grid is b
            return plain(a, b)

        monkeypatch.setattr(s, "matmul", counted)

    def random_poly(S, d):
        if d < 0:
            return Poly.zero(S)
        lead = S.zero
        while lead == S.zero:
            lead = S.random_element(rng)
        return Poly(S, [S.random_element(rng) for _ in range(d)] + [lead])

    for degrees in ((3, 1), (1, 3), (0, 2), (2, -1)):
        fs = [random_poly(R.stalk_ring(i), d) for i, d in enumerate(degrees)]
        expected = [poly_at_matrix(f, A.restrict(i)) for i, f in enumerate(fs)]
        matmuls[:] = [0, 0]
        glued = poly_at_matrix(Poly.from_parts(R, [f.parts[0] for f in fs]), A)
        assert matmuls == [max(d - 1, 0) for d in degrees]
        assert [glued.restrict(i) for i in range(2)] == expected
