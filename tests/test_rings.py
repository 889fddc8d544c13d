from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.errors import (
    IncompleteCover,
    NonRing,
    NotPrime,
    RingMismatch,
    UnsupportedSize,
)
from cleanmat.rings import (
    build_ring,
    is_complete_orthogonal,
    pierce_glue,
)
from cleanmat.stalks import ZModStalk

from conftest import zmod_tables
from oracles import strongly_clean_element


def test_zmod12_stalks_and_idempotents(zmod):
    R = zmod(12)
    assert [s.label() for s in R.stalks] == ["Z/4", "Z/3"]
    assert {R.to_int(e) for e in R.primitive_idempotents()} == {9, 4}
    assert {R.to_int(e) for e in R.idempotents()} == {0, 1, 4, 9}


def test_idempotents_match_exhaustive_scan(zmod):
    # oracle: direct e^2 = e scan over the integers mod n
    for n in (6, 12, 30, 45):
        R = zmod(n)
        oracle = {e for e in range(n) if (e * e) % n == e}
        assert {R.to_int(e) for e in R.idempotents()} == oracle


def test_field_is_its_own_stalk(zmod):
    R = zmod(7)
    assert R.num_stalks == 1
    assert [R.to_int(e) for e in R.primitive_idempotents()] == [1]


def test_zloc_construction(zloc):
    R = zloc(2)
    assert R.num_stalks == 1 and not R.is_finite
    assert len(R.idempotents()) == 2
    with pytest.raises(NotPrime):
        build_ring({"type": "zloc", "p": 4})


def test_unit_tests_and_inverses(zmod, zloc):
    Z2 = zloc(2)
    a = Z2.from_parts((Fraction(3, 5),))
    assert Z2.is_unit(a)
    assert Z2.inv(a).parts[0] == Fraction(5, 3)
    R12 = zmod(12)
    five = R12.from_int(5)
    assert R12.is_unit(five) and R12.to_int(R12.inv(five)) == 5
    assert not R12.is_unit(R12.zero)
    assert Z2.inv(Z2.from_int(2)) is None


def test_table_unit_matches_exhaustive_search(f4_ring, dual_ring, f2xf2_ring):
    for R in (f4_ring, dual_ring, f2xf2_ring):
        elems = list(R.elements())
        for a in elems:
            brute = any(a * b == R.one for b in elems)
            assert R.is_unit(a) == brute
            if brute:
                assert a * R.inv(a) == R.one


def test_radical_membership_examples(zmod, zloc):
    R12 = zmod(12)
    m = R12.radical_membership(R12.from_int(6))
    assert m.in_jacobson and m.in_nil
    Z2 = zloc(2)
    m = Z2.radical_membership(Z2.from_int(2))
    assert m.in_jacobson and not m.in_nil
    for R in (R12, Z2):
        m = R.radical_membership(R.one)
        assert not m.in_jacobson and not m.in_nil


def test_table_radical_routes_agree(f4_ring, dual_ring, f2xf2_ring):
    # definitional route (1 + r*s always a unit) vs the stalk route
    for R in (f4_ring, dual_ring, f2xf2_ring):
        for r in R.elements():
            got = R.radical_membership(r)
            stalkwise_j = all(
                s.in_max_ideal(v) for s, v in zip(R.stalks, r.parts)
            )
            stalkwise_n = all(
                s.is_nilpotent(v) for s, v in zip(R.stalks, r.parts)
            )
            assert got.in_jacobson == stalkwise_j
            assert got.in_nil == stalkwise_n


def test_classify(zmod, zloc, dual_ring, f2xf2_ring):
    c = zmod(12).classify()
    assert (c.is_local, c.is_clean, c.is_j_clean) == (False, True, True)
    c = zloc(2).classify()
    assert (c.is_local, c.is_clean, c.is_j_clean) == (True, True, True)
    c = zmod(7).classify()
    assert (c.is_local, c.is_clean, c.is_j_clean) == (True, True, True)
    assert dual_ring.classify().is_local
    c = f2xf2_ring.classify()
    assert (c.is_local, c.is_clean, c.is_j_clean) == (False, True, True)


def test_strongly_clean_element(zmod):
    R6 = zmod(6)
    e, u = strongly_clean_element(R6, R6.from_int(3))
    assert (R6.to_int(e), R6.to_int(u)) == (4, 5)
    R12 = zmod(12)
    e, u = strongly_clean_element(R12, R12.from_int(5))
    assert R12.to_int(e) == 0 and R12.to_int(u) == 5
    e, u = strongly_clean_element(R12, R12.one)
    assert R12.to_int(e) == 0 and R12.to_int(u) == 1
    # every element of a finite commutative ring is clean
    for r in R12.elements():
        assert strongly_clean_element(R12, r) is not None


def test_pierce_glue_crt(zmod):
    R12 = zmod(12)
    prim = R12.primitive_idempotents()  # indicator of Z/4, then Z/3
    e9 = prim[0] if R12.to_int(prim[0]) == 9 else prim[1]
    e4 = prim[0] if R12.to_int(prim[0]) == 4 else prim[1]
    v4 = R12.stalk_ring(0).from_int(2)
    v3 = R12.stalk_ring(1).from_int(1)
    glued = pierce_glue(R12, [(e9, v4), (e4, v3)])
    assert R12.to_int(glued) == 10

    R6 = zmod(6)
    prim = R6.primitive_idempotents()
    glued = pierce_glue(
        R6,
        [
            (prim[0], R6.stalk_ring(0).from_int(0)),
            (prim[1], R6.stalk_ring(1).from_int(1)),
        ],
    )
    assert R6.to_int(glued) == 4

    R7 = zmod(7)
    v = R7.from_int(3)
    assert pierce_glue(R7, [(R7.one, v)]) == v


def test_pierce_glue_incomplete_cover(zmod):
    R12 = zmod(12)
    e9 = next(e for e in R12.idempotents() if R12.to_int(e) == 9)
    with pytest.raises(IncompleteCover):
        pierce_glue(R12, [(e9, R12.one)])


def test_ring_mismatch(zmod):
    with pytest.raises(RingMismatch):
        zmod(6).one + zmod(12).one


def test_table_validation_errors():
    add, mul = zmod_tables(4)
    bad = [row[:] for row in mul]
    bad[2][3] = 1  # breaks commutativity against the untouched (3, 2) entry
    with pytest.raises(NonRing):
        build_ring({"type": "table", "add": add, "mul": bad})
    with pytest.raises(UnsupportedSize):
        n = 65
        build_ring(
            {
                "type": "table",
                "add": [[(i + j) % n for j in range(n)] for i in range(n)],
                "mul": [[(i * j) % n for j in range(n)] for i in range(n)],
            }
        )
    with pytest.raises(UnsupportedSize):
        build_ring({"type": "zmod", "n": 1})


def test_table_decomposition(f2xf2_ring, f4_ring, zmod):
    assert f2xf2_ring.num_stalks == 2
    assert f4_ring.num_stalks == 1
    add, mul = zmod_tables(6)
    R = build_ring({"type": "table", "add": add, "mul": mul})
    assert R.num_stalks == 2
    assert {len(s.members) for s in R.stalks} == {2, 3}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_arithmetic_commutes_with_restriction(n, a, b):
    R = build_ring({"type": "zmod", "n": n})
    x, y = R.from_int(a), R.from_int(b)
    for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
        z = op(x, y)
        for i in range(R.num_stalks):
            s = R.stalks[i]
            lhs = z.parts[i]
            rhs = op(R.restrict_element(x, i), R.restrict_element(y, i)).parts[0]
            assert s.key(lhs) == s.key(rhs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), v=st.integers(-500, 500))
def test_glue_restrict_roundtrip(n, v):
    R = build_ring({"type": "zmod", "n": n})
    a = R.from_int(v)
    prim = R.primitive_idempotents()
    values = [R.restrict_element(a, i) for i in range(R.num_stalks)]
    assert pierce_glue(R, list(zip(prim, values))) == a
    assert is_complete_orthogonal(R, prim)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), v=st.integers(-500, 500))
def test_nil_membership_iff_all_stalks_nilpotent(n, v):
    R = build_ring({"type": "zmod", "n": n})
    a = R.from_int(v)
    # oracle: direct powering in Z/n
    acc = v % n
    nil = acc == 0
    for _ in range(n.bit_length() + 1):
        acc = (acc * acc) % n
        if acc == 0:
            nil = True
            break
    assert R.radical_membership(a).in_nil == nil


def test_every_stalk_is_local(zmod, zloc, f4_ring, dual_ring, f2xf2_ring):
    for R in (zmod(12), zmod(360), zloc(3), f4_ring, dual_ring, f2xf2_ring):
        assert all(s.check_local() for s in R.stalks)


def _nonunits_form_an_ideal(q: int) -> bool:
    """Independent locality oracle for Z/q: units are the residues prime to q."""
    nonunits = [a for a in range(q) if math.gcd(a, q) != 1]
    if any(math.gcd((a + b) % q, q) == 1 for a in nonunits for b in nonunits):
        return False
    return all(math.gcd(a * r % q, q) != 1 for a in nonunits for r in range(q))


def test_zmod_locality_matches_ideal_oracle(zmod):
    stalks = {(s.p, s.k): s for n in range(2, 301) for s in zmod(n).stalks}
    for s in stalks.values():
        assert _nonunits_form_an_ideal(s.q) is True
        assert s.check_local() is True, s.label()
    # a hand-built stalk whose "p" is not prime: Z/6 is not local
    assert _nonunits_form_an_ideal(6) is False
    assert ZModStalk(6, 1).check_local() is False
    for q in range(2, 301):
        if all(q % (d * d) for d in range(2, q)):  # squarefree: p = q, k = 1
            assert ZModStalk(q, 1).check_local() is _nonunits_form_an_ideal(q), q


def test_element_parsing_and_rendering(zmod, zloc2_squared):
    R12 = zmod(12)
    for v in range(12):
        assert R12.to_int(R12.from_int(v)) == v
    a = zloc2_squared.from_parts((Fraction(3, 5), Fraction(1)))
    assert zloc2_squared.render_value(a) == ("3/5", "1/1")


def test_table_stalk_neg_matches_add_table_scan(f4_ring, dual_ring, f2xf2_ring):
    # the three characteristic-2 tables have neg(a) = a; Z/4 and Z/6 do not
    tables = [zmod_tables(4), zmod_tables(6)]
    rings = [build_ring({"type": "table", "add": add, "mul": mul}) for add, mul in tables]
    for R in (f4_ring, dual_ring, f2xf2_ring, *rings):
        for s in R.stalks:
            scan = {
                a: next(b for b in s.members if s._add[a][b] == s.zero)
                for a in s.members
            }
            for a in s.members:
                assert s.neg(a) == scan[a]
                for b in s.members:
                    assert s.sub(a, b) == s._add[a][scan[b]]
