from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.errors import (
    MalformedDescriptor,
    NonRing,
    NotPrime,
    RingMismatch,
    UnsupportedSize,
)
from cleanmat.rings import block_ring, build_ring
from cleanmat.serialize import element_from_json
from cleanmat.stalks import ZModStalk

from conftest import CERT_RINGS, dual_f2_tables, f2xf2_tables, f4_tables, zmod_tables
from oracles import (
    is_clean_definitional,
    is_complete_orthogonal,
    is_j_clean_definitional,
    pierce_glue,
    radical_membership_definitional,
    restrict_element,
    strongly_clean_element,
    table_axiom_failure_numpy,
)


def _table_ring(tables):
    add, mul = tables
    return build_ring({"type": "table", "add": add, "mul": mul})


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
    # the stalk route of classify and radical_membership vs the definitions
    for R in (f4_ring, dual_ring, f2xf2_ring, _table_ring(zmod_tables(12))):
        c = R.classify()
        assert c.is_local == (R.num_stalks == 1)
        assert c.is_clean == is_clean_definitional(R)
        assert c.is_j_clean == is_j_clean_definitional(R)
        for r in R.elements():
            assert R.radical_membership(r) == radical_membership_definitional(R, r)


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
    with pytest.raises(ValueError, match="not a complete orthogonal set"):
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


def _axiom_failure(add, mul):
    try:
        build_ring({"type": "table", "add": add, "mul": mul})
    except NonRing as exc:
        return exc.axiom, exc.witness
    return None


def test_table_axiom_checks_match_the_numpy_oracle():
    """Same first failing axiom and witness as whole-array numpy comparisons."""
    rng = random.Random(1606)
    bases = [zmod_tables(n) for n in (2, 4, 6, 8, 9, 12, 16)]
    bases += [f4_tables(), dual_f2_tables(), f2xf2_tables()]
    cases = [
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),  # no additive identity
        (zmod_tables(5)[0], [[0] * 5 for _ in range(5)]),  # no multiplicative identity
        # max and min on a chain: a distributive lattice, with no additive inverses
        ([[max(i, j) for j in range(4)] for i in range(4)],
         [[min(i, j) for j in range(4)] for i in range(4)]),
    ]
    for _ in range(300):
        add, mul = (copy.deepcopy(t) for t in rng.choice(bases))
        m = len(add)
        for _ in range(rng.randint(1, 3)):
            T = rng.choice((add, mul))
            i, j, v = rng.randrange(m), rng.randrange(m), rng.randrange(m)
            T[i][j] = v
            if rng.random() < 0.5:
                T[j][i] = v  # keep the table commutative, so later axioms are reached
        cases.append((add, mul))
    seen = set()
    for add, mul in cases:
        failure = _axiom_failure(add, mul)
        assert failure == table_axiom_failure_numpy(add, mul), (add, mul)
        seen.add(failure and failure[0])
    assert seen >= {
        None,
        "addition commutativity",
        "multiplication commutativity",
        "addition associativity",
        "multiplication associativity",
        "distributivity",
        "additive identity",
        "additive inverse",
        "multiplicative identity",
    }


def test_malformed_tables_raise_malformed_descriptor():
    add, mul = zmod_tables(3)
    for bad_add in (
        [[0, 1, 2], [1, 2], [2, 0, 1]],  # ragged
        [[0, 1, 2], [1, 2, 0], "abc"],  # a row that is not a list
        [[0, 1, 2], [1, 2, 0], [2, 0, 1.0]],  # a float entry
        [[0, 1, 2], [1, 2, 0], [2, 0, None]],
        [[0, 1, 2], [1, 2, 0], [2, 0, 3]],  # out of range
        [[0, 1, 2], [1, 2, 0], [2, 0, -1]],
    ):
        with pytest.raises(MalformedDescriptor):
            build_ring({"type": "table", "add": bad_add, "mul": mul})


def test_table_decomposition(f2xf2_ring, f4_ring, zmod):
    assert f2xf2_ring.num_stalks == 2
    assert f4_ring.num_stalks == 1
    add, mul = zmod_tables(6)
    R = build_ring({"type": "table", "add": add, "mul": mul})
    assert R.num_stalks == 2
    assert {s.size for s in R.stalks} == {2, 3}
    assert {s.size for s in _table_ring(zmod_tables(12)).stalks} == {3, 4}


@pytest.mark.parametrize(
    "tables", [f4_tables(), dual_f2_tables(), f2xf2_tables(), zmod_tables(12)]
)
def test_table_values_mean_the_same_in_every_ring(tables):
    add, mul = tables
    R = _table_ring(tables)
    # parsing an input-table index is a homomorphism from the input tables
    parse = [element_from_json(R, i) for i in range(len(add))]
    for i in range(len(add)):
        for j in range(len(add)):
            assert parse[add[i][j]] == parse[i] + parse[j]
            assert parse[mul[i][j]] == parse[i] * parse[j]
    # building the tables again gives the same stalks
    again = _table_ring(tables)
    assert again is not R
    assert all(a is b for a, b in zip(again.stalks, R.stalks, strict=True))
    # a stalk's own ring computes with the very same values, on the same stalk
    for k, s in enumerate(R.stalks):
        own = R.stalk_ring(k).stalks[0]
        assert own is s
        assert own.elements() == s.elements()
        assert (own.zero, own.one) == (s.zero, s.one)
        for a in s.elements():
            for b in s.elements():
                assert own.add(a, b) == s.add(a, b)
                assert own.mul(a, b) == s.mul(a, b)


def test_equal_table_blocks_are_one_stalk(f2xf2_ring):
    # F2 x F2's two blocks have the same tables, so they are one stalk
    first, second = f2xf2_ring.stalks
    assert first is second
    assert block_ring(f2xf2_ring, (1,)).stalks[0] is first


@pytest.mark.parametrize("label", sorted(CERT_RINGS))
def test_the_full_block_is_the_ring_itself(label):
    R = build_ring(CERT_RINGS[label])
    assert block_ring(R, tuple(range(R.num_stalks))) is R
    if R.num_stalks > 1:
        # listed in another order, the same stalks make another ring
        order = tuple(reversed(range(R.num_stalks)))
        B = block_ring(R, order)
        assert B is not R and B.key != R.key
        stalks = [s.ring_descriptor() for s in B.stalks]
        assert stalks == [R.stalks[i].ring_descriptor() for i in order]


def test_block_ring_reads_its_indices_as_a_tuple():
    zloc2 = {"type": "zloc", "p": 2}
    R = build_ring({"type": "product", "factors": [zloc2, zloc2]})
    for full in ([0, 1], range(2), (0, 1)):
        assert block_ring(R, full) is R
    B = block_ring(R, (1, 0))
    assert B is not R and B.descriptor["type"] == "product"
    assert [s.ring_descriptor() for s in B.stalks] == [
        R.stalks[i].ring_descriptor() for i in (1, 0)
    ]
    with pytest.raises(ValueError):
        block_ring(R, ())
    assert block_ring(R, (1, 0)) is B and block_ring(R, [1, 0]) is B
    assert block_ring(R, [1]) is block_ring(R, (1,))


def test_each_indicator_is_a_new_element_on_its_supports_parts():
    R = build_ring({"type": "zmod", "n": 12})
    e = R.indicator((1,))
    assert e.parts == (0, 1) and R.indicator([1]).parts is e.parts
    # changing one Element leaves the next indicator of the support alone
    e.parts = R.one.parts
    assert R.indicator((1,)) is not e and R.indicator((1,)).parts == (0, 1)
    assert R.indicator((0, 1)) == R.one and R.indicator(()) == R.zero


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), a=st.integers(-200, 200), b=st.integers(-200, 200))
def test_arithmetic_commutes_with_restriction(n, a, b):
    R = build_ring({"type": "zmod", "n": n})
    x, y = R.from_int(a), R.from_int(b)
    for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
        z = op(x, y)
        for i in range(R.num_stalks):
            lhs = z.parts[i]
            rhs = op(restrict_element(R, x, i), restrict_element(R, y, i)).parts[0]
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), v=st.integers(-500, 500))
def test_glue_restrict_roundtrip(n, v):
    R = build_ring({"type": "zmod", "n": n})
    a = R.from_int(v)
    prim = R.primitive_idempotents()
    values = [restrict_element(R, a, i) for i in range(R.num_stalks)]
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
                a: next(b for b in s.elements() if s._add[a][b] == s.zero)
                for a in s.elements()
            }
            for a in s.elements():
                assert s.neg(a) == scan[a]
                for b in s.elements():
                    assert s.sub(a, b) == s._add[a][scan[b]]


def _nil_index_by_products(s) -> int:
    """Smallest c with every product of c non-units 0 (they generate m^c additively)."""
    nonunits = [a for a in s.elements() if not s.is_unit(a)]
    products, c = set(nonunits), 1
    while products != {s.zero}:
        products = {s.mul(a, b) for a in products for b in nonunits}
        c += 1
    return c


@pytest.mark.parametrize(
    "tables",
    [f4_tables(), dual_f2_tables(), f2xf2_tables(), zmod_tables(8), zmod_tables(12)],
    ids=["F4", "dual-F2", "F2 x F2", "Z/8", "Z/12"],
)
def test_table_nil_index_is_stored_once(tables, monkeypatch):
    R = _table_ring(tables)
    # F2 x F2's two blocks are one stalk, patched once
    for s in dict.fromkeys(R.stalks):
        expected = _nil_index_by_products(s)
        assert s.nil_index() == s._ideal_power_index() == expected
        # the stored value answers later calls without another closure
        monkeypatch.setattr(s, "_ideal_power_index", lambda: pytest.fail("recomputed"))
        assert s.nil_index() == expected
    assert R.max_nil_index() == max(map(_nil_index_by_products, R.stalks))
