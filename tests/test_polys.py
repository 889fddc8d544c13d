from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.errors import RingMismatch
from cleanmat.polys import Poly, raw_divide, raw_translate
from cleanmat.rings import build_ring
from conftest import CERT_RINGS
from oracles import (
    comaximality_cramer,
    fold_eval,
    fold_monic_divide,
    fold_poly_add,
    fold_poly_mul,
    fold_poly_sub,
    fold_translate,
    restrict_poly,
)


def divide(f: Poly, g: Poly):
    """(q, r) of f by a monic g, one ``raw_divide`` per stalk."""
    qs, rs = zip(*(raw_divide(s, a, b) for s, a, b in zip(f.ring.stalks, f.parts, g.parts)))
    return Poly.from_parts(f.ring, qs), Poly.from_parts(f.ring, rs)


def translate(f: Poly, c) -> Poly:
    """f(t + c), one ``raw_translate`` per stalk."""
    R = f.ring
    return Poly.from_parts(R, map(raw_translate, R.stalks, f.parts, c.parts))


def test_eval_examples(zloc, zmod):
    # h(c) is the constant coefficient of the Taylor shift h(t + c)
    Z2 = zloc(2)
    (part,) = translate(Poly.from_ints(Z2, [3, 1, 1]), Z2.one).parts
    assert part[0] == Fraction(5) and Z2.stalks[0].is_unit(part[0])
    R6 = zmod(6)
    assert translate(Poly.from_ints(R6, [0, 1]), R6.zero).coeff(0) == R6.zero


def test_monic_divide_examples(zmod):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [2, 3, 1])
    q, r = divide(h, Poly.from_ints(R8, [1, 1]))
    assert q == Poly.from_ints(R8, [2, 1]) and r.is_zero


def test_coefficients_from_another_ring_are_rejected(zmod):
    R6, R12 = zmod(6), zmod(12)
    with pytest.raises(RingMismatch):
        Poly(R6, [R6.one, R12.one])
    h = Poly.from_ints(R6, [1, 1])
    for bad in (lambda: h + Poly.one(R12), lambda: h * Poly.one(R12)):
        with pytest.raises(RingMismatch):
            bad()


@st.composite
def poly_pair(draw):
    n = draw(st.sampled_from([4, 6, 8, 9]))
    R = build_ring({"type": "zmod", "n": n})
    f = Poly.from_ints(R, draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=5)))
    g_low = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=3))
    g = Poly(R, [R.from_int(c) for c in g_low] + [R.one])
    x = R.from_int(draw(st.integers(0, n - 1)))
    return R, f, g, x


@settings(max_examples=80, deadline=None)
@given(data=poly_pair())
def test_ring_homomorphism_properties(data):
    R, f, g, x = data
    assert fold_eval(f + g, x) == fold_eval(f, x) + fold_eval(g, x)
    assert fold_eval(f * g, x) == fold_eval(f, x) * fold_eval(g, x)


@settings(max_examples=80, deadline=None)
@given(data=poly_pair())
def test_division_identity(data):
    R, f, g, _ = data
    q, r = divide(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_restriction_keeps_monic_degree(zmod):
    R = zmod(12)
    h = Poly.from_ints(R, [5, 0, 3, 1])
    for i in range(R.num_stalks):
        hx = restrict_poly(h, i)
        assert hx.is_monic and hx.degree == h.degree


def test_translate_is_the_taylor_shift(zmod, zloc):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [0, 0, 1])
    assert translate(h, R8.one) == Poly.from_ints(R8, [1, 2, 1])
    g = Poly.from_ints(R8, [5, 3, 7, 1])
    for c in (R8.from_int(3), -R8.one):
        shifted = translate(g, c)
        assert translate(shifted, -c) == g
        assert all(fold_eval(shifted, x) == fold_eval(g, x + c) for x in R8.elements())
    Z2 = zloc(2)
    assert translate(Poly.from_ints(Z2, [2, 1]), Z2.from_int(-2)) == Poly.from_ints(Z2, [0, 1])


# -- per-stalk kernels against the Element-level folds -------------------------------

KERNEL_RINGS = {
    **CERT_RINGS,
    "Z_(2)": {"type": "zloc", "p": 2},
    "Z_(2) x Z_(2)": {
        "type": "product",
        "factors": [{"type": "zloc", "p": 2}, {"type": "zloc", "p": 2}],
    },
}


def _kernel_pool(R, rng):
    """Zero, random, monic, glued and Bezout-cofactor polynomials over R."""

    def rand(d):
        return Poly(R, [R.random_element(rng) for _ in range(d + 1)])

    def monic_of(d):
        return Poly(R, [R.random_element(rng) for _ in range(d)] + [R.one])

    pool = [Poly.zero(R), Poly.one(R), Poly.from_ints(R, [0, 0, 1])]
    pool += [rand(d) for d in (0, 1, 2, 3)]
    pool += [monic_of(d) for d in (1, 2, 3)]
    # stalk i gets degree (i + k) % 4, so the stalks' lengths differ
    for k in range(2):
        stalk_polys = []
        for i in range(R.num_stalks):
            S = R.stalk_ring(i)
            d = (i + k) % 4
            stalk_polys.append(Poly(S, [S.random_element(rng) for _ in range(d)] + [S.one]))
        pool.append(Poly.from_parts(R, [f.parts[0] for f in stalk_polys]))
    cofactors = []
    for _ in range(16):
        bez = comaximality_cramer(monic_of(rng.randint(1, 3)), monic_of(rng.randint(1, 3)))
        if bez is not None:
            cofactors += bez
    return pool + cofactors, cofactors


@pytest.mark.parametrize("label", sorted(KERNEL_RINGS))
def test_poly_kernels_match_the_fold_oracles(label):
    R = build_ring(KERNEL_RINGS[label])
    rng = random.Random(4242)
    pool, cofactors = _kernel_pool(R, rng)
    assert any(p.is_zero for p in pool)
    assert any(not p.is_zero and not p.is_monic for p in cofactors)
    if R.num_stalks > 1:
        assert any(len({len(part) for part in p.parts}) > 1 for p in pool)
    for f in pool:
        assert Poly(R, f.coeffs) == f and hash(Poly(R, f.coeffs)) == hash(f)
        assert f.degree == len(f.coeffs) - 1
        assert f.is_monic == (bool(f.coeffs) and f.coeffs[-1] == R.one)
        assert -f == fold_poly_sub(Poly.zero(R), f)
        for _ in range(2):
            x = R.random_element(rng)
            assert translate(f, x) == fold_translate(f, x)
        for g in pool:
            assert f + g == fold_poly_add(f, g)
            assert f - g == fold_poly_sub(f, g)
            assert f * g == fold_poly_mul(f, g)
            if g.is_monic:
                q, r = divide(f, g)
                assert (q, r, r.is_zero) == fold_monic_divide(f, g)


@pytest.mark.parametrize("label", sorted(KERNEL_RINGS))
def test_unit_coefficient_tests_match_evaluation(label):
    """p(0) is a unit iff every constant coefficient is; p(1) iff every coefficient sum is.

    These are the unit tests the stalk searches make on raw values.
    """
    R = build_ring(KERNEL_RINGS[label])
    rng = random.Random(777)
    pool, _ = _kernel_pool(R, rng)
    pool += [p * q for p in pool[:10] for q in pool[:10]]
    seen = set()
    for p in pool:
        at_zero, at_one = R.is_unit(fold_eval(p, R.zero)), R.is_unit(fold_eval(p, R.one))
        stalks = list(zip(R.stalks, p.parts))
        assert all(a and s.is_unit(a[0]) for s, a in stalks) == at_zero, p
        assert all(s.is_unit(s.sum(a)) for s, a in stalks) == at_one, p
        seen.add((at_zero, at_one))
    assert {a for a, _ in seen} == {True, False}
    assert {b for _, b in seen} == {True, False}
