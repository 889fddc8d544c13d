from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.errors import NonMonicDivisor, RingMismatch
from cleanmat.factor import comaximality
from cleanmat.polys import Poly, monic, monic_divide
from cleanmat.rings import build_ring
from conftest import CERT_RINGS
from oracles import (
    fold_eval,
    fold_monic_divide,
    fold_poly_add,
    fold_poly_mul,
    fold_poly_sub,
    fold_translate,
    restrict_poly,
)


def test_eval_examples(zloc, zmod):
    Z2 = zloc(2)
    h = Poly.from_ints(Z2, [3, 1, 1])
    v = h(Z2.one)
    assert v.parts[0] == Fraction(5) and Z2.is_unit(v)
    assert Poly.t_power(zmod(6), 1)(zmod(6).zero) == zmod(6).zero


def test_monic_divide_examples(zmod):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [2, 3, 1])
    q, r, exact = monic_divide(h, Poly.from_ints(R8, [1, 1]))
    assert exact and q == Poly.from_ints(R8, [2, 1]) and r.is_zero
    with pytest.raises(NonMonicDivisor):
        monic_divide(h, Poly.from_ints(R8, [1, 2]))


def test_monic_validation(zmod):
    R = zmod(6)
    assert monic(R, [R.from_int(2), R.one]).is_monic
    with pytest.raises(ValueError):
        monic(R, [R.one, R.from_int(2)])


def test_coefficients_from_another_ring_are_rejected(zmod):
    R6, R12 = zmod(6), zmod(12)
    with pytest.raises(RingMismatch):
        Poly(R6, [R6.one, R12.one])
    h = Poly.from_ints(R6, [1, 1])
    for bad in (lambda: h(R12.one), lambda: h.translate(R12.one), lambda: h + Poly.one(R12)):
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
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)


@settings(max_examples=80, deadline=None)
@given(data=poly_pair())
def test_division_identity(data):
    R, f, g, _ = data
    q, r, exact = monic_divide(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert exact == r.is_zero


def test_restriction_keeps_monic_degree(zmod):
    R = zmod(12)
    h = Poly.from_ints(R, [5, 0, 3, 1])
    for i in range(R.num_stalks):
        hx = restrict_poly(h, i)
        assert hx.is_monic and hx.degree == h.degree


def test_translate_is_the_taylor_shift(zmod, zloc):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [0, 0, 1])
    assert h.translate(R8.one) == Poly.from_ints(R8, [1, 2, 1])
    g = Poly.from_ints(R8, [5, 3, 7, 1])
    for c in (R8.from_int(3), -R8.one):
        shifted = g.translate(c)
        assert shifted.translate(-c) == g
        assert all(shifted(x) == g(x + c) for x in R8.elements())
    Z2 = zloc(2)
    assert Poly.from_ints(Z2, [2, 1]).translate(Z2.from_int(-2)) == Poly.t_power(Z2, 1)


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

    pool = [Poly.zero(R), Poly.one(R), Poly.t_power(R, 2)]
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
        bez = comaximality(monic_of(rng.randint(1, 3)), monic_of(rng.randint(1, 3)))
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
            assert f(x) == fold_eval(f, x)
            assert f.translate(x) == fold_translate(f, x)
        for g in pool:
            assert f + g == fold_poly_add(f, g)
            assert f - g == fold_poly_sub(f, g)
            assert f * g == fold_poly_mul(f, g)
            if g.is_monic:
                assert monic_divide(f, g) == fold_monic_divide(f, g)
            else:
                with pytest.raises(NonMonicDivisor):
                    monic_divide(f, g)


@pytest.mark.parametrize("label", sorted(KERNEL_RINGS))
def test_unit_coefficient_tests_match_evaluation(label):
    """p(0) is a unit iff every constant coefficient is; p(1) iff every coefficient sum is."""
    R = build_ring(KERNEL_RINGS[label])
    rng = random.Random(777)
    pool, _ = _kernel_pool(R, rng)
    pool += [p * q for p in pool[:10] for q in pool[:10]]
    seen = set()
    for p in pool:
        at_zero, at_one = R.is_unit(p(R.zero)), R.is_unit(p(R.one))
        assert p.unit_at_zero == at_zero, p
        assert p.unit_at_one == at_one, p
        seen.add((at_zero, at_one))
    assert {a for a, _ in seen} == {True, False}
    assert {b for _, b in seen} == {True, False}
