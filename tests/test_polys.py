from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.errors import NonMonicDivisor
from cleanmat.polys import Poly, glue_polys, monic, monic_divide
from cleanmat.rings import build_ring


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


def test_glue_polys_roundtrip(zmod):
    R = zmod(12)
    h = Poly.from_ints(R, [7, 10, 1])
    parts = [h.restrict(i) for i in range(R.num_stalks)]
    assert glue_polys(R, parts) == h


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
        hx = h.restrict(i)
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
