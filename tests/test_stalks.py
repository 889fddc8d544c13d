"""Stalk primitives against their unfused compositions.

The multi-term primitives ``dot``, ``sum`` and ``submul`` reduce once per
result, so each must equal the fold of single ``add``/``sub``/``mul`` steps
it replaces, on every stalk kind.  A Z_(p) result must also be a
``Fraction`` in lowest terms with a positive denominator prime to p, as a
single ``add``/``mul`` gives.  A grid product ``matmul`` must equal one
``dot`` per entry; on Z/p^k it runs generated straight-line code, made once
per size.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat import stalks
from cleanmat.rings import build_ring
from cleanmat.stalks import TableStalk, ZLocStalk, ZModStalk, zloc_stalk, zmod_stalk
from conftest import CERT_RINGS

SRC = Path(__file__).resolve().parent.parent / "src" / "cleanmat"


STALKS = {
    "Z/4": build_ring({"type": "zmod", "n": 4}).stalks[0],
    "Z/9": build_ring({"type": "zmod", "n": 9}).stalks[0],
    "Z_(2)": build_ring({"type": "zloc", "p": 2}).stalks[0],
    "Z_(3)": build_ring({"type": "zloc", "p": 3}).stalks[0],
    "F4": build_ring(CERT_RINGS["F4"]).stalks[0],
    "dual-F2": build_ring(CERT_RINGS["dual-F2"]).stalks[0],
}


def _prime_to(p: int, d: int) -> int:
    while d % p == 0:
        d //= p
    return d


def values(s):
    """Raw values of stalk s; Z_(p) draws zeros, negatives and large numerators."""
    if isinstance(s, ZLocStalk):
        fractions = st.builds(
            lambda n, d: Fraction(n, _prime_to(s.p, d)),
            st.one_of(st.integers(-20, 20), st.integers(-(10**40), 10**40)),
            st.one_of(st.integers(1, 12), st.integers(1, 10**18)),
        )
        return st.one_of(st.just(s.zero), fractions)
    return st.one_of(st.just(s.zero), st.integers(0, s.size - 1))


def unfused_dot(s, xs, ys):
    acc = s.zero
    for x, y in zip(xs, ys):
        acc = s.add(acc, s.mul(x, y))
    return acc


def unfused_sum(s, xs):
    acc = s.zero
    for x in xs:
        acc = s.add(acc, x)
    return acc


def assert_canonical(s, v):
    if isinstance(s, ZLocStalk):
        assert type(v) is Fraction
        assert v.denominator > 0 and v.denominator % s.p != 0
        assert gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("name", STALKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dot_is_the_fold_of_products(name, data):
    s = STALKS[name]
    n = data.draw(st.integers(0, 6))
    xs = data.draw(st.lists(values(s), min_size=n, max_size=n))
    ys = data.draw(st.lists(values(s), min_size=n, max_size=n))
    v = s.dot(xs, ys)
    assert v == unfused_dot(s, xs, ys)
    assert_canonical(s, v)


@pytest.mark.parametrize("name", STALKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sum_is_the_fold_of_additions(name, data):
    s = STALKS[name]
    xs = data.draw(st.lists(values(s), max_size=8))
    v = s.sum(xs)
    assert v == unfused_sum(s, xs)
    assert_canonical(s, v)


@pytest.mark.parametrize("name", STALKS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_submul_is_sub_of_mul(name, data):
    s = STALKS[name]
    x, c, y = (data.draw(values(s)) for _ in range(3))
    v = s.submul(x, c, y)
    assert v == s.sub(x, s.mul(c, y))
    assert_canonical(s, v)


@pytest.mark.parametrize("name", STALKS)
def test_empty_inputs_give_zero(name):
    s = STALKS[name]
    for v in (s.dot([], []), s.sum([])):
        assert v == s.zero
        assert_canonical(s, v)


def test_zloc_examples():
    s = zloc_stalk(3)
    half, quarter = Fraction(1, 2), Fraction(-1, 4)
    assert s.dot([half, half, quarter], [half, Fraction(1, 2), Fraction(4)]) == Fraction(-1, 2)
    assert s.sum([half, half, quarter, Fraction(1, 4)]) == 1
    assert s.submul(Fraction(1, 2), Fraction(1, 4), Fraction(2)) == 0
    big = Fraction(10**30 + 1, 10**12 + 1)
    assert s.dot([big, -big], [big, big]) == 0
    assert s.submul(big, big, Fraction(1)) == 0 and s.sum([big, -big]) == 0


# Every stalk of the certificate rings, and Z/p^k stalks with large residues.
MATMUL_STALKS = {
    f"{name} stalk {i}": s
    for name, d in CERT_RINGS.items()
    for i, s in enumerate(build_ring(d).stalks)
} | {"Z/2^20": zmod_stalk(2, 20), "Z/1000000007": zmod_stalk(1000000007, 1)}


def dot_matmul(s, a, b):
    """a @ b with one ``s.dot`` per entry, row of a against column of b."""
    n = len(a)
    return [[s.dot(a[i], [b[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]


def special_grids(s, n):
    """The identity, the zero grid and, on a finite stalk, the largest raw value."""
    ident = [[s.one if i == j else s.zero for j in range(n)] for i in range(n)]
    zeros = [[s.zero] * n for _ in range(n)]
    grids = [ident, zeros]
    if s.finite:
        grids.append([[s.size - 1] * n for _ in range(n)])
    return grids


@pytest.mark.parametrize("name", MATMUL_STALKS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matmul_is_a_dot_per_entry(name, data):
    s = MATMUL_STALKS[name]
    n = data.draw(st.integers(1, 6))
    grid = st.lists(st.lists(values(s), min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = data.draw(grid), data.draw(grid)
    v = s.matmul(a, b)
    assert v == dot_matmul(s, a, b)
    for row in v:
        for x in row:
            assert_canonical(s, x)


@pytest.mark.parametrize("name", MATMUL_STALKS)
def test_matmul_on_identity_and_zero_grids(name):
    s = MATMUL_STALKS[name]
    for n in range(1, 7):
        grids = special_grids(s, n)
        ident, zeros = grids[:2]
        for g in grids:
            assert s.matmul(ident, g) == s.matmul(g, ident) == g
            assert s.matmul(zeros, g) == s.matmul(g, zeros) == zeros
            assert s.matmul(g, g) == dot_matmul(s, g, g)


def test_zmod_matmul_is_generated_once_per_size(monkeypatch):
    made = []

    def counting_compile(source, filename, mode):
        made.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(stalks, "compile", counting_compile, raising=False)
    stalks._straight_line_matmul.cache_clear()
    big = stalks.STRAIGHT_LINE_MAX + 1
    for s in (zmod_stalk(2, 2), zmod_stalk(3, 1), zmod_stalk(2, 20), zmod_stalk(1000000007, 1)):
        for n in (*range(1, 7), big):
            g = [[(i * n + j) % s.q for j in range(n)] for i in range(n)]
            for _ in range(3):
                assert s.matmul(g, g) == dot_matmul(s, g, g)
    # one kernel per size 1..6, shared by every q; a larger grid takes the dot loop
    assert len(made) == 6 and len(set(made)) == 6
    assert stalks._straight_line_matmul.cache_info().currsize == 6


# Stalk attributes every kernel may read.
PRIMITIVES = {
    "zero", "one", "add", "sub", "mul", "neg", "inv", "is_unit", "dot", "sum", "submul", "matmul",
}


def _stalk_reads(path: Path) -> set[str]:
    """Attributes read on the kernels' stalk variables ``s`` and ``stalk``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("s", "stalk")
    }


def test_the_stalk_classes_define_what_the_kernels_call():
    reads = _stalk_reads(SRC / "matrices.py") | _stalk_reads(SRC / "polys.py")
    # the stalk searches and the verifiers' leaf checks also read ``sum``
    raw_callers = _stalk_reads(SRC / "factor.py") | _stalk_reads(SRC / "verify.py")
    assert PRIMITIVES <= reads | raw_callers
    assert {type(s) for s in STALKS.values()} == {ZModStalk, ZLocStalk, TableStalk}
    for name, s in STALKS.items():
        assert [attr for attr in sorted(reads | PRIMITIVES) if not hasattr(s, attr)] == [], name
