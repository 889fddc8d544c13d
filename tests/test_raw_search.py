"""The raw per-stalk searches of ``cleanmat.factor`` against the boxed oracle.

``factor`` searches a stalk on its raw coefficients.  ``oracles`` keeps the
same searches written on one-stalk ``Poly`` values with its Element-level
references (Taylor shifts ``fold_translate``, unit tests ``fold_eval``,
Bezout pairs ``comaximality_cramer``, rational roots
``rational_roots_horner``, divisions ``fold_monic_divide`` outside the
candidate scans).  For SRC, SR and SP the two must agree on
the (hit, notes, complete) triple of every stalk, and on the outcome
of every degree split, which ``src_search`` and ``sp_search`` read beyond
the first hit:

* every monic h of degree <= 3 over each finite stalk of ``CERT_RINGS``
  (its entry; every degree split up to degree 2 and on a spaced subset of
  degree 3);
* seeded h of degree 1-6 over Z_(2), Z_(3) and Z_(5), which reach the
  degree window and the bounded-height middle degrees;
* the pinned probes t^16 + 1 over Z_(2) and t^2 (t^2 - t + 3) over Z_(3).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from conftest import CERT_RINGS
from oracles import stalk_outcomes_boxed, stalk_search_boxed

from cleanmat import factor
from cleanmat.polys import Poly, raw_product
from cleanmat.rings import build_ring

MODES = ("SRC", "SR", "SP")


def _finite_stalks():
    """(label, stalk ring) of each distinct finite stalk of the CERT_RINGS."""
    out = {}
    for d in CERT_RINGS.values():
        R = build_ring(d)
        for i, s in enumerate(R.stalks):
            if s.finite:
                S = R.stalk_ring(i)
                out.setdefault(S.key, (S.label(), R, i))
    return list(out.values())


FINITE_STALKS = _finite_stalks()


def _assert_agree(R, i, a, full: bool):
    """Stalk i of R with raw coefficients a: raw search == boxed oracle, every mode."""
    s = R.stalks[i]
    h = Poly.from_parts(R.stalk_ring(i), [a])
    for mode in MODES:
        assert factor._stalk_search(s, a, mode) == stalk_search_boxed(h, mode), (s.label(), a, mode)
        if full:
            prof = factor._profile(s, a, mode)
            prof.at(len(a) - 1)
            assert prof.examined == stalk_outcomes_boxed(h, mode), (s.label(), a, mode)


def test_the_finite_stalks_cover_every_table_kind():
    labels = sorted(label for label, _, _ in FINITE_STALKS)
    assert labels == ["Z/16", "Z/3", "Z/4", "table[2]", "table[4]", "table[4]"]


@pytest.mark.parametrize("label, R, i", FINITE_STALKS, ids=[f[0] for f in FINITE_STALKS])
def test_finite_stalk_searches_match_the_boxed_oracle(label, R, i):
    s = R.stalks[i]
    elems = s.elements()
    for n in range(4):
        polys = [(*lows, s.one) for lows in itertools.product(elems, repeat=n)]
        # the above-b scans of degree 3 try every candidate: a spaced subset
        stride = 1 if n < 3 else max(1, len(polys) // 64)
        for k, a in enumerate(polys):
            _assert_agree(R, i, a, full=k % stride == 0)


ZLOC = {p: build_ring({"type": "zloc", "p": p}) for p in (2, 3, 5)}


def _seeded_zloc(p: int, count: int = 40):
    """Seeded raw monic h of degree 1-6 over Z_(p) with small coefficients."""
    rng = random.Random(1000 + p)
    dens = [d for d in (1, 1, 1, 2, 3) if d % p]
    out = []
    for k in range(count):
        n = 1 + k % 6
        lows = [Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
        if k % 3 == 0:
            # low coefficients in pZ_(p): h(0) is no unit, t may divide h
            for j in range(min(n, 2)):
                lows[j] = Fraction(p * rng.randint(-1, 1))
        if k % 3 == 1 and n >= 4:
            # a product of two small monic factors, for the bounded-height scan to find
            c0 = rng.choice([c for c in (-2, -1, 1, 2) if c % p])
            f0 = tuple(map(Fraction, (c0, rng.randint(-2, 2), 1)))
            f1 = tuple(map(Fraction, [rng.randint(-3, 3) for _ in range(n - 2)] + [1]))
            lows = raw_product(ZLOC[p].stalks[0], f0, f1)[:-1]
        out.append((*lows, Fraction(1)))
    return out


@pytest.mark.parametrize("p", sorted(ZLOC))
def test_zloc_stalk_searches_match_the_boxed_oracle(p):
    R = ZLOC[p]
    notes = set()
    for a in _seeded_zloc(p):
        _assert_agree(R, 0, a, full=True)
        prof = factor._profile(R.stalks[0], a, "SRC")
        prof.at(len(a) - 1)
        notes.update(note for _, _, note in prof.examined[2:-2])
    # the seeds reach the window, the bounded-height scan and its hits
    assert any("force" in note for note in notes)
    assert any("bounded search" in note for note in notes)
    assert "found" in notes


def test_the_pinned_zloc_probes_match_the_boxed_oracle():
    t16 = (Fraction(1),) + (Fraction(0),) * 15 + (Fraction(1),)
    _assert_agree(ZLOC[2], 0, t16, full=True)
    # t^2 (t^2 - t + 3)
    probe = tuple(map(Fraction, (0, 0, 3, -1, 1)))
    _assert_agree(ZLOC[3], 0, probe, full=True)
    hit, notes, complete = factor._stalk_search(ZLOC[3].stalks[0], probe, "SRC")
    assert hit is None and complete
    assert notes[2] == ("2", "f0(0) and f1(1) units force 1 <= deg f0 <= 1")
