"""The per-stalk memo of ``gsrc_search``/``gsp_search`` changes no result.

A global search decides each finite stalk once per (stalk ring, raw stalk
coefficients, mode) and keeps the outcome in ``factor._STALK_MEMO``.  These
tests compare every search over the small test rings with an empty memo and
with one that already holds the answer, check that callers cannot reach the
memo through what they get back, and check the memo's bound, that entries
with equal notes share one notes tuple and that a failed search leaves
nothing behind.  The Pierce restriction test checks the
invariant the memo relies on: stalk i of a global search is the search of
h restricted to stalk i (``oracles.restrict_poly``) over the stalk ring.

A memo entry also keeps the certificate polynomials built from its first
hit, stored when they are first built.  The certificate tests compare
constructions and audits with an empty memo, with the entry's polynomials
already stored and with entries filled by other polynomials sharing a
stalk; they check that a split other than the entry's hit gets its own
polynomials, and that a Z_(p) stalk is built on every construction.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest
from conftest import CERT_RINGS, f2xf2_tables
from oracles import restrict_poly

from cleanmat import factor
from cleanmat.decide import (
    pi_regular_audit,
    pi_regular_from_gsp,
    strong_clean_from_gsrc,
    theorem_main_audit,
    triangular_sweep,
)
from cleanmat.errors import VerificationFailed
from cleanmat.factor import (
    Block,
    GSRCCertificate,
    SRCCertificate,
    gsp_search,
    gsrc_search,
)
from cleanmat.matrices import SquareMatrix, companion, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import build_ring
from cleanmat.serialize import dumps_canonical, to_jsonable

SEARCHES = {
    "SRC": lambda h, R: gsrc_search(h, R, "SRC"),
    "SR": lambda h, R: gsrc_search(h, R, "SR"),
    "SP": gsp_search,
}


def _stalk_values(R):
    """Each stalk's coefficient values: all of a finite stalk, -1..1 of Z_(p)."""
    return [
        list(s.elements()) if s.finite else [Fraction(v) for v in (-1, 0, 1)]
        for s in R.stalks
    ]


def _monic_polys(R, max_degree=3):
    coeffs = [R.from_parts(p) for p in itertools.product(*_stalk_values(R))]
    for n in range(max_degree + 1):
        for lows in itertools.product(coeffs, repeat=n):
            yield Poly(R, [*lows, R.one])


def _seen(res):
    cert = None if res.certificate is None else dumps_canonical(to_jsonable(res.certificate))
    return res.status, dumps_canonical(res.transcript), cert


@pytest.fixture(autouse=True)
def empty_memo():
    factor._STALK_MEMO.clear()
    yield
    factor._STALK_MEMO.clear()


MEMO_RINGS = [name for name, d in CERT_RINGS.items() if d["type"] != "product"] + [
    "Z/4 x Z_(3)"
]


@pytest.mark.parametrize("name", MEMO_RINGS)
def test_cold_and_warm_memo_give_the_same_result(name):
    R = build_ring(CERT_RINGS[name])
    finite = [i for i, s in enumerate(R.stalks) if s.finite]
    for h in _monic_polys(R):
        # one entry per distinct finite stalk polynomial (the two F2 stalks of
        # F2 x F2 share theirs), none for the Z_(3) stalk
        entries = len({(R.stalk_ring(i).key, h.parts[i]) for i in finite})
        for mode, search in SEARCHES.items():
            factor._STALK_MEMO.clear()
            cold = _seen(search(h, R))
            assert len(factor._STALK_MEMO) == entries
            assert _seen(search(h, R)) == cold, (h, mode)
            assert len(factor._STALK_MEMO) == entries


def test_a_memo_warmed_by_other_rings_gives_the_same_result():
    # Z/4 is a stalk of Z/12, of Z/4 x Z_(3) and a ring of its own, so the
    # three share memo entries
    rings = [build_ring(CERT_RINGS[n]) for n in ("Z/12", "Z/4 x Z_(3)")]
    rings.append(build_ring({"type": "zmod", "n": 4}))
    cold = {}
    for R in rings:
        for h in _monic_polys(R, 2):
            for mode, search in SEARCHES.items():
                factor._STALK_MEMO.clear()
                cold[R.key, h.parts, mode] = _seen(search(h, R))
    factor._STALK_MEMO.clear()
    for R in rings:
        for h in _monic_polys(R, 2):
            for mode, search in SEARCHES.items():
                assert _seen(search(h, R)) == cold[R.key, h.parts, mode], (R.label(), h, mode)


def test_mutating_a_result_does_not_change_the_next_one():
    R = build_ring(CERT_RINGS["Z/12"])
    h = Poly.from_ints(R, [2, 3, 1])
    for search in SEARCHES.values():
        expected = _seen(search(h, R))
        first = search(h, R)
        block = first.certificate.blocks[0]
        block.support = (7,)
        block.idempotent.parts = R.zero.parts
        for attr in ("f0", "f1", "bezout_u", "h0", "p0"):
            if getattr(block.cert, attr, None) is not None:
                setattr(block.cert, attr, Poly.one(R))
        first.certificate.blocks.append(block)
        second = search(h, R)
        # first's transcript is rendered only now, after the second call
        first.transcript["mode"] = "tampered"
        first.transcript["stalks"][0]["degrees"]["0"] = "tampered"
        first.transcript["stalks"].append({})
        assert _seen(second) == expected
        assert _seen(search(h, R)) == expected


def test_the_memo_never_holds_more_than_its_cap():
    # Z/17 at degree 3 has 17^3 = 4913 distinct stalk polynomials
    R = build_ring({"type": "zmod", "n": 17})
    cap = factor.STALK_MEMO_CAP
    assert cap < 17**3
    polys = list(_monic_polys(R))
    for k, h in enumerate(polys):
        gsp_search(h, R)
        assert len(factor._STALK_MEMO) == min(k + 1, cap)
    # the oldest keys were evicted, the newest are kept
    keys = list(factor._STALK_MEMO)
    assert [key[1] for key in keys] == [h.parts[0] for h in polys[-cap:]]


def test_a_hit_becomes_the_most_recent_entry():
    R = build_ring({"type": "zmod", "n": 5})
    polys = list(_monic_polys(R, 1))
    for h in polys:
        gsp_search(h, R)
    gsp_search(polys[0], R)
    assert [key[1] for key in factor._STALK_MEMO] == [h.parts[0] for h in polys[1:] + polys[:1]]


def test_a_search_that_raises_leaves_no_entry(monkeypatch):
    R = build_ring(CERT_RINGS["Z/16"])
    h = Poly.from_ints(R, [3, 5, 1])

    def fail(*args):
        raise VerificationFailed(["injected"])

    monkeypatch.setattr(factor, "_hensel_split", fail)
    for search in SEARCHES.values():
        with pytest.raises(VerificationFailed):
            search(h, R)
    assert factor._STALK_MEMO == {}
    monkeypatch.undo()
    assert gsrc_search(h, R).found
    assert len(factor._STALK_MEMO) == 1


def test_memo_entries_with_the_same_notes_share_one_tuple():
    R = build_ring(CERT_RINGS["Z/16"])
    for h in _monic_polys(R, 2):
        for search in SEARCHES.values():
            search(h, R)
    notes = [entry[1] for entry in factor._STALK_MEMO.values()]
    assert len(notes) == 3 * 16**2 + 3 * 16 + 3
    assert len({id(n) for n in notes}) == len(set(notes)) < 20


def test_gsrc_search_rejects_an_unknown_mode():
    R = build_ring(CERT_RINGS["Z/12"])
    with pytest.raises(ValueError):
        gsrc_search(Poly.from_ints(R, [2, 3, 1]), R, "SP")
    # src_search reads the SP outcomes of a stalk under the mode "SP"
    with pytest.raises(ValueError):
        factor.src_search(Poly.from_ints(R, [2, 3, 1]), R, "SP")


# -- Pierce restriction ----------------------------------------------------------------

PIERCE_RINGS = {
    "Z/12": {"type": "zmod", "n": 12},
    "Z/36": {"type": "zmod", "n": 36},
    "F2 x F2": {"type": "table", "add": f2xf2_tables()[0], "mul": f2xf2_tables()[1]},
    "Z/4 x Z_(3)": CERT_RINGS["Z/4 x Z_(3)"],
}


def _stalk_polys(res, i, attrs):
    """The stalk-i polynomials of the block of a global certificate covering i."""
    (block,) = [b for b in res.certificate.blocks if i in b.support]
    k = block.support.index(i)
    return [getattr(block.cert, a).parts[k] for a in attrs if getattr(block.cert, a) is not None]


def _every_degree(R, max_degree=3, most=5000):
    """Every monic h of degree <= 3; an evenly spaced subset of a degree with more."""
    out = []
    for n in range(max_degree + 1):
        polys = [h for h in _monic_polys(R, n) if h.degree == n]
        out += polys[:: -(-len(polys) // most)]
    return out


@pytest.mark.parametrize("name", PIERCE_RINGS)
def test_stalk_i_of_a_global_search_is_the_search_of_the_restriction(name):
    R = build_ring(PIERCE_RINGS[name])
    polys = _every_degree(R)
    # each stalk polynomial searched once over its stalk ring, with an empty memo
    local = {}
    for h in polys:
        for i, mode in itertools.product(range(R.num_stalks), SEARCHES):
            key = (i, h.parts[i], mode)
            if key not in local:
                factor._STALK_MEMO.clear()
                local[key] = SEARCHES[mode](restrict_poly(h, i), R.stalk_ring(i))
    factor._STALK_MEMO.clear()
    for h in polys:
        for mode, search in SEARCHES.items():
            attrs = ("h0", "p0") if mode == "SP" else ("f0", "f1", "bezout_u", "bezout_v")
            res = search(h, R)
            found = []
            for i in range(R.num_stalks):
                loc = local[i, h.parts[i], mode]
                assert res.transcript["stalks"][i] == loc.transcript["stalks"][0], (h, mode)
                found.append(loc.found)
                if res.found:
                    assert _stalk_polys(res, i, attrs) == _stalk_polys(loc, 0, attrs), (h, mode)
            assert res.found == all(found)


# -- certificate polynomials kept beside the first hit ---------------------------------


def _certificates(h, R, seed):
    """The gSRC (E, U) and gSP (k, X) of a seeded conjugate of C(h), searched afresh."""
    A = random_with_charpoly(h, seed)
    gsrc, gsp = gsrc_search(h, R, "SRC"), gsp_search(h, R)
    return strong_clean_from_gsrc(A, gsrc.certificate), pi_regular_from_gsp(A, gsp.certificate)


def _kept(R):
    """The memo entries of R's stalk rings, and how many hold built polynomials."""
    keys = {R.stalk_ring(i).key for i, s in enumerate(R.stalks) if s.finite}
    entries = [e for k, e in factor._STALK_MEMO.items() if k[0] in keys]
    return len(entries), sum(e[3] is not None for e in entries)


@pytest.mark.parametrize("name", PIERCE_RINGS)
def test_certificates_are_the_same_from_a_cold_and_a_warm_memo(name):
    R = build_ring(PIERCE_RINGS[name])
    polys = [h for h in _every_degree(R, 2, 400) if h.degree >= 1]
    mixed = 0
    cold = {}
    for idx, h in enumerate(polys):
        factor._STALK_MEMO.clear()
        cold[h] = _certificates(h, R, idx)
        # the construction stored one stalk split's polynomials per entry
        finite = _kept(R)[0]
        assert _kept(R) == (finite, finite), h
        assert _certificates(h, R, idx) == cold[h], h
        # blocks group stalks by deg f0, so two blocks mean two degrees
        mixed += len(gsrc_search(h, R).certificate.blocks) > 1
    # warm: each stalk split's polynomials come from whichever h built them first
    factor._STALK_MEMO.clear()
    for idx, h in enumerate(polys):
        assert _certificates(h, R, idx) == cold[h], h
    assert _kept(R)[1] > 0
    if R.num_stalks > 1:
        assert mixed > 0, "no h whose stalks split at different degrees"


AUDITED = [("Z/12", 2), ("Z/36", 1), ("F2 x F2", 2), ("F2 x F2", 3)]


@pytest.mark.parametrize("name, n", AUDITED)
def test_audit_reports_are_the_same_from_a_cold_and_a_warm_memo(name, n):
    R = build_ring(PIERCE_RINGS[name])

    def reports():
        return [
            dataclasses.replace(rep, wall_time_s=0.0)
            for rep in (
                theorem_main_audit(R, n, samples=2, seed=3),
                pi_regular_audit(R, n),
                triangular_sweep(R, n),
            )
        ]

    factor._STALK_MEMO.clear()
    cold = reports()
    assert _kept(R)[1] == _kept(R)[0] > 0
    assert reports() == cold
    assert all(not rep.disagreements for rep in cold)


def test_a_stalk_split_is_built_once_and_a_zp_stalk_every_time(monkeypatch):
    R = build_ring(CERT_RINGS["Z/4 x Z_(3)"])
    h = Poly.from_ints(R, [2, 3, 1])
    built = []
    kernel = factor.certificate_parts
    monkeypatch.setattr(
        factor, "certificate_parts", lambda s, *a, **k: built.append(s.label()) or kernel(s, *a, **k)
    )
    first = _certificates(h, R, 0)
    assert built == ["Z/4", "Z_(3)", "Z/4", "Z_(3)"]
    built.clear()
    assert _certificates(h, R, 0) == first
    assert built == ["Z_(3)", "Z_(3)"]
    # only the Z/4 stalk has entries, one per mode
    assert {key[0] for key in factor._STALK_MEMO} == {R.stalk_ring(0).key}
    assert len(factor._STALK_MEMO) == 2


def test_a_split_other_than_the_first_hit_gets_its_own_polynomials():
    # over Z/5, h = t^2 + 1 has h(1) = 2 a unit, so the search's first hit is
    # f0 = 1 (E = I); the split f0 = h, f1 = 1 is also SRC and has E = 0
    R = build_ring({"type": "zmod", "n": 5})
    h = Poly.from_ints(R, [1, 0, 1])
    A = companion(h)
    found = gsrc_search(h, R).certificate
    assert found.blocks[0].cert.f0 == Poly.one(R)
    by_search = strong_clean_from_gsrc(A, found)
    assert by_search.E == SquareMatrix.identity(R, 2)
    kept = [e[3] for e in factor._STALK_MEMO.values()]
    # the Bezout pair of (h, 1) is (0, 1)
    u, v = Poly.zero(R), Poly.one(R)
    other = GSRCCertificate([Block((0,), R.one, SRCCertificate(h, Poly.one(R), u, v, "SRC"))])
    by_hand = strong_clean_from_gsrc(A, other)
    assert by_hand.E == SquareMatrix.from_ints(R, [[0, 0], [0, 0]]) and by_hand.U == A
    assert [e[3] for e in factor._STALK_MEMO.values()] == kept
    assert strong_clean_from_gsrc(A, found) == by_search


def test_constructions_keep_the_memo_within_its_cap():
    R = build_ring({"type": "zmod", "n": 17})
    cap = factor.STALK_MEMO_CAP
    for k, h in enumerate(_monic_polys(R)):
        gsp = gsp_search(h, R).certificate
        factor.certificate_polys(R, gsp)
        assert len(factor._STALK_MEMO) == min(k + 1, cap)
    assert all(entry[3] is not None for entry in factor._STALK_MEMO.values())
