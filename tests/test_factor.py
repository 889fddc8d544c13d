from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmat.factor import (
    Block,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
    _hensel_split,
    _integer_poly,
    _integer_roots,
    gsp_search,
    gsrc_search,
    sp_search,
    src_search,
)
from cleanmat.polys import Poly, raw_bezout, raw_product
from cleanmat.errors import BudgetExceeded
from cleanmat.rings import Element, block_ring, build_ring
from cleanmat.serialize import dumps_canonical, to_jsonable
from cleanmat.verify import verify_gsp, verify_gsrc, verify_sp, verify_src

from conftest import CERT_RINGS
from oracles import (
    comaximality_cramer,
    divide_by_kernel,
    fold_eval,
    fold_translate,
    inverse_adjugate,
    nilpotents,
    rational_roots_horner,
    restrict_poly,
    sylvester,
    t_power,
)


def ints(R, p):
    return [R.to_int(c) for c in p.coeffs]


def bezout(f0: Poly, f1: Poly):
    """(u, v) with u*f0 + v*f1 = 1, one ``raw_bezout`` per stalk, or None if
    some stalk has no pair."""
    per_stalk = [raw_bezout(s, a, b) for s, a, b in zip(f0.ring.stalks, f0.parts, f1.parts)]
    if None in per_stalk:
        return None
    us, vs = zip(*per_stalk)
    return Poly.from_parts(f0.ring, us), Poly.from_parts(f0.ring, vs)


def rational_roots(h: Poly) -> list[Fraction]:
    """The rational roots of a monic h over Z_(p), by the search's integer kernel."""
    return _integer_roots(_integer_poly(h.parts[0])[0], h.ring.stalks[0].p)


def test_comaximality_examples(zmod):
    R8 = zmod(8)
    u, v = bezout(Poly.from_ints(R8, [1, 1]), Poly.from_ints(R8, [2, 1]))
    assert ints(R8, u) == [7] and ints(R8, v) == [1]
    R4 = zmod(4)
    assert bezout(Poly.from_ints(R4, [1, 1]), Poly.from_ints(R4, [3, 1])) is None
    f = Poly.from_ints(R4, [3, 2, 1])
    u, v = bezout(Poly.one(R4), f)
    assert u == Poly.one(R4) and v.is_zero


def _non_monic_polys(R):
    """Non-monic polynomials over a two-stalk R that a careless test could miss."""
    (a, b) = R.stalks
    return {
        "zero": Poly.zero(R),
        "constant 2": Poly.from_ints(R, [2]),
        "lead 2 everywhere": Poly.from_ints(R, [1, 2]),
        "lead 2 on stalk 1 only": Poly.from_parts(R, [(a.one, a.one), (b.one, b.from_int(2))]),
        "degrees 1 and 2": Poly.from_parts(R, [(a.one, a.one), (b.one, b.one, b.one)]),
        "degrees 0 and 1": Poly.from_parts(R, [(a.one,), (b.one, b.one)]),
    }


def test_public_entries_reject_non_monic_input():
    R = build_ring(CERT_RINGS["Z/4 x Z_(3)"])
    h = Poly.from_ints(R, [2, 3, 1])
    for name, g in _non_monic_polys(R).items():
        assert not g.is_monic, name
        for search in (src_search, gsrc_search, sp_search, gsp_search):
            with pytest.raises(ValueError):
                search(g, R)


def test_only_the_public_entry_of_a_search_runs_is_monic(monkeypatch):
    """A search tests its input once; the stalk kernels and the Hensel rounds
    run on raw values and never call ``is_monic``."""
    tests = []
    is_monic = Poly.is_monic.fget
    monkeypatch.setattr(Poly, "is_monic", property(lambda p: tests.append(p) or is_monic(p)))
    R = build_ring(CERT_RINGS["Z/16"])
    h = Poly.from_ints(R, [2, 3, 5, 1])
    for search in (gsp_search, sp_search):
        tests.clear()
        assert search(h, R).found and len(tests) == 1
    # a Hensel lift of several rounds, over a stalk with nil index 4
    tests.clear()
    h = Poly.from_ints(R, [2, 4, 1, 1])
    q, p, rounds = _hensel_split(R.stalks[0], h.parts[0], 2)
    assert rounds > 1 and raw_product(R.stalks[0], q, p) == h.parts[0] and tests == []


def test_src_local_z8(zmod):
    R8 = zmod(8)
    h = Poly.from_ints(R8, [2, 3, 1])
    res = src_search(h, h.ring)
    c = res.certificate
    assert res.found and c.kind == "SRC"
    assert ints(R8, c.f0) == [1, 1] and ints(R8, c.f1) == [2, 1]
    assert ints(R8, c.bezout_u) == [7] and ints(R8, c.bezout_v) == [1]
    assert not verify_src(h, c)


def test_verify_src_fails_an_unknown_kind(zmod):
    R = zmod(6)
    h = Poly.from_ints(R, [2, 3, 1])
    c = src_search(h, R, "SRC").certificate
    assert verify_src(h, c) == []
    bad = SRCCertificate(c.f0, c.f1, c.bezout_u, c.bezout_v, 5)
    assert verify_src(h, bad) == ["unknown certificate kind 5"]


def test_src_local_zloc_complete_quadratic(zloc):
    Z2 = zloc(2)
    res = src_search(Poly.from_ints(Z2, [2, -1, 1]), Z2)
    assert res.status == "absent"
    # trivial split: t factors as 1 * t with f1(1) = 1
    res = src_search(t_power(Z2, 1), Z2)
    assert res.found and res.certificate.f0.degree == 0
    assert res.certificate.f1 == t_power(Z2, 1)


def test_src_local_matches_bruteforce_enumeration(zmod, f4_ring, dual_ring):
    """Oracle: scan ALL monic factor pairs, any constant term, per degree."""
    rings = [zmod(4), zmod(8), zmod(9), f4_ring, dual_ring]
    for R in rings:
        elems = list(R.elements())
        for lows in itertools.product(elems, repeat=2):
            h = Poly(R, [*lows, R.one])
            oracle = False
            for d in range(h.degree + 1):
                for combo in itertools.product(elems, repeat=max(d - 1, 0)):
                    heads = elems if d > 0 else [None]
                    for c0 in heads:
                        coeffs = ([c0, *combo, R.one]) if d > 0 else [R.one]
                        f0 = Poly(R, coeffs)
                        if not f0.is_monic or f0.degree != d:
                            continue
                        q, _, exact = divide_by_kernel(h, f0)
                        if not exact:
                            continue
                        if R.is_unit(fold_eval(f0, R.zero)) and R.is_unit(fold_eval(q, R.one)):
                            oracle = True
            got = src_search(h, h.ring, "SR").found
            assert got == oracle, (R.label(), [R.render_value(c) for c in h.coeffs])


def test_zloc_degree3_is_definitive(zloc):
    Z2 = zloc(2)
    # (t - 1)(t^2 - t + 2): root 1 gives the d = 2 split with f1 = t - 1
    h = Poly.from_ints(Z2, [-2, 3, -2, 1])
    res = src_search(h, h.ring, "SRC")
    assert res.status in ("found", "absent")  # never incomplete at degree 3
    # irreducible over Q: h(0), h(1) even, no rational roots -> definitive absence
    h = Poly.from_ints(Z2, [2, 1, 0, 1])
    assert src_search(h, h.ring, "SRC").status == "absent"


def test_zloc_degree4_middle_split_incomplete(zloc):
    Z2 = zloc(2)
    # irreducible over Q (irreducible mod 3), so no factorization exists, but
    # the middle split cannot be ruled out by a bounded search: incomplete.
    h = Poly.from_ints(Z2, [2, 1, 0, 0, 1])
    assert src_search(h, h.ring, "SRC").status == "incomplete"


def test_rational_roots():
    Z2 = build_ring({"type": "zloc", "p": 2})
    h = Poly.from_ints(Z2, [6, 5, 1])  # (t+2)(t+3)
    assert rational_roots(h) == [Fraction(-3), Fraction(-2)]
    h = Poly(Z2, [Element(Z2, (Fraction(1, 3),)), Element(Z2, (Fraction(4, 3),)), Z2.one])
    # (t + 1)(t + 1/3)
    assert rational_roots(h) == [Fraction(-1), Fraction(-1, 3)]
    assert rational_roots(t_power(Z2, 2)) == [Fraction(0)]


def test_rational_roots_refuse_an_enumeration_past_the_budget():
    # isqrt(10^13) trial divisions, then 6720 * 240 candidate pairs a/b
    with pytest.raises(BudgetExceeded, match="trial divisions"):
        _integer_roots([10**13, 1, 1], 3)
    with pytest.raises(BudgetExceeded, match="candidates"):
        _integer_roots([963761198400, 1, 720720], 17)


def test_gsrc_paper_example(zloc2_squared):
    R = zloc2_squared
    h = Poly(
        R,
        [
            Element(R, (Fraction(2), Fraction(3))),
            Element(R, (Fraction(3), Fraction(1))),
            R.one,
        ],
    )
    sr = src_search(h, R, "SR")
    assert sr.status == "absent"
    res = gsrc_search(h, R, "SRC")
    assert res.found
    blocks = res.certificate.blocks
    assert [b.support for b in blocks] == [(1,), (0,)]
    assert [b.idempotent.parts for b in blocks] == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    assert [b.cert.f0.degree for b in blocks] == [0, 1]
    assert not verify_gsrc(h, R, res.certificate)


def test_gsrc_stalk_failure_is_global_failure(zloc):
    Z2 = zloc(2)
    assert gsrc_search(Poly.from_ints(Z2, [2, -1, 1]), Z2).status == "absent"


def test_gsrc_trivial(zmod):
    R = zmod(6)
    res = gsrc_search(t_power(R, 1), R)
    assert res.found and len(res.certificate.blocks) == 1
    b = res.certificate.blocks[0]
    assert b.cert.f0.degree == 0 and b.cert.f1 == t_power(R, 1)


def test_src_z6_requires_full_divisor_scan(zmod):
    # t^2+3t+2 = (t+1)(t+2) = (t+5)(t+4) over Z/6; only the second is SR
    R6 = zmod(6)
    h = Poly.from_ints(R6, [2, 3, 1])
    res = src_search(h, R6, "SRC")
    assert res.found
    assert ints(R6, res.certificate.f0) == [5, 1]
    assert ints(R6, res.certificate.f1) == [4, 1]
    assert not verify_src(h, res.certificate)


def test_sp_local_examples(zmod, zloc):
    R4 = zmod(4)
    res = sp_search(Poly.from_ints(R4, [2, 3, 1]), R4)
    assert res.found
    assert ints(R4, res.certificate.h0) == [1, 1]
    assert ints(R4, res.certificate.p0) == [2, 1]
    R3 = zmod(3)
    res = sp_search(Poly.from_ints(R3, [2, 3, 1]), R3)
    assert res.found and res.certificate.p0 == Poly.one(R3)
    assert res.certificate.h0 == Poly.from_ints(R3, [2, 3, 1])
    Z2 = zloc(2)
    assert sp_search(Poly.from_ints(Z2, [2, 3, 1]), Z2).status == "absent"


def test_gsp_z6_blocks_and_single_block_absence(zmod):
    R6 = zmod(6)
    h = Poly.from_ints(R6, [2, 3, 1])
    assert sp_search(h, R6).status == "absent"
    res = gsp_search(h, R6)
    assert res.found
    assert sorted(b.cert.p0.degree for b in res.certificate.blocks) == [0, 1]
    assert not verify_gsp(h, R6, res.certificate)
    e_by_degree = {
        b.cert.p0.degree: R6.to_int(b.idempotent) for b in res.certificate.blocks
    }
    assert e_by_degree == {1: 3, 0: 4}


def test_gsp_trivial_and_nilpotent(zmod, zloc):
    for R in (zmod(6), zmod(4)):
        res = gsp_search(t_power(R, 2), R)
        assert res.found and len(res.certificate.blocks) == 1
        b = res.certificate.blocks[0]
        assert b.cert.h0 == Poly.one(b.cert.h0.ring)
    Z2 = zloc(2)
    assert gsp_search(Poly.from_ints(Z2, [2, 3, 1]), Z2).status == "absent"


def test_sp_implies_src_upgrade(zmod):
    # every SP certificate is an SR pair whose Bezout upgrade succeeds
    for n in (4, 6, 9):
        R = zmod(n)
        for h in _all_monic(R, 2):
            res = gsp_search(h, R)
            if not res.found:
                continue
            for b in res.certificate.blocks:
                bez = bezout(b.cert.h0, b.cert.p0)
                assert bez is not None
                B = b.cert.h0.ring
                # p0(1) = 1 + (sum of nilpotents) is a unit, so SP is also SR
                assert B.is_unit(fold_eval(b.cert.p0, B.one))


def _all_monic(R, n):
    import itertools as it

    elems = list(R.elements())
    for lows in it.product(elems, repeat=n):
        yield Poly(R, [*lows, R.one])


def test_block_bound(zmod):
    for n in (6, 12, 30):
        R = zmod(n)
        for h in _all_monic(R, 2):
            res = gsrc_search(h, R)
            if res.found:
                assert len(res.certificate.blocks) <= 3
            res = gsp_search(h, R)
            if res.found:
                assert len(res.certificate.blocks) <= 3
            if n == 30:
                break  # 900 quadratics over Z/30 is more than this test needs


def test_reduction_compatibility(zmod):
    # a single-block SRC over R restricts to an SRC on every stalk
    R = zmod(12)
    for h in itertools.islice(_all_monic(R, 2), 40):
        res = src_search(h, R, "SRC")
        if not res.found:
            continue
        c = res.certificate
        for i in range(R.num_stalks):
            fails = verify_src(
                restrict_poly(h, i),
                type(c)(
                    restrict_poly(c.f0, i),
                    restrict_poly(c.f1, i),
                    restrict_poly(c.bezout_u, i),
                    restrict_poly(c.bezout_v, i),
                    "SRC",
                ),
            )
            assert not fails


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 9, 12]),
    lows=st.lists(st.integers(0, 11), min_size=1, max_size=3),
)
def test_every_emitted_certificate_verifies(n, lows):
    R = build_ring({"type": "zmod", "n": n})
    h = Poly(R, [R.from_int(c) for c in lows] + [R.one])
    res = gsrc_search(h, R, "SRC")
    if res.found:
        assert not verify_gsrc(h, R, res.certificate)
    res = gsp_search(h, R)
    if res.found:
        assert not verify_gsp(h, R, res.certificate)
    res = src_search(h, R, "SRC")
    if res.found:
        assert not verify_src(h, res.certificate)
    res = sp_search(h, R)
    if res.found:
        assert not verify_sp(h, res.certificate)


# -- oracle: the first-in-canonical-order exhaustive scans ---------------------------
#
# The searches construct the lowest-degree split on a finite local stalk by a
# Hensel lift.  The oracle scans every monic candidate of each degree in
# canonical order and keeps the first hit.  Finite local rings are Henselian
# and the lifted split is unique, so certificates must agree byte for byte.


def _oracle_src_at(h, d, mode):
    """First monic degree-d f0 (unit f0(0)) giving an SR/SRC pair, or None."""
    R = h.ring
    elems = list(R.elements())
    heads = [x for x in elems if R.is_unit(x)] if d else [None]
    for c0 in heads:
        for mids in itertools.product(elems, repeat=max(d - 1, 0)):
            f0 = Poly(R, [c0, *mids, R.one]) if d else Poly.one(R)
            f1, _, exact = divide_by_kernel(h, f0)
            if not exact or not R.is_unit(fold_eval(f1, R.one)):
                continue
            if mode == "SR":
                return SRCCertificate(f0, f1, None, None, "SR")
            bez = comaximality_cramer(f0, f1)
            if bez is not None:
                return SRCCertificate(f0, f1, bez[0], bez[1], "SRC")
    return None


def _oracle_sp_at(h, d):
    """First nilpotent-tail monic degree-d p0 with h = h0*p0, h0(0) a unit."""
    R = h.ring
    for low in itertools.product(nilpotents(R), repeat=d):
        p0 = Poly(R, [*low, R.one])
        h0, _, exact = divide_by_kernel(h, p0)
        if exact and R.is_unit(fold_eval(h0, R.zero)):
            return SPCertificate(h0, p0)
    return None


def _oracle_searches(h, R, mode):
    """Certificates (or None) of the global and single-block searches in ``mode``.

    ``mode`` is "SR" or "SRC" (gsrc_search / src_search) or "SP" (gsp_search /
    sp_search); a stalk's profile at degree d is the first scanned hit.
    """
    stalk_polys = [restrict_poly(h, i) for i in range(R.num_stalks)]
    memo = {}

    def at(i, d):
        if (i, d) not in memo:
            hx = stalk_polys[i]
            memo[i, d] = _oracle_sp_at(hx, d) if mode == "SP" else _oracle_src_at(hx, d, mode)
        return memo[i, d]

    everyone = tuple(range(R.num_stalks))
    degrees = range(h.degree + 1)
    choices = []
    for i in everyone:
        d = next((d for d in degrees if at(i, d)), None)
        choices.append(None if d is None else (d, at(i, d)))
    global_cert = None
    if None not in choices:
        groups = {}
        for i, (d, _) in enumerate(choices):
            groups.setdefault(d, []).append(i)
        blocks = []
        for d in sorted(groups):
            support = tuple(groups[d])
            cert = _oracle_glue(R, support, [choices[i][1] for i in support], mode)
            blocks.append(Block(support, R.indicator(support), cert))
        global_cert = (GSPCertificate if mode == "SP" else GSRCCertificate)(blocks)
    common = next((d for d in degrees if all(at(i, d) for i in everyone)), None)
    block_cert = None
    if common is not None:
        block_cert = _oracle_glue(R, everyone, [at(i, common) for i in everyone], mode)
    return global_cert, block_cert


def _oracle_glue(R, support, certs, mode):
    """One block's certificate, glued from the parts of one-stalk certificates."""
    B = block_ring(R, support)

    def glued(attr):
        return Poly.from_parts(B, [getattr(c, attr).parts[0] for c in certs])

    if mode == "SP":
        return SPCertificate(glued("h0"), glued("p0"))
    if any(c.bezout_u is None for c in certs):
        return SRCCertificate(glued("f0"), glued("f1"), None, None, "SR")
    return SRCCertificate(glued("f0"), glued("f1"), glued("bezout_u"), glued("bezout_v"), "SRC")


def _dump(cert):
    return dumps_canonical(to_jsonable(cert))


def _assert_matches_oracle(R, max_degree):
    elems = list(R.elements())
    for n in range(max_degree + 1):
        for lows in itertools.product(elems, repeat=n):
            h = Poly(R, [*lows, R.one])
            for mode in ("SR", "SRC", "SP"):
                if mode == "SP":
                    got = gsp_search(h, R), sp_search(h, R)
                else:
                    got = gsrc_search(h, R, mode), src_search(h, R, mode)
                want = _oracle_searches(h, R, mode)
                for res, cert in zip(got, want):
                    where = (R.label(), mode, [R.render_value(c) for c in h.coeffs])
                    assert res.status == ("found" if cert else "absent"), where
                    assert _dump(res.certificate) == _dump(cert), where


def test_certificates_match_exhaustive_scan_oracle(zmod, f4_ring, dual_ring):
    """Every monic h of degree <= 3, both modes: lifted split == first scanned split."""
    for R in (zmod(4), zmod(8), zmod(9), f4_ring, dual_ring):
        _assert_matches_oracle(R, 3)


def test_certificates_match_oracle_high_nil_index_and_products(zmod, f2xf2_ring):
    """Nil index 3 and 4 (Z/27, Z/16) and multi-stalk gluing, degree <= 2."""
    for R in (zmod(16), zmod(27), zmod(12), f2xf2_ring):
        _assert_matches_oracle(R, 2)


def test_hensel_lift_round_bound(zmod, dual_ring):
    """The lift (of h, and of h(t+1)) ends within ceil(log2(nil index)) + 1 rounds."""
    cases = [(zmod(4), 3), (zmod(8), 3), (zmod(9), 3), (zmod(16), 2), (zmod(27), 2),
             (dual_ring, 3)]
    for R, max_degree in cases:
        nil_index = R.max_nil_index()
        bound = math.ceil(math.log2(nil_index)) + 1
        elems = list(R.elements())
        for n in range(1, max_degree + 1):
            for lows in itertools.product(elems, repeat=n):
                h = Poly(R, [*lows, R.one])
                for g in (h, fold_translate(h, R.one)):
                    a = next(i for i, c in enumerate(g.coeffs) if R.is_unit(c))
                    q, p, rounds = _hensel_split(R.stalks[0], g.parts[0], a)
                    assert raw_product(R.stalks[0], q, p) == g.parts[0], (R.label(), h)
                    assert rounds <= bound, (R.label(), h)
                    p = Poly.from_parts(R, [p])
                    assert all(R.radical_membership(c).in_nil for c in p.coeffs[:-1])


def test_gsrc_transcript_stops_at_first_hit(zmod):
    R8 = zmod(8)
    # h = t^3 + t = t (t-1)^2 mod 2: b = 2, so degrees 0 and 1 are ruled out unscanned
    h = Poly.from_ints(R8, [0, 1, 0, 1])
    res = gsrc_search(h, R8, "SRC")
    degrees = res.transcript["stalks"][0]["degrees"]
    assert list(degrees) == ["0", "1", "2"] and degrees["2"] == "found"
    assert "deg f0 >= 2" in degrees["0"]
    # one lift decides every SP degree, so the SP transcript lists them all
    res = gsp_search(h, R8)
    assert list(res.transcript["stalks"][0]["degrees"]) == ["0", "1", "2", "3"]


# -- a local ring is a ring with one stalk ------------------------------------------

ONE_STALK_RINGS = {
    label: d
    for label, d in {
        **{f"Z/{n}": {"type": "zmod", "n": n} for n in range(2, 28)},
        **{f"Z_({p})": {"type": "zloc", "p": p} for p in (2, 3, 5)},
        **CERT_RINGS,
    }.items()
    if build_ring(d).num_stalks == 1
}


@pytest.mark.parametrize("label", sorted(ONE_STALK_RINGS))
def test_one_stalk_searches_agree_with_global_searches(label):
    """Over one stalk the single-block and globalized searches are one search.

    Same status and transcript, and a found gSRC/gSP certificate is one block
    on support (0,) carrying the SRC/SP certificate itself.
    """
    R = build_ring(ONE_STALK_RINGS[label])
    rng = random.Random(2718)
    for d in range(1, 5):
        for _ in range(12):
            h = _random_monic(R, d, rng)
            for mode in ("SR", "SRC"):
                _assert_one_block(src_search(h, h.ring, mode), gsrc_search(h, h.ring, mode))
            _assert_one_block(sp_search(h, h.ring), gsp_search(h, h.ring))


def _assert_one_block(one, glob):
    assert (one.status, one.transcript) == (glob.status, glob.transcript)
    if one.found:
        (block,) = glob.certificate.blocks
        assert block.support == (0,)
        assert block.cert == one.certificate


# -- oracle: the Bezout pair by Cramer's rule on the Sylvester matrix ---------------


def _bezout_parts(bez):
    if bez is None:
        return None
    u, v = bez
    return tuple(c.parts for c in u.coeffs), tuple(c.parts for c in v.coeffs)


def test_comaximality_matches_cramer_oracle_exhaustive(
    zmod, f4_ring, dual_ring, f2xf2_ring
):
    """Every monic pair with deg f0 + deg f1 <= 3: same (u, v), or None on both."""
    for R in (zmod(4), zmod(8), zmod(9), zmod(12), f4_ring, dual_ring, f2xf2_ring):
        monics = {d: list(_all_monic(R, d)) for d in range(4)}
        outcomes = set()
        for d0 in range(4):
            for d1 in range(4 - d0):
                for f0 in monics[d0]:
                    for f1 in monics[d1]:
                        got = _bezout_parts(bezout(f0, f1))
                        assert got == _bezout_parts(comaximality_cramer(f0, f1)), (
                            R.label(), f0, f1,
                        )
                        outcomes.add(got is None)
        assert outcomes == {True, False}, R.label()


def _random_monic(R, d, rng):
    return Poly(R, [R.random_element(rng) for _ in range(d)] + [R.one])


def test_comaximality_matches_cramer_oracle_seeded(zloc):
    rng = random.Random(2718)
    Z43 = build_ring(
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}]}
    )
    pairs = []
    for R in (zloc(2), zloc(3), Z43):
        for _ in range(40):
            d0, d1 = rng.randint(1, 2), rng.randint(1, 2)
            pairs.append((_random_monic(R, d0, rng), _random_monic(R, d1, rng)))
    # f1 = f0*g + k has resultant k^deg f0 with f0, so a k that is a unit on
    # one stalk of Z/4 x Z_(3) and not on the other fails on that stalk only
    split = []
    for _ in range(10):
        units = (rng.choice([1, 3]), Fraction(rng.choice([1, 2, 4, 5]), rng.choice([1, 2])))
        nonunits = (rng.choice([0, 2]), Fraction(3 * rng.randint(-3, 3), rng.choice([1, 2])))
        for k in ((nonunits[0], units[1]), (units[0], nonunits[1])):
            f0 = _random_monic(Z43, rng.randint(1, 2), rng)
            g = _random_monic(Z43, rng.randint(0, 1), rng)
            split.append((f0, f0 * g + Poly(Z43, [Element(Z43, k)])))
    for f0, f1 in pairs + split:
        bez = bezout(f0, f1)
        assert _bezout_parts(bez) == _bezout_parts(comaximality_cramer(f0, f1)), (f0, f1)
    for f0, f1 in split:
        per_stalk = [raw_bezout(*stalk) for stalk in zip(Z43.stalks, f0.parts, f1.parts)]
        assert [b is None for b in per_stalk].count(True) == 1
    assert any(bezout(f0, f1) is None for f0, f1 in pairs)
    assert any(bezout(f0, f1) is not None for f0, f1 in pairs)


COMAX_RINGS = {
    **CERT_RINGS,
    "Z_(2)": {"type": "zloc", "p": 2},
    "Z_(3)": {"type": "zloc", "p": 3},
    "Z_(2) x Z_(2)": {
        "type": "product",
        "factors": [{"type": "zloc", "p": 2}, {"type": "zloc", "p": 2}],
    },
}


def _nonunit_on(R, j, rng):
    """An element that is a non-unit on stalk j and random elsewhere."""
    parts = list(R.random_element(rng).parts)
    s = R.stalks[j]
    if s.finite:
        parts[j] = rng.choice([x for x in s.elements() if not s.is_unit(x)])
    else:
        parts[j] = s.p * s.random(rng)
    return Element(R, tuple(parts))


@pytest.mark.parametrize("label", sorted(COMAX_RINGS))
def test_comaximality_matches_cramer_oracle_per_ring(label):
    """Seeded pairs, comaximal or not: the same (u, v), or None on both sides."""
    R = build_ring(COMAX_RINGS[label])
    rng = random.Random(31415)
    pairs = [
        (_random_monic(R, rng.randint(1, 2), rng), _random_monic(R, rng.randint(1, 2), rng))
        for _ in range(24)
    ]
    # resultant(f0, f0*g + c) = +-c^deg f0, not a unit where c is not; and
    # f0 shares the factor f0 with f0*g
    refuted = []
    for _ in range(8):
        f0 = _random_monic(R, rng.randint(1, 2), rng)
        g = _random_monic(R, 1, rng)
        c = _nonunit_on(R, rng.randrange(R.num_stalks), rng)
        refuted += [(f0, f0 * g + Poly(R, [c])), (f0, f0 * g)]
    for f0, f1 in pairs + refuted:
        got = bezout(f0, f1)
        assert _bezout_parts(got) == _bezout_parts(comaximality_cramer(f0, f1)), (f0, f1)
        # the one solve is column 0 of the Sylvester inverse, None where it has none
        M_inv = inverse_adjugate(sylvester(f0, f1))
        assert (got is None) == (M_inv is None)
        if got is not None:
            u, v = got
            w = [row[0] for row in M_inv.rows]
            assert (u, v) == (Poly(R, w[: f1.degree]), Poly(R, w[f1.degree :]))
    assert all(bezout(f0, f1) is None for f0, f1 in refuted)
    assert any(bezout(f0, f1) is not None for f0, f1 in pairs)
    # a degree-0 factor needs no Sylvester solve; the kernel answers it directly
    f1 = pairs[0][1]
    assert bezout(Poly.one(R), f1) == (Poly.one(R), Poly.zero(R))


def _zloc_root_polys(p, rng):
    """Seeded monic Z_(p) polynomials with p-integral rational roots and t-power factors."""
    Z = build_ring({"type": "zloc", "p": p})
    s = Z.stalks[0]
    polys = []
    for k in range(60):
        roots = [s.random(rng) for _ in range(rng.randint(0, 2))]
        h = t_power(Z, k % 3)
        for r in roots:
            h = h * Poly.from_parts(Z, [[-r, s.one]])
        rest = rng.randint(0 if roots or k % 3 else 1, 2)
        h = h * Poly.from_parts(Z, [[s.random(rng) for _ in range(rest)] + [s.one]])
        polys.append((h, set(roots) | ({Fraction(0)} if k % 3 else set())))
    return polys


def test_rational_roots_match_fraction_horner():
    rng = random.Random(1618)
    for p in (2, 3, 5):
        polys = _zloc_root_polys(p, rng)
        assert any(any(c.denominator > 1 for c in h.parts[0]) for h, _ in polys)
        for h, known in polys:
            got = rational_roots(h)
            assert got == rational_roots_horner(h), h
            assert known <= set(got), h


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(2236)
    for p in (2, 3, 5):
        for h, _ in _zloc_root_polys(p, rng):
            coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(h.parts[0])]
            expected = sorted(
                Fraction(int(r.p), int(r.q))
                for r in sympy.Poly(coeffs, t, domain="QQ").ground_roots()
            )
            assert rational_roots(h) == expected, h
