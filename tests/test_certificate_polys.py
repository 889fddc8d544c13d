"""The certificates as polynomials in A agree with the matrix-product oracles.

``strong_clean_from_gsrc``, ``strong_clean_triangular`` and
``pi_regular_from_gsp`` evaluate one reduced polynomial per matrix:
E = e(A), U^-1 = w(A) and X = x(A).  ``tests/oracles.py`` builds the same
matrices the direct way, E = u(A) f0(A) with U^-1 = adj(U) / det U and
X = -h0(0)^-1 q(A) v(A) p0(A), each factor a sum of powers of A.  The
inverse and the Drazin inverse are unique and E is the same polynomial, so
the two must be equal on every input.  A split whose f0(0), f1(1) or h0(0)
is not a unit has no such polynomials and fails verification.

Each stalk's polynomials come from the raw kernel ``certificate_parts``,
and a stalk split the search memo holds builds them once: the oracle
agreement is checked with an empty memo and again with the polynomials
read from it, and the kernel's results are checked against the identities
that define them.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest
from oracles import (
    comaximality_cramer,
    drazin_reference,
    fold_monic_divide,
    gsrc_reference,
    restrict_poly,
    triangular_reference,
)

import cleanmat.decide as decide_mod
from cleanmat import factor
from cleanmat.decide import (
    monic_polys,
    pi_regular_from_gsp,
    strong_clean_from_gsrc,
    strong_clean_triangular,
)
from cleanmat.errors import VerificationFailed
from cleanmat.factor import (
    Block,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
    gsp_search,
    gsrc_search,
)
from cleanmat.matrices import SquareMatrix, companion, random_with_charpoly
from cleanmat.polys import Poly, certificate_parts, raw_bezout
from cleanmat.rings import build_ring
from conftest import CERT_RINGS

SEED = 19

# ring name -> descriptor and the degrees whose every monic h is checked
FINITE = {
    "F4": (CERT_RINGS["F4"], (2, 3)),
    "dual-F2": (CERT_RINGS["dual-F2"], (2, 3)),
    "F2 x F2": (CERT_RINGS["F2 x F2"], (2, 3)),
    "Z/6": ({"type": "zmod", "n": 6}, (2, 3)),
    "Z/12": (CERT_RINGS["Z/12"], (2,)),
    "Z/16": (CERT_RINGS["Z/16"], (2,)),
}

INFINITE = {
    "Z_(2)": {"type": "zloc", "p": 2},
    "Z_(3)": {"type": "zloc", "p": 3},
    "Z/4 x Z_(3)": CERT_RINGS["Z/4 x Z_(3)"],
}
SEEDED_SPLITS = 200


def _check(A: SquareMatrix, gsrc, gsp):
    sc = strong_clean_from_gsrc(A, gsrc)
    assert (sc.E, sc.U_inv) == gsrc_reference(A, gsrc)
    if gsp is not None:
        assert pi_regular_from_gsp(A, gsp).X == drazin_reference(A, gsp)


@pytest.mark.parametrize("name", FINITE)
def test_every_finite_h_matches_the_product_oracle(name):
    descriptor, degrees = FINITE[name]
    R = build_ring(descriptor)
    for n in degrees:
        for idx, h in enumerate(monic_polys(R, n)):
            gsrc, gsp = gsrc_search(h, R, "SRC"), gsp_search(h, R)
            assert gsrc.found and gsp.found
            for A in (companion(h), random_with_charpoly(h, SEED * 1000 + idx)):
                _check(A, gsrc.certificate, gsp.certificate)


def test_seeded_infinite_splits_match_the_product_oracle():
    rings = [build_ring(d) for d in INFINITE.values()]
    rng = random.Random(SEED)
    checked = 0
    for i in itertools.count():
        R = rings[i % len(rings)]
        n = rng.choice((2, 3))
        h = Poly(R, [R.from_int(rng.randint(-6, 6)) for _ in range(n)] + [R.one])
        gsrc = gsrc_search(h, R, "SRC")
        if not gsrc.found:
            continue
        gsp = gsp_search(h, R)
        A = random_with_charpoly(h, SEED + i)
        _check(A, gsrc.certificate, gsp.certificate if gsp.found else None)
        checked += 1
        if checked == SEEDED_SPLITS:
            break


@pytest.mark.parametrize("descriptor", [{"type": "zmod", "n": 36}, CERT_RINGS["Z/12"]])
def test_the_oracle_agrees_from_a_cold_and_a_warm_memo(descriptor):
    R = build_ring(descriptor)
    for idx, h in enumerate(monic_polys(R, 2)):
        factor._STALK_MEMO.clear()
        gsrc, gsp = gsrc_search(h, R, "SRC"), gsp_search(h, R)
        A = random_with_charpoly(h, SEED + idx)
        # built from the split, then read from the memo
        for _ in range(2):
            _check(A, gsrc.certificate, gsp.certificate)
    factor._STALK_MEMO.clear()


def _mod(f: Poly, h: Poly) -> Poly:
    return fold_monic_divide(f, h)[1]


@pytest.mark.parametrize("name", ["Z/16", "Z/12", "F2 x F2", "Z/4 x Z_(3)"])
def test_the_kernel_builds_the_polynomials_it_promises(name):
    # every stalk of every degree-2 split: e is 0 mod f0 and 1 mod f1,
    # (t - e) w = 1 mod h, t x = 1 mod h0 and x = 0 mod p0
    R = build_ring(CERT_RINGS[name])
    rng = random.Random(SEED)
    t = Poly.from_ints(R, [0, 1])
    for _ in range(60):
        h = Poly(R, [R.random_element(rng) for _ in range(2)] + [R.one])
        gsrc, gsp = gsrc_search(h, R, "SRC"), gsp_search(h, R)
        for res, drazin in ((gsrc, False), (gsp, True)):
            if not res.found:
                continue
            for b in res.certificate.blocks:
                c = b.cert
                f0, f1 = (c.h0, c.p0) if drazin else (c.f0, c.f1)
                u = comaximality_cramer(f0, f1)[0]
                for k, i in enumerate(b.support):
                    S = R.stalk_ring(i)
                    on_s = [Poly.from_parts(S, [f.parts[k]]) for f in (f0, f1, u)]
                    out = certificate_parts(R.stalks[i], *(f.parts[0] for f in on_s), drazin)
                    g0, g1, _ = on_s
                    one, ts = Poly.one(S), restrict_poly(t, i)
                    got = [Poly.from_parts(S, [p]) for p in out]
                    if drazin:
                        (x,) = got
                        assert _mod(ts * x, g0) == _mod(one, g0) and _mod(x, g1).is_zero
                    else:
                        e, w = got
                        assert _mod(e, g0).is_zero and _mod(e - one, g1).is_zero
                        assert _mod((ts - e) * w, g0 * g1) == one


def test_every_upper_triangular_matrix_matches_the_product_oracle():
    R = build_ring({"type": "zmod", "n": 3})
    elems = list(R.elements())
    for vals in itertools.product(elems, repeat=6):
        it = iter(vals)
        T = SquareMatrix(R, [[next(it) if j >= i else R.zero for j in range(3)] for i in range(3)])
        cert = strong_clean_triangular(T)
        assert (cert.E, cert.U_inv) == triangular_reference(T)


# -- splits whose unit values are not units ----------------------------------------


def _split_of(R, f0, f1):
    u, v = comaximality_cramer(f0, f1)
    return GSRCCertificate([Block((0,), R.one, SRCCertificate(f0, f1, u, v, "SRC"))])


@pytest.mark.parametrize(
    "roots, what",
    # (t - a)(t - b) split as f0 = t - a, f1 = t - b over Z/3
    [((0, 1), "f0(0)"), ((2, 1), "f1(1)")],
)
def test_a_gsrc_split_without_unit_values_fails_verification(zmod, roots, what):
    R = zmod(3)
    f0, f1 = (Poly.from_ints(R, [-r, 1]) for r in roots)
    A = companion(f0 * f1)
    with pytest.raises(VerificationFailed, match=re.escape(f"{what} is not a unit")):
        strong_clean_from_gsrc(A, _split_of(R, f0, f1))


def test_a_triangular_split_without_unit_values_fails_verification(zmod, monkeypatch):
    honest = decide_mod._diagonal_split

    def swapped(R, diag):
        return [
            (f1, f0, raw_bezout(s, f1, f0)[0])
            for s, (f0, f1, _) in zip(R.stalks, honest(R, diag))
        ]

    monkeypatch.setattr(decide_mod, "_diagonal_split", swapped)
    T = SquareMatrix.from_ints(zmod(3), [[1, 1], [0, 0]])
    with pytest.raises(VerificationFailed, match=r"f0\(0\) is not a unit"):
        strong_clean_triangular(T)


def test_a_gsp_split_without_a_unit_h0_0_fails_verification(zmod):
    # h0 = t and p0 = t - 1 are comaximal, but h0(0) = 0 has no inverse
    R = zmod(3)
    h0, p0 = Poly.from_ints(R, [0, 1]), Poly.from_ints(R, [-1, 1])
    gcert = GSPCertificate([Block((0,), R.one, SPCertificate(h0, p0))])
    with pytest.raises(VerificationFailed, match=r"h0\(0\) is not a unit"):
        pi_regular_from_gsp(companion(h0 * p0), gcert)
