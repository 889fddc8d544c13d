"""The verifiers agree with Element-fold oracles.

``verify_strong_clean`` and ``verify_pi_regular`` check their identities
with the public matrix operations, which run per-stalk raw kernels.  Over
every ring of ``CERT_RINGS`` at n = 1, 2, 3 they must return the same
failure list as ``tests/oracles.py``'s versions, whose products are Element
folds, on valid certificates and on certificates with one entry changed on
one stalk.

``verify_src``, ``verify_sp``, ``verify_gsrc`` and ``verify_gsp`` check each
block stalk by stalk on raw parts.  Over every ring of ``CERT_RINGS`` and
Z_(2), Z_(3), at degrees 1 to 3, they must return the same failure list as
the boxed-polynomial references of ``tests/oracles.py``, or raise the same
exception type, on every found certificate and on each single tamper of it.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from cleanmat.decide import pi_regular_from_gsp, strong_clean_from_gsrc
from cleanmat.errors import RingMismatch
from cleanmat.factor import (
    Block,
    GSPCertificate,
    SPCertificate,
    SRCCertificate,
    gsp_search,
    gsrc_search,
    sp_search,
    src_search,
)
from cleanmat.matrices import SquareMatrix, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import Element, build_ring
from cleanmat.verify import (
    verify_gsp,
    verify_gsrc,
    verify_pi_regular,
    verify_sp,
    verify_src,
    verify_strong_clean,
)
from conftest import CERT_RINGS
from oracles import (
    verify_gsp_boxed,
    verify_gsrc_boxed,
    verify_pi_regular_elementwise,
    verify_sp_boxed,
    verify_src_boxed,
    verify_strong_clean_elementwise,
)


def _tamper(M: SquareMatrix, rng) -> SquareMatrix:
    """M with one entry changed on one stalk."""
    R = M.ring
    i, j, k = rng.randrange(M.n), rng.randrange(M.n), rng.randrange(R.num_stalks)
    s = R.stalks[k]
    parts = list(M.rows[i][j].parts)
    old = parts[k]
    while parts[k] == old:
        parts[k] = s.random(rng)
    rows = [list(r) for r in M.rows]
    rows[i][j] = Element(R, tuple(parts))
    return SquareMatrix(R, rows)


def _certificates(R, rng):
    """(A, strong-clean certificate or None, pi-regular certificate or None)."""
    for n in (1, 2, 3):
        for _ in range(4):
            h = Poly(R, [R.random_element(rng) for _ in range(n)] + [R.one])
            A = random_with_charpoly(h, rng.randrange(10**6))
            gsrc = gsrc_search(h, R, "SRC")
            gsp = gsp_search(h, R)
            yield (
                A,
                strong_clean_from_gsrc(A, gsrc.certificate) if gsrc.found else None,
                pi_regular_from_gsp(A, gsp.certificate) if gsp.found else None,
            )


@pytest.mark.parametrize("name", list(CERT_RINGS))
def test_raw_verifiers_match_elementwise_oracles(name):
    R = build_ring(CERT_RINGS[name])
    rng = random.Random(7)
    strong = pi = 0
    for A, sc, pr in _certificates(R, rng):
        if sc is not None:
            strong += 1
            assert verify_strong_clean(A, sc) == verify_strong_clean_elementwise(A, sc) == []
            for field in ("E", "U", "U_inv"):
                bad = replace(sc, **{field: _tamper(getattr(sc, field), rng)})
                fails = verify_strong_clean(A, bad)
                assert fails and fails == verify_strong_clean_elementwise(A, bad)
        if pr is not None:
            pi += 1
            assert verify_pi_regular(A, pr) == verify_pi_regular_elementwise(A, pr) == []
            variants = [
                replace(pr, X=_tamper(pr.X, rng)),
                replace(pr, Y=_tamper(pr.Y, rng)),
                replace(pr, k=pr.k + 1),
                replace(pr, k=0),
            ]
            for cert in variants:
                assert verify_pi_regular(A, cert) == verify_pi_regular_elementwise(A, cert)
    assert strong >= 8 and pi >= 4


def test_shape_and_ring_mismatches_match_the_oracles(zmod):
    R = zmod(12)
    h = Poly(R, [R.from_int(5), R.from_int(7), R.one])
    A = random_with_charpoly(h, 11)
    sc = strong_clean_from_gsrc(A, gsrc_search(h, R, "SRC").certificate)
    pr = pi_regular_from_gsp(A, gsp_search(h, R).certificate)
    other = random_with_charpoly(Poly(R, [R.one, R.zero, R.zero, R.one]), 5)
    # an A of another size or ring fails only the sum: I is the certificate's
    for B in (other, SquareMatrix.identity(zmod(6), 2)):
        fails = verify_strong_clean(B, sc)
        assert fails == verify_strong_clean_elementwise(B, sc)
        assert fails == ["E + U != A"]
    # certificate matrices that disagree in shape or ring raise RingMismatch
    for bad in (replace(sc, U=other), replace(sc, U_inv=SquareMatrix.identity(zmod(6), 2))):
        for verifier in (verify_strong_clean, verify_strong_clean_elementwise):
            with pytest.raises(RingMismatch):
                verifier(A, bad)
    for bad in (replace(pr, X=other), replace(pr, Y=SquareMatrix.identity(zmod(6), 2))):
        for verifier in (verify_pi_regular, verify_pi_regular_elementwise):
            with pytest.raises(RingMismatch):
                verifier(A, bad)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_power_matches_repeated_products(zmod, k):
    R = zmod(12)
    rng = random.Random(k)
    A = SquareMatrix(R, [[R.random_element(rng) for _ in range(3)] for _ in range(3)])
    acc = SquareMatrix.identity(R, 3)
    for _ in range(k):
        acc = acc @ A
    assert A**k == acc


# -- the polynomial certificates against the boxed references ------------------------

POLY_CERT_RINGS = {
    **CERT_RINGS,
    "Z_(2)": {"type": "zloc", "p": 2},
    "Z_(3)": {"type": "zloc", "p": 3},
}
# a ring no certificate of the rings above lives over
OTHER_RING = build_ring({"type": "zmod", "n": 7})


def _outcome(verifier, *args):
    """The failure list, or the type of the exception raised."""
    try:
        return verifier(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


def _plus_one(f: Poly) -> Poly:
    return f + Poly.one(f.ring)


def _plus_one_on_last(f: Poly) -> Poly:
    """f + 1 on its ring's last stalk only."""
    last = f.ring.num_stalks - 1
    return f + Poly.from_parts(
        f.ring, [(s.one,) if k == last else () for k, s in enumerate(f.ring.stalks)]
    )


def _longer_on_first(f: Poly) -> Poly:
    """f with its first stalk replaced by t^(deg f + 1), monic there."""
    s = f.ring.stalks[0]
    first = (s.zero,) * len(f.parts[0]) + (s.one,)
    return Poly.from_parts(f.ring, [first, *f.parts[1:]])


def _elsewhere(f: Poly) -> Poly:
    """A monic polynomial of f's degree over ``OTHER_RING``."""
    return Poly.from_ints(OTHER_RING, [0] * max(f.degree, 0) + [1])


def _leaf_tampers(cert):
    """Single tampers of one SR(C) or SP certificate."""
    if isinstance(cert, SRCCertificate):
        out = [
            replace(cert, f0=cert.f0 + cert.f0),
            replace(cert, f1=cert.f1 + cert.f1),
            replace(cert, f1=_longer_on_first(cert.f1)),
            replace(cert, kind=5),
            replace(cert, f0=_elsewhere(cert.f0)),
            replace(cert, f0=_elsewhere(cert.f0), f1=_elsewhere(cert.f1)),
        ]
        if cert.bezout_u is not None:
            u, v = cert.bezout_u, cert.bezout_v
            out += [
                replace(cert, bezout_u=_plus_one(u)),
                replace(cert, bezout_v=_plus_one(v)),
                replace(cert, kind="SR"),
                replace(cert, bezout_v=None),
                replace(cert, bezout_u=_elsewhere(u)),
                replace(cert, bezout_v=_elsewhere(v)),
                replace(
                    cert,
                    f0=_elsewhere(cert.f0),
                    f1=_elsewhere(cert.f1),
                    bezout_u=_elsewhere(u),
                    bezout_v=_elsewhere(v),
                ),
            ]
        return out
    return [
        replace(cert, h0=cert.h0 + cert.h0),
        replace(cert, p0=cert.p0 + cert.p0),
        replace(cert, h0=_longer_on_first(cert.h0)),
        replace(cert, p0=_plus_one_on_last(cert.p0)),
        replace(cert, h0=_elsewhere(cert.h0)),
        replace(cert, h0=_elsewhere(cert.h0), p0=_elsewhere(cert.p0)),
    ]


def _block_tampers(R, gcert):
    """Single tampers of a gSRC or gSP certificate's blocks."""
    blocks = gcert.blocks
    out = [replace(gcert, blocks=blocks[:-1])]
    first = blocks[0]
    for bad in _leaf_tampers(first.cert):
        out.append(replace(gcert, blocks=[replace(first, cert=bad), *blocks[1:]]))
    wrong = R.one if len(first.support) < R.num_stalks else R.zero
    out.append(replace(gcert, blocks=[replace(first, idempotent=wrong), *blocks[1:]]))
    if len(first.support) > 1:
        out.append(
            replace(gcert, blocks=[replace(first, support=first.support[::-1]), *blocks[1:]])
        )
        out.append(
            replace(gcert, blocks=[replace(first, support=first.support[:-1]), *blocks[1:]])
        )
    if len(blocks) > 1:
        second = blocks[1]
        swapped = [
            replace(first, support=second.support),
            replace(second, support=first.support),
            *blocks[2:],
        ]
        out.append(replace(gcert, blocks=swapped))
    return out


def _certificate_cases(R, rng):
    """(verifier, reference, h, context, certificate, tampers) of every found certificate."""
    for d in (1, 2, 3):
        for _ in range(5):
            h = Poly(R, [R.random_element(rng) for _ in range(d)] + [R.one])
            for verifier, reference, res in (
                (verify_gsrc, verify_gsrc_boxed, gsrc_search(h, R, "SRC")),
                (verify_gsrc, verify_gsrc_boxed, gsrc_search(h, R, "SR")),
                (verify_gsp, verify_gsp_boxed, gsp_search(h, R)),
            ):
                if res.found:
                    cert = res.certificate
                    yield verifier, reference, h, (R,), cert, _block_tampers(R, cert)
            for verifier, reference, res in (
                (verify_src, verify_src_boxed, src_search(h, R, "SRC")),
                (verify_src, verify_src_boxed, src_search(h, R, "SR")),
                (verify_sp, verify_sp_boxed, sp_search(h, R)),
            ):
                if res.found:
                    cert = res.certificate
                    yield verifier, reference, h, (), cert, _leaf_tampers(cert)


@pytest.mark.parametrize("name", ["Z/12", "Z/4 x Z_(3)", "F4"])
def test_an_idempotent_changed_in_place_is_rejected(name):
    R = build_ring(CERT_RINGS[name])
    h = Poly.from_ints(R, [2, 3, 1])
    for search, verifier in ((gsrc_search, verify_gsrc), (gsp_search, verify_gsp)):
        cert = search(h, R).certificate
        assert verifier(h, R, cert) == []
        cert.blocks[0].idempotent.parts = R.zero.parts
        assert verifier(h, R, cert) == ["block idempotent does not match its support"]
        # the search's next block carries its support's indicator again
        assert verifier(h, R, search(h, R).certificate) == []


@pytest.mark.parametrize("name", list(POLY_CERT_RINGS))
def test_leaf_verifiers_match_the_boxed_references(name):
    R = build_ring(POLY_CERT_RINGS[name])
    rng = random.Random(25)
    certs = rejected = raised = 0
    for verifier, reference, h, ctx, cert, tampers in _certificate_cases(R, rng):
        certs += 1
        assert verifier(h, *ctx, cert) == reference(h, *ctx, cert) == []
        for bad_h, bad in [(_plus_one(h), cert)] + [(h, t) for t in tampers]:
            got = _outcome(verifier, bad_h, *ctx, bad)
            assert got == _outcome(reference, bad_h, *ctx, bad), (h, bad)
            rejected += got != []
            raised += got is RingMismatch
    # nearly every tamper is rejected: kind "SR" beside a valid Bezout pair is not
    assert certs >= 50 and rejected >= 8 * certs and raised >= certs


# -- in-memory certificates that no document can carry ---------------------------------

PARTITION = "block supports do not partition the stalks"
IDEMPOTENT = "block idempotent does not match its support"


def _z12_certificates():
    """Z/12, h = t^2 + 8t (t^2 on Z/4, t^2 + 2t on Z/3), and its gSRC and gSP
    certificates, each with one block per stalk, with their verifiers."""
    R = build_ring(CERT_RINGS["Z/12"])
    h = Poly.from_ints(R, [0, 8, 1])
    out = []
    for search, verifier in ((gsrc_search, verify_gsrc), (gsp_search, verify_gsp)):
        cert = search(h, R).certificate
        cert = replace(cert, blocks=sorted(cert.blocks, key=lambda b: b.support))
        assert [b.support for b in cert.blocks] == [(0,), (1,)]
        assert verifier(h, R, cert) == []
        out.append((verifier, cert))
    return R, h, out


@pytest.mark.parametrize("support", [(2,), (-1,), ()])
def test_a_support_outside_the_stalks_fails_the_partition(support):
    """A block whose support is empty or names no stalk of R fails the
    partition and runs no leaf; the verifier does not raise."""
    R, h, certs = _z12_certificates()
    for verifier, cert in certs:
        first, second = cert.blocks
        # first's certificate lives on Z/4: a leaf run on any other stalk fails
        bad = replace(cert, blocks=[first, replace(second, support=support, cert=first.cert)])
        assert verifier(h, R, bad) == [PARTITION, IDEMPOTENT]
        # with the idempotent R.zero, the indicator of every support here
        zero = replace(second, support=support, idempotent=R.zero)
        assert verifier(h, R, replace(cert, blocks=[first, zero])) == [PARTITION]
        # beside blocks that already partition the stalks
        assert verifier(h, R, replace(cert, blocks=[first, second, zero])) == [PARTITION]


def test_a_duplicated_block_fails_the_partition():
    """A repeated stalk fails the partition; the repeated block still runs
    its leaf, on its own stalks."""
    R, h, certs = _z12_certificates()
    for verifier, cert in certs:
        first, second = cert.blocks
        assert verifier(h, R, replace(cert, blocks=[first, second, second])) == [PARTITION]
        # second's certificate lives on Z/3, so its leaf fails on stalk 0
        again = replace(first, cert=second.cert)
        fails = verifier(h, R, replace(cert, blocks=[first, second, again]))
        assert fails[0] == PARTITION and len(fails) > 1
        assert all(msg.startswith("block (0,): ") for msg in fails[1:])


def test_a_block_idempotent_is_checked_against_the_ring_key():
    """An idempotent over another ring with the support's parts is rejected;
    one over a second build of R is accepted."""
    R, h, certs = _z12_certificates()
    Z4xZ3 = build_ring({"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zmod", "n": 3}]})
    R_again = build_ring(CERT_RINGS["Z/12"])
    assert Z4xZ3.key != R.key and R_again is not R and R_again.key == R.key
    for verifier, cert in certs:
        first, second = cert.blocks
        for ring, want in ((Z4xZ3, [IDEMPOTENT]), (R_again, [])):
            e = Element(ring, first.idempotent.parts)
            got = verifier(h, R, replace(cert, blocks=[replace(first, idempotent=e), second]))
            assert got == want, ring.label()


def test_a_p0_with_stalk_parts_of_different_lengths_is_rejected():
    """p0 = t^2 on Z/4 and 1 on Z/3: its coefficient 1 lies past the end of
    the Z/3 part, where it is 0, and the leaf returns failures."""
    R = build_ring(CERT_RINGS["Z/12"])
    h = Poly.from_ints(R, [0, 8, 1])
    sp = SPCertificate(Poly.one(R), Poly.from_parts(R, [(0, 0, 1), (1,)]))
    fails = ["factors are not monic", "h0 * p0 != h", "p0 coefficient 0 is not nilpotent"]
    assert verify_sp(h, sp) == fails
    whole = GSPCertificate([Block((0, 1), R.one, sp)])
    assert verify_gsp(h, R, whole) == [f"block (0, 1): {msg}" for msg in fails]


def test_a_factor_over_a_second_build_of_the_ring_is_accepted():
    R = build_ring(CERT_RINGS["Z/12"])
    h = Poly.from_ints(R, [2, 3, 1])
    cert = src_search(h, R, "SRC").certificate
    assert cert.kind == "SRC" and verify_src(h, cert) == []
    R_again = build_ring(CERT_RINGS["Z/12"])
    f1 = Poly.from_parts(R_again, cert.f1.parts)
    assert f1.ring is not R and verify_src(h, replace(cert, f1=f1)) == []


def test_h_over_another_ring_raises_ring_mismatch():
    """h = t^2 + 3t + 2 over Z/4 against valid Z/12 gSRC and gSP certificates:
    both verifiers and their boxed references raise ``RingMismatch`` before
    any block is checked, whether or not the stalk counts differ."""
    R = build_ring(CERT_RINGS["Z/12"])
    h = Poly.from_ints(R, [2, 3, 1])
    Z4 = {"type": "zmod", "n": 4}
    Z4xZ3 = build_ring({"type": "product", "factors": [Z4, {"type": "zmod", "n": 3}]})
    for search, verifier, reference in (
        (gsrc_search, verify_gsrc, verify_gsrc_boxed),
        (gsp_search, verify_gsp, verify_gsp_boxed),
    ):
        cert = search(h, R).certificate
        assert verifier(h, R, cert) == reference(h, R, cert) == []
        for other in (build_ring(Z4), Z4xZ3):
            h_other = Poly.from_ints(other, [2, 3, 1])
            for check in (verifier, reference):
                with pytest.raises(RingMismatch, match="^h is not over the certificate's ring$"):
                    check(h_other, R, cert)
