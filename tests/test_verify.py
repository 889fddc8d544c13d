"""The matrix verifiers agree with Element-fold oracles.

``verify_strong_clean`` and ``verify_pi_regular`` check their identities
with the public matrix operations, which run per-stalk raw kernels.  Over
every ring of ``CERT_RINGS`` at n = 1, 2, 3 they must return the same
failure list as ``tests/oracles.py``'s versions, whose products are Element
folds, on valid certificates and on certificates with one entry changed on
one stalk.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from cleanmat.decide import pi_regular_from_gsp, strong_clean_from_gsrc
from cleanmat.errors import RingMismatch
from cleanmat.factor import gsp_search, gsrc_search
from cleanmat.matrices import SquareMatrix, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import Element, build_ring
from cleanmat.verify import verify_pi_regular, verify_strong_clean
from conftest import CERT_RINGS
from oracles import verify_pi_regular_elementwise, verify_strong_clean_elementwise


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
