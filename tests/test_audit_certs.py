"""The audits' certificate constructions reproduce a recorded golden file.

For a seeded list of monic h over Z/12, Z/16, Z/4 x Z_(3) and the F4,
dual-F2 and F2 x F2 tables, at degrees 1-3, each entry records the
serialized ``random_with_charpoly(h, seed)`` matrix A, the
``strong_clean_from_gsrc`` and ``pi_regular_from_gsp`` certificates of A
(or the search status when no factorization exists), and the
``strong_clean_triangular`` certificate of a seeded upper-triangular T.
The canonical JSON of every ring's entries must equal
``tests/golden/audit_certs.json`` byte for byte.  To regenerate the file
after an intended change to a certificate, run

    PYTHONPATH=src python tests/test_audit_certs.py

and say in the change log which entries moved and why.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cleanmat.decide import (
    pi_regular_from_gsp,
    strong_clean_from_gsrc,
    strong_clean_triangular,
)
from cleanmat.factor import gsp_search, gsrc_search
from cleanmat.matrices import SquareMatrix, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import build_ring
from cleanmat.serialize import dumps_canonical, to_jsonable
from conftest import CERT_RINGS

GOLDEN = Path(__file__).resolve().parent / "golden" / "audit_certs.json"

SEED = 2026
DEGREES = (1, 2, 3)
POLYS_PER_DEGREE = 4


def _upper_triangular(R, n, rng):
    return SquareMatrix(
        R,
        [[R.random_element(rng) if j >= i else R.zero for j in range(n)] for i in range(n)],
    )


def entries(name: str) -> list:
    """The golden entries of one ring, as canonical JSON values."""
    R = build_ring(CERT_RINGS[name])
    rng = random.Random(SEED)
    out = []
    for n in DEGREES:
        for _ in range(POLYS_PER_DEGREE):
            h = Poly(R, [R.random_element(rng) for _ in range(n)] + [R.one])
            seed = rng.randrange(10**6)
            A = random_with_charpoly(h, seed)
            gsrc = gsrc_search(h, R, "SRC")
            gsp = gsp_search(h, R)
            T = _upper_triangular(R, n, rng)
            out.append(
                {
                    "h": h,
                    "seed": seed,
                    "A": A,
                    "strong_clean": strong_clean_from_gsrc(A, gsrc.certificate)
                    if gsrc.found
                    else gsrc.status,
                    "pi_regular": pi_regular_from_gsp(A, gsp.certificate)
                    if gsp.found
                    else gsp.status,
                    "T": T,
                    "triangular": strong_clean_triangular(T),
                }
            )
    return to_jsonable(out)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_ring(golden):
    assert list(golden) == list(CERT_RINGS)
    assert all(len(v) == len(DEGREES) * POLYS_PER_DEGREE for v in golden.values())


@pytest.mark.parametrize("name", list(CERT_RINGS))
def test_audit_certificates_match_golden(name, golden):
    assert dumps_canonical(entries(name)) == dumps_canonical(golden[name])


if __name__ == "__main__":
    captured = {name: entries(name) for name in CERT_RINGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(captured, indent=1) + "\n", encoding="utf-8")
