"""Encoding invariance: one ring in four encodings gives the same answers.

Z/12 is built as ``zmod`` 12, as the CRT products Z/4 x Z/3 and Z/3 x Z/4,
and as the raw operation table of Z/12.  For every monic h of degree 1 or 2
the gSRC and gSP searches must end with the same status, and the companion
matrix of h must get the same strong-cleanness and strong pi-regularity
verdict.  Over a finite ring every search succeeds and every verdict is
``yes``, so the certificates are compared too: after the stalk
permutation, each stalk (told apart by its size, 4 or 3) gets a factor of
the same degree in the gSRC and the gSP certificate.  These are facts about
the ring, not about its encoding, so no oracle is needed.
"""

from __future__ import annotations

import itertools

from conftest import zmod_tables

from cleanmat.decide import decide_pi_regular, decide_strongly_clean
from cleanmat.factor import gsp_search, gsrc_search
from cleanmat.matrices import companion
from cleanmat.polys import Poly
from cleanmat.rings import build_ring
from cleanmat.serialize import element_from_json

N = 12
Z4, Z3 = {"type": "zmod", "n": 4}, {"type": "zmod", "n": 3}
ADD, MUL = zmod_tables(N)
ENCODINGS = {
    "zmod 12": {"type": "zmod", "n": N},
    "Z/4 x Z/3": {"type": "product", "factors": [Z4, Z3]},
    "Z/3 x Z/4": {"type": "product", "factors": [Z3, Z4]},
    "table": {"type": "table", "add": ADD, "mul": MUL},
}


def _stalk_degrees(R, res, factor):
    """Stalk size -> degree of the named factor on that stalk, over all blocks."""
    if not res.found:
        return None
    return {
        R.stalk_ring(i).size: len(getattr(b.cert, factor).parts[j]) - 1
        for b in res.certificate.blocks
        for j, i in enumerate(b.support)
    }


def _answers(R, ints):
    h = Poly.from_ints(R, [*ints, 1])
    A = companion(h)
    gsrc, gsp = gsrc_search(h, R), gsp_search(h, R)
    return (
        gsrc.status,
        gsp.status,
        decide_strongly_clean(A).verdict,
        decide_pi_regular(A, cross_check=False).verdict,
        tuple(sorted(_stalk_degrees(R, gsrc, "f0").items())),
        tuple(sorted(_stalk_degrees(R, gsp, "p0").items())),
    )


def test_every_encoding_of_z12_gives_the_same_answers():
    rings = {name: build_ring(desc) for name, desc in ENCODINGS.items()}
    table = rings["table"]
    # the table's element i is the integer i, so from_ints encodes h alike everywhere
    assert all(table.from_int(i) == element_from_json(table, i) for i in range(N))
    polys = [ints for d in (1, 2) for ints in itertools.product(range(N), repeat=d)]
    assert len(polys) == N + N * N
    disagreements = {}
    for ints in polys:
        answers = {name: _answers(R, ints) for name, R in rings.items()}
        if len(set(answers.values())) != 1:
            disagreements[ints] = answers
    assert disagreements == {}
    # the certificate comparison is not vacuous: the stalks' degrees vary with h
    profiles = {_answers(rings["zmod 12"], ints)[4:] for ints in polys}
    assert len(profiles) > 4
