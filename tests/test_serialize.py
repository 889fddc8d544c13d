from __future__ import annotations

from fractions import Fraction

import pytest

from cleanmat.rings import build_ring
from cleanmat.serialize import (
    dumps_canonical,
    element_from_json,
    element_to_json,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    to_jsonable,
)


def test_element_roundtrip_zmod(zmod):
    R = zmod(12)
    for v in range(12):
        a = R.from_int(v)
        assert element_from_json(R, element_to_json(a)) == a
    assert element_to_json(R.from_int(10)) == [2, 1]
    assert R.to_int(element_from_json(R, 10)) == 10


def test_element_parse_zloc(zloc):
    Z2 = zloc(2)
    a = element_from_json(Z2, "3/5")
    assert a.parts[0] == Fraction(3, 5)
    assert element_to_json(a) == ["3/5"]
    with pytest.raises(ValueError):
        element_from_json(Z2, "1/2")  # denominator not coprime to 2


def test_element_parse_product_forms(zloc2_squared):
    R = zloc2_squared
    per_stalk = element_from_json(R, ["3/5", 2])
    assert per_stalk.parts == (Fraction(3, 5), Fraction(2))
    nested = element_from_json(
        build_ring(
            {
                "type": "product",
                "factors": [{"type": "zmod", "n": 6}, {"type": "zloc", "p": 2}],
            }
        ),
        [5, "1/3"],
    )
    assert len(nested.parts) == 3  # two zmod stalks plus the zloc stalk


def test_element_parse_table_index(f2xf2_ring):
    R = f2xf2_ring
    for idx in range(4):
        a = element_from_json(R, idx)
        # restriction to each stalk is e_i * (element idx)
        assert element_from_json(R, element_to_json(a)) == a
    with pytest.raises(ValueError):
        element_from_json(R, 9)


def test_poly_and_matrix_roundtrip(zmod):
    R = zmod(8)
    h = poly_from_json(R, [2, 3, 1])
    assert poly_from_json(R, poly_to_json(h)) == h
    with pytest.raises(ValueError):
        poly_from_json(R, [1, 2])  # not monic
    from cleanmat.matrices import companion

    A = companion(h)
    assert matrix_from_json(R, matrix_to_json(A)) == A


def test_element_parse_errors(zmod):
    R = zmod(6)
    with pytest.raises(ValueError):
        element_from_json(R, [1, 2, 3])  # matches neither stalks nor factors
    with pytest.raises(ValueError):
        element_from_json(R, True)


def _result_document(res):
    """A search result's document: status, certificate and transcript, each encoded."""
    return {
        "status": res.status,
        "certificate": to_jsonable(res.certificate),
        "transcript": to_jsonable(res.transcript),
    }


# over Z_(2): an SRC split, no split at all, and a middle degree the bounded scan leaves open
ZLOC2_STATUS_POLYS = [(-3, -3, -3, -3, 1), (-2, -3, -3, -3, 1), (-2, -3, -2, -2, 1)]


def test_a_search_result_encodes_as_its_three_fields():
    from cleanmat.factor import SearchResult, gsp_search, gsrc_search, src_search
    from cleanmat.polys import Poly

    rings = [build_ring({"type": "zloc", "p": 2}), build_ring({"type": "zmod", "n": 12})]
    cases = [(rings[0], ints) for ints in ZLOC2_STATUS_POLYS] + [(rings[1], (2, 3, 1))]
    statuses = set()
    for R, ints in cases:
        h = Poly.from_ints(R, ints)
        for search in (src_search, gsrc_search, gsp_search):
            res = search(h, R)
            statuses.add((search.__name__, res.status))
            # encoded before the transcript was ever read, and again after
            doc = to_jsonable(res)
            assert list(doc) == ["status", "certificate", "transcript"]
            assert doc == _result_document(res) == to_jsonable(res)
            assert dumps_canonical(doc) == dumps_canonical(_result_document(search(h, R)))
    assert {st for _, st in statuses} == {"found", "absent", "incomplete"}
    assert {name for name, _ in statuses} == {"src_search", "gsrc_search", "gsp_search"}
    assert to_jsonable(SearchResult("absent", None, {})) == {
        "status": "absent",
        "certificate": None,
        "transcript": {},
    }


def test_records_encode_with_the_schema_fields(zmod):
    from cleanmat.factor import Block, GSRCCertificate, gsrc_search
    from cleanmat.polys import Poly

    R = zmod(12)
    assert to_jsonable(R.classify()) == {"is_local": False, "is_clean": True, "is_j_clean": True}
    for v, inside in ((6, True), (3, False)):
        membership = to_jsonable(R.radical_membership(R.from_int(v)))
        assert membership == {"in_jacobson": inside, "in_nil": inside}
    cert = gsrc_search(Poly.from_ints(R, (2, 3, 1)), R).certificate
    block = cert.blocks[0]
    assert isinstance(cert, GSRCCertificate) and isinstance(block, Block)
    assert to_jsonable(block) == {
        "support": list(block.support),
        "idempotent": element_to_json(block.idempotent),
        "cert": to_jsonable(block.cert),
    }
    assert to_jsonable(cert) == {"type": "gsrc", "blocks": [to_jsonable(b) for b in cert.blocks]}


def test_an_object_of_no_known_type_raises():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="Opaque"):
        to_jsonable(Opaque())
    with pytest.raises(TypeError, match="object"):
        to_jsonable({"nested": [object()]})
    with pytest.raises(TypeError, match="set"):
        to_jsonable({1, 2})
