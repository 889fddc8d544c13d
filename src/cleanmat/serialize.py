"""Canonical JSON forms for every value and certificate the CLI emits.

Elements serialize as per-stalk value arrays (ints for Z/p^k and table
stalks, "a/b" strings for Z_(p)); polynomials as coefficient arrays, low
degree first; matrices as row-major nested arrays.  ``dumps_canonical``
fixes key order and separators so identical invocations are byte-identical.

Only ``rings`` is imported at module level.  The parsers import the module
whose type they build when they run, and ``to_jsonable`` imports nothing:
an object can be an instance of a class only once the class's module is
loaded, so it tests only against the types of modules already in
``sys.modules``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .rings import Element, Ring, block_ring, build_ring

if TYPE_CHECKING:
    from .factor import SPCertificate, SRCCertificate
    from .matrices import SquareMatrix
    from .polys import Poly


def element_to_json(a: Element):
    return [s.value_to_json(v) for s, v in zip(a.ring.stalks, a.parts)]


def element_from_json(R: Ring, data) -> Element:
    if isinstance(data, bool):
        raise ValueError(f"cannot parse {data!r} as a ring element")
    if isinstance(data, int):
        if R.descriptor["type"] == "table":
            return _table_element(R, data)
        return R.from_int(data)
    if isinstance(data, str):
        if R.num_stalks == 1:
            return Element(R, (R.stalks[0].value_from_json(data),))
        raise ValueError(f"string element {data!r} needs a single-stalk ring")
    if isinstance(data, list):
        if len(data) == R.num_stalks:
            parts = tuple(
                s.value_from_json(v) for s, v in zip(R.stalks, data)
            )
            return Element(R, parts)
        if R.factors is not None and len(data) == len(R.factors):
            parts = []
            for f, v in zip(R.factors, data):
                parts.extend(element_from_json(f, v).parts)
            return Element(R, tuple(parts))
        raise ValueError(
            f"element array of length {len(data)} matches neither the "
            f"{R.num_stalks} stalks nor the factors of {R.label()}"
        )
    raise ValueError(f"cannot parse {data!r} as a ring element")


def _table_element(R: Ring, idx: int) -> Element:
    if not 0 <= idx < len(R.table_values):
        raise ValueError(f"table element index {idx} out of range")
    return Element(R, R.table_values[idx])


def poly_to_json(p: Poly):
    return [element_to_json(c) for c in p.coeffs]


def poly_from_json(R: Ring, data, require_monic: bool = True) -> Poly:
    from .polys import Poly

    if not isinstance(data, list):
        raise ValueError("a polynomial is a JSON array of coefficients")
    p = Poly(R, [element_from_json(R, c) for c in data])
    if require_monic and not p.is_monic:
        raise ValueError("polynomial must be monic (leading coefficient 1)")
    return p


def matrix_to_json(A: SquareMatrix):
    return [[element_to_json(x) for x in row] for row in A.rows]


def matrix_from_json(R: Ring, data) -> SquareMatrix:
    from .matrices import SquareMatrix

    if not isinstance(data, list) or not data:
        raise ValueError("a matrix is a non-empty JSON array of rows")
    if not all(isinstance(row, list) for row in data):
        raise ValueError("every matrix row is a JSON array")
    return SquareMatrix(R, [[element_from_json(R, x) for x in row] for row in data])


def _loaded(name: str):
    """The package module ``name`` if it has been imported, else None."""
    return sys.modules.get(f"{__package__}.{name}")


def to_jsonable(obj):
    """Recursive canonical encoding of results, certificates, and reports."""
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Element):
        return element_to_json(obj)
    polys = _loaded("polys")
    if polys is not None and isinstance(obj, polys.Poly):
        return poly_to_json(obj)
    matrices = _loaded("matrices")
    if matrices is not None:
        if isinstance(obj, matrices.SquareMatrix):
            return matrix_to_json(obj)
        if isinstance(obj, matrices.StrongCleanCertificate):
            return {
                "type": "strong_clean",
                "E": matrix_to_json(obj.E),
                "U": matrix_to_json(obj.U),
                "U_inv": matrix_to_json(obj.U_inv),
            }
        if isinstance(obj, matrices.PiRegularCertificate):
            return {
                "type": "pi_regular",
                "k": obj.k,
                "X": matrix_to_json(obj.X),
                "Y": matrix_to_json(obj.Y),
            }
    factor = _loaded("factor")
    if factor is not None:
        if isinstance(obj, factor.SearchResult):
            return {
                "status": obj.status,
                "certificate": to_jsonable(obj.certificate),
                "transcript": to_jsonable(obj.transcript),
            }
        if isinstance(obj, factor.SRCCertificate):
            out = {
                "type": "src",
                "kind": obj.kind,
                "f0": poly_to_json(obj.f0),
                "f1": poly_to_json(obj.f1),
            }
            if obj.bezout_u is not None:
                out["bezout_u"] = poly_to_json(obj.bezout_u)
                out["bezout_v"] = poly_to_json(obj.bezout_v)
            return out
        if isinstance(obj, factor.SPCertificate):
            return {
                "type": "sp",
                "h0": poly_to_json(obj.h0),
                "p0": poly_to_json(obj.p0),
            }
        if isinstance(obj, factor.GSRCCertificate):
            return {"type": "gsrc", "blocks": [to_jsonable(b) for b in obj.blocks]}
        if isinstance(obj, factor.GSPCertificate):
            return {"type": "gsp", "blocks": [to_jsonable(b) for b in obj.blocks]}
    decide = _loaded("decide")
    if decide is not None:
        if isinstance(obj, decide.Decision):
            out = {"verdict": obj.verdict, "route": obj.route}
            for key in ("certificate", "factorization", "refutation", "reason", "details"):
                val = getattr(obj, key)
                if val is not None:
                    out[key] = to_jsonable(val)
            return out
        if isinstance(obj, decide.AuditReport):
            # wall time is reported on stderr, never in the canonical document
            return {
                "ring": obj.ring,
                "degree": obj.degree,
                "instances": obj.instances,
                "agreements": obj.agreements,
                "disagreements": [to_jsonable(d) for d in obj.disagreements],
                "routes": obj.routes,
            }
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def dumps_canonical(doc, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        + "\n"
    )


# -- certificate parsing (the verify round-trip) --------------------------------------


def src_cert_from_json(R: Ring, data) -> SRCCertificate:
    from .factor import SRCCertificate

    kind = data["kind"]
    if kind not in ("SR", "SRC"):
        raise ValueError(f'certificate kind {kind!r} is neither "SR" nor "SRC"')
    u = v = None
    if "bezout_u" in data:
        u = poly_from_json(R, data["bezout_u"], require_monic=False)
        v = poly_from_json(R, data["bezout_v"], require_monic=False)
    return SRCCertificate(
        poly_from_json(R, data["f0"]),
        poly_from_json(R, data["f1"]),
        u,
        v,
        kind,
    )


def sp_cert_from_json(R: Ring, data) -> SPCertificate:
    from .factor import SPCertificate

    return SPCertificate(
        poly_from_json(R, data["h0"]), poly_from_json(R, data["p0"])
    )


def _support_from_json(R: Ring, data) -> tuple[int, ...]:
    """A block support: distinct stalk indices in [0, number of stalks)."""
    n = R.num_stalks
    if (
        not isinstance(data, list)
        or not data
        or any(isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n for i in data)
        or len(set(data)) != len(data)
    ):
        raise ValueError(
            f"block support {json.dumps(data)} must list distinct stalk indices in [0, {n})"
        )
    return tuple(data)


def _blocks_from_json(R: Ring, data, leaf):
    from .factor import Block

    blocks = []
    for b in data["blocks"]:
        support = _support_from_json(R, b["support"])
        blocks.append(
            Block(
                support,
                element_from_json(R, b["idempotent"]),
                leaf(block_ring(R, support), b["cert"]),
            )
        )
    return blocks


def certificate_from_json(R: Ring, data):
    from .factor import GSPCertificate, GSRCCertificate
    from .matrices import PiRegularCertificate, StrongCleanCertificate

    t = data.get("type")
    if t == "src":
        return src_cert_from_json(R, data)
    if t == "sp":
        return sp_cert_from_json(R, data)
    if t == "gsrc":
        return GSRCCertificate(_blocks_from_json(R, data, src_cert_from_json))
    if t == "gsp":
        return GSPCertificate(_blocks_from_json(R, data, sp_cert_from_json))
    if t == "strong_clean":
        return StrongCleanCertificate(
            matrix_from_json(R, data["E"]),
            matrix_from_json(R, data["U"]),
            matrix_from_json(R, data["U_inv"]),
        )
    if t == "pi_regular":
        return PiRegularCertificate(
            int(data["k"]),
            matrix_from_json(R, data["X"]),
            matrix_from_json(R, data["Y"]),
        )
    raise ValueError(f"unknown certificate type {t!r}")


def ring_from_json(data) -> Ring:
    return build_ring(data)
