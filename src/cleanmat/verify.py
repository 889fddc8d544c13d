"""Independent re-verification of every certificate kind.

These checks use only ring primitives (multiplication and unit tests) and
never consult the search code, so a certificate accepted here is evidence
on its own.  Each verifier returns a list of failure strings; empty means
valid.

The polynomial certificates are checked on raw stalk values: f(0) is a
unit when every stalk's constant coefficient is, and f(1) when every
stalk's coefficient sum is.  A gSRC/gSP block is a set of stalks, so the
blocks are checked on their supports: the supports must partition the
stalks and each block idempotent must equal the indicator of its support,
which together make the idempotents a complete orthogonal set.

The matrix certificates are checked with the public matrix operations
``@``, ``+``, ``**`` and ``==``: E^2 = E, E + U = A, EU = UE and
U U^-1 = U^-1 U = I against the identity of the certificate's own ring and
size, and A^{k+1} X = A^k = Y A^{k+1}.  A certificate whose matrices
disagree in shape or ring raises ``RingMismatch``; an A of another shape or
ring fails only the sum.  Nothing is taken from the construction that
produced the certificate.
"""

from __future__ import annotations

from .errors import VerificationFailed
from .factor import (
    Block,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
)
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
from .polys import Poly
from .rings import Ring


def verify_src(h: Poly, cert: SRCCertificate) -> list[str]:
    R = h.ring
    fails = []
    if not cert.f0.is_monic or not cert.f1.is_monic:
        fails.append("factors are not monic")
    if cert.f0 * cert.f1 != h:
        fails.append("f0 * f1 != h")
    if not cert.f0.unit_at_zero:
        fails.append("f0(0) is not a unit")
    if not cert.f1.unit_at_one:
        fails.append("f1(1) is not a unit")
    if cert.kind not in ("SR", "SRC"):
        fails.append(f"unknown certificate kind {cert.kind!r}")
    elif cert.kind == "SRC":
        if cert.bezout_u is None or cert.bezout_v is None:
            fails.append("SRC certificate lacks a Bezout pair")
        elif cert.bezout_u * cert.f0 + cert.bezout_v * cert.f1 != Poly.one(R):
            fails.append("Bezout identity u*f0 + v*f1 = 1 fails")
    return fails


def verify_sp(h: Poly, cert: SPCertificate) -> list[str]:
    R = h.ring
    fails = []
    if not cert.h0.is_monic or not cert.p0.is_monic:
        fails.append("factors are not monic")
    if cert.h0 * cert.p0 != h:
        fails.append("h0 * p0 != h")
    if not cert.h0.unit_at_zero:
        fails.append("h0(0) is not a unit")
    d = cert.p0.degree
    for i in range(d):
        # a stalk shorter than i + 1 has coefficient 0 there, which is nilpotent
        if not all(
            i >= len(p) or s.is_nilpotent(p[i]) for s, p in zip(R.stalks, cert.p0.parts)
        ):
            fails.append(f"p0 coefficient {i} is not nilpotent")
    return fails


def _verify_blocks(h: Poly, R: Ring, blocks: list[Block], leaf) -> list[str]:
    """Blocks partition the stalks, each idempotent is its support's indicator.

    Those two facts make the idempotents a complete orthogonal set, so both
    are checked on raw stalk values; then each block's certificate is
    checked over its block ring.
    """
    fails = []
    if len(blocks) > h.degree + 1:
        fails.append(f"{len(blocks)} blocks exceed the deg(h)+1 bound")
    covered = sorted(i for b in blocks for i in b.support)
    if covered != list(range(R.num_stalks)):
        fails.append("block supports do not partition the stalks")
    if any(
        b.idempotent.ring.key != R.key or b.idempotent.parts != R.indicator(b.support).parts
        for b in blocks
    ):
        fails.append("block idempotent does not match its support")
    for b in blocks:
        for msg in leaf(h.on_block(b.support), b.cert):
            fails.append(f"block {b.support}: {msg}")
    return fails


def verify_gsrc(h: Poly, R: Ring, cert: GSRCCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, verify_src)


def verify_gsp(h: Poly, R: Ring, cert: GSPCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, verify_sp)


def verify_strong_clean(A: SquareMatrix, cert: StrongCleanCertificate) -> list[str]:
    E, U, U_inv = cert.E, cert.U, cert.U_inv
    I = SquareMatrix.identity(E.ring, E.n)
    checks = (
        ("E is not idempotent", E @ E == E),
        ("E + U != A", E + U == A),
        ("E and U do not commute", E @ U == U @ E),
        ("U_inv is not a two-sided inverse of U", U @ U_inv == I and U_inv @ U == I),
    )
    return [msg for msg, ok in checks if not ok]


def verify_pi_regular(A: SquareMatrix, cert: PiRegularCertificate) -> list[str]:
    if cert.k < 1:
        return ["exponent k must be >= 1"]
    Ak = A**cert.k
    Ak1 = Ak @ A
    fails = []
    if Ak1 @ cert.X != Ak:
        fails.append("A^{k+1} X != A^k")
    if cert.Y @ Ak1 != Ak:
        fails.append("Y A^{k+1} != A^k")
    return fails


def ensure(failures: list[str]):
    if failures:
        raise VerificationFailed(failures)
