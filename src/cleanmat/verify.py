"""Independent re-verification of every certificate kind.

These checks use only stalk primitives, the raw polynomial kernels of
``polys`` and the public matrix operations, never the search code, so a
certificate accepted here is evidence on its own.  Each verifier returns a
list of failure strings; empty means valid.

A polynomial certificate is checked stalk by stalk on raw ``parts``.  A
gSRC/gSP certificate's blocks number at most deg(h)+1, their supports
partition the stalks and each idempotent is its support's indicator, which
makes the idempotents a complete orthogonal set.  One pass over the blocks
checks all of it: each block marks the stalks of its support, compares its
idempotent's parts with ``Ring.indicator_parts`` of the support (no
Element is built) and, if its support is non-empty and names only R's
stalks, runs one leaf check, which walks the stalks of its block ring
against h's parts there.  Any other support fails the partition.
``verify_src`` and ``verify_sp`` are that leaf on h's own ring.  It tests a
split f0*f1 (h0*p0 for SP) in one pass: both factors monic, their
``raw_product`` equal to h, f0(0) a unit by its constant coefficient, f1(1)
by its coefficient sum, and u*f0 + v*f1 = 1 by ``raw_product`` and
``raw_sum``; then the kind, or p0's nilpotent lower coefficients.
Polynomials a check combines must share a ring, and a gSRC/gSP check's h
must be over R, or ``RingMismatch`` is raised; a product over a ring other
than the block's is not h, nor a sum 1.

The matrix certificates are checked with the public matrix operations
``@``, ``+``, ``**`` and ``==``: E^2 = E, E + U = A, EU = UE and
U U^-1 = U^-1 U = I against the identity of the certificate's own ring and
size, and A^{k+1} X = A^k = Y A^{k+1}.  A certificate whose matrices
disagree in shape or ring raises ``RingMismatch``; an A of another shape or
ring fails only the sum.  Nothing is taken from the construction that
produced the certificate.
"""

from __future__ import annotations

from .errors import RingMismatch, VerificationFailed
from .factor import (
    Block,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
)
from .matrices import PiRegularCertificate, SquareMatrix, StrongCleanCertificate
from .polys import Poly, raw_product, raw_sum
from .rings import Ring, block_ring


def _split(B: Ring, hs, f0: Poly, f1: Poly, *pair: Poly) -> tuple[bool, ...]:
    """(monic, f0*f1 = h, f0(0) unit, f1(1) unit, u*f0 + v*f1 = 1) of a block.

    ``hs`` are h's parts on the stalks of the block ring B and ``pair`` is
    (u, v) or empty; one pass walks the stalks of the ring K they share.
    The SP leaf reads the first three.
    """
    K = f0.ring
    for p in (f1, *pair):
        if p.ring is not K and p.ring.key != K.key:
            raise RingMismatch("polynomials over different rings")
    on_B = K is B or K.key == B.key
    n0, n1 = len(f0.parts[0]), len(f1.parts[0])
    monic, product, unit0, unit1, bezout = n0 > 0 and n1 > 0, on_B, True, True, on_B
    for k, s in enumerate(K.stalks):
        a, b, one = f0.parts[k], f1.parts[k], s.one
        monic = monic and len(a) == n0 and len(b) == n1 and a[-1] == one and b[-1] == one
        product = product and raw_product(s, a, b) == hs[k]
        unit0 = unit0 and bool(a) and s.is_unit(a[0])
        unit1 = unit1 and s.is_unit(s.sum(b))
        if pair and bezout:
            ua, vb = raw_product(s, pair[0].parts[k], a), raw_product(s, pair[1].parts[k], b)
            bezout = raw_sum(s, ua, vb) == (one,)
    return monic, product, unit0, unit1, bezout


def _src_leaf(B: Ring, hs, cert: SRCCertificate) -> list[str]:
    kind, u, v = cert.kind, cert.bezout_u, cert.bezout_v
    pair = (u, v) if kind == "SRC" and u is not None and v is not None else ()
    monic, product, unit0, unit1, bezout = _split(B, hs, cert.f0, cert.f1, *pair)
    checks = (
        ("factors are not monic", monic),
        ("f0 * f1 != h", product),
        ("f0(0) is not a unit", unit0),
        ("f1(1) is not a unit", unit1),
    )
    fails = [msg for msg, ok in checks if not ok]
    if kind not in ("SR", "SRC"):
        fails.append(f"unknown certificate kind {kind!r}")
    elif kind == "SRC" and not pair:
        fails.append("SRC certificate lacks a Bezout pair")
    elif pair and not bezout:
        fails.append("Bezout identity u*f0 + v*f1 = 1 fails")
    return fails


def _sp_leaf(B: Ring, hs, cert: SPCertificate) -> list[str]:
    monic, product, unit0, _, _ = _split(B, hs, cert.h0, cert.p0)
    checks = (
        ("factors are not monic", monic),
        ("h0 * p0 != h", product),
        ("h0(0) is not a unit", unit0),
    )
    fails = [msg for msg, ok in checks if not ok]
    for i in range(cert.p0.degree):
        # a stalk shorter than i + 1 has coefficient 0 there, which is nilpotent
        if not all(i >= len(p) or s.is_nilpotent(p[i]) for s, p in zip(B.stalks, cert.p0.parts)):
            fails.append(f"p0 coefficient {i} is not nilpotent")
    return fails


def verify_src(h: Poly, cert: SRCCertificate) -> list[str]:
    return _src_leaf(h.ring, h.parts, cert)


def verify_sp(h: Poly, cert: SPCertificate) -> list[str]:
    return _sp_leaf(h.ring, h.parts, cert)


def _verify_blocks(h: Poly, R: Ring, blocks: list[Block], leaf) -> list[str]:
    """The block checks in one pass; messages in the order bound, partition, idempotents, leaves."""
    n, H, hs = R.num_stalks, h.ring, h.parts
    if H is not R and H.key != R.key:
        raise RingMismatch("h is not over the certificate's ring")
    covered = [False] * n
    partition = idempotents = True
    leaf_fails = []
    for b in blocks:
        support, e = b.support, b.idempotent
        # a leaf runs only on a block ring of R's stalks
        in_range = bool(support)
        for i in support:
            if 0 <= i < n and not covered[i]:
                covered[i] = True
            else:
                in_range = in_range and 0 <= i < n
                partition = False
        partition = partition and in_range
        if idempotents and (
            (e.ring is not R and e.ring.key != R.key) or e.parts != R.indicator_parts(support)
        ):
            idempotents = False
        if in_range:
            for msg in leaf(block_ring(H, support), tuple(map(hs.__getitem__, support)), b.cert):
                leaf_fails.append(f"block {support}: {msg}")
    fails = []
    if len(blocks) > h.degree + 1:
        fails.append(f"{len(blocks)} blocks exceed the deg(h)+1 bound")
    if not (partition and all(covered)):
        fails.append("block supports do not partition the stalks")
    if not idempotents:
        fails.append("block idempotent does not match its support")
    return fails + leaf_fails


def verify_gsrc(h: Poly, R: Ring, cert: GSRCCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, _src_leaf)


def verify_gsp(h: Poly, R: Ring, cert: GSPCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, _sp_leaf)


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
