"""Independent re-verification of every certificate kind.

These checks use only ring primitives (multiplication, evaluation, unit
tests) and never consult the search code, so a certificate accepted here is
evidence on its own.  Each verifier returns a list of failure strings; empty
means valid.

The matrix certificates are checked stalk by stalk on raw grids: A and the
certificate's own boxed matrices are unpacked with ``SquareMatrix._grids``
and each identity (E^2 = E, A - U = E, EU = UE, U U^-1 = U^-1 U = I, and
A^{k+1} X = A^k = Y A^{k+1}) is tested on every stalk with the raw matrix
helpers.  Nothing is taken from the construction that produced the
certificate.
"""

from __future__ import annotations

from .errors import VerificationFailed
from .factor import (
    Block,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
    block_target,
)
from .matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    _raw_identity,
    _raw_matmul,
    _raw_power,
    _raw_sub,
)
from .polys import Poly
from .rings import Ring, is_complete_orthogonal


def verify_src(h: Poly, cert: SRCCertificate) -> list[str]:
    R = h.ring
    fails = []
    if not cert.f0.is_monic or not cert.f1.is_monic:
        fails.append("factors are not monic")
    if cert.f0 * cert.f1 != h:
        fails.append("f0 * f1 != h")
    if not R.is_unit(cert.f0(R.zero)):
        fails.append("f0(0) is not a unit")
    if not R.is_unit(cert.f1(R.one)):
        fails.append("f1(1) is not a unit")
    if cert.kind == "SRC":
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
    if not R.is_unit(cert.h0(R.zero)):
        fails.append("h0(0) is not a unit")
    d = cert.p0.degree
    for i in range(d):
        if not R.radical_membership(cert.p0.coeff(i)).in_nil:
            fails.append(f"p0 coefficient {i} is not nilpotent")
    return fails


def _verify_blocks(h: Poly, R: Ring, blocks: list[Block], leaf) -> list[str]:
    fails = []
    if not is_complete_orthogonal(R, [b.idempotent for b in blocks]):
        fails.append("block idempotents are not a complete orthogonal set")
    if len(blocks) > h.degree + 1:
        fails.append(f"{len(blocks)} blocks exceed the deg(h)+1 bound")
    covered = sorted(i for b in blocks for i in b.support)
    if covered != list(range(R.num_stalks)):
        fails.append("block supports do not partition the stalks")
    for b in blocks:
        target = block_target(R, b.support)
        if b.idempotent.ring.key != R.key:
            fails.append("block idempotent lives in the wrong ring")
            continue
        if R.idempotent_support(b.idempotent) != b.support:
            fails.append("block idempotent does not match its support")
        hb = h if target is R else h.on_block(b.support)
        for msg in leaf(hb, b.cert):
            fails.append(f"block {b.support}: {msg}")
    return fails


def verify_gsrc(h: Poly, R: Ring, cert: GSRCCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, verify_src)


def verify_gsp(h: Poly, R: Ring, cert: GSPCertificate) -> list[str]:
    return _verify_blocks(h, R, cert.blocks, verify_sp)


def _strong_clean_checks(s, a, e, u, u_inv) -> tuple:
    """The four identities of a strong-clean certificate on one stalk's grids.

    ``a`` is None when A has another shape or ring than the certificate.
    The identity matrix is A's, so such an A fails the inverse identity too.
    """
    eye = _raw_identity(s, len(e))
    return (
        _raw_matmul(s, e, e) == e,
        a is not None and _raw_sub(s, a, u) == e,
        _raw_matmul(s, e, u) == _raw_matmul(s, u, e),
        a is not None
        and _raw_matmul(s, u, u_inv) == eye
        and _raw_matmul(s, u_inv, u) == eye,
    )


def verify_strong_clean(A: SquareMatrix, cert: StrongCleanCertificate) -> list[str]:
    E, U, U_inv = cert.E, cert.U, cert.U_inv
    E._check(U)
    E._check(U_inv)
    R = E.ring
    same = A.ring.key == R.key and A.n == E.n
    A_grids = A._grids() if same else [None] * R.num_stalks
    per_stalk = [
        _strong_clean_checks(s, a, e, u, u_inv)
        for s, a, e, u, u_inv in zip(
            R.stalks, A_grids, E._grids(), U._grids(), U_inv._grids()
        )
    ]
    messages = (
        "E is not idempotent",
        "E + U != A",
        "E and U do not commute",
        "U_inv is not a two-sided inverse of U",
    )
    return [msg for msg, ok in zip(messages, zip(*per_stalk)) if not all(ok)]


def verify_pi_regular(A: SquareMatrix, cert: PiRegularCertificate) -> list[str]:
    fails = []
    if cert.k < 1:
        fails.append("exponent k must be >= 1")
        return fails
    A._check(cert.X)
    A._check(cert.Y)
    x_ok = y_ok = True
    for s, a, x, y in zip(A.ring.stalks, A._grids(), cert.X._grids(), cert.Y._grids()):
        ak = _raw_power(s, a, cert.k)
        ak1 = _raw_matmul(s, ak, a)
        x_ok = x_ok and _raw_matmul(s, ak1, x) == ak
        y_ok = y_ok and _raw_matmul(s, y, ak1) == ak
    if not x_ok:
        fails.append("A^{k+1} X != A^k")
    if not y_ok:
        fails.append("Y A^{k+1} != A^k")
    return fails


def ensure(failures: list[str]):
    if failures:
        raise VerificationFailed(failures)
