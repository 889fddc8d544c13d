"""Theorem-level deciders and exhaustive audits.

``decide_strongly_clean`` realizes the three-way equivalence for clean
rings: a gSRC factorization of the characteristic polynomial is turned into
an explicit commuting (E, U) pair block by block, and a definitive gSRC
absence refutes the companion matrix.  Over a finite ring every stalk is
Henselian, so the gSRC always exists and every ``unknown`` verdict comes
from a Z_(p) stalk.  Every constructed certificate is re-verified before it
is returned; derivations are never trusted.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .brute import DEFAULT_BUDGET, pi_regular_oracle, strongly_clean_bruteforce
from .errors import (
    BudgetExceeded,
    InfiniteRing,
    NotCleanRing,
    NotInRadical,
    PreconditionNotJClean,
    TwoNotUnit,
    VerificationFailed,
)
from .factor import (
    GSRCCertificate,
    SRCCertificate,
    comaximality,
    gsp_search,
    gsrc_search,
)
from .matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    char_poly,
    companion,
    glue_matrices,
    inverse,
    poly_at_matrix,
    random_with_charpoly,
)
from .polys import Poly
from .rings import Element, Ring
from .stalks import ZLocStalk, ZModStalk
from .verify import (
    ensure,
    verify_gsp,
    verify_gsrc,
    verify_pi_regular,
    verify_strong_clean,
)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class Decision:
    verdict: str
    route: str
    certificate: object | None = None
    factorization: object | None = None
    refutation: dict | None = None
    reason: str | None = None
    details: dict | None = None


@dataclass
class AuditReport:
    ring: dict
    degree: int
    instances: int
    agreements: int
    disagreements: list
    routes: dict
    wall_time_s: float = field(default=0.0)


def monic_polys(R: Ring, n: int):
    """All monic degree-n polynomials over a finite ring, canonical order."""
    elems = list(R.elements())
    for lows in itertools.product(elems, repeat=n):
        yield Poly(R, [*lows, R.one])


# -- certificate constructions --------------------------------------------------------


def _stalk_cert(gcert: GSRCCertificate, stalk_index: int) -> SRCCertificate:
    for b in gcert.blocks:
        if stalk_index in b.support:
            pos = b.support.index(stalk_index)
            return SRCCertificate(
                b.cert.f0.restrict(pos),
                b.cert.f1.restrict(pos),
                None if b.cert.bezout_u is None else b.cert.bezout_u.restrict(pos),
                None if b.cert.bezout_v is None else b.cert.bezout_v.restrict(pos),
                b.cert.kind,
            )
    raise AssertionError(f"no block covers stalk {stalk_index}")


def _strong_clean_from_stalk_certs(
    A: SquareMatrix, certs: list[SRCCertificate]
) -> StrongCleanCertificate:
    """Build (E, U) from per-stalk SRC factorizations of the char polynomial.

    With u*f0 + v*f1 = 1 and f0(A)f1(A) = h(A) = 0, the matrix
    E = u(A) f0(A) is the projection onto ker f1(A) along ker f0(A); f0(0)
    a unit makes A an automorphism of ker f0(A) and f1(1) a unit makes A - I
    an automorphism of ker f1(A), so U = A - E is invertible.
    """
    R = A.ring
    per_stalk = []
    for i, cert in enumerate(certs):
        if cert.bezout_u is None:
            raise VerificationFailed(["SR-only certificate cannot split the module"])
        Ax = A.restrict(i)
        Ex = poly_at_matrix(cert.bezout_u, Ax) @ poly_at_matrix(cert.f0, Ax)
        per_stalk.append(Ex)
    E = glue_matrices(R, per_stalk)
    U = A - E
    U_inv = inverse(U)
    if U_inv is None:
        raise VerificationFailed(["constructed U = A - E is not invertible"])
    cert = StrongCleanCertificate(E, U, U_inv)
    ensure(verify_strong_clean(A, cert))
    return cert


def strong_clean_from_gsrc(
    A: SquareMatrix, gcert: GSRCCertificate
) -> StrongCleanCertificate:
    certs = [_stalk_cert(gcert, i) for i in range(A.ring.num_stalks)]
    return _strong_clean_from_stalk_certs(A, certs)


def pi_regular_from_gsp(A: SquareMatrix, gcert) -> PiRegularCertificate:
    """Build (k, X) from per-stalk SP factorizations of the char polynomial.

    Per stalk, the SP pair upgrades to an SRC pair (the resultant of h0 and
    p0 is a unit), the Bezout pair yields the projection P onto ker h0(A),
    and X = -h0(0)^{-1} q(A) P with q = (h0 - h0(0))/t inverts A there while
    killing the nilpotent part.
    """
    R = A.ring
    per_stalk = []
    for i in range(R.num_stalks):
        blk = next(b for b in gcert.blocks if i in b.support)
        pos = blk.support.index(i)
        h0 = blk.cert.h0.restrict(pos)
        p0 = blk.cert.p0.restrict(pos)
        Sx = h0.ring
        bez = comaximality(h0, p0)
        if bez is None:
            raise VerificationFailed(
                ["SP factors are not comaximal on a local stalk"]
            )
        u, v = bez
        Ax = A.restrict(i)
        proj = poly_at_matrix(v, Ax) @ poly_at_matrix(p0, Ax)
        q = Poly(Sx, h0.coeffs[1:])
        c_inv = Sx.inv(h0(Sx.zero))
        Xx = (poly_at_matrix(q, Ax) @ proj) * (-c_inv)
        per_stalk.append(Xx)
    X = glue_matrices(R, per_stalk)
    K = A.n * R.max_nil_index()
    Ak = A
    for k in range(1, K + 1):
        Ak1 = Ak @ A
        if Ak1 @ X == Ak and X @ Ak1 == Ak:
            cert = PiRegularCertificate(k, X, X)
            ensure(verify_pi_regular(A, cert))
            return cert
        Ak = Ak1
    raise VerificationFailed(
        [f"gSP-derived witness failed to stabilize within k <= {K}"]
    )


# -- matrix-level deciders ---------------------------------------------------------


def _require_clean(R: Ring):
    if not R.classify().is_clean:
        raise NotCleanRing(f"{R.label()} is not clean")


def decide_strongly_clean(A: SquareMatrix) -> Decision:
    R = A.ring
    _require_clean(R)
    h = char_poly(A)
    res = gsrc_search(h, R, "SRC")
    if res.found:
        ensure(verify_gsrc(h, R, res.certificate))
        cert = strong_clean_from_gsrc(A, res.certificate)
        return Decision(
            YES, "gSRC", certificate=cert, factorization=res.certificate
        )
    if res.status == "absent" and A == companion(h):
        return Decision(
            NO,
            "companion_negation",
            refutation={
                "companion": True,
                "gsrc_transcript": res.transcript,
            },
        )
    reason = (
        "gSRC search was inconclusive"
        if res.status == "incomplete"
        else "no gSRC factorization, A is not the companion matrix, and the "
        "ring cannot be scanned exhaustively"
    )
    return Decision(UNKNOWN, "brute_force", reason=reason, details=res.transcript)


def decide_pi_regular(A: SquareMatrix, cross_check: bool = True) -> Decision:
    R = A.ring
    _require_clean(R)
    h = char_poly(A)
    res = gsp_search(h, R)
    if res.found:
        ensure(verify_gsp(h, R, res.certificate))
        cert = pi_regular_from_gsp(A, res.certificate)
        if cross_check and R.is_finite:
            other = pi_regular_oracle(A)
            if other is None:
                raise VerificationFailed(
                    ["gSP found a witness but the chain oracle found none"]
                )
        return Decision(YES, "gSP", certificate=cert, factorization=res.certificate)
    # gSP searches are complete on every in-scope stalk, and condition (2) of
    # the pi-regularity equivalence is existential: absence refutes every A
    # with this characteristic polynomial.
    if cross_check and R.is_finite:
        other = pi_regular_oracle(A)
        if other is not None:
            raise VerificationFailed(
                ["chain oracle found a witness but gSP search reported absence"]
            )
    return Decision(NO, "gSP", refutation={"gsp_transcript": res.transcript})


# -- ring-level deciders -------------------------------------------------------------


def decide_ring_strongly_clean(
    R: Ring, n: int, budget: int = DEFAULT_BUDGET
) -> Decision:
    """Is Mat_n(R) strongly clean?  (Equivalently: every monic degree-n h has a gSRC.)"""
    _require_clean(R)
    if R.is_finite:
        total = R.size**n
        if total > budget:
            raise BudgetExceeded(f"{total} monic polynomials exceed budget {budget}")
        for h in monic_polys(R, n):
            res = gsrc_search(h, R, "SRC")
            if not res.found:
                return Decision(
                    NO,
                    "gSRC",
                    refutation={
                        "witness_h": h,
                        "gsrc_transcript": res.transcript,
                    },
                )
            ensure(verify_gsrc(h, R, res.certificate))
        return Decision(
            YES,
            "gSRC",
            details={"instances": total, "certificates_verified": total},
        )
    if n == 2:
        return jclean_quadratic_criterion(R)
    return Decision(
        UNKNOWN,
        "gSRC",
        reason=f"no complete procedure for {R.label()} at degree {n}; "
        "the J-clean criterion covers degree 2 only",
    )


def _fraction_sqrt(f: Fraction):
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def jclean_quadratic_criterion(R: Ring) -> Decision:
    """Does t^2 - t + a have a root for every a in rad(R)?

    Finite stalks always answer Yes by Hensel's lemma, with no scan; they
    report the size of their radical as ``checked``.  For Z_(p) the
    discriminant 1 - 4a decides: a root exists iff 1 - 4a is a square in Q
    (the roots (1 +- s)/2 are then automatically p-integral).  The
    representative a = p is always a witness of failure since 1 - 4p < 0
    cannot be a rational square, so Z_(p) stalks always answer No.
    """
    cls = R.classify()
    if not cls.is_j_clean:
        raise PreconditionNotJClean(f"{R.label()} is not J-clean")
    stalk_reports = []
    a_elem = None
    for i in range(R.num_stalks):
        S = R.stalk_ring(i)
        stalk = R.stalks[i]
        if isinstance(stalk, ZLocStalk):
            p = stalk.p
            a = Fraction(p)
            why = f"discriminant {1 - 4 * p} is not a rational square"
            stalk_reports.append({"stalk": S.label(), "witness_a": str(a), "why": why})
            if a_elem is None:
                a_elem = R.from_parts(
                    tuple(a if j == i else st.zero for j, st in enumerate(R.stalks))
                )
        else:
            # rad = m on a finite local stalk, and modulo m t^2 - t + a is
            # t(t - 1), whose simple roots 0 and 1 Hensel-lift: every a in
            # rad has a root.  Only the size of rad is reported.
            if isinstance(stalk, ZModStalk):
                checked = stalk.q // stalk.p
            else:
                checked = sum(1 for x in stalk.elements() if not stalk.is_unit(x))
            stalk_reports.append(
                {"stalk": S.label(), "status": "all roots found", "checked": checked}
            )
    if a_elem is None:
        return Decision(
            YES, "jclean_root", details={"stalks": stalk_reports}
        )
    h = Poly(R, [a_elem, R.from_int(-1), R.one])
    return Decision(
        NO,
        "jclean_root",
        refutation={"witness_a": a_elem, "witness_h": h, "stalks": stalk_reports},
    )


def sqrt_one_plus_radical(v: Element):
    """A square root s of v with s - 1 in rad(R), for 2 a unit and v in 1+rad."""
    R = v.ring
    if not R.is_unit(R.from_int(2)):
        raise TwoNotUnit(f"2 is not invertible in {R.label()}")
    if not R.radical_membership(v - R.one).in_jacobson:
        raise NotInRadical(f"{v!r} - 1 is not in rad({R.label()})")
    parts = []
    for i, stalk in enumerate(R.stalks):
        vx = v.parts[i]
        if isinstance(stalk, ZLocStalk):
            s0 = _fraction_sqrt(vx)
            if s0 is None:
                return None
            pick = None
            for cand in (s0, -s0):
                if (cand - 1).numerator % stalk.p == 0:
                    pick = cand
                    break
            if pick is None:
                return None
            parts.append(pick)
        else:
            pick = None
            for cand in stalk.elements():
                if stalk.mul(cand, cand) == vx and stalk.in_max_ideal(
                    stalk.sub(cand, stalk.one)
                ):
                    pick = cand
                    break
            if pick is None:
                return None
            parts.append(pick)
    s = R.from_parts(tuple(parts))
    assert s * s == v
    return s


# -- audits ---------------------------------------------------------------------------


def _upper_triangulars(R: Ring, n: int):
    elems = list(R.elements())
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in itertools.product(elems, repeat=len(positions)):
        rows = [[R.zero] * n for _ in range(n)]
        for (i, j), v in zip(positions, combo):
            rows[i][j] = v
        yield SquareMatrix(R, rows)


def strong_clean_triangular(T: SquareMatrix) -> StrongCleanCertificate:
    """Certificate for an upper-triangular matrix via its diagonal unit split.

    Per stalk, f0 collects t - d over the unit diagonal entries and f1 the
    rest; f0(0) is a product of units, f1(1) a product of 1 - (non-unit)s,
    and the resultant is a product of unit differences, so the SRC machinery
    applies with no search.
    """
    R = T.ring
    certs = []
    for i in range(R.num_stalks):
        S = R.stalk_ring(i)
        Tx = T.restrict(i)
        f0, f1 = Poly.one(S), Poly.one(S)
        for d in range(T.n):
            diag = Tx.rows[d][d]
            lin = Poly(S, [-diag, S.one])
            if S.is_unit(diag):
                f0 = f0 * lin
            else:
                f1 = f1 * lin
        bez = comaximality(f0, f1)
        if bez is None:
            raise VerificationFailed(
                ["triangular unit/non-unit split is not comaximal"]
            )
        certs.append(SRCCertificate(f0, f1, bez[0], bez[1], "SRC"))
    return _strong_clean_from_stalk_certs(T, certs)


def triangular_sweep(R: Ring, n: int, budget: int = DEFAULT_BUDGET) -> AuditReport:
    """Certify every upper-triangular n x n matrix strongly clean.

    Each matrix takes the diagonal split of ``strong_clean_triangular``; a
    split that is not comaximal raises ``VerificationFailed``.
    """
    if not R.is_finite:
        raise InfiniteRing("triangular sweeps enumerate a finite ring")
    total = R.size ** (n * (n + 1) // 2)
    if total > budget:
        raise BudgetExceeded(f"{total} triangular matrices exceed budget {budget}")
    start = time.perf_counter()
    for T in _upper_triangulars(R, n):
        strong_clean_triangular(T)
    return AuditReport(
        ring=R.descriptor,
        degree=n,
        instances=total,
        agreements=total,
        disagreements=[],
        routes={"diagonal_split": total},
        wall_time_s=time.perf_counter() - start,
    )


def theorem_main_audit(
    R: Ring,
    n: int,
    budget: int = DEFAULT_BUDGET,
    samples: int = 5,
    seed: int = 0,
) -> AuditReport:
    """Exhaustive (2)<=>(3) audit plus sampled (3)=>(1) checks.

    For every monic degree-n h: gSRC existence must agree with the
    exhaustive strong-cleanness scan of the companion matrix; whenever the
    gSRC exists, ``samples`` seeded similar matrices are certified strongly
    clean through the constructed (E, U) pair.
    """
    if not R.is_finite:
        raise InfiniteRing("the equivalence audit enumerates a finite ring")
    total = R.size**n
    if total > budget:
        raise BudgetExceeded(f"{total} polynomials exceed budget {budget}")
    start = time.perf_counter()
    routes = {"gsrc_found": 0, "gsrc_absent": 0, "similar_certified": 0}
    disagreements = []
    for idx, h in enumerate(monic_polys(R, n)):
        res = gsrc_search(h, R, "SRC")
        bf = strongly_clean_bruteforce(companion(h), budget)
        if res.found != (bf is not None):
            disagreements.append({"h": h, "gsrc": res.status, "brute": bf is not None})
            continue
        if not res.found:
            routes["gsrc_absent"] += 1
            continue
        routes["gsrc_found"] += 1
        ensure(verify_gsrc(h, R, res.certificate))
        for j in range(samples):
            A = random_with_charpoly(h, seed * 1_000_003 + idx * 101 + j)
            strong_clean_from_gsrc(A, res.certificate)
            routes["similar_certified"] += 1
    return AuditReport(
        ring=R.descriptor,
        degree=n,
        instances=total,
        agreements=total - len(disagreements),
        disagreements=disagreements,
        routes=routes,
        wall_time_s=time.perf_counter() - start,
    )


def pi_regular_audit(R: Ring, n: int, budget: int = DEFAULT_BUDGET) -> AuditReport:
    """Exhaustive agreement of gSP existence with the chain-stabilization oracle."""
    if not R.is_finite:
        raise InfiniteRing("the pi-regularity audit enumerates a finite ring")
    total = R.size**n
    if total > budget:
        raise BudgetExceeded(f"{total} polynomials exceed budget {budget}")
    start = time.perf_counter()
    routes = {"gsp_found": 0, "gsp_absent": 0, "strongly_clean_implied": 0}
    disagreements = []
    for h in monic_polys(R, n):
        C = companion(h)
        res = gsp_search(h, R)
        oracle = pi_regular_oracle(C)
        if res.found != (oracle is not None):
            disagreements.append({"h": h, "gsp": res.status, "oracle": oracle is not None})
            continue
        if not res.found:
            routes["gsp_absent"] += 1
            continue
        routes["gsp_found"] += 1
        ensure(verify_gsp(h, R, res.certificate))
        pi_regular_from_gsp(C, res.certificate)
        sc = decide_strongly_clean(C)
        if sc.verdict != YES:
            disagreements.append({"h": h, "pi_regular": True, "strongly_clean": sc.verdict})
        else:
            routes["strongly_clean_implied"] += 1
    return AuditReport(
        ring=R.descriptor,
        degree=n,
        instances=total,
        agreements=total - len(disagreements),
        disagreements=disagreements,
        routes=routes,
        wall_time_s=time.perf_counter() - start,
    )
