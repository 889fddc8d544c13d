"""Theorem-level deciders and exhaustive audits.

``decide_strongly_clean`` realizes the three-way equivalence for clean
rings: a gSRC factorization of the characteristic polynomial is turned into
an explicit commuting (E, U) pair block by block, and a definitive gSRC
absence refutes the companion matrix.  ``build_ring`` only makes finite
products of local stalks, which are clean and J-clean, so no decider checks
either property again.  Over a finite ring every stalk is Henselian, so the
gSRC always exists and every ``unknown`` verdict comes from a Z_(p) stalk.
Every constructed certificate is re-verified before it is returned;
derivations are never trusted.

The certificates live in R[A] and are built stalk by stalk: on each stalk
an SRC split h = f0*f1 with Bezout pair u*f0 + v*f1 = 1 gives raw
polynomials e and w of degree < n with (t - e) w = 1 mod h, and an SP
split h = h0*p0 gives x, all from ``polys.certificate_parts`` (its
docstring derives them).  ``certificate_polys`` reads each stalk's split
off a global certificate and builds its polynomials; on a finite stalk the
builder is an ``lru_cache`` of ``factor.STALK_MEMO_CAP`` entries keyed by
(stalk, split, mode), so a split that recurs, in another h or another
decision, is built once, and a Z_(p) split is built every time.  The
polynomials are a pure function of the split, and every certificate built
from them is verified.  The stalks' parts are joined into polynomials
over R, and E = e(A), U = A - E, U^{-1} = w(A) and X = x(A) by
``poly_at_matrix`` (which runs every stalk at its own degree).
No certificate inverts a matrix.  A split whose f0(0), f1(1) or h0(0) is
not a unit raises ``VerificationFailed``.  The audits build each split's
polynomials once and evaluate them at every matrix that shares it.

Every decider is search, construct, verify: no exhaustive oracle runs on a
decision path.  The oracles of ``brute`` run only in the two audits, which
import them where they run, so deciding one matrix loads neither them nor
the scan kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InfiniteRing,
    NotInRadical,
    Record,
    TwoNotUnit,
    VerificationFailed,
    enumeration_size,
)
from .factor import (
    STALK_MEMO_CAP,
    GSPCertificate,
    GSRCCertificate,
    SPCertificate,
    SRCCertificate,
    gsp_search,
    gsrc_search,
)
from .matrices import (
    PiRegularCertificate,
    SquareMatrix,
    StrongCleanCertificate,
    char_poly,
    companion,
    poly_at_matrix,
    random_with_charpoly,
)
from .polys import Poly, certificate_parts, raw_bezout, raw_product
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


class Decision(Record):
    __slots__ = ("verdict", "route", "certificate", "factorization", "refutation", "reason", "details")

    def __init__(
        self,
        verdict: str,
        route: str,
        certificate=None,
        factorization=None,
        refutation: dict | None = None,
        reason: str | None = None,
        details: dict | None = None,
    ):
        self.verdict, self.route, self.certificate = verdict, route, certificate
        self.factorization, self.refutation = factorization, refutation
        self.reason, self.details = reason, details


class AuditReport(Record):
    __slots__ = ("ring", "degree", "instances", "agreements", "disagreements", "routes", "wall_time_s")

    def __init__(
        self,
        ring: dict,
        degree: int,
        instances: int,
        agreements: int,
        disagreements: list,
        routes: dict,
        wall_time_s: float = 0.0,
    ):
        self.ring, self.degree, self.instances, self.agreements = ring, degree, instances, agreements
        self.disagreements, self.routes, self.wall_time_s = disagreements, routes, wall_time_s


def monic_polys(R: Ring, n: int):
    """All monic degree-n polynomials over a finite ring, canonical order."""
    elems = list(R.elements())
    for lows in itertools.product(elems, repeat=n):
        yield Poly(R, [*lows, R.one])


# -- certificate constructions --------------------------------------------------------


def _stalk_splits(R: Ring, gcert) -> list:
    """Stalk i's raw split parts of a global certificate's blocks."""
    splits = [None] * R.num_stalks
    for b in gcert.blocks:
        c = b.cert
        if isinstance(c, SRCCertificate) and c.bezout_u is None:
            raise VerificationFailed(["SR-only certificate cannot split the module"])
        for k, i in enumerate(b.support):
            if isinstance(c, SPCertificate):
                splits[i] = c.h0.parts[k], c.p0.parts[k]
            else:
                v = c.bezout_v
                splits[i] = (
                    c.f0.parts[k],
                    c.f1.parts[k],
                    c.bezout_u.parts[k],
                    None if v is None else v.parts[k],
                )
    if None in splits:
        raise VerificationFailed(["block supports do not partition the stalks"])
    return splits


def _stalk_polys(s, split: tuple, mode: str) -> tuple:
    """``certificate_parts`` of a split on stalk s; an SP split's u comes from ``raw_bezout``."""
    if mode != "SP":
        f0, f1, u, _ = split
        return certificate_parts(s, f0, f1, u)
    h0, p0 = split
    bez = raw_bezout(s, h0, p0)
    if bez is None:
        raise VerificationFailed(["SP factors are not comaximal on a local stalk"])
    return certificate_parts(s, h0, p0, bez[0], drazin=True)


# ``_stalk_polys`` of finite stalks; a Z_(p) split seldom repeats, so it is not kept
_memo_polys = functools.lru_cache(maxsize=STALK_MEMO_CAP)(_stalk_polys)


def certificate_polys(R: Ring, gcert) -> list:
    """Each stalk's raw certificate polynomials of a gSRC or gSP certificate.

    Stalk i gets ``polys.certificate_parts`` of its split: (e, w) for a
    gSRC, (x,) for a gSP.
    """
    mode = "SP" if isinstance(gcert, GSPCertificate) else "SRC"
    return [
        (_memo_polys if s.finite else _stalk_polys)(s, split, mode)
        for s, split in zip(R.stalks, _stalk_splits(R, gcert))
    ]


def _joined(R: Ring, parts) -> tuple[Poly, ...]:
    """The polynomials over R whose stalk i is ``parts[i][j]``, one per position j."""
    return tuple(Poly.from_parts(R, ps) for ps in zip(*parts))


def _strong_clean(A: SquareMatrix, e: Poly, w: Poly) -> StrongCleanCertificate:
    """The (E, U) pair E = e(A), U = A - E, U^{-1} = w(A), re-verified."""
    E = poly_at_matrix(e, A)
    cert = StrongCleanCertificate(E, A - E, poly_at_matrix(w, A))
    ensure(verify_strong_clean(A, cert))
    return cert


def strong_clean_from_gsrc(
    A: SquareMatrix, gcert: GSRCCertificate
) -> StrongCleanCertificate:
    """Build (E, U) from a gSRC factorization of the char polynomial of A.

    E = e(A) and U^{-1} = w(A) for the stalks' (e, w) of
    ``certificate_polys``; an SR-only certificate has no Bezout pair
    and raises ``VerificationFailed``.
    """
    return _strong_clean(A, *_joined(A.ring, certificate_polys(A.ring, gcert)))


def pi_regular_from_gsp(A: SquareMatrix, gcert) -> PiRegularCertificate:
    """Build (k, X) from a gSP factorization of the char polynomial of A.

    Per stalk, the SP pair is comaximal (the resultant of h0 and p0 is a
    unit), so it has a Bezout pair, and X = x(A) for the stalks' x of
    ``certificate_polys`` inverts A on ker h0(A) while killing the
    nilpotent part: X is the Drazin inverse of A, the witness
    ``brute.pi_regular_oracle`` returns.  k is the first exponent with
    A^{k+1} X = A^k.
    """
    R = A.ring
    (x,) = _joined(R, certificate_polys(R, gcert))
    X = poly_at_matrix(x, A)
    K = A.n * R.max_nil_index()
    Ak = A
    for k in range(1, K + 1):
        Ak1 = Ak @ A
        # X is a polynomial in A, so X A^{k+1} = A^{k+1} X; the verifier checks both
        if Ak1 @ X == Ak:
            cert = PiRegularCertificate(k, X, X)
            ensure(verify_pi_regular(A, cert))
            return cert
        Ak = Ak1
    raise VerificationFailed(
        [f"gSP-derived witness failed to stabilize within k <= {K}"]
    )


# -- matrix-level deciders ---------------------------------------------------------


def decide_strongly_clean(A: SquareMatrix) -> Decision:
    R = A.ring
    h = char_poly(A)
    res = gsrc_search(h, R, "SRC")
    if res.found:
        ensure(verify_gsrc(h, R, res.certificate))
        cert = strong_clean_from_gsrc(A, res.certificate)
        return Decision(YES, "gSRC", certificate=cert, factorization=res.certificate)
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
        else "no gSRC factorization and A is not the companion matrix"
    )
    return Decision(UNKNOWN, "gSRC", reason=reason, details=res.transcript)


def decide_pi_regular(A: SquareMatrix, cross_check: bool = False) -> Decision:
    """gSP search, then the (k, X) certificate it yields, re-verified.

    ``cross_check`` has no effect; it stays only because the frozen
    benchmark harness passes it and ``tests/test_layering.py`` checks it.
    """
    R = A.ring
    h = char_poly(A)
    res = gsp_search(h, R)
    if res.found:
        ensure(verify_gsp(h, R, res.certificate))
        cert = pi_regular_from_gsp(A, res.certificate)
        return Decision(YES, "gSP", certificate=cert, factorization=res.certificate)
    # gSP searches are complete on every in-scope stalk, and condition (2) of
    # the pi-regularity equivalence is existential: absence refutes every A
    # with this characteristic polynomial.
    return Decision(NO, "gSP", refutation={"gsp_transcript": res.transcript})


# -- ring-level deciders -------------------------------------------------------------


def decide_ring_strongly_clean(
    R: Ring, n: int, budget: int = DEFAULT_BUDGET
) -> Decision:
    """Is Mat_n(R) strongly clean?  (Equivalently: every monic degree-n h has a gSRC.)"""
    if n == 1:
        return Decision(
            YES,
            "gSRC",
            reason="every stalk is local, so for each a either a or a - 1 is a unit, "
            "and t - a splits with f0 = t - a or f1 = t - a on every stalk: "
            "every 1x1 matrix is strongly clean",
        )
    if R.is_finite:
        total = enumeration_size(R.size, n, budget, "monic polynomials")
        for h in monic_polys(R, n):
            # finite stalks are Henselian: each stalk's degree-b lift is a hit
            # (or the search raises), so every h has a gSRC split
            res = gsrc_search(h, R, "SRC")
            assert res.found, f"no gSRC split of {h!r} over the finite ring {R.label()}"
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
        return Decision(YES, "jclean_root", details={"stalks": stalk_reports})
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
    for stalk, vx in zip(R.stalks, v.parts):
        if isinstance(stalk, ZLocStalk):
            s0 = _fraction_sqrt(vx)
            cands = () if s0 is None else (s0, -s0)
            pick = next((c for c in cands if (c - 1).numerator % stalk.p == 0), None)
        else:
            pick = next(
                (
                    c
                    for c in stalk.elements()
                    if stalk.mul(c, c) == vx and stalk.in_max_ideal(stalk.sub(c, stalk.one))
                ),
                None,
            )
        if pick is None:
            return None
        parts.append(pick)
    s = R.from_parts(tuple(parts))
    assert s * s == v
    return s


# -- audits ---------------------------------------------------------------------------


def _diagonal_split(R: Ring, diag) -> list[tuple]:
    """Each stalk's raw (f0, f1, u) of the unit/non-unit split of a triangular diagonal.

    Per stalk, f0 collects t - d over the unit diagonal entries and f1 the
    rest; f0(0) is a product of units, f1(1) a product of 1 - (non-unit)s,
    and the resultant is a product of unit differences, so the SRC machinery
    applies with no search, and ``raw_bezout`` gives u.  f0 * f1 is the char
    polynomial of every upper-triangular matrix with this diagonal.
    """
    splits = []
    for i, s in enumerate(R.stalks):
        f0 = f1 = (s.one,)
        for d in diag:
            x = d.parts[i]
            lin = (s.neg(x), s.one)
            if s.is_unit(x):
                f0 = raw_product(s, f0, lin)
            else:
                f1 = raw_product(s, f1, lin)
        bez = raw_bezout(s, f0, f1)
        if bez is None:
            raise VerificationFailed(
                ["triangular unit/non-unit split is not comaximal"]
            )
        splits.append((f0, f1, bez[0]))
    return splits


def _triangular_polys(R: Ring, diag) -> tuple[Poly, Poly]:
    """(e, w) of the diagonal split, built stalk by stalk by ``certificate_parts``."""
    return _joined(
        R, [certificate_parts(s, *split) for s, split in zip(R.stalks, _diagonal_split(R, diag))]
    )


def strong_clean_triangular(T: SquareMatrix) -> StrongCleanCertificate:
    """Certificate for an upper-triangular matrix via its diagonal unit split."""
    diag = [row[d] for d, row in enumerate(T.rows)]
    return _strong_clean(T, *_triangular_polys(T.ring, diag))


def triangular_sweep(R: Ring, n: int, budget: int = DEFAULT_BUDGET) -> AuditReport:
    """Certify every upper-triangular n x n matrix strongly clean.

    Each matrix takes the diagonal split of ``strong_clean_triangular``; a
    split that is not comaximal raises ``VerificationFailed``.  The
    diagonals are the outer loop and the strict upper entries the inner
    one, so each diagonal's (e, w) is built once.
    """
    if not R.is_finite:
        raise InfiniteRing("triangular sweeps enumerate a finite ring")
    total = enumeration_size(R.size, n * (n + 1) // 2, budget, "triangular matrices")
    start = time.perf_counter()
    elems = list(R.elements())
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(elems, repeat=n):
        e, w = _triangular_polys(R, diag)
        for above in itertools.product(elems, repeat=len(upper)):
            rows = [[R.zero] * n for _ in range(n)]
            for d, x in enumerate(diag):
                rows[d][d] = x
            for (i, j), x in zip(upper, above):
                rows[i][j] = x
            _strong_clean(SquareMatrix(R, rows), e, w)
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

    For every monic degree-n h, the gSRC split and the exhaustive
    strong-cleanness scan of the companion matrix must both exist: finite
    stalks are Henselian, so a missing split is a disagreement.  Each split
    then certifies ``samples`` seeded similar matrices strongly clean
    through the constructed (E, U) pair; its polynomials e and w are built
    once and evaluated at each sample.  The polynomial count, and that count
    times ``samples``, are checked against the budget before any work starts.
    """
    from .brute import strongly_clean_bruteforce

    if not R.is_finite:
        raise InfiniteRing("the equivalence audit enumerates a finite ring")
    total = enumeration_size(R.size, n, budget, "polynomials")
    if total * samples > budget:
        raise BudgetExceeded(f"{total * samples} similar samples exceed budget {budget}")
    start = time.perf_counter()
    routes = {"gsrc_found": 0, "similar_certified": 0}
    disagreements = []
    for idx, h in enumerate(monic_polys(R, n)):
        res = gsrc_search(h, R, "SRC")
        bf = strongly_clean_bruteforce(companion(h), budget)
        if not res.found or bf is None:
            disagreements.append({"h": h, "gsrc": res.status, "brute": bf is not None})
            continue
        routes["gsrc_found"] += 1
        ensure(verify_gsrc(h, R, res.certificate))
        e, w = _joined(R, certificate_polys(R, res.certificate))
        for j in range(samples):
            A = random_with_charpoly(h, seed * 1_000_003 + idx * 101 + j)
            _strong_clean(A, e, w)
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
    """Exhaustive agreement of the gSP certificate with the Drazin-inverse oracle.

    M_n(R) is finite, hence strongly pi-regular, and finite stalks are
    Henselian: for every monic degree-n h both the gSP split and the
    oracle's witness must exist, and a missing one is a disagreement.  Both
    sides build the Drazin inverse of the companion matrix and its index, so
    an oracle (k, X) other than the gSP-built one is a disagreement too.
    """
    from .brute import pi_regular_oracle

    if not R.is_finite:
        raise InfiniteRing("the pi-regularity audit enumerates a finite ring")
    total = enumeration_size(R.size, n, budget, "polynomials")
    start = time.perf_counter()
    routes = {"gsp_found": 0, "strongly_clean_implied": 0}
    disagreements = []
    for h in monic_polys(R, n):
        C = companion(h)
        res = gsp_search(h, R)
        oracle = pi_regular_oracle(C)
        if not res.found or oracle is None:
            disagreements.append({"h": h, "gsp": res.status, "oracle": oracle is not None})
            continue
        routes["gsp_found"] += 1
        ensure(verify_gsp(h, R, res.certificate))
        cert = pi_regular_from_gsp(C, res.certificate)
        if (oracle.k, oracle.X) != (cert.k, cert.X):
            disagreements.append({"h": h, "gsp_certificate": cert, "oracle_certificate": oracle})
            continue
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
