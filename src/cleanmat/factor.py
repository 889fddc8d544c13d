"""Factorization searches for monic polynomials over rings with local stalks.

Four searches are exposed:

* ``src_search``: factor h = f0*f1 with f0(0) and f1(1) units; with
  comaximality of the factors as an extra requirement the pair is certified
  by an explicit Bezout identity u*f0 + v*f1 = 1 from one unit-pivot solve
  of the Sylvester system.
* ``gsrc_search``: the globalized form; one factorization per idempotent
  block, with blocks grouped by deg(f0) so at most deg(h)+1 blocks appear.
  A block is a set of stalks, and its idempotent is the indicator of that
  support (``Ring.indicator``).
* ``sp_search`` / ``gsp_search``: factor h = h0*p0 with h0(0) a unit and p0
  congruent to a power of t modulo nilpotents.

A local ring is a ring with one stalk, so the search over a local ring is
``src_search(h, h.ring)`` or ``sp_search(h, h.ring)``: the single stalk's
degree profile, whose certificate is glued over its one block, R itself.

Every search works stalk by stalk, in degree order, and stops once it has
its answer.  A finite stalk is a Henselian local ring, so its lowest-degree
split is constructed, not searched for: for SP, deg(p0) must be ord_t(h mod
m) and p0 is the Hensel lift of that power of t; for SR/SRC, deg(f0) >= b =
ord_(t-1)(h mod m) and the degree-b split is the unique lift of (t-1)^b.
Only ``src_search``, which needs one degree split shared by every stalk,
still scans the monic candidates of a finite stalk, and only at degrees
above b; those scans are exhaustive.  Over Z_(p) the degree splits
0, 1, n-1, n are decided completely (trivial unit tests plus rational-root
enumeration; Z_(p) is integrally closed, so monic linear factors come from
rational roots); middle splits of degree >= 4 polynomials fall back to a
bounded-height scan and report ``incomplete`` when they find nothing, which
is distinct from a definitive ``absent``.

The unit tests read raw coefficients: f(0) is a unit when every stalk's
constant coefficient is, f(1) when every stalk's coefficient sum is
(``Poly.unit_at_zero`` / ``Poly.unit_at_one``).  Rational-root candidates
a/b are tested with the integer identity sum c_i a^i b^(n-i) = 0.

``gsrc_search`` and ``gsp_search`` decide each stalk on its own, and a
stalk's lowest-degree hit is a pure function of the stalk ring, the raw
stalk coefficients and the mode ("SRC", "SR" or "SP").  Over a finite stalk
it is memoized under the key (stalk ring key, raw coefficient tuple, mode)
in one module-level memo of at most ``STALK_MEMO_CAP`` entries, evicting the
least recently used.  An entry holds raw parts, note strings and, once a
certificate has been built from the entry's hit, that hit's raw certificate
polynomials; every call, hit or miss, rebuilds fresh polynomials,
certificates and transcript dicts from it, so no caller can change what a
later call gets.  Z_(p) stalks are not memoized, a search that raises leaves
no entry, and ``src_search``/``sp_search`` do not use the memo.  Callers
still verify every certificate they receive.

``certificate_polys`` gives each stalk's raw certificate polynomials of a
global split, (e, w) of a gSRC and (x,) of a gSP, from the kernel
``polys.certificate_parts``.  A finite stalk whose split is exactly the
first hit of its memo entry reads them from the entry once they are built;
``keep_certificate_polys`` stores newly built ones there after the
certificate that used them has verified, so the searches themselves cost
what they did and a failed construction stores nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationFailed
from .matrices import sylvester_solve
from .polys import Poly, certificate_parts, monic_divide, raw_product
from .rings import Element, Ring, block_ring
from .stalks import ZLocStalk

BOUNDED_HEIGHT = 3
STALK_MEMO_CAP = 4096

FOUND = "found"
ABSENT = "absent"
INCOMPLETE = "incomplete"


@dataclass
class SRCCertificate:
    f0: Poly
    f1: Poly
    bezout_u: Poly | None
    bezout_v: Poly | None
    kind: str  # "SR" or "SRC"


@dataclass
class SPCertificate:
    h0: Poly
    p0: Poly


@dataclass
class Block:
    support: tuple[int, ...]
    idempotent: Element
    cert: object  # SRCCertificate or SPCertificate over the block subring


@dataclass
class GSRCCertificate:
    blocks: list[Block]


@dataclass
class GSPCertificate:
    blocks: list[Block]


@dataclass
class SearchResult:
    status: str  # found | absent | incomplete
    certificate: object | None
    transcript: dict

    @property
    def found(self) -> bool:
        return self.status == FOUND


# -- comaximality via the Sylvester resultant -------------------------------------


def comaximality(f0: Poly, f1: Poly):
    """Bezout pair (u, v) with u*f0 + v*f1 = 1, or None if not comaximal.

    The matrix M of (u, v) -> u*f0 + v*f1 on monomial bases (deg u < deg f1,
    deg v < deg f0) is the Sylvester matrix, square of size deg f0 + deg f1;
    its determinant is the resultant up to sign.  For monic polynomials over
    a ring whose stalks are local, the resultant is a unit exactly when the
    pair is comaximal.  One solve settles both: ``sylvester_solve`` runs a
    unit-pivot elimination of M (u, v) = e_0 on each stalk and returns None
    exactly when some column has no unit pivot, that is when the resultant
    is not a unit; otherwise its answer is the unique solution, and the
    identity u*f0 + v*f1 = 1 is checked exactly before it is returned.

    Non-monic input raises ``ValueError``, tested once: by ``sylvester_solve``
    when both factors have degree >= 1, and here when one is a constant.
    """
    R = f0.ring
    if len(f0.parts[0]) < 2 or len(f1.parts[0]) < 2:
        if not f0.is_monic or not f1.is_monic:
            raise ValueError("comaximality needs monic polynomials")
        f0._check(f1)
        if f0.degree == 0:
            return Poly.one(R), Poly.zero(R)
        return Poly.zero(R), Poly.one(R)
    bez = sylvester_solve(f0, f1)
    if bez is None:
        return None
    u, v = bez
    if (u * f0 + v * f1) != Poly.one(R):
        raise VerificationFailed(["resultant Bezout pair failed its identity check"])
    return u, v


# -- rational roots over Z_(p) ------------------------------------------------------


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(h: Poly) -> list[Fraction]:
    """All roots of a monic h over Z_(p) (they are rational, and p-integral).

    Clears denominators and enumerates a/b in lowest terms with a | const,
    b | lead of the integer polynomial sum c_i t^i; a/b is a root exactly
    when the integer sum c_i a^i b^(n-i) is 0.  Z_(p) is integrally closed,
    so every rational root of a monic polynomial over it already lies in
    Z_(p).
    """
    ring = h.ring
    stalk = ring.stalks[0]
    assert isinstance(stalk, ZLocStalk)
    coeffs = h.parts[0]
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // _gcd(scale, c.denominator)
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    roots = set()
    # strip powers of t
    v = 0
    while v < len(ints) - 1 and ints[v] == 0:
        v += 1
    if v > 0:
        roots.add(Fraction(0))
    ints = ints[v:]
    if len(ints) > 1:
        const, lead = ints[0], ints[-1]
        rest = ints[-2::-1]
        for a in _divisors(const):
            for b in _divisors(lead):
                if _gcd(a, b) != 1:
                    continue
                for num in (a, -a):
                    # Horner on the homogenized sum: acc = sum c_i num^i b^(n-i)
                    acc, bpow = lead, 1
                    for c in rest:
                        bpow *= b
                        acc = acc * num + c * bpow
                    if acc == 0:
                        roots.add(Fraction(num, b))
    for r in roots:
        assert r.denominator % stalk.p != 0, "monic root escaped Z_(p)"
    return sorted(roots)


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


# -- per-degree outcome profiles ---------------------------------------------------


@dataclass
class DegreeOutcome:
    cert: object | None
    complete: bool
    note: str


class _Profile:
    """One stalk's outcomes for deg 0..n, computed in degree order on demand."""

    def __init__(self, degree: int, outcomes):
        self.degree = degree
        self.examined: list[DegreeOutcome] = []
        self._rest = iter(outcomes)

    def at(self, d: int) -> DegreeOutcome:
        while len(self.examined) <= d:
            self.examined.append(next(self._rest))
        return self.examined[d]

    def first_hit(self):
        """(degree, certificate) of the lowest degree with one, or None."""
        for d in range(self.degree + 1):
            out = self.at(d)
            if out.cert is not None:
                return d, out.cert
        return None

    @property
    def complete(self) -> bool:
        return all(out.complete for out in self.examined)


def _hensel_split(h: Poly, a: int):
    """Newton-lift h = q*p with p monic, p = t^a mod m, over a finite local ring.

    ``a`` must be ord_t(h mod m), the index of the first unit coefficient of
    h; then t^a and (h mod m)/t^a are coprime, finite local rings are
    Henselian, and the lift exists and is unique.  Each round divides h by p
    (quotient q, remainder r) and adds r*u mod p to p, where u*q + v*p = 1;
    the remainder's ideal order doubles, so the lift is exact within
    ceil(log2(nil index)) + 1 rounds.  Returns (q, p, rounds).
    """
    R = h.ring
    limit = (R.max_nil_index() - 1).bit_length() + 1
    p = Poly.t_power(R, a)
    for rounds in range(1, limit + 1):
        q, r, exact = monic_divide(h, p)
        if exact:
            return q, p, rounds
        bez = comaximality(q, p)
        if bez is None:
            break
        p = p + monic_divide(r * bez[0], p)[1]
    raise VerificationFailed(
        [f"Hensel lift of {h!r} from t^{a} did not converge in {limit} rounds"]
    )


def _first_unit_index(h: Poly) -> int:
    """Index of the first unit coefficient of a monic h over a single stalk."""
    s = h.ring.stalks[0]
    return next(i for i, c in enumerate(h.parts[0]) if s.is_unit(c))


def _attempt_pair(h: Poly, f0: Poly, mode: str):
    """Check one monic candidate f0; return an SRCCertificate or None."""
    R = h.ring
    q, _, exact = monic_divide(h, f0)
    if not exact:
        return None
    f1 = q
    if not f0.unit_at_zero or not f1.unit_at_one:
        return None
    if mode == "SR":
        return SRCCertificate(f0, f1, None, None, "SR")
    bez = comaximality(f0, f1)
    if bez is None:
        return None
    return SRCCertificate(f0, f1, bez[0], bez[1], "SRC")


def _monic_candidates(R: Ring, d: int):
    """Monic degree-d (d >= 1) polynomials with unit constant term, canonical order.

    R is a single-stalk ring, so its canonical order is its stalk's.
    """
    (s,) = R.stalks
    elems = s.elements()
    units = [x for x in elems if s.is_unit(x)]
    for c0 in units:
        for mids in itertools.product(elems, repeat=d - 1):
            yield Poly.from_parts(R, [(c0, *mids, s.one)])


def _src_outcomes_finite(h: Poly, mode: str):
    """Degrees below b are impossible, b is lifted, degrees above b are scanned.

    With b = ord_(t-1)(h mod m), f1(1) a unit forces (t-1)^b to divide
    f0 mod m, so deg f0 >= b; at deg f0 = b the split is the unique Hensel
    lift of (t-1)^b * (h mod m)/(t-1)^b, which is comaximal, so SR and SRC
    get the same pair.  It is found as the SP lift of g(t) = h(t+1) at t^b,
    shifted back by t -> t-1.
    """
    R = h.ring
    g = h.translate(R.one)
    b = _first_unit_index(g)
    for _ in range(b):
        yield DegreeOutcome(
            None, True, f"(t-1)^{b} divides h mod m but not f1 mod m, so deg f0 >= {b}"
        )
    q, p, _ = _hensel_split(g, b)
    f0, f1 = p.translate(-R.one), q.translate(-R.one)
    bez = (None, None)
    if mode == "SRC":
        bez = comaximality(f0, f1)
        if bez is None:
            raise VerificationFailed([f"Hensel split of {h!r} is not comaximal"])
    yield DegreeOutcome(SRCCertificate(f0, f1, *bez, mode), True, "found")
    for d in range(b + 1, h.degree + 1):
        cert = None
        for f0 in _monic_candidates(R, d):
            cert = _attempt_pair(h, f0, mode)
            if cert is not None:
                break
        note = "found" if cert else f"exhausted all monic degree-{d} candidates"
        yield DegreeOutcome(cert, True, note)


def _src_outcomes_zloc(h: Poly, mode: str):
    R = h.ring
    n = h.degree
    roots = None

    def linear(r: Fraction) -> Poly:
        return Poly(R, [R.from_parts((-r,)), R.one])

    for d in range(n + 1):
        if d == 0:
            cert = _attempt_pair(h, Poly.one(R), mode)
            note = "found" if cert else f"h(1) = {h(R.one)!r} is not a unit"
            yield DegreeOutcome(cert, True, note)
        elif d == n:
            cert = _attempt_pair(h, h, mode)
            note = "found" if cert else f"h(0) = {h(R.zero)!r} is not a unit"
            yield DegreeOutcome(cert, True, note)
        elif d in (1, n - 1):
            if roots is None:
                roots = rational_roots(h)
            cert = None
            for r in roots:
                f0 = linear(r) if d == 1 else monic_divide(h, linear(r))[0]
                cert = _attempt_pair(h, f0, mode)
                if cert is not None:
                    break
            note = (
                "found"
                if cert
                else f"all rational roots {[str(r) for r in roots]} fail the unit tests"
            )
            yield DegreeOutcome(cert, True, note)
        else:
            cert = None
            span = range(-BOUNDED_HEIGHT, BOUNDED_HEIGHT + 1)
            p = R.stalks[0].p
            for c0 in span:
                if c0 % p == 0:
                    continue
                for mids in itertools.product(span, repeat=d - 1):
                    f0 = Poly.from_ints(R, [c0, *mids, 1])
                    cert = _attempt_pair(h, f0, mode)
                    if cert is not None:
                        break
                if cert is not None:
                    break
            note = (
                "found"
                if cert
                else f"bounded search (height {BOUNDED_HEIGHT}) exhausted; not decisive"
            )
            yield DegreeOutcome(cert, cert is not None, note)


def _src_profile(h: Poly, mode: str) -> _Profile:
    outcomes = _src_outcomes_finite if h.ring.is_finite else _src_outcomes_zloc
    return _Profile(h.degree, outcomes(h, mode))


def _sp_outcomes(h: Poly):
    R = h.ring
    n = h.degree
    if R.is_finite:
        # p0 = t^d mod m and h0(0) a unit force d = ord_t(h mod m)
        a = _first_unit_index(h)
        q, p, _ = _hensel_split(h, a)
        for d in range(n + 1):
            if d == a:
                yield DegreeOutcome(SPCertificate(q, p), True, "found")
            else:
                note = f"no nilpotent-tail divisor of degree {d}"
                yield DegreeOutcome(None, True, note)
        return
    # Z_(p) is a domain: Nil = 0, so p0 must be exactly t^d and only the
    # t-adic valuation of h can work.
    (s,) = R.stalks
    a = h.parts[0]
    val = 0
    while a[val] == s.zero:  # h is monic, so a[n] = 1 stops the scan
        val += 1
    for d in range(n + 1):
        cert = None
        note = f"p0 = t^{d} does not divide h"
        if d == val:
            h0 = Poly.from_parts(R, [a[d:]])
            if h0.unit_at_zero:
                cert = SPCertificate(h0, Poly.t_power(R, d))
                note = "found"
            else:
                note = f"h0(0) = {h0.coeff(0)!r} is not a unit"
        elif d < val:
            note = f"h0(0) would be 0 (valuation of h is {val})"
        yield DegreeOutcome(cert, True, note)


def _sp_profile(h: Poly) -> _Profile:
    """SP outcomes per deg(p0); one lift decides every degree, so all are filled."""
    profile = _Profile(h.degree, _sp_outcomes(h))
    profile.at(h.degree)
    return profile


# -- public searches -----------------------------------------------------------------


def _require_monic(h: Poly):
    if not h.is_monic:
        raise ValueError(f"{h!r} is not monic")


def _notes(prof: _Profile) -> tuple:
    """(degree, note) of every degree the stalk's search examined."""
    return tuple(
        (str(d), out.note + ("" if out.complete else " [incomplete]"))
        for d, out in enumerate(prof.examined)
    )


def _transcript(R: Ring, notes, mode: str) -> dict:
    """The transcript document from each stalk's ``_notes``."""
    stalks = [
        {"stalk": R.stalk_ring(i).label(), "degrees": dict(n)} for i, n in enumerate(notes)
    ]
    return {"mode": mode, "stalks": stalks}


def _profile_transcript(R: Ring, profiles, mode: str) -> dict:
    """The outcome of every degree each stalk's search examined."""
    return _transcript(R, [_notes(prof) for prof in profiles], mode)


def _common_degree_result(h: Poly, R: Ring, profiles, mode: str, glue) -> SearchResult:
    """The lowest degree split that every stalk shares, glued by CRT."""
    undecided = False
    for d in range(h.degree + 1):
        outs = [prof.at(d) for prof in profiles]
        if all(out.cert for out in outs):
            cert = glue(R, tuple(range(R.num_stalks)), [_raw_parts(o.cert) for o in outs])
            return SearchResult(FOUND, cert, _profile_transcript(R, profiles, mode))
        if any(out.cert is None and out.complete for out in outs):
            continue  # this degree split is definitively impossible at some stalk
        undecided = True
    status = INCOMPLETE if undecided else ABSENT
    return SearchResult(status, None, _profile_transcript(R, profiles, mode))


def src_search(h: Poly, R: Ring, mode: str = "SRC") -> SearchResult:
    """Single-block SR/SRC factorization over R itself.

    A monic factorization over R is exactly a choice, for every stalk, of a
    factorization with one common degree split, glued by CRT; so the search
    combines the per-stalk degree profiles at each uniform degree.
    """
    _require_monic(h)
    profiles = [_src_profile(h.restrict(i), mode) for i in range(R.num_stalks)]
    return _common_degree_result(h, R, profiles, mode, _glue_src_block)


def sp_search(h: Poly, R: Ring) -> SearchResult:
    """Single-block SP factorization over R: one common deg(p0) on every stalk."""
    _require_monic(h)
    profiles = [_sp_profile(h.restrict(i)) for i in range(R.num_stalks)]
    return _common_degree_result(h, R, profiles, "SP", _glue_sp_block)


def _raw_parts(cert, k: int = 0) -> tuple:
    """The raw parts of stalk k of a certificate, None for a missing cofactor.

    SR(C): (f0, f1, u, v); SP: (h0, p0).  Blocks are glued from these.
    """
    if isinstance(cert, SPCertificate):
        return cert.h0.parts[k], cert.p0.parts[k]
    u, v = cert.bezout_u, cert.bezout_v
    return (
        cert.f0.parts[k],
        cert.f1.parts[k],
        None if u is None else u.parts[k],
        None if v is None else v.parts[k],
    )


def _glue_src_block(R: Ring, support: tuple[int, ...], raws) -> SRCCertificate:
    B = block_ring(R, support)
    f0s, f1s, us, vs = zip(*raws)
    f0, f1 = Poly.from_parts(B, f0s), Poly.from_parts(B, f1s)
    if None in us:
        return SRCCertificate(f0, f1, None, None, "SR")
    return SRCCertificate(f0, f1, Poly.from_parts(B, us), Poly.from_parts(B, vs), "SRC")


def _glue_sp_block(R: Ring, support: tuple[int, ...], raws) -> SPCertificate:
    B = block_ring(R, support)
    h0s, p0s = zip(*raws)
    return SPCertificate(Poly.from_parts(B, h0s), Poly.from_parts(B, p0s))


def _assemble_global(R: Ring, choices, glue) -> list[Block]:
    """Group per-stalk (degree, raw parts) hits by degree into <= n+1 blocks."""
    groups: dict[int, list[int]] = {}
    for i, (d, _) in enumerate(choices):
        groups.setdefault(d, []).append(i)
    blocks = []
    for d in sorted(groups):
        support = tuple(groups[d])
        certs = [choices[i][1] for i in support]
        blocks.append(Block(support, R.indicator(support), glue(R, support, certs)))
    return blocks


# -- the per-stalk step of the global searches, memoized on finite stalks -----------

# (stalk ring key, raw stalk coefficients, mode) -> [hit, notes, complete, polys],
# where hit is None or (degree, raw certificate parts) and polys is None until a
# certificate built from hit verifies; insertion order is recency
_STALK_MEMO: dict = {}


def _stalk_step(h: Poly, i: int, mode: str) -> list:
    """Stalk i's lowest-degree hit, examined notes and completeness, all raw."""
    hi = h.restrict(i)
    prof = _sp_profile(hi) if mode == "SP" else _src_profile(hi, mode)
    hit = prof.first_hit()
    raw = None if hit is None else (hit[0], _raw_parts(hit[1]))
    return [raw, _notes(prof), prof.complete, None]


def _stalk_first_hit(h: Poly, R: Ring, i: int, mode: str) -> list:
    """``_stalk_step``, looked up in the memo first when stalk i is finite."""
    if not R.stalks[i].finite:
        return _stalk_step(h, i, mode)
    key = (R.stalk_ring(i).key, h.parts[i], mode)
    entry = _STALK_MEMO.pop(key, None)
    if entry is None:
        entry = _stalk_step(h, i, mode)
        while len(_STALK_MEMO) >= STALK_MEMO_CAP:
            del _STALK_MEMO[next(iter(_STALK_MEMO))]
    _STALK_MEMO[key] = entry
    return entry


def _global_result(h: Poly, R: Ring, mode: str, glue, wrap) -> SearchResult:
    """Each stalk's lowest-degree certificate, grouped into blocks by degree."""
    steps = [_stalk_first_hit(h, R, i, mode) for i in range(R.num_stalks)]
    transcript = _transcript(R, [notes for _, notes, _, _ in steps], mode)
    missing = [complete for hit, _, complete, _ in steps if hit is None]
    if missing:
        status = ABSENT if any(missing) else INCOMPLETE
        return SearchResult(status, None, transcript)
    blocks = _assemble_global(R, [hit for hit, _, _, _ in steps], glue)
    assert len(blocks) <= h.degree + 1
    return SearchResult(FOUND, wrap(blocks), transcript)


def gsrc_search(h: Poly, R: Ring, mode: str = "SRC") -> SearchResult:
    """Globalized SR(C) factorization: per-stalk searches grouped by degree."""
    _require_monic(h)
    if mode not in ("SR", "SRC"):
        # the memo keys gsp_search's stalks by the mode "SP"
        raise ValueError(f"gsrc_search mode must be 'SR' or 'SRC', not {mode!r}")
    return _global_result(h, R, mode, _glue_src_block, GSRCCertificate)


def gsp_search(h: Poly, R: Ring) -> SearchResult:
    """Globalized SP factorization; complete over every in-scope ring."""
    _require_monic(h)
    return _global_result(h, R, "SP", _glue_sp_block, GSPCertificate)


# -- certificate polynomials, built once per memoized stalk split ------------------


def _stalk_splits(R: Ring, gcert) -> list:
    """Stalk i's raw split parts of a global certificate's blocks."""
    splits = [None] * R.num_stalks
    for b in gcert.blocks:
        c = b.cert
        if isinstance(c, SRCCertificate) and c.bezout_u is None:
            raise VerificationFailed(["SR-only certificate cannot split the module"])
        for k, i in enumerate(b.support):
            splits[i] = _raw_parts(c, k)
    if None in splits:
        raise VerificationFailed(["block supports do not partition the stalks"])
    return splits


def _stalk_polys(R: Ring, i: int, split: tuple, mode: str) -> tuple:
    """``certificate_parts`` of stalk i's split; an SP split's u is solved first."""
    s = R.stalks[i]
    if mode != "SP":
        f0, f1, u, _ = split
        return certificate_parts(s, f0, f1, u)
    h0, p0 = split
    S = R.stalk_ring(i)
    bez = comaximality(Poly.from_parts(S, [h0]), Poly.from_parts(S, [p0]))
    if bez is None:
        raise VerificationFailed(["SP factors are not comaximal on a local stalk"])
    return certificate_parts(s, h0, p0, bez[0].parts[0], drazin=True)


def certificate_polys(R: Ring, gcert) -> tuple[list, list]:
    """Each stalk's raw certificate polynomials of a gSRC or gSP certificate.

    Stalk i gets ``polys.certificate_parts`` of its split: (e, w) for a
    gSRC, (x,) for a gSP.  A finite stalk whose split is exactly the first
    hit of its memo entry reads them from the entry when they are there.
    Returns the per-stalk parts and the entries they are still to fill,
    for ``keep_certificate_polys`` once the certificate has verified.
    """
    mode = "SP" if isinstance(gcert, GSPCertificate) else "SRC"
    parts, fills = [], []
    for i, split in enumerate(_stalk_splits(R, gcert)):
        s = R.stalks[i]
        entry = None
        if s.finite:
            # the memo key's h = f0*f1 (h0*p0), multiplied on this stalk only
            h = raw_product(s, split[0], split[1])
            entry = _STALK_MEMO.get((R.stalk_ring(i).key, h, mode))
            if entry is not None and (entry[0] is None or entry[0][1] != split):
                entry = None
        if entry is not None and entry[3] is not None:
            parts.append(entry[3])
            continue
        polys = _stalk_polys(R, i, split, mode)
        parts.append(polys)
        if entry is not None:
            fills.append((entry, polys))
    return parts, fills


def keep_certificate_polys(fills: list) -> None:
    """Store built certificate polynomials in the memo entries they belong to."""
    for entry, polys in fills:
        entry[3] = polys
