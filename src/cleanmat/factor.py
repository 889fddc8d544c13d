"""Factorization searches for monic polynomials over rings with local stalks.

Four searches are exposed:

* ``src_search``: factor h = f0*f1 with f0(0) and f1(1) units; with
  comaximality of the factors as an extra requirement the pair is certified
  by an explicit Bezout identity u*f0 + v*f1 = 1, which ``polys.raw_bezout``
  solves on each stalk.
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
its answer.  A stalk is searched on its raw coefficients: an outcome
generator takes the stalk and the tuple ``h.parts[i]`` and yields, for each
degree split, the split's raw certificate parts (or None), whether that
degree is decided and its transcript note.  No one-stalk ``Poly`` is built:
divisions, Taylor shifts, products and sums are the stalk kernels of
``polys`` (``raw_divide``, ``raw_translate``, ``raw_product``, ``raw_sum``)
and every Bezout pair is one ``raw_bezout``.

A finite stalk is a Henselian local ring, so its lowest-degree split is
constructed, not searched for: for SP, deg(p0) must be ord_t(h mod m) and
p0 is the Hensel lift of that power of t; for SR/SRC, deg(f0) >= b =
ord_(t-1)(h mod m) and the degree-b split is the unique lift of (t-1)^b.
Only ``src_search``, which needs one degree split shared by every stalk,
still scans the monic candidates of a finite stalk, as raw tuples and only
at degrees above b; those scans are exhaustive.

Over Z_(p) the search reads the integer polynomial scale*h, scale the lcm
of the denominators.  The scale is prime to p, so a value is a unit exactly
when p does not divide its integer: h(0) and h(1) are units when p does not
divide the constant and the sum of the integers.  The degree splits 0, 1,
n-1 and n are decided completely: 0 and n by those unit tests, 1 and n-1 by
the rational roots of the integer polynomial (Z_(p) is integrally closed,
so monic linear factors come from rational roots; a candidate a/b is a root
when sum c_i a^i b^(n-i) = 0).  The candidates a | c_0 and b | c_n come from
trial division up to the square root, so a c_0 or c_n whose square root, or
a candidate pair count, exceeds ``errors.DEFAULT_BUDGET`` raises
``BudgetExceeded`` before the enumeration starts.  A middle degree d of a
degree >= 4 polynomial is ``absent`` outside the window b <= d <= n - a, for
a = ord_t(h mod p) and b = ord_(t-1)(h mod p): a unit f0(0) leaves t^a to
f1 mod p and a unit f1(1) leaves (t-1)^b to f0 mod p.  Inside the window it
falls back to a bounded-height scan of monic integer candidates f0, each
divided into scale*h over Z, and reports ``incomplete`` when that finds
nothing, which is distinct from a definitive ``absent``.

``src_search`` and ``sp_search`` read each stalk's outcomes degree by
degree until one degree has a split on every stalk, and glue those raw
parts into one block.  ``gsrc_search`` and ``gsp_search`` take each
stalk's lowest-degree hit on its own, and group the stalks into blocks by
that degree.  A stalk's hit, notes and completeness are a
pure function of the stalk ring, the raw stalk coefficients and the mode
("SRC", "SR" or "SP"), and that triple is the stalk's memo entry.  Over a
finite stalk it is memoized under the key (stalk ring key, raw coefficient
tuple, mode) in one module-level memo of at most ``STALK_MEMO_CAP``
entries, evicting the least recently used; entries with the same notes
share one notes tuple.
An entry holds raw parts, note strings and, once a certificate has been
built from the entry's hit, that hit's raw certificate polynomials; every
call, hit or miss, builds fresh polynomials and certificates from it.  A
result keeps each stalk's notes tuple, which is immutable, and renders its
own transcript dict from them the first time its transcript is read, so
no caller can change what a later call gets, and a caller that never reads
a transcript never renders one.  Z_(p) stalks are not memoized, a search
that raises leaves no entry, and ``src_search``/``sp_search`` do not use
the memo.  Callers still verify every certificate they receive.

``certificate_polys`` gives each stalk's raw certificate polynomials of a
global split, (e, w) of a gSRC and (x,) of a gSP, from the kernel
``polys.certificate_parts``.  A finite stalk whose split is exactly the
first hit of its memo entry stores them in the entry when it first builds
them and reads them from there afterwards, so the searches themselves cost
what they did.  The parts are a pure function of the split, and every
certificate built from them is verified, so storing them before that
verification risks nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, BudgetExceeded, VerificationFailed
from .polys import (
    Poly,
    certificate_parts,
    raw_bezout,
    raw_divide,
    raw_product,
    raw_sum,
    raw_translate,
    trimmed_poly,
)
from .rings import Element, Ring, block_ring

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


class _Notes(NamedTuple):
    """A transcript before it is rendered: each stalk's ``_notes`` tuple."""

    ring: Ring
    stalks: tuple
    mode: str

    def render(self) -> dict:
        R = self.ring
        stalks = [
            {"stalk": R.stalk_ring(i).label(), "degrees": dict(n)}
            for i, n in enumerate(self.stalks)
        ]
        return {"mode": self.mode, "stalks": stalks}


class SearchResult:
    """A search's status (found | absent | incomplete), certificate and transcript.

    The searches pass the transcript as ``_Notes``, whose notes tuples are
    immutable (a finite stalk's are its memo entry's); the transcript dict
    is rendered from them the first time it is read, once per result.  A
    dict passed in is kept as it is.
    """

    __slots__ = ("status", "certificate", "_transcript")

    def __init__(self, status: str, certificate, transcript):
        self.status = status
        self.certificate = certificate
        self._transcript = transcript

    @property
    def transcript(self) -> dict:
        if type(self._transcript) is _Notes:
            self._transcript = self._transcript.render()
        return self._transcript

    @property
    def found(self) -> bool:
        return self.status == FOUND


# -- rational roots over Z_(p) ------------------------------------------------------


def _divisors(n: int):
    """The positive divisors of n, ascending, by trial division up to isqrt(|n|)."""
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


def _integer_poly(coeffs) -> tuple[list[int], int]:
    """(ints, scale) with ints[i] = scale * coeffs[i], scale the lcm of the denominators.

    Over Z_(p) the scale is prime to p, so a coefficient, or a sum of
    coefficients, is a unit exactly when p does not divide its integer.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def _integer_roots(ints: list[int], p: int) -> list[Fraction]:
    """The rational roots of the integer polynomial sum ints[i] t^i, sorted.

    A constant or leading coefficient whose square root, or a count of
    candidate pairs, exceeds ``DEFAULT_BUDGET`` raises ``BudgetExceeded``
    before that enumeration starts.
    """
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
        for k in (const, lead):
            if math.isqrt(abs(k)) > DEFAULT_BUDGET:
                raise BudgetExceeded(
                    f"{math.isqrt(abs(k))} trial divisions of {k} exceed budget {DEFAULT_BUDGET}"
                )
        nums, dens = _divisors(const), _divisors(lead)
        if len(nums) * len(dens) > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"{len(nums) * len(dens)} rational-root candidates exceed budget {DEFAULT_BUDGET}"
            )
        for a in nums:
            for b in dens:
                if math.gcd(a, b) != 1:
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
        assert r.denominator % p != 0, "monic root escaped Z_(p)"
    return sorted(roots)


# -- per-stalk searches on raw values -----------------------------------------------
#
# Each outcome generator takes a stalk s and the raw coefficients h of a monic
# polynomial on it, and yields one (parts, complete, note) per degree split
# 0..deg h, in degree order: parts is the split's raw certificate parts,
# (f0, f1, u, v) for SR(C) (u = v = None for SR) and (h0, p0) for SP, or None.


class _Profile:
    """One stalk's outcomes for deg 0..n, computed in degree order on demand."""

    def __init__(self, outcomes):
        self.examined: list[tuple] = []
        self._rest = iter(outcomes)

    def at(self, d: int) -> tuple:
        while len(self.examined) <= d:
            self.examined.append(next(self._rest))
        return self.examined[d]


def _value_repr(s, v) -> str:
    """The repr of the Element with value v of the stalk's own ring."""
    return f"<{s.value_to_json(v)} in {s.label()}>"


def _first_unit_index(s, h) -> int:
    """Index of the first unit coefficient of a raw monic h."""
    return next(i for i, c in enumerate(h) if s.is_unit(c))


def _hensel_split(s, h, a: int):
    """Newton-lift h = q*p with p monic, p = t^a mod m, over a finite local stalk.

    ``a`` must be ord_t(h mod m), the index of the first unit coefficient of
    h; then t^a and (h mod m)/t^a are coprime, finite local rings are
    Henselian, and the lift exists and is unique.  Each round divides h by p
    (quotient q, remainder r) and adds r*u mod p to p, where u*q + v*p = 1;
    the remainder's ideal order doubles, so the lift is exact within
    ceil(log2(nil index)) + 1 rounds.  Returns raw (q, p, rounds).
    """
    limit = (s.nil_index() - 1).bit_length() + 1
    p = (s.zero,) * a + (s.one,)
    for rounds in range(1, limit + 1):
        q, r = raw_divide(s, h, p)
        if not r:
            return q, p, rounds
        bez = raw_bezout(s, q, p)
        if bez is None:
            break
        p = raw_sum(s, p, raw_divide(s, raw_product(s, r, bez[0]), p)[1])
    raise VerificationFailed(
        [f"Hensel lift of {h} over {s.label()} from t^{a} did not converge in {limit} rounds"]
    )


def _split_parts(s, f0, f1, mode: str):
    """The parts of a split with units f0(0) and f1(1), or None if SRC finds it not comaximal."""
    if mode == "SR":
        return f0, f1, None, None
    bez = raw_bezout(s, f0, f1)
    return None if bez is None else (f0, f1, *bez)


def _monic_candidates(s, d: int):
    """Raw monic degree-d (d >= 1) polynomials with unit constant term, canonical order."""
    elems = s.elements()
    for c0 in elems:
        if s.is_unit(c0):
            for mids in itertools.product(elems, repeat=d - 1):
                yield (c0, *mids, s.one)


def _first_split(s, h, candidates, mode: str):
    """The parts of the first candidate f0 that splits h, or None.

    Every candidate is monic with f0(0) a unit; it splits h when it divides
    h, f1 = h/f0 has f1(1) a unit and, for SRC, the pair is comaximal.
    """
    for f0 in candidates:
        f1, r = raw_divide(s, h, f0)
        if not r and s.is_unit(s.sum(f1)):
            parts = _split_parts(s, f0, f1, mode)
            if parts is not None:
                return parts
    return None


def _src_outcomes_finite(s, h, mode: str):
    """Degrees below b are impossible, b is lifted, degrees above b are scanned.

    With b = ord_(t-1)(h mod m), f1(1) a unit forces (t-1)^b to divide
    f0 mod m, so deg f0 >= b; at deg f0 = b the split is the unique Hensel
    lift of (t-1)^b * (h mod m)/(t-1)^b, which is comaximal, so SR and SRC
    get the same pair.  It is found as the SP lift of g(t) = h(t+1) at t^b,
    shifted back by t -> t-1.
    """
    g = raw_translate(s, h, s.one)
    b = _first_unit_index(s, g)
    note = f"(t-1)^{b} divides h mod m but not f1 mod m, so deg f0 >= {b}"
    for _ in range(b):
        yield None, True, note
    q, p, _ = _hensel_split(s, g, b)
    back = s.neg(s.one)
    parts = _split_parts(s, raw_translate(s, p, back), raw_translate(s, q, back), mode)
    if parts is None:
        raise VerificationFailed([f"Hensel split of {h} over {s.label()} is not comaximal"])
    yield parts, True, "found"
    for d in range(b + 1, len(h)):
        parts = _first_split(s, h, _monic_candidates(s, d), mode)
        note = "found" if parts else f"exhausted all monic degree-{d} candidates"
        yield parts, True, note


def _src_outcomes_zloc(s, h, mode: str):
    """Degrees 0, 1, n-1 and n decided, middle degrees windowed, then scanned to a height.

    Unit tests read the integer polynomial ``ints`` = scale * h: a value's
    numerator is prime to p exactly when its integer is.  A monic factor
    that passes the unit tests gets its Bezout pair from ``raw_bezout``.
    """
    n = len(h) - 1
    p = s.p
    ints, scale = _integer_poly(h)
    one = (s.one,)
    roots = window = None
    for d in range(n + 1):
        if d == 0:
            if sum(ints) % p:
                yield _split_parts(s, one, h, mode), True, "found"
            else:
                h1 = _value_repr(s, Fraction(sum(ints), scale))
                yield None, True, f"h(1) = {h1} is not a unit"
        elif d == n:
            if ints[0] % p:
                yield _split_parts(s, h, one, mode), True, "found"
            else:
                yield None, True, f"h(0) = {_value_repr(s, h[0])} is not a unit"
        elif d in (1, n - 1):
            if roots is None:
                roots = _integer_roots(ints, p)
            # f0 = t - r for d = 1, f0 = h/(t - r) for d = n - 1
            lins = [(-r, s.one) for r in roots]
            f0s = lins if d == 1 else [raw_divide(s, h, lin)[0] for lin in lins]
            parts = _first_split(s, h, [f0 for f0 in f0s if s.is_unit(f0[0])], mode)
            note = (
                "found"
                if parts
                else f"all rational roots {[str(r) for r in roots]} fail the unit tests"
            )
            yield parts, True, note
        else:
            # a unit f0(0) leaves t^a to f1 mod p, a unit f1(1) leaves (t-1)^b to f0 mod p
            if window is None:
                lo = _first_unit_index(s, raw_translate(s, h, s.one))
                window = lo, n - _first_unit_index(s, h)
            lo, hi = window
            if not lo <= d <= hi:
                yield None, True, f"f0(0) and f1(1) units force {lo} <= deg f0 <= {hi}"
                continue
            span = range(-BOUNDED_HEIGHT, BOUNDED_HEIGHT + 1)
            candidates = (
                tuple(map(Fraction, (c0, *mids, 1)))
                for c0 in span
                if c0 % p
                for mids in itertools.product(span, repeat=d - 1)
            )
            parts = _first_split(s, h, candidates, mode)
            note = (
                "found"
                if parts
                else f"bounded search (height {BOUNDED_HEIGHT}) exhausted; not decisive"
            )
            yield parts, parts is not None, note


def _sp_outcomes(s, h):
    """One deg(p0) can split h: ord_t(h mod m), lifted on a finite stalk, exact on Z_(p)."""
    n = len(h) - 1
    if s.finite:
        # p0 = t^d mod m and h0(0) a unit force d = ord_t(h mod m)
        a = _first_unit_index(s, h)
        q, p, _ = _hensel_split(s, h, a)
        for d in range(n + 1):
            if d == a:
                yield (q, p), True, "found"
            else:
                yield None, True, f"no nilpotent-tail divisor of degree {d}"
        return
    # Z_(p) is a domain: Nil = 0, so p0 must be exactly t^d and only the
    # t-adic valuation of h can work.
    val = 0
    while not h[val].numerator:  # h is monic, so h[n] = 1 stops the scan
        val += 1
    for d in range(n + 1):
        if d == val:
            if s.is_unit(h[d]):
                yield (h[d:], (s.zero,) * d + (s.one,)), True, "found"
            else:
                yield None, True, f"h0(0) = {_value_repr(s, h[d])} is not a unit"
        elif d < val:
            yield None, True, f"h0(0) would be 0 (valuation of h is {val})"
        else:
            yield None, True, f"p0 = t^{d} does not divide h"


def _outcomes(s, h, mode: str):
    """Stalk s's outcome generator of raw h in ``mode``."""
    if mode == "SP":
        return _sp_outcomes(s, h)
    return (_src_outcomes_finite if s.finite else _src_outcomes_zloc)(s, h, mode)


def _profile(s, h, mode: str) -> _Profile:
    """Stalk s's profile of raw h; one SP lift decides every degree, so all are filled."""
    profile = _Profile(_outcomes(s, h, mode))
    if mode == "SP":
        profile.at(len(h) - 1)
    return profile


def _notes(examined) -> tuple:
    """(degree, note) of every examined outcome, in degree order."""
    return tuple(
        (str(d), note if complete else note + " [incomplete]")
        for d, (_, complete, note) in enumerate(examined)
    )


def _stalk_search(s, h, mode: str) -> list:
    """The memo entry of raw h on stalk s: [hit, notes, complete, None].

    hit is (degree, parts) of the lowest degree split, or None; the last
    slot is for the hit's certificate polynomials.  The SR(C) search stops
    at its hit; one SP lift decides every degree, so SP examines them all.
    """
    examined, hit = [], None
    for d, out in enumerate(_outcomes(s, h, mode)):
        examined.append(out)
        if out[0] is not None and hit is None:
            hit = d, out[0]
            if mode != "SP":
                break
    return [hit, _notes(examined), all(out[1] for out in examined), None]


# -- public searches -----------------------------------------------------------------


def _require_monic(h: Poly):
    if not h.is_monic:
        raise ValueError(f"{h!r} is not monic")


def _profile_transcript(R: Ring, profiles, mode: str) -> _Notes:
    """The outcome of every degree each stalk's search examined."""
    return _Notes(R, tuple([_notes(prof.examined) for prof in profiles]), mode)


def _common_degree_result(h: Poly, R: Ring, profiles, mode: str, glue) -> SearchResult:
    """The lowest degree split that every stalk shares, glued by CRT."""
    undecided = False
    for d in range(h.degree + 1):
        outs = [prof.at(d) for prof in profiles]
        if all(parts is not None for parts, _, _ in outs):
            cert = glue(R, tuple(range(R.num_stalks)), [parts for parts, _, _ in outs])
            return SearchResult(FOUND, cert, _profile_transcript(R, profiles, mode))
        if any(parts is None and complete for parts, complete, _ in outs):
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
    if mode not in ("SR", "SRC"):
        raise ValueError(f"src_search mode must be 'SR' or 'SRC', not {mode!r}")
    profiles = [_profile(s, a, mode) for s, a in zip(R.stalks, h.parts)]
    return _common_degree_result(h, R, profiles, mode, _glue_src_block)


def sp_search(h: Poly, R: Ring) -> SearchResult:
    """Single-block SP factorization over R: one common deg(p0) on every stalk."""
    _require_monic(h)
    profiles = [_profile(s, a, "SP") for s, a in zip(R.stalks, h.parts)]
    return _common_degree_result(h, R, profiles, "SP", _glue_sp_block)


def _glue_src_block(R: Ring, support: tuple[int, ...], raws) -> SRCCertificate:
    """One SR(C) block's certificate from its stalks' raw parts, already trimmed."""
    B = block_ring(R, support)
    f0s, f1s, us, vs = zip(*raws)
    f0, f1 = trimmed_poly(B, f0s), trimmed_poly(B, f1s)
    if None in us:
        return SRCCertificate(f0, f1, None, None, "SR")
    return SRCCertificate(f0, f1, trimmed_poly(B, us), trimmed_poly(B, vs), "SRC")


def _glue_sp_block(R: Ring, support: tuple[int, ...], raws) -> SPCertificate:
    """One SP block's certificate from its stalks' raw parts, already trimmed."""
    B = block_ring(R, support)
    h0s, p0s = zip(*raws)
    return SPCertificate(trimmed_poly(B, h0s), trimmed_poly(B, p0s))


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
# certificate is built from hit; insertion order is recency
_STALK_MEMO: dict = {}
# each distinct notes tuple of a memo entry -> itself; finite stalks have few
_MEMO_NOTES: dict = {}


def _stalk_first_hit(h: Poly, R: Ring, i: int, mode: str) -> list:
    """``_stalk_search`` of stalk i, looked up in the memo first when the stalk is finite.

    A new entry's notes tuple is stored once in ``_MEMO_NOTES`` and shared
    by every entry with the same notes.
    """
    s, a = R.stalks[i], h.parts[i]
    if not s.finite:
        return _stalk_search(s, a, mode)
    key = (R.stalk_ring(i).key, a, mode)
    entry = _STALK_MEMO.pop(key, None)
    if entry is None:
        entry = _stalk_search(s, a, mode)
        entry[1] = _MEMO_NOTES.setdefault(entry[1], entry[1])
        while len(_STALK_MEMO) >= STALK_MEMO_CAP:
            del _STALK_MEMO[next(iter(_STALK_MEMO))]
    _STALK_MEMO[key] = entry
    return entry


def _global_result(h: Poly, R: Ring, mode: str, glue, wrap) -> SearchResult:
    """Each stalk's lowest-degree certificate, grouped into blocks by degree."""
    hits, notes, missing = [], [], []
    for i in range(R.num_stalks):
        hit, stalk_notes, complete, _ = _stalk_first_hit(h, R, i, mode)
        hits.append(hit)
        notes.append(stalk_notes)
        if hit is None:
            missing.append(complete)
    transcript = _Notes(R, tuple(notes), mode)
    if missing:
        status = ABSENT if any(missing) else INCOMPLETE
        return SearchResult(status, None, transcript)
    blocks = _assemble_global(R, hits, glue)
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


def _stalk_polys(R: Ring, i: int, split: tuple, mode: str) -> tuple:
    """``certificate_parts`` of stalk i's split; an SP split's u comes from ``raw_bezout``."""
    s = R.stalks[i]
    if mode != "SP":
        f0, f1, u, _ = split
        return certificate_parts(s, f0, f1, u)
    h0, p0 = split
    bez = raw_bezout(s, h0, p0)
    if bez is None:
        raise VerificationFailed(["SP factors are not comaximal on a local stalk"])
    return certificate_parts(s, h0, p0, bez[0], drazin=True)


def certificate_polys(R: Ring, gcert) -> list:
    """Each stalk's raw certificate polynomials of a gSRC or gSP certificate.

    Stalk i gets ``polys.certificate_parts`` of its split: (e, w) for a
    gSRC, (x,) for a gSP.  A finite stalk whose split is exactly the first
    hit of its memo entry reads them from the entry, and stores them there
    when it builds them.
    """
    mode = "SP" if isinstance(gcert, GSPCertificate) else "SRC"
    parts = []
    for i, split in enumerate(_stalk_splits(R, gcert)):
        s = R.stalks[i]
        entry = None
        if s.finite:
            # the memo key's h = f0*f1 (h0*p0), multiplied on this stalk only
            h = raw_product(s, split[0], split[1])
            entry = _STALK_MEMO.get((R.stalk_ring(i).key, h, mode))
            if entry is not None and (entry[0] is None or entry[0][1] != split):
                entry = None
        if entry is None:
            parts.append(_stalk_polys(R, i, split, mode))
            continue
        if entry[3] is None:
            entry[3] = _stalk_polys(R, i, split, mode)
        parts.append(entry[3])
    return parts
