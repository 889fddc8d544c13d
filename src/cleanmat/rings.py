"""Commutative rings with an explicit decomposition into local stalks.

A ``Ring`` is built from a JSON-style descriptor::

    {"type": "zmod", "n": 12}
    {"type": "zloc", "p": 2}
    {"type": "product", "factors": [...]}
    {"type": "table", "add": [[...]], "mul": [[...]]}

Construction computes the full stalk decomposition once: Z/n splits into
Z/p^k factors by the Chinese remainder theorem, products concatenate their
factors' stalks, and table rings are decomposed along their primitive
idempotents (each block of a finite commutative ring is local; the build
checks it), each block keeping its own tables.  Every element is stored as
its tuple of stalk values, and a stalk value is the same in the ring, in its
block rings and in ``stalk_ring(i)``, which makes gluing a constructor and
restriction a projection.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    InfiniteRing,
    MalformedDescriptor,
    NonRing,
    NotPrime,
    RingMismatch,
    UnsupportedSize,
)
from .stalks import (
    MAX_TABLE_SIZE,
    TableStalk,
    factorize,
    is_prime,
    zloc_stalk,
    zmod_stalk,
)

MAX_IDEMPOTENT_STALKS = 20


class Element:
    """A ring element, stored as one raw value per stalk."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: "Ring", parts: tuple):
        self.ring = ring
        self.parts = parts

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Element):
            if other.ring is self.ring or other.ring.key == self.ring.key:
                return other
            raise RingMismatch(
                f"elements of {self.ring.label()} and {other.ring.label()} cannot mix"
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        parts = tuple(
            s.add(a, b) for s, a, b in zip(self.ring.stalks, self.parts, other.parts)
        )
        return Element(self.ring, parts)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        parts = tuple(
            s.sub(a, b) for s, a, b in zip(self.ring.stalks, self.parts, other.parts)
        )
        return Element(self.ring, parts)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        parts = tuple(
            s.mul(a, b) for s, a, b in zip(self.ring.stalks, self.parts, other.parts)
        )
        return Element(self.ring, parts)

    __rmul__ = __mul__

    def __neg__(self):
        parts = tuple(s.neg(a) for s, a in zip(self.ring.stalks, self.parts))
        return Element(self.ring, parts)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring.key == other.ring.key and self.parts == other.parts

    def __hash__(self):
        return hash((self.ring.key, self.parts))

    def __repr__(self):
        return f"<{self.ring.render_value(self)} in {self.ring.label()}>"


@dataclass(frozen=True)
class RingClassification:
    is_local: bool
    is_clean: bool
    is_j_clean: bool


@dataclass(frozen=True)
class RadicalMembership:
    in_jacobson: bool
    in_nil: bool


class Ring:
    """A commutative ring presented as a finite product of local stalks."""

    # a table ring's stalk values for each index of its input tables
    table_values: tuple | None = None

    def __init__(self, descriptor: dict, stalks, factors=None):
        self.descriptor = descriptor
        self.stalks = tuple(stalks)
        self.factors = factors
        self.key = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
        self._stalk_rings: dict[int, Ring] = {}
        # the full support in stalk order is the idempotent 1, whose subring is R
        self._block_rings: dict[tuple[int, ...], Ring] = {tuple(range(len(self.stalks))): self}
        self._indicators: dict[tuple, tuple] = {}
        self.zero = Element(self, tuple(s.zero for s in self.stalks))
        self.one = Element(self, tuple(s.one for s in self.stalks))

    # -- construction helpers -------------------------------------------------

    def label(self) -> str:
        t = self.descriptor["type"]
        if t == "zmod":
            return f"Z/{self.descriptor['n']}"
        if t == "zloc":
            return f"Z_({self.descriptor['p']})"
        if t == "product":
            return " x ".join(f.label() for f in self.factors)
        return f"table[{self.descriptor_size()}]"

    def descriptor_size(self):
        if self.descriptor["type"] == "table":
            return len(self.descriptor["add"])
        return None

    # -- basic queries ---------------------------------------------------------

    @property
    def num_stalks(self) -> int:
        return len(self.stalks)

    @property
    def is_finite(self) -> bool:
        return all(s.finite for s in self.stalks)

    @property
    def size(self):
        if not self.is_finite:
            return None
        n = 1
        for s in self.stalks:
            n *= s.size
        return n

    def from_parts(self, parts) -> Element:
        return Element(self, tuple(parts))

    def from_int(self, v: int) -> Element:
        return Element(self, tuple(s.from_int(v) for s in self.stalks))

    def elements(self):
        """All elements in canonical order (first stalk most significant)."""
        if not self.is_finite:
            raise InfiniteRing(f"{self.label()} is infinite")
        for parts in itertools.product(*(s.elements() for s in self.stalks)):
            yield Element(self, parts)

    def random_element(self, rng) -> Element:
        return Element(self, tuple(s.random(rng) for s in self.stalks))

    def is_unit(self, a: Element) -> bool:
        return all(s.is_unit(v) for s, v in zip(self.stalks, a.parts))

    def inv(self, a: Element):
        parts = []
        for s, v in zip(self.stalks, a.parts):
            iv = s.inv(v)
            if iv is None:
                return None
            parts.append(iv)
        return Element(self, tuple(parts))

    # -- Pierce decomposition ----------------------------------------------------

    def stalk_ring(self, i: int) -> "Ring":
        if i not in self._stalk_rings:
            self._stalk_rings[i] = build_ring(self.stalks[i].ring_descriptor())
        return self._stalk_rings[i]

    def indicator_parts(self, support) -> tuple:
        """The stalk values of ``indicator(support)``, cached per support tuple."""
        support = tuple(support)
        parts = self._indicators.get(support)
        if parts is None:
            parts = self._indicators[support] = tuple(
                s.one if i in support else s.zero for i, s in enumerate(self.stalks)
            )
        return parts

    def indicator(self, support) -> Element:
        """The idempotent that is 1 on the stalks in ``support`` and 0 elsewhere.

        Each call returns a new Element on the support's cached parts tuple,
        which is immutable, so what a caller does to the Element stays there.
        """
        return Element(self, self.indicator_parts(support))

    def primitive_idempotents(self) -> list[Element]:
        """One indicator idempotent per stalk, in stalk order."""
        return [self.indicator((i,)) for i in range(self.num_stalks)]

    def idempotents(self) -> list[Element]:
        """All idempotents: 0/1 stalk vectors, sorted canonically.

        Stalks are local, so they carry no idempotents besides 0 and 1; the
        idempotents of the product are exactly the indicator vectors.
        """
        if self.num_stalks > MAX_IDEMPOTENT_STALKS:
            raise UnsupportedSize(
                f"2^{self.num_stalks} idempotents is beyond enumeration"
            )
        parts = sorted(
            tuple(s.one if b else s.zero for s, b in zip(self.stalks, bits))
            for bits in itertools.product((0, 1), repeat=self.num_stalks)
        )
        return [Element(self, p) for p in parts]

    # -- radical / classification --------------------------------------------------

    def radical_membership(self, a: Element) -> RadicalMembership:
        in_j = all(s.in_max_ideal(v) for s, v in zip(self.stalks, a.parts))
        in_n = all(s.is_nilpotent(v) for s, v in zip(self.stalks, a.parts))
        return RadicalMembership(in_j, in_n)

    def max_nil_index(self) -> int:
        return max(s.nil_index() for s in self.stalks)

    def classify(self) -> RingClassification:
        # Every ring here is a product of local stalks (a table ring's blocks
        # are checked local at build), so it is clean, and J-clean because the
        # radical of a finite product is the product of the stalk maximal
        # ideals (the witness idempotent for r is the indicator of the stalks
        # where r is a unit).
        is_local = self.num_stalks == 1
        all_local = all(s.check_local() for s in self.stalks)
        return RingClassification(is_local, all_local, all_local)

    def to_int(self, a: Element) -> int:
        """CRT representative in [0, n) for a zmod ring."""
        if self.descriptor["type"] != "zmod":
            raise ValueError("to_int only applies to zmod rings")
        x, mod = 0, 1
        for s, v in zip(self.stalks, a.parts):
            q = s.q
            # solve y = x (mod mod), y = v (mod q)
            t = ((v - x) * pow(mod, -1, q)) % q
            x, mod = x + mod * t, mod * q
        return x % mod

    def render_value(self, a: Element):
        """Human-oriented compact rendering (ints for zmod, tuples otherwise)."""
        if self.descriptor["type"] == "zmod":
            return self.to_int(a)
        if self.num_stalks == 1:
            return self.stalks[0].value_to_json(a.parts[0])
        return tuple(
            s.value_to_json(v) for s, v in zip(self.stalks, a.parts)
        )


# -- descriptor validation and construction -------------------------------------


def _table_rows(name: str, T: list, m: int) -> tuple:
    """The m x m table ``T`` as a tuple of row tuples of indices in [0, m)."""
    if any(not isinstance(row, (list, tuple)) or len(row) != m for row in T):
        raise MalformedDescriptor(f"{name} table is not {m}x{m}")
    rows = tuple(tuple(row) for row in T)
    if any(type(x) is not int for row in rows for x in row):
        raise MalformedDescriptor(f"{name} table has non-integer entries")
    if any(not 0 <= x < m for row in rows for x in row):
        raise MalformedDescriptor(f"{name} table has out-of-range entries")
    return rows


def _first_mismatch(lhs: tuple, rhs: tuple) -> int:
    return next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _check_ring_axioms(A: tuple, M: tuple) -> tuple[int, int]:
    """Check that tables of row tuples form a commutative unital ring; (zero, one).

    Each equational axiom is compared one row at a time: for fixed (i, j) the
    two sides over every k are tuples, so the first failing witness is the
    first (i, j[, k]) in row-major order.  ``take[j](x)`` is the tuple
    ``x[T[j][k]]`` over k.
    """
    m = len(A)
    for axiom, T in (("addition commutativity", A), ("multiplication commutativity", M)):
        for i, (row, col) in enumerate(zip(T, zip(*T))):
            if row != col:
                raise NonRing(axiom, (i, _first_mismatch(row, col)))
    take_a = [itemgetter(*row) for row in A]
    take_m = [itemgetter(*row) for row in M]
    sides = (
        # (a+b)+c vs a+(b+c)
        ("addition associativity", lambda i, j: (A[A[i][j]], take_a[j](A[i]))),
        ("multiplication associativity", lambda i, j: (M[M[i][j]], take_m[j](M[i]))),
        # a*(b+c) vs a*b + a*c
        ("distributivity", lambda i, j: (take_a[j](M[i]), take_m[i](A[M[i][j]]))),
    )
    for axiom, both in sides:
        for i in range(m):
            for j in range(m):
                lhs, rhs = both(i, j)
                if lhs != rhs:
                    raise NonRing(axiom, (i, j, _first_mismatch(lhs, rhs)))

    identity = tuple(range(m))
    zero = next((z for z in range(m) if A[z] == identity), None)
    if zero is None:
        raise NonRing("additive identity")
    i = next((i for i in range(m) if zero not in A[i]), None)
    if i is not None:
        raise NonRing("additive inverse", (i,))
    one = next((u for u in range(m) if M[u] == identity), None)
    if one is None:
        raise NonRing("multiplicative identity")
    # no 1 != 0 check: 1 = 0 would give a = 1*a = 0*a = 0 by the axioms above, but m >= 2
    return zero, one


def _build_table_ring(descriptor: dict) -> Ring:
    add = descriptor.get("add")
    mul = descriptor.get("mul")
    if not isinstance(add, list) or not isinstance(mul, list):
        raise MalformedDescriptor("missing add/mul tables")
    m = len(add)
    if m < 2 or m != len(mul):
        raise MalformedDescriptor("tables must be square of matching size >= 2")
    if m > MAX_TABLE_SIZE:
        raise UnsupportedSize(f"table size {m} exceeds {MAX_TABLE_SIZE}")
    add_t = _table_rows("add", add, m)
    mul_t = _table_rows("mul", mul, m)
    zero, one = _check_ring_axioms(add_t, mul_t)

    idems = [i for i in range(m) if mul_t[i][i] == i and i != zero]
    # minimal nonzero idempotents under e <= f iff e*f = e
    primitive = []
    for e in idems:
        if any(f != e and mul_t[e][f] == f for f in idems):
            continue
        primitive.append(e)
    total = zero
    for e in primitive:
        for f in primitive:
            if e != f and mul_t[e][f] != zero:
                raise AssertionError("primitive idempotents not orthogonal")
        total = add_t[total][e]
    if total != one:
        raise AssertionError("primitive idempotents do not sum to 1")

    # block e*R lists its members by ascending index; a value is its rank there
    stalks = []
    ranks = []
    for e in sorted(primitive):
        members = sorted({mul_t[e][r] for r in range(m)})
        rank = {x: i for i, x in enumerate(members)}
        stalk = TableStalk(
            tuple(tuple(rank[add_t[a][b]] for b in members) for a in members),
            tuple(tuple(rank[mul_t[a][b]] for b in members) for a in members),
            rank[e],
            rank[zero],
        )
        if not stalk.check_local():
            raise AssertionError("table block is not local")
        stalks.append(stalk)
        ranks.append([rank[mul_t[e][r]] for r in range(m)])
    canonical = {"type": "table", "add": [list(r) for r in add_t], "mul": [list(r) for r in mul_t]}
    ring = Ring(canonical, stalks)
    ring.table_values = tuple(zip(*ranks))
    return ring


def build_ring(descriptor: dict) -> Ring:
    """Build a Ring from a descriptor, computing its Pierce decomposition."""
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise MalformedDescriptor(f"malformed ring descriptor: {descriptor!r}")
    t = descriptor["type"]
    if t == "zmod":
        n = descriptor.get("n")
        if not isinstance(n, int) or n < 2:
            raise UnsupportedSize(f"zmod requires an integer n >= 2, got {n!r}")
        stalks = [zmod_stalk(p, k) for p, k in factorize(n)]
        return Ring({"type": "zmod", "n": n}, stalks)
    if t == "zloc":
        p = descriptor.get("p")
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"zloc requires a prime, got {p!r}")
        return Ring({"type": "zloc", "p": p}, [zloc_stalk(p)])
    if t == "product":
        factors = descriptor.get("factors")
        if not isinstance(factors, list) or not factors:
            raise MalformedDescriptor("product requires a non-empty factor list")
        rings = [build_ring(f) for f in factors]
        stalks = [s for r in rings for s in r.stalks]
        canonical = {"type": "product", "factors": [r.descriptor for r in rings]}
        return Ring(canonical, stalks, factors=tuple(rings))
    if t == "table":
        return _build_table_ring(descriptor)
    raise MalformedDescriptor(f"unknown ring type {t!r}")


# -- block subrings and gluing ---------------------------------------------------


def block_ring(R: Ring, indices: tuple[int, ...]) -> Ring:
    """The subring e*R for the idempotent e supported on the given stalks.

    Its stalks are R's stalks at ``indices``, in that order.  ``indices`` may
    be any iterable; it is read as a tuple, the key of the ring's cache of
    block rings, which starts with the full support in order (the idempotent
    1) mapped to R itself.  A repeated call returns the same ring.
    """
    indices = tuple(indices)
    ring = R._block_rings.get(indices)
    if ring is not None:
        return ring
    if not indices:
        raise ValueError("a block needs at least one stalk")
    if len(indices) == 1:
        ring = R.stalk_ring(indices[0])
    else:
        ring = build_ring(
            {
                "type": "product",
                "factors": [R.stalks[i].ring_descriptor() for i in indices],
            }
        )
    R._block_rings[indices] = ring
    return ring
