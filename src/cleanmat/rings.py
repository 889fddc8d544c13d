"""Commutative rings with an explicit decomposition into local stalks.

A ``Ring`` is built from a JSON-style descriptor::

    {"type": "zmod", "n": 12}
    {"type": "zloc", "p": 2}
    {"type": "product", "factors": [...]}
    {"type": "table", "add": [[...]], "mul": [[...]]}

Construction computes the full stalk decomposition once: Z/n splits into
Z/p^k factors by the Chinese remainder theorem, products concatenate their
factors' stalks, and table rings are decomposed along their primitive
idempotents (each block of a finite commutative ring is local).  Every
element is stored as its tuple of stalk restrictions, which makes gluing a
constructor and restriction a projection.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (
    IncompleteCover,
    InfiniteRing,
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

    def sort_key(self):
        return tuple(s.key(a) for s, a in zip(self.ring.stalks, self.parts))


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

    def __init__(self, descriptor: dict, stalks, factors=None):
        self.descriptor = descriptor
        self.stalks = tuple(stalks)
        self.factors = factors
        self.key = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
        self._stalk_rings: dict[int, Ring] = {}
        self._block_rings: dict[tuple[int, ...], Ring] = {}
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

    def is_idempotent(self, a: Element) -> bool:
        return a * a == a

    # -- Pierce decomposition ----------------------------------------------------

    def restrictions(self, a: Element) -> tuple:
        return a.parts

    def stalk_ring(self, i: int) -> "Ring":
        if i not in self._stalk_rings:
            self._stalk_rings[i] = build_ring(self.stalks[i].ring_descriptor())
        return self._stalk_rings[i]

    def restrict_element(self, a: Element, i: int) -> Element:
        sr = self.stalk_ring(i)
        return Element(sr, (self.stalks[i].to_standalone(a.parts[i]),))

    def primitive_idempotents(self) -> list[Element]:
        """One indicator idempotent per stalk, in stalk order."""
        out = []
        for i in range(self.num_stalks):
            parts = tuple(
                s.one if j == i else s.zero for j, s in enumerate(self.stalks)
            )
            out.append(Element(self, parts))
        return out

    def idempotents(self) -> list[Element]:
        """All idempotents: 0/1 stalk vectors, sorted canonically.

        Stalks are local, so they carry no idempotents besides 0 and 1; the
        idempotents of the product are exactly the indicator vectors.
        """
        if self.num_stalks > MAX_IDEMPOTENT_STALKS:
            raise UnsupportedSize(
                f"2^{self.num_stalks} idempotents is beyond enumeration"
            )
        out = []
        for bits in itertools.product((0, 1), repeat=self.num_stalks):
            parts = tuple(
                s.one if b else s.zero for s, b in zip(self.stalks, bits)
            )
            out.append(Element(self, parts))
        out.sort(key=Element.sort_key)
        return out

    def idempotent_support(self, e: Element) -> tuple[int, ...]:
        support = []
        for i, (s, v) in enumerate(zip(self.stalks, e.parts)):
            if v == s.one:
                support.append(i)
            elif v != s.zero:
                raise ValueError(f"{e!r} is not an idempotent of {self.label()}")
        return tuple(support)

    # -- radical / classification --------------------------------------------------

    def nilpotents(self) -> list[Element]:
        """All nilpotent elements (finite even over Z_(p), whose only nilpotent is 0)."""
        out = [
            Element(self, parts)
            for parts in itertools.product(*(s.nilpotents() for s in self.stalks))
        ]
        out.sort(key=Element.sort_key)
        return out

    def radical_membership(self, a: Element) -> RadicalMembership:
        if self.descriptor["type"] == "table":
            return self._radical_membership_table(a)
        in_j = all(s.in_max_ideal(v) for s, v in zip(self.stalks, a.parts))
        in_n = all(s.is_nilpotent(v) for s, v in zip(self.stalks, a.parts))
        return RadicalMembership(in_j, in_n)

    def _radical_membership_table(self, a: Element):
        # The table backend assumes no stalk structure: Jacobson membership is
        # the definition (1 + a*s invertible for every s), nilpotence is powering.
        in_j = all(self.is_unit(self.one + a * s) for s in self.elements())
        acc = a
        in_n = False
        for _ in range(self.size):
            if acc == self.zero:
                in_n = True
                break
            acc = acc * a
        in_n = in_n or acc == self.zero
        return RadicalMembership(in_j, in_n)

    def max_nil_index(self) -> int:
        return max(s.nil_index() for s in self.stalks)

    def classify(self) -> RingClassification:
        is_local = self.num_stalks == 1
        if self.descriptor["type"] == "table":
            return RingClassification(
                is_local, self._table_is_clean(), self._table_is_j_clean()
            )
        # Product-of-local backends: clean because all stalks are local, and
        # J-clean because the radical of a finite product is the product of the
        # stalk maximal ideals (the witness idempotent for r is the indicator
        # of the stalks where r is a unit).
        all_local = all(s.check_local() for s in self.stalks)
        return RingClassification(is_local, all_local, all_local)

    def _table_is_clean(self) -> bool:
        idems = self.idempotents()
        return all(
            any(self.is_unit(r - e) for e in idems) for r in self.elements()
        )

    def _table_is_j_clean(self) -> bool:
        idems = self.idempotents()
        for r in self.elements():
            ok = False
            for e in idems:
                u = r * e + (self.one - e)
                if not self.is_unit(u):
                    continue
                if self.radical_membership(r * (self.one - e)).in_jacobson:
                    ok = True
                    break
            if not ok:
                return False
        return True

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


def _build_table_ring(descriptor: dict) -> Ring:
    import numpy as np

    add = descriptor.get("add")
    mul = descriptor.get("mul")
    if not isinstance(add, list) or not isinstance(mul, list):
        raise NonRing("missing add/mul tables")
    m = len(add)
    if m < 2 or m != len(mul):
        raise NonRing("tables must be square of matching size >= 2")
    if m > MAX_TABLE_SIZE:
        raise UnsupportedSize(f"table size {m} exceeds {MAX_TABLE_SIZE}")
    A = np.asarray(add, dtype=np.int64)
    M = np.asarray(mul, dtype=np.int64)
    for name, T in (("add", A), ("mul", M)):
        if T.shape != (m, m):
            raise NonRing(f"{name} table is not {m}x{m}")
        if T.min() < 0 or T.max() >= m:
            raise NonRing(f"{name} table has out-of-range entries")

    idx = np.arange(m)
    if not np.array_equal(A, A.T):
        i, j = map(int, np.argwhere(A != A.T)[0])
        raise NonRing("addition commutativity", (i, j))
    if not np.array_equal(M, M.T):
        i, j = map(int, np.argwhere(M != M.T)[0])
        raise NonRing("multiplication commutativity", (i, j))
    # (a+b)+c vs a+(b+c): A[A[i,j],k] vs A[i,A[j,k]]
    lhs = A[A, :]
    rhs = A[:, A]
    if not np.array_equal(lhs, rhs):
        i, j, k = map(int, np.argwhere(lhs != rhs)[0])
        raise NonRing("addition associativity", (i, j, k))
    lhs = M[M, :]
    rhs = M[:, M]
    if not np.array_equal(lhs, rhs):
        i, j, k = map(int, np.argwhere(lhs != rhs)[0])
        raise NonRing("multiplication associativity", (i, j, k))
    # a*(b+c) vs a*b + a*c
    lhs = M[:, A]
    rhs = A[M[:, :, None], M[:, None, :]]
    if not np.array_equal(lhs, rhs):
        i, j, k = map(int, np.argwhere(lhs != rhs)[0])
        raise NonRing("distributivity", (i, j, k))

    zero_rows = np.nonzero((A == idx[None, :]).all(axis=1))[0]
    if zero_rows.size == 0:
        raise NonRing("additive identity")
    zero = int(zero_rows[0])
    if not (A == zero).any(axis=1).all():
        i = int(np.nonzero(~(A == zero).any(axis=1))[0][0])
        raise NonRing("additive inverse", (i,))
    one_rows = np.nonzero((M == idx[None, :]).all(axis=1))[0]
    if one_rows.size == 0:
        raise NonRing("multiplicative identity")
    one = int(one_rows[0])
    if one == zero:
        raise NonRing("one equals zero")

    add_t = tuple(tuple(int(x) for x in row) for row in A)
    mul_t = tuple(tuple(int(x) for x in row) for row in M)

    idems = [int(i) for i in idx if mul_t[i][i] == i and i != zero]
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

    stalks = []
    for e in sorted(primitive):
        members = sorted({mul_t[e][r] for r in range(m)})
        stalk = TableStalk(add_t, mul_t, members, e, zero)
        if not stalk.check_local():
            raise AssertionError("table block is not local")
        stalks.append(stalk)
    canonical = {"type": "table", "add": [list(r) for r in add_t], "mul": [list(r) for r in mul_t]}
    return Ring(canonical, stalks)


def build_ring(descriptor: dict) -> Ring:
    """Build a Ring from a descriptor, computing its Pierce decomposition."""
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise NonRing(f"malformed ring descriptor: {descriptor!r}")
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
            raise NonRing("product requires a non-empty factor list")
        rings = [build_ring(f) for f in factors]
        stalks = [s for r in rings for s in r.stalks]
        canonical = {"type": "product", "factors": [r.descriptor for r in rings]}
        return Ring(canonical, stalks, factors=tuple(rings))
    if t == "table":
        return _build_table_ring(descriptor)
    raise NonRing(f"unknown ring type {t!r}")


# -- block subrings and gluing ---------------------------------------------------


def block_ring(R: Ring, indices: tuple[int, ...]) -> Ring:
    """The subring e*R for the idempotent e supported on the given stalks."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("a block needs at least one stalk")
    if indices in R._block_rings:
        return R._block_rings[indices]
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


def restrict_to_block(R: Ring, a: Element, indices: tuple[int, ...]) -> Element:
    B = block_ring(R, tuple(indices))
    parts = tuple(R.stalks[i].to_standalone(a.parts[i]) for i in indices)
    return Element(B, parts)


def embed_from_block(R: Ring, b: Element, indices: tuple[int, ...]) -> Element:
    indices = tuple(indices)
    parts = list(R.zero.parts)
    for pos, i in enumerate(indices):
        parts[i] = R.stalks[i].from_standalone(b.parts[pos])
    return Element(R, tuple(parts))


def is_complete_orthogonal(R: Ring, idems: list[Element]) -> bool:
    for i, e in enumerate(idems):
        if not R.is_idempotent(e):
            return False
        for f in idems[i + 1 :]:
            if e * f != R.zero:
                return False
    total = R.zero
    for e in idems:
        total = total + e
    return total == R.one


def pierce_glue(R: Ring, blocks) -> Element:
    """Glue per-block values along a complete orthogonal set of idempotents.

    Each block is a pair ``(e, v)`` where ``e`` is an idempotent of ``R`` and
    ``v`` is either an element of ``R`` or an element of the block subring
    ``e*R``.  The result is the unique element restricting to ``v`` on the
    stalks covered by each ``e``.
    """
    idems = [e for e, _ in blocks]
    if not is_complete_orthogonal(R, idems):
        raise IncompleteCover("idempotents are not a complete orthogonal set")
    acc = R.zero
    for e, v in blocks:
        if not isinstance(v, Element):
            raise RingMismatch(f"block value {v!r} is not a ring element")
        if v.ring.key == R.key:
            acc = acc + e * v
            continue
        support = R.idempotent_support(e)
        B = block_ring(R, support)
        if v.ring.key != B.key:
            raise RingMismatch(
                f"block value lives in {v.ring.label()}, expected {B.label()} or {R.label()}"
            )
        acc = acc + embed_from_block(R, v, support)
    return acc
