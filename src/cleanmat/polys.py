"""Polynomial arithmetic over a Ring.

Coefficients are stored low degree first.  ``Poly`` covers general
polynomials (Bezout cofactors need not be monic); monic polynomials are
ordinary ``Poly`` values whose leading coefficient is 1, validated by
``monic``.  Division by a monic divisor is exact over any commutative ring.
"""

from __future__ import annotations

from .errors import NonMonicDivisor, RingMismatch
from .rings import Element, Ring, block_ring, restrict_to_block


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, ring: Ring, ints) -> "Poly":
        return cls(ring, [ring.from_int(v) for v in ints])

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, [])

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls(ring, [ring.one])

    @classmethod
    def constant(cls, c: Element) -> "Poly":
        return cls(c.ring, [c])

    @classmethod
    def t_power(cls, ring: Ring, d: int) -> "Poly":
        return cls(ring, [ring.zero] * d + [ring.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coeff(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def _check(self, other: "Poly"):
        if self.ring.key != other.ring.key:
            raise RingMismatch("polynomials over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.ring)
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def translate(self, c: Element) -> "Poly":
        """The polynomial p(t + c) (Taylor shift by repeated synthetic division)."""
        coeffs = list(self.coeffs)
        n = len(coeffs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                coeffs[j] = coeffs[j] + c * coeffs[j + 1]
        return Poly(self.ring, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.key == other.ring.key and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.key, self.coeffs))

    def __call__(self, x: Element) -> Element:
        """Horner evaluation."""
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero:
            return "<poly 0>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            v = self.ring.render_value(c)
            terms.append(f"{v}" if i == 0 else f"{v}*t^{i}")
        return "<poly " + " + ".join(terms) + ">"

    def restrict(self, i: int) -> "Poly":
        R = self.ring
        return Poly(R.stalk_ring(i), [R.restrict_element(c, i) for c in self.coeffs])

    def on_block(self, indices) -> "Poly":
        R = self.ring
        B = block_ring(R, tuple(indices))
        return Poly(B, [restrict_to_block(R, c, tuple(indices)) for c in self.coeffs])


def monic(ring: Ring, coeffs) -> Poly:
    p = Poly(ring, coeffs)
    if not p.is_monic:
        raise ValueError(f"polynomial {p!r} is not monic")
    return p


def monic_divide(f: Poly, g: Poly):
    """Long division f = q*g + r by a monic divisor; returns (q, r, exact)."""
    if not g.is_monic:
        raise NonMonicDivisor(f"divisor {g!r} is not monic")
    f._check(g)
    ring = f.ring
    rem = list(f.coeffs)
    dg = g.degree
    if len(rem) - 1 < dg:
        r = Poly(ring, rem)
        return Poly.zero(ring), r, r.is_zero
    q = [ring.zero] * (len(rem) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        q[top - dg] = c
        if c == ring.zero:
            continue
        for i, gc in enumerate(g.coeffs):
            rem[top - dg + i] = rem[top - dg + i] - c * gc
    r = Poly(ring, rem[:dg])
    return Poly(ring, q), r, r.is_zero


def glue_polys(R: Ring, per_stalk: list[Poly]) -> Poly:
    """Assemble a polynomial over R from one polynomial per stalk (padded with 0)."""
    if len(per_stalk) != R.num_stalks:
        raise RingMismatch("need exactly one polynomial per stalk")
    deg = max((p.degree for p in per_stalk), default=-1)
    coeffs = [
        Element(R, tuple(p.coeff(i).parts[0] for p in per_stalk))
        for i in range(deg + 1)
    ]
    return Poly(R, coeffs)
