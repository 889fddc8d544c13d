"""Polynomial arithmetic over a Ring, held stalk by stalk.

A ``Poly`` is the family of its stalk polynomials, as the Pierce sheaf sees
it: its only state besides ``ring`` is ``parts``, one tuple of raw stalk
values per stalk of the ring, low degree first, each trimmed of its own
trailing zeros.  So ``==`` and ``hash`` compare ``parts`` directly, the
degree is the largest stalk degree, and a polynomial is monic when every
stalk has full length and the leading value ``s.one``.  Stalks may have
different lengths: a Bezout cofactor need not be monic, and a polynomial
glued from stalk factors of different degrees has stalks of different
degrees.

``Poly(ring, coeffs)`` unpacks Element coefficients once and
``Poly.from_parts`` takes raw values per stalk; the ``coeffs`` property and
``coeff(i)`` box Elements on demand, for serializing and printing.  Every
operation (``+ - neg *``, ``translate``, evaluation and ``monic_divide``)
runs one raw kernel per stalk with that stalk's own
``add``/``sub``/``neg``/``dot``/``submul``, and ``restrict``, ``on_block`` and
``glue_polys`` select parts.  A product coefficient is one ``dot``, and a
step of division, translation or evaluation is one
``submul(x, c, y) = x - c*y``, so each result is reduced once.  Division by
a monic divisor is exact over any commutative ring.  The unit tests
``unit_at_zero`` and ``unit_at_one`` read each stalk's constant coefficient
and coefficient sum, with no evaluation.

Two raw kernels are public.  ``certificate_parts`` builds, from one
stalk's split h = f0*f1 and Bezout cofactor u, the stalk's certificate
polynomials (e, w) of a strongly clean pair, or x of a Drazin inverse, with
``_raw_mul``, ``_raw_divide`` and ``submul``.  ``raw_product`` is
``_raw_mul`` itself, the stalk product behind ``*``, for callers that hold
raw stalk values.
"""

from __future__ import annotations

from .errors import NonMonicDivisor, RingMismatch, VerificationFailed
from .rings import Element, Ring, block_ring


class Poly:
    __slots__ = ("ring", "parts")

    def __init__(self, ring: Ring, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Element) or (c.ring is not ring and c.ring.key != ring.key):
                raise RingMismatch(f"coefficient {c!r} is not an element of {ring.label()}")
        self.ring = ring
        self.parts = tuple(
            _trim(s, [c.parts[k] for c in coeffs]) for k, s in enumerate(ring.stalks)
        )

    @classmethod
    def from_parts(cls, ring: Ring, parts) -> "Poly":
        """The polynomial with raw coefficients ``parts[k]`` on stalk k."""
        parts = tuple(parts)
        if len(parts) != len(ring.stalks):
            raise RingMismatch("need exactly one coefficient list per stalk")
        return _poly(ring, map(_trim, ring.stalks, parts))

    @classmethod
    def from_ints(cls, ring: Ring, ints) -> "Poly":
        ints = list(ints)
        return cls.from_parts(ring, [[s.from_int(v) for v in ints] for s in ring.stalks])

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return _poly(ring, [()] * ring.num_stalks)

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return _poly(ring, [(s.one,) for s in ring.stalks])

    @classmethod
    def constant(cls, c: Element) -> "Poly":
        return cls(c.ring, [c])

    @classmethod
    def t_power(cls, ring: Ring, d: int) -> "Poly":
        return _poly(ring, [(s.zero,) * d + (s.one,) for s in ring.stalks])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Elements, low degree first, boxed on each access."""
        return tuple(self.coeff(i) for i in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return max(map(len, self.parts)) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self.parts)

    @property
    def is_monic(self) -> bool:
        n = len(self.parts[0])
        if not n:
            return False
        for s, p in zip(self.ring.stalks, self.parts):
            if len(p) != n or p[-1] != s.one:
                return False
        return True

    @property
    def unit_at_zero(self) -> bool:
        """Whether p(0) is a unit: every stalk's constant coefficient is one."""
        return all(p and s.is_unit(p[0]) for s, p in zip(self.ring.stalks, self.parts))

    @property
    def unit_at_one(self) -> bool:
        """Whether p(1) is a unit: every stalk's coefficient sum is one."""
        return all(s.is_unit(s.sum(p)) for s, p in zip(self.ring.stalks, self.parts))

    def coeff(self, i: int) -> Element:
        R = self.ring
        if i < 0:
            return R.zero
        return Element(
            R, tuple(p[i] if i < len(p) else s.zero for s, p in zip(R.stalks, self.parts))
        )

    def _check(self, other: "Poly"):
        if self.ring.key != other.ring.key:
            raise RingMismatch("polynomials over different rings")

    def _scalar(self, c: Element) -> tuple:
        """The stalk values of an Element of this ring."""
        if isinstance(c, Element) and (c.ring is self.ring or c.ring.key == self.ring.key):
            return c.parts
        raise RingMismatch(f"{c!r} is not an element of {self.ring.label()}")

    def _stalkwise(self, kernel, other: "Poly") -> "Poly":
        self._check(other)
        return _poly(
            self.ring,
            [kernel(s, a, b) for s, a, b in zip(self.ring.stalks, self.parts, other.parts)],
        )

    def __add__(self, other: "Poly") -> "Poly":
        return self._stalkwise(_raw_add, other)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._stalkwise(_raw_sub, other)

    def __neg__(self) -> "Poly":
        return _poly(
            self.ring,
            [tuple(map(s.neg, a)) for s, a in zip(self.ring.stalks, self.parts)],
        )

    def __mul__(self, other: "Poly") -> "Poly":
        return self._stalkwise(_raw_mul, other)

    def translate(self, c: Element) -> "Poly":
        """The polynomial p(t + c) (Taylor shift by repeated synthetic division)."""
        return _poly(
            self.ring,
            [
                _raw_translate(s, a, v)
                for s, a, v in zip(self.ring.stalks, self.parts, self._scalar(c))
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.key == other.ring.key and self.parts == other.parts

    def __hash__(self):
        return hash((self.ring.key, self.parts))

    def __call__(self, x: Element) -> Element:
        """Horner evaluation, stalk by stalk."""
        R = self.ring
        return Element(
            R,
            tuple(
                _raw_eval(s, a, v) for s, a, v in zip(R.stalks, self.parts, self._scalar(x))
            ),
        )

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
        return _poly(self.ring.stalk_ring(i), [self.parts[i]])

    def on_block(self, indices) -> "Poly":
        indices = tuple(indices)
        return _poly(block_ring(self.ring, indices), [self.parts[i] for i in indices])


def _poly(ring: Ring, parts) -> Poly:
    """The polynomial whose state is ``parts``, already trimmed per stalk."""
    p = object.__new__(Poly)
    p.ring = ring
    p.parts = tuple(parts)
    return p


# -- raw per-stalk kernels -----------------------------------------------------------
#
# Each helper takes a stalk and tuples of that stalk's raw values, low degree
# first and trimmed, and returns a trimmed tuple; the operations above wrap
# them, one call per stalk.


def _trim(s, values) -> tuple:
    """``values`` without its trailing zeros, as a tuple."""
    n = len(values)
    zero = s.zero
    while n and values[n - 1] == zero:
        n -= 1
    return tuple(values[:n])


def _raw_add(s, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(map(s.add, a, b))
    out += a[len(b) :]
    return _trim(s, out)


def _raw_sub(s, a, b) -> tuple:
    n = min(len(a), len(b))
    out = list(map(s.sub, a, b))
    out += a[n:]
    out += map(s.neg, b[n:])
    return _trim(s, out)


def _raw_mul(s, a, b) -> tuple:
    """The convolution of a and b, one ``dot`` per output coefficient.

    A factor equal to 1, such as a degree-0 monic factor of a split, returns
    the other factor with no dot.
    """
    if not a or not b:
        return ()
    one = (s.one,)
    if a == one:
        return tuple(b)
    if b == one:
        return tuple(a)
    dot = s.dot
    m, n = len(a), len(b)
    rb = b[::-1]
    out = []
    for k in range(m + n - 1):
        lo, hi = max(0, k - n + 1), min(k, m - 1) + 1
        # a[i] pairs with b[k - i] = rb[n - 1 - k + i] for lo <= i < hi
        out.append(dot(a[lo:hi], rb[n - 1 - k + lo : n - 1 - k + hi]))
    return _trim(s, out)


# one stalk's product a*b of raw, trimmed coefficient tuples, trimmed
raw_product = _raw_mul


def _raw_translate(s, a, c) -> tuple:
    """a(t + c); the leading value never changes, so the result stays trimmed.

    Each synthetic-division step adds c times the next value, as a
    ``submul`` by -c.
    """
    submul, nc = s.submul, s.neg(c)
    out = list(a)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = submul(out[j], nc, out[j + 1])
    return tuple(out)


def _raw_eval(s, a, x):
    """a(x) by Horner; the step acc*x + c is ``submul(c, acc, -x)``."""
    if not a:
        return s.zero
    submul, nx = s.submul, s.neg(x)
    acc = a[-1]
    for c in a[-2::-1]:
        acc = submul(c, acc, nx)
    return acc


def _raw_divide(s, f, g):
    """(q, r) with f = q*g + r and len(r) < len(g), for g monic on this stalk.

    q's leading value is f's, so q is trimmed as built.
    """
    dg = len(g) - 1
    if len(f) <= dg:
        return (), f
    submul, zero = s.submul, s.zero
    rem = list(f)
    q = [zero] * (len(f) - dg)
    low = g[:dg]
    for top in range(len(f) - 1, dg - 1, -1):
        c = rem[top]
        if c == zero:
            continue
        base = top - dg
        q[base] = c
        for i, gc in enumerate(low):
            rem[base + i] = submul(rem[base + i], c, gc)
    return tuple(q), _trim(s, rem[:dg])


def _shift_inverse(s, f, r, what: str) -> tuple:
    """The inverse of t - r modulo f on this stalk, for f(r) a unit.

    With f = (t - r)*q + f(r), (t - r)*(-f(r)^{-1} q) = 1 mod f.  A value
    f(r) that is not a unit raises ``VerificationFailed`` naming ``what``.
    """
    q, rem = _raw_divide(s, f, (s.neg(r), s.one))
    c = s.inv(rem[0] if rem else s.zero)
    if c is None:
        raise VerificationFailed([f"{what} is not a unit"])
    submul, zero = s.submul, s.zero
    return tuple(submul(zero, c, v) for v in q)


def certificate_parts(s, f0, f1, u, drazin: bool = False) -> tuple:
    """One stalk's certificate polynomials of the split h = f0*f1, raw.

    Given raw monic f0, f1 and the cofactor u of a Bezout pair
    u*f0 + v*f1 = 1 on stalk s, e = u*f0 is 0 mod f0 and 1 mod f1, so for
    any A with char poly h on this stalk E = e(A) is the projection onto
    ker f1(A) along ker f0(A).  a0 = -f0(0)^{-1} (f0 - f0(0))/t inverts t
    mod f0 and a1 = -f1(1)^{-1} (f1 - f1(1))/(t - 1) inverts t - 1 mod f1,
    and the Chinese remainder idempotents 1 - e = v*f1 and e glue them:
    w = a0 (1 - e) + a1 e mod h has (t - e) w = 1 mod h, so Cayley-Hamilton
    makes U = A - E invertible with U^{-1} = w(A).  Returns (e, w).

    With ``drazin`` the split is an SP split h = h0*p0 (f0 = h0, f1 = p0)
    and the result is (x,) with x = a0 (1 - e) mod h: X = x(A) inverts A on
    ker h0(A) and kills the nilpotent part on ker p0(A), so X is the Drazin
    inverse of A.  u and f0 may have different degrees on different stalks;
    with deg u < deg f1, as a Bezout pair has, e and x have degree < deg h.

    A product that is not monic or a value f0(0), f1(1) (h0(0)) that is not
    a unit raises ``VerificationFailed``.
    """
    n0, n1 = ("h0", "p0") if drazin else ("f0", "f1")
    h = _raw_mul(s, f0, f1)
    if not h or h[-1] != s.one:
        raise VerificationFailed([f"{n0} * {n1} is not monic"])
    a0 = _shift_inverse(s, f0, s.zero, f"{n0}(0)")
    e = _raw_mul(s, u, f0)
    if drazin:
        return (_raw_divide(s, _raw_sub(s, a0, _raw_mul(s, a0, e)), h)[1],)
    a1 = _shift_inverse(s, f1, s.one, f"{n1}(1)")
    return e, _raw_divide(s, _raw_add(s, a0, _raw_mul(s, _raw_sub(s, a1, a0), e)), h)[1]


def monic(ring: Ring, coeffs) -> Poly:
    p = Poly(ring, coeffs)
    if not p.is_monic:
        raise ValueError(f"polynomial {p!r} is not monic")
    return p


def monic_divide(f: Poly, g: Poly):
    """Long division f = q*g + r by a monic divisor; returns (q, r, exact).

    A divisor that is not monic raises ``NonMonicDivisor``.  The test is
    made stalk by stalk in the division's own loop (every stalk of g has the
    length of the first and ends in ``s.one``), not by a separate
    ``is_monic`` walk.
    """
    f._check(g)
    n = len(g.parts[0])
    qs, rs = [], []
    for s, a, b in zip(f.ring.stalks, f.parts, g.parts):
        if not n or len(b) != n or b[-1] != s.one:
            raise NonMonicDivisor(f"divisor {g!r} is not monic")
        q, r = _raw_divide(s, a, b)
        qs.append(q)
        rs.append(r)
    r = _poly(f.ring, rs)
    return _poly(f.ring, qs), r, r.is_zero


def glue_polys(R: Ring, per_stalk: list[Poly]) -> Poly:
    """Assemble a polynomial over R from one single-stalk polynomial per stalk."""
    if len(per_stalk) != R.num_stalks:
        raise RingMismatch("need exactly one polynomial per stalk")
    return _poly(R, [p.parts[0] for p in per_stalk])
