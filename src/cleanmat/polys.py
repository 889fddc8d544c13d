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
``coeff(i)`` box Elements on demand, for serializing and printing.  The
ring operations ``+ - neg *`` run one raw kernel per stalk with that
stalk's own ``add``/``sub``/``neg``/``dot``; a product coefficient is one
``dot``, so each is reduced once.

Every other operation runs on one stalk's raw values, in the stalk
searches, the certificate constructions and the verifiers' leaf checks,
through six public kernels.  ``raw_product`` and ``raw_sum`` are the
kernels behind ``*`` and ``+``.  ``raw_divide`` divides by a monic divisor,
which is exact over any commutative ring, and ``raw_translate`` is the
Taylor shift a(t + c); a step of either is one ``submul(x, c, y) = x - c*y``.
``raw_bezout`` solves one stalk's Bezout identity u*f0 + v*f1 = 1 by a
unit-pivot elimination of the Sylvester system, the one elimination of the
package, and returns None when the pair is not comaximal.
``certificate_parts`` builds, from one stalk's split h = f0*f1 and Bezout
cofactor u, the stalk's certificate polynomials (e, w) of a strongly clean
pair, or x of a Drazin inverse.  ``trimmed_poly`` is the constructor every
operation ends in: ``Poly.from_parts`` without its trim, for parts taken
from existing polynomials.
"""

from __future__ import annotations

from .errors import RingMismatch, VerificationFailed
from .rings import Element, Ring


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.key == other.ring.key and self.parts == other.parts

    def __hash__(self):
        return hash((self.ring.key, self.parts))

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


def _poly(ring: Ring, parts) -> Poly:
    """The polynomial whose state is ``parts``, already trimmed per stalk."""
    p = object.__new__(Poly)
    p.ring = ring
    p.parts = tuple(parts)
    return p


# ``Poly.from_parts`` without its trim, for parts taken from existing polynomials
trimmed_poly = _poly


# -- raw per-stalk kernels -----------------------------------------------------------
#
# Each helper takes a stalk and tuples of that stalk's raw values, low degree
# first and trimmed, and returns a trimmed tuple; the ring operations above
# wrap the sum, difference and product, one call per stalk.


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


# one stalk's product a*b and sum a+b of raw, trimmed coefficient tuples, trimmed
raw_product = _raw_mul
raw_sum = _raw_add


def raw_translate(s, a, c) -> tuple:
    """a(t + c) on stalk s; the leading value never changes, so it stays trimmed.

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


def raw_divide(s, f, g):
    """(q, r) with f = q*g + r and len(r) < len(g), for g monic on stalk s.

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
    q, rem = raw_divide(s, f, (s.neg(r), s.one))
    c = s.inv(rem[0] if rem else s.zero)
    if c is None:
        raise VerificationFailed([f"{what} is not a unit"])
    submul, zero = s.submul, s.zero
    return tuple(submul(zero, c, v) for v in q)


def raw_bezout(s, a, b):
    """(u, v) with u*a + v*b = 1, len(u) < len(b), len(v) < len(a), or None.

    a and b are raw monic polynomials on the local stalk s.  The matrix M
    of (u, v) -> u*a + v*b on monomial bases is the Sylvester matrix: column
    j < deg b holds t^j * a and column deg b + j holds t^j * b.  Its
    determinant is the resultant up to sign, and over a local ring M is
    invertible exactly when elimination finds a unit pivot in every column.
    So M (u, v) = e_0 is solved by pivoting each column on its first unit at
    or below the diagonal, and the answer is None at a column that has none,
    that is when the pair is not comaximal.  Back substitution scales by
    the stored pivot inverses.  The identity u*a + v*b = 1 is checked
    exactly, and a pair that fails it raises ``VerificationFailed``.  A
    factor equal to 1 gives its pair with no elimination.
    """
    one = (s.one,)
    if a == one:
        return one, ()
    if b == one:
        return (), one
    d0, d1 = len(a) - 1, len(b) - 1
    n = d0 + d1
    is_unit, mul, sub, submul, zero = s.is_unit, s.mul, s.sub, s.submul, s.zero
    cols = [[zero] * j + list(a) + [zero] * (d1 - 1 - j) for j in range(d1)]
    cols += [[zero] * j + list(b) + [zero] * (d0 - 1 - j) for j in range(d0)]
    cols.append([s.one] + [zero] * (n - 1))
    m = [list(row) for row in zip(*cols)]
    pivot_inv = []
    for c in range(n):
        for p in range(c, n):
            if is_unit(m[p][c]):
                break
        else:
            return None
        m[c], m[p] = m[p], m[c]
        k = s.inv(m[c][c])
        pivot_inv.append(k)
        top = m[c][c + 1 :]
        for r in range(c + 1, n):
            row = m[r]
            if row[c] != zero:
                f = mul(row[c], k)
                row[c + 1 :] = [submul(x, f, y) for x, y in zip(row[c + 1 :], top)]
    x = [zero] * n
    for c in reversed(range(n)):
        row = m[c]
        x[c] = mul(sub(row[n], s.dot(row[c + 1 : n], x[c + 1 :])), pivot_inv[c])
    u, v = _trim(s, x[:d1]), _trim(s, x[d1:])
    if _raw_add(s, _raw_mul(s, u, a), _raw_mul(s, v, b)) != one:
        raise VerificationFailed(["resultant Bezout pair failed its identity check"])
    return u, v


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
        return (raw_divide(s, _raw_sub(s, a0, _raw_mul(s, a0, e)), h)[1],)
    a1 = _shift_inverse(s, f1, s.one, f"{n1}(1)")
    return e, raw_divide(s, _raw_add(s, a0, _raw_mul(s, _raw_sub(s, a1, a0), e)), h)[1]
