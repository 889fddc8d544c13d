"""Local stalk backends.

Every ring handled by this package is a finite product of local stalks of
three kinds: Z/p^k (``ZModStalk``), the localization of Z at a prime
(``ZLocStalk``), and local subrings of user-supplied operation tables
(``TableStalk``).  A stalk owns exact arithmetic on its raw values: small
ints for Z/p^k, ``Fraction`` for Z_(p), and ranks in the block for table
stalks.  A table stalk carries its block's own tables, so a raw value means
the same in a ring, in its block rings and in the stalk's own ring.
Stalks are interned: ``zmod_stalk``, ``zloc_stalk`` and ``table_stalk``
return one object per distinct stalk, so a stalk is its own cache key.

Every stalk class defines the same primitives, which the matrix and
polynomial kernels call: ``add``, ``sub``, ``mul``, ``neg``, ``inv`` and
``is_unit`` on single values, three multi-term ones, ``dot``, ``sum`` and
``submul(x, c, y) = x - c*y``, and ``matmul``, the product of two raw n x n
grids.  A multi-term primitive reduces once per result: one ``% q`` on
Z/p^k, one lowest-terms ``Fraction`` on Z_(p) (an integer numerator is
accumulated over a running common denominator), one chain of table lookups
on a table stalk.  So an elimination step is one ``submul`` per entry, not a
``mul`` and a ``sub``.  ``matmul`` is one ``dot`` per entry on Z_(p) and
table stalks.  On Z/p^k it is straight-line integer code, one sum of n
products reduced once per entry, generated from n alone and compiled once
per size (up to ``STRAIGHT_LINE_MAX``), the way ``collections.namedtuple``
generates its class.  No kernel divides by a non-unit.  Beyond the
primitives a stalk describes itself: ``nil_index`` (the least c with
m^c = 0 for its maximal ideal m), ``in_max_ideal`` and ``is_nilpotent``,
and on a finite stalk ``size`` and ``elements``, from which the
Drazin-inverse oracle counts the residue field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import mul

MAX_TABLE_SIZE = 64

# Z/p^k grids up to this size multiply by generated straight-line code; its
# source grows as n^3, so larger grids take the per-entry ``dot`` loop.
STRAIGHT_LINE_MAX = 8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as (prime, exponent) pairs, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _matmul_by_dots(dot, a, b) -> list:
    """The grid product a @ b with one ``dot`` per entry."""
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


@lru_cache(maxsize=None)
def _straight_line_matmul(n: int):
    """The function (a, b, q) -> a @ b mod q for n x n grids of ints, 1 <= n.

    Its source is built from n alone: the entries of a and b are unpacked
    into locals and each product entry is written out as one sum of n
    products, reduced once by ``% q``.
    """

    def unpack(x: str) -> str:
        rows = ("(" + "".join(f"{x}{i}_{j}, " for j in range(n)) + ")" for i in range(n))
        return ", ".join(rows) + ","

    def entry(i: int, j: int) -> str:
        return "(" + " + ".join(f"a{i}_{k} * b{k}_{j}" for k in range(n)) + ") % q"

    rows = ("[" + ", ".join(entry(i, j) for j in range(n)) + "]" for i in range(n))
    source = (
        "def matmul(a, b, q):\n"
        f"    {unpack('a')} = a\n"
        f"    {unpack('b')} = b\n"
        f"    return [{', '.join(rows)}]\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<Z/q matmul {n}x{n}>", "exec"), namespace)
    return namespace["matmul"]


class ZModStalk:
    """The local ring Z/p^k."""

    kind = "zmod"
    finite = True

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.zero = 0
        self.one = 1 % self.q

    def label(self) -> str:
        return f"Z/{self.q}"

    @property
    def size(self) -> int:
        return self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.q

    def matmul(self, a, b):
        n = len(a)
        if 0 < n <= STRAIGHT_LINE_MAX:
            return _straight_line_matmul(n)(a, b, self.q)
        return _matmul_by_dots(self.dot, a, b)

    def sum(self, xs):
        return sum(xs) % self.q

    def submul(self, x, c, y):
        return (x - c * y) % self.q

    def neg(self, a):
        return (-a) % self.q

    def from_int(self, v: int):
        return v % self.q

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            return None
        return pow(a, -1, self.q)

    def in_max_ideal(self, a) -> bool:
        return a % self.p == 0

    def is_nilpotent(self, a) -> bool:
        # In Z/p^k the nil radical and the maximal ideal coincide.
        return a % self.p == 0

    def elements(self):
        return list(range(self.q))

    def nil_index(self) -> int:
        return self.k

    def random(self, rng):
        return rng.randrange(self.q)

    def check_local(self) -> bool:
        """Z/p^k is local exactly when p is prime.

        Its non-units are then the multiples of p, the one maximal ideal.  A
        scan of sums and products of non-units could not fail here:
        ``is_unit`` tests ``a % p``, and multiples of p stay multiples of p
        whether or not p is prime.  Primality is the condition that makes
        the stalk local, and trial division checks it in O(sqrt p).
        """
        return is_prime(self.p)

    def ring_descriptor(self) -> dict:
        return {"type": "zmod", "n": self.q}

    def value_to_json(self, a):
        return a

    def value_from_json(self, data):
        if isinstance(data, bool) or not isinstance(data, int):
            raise ValueError(f"expected integer residue, got {data!r}")
        return data % self.q


class ZLocStalk:
    """Z localized at the prime p: exact fractions with denominator coprime to p."""

    kind = "zloc"
    finite = False
    size = None

    def __init__(self, p: int):
        self.p = p
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def label(self) -> str:
        return f"Z_({self.p})"

    def _check(self, a: Fraction) -> Fraction:
        if a.denominator % self.p == 0:
            raise ValueError(f"{a} is not in Z_({self.p})")
        return a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        """sum x*y: integer products over a running common denominator."""
        num, den = 0, 1
        for x, y in zip(xs, ys):
            tn = x.numerator * y.numerator
            td = x.denominator * y.denominator
            if td == den:
                num += tn
            elif tn:
                g = gcd(den, td)
                num = num * (td // g) + tn * (den // g)
                den = den // g * td
        return Fraction(num, den)

    def matmul(self, a, b):
        return _matmul_by_dots(self.dot, a, b)

    def sum(self, xs):
        return self.dot(xs, repeat(self.one))

    def submul(self, x, c, y):
        """x - c*y as one Fraction."""
        tn = c.numerator * y.numerator
        if not tn:
            return x
        xd, td = x.denominator, c.denominator * y.denominator
        if xd == td:
            return Fraction(x.numerator - tn, xd)
        return Fraction(x.numerator * td - tn * xd, xd * td)

    def neg(self, a):
        return -a

    def from_int(self, v: int):
        return Fraction(v)

    def is_unit(self, a) -> bool:
        return a.numerator % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            return None
        return 1 / a

    def in_max_ideal(self, a) -> bool:
        return a.numerator % self.p == 0

    def is_nilpotent(self, a) -> bool:
        return a == 0

    def elements(self):
        raise ValueError("Z_(p) is infinite")

    def nil_index(self) -> int:
        return 1

    def random(self, rng):
        dens = [d for d in (1, 1, 1, 2, 3, 5, 7) if d % self.p != 0]
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    def check_local(self) -> bool:
        # Valuation argument: v_p(a+b) >= min(v_p a, v_p b) >= 1 and
        # v_p(ar) >= v_p(a) >= 1, so the non-units p*Z_(p) form an ideal.
        return True

    def ring_descriptor(self) -> dict:
        return {"type": "zloc", "p": self.p}

    def value_to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def value_from_json(self, data):
        if isinstance(data, bool) or not isinstance(data, (int, str)):
            raise ValueError(f"expected fraction, got {data!r}")
        try:
            a = Fraction(data)
        except ZeroDivisionError:
            raise ValueError(f"fraction {data!r} has a zero denominator") from None
        return self._check(a)


class TableStalk:
    """A local block e*R of a table ring, with its own add/mul tables.

    A value is the element's rank in the block (blocks list their members by
    ascending input-table index), so it means the same in R, in every block
    ring and in the block on its own.
    """

    kind = "table"
    finite = True

    def __init__(self, add_table, mul_table, one, zero):
        self._add = add_table
        self._mul = mul_table
        self.zero = zero
        self.one = one
        self._neg = [row.index(zero) for row in add_table]
        self._nil_index = None
        self._inv = {}
        for a, row in enumerate(mul_table):
            if one in row:
                self._inv[a] = row.index(one)

    def label(self) -> str:
        return f"table[{self.size}]"

    @property
    def size(self) -> int:
        return len(self._add)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def dot(self, xs, ys):
        add, mul_t = self._add, self._mul
        acc = self.zero
        for a, b in zip(xs, ys):
            acc = add[acc][mul_t[a][b]]
        return acc

    def matmul(self, a, b):
        return _matmul_by_dots(self.dot, a, b)

    def sum(self, xs):
        add = self._add
        acc = self.zero
        for a in xs:
            acc = add[acc][a]
        return acc

    def submul(self, x, c, y):
        return self._add[x][self._neg[self._mul[c][y]]]

    def neg(self, a):
        return self._neg[a]

    def from_int(self, v: int):
        out = self.zero
        step = self.one if v >= 0 else self.neg(self.one)
        for _ in range(abs(v) % self._additive_order()):
            out = self.add(out, step)
        return out

    def _additive_order(self) -> int:
        n = 1
        acc = self.one
        while acc != self.zero:
            acc = self.add(acc, self.one)
            n += 1
        return n

    def is_unit(self, a) -> bool:
        return a in self._inv

    def inv(self, a):
        return self._inv.get(a)

    def in_max_ideal(self, a) -> bool:
        return a not in self._inv

    def is_nilpotent(self, a) -> bool:
        acc = a
        for _ in range(self.size):
            if acc == self.zero:
                return True
            acc = self.mul(acc, a)
        return acc == self.zero

    def elements(self):
        return list(range(self.size))

    def nil_index(self) -> int:
        """Smallest c with m^c = 0 for the maximal ideal m, computed once."""
        if self._nil_index is None:
            self._nil_index = self._ideal_power_index()
        return self._nil_index

    def _ideal_power_index(self) -> int:
        """The c of ``nil_index``, by closing m, m^2, ... under addition."""
        ideal = frozenset(a for a in self.elements() if not self.is_unit(a))
        power = ideal
        c = 1
        while power != {self.zero}:
            products = {self.mul(a, b) for a in power for b in ideal}
            power = self._additive_closure(products)
            c += 1
            if c > self.size + 1:
                raise AssertionError("maximal ideal of a table stalk is not nilpotent")
        return c

    def _additive_closure(self, seed):
        closed = set(seed) | {self.zero}
        frontier = list(closed)
        while frontier:
            a = frontier.pop()
            for b in list(closed):
                s = self.add(a, b)
                if s not in closed:
                    closed.add(s)
                    frontier.append(s)
        return closed

    def random(self, rng):
        return rng.randrange(self.size)

    def check_local(self) -> bool:
        elems = self.elements()
        nonunits = [a for a in elems if not self.is_unit(a)]
        for a in nonunits:
            for b in nonunits:
                if self.is_unit(self.add(a, b)):
                    return False
            for r in elems:
                if self.is_unit(self.mul(a, r)):
                    return False
        return True

    def ring_descriptor(self) -> dict:
        return {
            "type": "table",
            "add": [list(row) for row in self._add],
            "mul": [list(row) for row in self._mul],
        }

    def value_to_json(self, a):
        return a

    def value_from_json(self, data):
        if isinstance(data, bool) or not isinstance(data, int):
            raise ValueError(f"expected table index, got {data!r}")
        if not 0 <= data < self.size:
            raise ValueError(f"table index {data} out of range")
        return data


@lru_cache(maxsize=None)
def zmod_stalk(p: int, k: int) -> ZModStalk:
    return ZModStalk(p, k)


@lru_cache(maxsize=None)
def zloc_stalk(p: int) -> ZLocStalk:
    return ZLocStalk(p)


@lru_cache(maxsize=None)
def table_stalk(add_table: tuple, mul_table: tuple, one: int, zero: int) -> TableStalk:
    return TableStalk(add_table, mul_table, one, zero)
