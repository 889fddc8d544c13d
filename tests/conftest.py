from __future__ import annotations

import pytest

from cleanmat import decide, factor
from cleanmat.rings import build_ring


def clear_stalk_caches():
    """Empty the stalk search memo and the certificate-polynomial cache."""
    factor._memo_search.cache_clear()
    decide._memo_polys.cache_clear()


def zmod_tables(n: int):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return add, mul


def f4_tables():
    """GF(4) with elements b1*a + b0 encoded as 2*b1 + b0, a^2 = a + 1."""
    def mul_bits(x, y):
        x1, x0 = divmod(x, 2)
        y1, y0 = divmod(y, 2)
        hi = (x1 * y0 + x0 * y1 + x1 * y1) % 2
        lo = (x0 * y0 + x1 * y1) % 2
        return 2 * hi + lo

    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[mul_bits(i, j) for j in range(4)] for i in range(4)]
    return add, mul


def dual_f2_tables():
    """F_2[x]/(x^2): elements b1*x + b0 encoded as 2*b1 + b0, x^2 = 0."""
    def mul_bits(x, y):
        x1, x0 = divmod(x, 2)
        y1, y0 = divmod(y, 2)
        return 2 * ((x1 * y0 + x0 * y1) % 2) + (x0 * y0) % 2

    add = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[mul_bits(i, j) for j in range(4)] for i in range(4)]
    return add, mul


def f2xf2_tables():
    """The direct product F_2 x F_2 as a raw table (two primitive idempotents)."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    add = [
        [idx[((a0 + b0) % 2, (a1 + b1) % 2)] for (b0, b1) in pairs]
        for (a0, a1) in pairs
    ]
    mul = [
        [idx[(a0 * b0, a1 * b1)] for (b0, b1) in pairs] for (a0, a1) in pairs
    ]
    return add, mul


def _table(tables):
    add, mul = tables
    return {"type": "table", "add": add, "mul": mul}


# rings for the certificate golden file and the verifier oracle checks: two
# Z/n, a finite stalk beside Z_(3), and the three 4-element tables (an
# F2 x F2 input-table index is not its stalk values)
CERT_RINGS = {
    "Z/12": {"type": "zmod", "n": 12},
    "Z/16": {"type": "zmod", "n": 16},
    "Z/4 x Z_(3)": {
        "type": "product",
        "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}],
    },
    "F4": _table(f4_tables()),
    "dual-F2": _table(dual_f2_tables()),
    "F2 x F2": _table(f2xf2_tables()),
}


@pytest.fixture(scope="session")
def zmod():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_ring({"type": "zmod", "n": n})
        return cache[n]

    return get


@pytest.fixture(scope="session")
def zloc():
    cache = {}

    def get(p):
        if p not in cache:
            cache[p] = build_ring({"type": "zloc", "p": p})
        return cache[p]

    return get


@pytest.fixture(scope="session")
def zloc2_squared():
    return build_ring(
        {
            "type": "product",
            "factors": [{"type": "zloc", "p": 2}, {"type": "zloc", "p": 2}],
        }
    )


@pytest.fixture(scope="session")
def f4_ring():
    add, mul = f4_tables()
    return build_ring({"type": "table", "add": add, "mul": mul})


@pytest.fixture(scope="session")
def dual_ring():
    add, mul = dual_f2_tables()
    return build_ring({"type": "table", "add": add, "mul": mul})


@pytest.fixture(scope="session")
def f2xf2_ring():
    add, mul = f2xf2_tables()
    return build_ring({"type": "table", "add": add, "mul": mul})
