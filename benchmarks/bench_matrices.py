#!/usr/bin/env python3
"""Micro-benchmark of the matrix layer: per-call time of each matrix operation.

For each case a fixed seed draws 64 random matrices, 64 random monic
polynomials of degree n, and 64 random monic pairs (f0, f1) with
deg f0 + deg f1 = n.  The table gives the per-call microseconds of ``A @ B``,
``char_poly``, ``poly_at_matrix``, ``raw_bezout`` (``polys.raw_bezout``
of a pair on each stalk up to the first that has none; its Sylvester
system is n x n) and ``similar``, ``random_with_charpoly(h, seed)`` on the
64 polynomials with one seed each, with B a second random matrix, and
``A ** k`` for k = M - 1, M the lcm over the stalks of
``brute._stalk_gl_exponent(s, n)``: the whole-ring power chain of U^-1 =
U^(M-1) and of the Drazin inverse A^(2M-1) in the whole-ring reference
oracles of ``tests/oracles.py``, left blank over a ring with a Z_(p)
stalk, which has no such M.
Each is the best of 20 passes over the inputs, each pass scaled to nominal
machine speed by ``perfbench/pace.py``'s reference loop (``paced.best``).
The last columns time the audits' certificate layer: ``from_gsrc`` is
``decide.strong_clean_from_gsrc(A, gsrc)`` for A = ``random_with_charpoly(h)``
on the polynomials that have a gSRC factorization, ``from_gsp`` is
``decide.pi_regular_from_gsp(A, gsp)`` on those with a gSP factorization,
``triangular`` is ``decide.strong_clean_triangular(T)`` on 64 seeded
upper-triangular T (all three include the verifier call the construction
makes), and ``verify_sc`` is ``verify.verify_strong_clean`` of the
``from_gsrc`` certificates.  ``from_gsrc`` and ``from_gsp`` are timed warm,
with each finite stalk split's certificate polynomials in their cache
(``decide._memo_polys``), and cold, with that cache and the search memo
(``factor._memo_search``) emptied by ``cache_clear()`` before every pass,
so that every stalk builds its polynomials.
Run with ``python benchmarks/bench_matrices.py``.
"""

from __future__ import annotations

import random
import sys
from math import lcm
from pathlib import Path

# run against this checkout's src/ whether or not the package is installed
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cleanmat import decide, factor  # noqa: E402
from cleanmat.brute import _stalk_gl_exponent  # noqa: E402
from cleanmat.decide import (  # noqa: E402
    pi_regular_from_gsp,
    strong_clean_from_gsrc,
    strong_clean_triangular,
)
from cleanmat.factor import gsp_search, gsrc_search  # noqa: E402
from cleanmat.matrices import (  # noqa: E402
    SquareMatrix,
    char_poly,
    poly_at_matrix,
    random_with_charpoly,
)
from cleanmat.polys import Poly, raw_bezout  # noqa: E402
from cleanmat.rings import build_ring  # noqa: E402
from cleanmat.verify import verify_strong_clean  # noqa: E402
from paced import best  # noqa: E402

SEED = 2024
INPUTS = 64
PASSES = 20
CASES = [
    ("Z/16", {"type": "zmod", "n": 16}, 2),
    ("Z/12", {"type": "zmod", "n": 12}, 2),
    ("Z_(3)", {"type": "zloc", "p": 3}, 2),
    (
        "Z/4 x Z_(3)",
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}]},
        2,
    ),
    ("Z/3", {"type": "zmod", "n": 3}, 3),
]


def inputs(descriptor, n):
    R = build_ring(descriptor)
    rng = random.Random(SEED)

    def matrix(upper=False):
        return SquareMatrix(
            R,
            [
                [R.random_element(rng) if j >= i or not upper else R.zero for j in range(n)]
                for i in range(n)
            ],
        )

    def monic(d):
        return Poly(R, [R.random_element(rng) for _ in range(d)] + [R.one])

    mats = [matrix() for _ in range(INPUTS)]
    others = [matrix() for _ in range(INPUTS)]
    polys = [monic(n) for _ in range(INPUTS)]
    pairs = [(monic(n // 2), monic(n - n // 2)) for _ in range(INPUTS)]
    splits, sp_splits = [], []
    for i, h in enumerate(polys):
        A = random_with_charpoly(h, SEED + i)
        res = gsrc_search(h, R, "SRC")
        if res.found:
            splits.append((A, res.certificate, strong_clean_from_gsrc(A, res.certificate)))
        res = gsp_search(h, R)
        if res.found:
            sp_splits.append((A, res.certificate))
    triangulars = [matrix(upper=True) for _ in range(INPUTS)]
    return mats, others, polys, pairs, splits, sp_splits, triangulars


def comaximal(f0, f1) -> bool:
    """Whether every stalk has a Bezout pair, solved up to the first that has none."""
    stalks = zip(f0.ring.stalks, f0.parts, f1.parts)
    return all(raw_bezout(*stalk) is not None for stalk in stalks)


def clear_caches():
    """Empty the stalk search memo and the certificate-polynomial cache."""
    factor._memo_search.cache_clear()
    decide._memo_polys.cache_clear()


def per_call_us(fn, args, before=None):
    def one_pass():
        for a in args:
            fn(*a)

    return 1e6 * best(one_pass, PASSES, before)[0] / len(args)


def main():
    ops = [
        "A @ B",
        "A ** k",
        "char_poly",
        "poly_at_matrix",
        "raw_bezout",
        "similar",
        "from_gsrc",
        "gsrc cold",
        "from_gsp",
        "gsp cold",
        "triangular",
        "verify_sc",
    ]
    print(
        f"per-call microseconds at nominal speed, best of {PASSES} passes "
        f"over {INPUTS} seeded inputs"
    )
    print(f"{'case':>18} " + " ".join(f"{op:>14}" for op in ops))
    for label, descriptor, n in CASES:
        mats, others, polys, pairs, splits, sp_splits, triangulars = inputs(descriptor, n)
        gsrc_args = [(A, g) for A, g, _ in splits]
        # the warm columns run first: emptying the caches drops the searches' entries
        warm = [
            per_call_us(strong_clean_from_gsrc, gsrc_args),
            per_call_us(pi_regular_from_gsp, sp_splits),
        ]
        cold = [
            per_call_us(strong_clean_from_gsrc, gsrc_args, clear_caches),
            per_call_us(pi_regular_from_gsp, sp_splits, clear_caches),
        ]
        R = mats[0].ring
        power = None
        if R.is_finite:
            k = lcm(*(_stalk_gl_exponent(s, n) for s in R.stalks)) - 1
            power = per_call_us(lambda A: A**k, [(A,) for A in mats])
        times = [
            per_call_us(lambda A, B: A @ B, list(zip(mats, others))),
            power,
            per_call_us(char_poly, [(A,) for A in mats]),
            per_call_us(poly_at_matrix, list(zip(polys, mats))),
            per_call_us(comaximal, pairs),
            per_call_us(random_with_charpoly, [(h, SEED + i) for i, h in enumerate(polys)]),
            warm[0],
            cold[0],
            warm[1],
            cold[1],
            per_call_us(strong_clean_triangular, [(T,) for T in triangulars]),
            per_call_us(verify_strong_clean, [(A, c) for A, _, c in splits]),
        ]
        invertible = sum(A.ring.is_unit(char_poly(A).coeff(0)) for A in mats)
        coprime = sum(comaximal(*p) for p in pairs)
        case = f"{n}x{n} {label}"
        cells = (f"{'-':>14}" if t is None else f"{t:>14.1f}" for t in times)
        print(f"{case:>18} " + " ".join(cells))
        print(
            f"{'':>18} {invertible}/{INPUTS} invertible, {coprime}/{INPUTS} comaximal, "
            f"{len(splits)}/{INPUTS} with a gSRC, {len(sp_splits)}/{INPUTS} with a gSP"
        )


if __name__ == "__main__":
    main()
