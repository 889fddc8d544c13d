from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from cleanmat import _kernels
from cleanmat.brute import (
    decode_matrix,
    encode_matrix,
    encode_ring,
    pi_regular_oracle,
    strongly_clean_bruteforce,
)
from cleanmat.errors import BudgetExceeded, InfiniteRing
from cleanmat.decide import monic_polys, pi_regular_from_gsp
from cleanmat.factor import gsp_search
from cleanmat.matrices import SquareMatrix, companion, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import build_ring
from cleanmat.verify import verify_pi_regular, verify_strong_clean

from conftest import CERT_RINGS
from oracles import drazin_bruteforce, pi_regular_bruteforce


def test_spec_examples(zmod):
    R2 = zmod(2)
    A = SquareMatrix.from_ints(R2, [[0, 0], [1, 1]])
    cert = strongly_clean_bruteforce(A)
    assert [[R2.to_int(x) for x in r] for r in cert.E.rows] == [[1, 0], [1, 0]]
    assert cert.U == SquareMatrix.identity(R2, 2)
    assert not verify_strong_clean(A, cert)

    R6 = zmod(6)
    Z = SquareMatrix.zeros(R6, 2)
    cert = strongly_clean_bruteforce(Z)
    assert cert.E == SquareMatrix.identity(R6, 2)
    assert cert.U == -SquareMatrix.identity(R6, 2)

    V = SquareMatrix.from_ints(R6, [[5, 0], [0, 1]])
    cert = strongly_clean_bruteforce(V)
    assert cert.E == SquareMatrix.zeros(R6, 2) and cert.U == V


def test_budget_and_infinite_ring(zmod, zloc):
    A = SquareMatrix.identity(zmod(12), 2)
    with pytest.raises(BudgetExceeded):
        strongly_clean_bruteforce(A, budget=100)
    with pytest.raises(InfiniteRing):
        strongly_clean_bruteforce(SquareMatrix.identity(zloc(2), 2))
    with pytest.raises(InfiniteRing):
        pi_regular_oracle(SquareMatrix.identity(zloc(2), 2))


def test_scan_order_and_range_exhaustion(zmod):
    # the first witness for [[0,0],[1,1]] over Z/2 is E = [[1,0],[1,0]],
    # mixed-radix index 1010_2 = 10; a scan stopping short must return -1
    R2 = zmod(2)
    tab = encode_ring(R2)
    A = SquareMatrix.from_ints(R2, [[0, 0], [1, 1]])
    a = encode_matrix(tab, A)
    perms, signs = _kernels.permutation_table(2)

    def scan(start, stop):
        return _kernels.scan_strongly_clean(
            tab.add, tab.mul, tab.neg, tab.unit, a, 2, perms, signs,
            tab.one, tab.zero, start, stop,
        )

    assert scan(0, 16) == 10
    assert scan(0, 10) == -1
    assert scan(10, 16) == 10
    assert scan(11, 16) == -1  # no second witness with commuting unit complement


def test_every_1x1_over_z8_is_clean(zmod):
    # finite commutative rings are clean, so the scan must always succeed
    R8 = zmod(8)
    for v in range(8):
        A = SquareMatrix.from_ints(R8, [[v]])
        cert = strongly_clean_bruteforce(A)
        assert cert is not None
        assert not verify_strong_clean(A, cert)


def test_stalk_heredity(zmod):
    rng = random.Random(23)
    R = zmod(12)
    for _ in range(10):
        A = SquareMatrix(
            R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
        )
        cert = strongly_clean_bruteforce(A)
        if cert is None:
            continue
        for i in range(R.num_stalks):
            assert strongly_clean_bruteforce(A.restrict(i)) is not None


def test_pi_regular_examples(zmod):
    R2 = zmod(2)
    A = SquareMatrix.from_ints(R2, [[0, 0], [1, 1]])
    cert = pi_regular_oracle(A)
    # A is idempotent, so it is its own Drazin inverse
    assert cert.k == 1 and cert.X == cert.Y == A
    assert not verify_pi_regular(A, cert)

    R4 = zmod(4)
    N = SquareMatrix.from_ints(R4, [[0, 1], [0, 0]])
    cert = pi_regular_oracle(N)
    assert cert.k == 2 and cert.X == SquareMatrix.zeros(R4, 2)

    R6 = zmod(6)
    C = companion(Poly.from_ints(R6, [2, 3, 1]))
    cert = pi_regular_oracle(C)
    assert cert is not None and not verify_pi_regular(C, cert)


def test_pi_regular_oracle_matches_enumeration(zmod, dual_ring):
    rng = random.Random(31)
    for R in (zmod(2), zmod(3), dual_ring):
        for _ in range(8):
            A = SquareMatrix(
                R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
            )
            fast = pi_regular_oracle(A)
            slow = pi_regular_bruteforce(A)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.k == slow.k


def test_pi_regular_oracle_is_the_drazin_inverse(zmod, dual_ring):
    """Every 2x2 matrix: the oracle's k and X = Y are the enumerated index and D."""
    for R in (zmod(2), zmod(3), zmod(4), dual_ring):
        elems = list(R.elements())
        for entries in itertools.product(elems, repeat=4):
            A = SquareMatrix(R, [entries[:2], entries[2:]])
            cert = pi_regular_oracle(A)
            k, Ds = drazin_bruteforce(A)
            assert cert.k == k and Ds == [cert.X] and cert.Y == cert.X, A


def test_pi_regular_oracle_matches_the_gsp_certificate(zmod, f4_ring, dual_ring):
    """The oracle's (k, X) is the one ``pi_regular_from_gsp`` builds, on the
    companion and one seeded conjugate of every monic h."""
    Z4xF4 = build_ring({"type": "product", "factors": [{"type": "zmod", "n": 4}, CERT_RINGS["F4"]]})
    cases = [(zmod(n), 2) for n in (4, 8, 9, 12, 16)]
    cases += [(f4_ring, 2), (dual_ring, 2), (Z4xF4, 2)]
    cases += [(zmod(n), 3) for n in (4, 8, 9, 12)] + [(f4_ring, 3), (dual_ring, 3)]
    checked = 0
    for R, n in cases:
        for i, h in enumerate(monic_polys(R, n)):
            gsp = gsp_search(h, R).certificate
            for A in (companion(h), random_with_charpoly(h, i)):
                cert = pi_regular_from_gsp(A, gsp)
                assert pi_regular_oracle(A) == cert, (h, A)
                checked += 1
    assert checked == 8020


def test_pi_regular_implies_strongly_clean(zmod):
    rng = random.Random(41)
    for R in (zmod(4), zmod(6)):
        for _ in range(12):
            A = SquareMatrix(
                R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
            )
            if pi_regular_oracle(A) is not None:
                assert strongly_clean_bruteforce(A) is not None


def test_encode_ring_tables(zmod):
    R = zmod(6)
    tab = encode_ring(R)
    m = R.size
    assert tab.add.shape == (m, m) and tab.mul.shape == (m, m)
    for i, a in enumerate(tab.elements):
        for j, b in enumerate(tab.elements):
            assert tab.elements[tab.add[i, j]] == a + b
            assert tab.elements[tab.mul[i, j]] == a * b
        assert tab.elements[tab.neg[i]] == -a
        assert tab.unit[i] == R.is_unit(a)
    assert np.count_nonzero(tab.unit) == 2  # 1 and 5


# -- the idempotent index -------------------------------------------------------------


def _unindexed_scan(
    add, mul, neg, unit, a, n, perms, signs, one, zero, start, stop, chunk=1 << 14
):
    """Oracle: the scan without an index, which decodes every candidate of
    [start, stop) chunk by chunk and tests E^2 = E, EA = AE and det(A - E)."""
    m = add.shape[0]
    nn = n * n

    def matmul(X, Y):
        C = np.full((X.shape[0], n, n), zero, dtype=np.int64)
        for k in range(n):
            C = add[C, mul[X[:, :, k][:, :, None], Y[:, k, :][:, None, :]]]
        return C

    for base in range(start, stop, chunk):
        sel = np.arange(base, min(stop, base + chunk), dtype=np.int64)
        E = np.empty((sel.size, n, n), dtype=np.int64)
        rem = sel.copy()
        for pos in range(nn - 1, -1, -1):
            E[:, pos // n, pos % n] = rem % m
            rem //= m
        Ab = np.broadcast_to(a, E.shape)
        mask = (matmul(E, E) == E).all(axis=(1, 2))
        mask &= (matmul(E, Ab) == matmul(Ab, E)).all(axis=(1, 2))
        sel, E = sel[mask], E[mask]
        U = add[a[None, :, :], neg[E]]
        dets = np.full(sel.size, zero, dtype=np.int64)
        for p, sign in zip(perms, signs):
            prod = np.full(sel.size, one, dtype=np.int64)
            for i in range(n):
                prod = mul[prod, U[:, i, p[i]]]
            dets = add[dets, neg[prod] if sign < 0 else prod]
        hits = np.nonzero(unit[dets])[0]
        if hits.size:
            return int(sel[hits[0]])
    return -1


def _check_index(R, matrices, ranges=None, chunk=1 << 14, warm=None):
    """Indexed scans, cold and warm, give the oracle's first hit.

    ``ranges(total, hit)`` lists extra [start, stop) ranges for a matrix;
    ``warm`` is an index to share with other calls.
    """
    tab = encode_ring(R)
    n = matrices[0].n
    perms, signs = _kernels.permutation_table(n)
    total = R.size ** (n * n)
    warm = {} if warm is None else warm
    jobs = []
    for A in matrices:
        a = encode_matrix(tab, A)
        args = (tab.add, tab.mul, tab.neg, tab.unit, a, n, perms, signs, tab.one, tab.zero)
        hit = _unindexed_scan(*args, 0, total, chunk=chunk)
        spans = [(0, total)] + (ranges(total, hit) if ranges else [])
        for start, stop in spans:
            want = _unindexed_scan(*args, start, stop, chunk=chunk)
            jobs.append((args, start, stop, want))

    def scan(args, start, stop, index):
        return _kernels.scan_strongly_clean(
            *args, start, stop, chunk=chunk, idempotents=index
        )

    for args, start, stop, want in jobs:
        assert scan(args, start, stop, {}) == want  # cold
        assert scan(args, start, stop, warm) == want  # warming up
    built = dict(warm)
    for args, start, stop, want in jobs:
        assert scan(args, start, stop, warm) == want  # warm
    # the warm pass read the index and built no entry again
    assert warm.keys() == built.keys()
    assert all(warm[k] is built[k] for k in built)
    return warm


def test_index_matches_unindexed_scan_on_companions(
    zmod, f4_ring, dual_ring, f2xf2_ring
):
    for R in (zmod(4), zmod(6), zmod(8), zmod(9), f4_ring, dual_ring, f2xf2_ring):
        for d in (1, 2):
            _check_index(R, [companion(h) for h in monic_polys(R, d)])
    for R in (zmod(2), zmod(3)):
        _check_index(R, [companion(h) for h in monic_polys(R, 3)])


def test_index_matches_unindexed_scan_on_seeded_matrices(zmod, f4_ring, dual_ring):
    rng = random.Random(4711)
    for R, n in (
        (zmod(4), 2), (zmod(12), 2), (f4_ring, 2), (dual_ring, 2),
        (zmod(2), 3), (zmod(3), 3),
    ):
        mats = [
            SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
            for _ in range(8)
        ]
        _check_index(R, mats)


def test_index_on_sub_ranges_and_small_chunks(zmod, dual_ring):
    # a chunk of 100 puts many chunk boundaries inside each scan, so starts
    # fall mid-chunk and stops fall before, at and after the first hit
    rng = random.Random(99)

    def ranges(total, hit):
        spans = []
        if hit >= 0:
            spans += [(0, hit), (hit, hit + 1), (max(0, hit - 37), hit), (hit + 1, total)]
        for _ in range(6):
            start = rng.randrange(total)
            spans.append((start, rng.randrange(start, total + 1)))
        return spans

    for R, n in ((zmod(4), 2), (zmod(6), 2), (dual_ring, 2), (zmod(2), 3)):
        mats = [
            SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
            for _ in range(6)
        ] + [SquareMatrix.identity(R, n), SquareMatrix.zeros(R, n)]
        for chunk in (100, 1 << 14):
            _check_index(R, mats, ranges, chunk=chunk)


def test_one_index_serves_every_matrix_size(zmod):
    # with a chunk of 10, chunks of different sizes n share their bounds
    rng = random.Random(5)
    for R in (zmod(2), zmod(3)):
        index = {}
        for n in (1, 2, 3, 2, 1):
            mats = [
                SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
                for _ in range(4)
            ]
            _check_index(R, mats, chunk=10, warm=index)
        assert {key[0] for key in index} == {1, 2, 3}


def test_index_holds_exactly_the_idempotents(zmod):
    chunk = 1000
    for R, n, count in (
        (zmod(8), 2, 98), (zmod(9), 2, 110), (zmod(12), 2, 364), (zmod(16), 2, 386),
        (zmod(2), 3, 58), (zmod(3), 3, 236),
    ):
        tab = encode_ring(R)
        total = R.size ** (n * n)
        indices = []
        for lo in range(0, total, chunk):
            sel, E = _kernels._chunk_idempotents(
                tab.add, tab.mul, tab.zero, n, lo, min(total, lo + chunk)
            )
            assert [decode_matrix(tab, int(i), n) for i in sel] == [
                SquareMatrix(R, [[tab.elements[x] for x in row] for row in e])
                for e in E
            ]
            indices += sel.tolist()
        assert len(indices) == count
        if total <= 20736:
            idempotents = []
            for i in range(total):
                M = decode_matrix(tab, i, n)
                if M @ M == M:
                    idempotents.append(i)
            assert indices == idempotents
