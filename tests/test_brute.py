from __future__ import annotations

import itertools
import random

import pytest

from cleanmat import _kernels
from cleanmat.brute import (
    _stalk_drazin,
    _stalk_gl_exponent,
    _stalk_scan,
    _stalk_tables,
    pi_regular_oracle,
    strongly_clean_bruteforce,
)
from cleanmat.errors import BudgetExceeded, InfiniteRing, UnsupportedSize
from cleanmat.decide import (
    decide_pi_regular,
    monic_polys,
    pi_regular_from_gsp,
    theorem_main_audit,
)
from cleanmat.factor import gsp_search
from cleanmat.matrices import SquareMatrix, companion, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import build_ring
from cleanmat.verify import verify_pi_regular, verify_strong_clean

from conftest import CERT_RINGS, clear_stalk_caches
from oracles import (
    drazin_bruteforce,
    encode_ring,
    gl_exponent,
    inverse_adjugate,
    pi_regular_bruteforce,
    unindexed_scan,
    whole_ring_drazin,
    whole_ring_scan,
)


def _raw(A, i=0):
    """A's raw values on stalk i, as rows."""
    return [[x.parts[i] for x in row] for row in A.rows]


def test_spec_examples(zmod):
    R2 = zmod(2)
    A = SquareMatrix.from_ints(R2, [[0, 0], [1, 1]])
    cert = strongly_clean_bruteforce(A)
    assert [[R2.to_int(x) for x in r] for r in cert.E.rows] == [[1, 0], [1, 0]]
    assert cert.U == SquareMatrix.identity(R2, 2)
    assert not verify_strong_clean(A, cert)

    R6 = zmod(6)
    Z = SquareMatrix.from_ints(R6, [[0, 0], [0, 0]])
    cert = strongly_clean_bruteforce(Z)
    assert cert.E == SquareMatrix.identity(R6, 2)
    assert cert.U == -SquareMatrix.identity(R6, 2)

    V = SquareMatrix.from_ints(R6, [[5, 0], [0, 1]])
    cert = strongly_clean_bruteforce(V)
    assert cert.E == SquareMatrix.from_ints(R6, [[0, 0], [0, 0]]) and cert.U == V


def test_budget_and_infinite_ring(zmod, zloc):
    A = SquareMatrix.identity(zmod(16), 2)
    with pytest.raises(BudgetExceeded):
        strongly_clean_bruteforce(A, budget=100)
    # the budget counts the candidates of every stalk: 4^4 + 3^4 over Z/12
    A = SquareMatrix.identity(zmod(12), 2)
    assert strongly_clean_bruteforce(A, budget=337) is not None
    with pytest.raises(BudgetExceeded, match="^337 candidates exceed budget 336$"):
        strongly_clean_bruteforce(A, budget=336)
    # the encode cap bounds each stalk, not the ring: Z/2046 = Z/2 x Z/3 x
    # Z/11 x Z/31 scans, the prime Z/1031 raises before building a table
    assert strongly_clean_bruteforce(SquareMatrix.from_ints(zmod(2046), [[5]])) is not None
    with pytest.raises(UnsupportedSize, match=r"^\|R\| = 1031 exceeds the 1024 encode cap$"):
        strongly_clean_bruteforce(SquareMatrix.from_ints(zmod(1031), [[5]]))
    with pytest.raises(InfiniteRing):
        strongly_clean_bruteforce(SquareMatrix.identity(zloc(2), 2))
    with pytest.raises(InfiniteRing):
        pi_regular_oracle(SquareMatrix.identity(zloc(2), 2))


def test_scan_order_and_range_exhaustion(zmod):
    # the first witness for [[0,0],[1,1]] over Z/2 is E = [[1,0],[1,0]],
    # mixed-radix index 1010_2 = 10; a scan stopping short must return -1
    R2 = zmod(2)
    s = R2.stalks[0]
    add, mul, neg, unit, _ = _stalk_tables(s)
    a = _raw(SquareMatrix.from_ints(R2, [[0, 0], [1, 1]]))
    perms, signs = _kernels.permutation_table(2)

    def scan(start, stop):
        return _kernels.scan_strongly_clean(
            add, mul, neg, unit, a, 2, perms, signs, s.one, s.zero, start, stop,
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
    assert cert.k == 2 and cert.X == SquareMatrix.from_ints(R4, [[0, 0], [0, 0]])

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


def test_pi_regular_oracle_answers_the_f4_degree_10_companion(f4_ring):
    """t^10 + 1 over F4: the oracle's certificate is the one gSP builds."""
    A = companion(Poly.from_ints(f4_ring, [1] + [0] * 9 + [1]))
    decision = decide_pi_regular(A)
    assert decision.verdict == "yes"
    assert pi_regular_oracle(A) == decision.certificate


def test_gl_exponent_is_a_multiple_of_every_unit_order(zmod, f4_ring, dual_ring, f2xf2_ring):
    """u ** gl_exponent(R, n) == I for every invertible n x n matrix u, and
    the exponent is past the oracle's Fitting bound n * (max nilpotency index)."""
    cases = [(R, 2) for R in (zmod(4), zmod(8), zmod(9), f4_ring, dual_ring, f2xf2_ring)]
    cases.append((zmod(2), 3))
    for R, n in cases:
        exponent = gl_exponent(R, n)
        assert exponent >= n * R.max_nil_index()
        I = SquareMatrix.identity(R, n)
        units = 0
        for entries in itertools.product(list(R.elements()), repeat=n * n):
            u = SquareMatrix(R, [entries[i : i + n] for i in range(0, n * n, n)])
            if inverse_adjugate(u) is not None:
                assert u**exponent == I, (R.label(), u)
                units += 1
        assert units > 0


def _finite_cert_rings():
    rings = [build_ring(d) for d in CERT_RINGS.values()]
    return [R for R in rings if R.is_finite]


def test_gl_exponent_is_computed_once_per_ring_and_size():
    """The cached exponent equals a recomputation with the cache emptied, on
    every finite ring of CERT_RINGS at n = 1..3; each stalk's exponent is
    computed once per (stalk, n), and rings that share a stalk share it."""
    cases = [(R, n) for R in _finite_cert_rings() for n in (1, 2, 3)]
    direct = {}
    for R, n in cases:
        _stalk_gl_exponent.cache_clear()
        direct[R.key, n] = gl_exponent(R, n)
    _stalk_gl_exponent.cache_clear()
    for R, n in cases + cases[::-1]:
        assert gl_exponent(R, n) == direct[R.key, n], (R.label(), n)
    # F2 x F2's two stalks are one stalk, computed once per n
    keys = {(s, n) for R, n in cases for s in R.stalks}
    info = _stalk_gl_exponent.cache_info()
    assert info.misses == info.currsize == len(keys) == 3 * 6
    assert info.hits == 2 * sum(R.num_stalks for R, _ in cases) - len(keys)


def test_scan_certificate_inverse_is_the_adjugate_inverse():
    """U^-1 = U^(M-1) on the scan's certificate equals adj(U) / det U, on
    every companion of degree <= 2 over the finite rings of CERT_RINGS."""
    checked = 0
    for R in _finite_cert_rings():
        for n in (1, 2):
            for h in monic_polys(R, n):
                A = companion(h)
                cert = strongly_clean_bruteforce(A)
                assert cert.U_inv == inverse_adjugate(cert.U), (R.label(), h)
                assert not verify_strong_clean(A, cert)
                checked += 1
    assert checked == (12 + 144) + (16 + 256) + 3 * (4 + 16)


def test_memoized_oracles_match_the_whole_ring_oracles(zmod):
    """The per-stalk memoized oracles give the whole-ring oracles' (E, U, U^-1)
    and (k, X), from a cold memo and then from the warm one, on every
    companion of degree <= 2 over Z/12, Z/16, F4, dual-F2 and F2 x F2; at
    degree 3 over Z/9 the Drazin oracle only, as 9^9 scan candidates exceed
    the default budget."""
    rings = [build_ring(CERT_RINGS[k]) for k in ("Z/12", "Z/16", "F4", "dual-F2", "F2 x F2")]
    cases = [(R, d, True) for R in rings for d in (1, 2)] + [(zmod(9), 3, False)]
    clear_stalk_caches()
    for memo in ("cold", "warm"):
        scans, drazins = _stalk_scan.cache_info(), _stalk_drazin.cache_info()
        checked = 0
        for R, d, scan in cases:
            for h in monic_polys(R, d):
                A = companion(h)
                if scan:
                    cert, want = strongly_clean_bruteforce(A), whole_ring_scan(A)
                    got = (cert.E, cert.U, cert.U_inv)
                    assert got == (want.E, want.U, want.U_inv), (R.label(), h)
                cert, want = pi_regular_oracle(A), whole_ring_drazin(A)
                assert (cert.k, cert.X, cert.Y) == (want.k, want.X, want.Y), (R.label(), h)
                checked += 1
        assert checked == (12 + 144) + (16 + 256) + 3 * (4 + 16) + 729
        # the warm pass is served by the memo alone
        grew = (
            _stalk_scan.cache_info().misses - scans.misses,
            _stalk_drazin.cache_info().misses - drazins.misses,
        )
        assert (grew == (0, 0)) == (memo == "warm"), (memo, grew)


def test_the_scan_memo_counts_one_scan_per_stalk_matrix(zmod):
    """theorem_main_audit(Z/12, 2) from a cold memo scans each of the 16 Z/4
    and 9 Z/3 stalk matrices of its 144 companions once; a second run scans
    none.  The CLI's audit over Z/6 scans 4 + 9 stalk matrices, not 2 * 36."""
    clear_stalk_caches()
    theorem_main_audit(zmod(12), 2)
    info = _stalk_scan.cache_info()
    assert (info.misses, info.hits) == (25, 2 * 144 - 25)
    theorem_main_audit(zmod(12), 2)
    assert _stalk_scan.cache_info().misses == 25
    clear_stalk_caches()
    theorem_main_audit(zmod(6), 2)
    assert _stalk_scan.cache_info().misses == 13


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
    # the whole-ring reference glues Z/2's and Z/3's tables in mixed radix
    R = zmod(6)
    tab = encode_ring(R)
    m = R.size
    assert len(tab.add) == len(tab.mul) == m
    assert all(len(row) == m for row in tab.add + tab.mul)
    for i, a in enumerate(tab.elements):
        for j, b in enumerate(tab.elements):
            assert tab.elements[tab.add[i][j]] == a + b
            assert tab.elements[tab.mul[i][j]] == a * b
        assert tab.elements[tab.neg[i]] == -a
        assert tab.unit[i] == R.is_unit(a)
    assert sum(tab.unit) == 2  # 1 and 5


def test_encoded_tables_equal_the_boxed_construction():
    """Each finite stalk's tables over its raw values equal the tables of
    boxed Element arithmetic over its stalk ring, on every finite stalk of
    ``CERT_RINGS``; so do the whole-ring reference's tables, glued over the
    stalks, on each finite ring of several stalks.  Equal stalks share one
    table tuple."""
    rings = [build_ring(d) for d in CERT_RINGS.values()]
    stalk_rings = [
        R.stalk_ring(i) for R in rings for i, s in enumerate(R.stalks) if s.finite
    ]
    assert len(stalk_rings) == 8
    for S in stalk_rings:
        s = S.stalks[0]
        add, mul, neg, unit, _ = _stalk_tables(s)
        elems = list(S.elements())
        assert [e.parts for e in elems] == [(v,) for v in range(s.size)], S.label()
        assert add == [[(a + b).parts[0] for b in elems] for a in elems], S.label()
        assert mul == [[(a * b).parts[0] for b in elems] for a in elems], S.label()
        assert neg == [(-a).parts[0] for a in elems]
        assert unit == [S.is_unit(a) for a in elems]
        assert (s.zero, s.one) == (S.zero.parts[0], S.one.parts[0])
    F2xF2, Z12, Z4xZ3 = (build_ring(CERT_RINGS[k]) for k in ("F2 x F2", "Z/12", "Z/4 x Z_(3)"))
    assert _stalk_tables(F2xF2.stalks[0]) is _stalk_tables(F2xF2.stalks[1])
    assert _stalk_tables(Z12.stalks[0]) is _stalk_tables(Z4xZ3.stalks[0])
    for R in [R for R in rings if R.is_finite and R.num_stalks > 1]:
        tab = encode_ring(R)
        elems = list(R.elements())
        index = {e: i for i, e in enumerate(elems)}
        assert tab.elements == elems and tab.index == index
        assert tab.add == [[index[a + b] for b in elems] for a in elems], R.label()
        assert tab.mul == [[index[a * b] for b in elems] for a in elems], R.label()
        assert tab.neg == [index[-a] for a in elems]
        assert tab.unit == [R.is_unit(a) for a in elems]
        assert (tab.zero, tab.one) == (index[R.zero], index[R.one])


# -- the idempotent index -------------------------------------------------------------


def _scan_args(tab, A):
    """The scan kernel's arguments before start and stop, for A over tab's ring."""
    perms, signs = _kernels.permutation_table(A.n)
    a = tab.encode(A)
    return tab.add, tab.mul, tab.neg, tab.unit, a, A.n, perms, signs, tab.one, tab.zero


def _check_index(R, matrices, ranges=None, warm=None):
    """Indexed scans, cold and warm, give the oracle's first hit.

    ``ranges(total, hit)`` lists extra [start, stop) ranges for a matrix;
    ``warm`` is an index to share with other calls.
    """
    tab = encode_ring(R)
    n = matrices[0].n
    total = R.size ** (n * n)
    warm = {} if warm is None else warm
    jobs = []
    for A in matrices:
        args = _scan_args(tab, A)
        hit = unindexed_scan(*args, 0, total)
        spans = [(0, total)] + (ranges(total, hit) if ranges else [])
        for start, stop in spans:
            jobs.append((args, start, stop, unindexed_scan(*args, start, stop)))

    def scan(args, start, stop, index):
        return _kernels.scan_strongly_clean(*args, start, stop, idempotents=index)

    for args, start, stop, want in jobs:
        assert scan(args, start, stop, {}) == want  # cold
        assert scan(args, start, stop, warm) == want  # warming up
    built = {key: (list(found), more) for key, (found, more) in warm.items()}
    for args, start, stop, want in jobs:
        assert scan(args, start, stop, warm) == want  # warm
    # the warm pass read the index and grew it by no entry
    assert warm.keys() == built.keys()
    for key, (found, more) in warm.items():
        assert found == built[key][0] and more is built[key][1]
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


def test_index_on_sub_ranges_past_its_frontier(zmod, dual_ring):
    # the index grows only as far as a scan reaches, so these ranges start
    # and stop before, inside and past the part built so far, and stop
    # before, at and after the first hit
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
        ] + [SquareMatrix.identity(R, n), SquareMatrix.from_ints(R, [[0] * n] * n)]
        _check_index(R, mats, ranges)


def test_one_index_serves_every_matrix_size(zmod):
    # one dict holds an index per matrix size, each grown by its own scans
    rng = random.Random(5)
    for R in (zmod(2), zmod(3)):
        index = {}
        for n in (1, 2, 3, 2, 1):
            mats = [
                SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
                for _ in range(4)
            ]
            _check_index(R, mats, warm=index)
        assert set(index) == {1, 2, 3}


def test_index_holds_exactly_the_idempotents(zmod):
    for R, n, count in (
        (zmod(8), 2, 98), (zmod(9), 2, 110), (zmod(12), 2, 364), (zmod(16), 2, 386),
        (zmod(2), 3, 58), (zmod(3), 3, 236),
    ):
        tab = encode_ring(R)
        total = R.size ** (n * n)
        index = list(_kernels._idempotents(tab.add, tab.mul, tab.zero, n))
        assert [tab.decode(k, n) for k, _ in index] == [
            SquareMatrix(R, [[tab.elements[x] for x in row] for row in e]) for _, e in index
        ]
        assert len(index) == count
        if total <= 20736:
            idempotents = []
            for i in range(total):
                M = tab.decode(i, n)
                if M @ M == M:
                    idempotents.append(i)
            assert [k for k, _ in index] == idempotents


def test_a_scan_grows_the_index_only_to_its_hit(zmod, f2xf2_ring):
    """A cold scan stops the index at its hit; a scan whose hit is indexed
    grows it by no entry.  Checked on each stalk's index dict as
    ``strongly_clean_bruteforce`` keeps it (F2 x F2's two stalks share one).
    The scan memo is emptied before each call, as a memo hit runs no scan."""
    grown = 0
    for R, n in ((zmod(16), 2), (zmod(12), 2), (f2xf2_ring, 2), (zmod(3), 3)):
        indexes = [_stalk_tables(s)[4] for s in R.stalks]
        for index in indexes:
            index.clear()

        def sizes():
            return [len(index[n][0]) if n in index else 0 for index in indexes]

        for h in monic_polys(R, n):
            A = companion(h)
            before = sizes()
            _stalk_scan.cache_clear()
            cert = strongly_clean_bruteforce(A)
            after = sizes()
            reached = {}
            for i, index in enumerate(indexes):
                E = tuple(map(tuple, _raw(cert.E, i)))
                hit = [e for _, e in index[n][0]].index(E)
                reached[id(index)] = max(reached.get(id(index), 0), hit + 1)
            for i, index in enumerate(indexes):
                assert after[i] == max(before[i], reached[id(index)]), (R.label(), h, i)
            grown += after != before
            _stalk_scan.cache_clear()
            assert strongly_clean_bruteforce(A) == cert
            assert sizes() == after
    assert grown > 0


def test_scan_matches_the_whole_ring_reference(zmod):
    """Per-stalk scans against the unindexed scan of the whole ring.

    On every companion of degree <= 2 over the finite rings of CERT_RINGS,
    and of degree 3 over Z/2 and Z/3, a certificate exists iff the
    reference finds one.  On a single-stalk ring E is the reference's first
    hit; on a multi-stalk ring each E.restrict(i) is the first hit of the
    reference over that stalk ring.
    """
    cases = [(R, d) for R in _finite_cert_rings() for d in (1, 2)]
    cases += [(zmod(2), 3), (zmod(3), 3)]

    def reference(tab, A):
        # small chunks: most first hits come early in the enumeration
        return unindexed_scan(*_scan_args(tab, A), 0, len(tab.elements) ** (d * d), chunk=1 << 12)

    checked = 0
    for R, d in cases:
        tab = encode_ring(R)
        for h in monic_polys(R, d):
            A = companion(h)
            cert = strongly_clean_bruteforce(A)
            want = reference(tab, A)
            assert (cert is None) == (want < 0), (R.label(), h)
            if R.num_stalks == 1:
                assert cert.E == tab.decode(want, d), (R.label(), h)
            else:
                for i in range(R.num_stalks):
                    st = encode_ring(R.stalk_ring(i))
                    hit = reference(st, A.restrict(i))
                    assert cert.E.restrict(i) == st.decode(hit, d), (R.label(), h, i)
            checked += 1
    assert checked == (12 + 144) + (16 + 256) + 3 * (4 + 16) + 8 + 27


def test_permutation_table_is_built_once_per_size_and_read_only():
    for n in (1, 2, 3):
        perms, signs = _kernels.permutation_table(n)
        again = _kernels.permutation_table(n)
        assert again[0] is perms and again[1] is signs
        assert isinstance(perms, tuple) and isinstance(signs, tuple)
        assert all(isinstance(p, tuple) for p in perms)
        with pytest.raises(TypeError):
            perms[0] = perms[-1]
        assert sorted(perms) == sorted(itertools.permutations(range(n)))
        # the sign of a permutation is -1 to the number of its inversions
        for p, s in zip(perms, signs):
            inversions = sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
            assert s == (-1) ** inversions
