from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cleanmat.brute import pi_regular_oracle, strongly_clean_bruteforce
from cleanmat.decide import (
    decide_pi_regular,
    decide_ring_strongly_clean,
    decide_strongly_clean,
    jclean_quadratic_criterion,
    monic_polys,
    pi_regular_audit,
    sqrt_one_plus_radical,
    strong_clean_triangular,
    theorem_main_audit,
    triangular_sweep,
)
from cleanmat.errors import BudgetExceeded, NotInRadical, TwoNotUnit, VerificationFailed
from cleanmat.factor import SRCCertificate, comaximality, gsrc_search
from cleanmat.matrices import SquareMatrix, companion, random_with_charpoly
from cleanmat.polys import Poly
from cleanmat.rings import Element, build_ring
from cleanmat.stalks import factorize
from cleanmat.verify import verify_gsrc, verify_pi_regular, verify_src, verify_strong_clean


def test_decide_companion_negative(zloc):
    Z2 = zloc(2)
    A = companion(Poly.from_ints(Z2, [2, -1, 1]))
    d = decide_strongly_clean(A)
    assert d.verdict == "no" and d.route == "companion_negation"
    assert d.refutation["companion"] is True


def test_decide_paper_example(zloc2_squared):
    R = zloc2_squared
    h = Poly(
        R,
        [
            Element(R, (Fraction(2), Fraction(3))),
            Element(R, (Fraction(3), Fraction(1))),
            R.one,
        ],
    )
    d = decide_strongly_clean(companion(h))
    assert d.verdict == "yes" and d.route == "gSRC"
    assert len(d.factorization.blocks) == 2
    assert not verify_strong_clean(companion(h), d.certificate)


def test_decide_zero_matrix(zmod, zloc):
    for R in (zmod(6), zloc(2)):
        Z = SquareMatrix.zeros(R, 2)
        d = decide_strongly_clean(Z)
        assert d.verdict == "yes"
        assert d.certificate.E == SquareMatrix.identity(R, 2)
        assert d.certificate.U == -SquareMatrix.identity(R, 2)


def test_decide_unknown_for_non_companion_over_zloc(zloc):
    Z2 = zloc(2)
    h = Poly.from_ints(Z2, [2, -1, 1])
    A = random_with_charpoly(h, seed=3)
    assert A != companion(h)
    d = decide_strongly_clean(A)
    assert d.verdict == "unknown"
    assert d.route == "gSRC"
    assert d.reason


def test_decide_pi_regular_examples(zmod, zloc):
    R6 = zmod(6)
    C = companion(Poly.from_ints(R6, [2, 3, 1]))
    d = decide_pi_regular(C)
    assert d.verdict == "yes" and d.route == "gSP"
    assert sorted(b.cert.p0.degree for b in d.factorization.blocks) == [0, 1]

    Z2 = zloc(2)
    d = decide_pi_regular(companion(Poly.from_ints(Z2, [2, 3, 1])))
    assert d.verdict == "no"

    N = SquareMatrix.from_ints(zmod(4), [[0, 1], [0, 0]])
    d = decide_pi_regular(N)
    assert d.verdict == "yes"
    blk = d.factorization.blocks[0]
    assert blk.cert.h0 == Poly.one(blk.cert.h0.ring)
    assert blk.cert.p0.degree == 2


def _seeded_matrices(R, n, rng, count):
    """``count`` matrices with random entries, then ``count`` random conjugates
    of companion matrices: inputs the companion-only audits never see."""
    for _ in range(count):
        yield SquareMatrix(R, [[R.random_element(rng) for _ in range(n)] for _ in range(n)])
    for _ in range(count):
        h = Poly(R, [*(R.random_element(rng) for _ in range(n)), R.one])
        yield random_with_charpoly(h, rng.randrange(2**32))


def test_pi_regular_implies_strongly_clean_decisions(zmod, f4_ring, dual_ring, f2xf2_ring):
    # M_n(R) is finite, hence strongly pi-regular: every decision is yes, its
    # certificate verifies, and the Drazin-inverse oracle finds a witness
    rng = random.Random(5)
    for R in (zmod(6), zmod(8), zmod(9), f4_ring, dual_ring, f2xf2_ring):
        for n in (2, 3):
            for A in _seeded_matrices(R, n, rng, 5):
                dp = decide_pi_regular(A)
                assert dp.verdict == "yes"
                assert verify_pi_regular(A, dp.certificate) == []
                assert pi_regular_oracle(A) is not None
                assert decide_strongly_clean(A).verdict == "yes"
                # the SP pair re-verifies as an SRC pair per block
                for b in dp.factorization.blocks:
                    u, v = comaximality(b.cert.h0, b.cert.p0)
                    upgraded = SRCCertificate(b.cert.h0, b.cert.p0, u, v, "SRC")
                    assert not verify_src(b.cert.h0 * b.cert.p0, upgraded)


def test_ring_level_decisions(zloc, zmod):
    d = decide_ring_strongly_clean(zloc(2), 2)
    assert d.verdict == "no"
    assert d.refutation["witness_a"].parts[0] == Fraction(2)
    wh = d.refutation["witness_h"]
    assert [c.parts[0] for c in wh.coeffs] == [Fraction(2), Fraction(-1), Fraction(1)]
    for k in (1, 2, 3):
        R = zmod(2**k)
        d = decide_ring_strongly_clean(R, 2)
        assert d.verdict == "yes"
        assert d.details["instances"] == (2**k) ** 2
        verified = 0
        for h in monic_polys(R, 2):
            res = gsrc_search(h, R, "SRC")
            assert res.found and not verify_gsrc(h, R, res.certificate)
            verified += 1
        assert verified == d.details["certificates_verified"]
    with pytest.raises(BudgetExceeded):
        decide_ring_strongly_clean(zmod(12), 2, budget=10)
    d = decide_ring_strongly_clean(zloc(2), 3)
    assert d.verdict == "unknown"


def test_ring_level_degree_one_is_yes_on_infinite_rings(zloc, zloc2_squared):
    """Every stalk is local, so each 1x1 matrix [a] has a or a - 1 a unit.

    The ring-level answer is yes with that reason, and the matrix-level
    decider agrees on seeded 1x1 matrices, including a = 0, 1 and p.
    """
    mixed = build_ring(
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}]}
    )
    for R in (zloc(5), mixed, zloc2_squared):
        d = decide_ring_strongly_clean(R, 1)
        assert (d.verdict, d.route) == ("yes", "gSRC")
        assert "either a or a - 1 is a unit" in d.reason
        assert d.certificate is None and d.refutation is None
        rng = random.Random(R.key)
        samples = [R.zero, R.one, R.from_int(5), R.from_int(6)]
        samples += [R.random_element(rng) for _ in range(8)]
        for a in samples:
            assert decide_strongly_clean(SquareMatrix(R, [[a]])).verdict == "yes"


def test_jclean_criterion(zloc, zmod):
    d = jclean_quadratic_criterion(zloc(2))
    assert d.verdict == "no"
    assert d.refutation["witness_a"].parts[0] == Fraction(2)
    assert "not a rational square" in d.refutation["stalks"][0]["why"]
    # the witness is a = p on every Z_(p) stalk, alone or beside a finite one
    mixed = build_ring(
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}]}
    )
    for R, p in ((zloc(3), 3), (zloc(5), 5), (mixed, 3)):
        d = jclean_quadratic_criterion(R)
        assert d.verdict == "no"
        assert d.refutation["witness_a"].parts[-1] == Fraction(p)
        report = d.refutation["stalks"][-1]
        assert report["witness_a"] == str(p)
        assert report["why"] == f"discriminant {1 - 4 * p} is not a rational square"
    assert jclean_quadratic_criterion(zmod(4)).verdict == "yes"
    assert jclean_quadratic_criterion(zmod(7)).verdict == "yes"
    # witness for products: the failing stalk is glued against zeros
    R = build_ring(
        {"type": "product", "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 2}]}
    )
    d = jclean_quadratic_criterion(R)
    assert d.verdict == "no"
    assert d.refutation["witness_a"].parts == (0, Fraction(2))


def test_jclean_matches_exhaustive_route(zmod, f4_ring, dual_ring):
    for R in (zmod(2), zmod(3), zmod(4), zmod(6), zmod(8), zmod(9), f4_ring, dual_ring):
        crit = jclean_quadratic_criterion(R)
        full = decide_ring_strongly_clean(R, 2)
        assert crit.verdict == full.verdict == "yes"


def _jclean_root_scan(S):
    """Oracle: the non-units a of a finite local ring S, each checked for a
    root of t^2 - t + a by trying every element."""
    rad = [a for a in S.elements() if not S.is_unit(a)]
    for a in rad:
        assert any(r * r - r + a == S.zero for r in S.elements()), a
    return len(rad)


def test_jclean_matches_root_scan_on_small_finite_stalks(zmod, f4_ring, dual_ring, f2xf2_ring):
    # every Z/p^k with at most 64 elements, the table stalks, and products
    rings = [zmod(q) for q in range(2, 65) if len(factorize(q)) == 1]
    rings += [f4_ring, dual_ring, f2xf2_ring, zmod(72), zmod(2 * 27 * 25)]
    for R in rings:
        d = jclean_quadratic_criterion(R)
        assert d.verdict == "yes" and d.route == "jclean_root"
        reports = d.details["stalks"]
        assert len(reports) == R.num_stalks
        for i, report in enumerate(reports):
            S = R.stalk_ring(i)
            assert S.size <= 64
            assert report == {
                "stalk": S.label(),
                "status": "all roots found",
                "checked": _jclean_root_scan(S),
            }


def test_sqrt_one_plus_radical(zmod, zloc):
    R9 = zmod(9)
    s = sqrt_one_plus_radical(R9.from_int(4))
    assert R9.to_int(s) == 7
    s = sqrt_one_plus_radical(R9.one)
    assert R9.to_int(s) == 1
    with pytest.raises(TwoNotUnit):
        sqrt_one_plus_radical(zmod(4).from_int(3))
    with pytest.raises(NotInRadical):
        sqrt_one_plus_radical(R9.from_int(2))
    Z3 = zloc(3)
    s = sqrt_one_plus_radical(Z3.from_int(4))
    assert s.parts[0] == Fraction(-2)  # (-2)^2 = 4 and -2 - 1 = -3 in rad
    assert sqrt_one_plus_radical(Z3.from_int(7)) is None


def test_triangular_construction_and_sweep(zmod):
    R4 = zmod(4)
    I = SquareMatrix.identity(R4, 2)
    cert = strong_clean_triangular(I)
    assert cert.E == SquareMatrix.zeros(R4, 2) and cert.U == I

    rep = triangular_sweep(R4, 2)
    assert rep.instances == 64 and rep.agreements == 64
    assert rep.routes["diagonal_split"] == 64

    rep = triangular_sweep(zmod(2), 3)
    assert rep.instances == 64 and rep.agreements == 64


def _no_bezout_pair(monkeypatch):
    import cleanmat.decide as decide_mod

    monkeypatch.setattr(decide_mod, "comaximality", lambda f0, f1: None)


def test_triangular_sweep_fails_hard_on_a_non_comaximal_split(zmod, monkeypatch):
    _no_bezout_pair(monkeypatch)
    with pytest.raises(VerificationFailed, match="not comaximal"):
        triangular_sweep(zmod(4), 2)


def test_triangular_cli_exits_3_on_a_non_comaximal_split(monkeypatch, capsys):
    from cleanmat.cli import main

    _no_bezout_pair(monkeypatch)
    code = main(["triangular", "--ring", '{"type":"zmod","n":4}', "--degree", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("verification failure:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def _no_split_searches(monkeypatch):
    """gSRC and gSP searches that report every polynomial absent."""
    import cleanmat.decide as decide_mod
    from cleanmat.factor import SearchResult

    monkeypatch.setattr(
        decide_mod, "gsrc_search", lambda h, R, mode: SearchResult("absent", None, {})
    )
    monkeypatch.setattr(decide_mod, "gsp_search", lambda h, R: SearchResult("absent", None, {}))


def test_ring_level_decide_fails_hard_without_a_split_on_a_finite_ring(zmod, monkeypatch, capsys):
    from cleanmat.cli import main

    _no_split_searches(monkeypatch)
    with pytest.raises(VerificationFailed, match="no gSRC split"):
        decide_ring_strongly_clean(zmod(4), 2)
    code = main(["decide", "--ring", '{"type":"zmod","n":4}', "--degree", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("verification failure:") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_audits_count_an_absence_over_a_finite_ring_as_a_disagreement(zmod, monkeypatch, capsys):
    from cleanmat.cli import main

    _no_split_searches(monkeypatch)
    R = zmod(4)
    every_h = list(monic_polys(R, 2))
    for rep, key in ((theorem_main_audit(R, 2, samples=1), "gsrc"), (pi_regular_audit(R, 2), "gsp")):
        assert rep.instances == 16 and rep.agreements == 0
        assert [d["h"] for d in rep.disagreements] == every_h
        assert {d[key] for d in rep.disagreements} == {"absent"}
        assert not [name for name in rep.routes if name.endswith("_absent")]
    for extra in ([], ["--pi"]):
        code = main(["audit", "--ring", '{"type":"zmod","n":4}', "--degree", "2", *extra])
        assert code == 3
        assert '"disagreements":[{' in capsys.readouterr().out


def test_pi_regular_audit_compares_certificates(zmod, monkeypatch, capsys):
    """An oracle witness other than the Drazin inverse is a disagreement."""
    import cleanmat.brute as brute_mod
    from cleanmat.cli import main
    from cleanmat.matrices import PiRegularCertificate

    drazin = brute_mod.pi_regular_oracle

    def identity_for_idempotents(A):
        cert = drazin(A)
        if A @ A != A:
            return cert
        I = SquareMatrix.identity(A.ring, A.n)
        return PiRegularCertificate(cert.k, I, I)

    monkeypatch.setattr(brute_mod, "pi_regular_oracle", identity_for_idempotents)
    R = zmod(4)
    rep = pi_regular_audit(R, 2)
    # t^2 - t is the one monic quadratic whose companion is idempotent
    h = Poly.from_ints(R, [0, -1, 1])
    assert rep.agreements == rep.instances - 1
    [d] = rep.disagreements
    assert d["h"] == h and d["gsp_certificate"].X == companion(h)
    assert d["oracle_certificate"].X == SquareMatrix.identity(R, 2)
    code = main(["audit", "--ring", '{"type":"zmod","n":4}', "--degree", "2", "--pi"])
    assert code == 3
    assert '"oracle_certificate":{' in capsys.readouterr().out


def test_theorem_main_audit_small(zmod):
    for n in (4, 6):
        rep = theorem_main_audit(build_ring({"type": "zmod", "n": n}), 2, samples=2)
        assert rep.instances == n * n
        assert rep.agreements == rep.instances
        assert not rep.disagreements


def test_theorem_main_audit_fields(zmod):
    # over a field the Fitting decomposition guarantees success everywhere
    for n in (5, 7):
        rep = theorem_main_audit(build_ring({"type": "zmod", "n": n}), 2, samples=1)
        assert rep.agreements == rep.instances == n * n
        assert rep.routes["gsrc_found"] == n * n


def test_pi_regular_audit_small(zmod):
    rep = pi_regular_audit(zmod(4), 2)
    assert rep.instances == 16 and not rep.disagreements
    assert rep.routes["strongly_clean_implied"] == rep.routes["gsp_found"]


def test_route_consistency_random(zmod):
    rng = random.Random(77)
    for n in (4, 6, 9):
        R = build_ring({"type": "zmod", "n": n})
        for _ in range(8):
            A = SquareMatrix(
                R, [[R.random_element(rng) for _ in range(2)] for _ in range(2)]
            )
            d = decide_strongly_clean(A)
            bf = strongly_clean_bruteforce(A)
            assert (d.verdict == "yes") == (bf is not None)


def test_decision_block_bounds(zmod):
    for R in (zmod(6), zmod(12)):
        for h in monic_polys(R, 2):
            d = decide_strongly_clean(companion(h))
            if d.factorization is not None:
                assert len(d.factorization.blocks) <= 3
            break  # one polynomial per ring keeps this quick; audits cover the rest
