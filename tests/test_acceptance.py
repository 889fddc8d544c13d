"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from cleanmat.decide import (
    decide_pi_regular,
    decide_ring_strongly_clean,
    decide_strongly_clean,
    monic_polys,
    pi_regular_audit,
    theorem_main_audit,
    triangular_sweep,
)
from cleanmat.factor import gsp_search, gsrc_search, sp_search, src_search
from cleanmat.matrices import companion
from cleanmat.polys import Poly
from cleanmat.quadz5 import run_audit
from cleanmat.rings import Element, build_ring, is_complete_orthogonal, pierce_glue
from cleanmat.verify import (
    verify_gsp,
    verify_gsrc,
    verify_pi_regular,
    verify_sp,
    verify_src,
    verify_strong_clean,
)

PROD_DESC = {
    "type": "product",
    "factors": [{"type": "zloc", "p": 2}, {"type": "zloc", "p": 2}],
}


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def paper_example_poly(R):
    return Poly(
        R,
        [
            Element(R, (Fraction(2), Fraction(3))),
            Element(R, (Fraction(3), Fraction(1))),
            R.one,
        ],
    )


def test_criterion_1_paper_example_reproduction():
    start = time.perf_counter()
    R = build_ring(PROD_DESC)
    h = paper_example_poly(R)

    sr = src_search(h, R, "SR")
    complete = sr.status == "absent"
    transcript_ok = all(
        set(stalk["degrees"]) == {"0", "1", "2"}
        for stalk in sr.transcript["stalks"]
    )

    g = gsrc_search(h, R, "SRC")
    blocks_ok = False
    if g.found:
        idems = sorted(b.idempotent.parts for b in g.certificate.blocks)
        blocks_ok = idems == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ] and not verify_gsrc(h, R, g.certificate)
    elapsed = time.perf_counter() - start
    ok = complete and transcript_ok and blocks_ok and elapsed < 1.0
    report(
        1,
        ok,
        f"no SR (complete transcript), gSRC blocks e=(1,0)/(0,1), {elapsed:.3f}s < 1s",
    )


def test_criterion_2_theorem_main_equivalence_audit():
    start = time.perf_counter()
    total = 0
    disagreements = 0
    certified = 0
    for n in (2, 3, 4, 6, 8, 9, 12):
        R = build_ring({"type": "zmod", "n": n})
        rep = theorem_main_audit(R, 2, samples=5, seed=2024)
        total += rep.instances
        disagreements += len(rep.disagreements)
        certified += rep.routes["similar_certified"]
        assert rep.routes["gsrc_found"] * 5 == rep.routes["similar_certified"]
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and total == 354 and elapsed < 300
    report(
        2,
        ok,
        f"{total} polynomials, {disagreements} disagreements, "
        f"{certified} similar matrices certified, {elapsed:.1f}s < 300s",
    )


def test_criterion_3_ring_level_negative_and_positive():
    Z2 = build_ring({"type": "zloc", "p": 2})
    d = decide_ring_strongly_clean(Z2, 2)
    witness_ok = (
        d.verdict == "no"
        and d.refutation["witness_a"].parts[0] == Fraction(2)
        and [c.parts[0] for c in d.refutation["witness_h"].coeffs]
        == [Fraction(2), Fraction(-1), Fraction(1)]
    )
    # the negative evidence re-checks: the witness polynomial has no gSRC
    recheck = gsrc_search(d.refutation["witness_h"], Z2, "SRC").status == "absent"

    positives_ok = True
    for k in range(1, 5):
        R = build_ring({"type": "zmod", "n": 2**k})
        dk = decide_ring_strongly_clean(R, 2)
        certified = 0
        for h in monic_polys(R, 2):
            res = gsrc_search(h, R, "SRC")
            if res.found and not verify_gsrc(h, R, res.certificate):
                certified += 1
        if dk.verdict != "yes" or certified != (2**k) ** 2:
            positives_ok = False
            break
    ok = witness_ok and recheck and positives_ok
    report(
        3,
        ok,
        "Z_(2) refuted with a = 2 / h = t^2 - t + 2; Z/2^k certified for k = 1..4",
    )


def test_criterion_4_pi_regularity_equivalence():
    disagreements = 0
    total = 0
    for n in (4, 6):
        R = build_ring({"type": "zmod", "n": n})
        rep = pi_regular_audit(R, 2)
        total += rep.instances
        disagreements += len(rep.disagreements)

    R6 = build_ring({"type": "zmod", "n": 6})
    h = Poly.from_ints(R6, [2, 3, 1])
    g = gsp_search(h, R6)
    block_degrees = sorted(b.cert.p0.degree for b in g.certificate.blocks)
    single = sp_search(h, R6)
    instance_ok = g.found and block_degrees == [0, 1] and single.status == "absent"
    ok = disagreements == 0 and total == 52 and instance_ok
    report(
        4,
        ok,
        f"{total} instances, {disagreements} disagreements; t^2+3t+2 over Z/6: "
        f"gSP degrees {block_degrees}, single-block SP absent",
    )


def test_criterion_5_triangular_observation():
    start = time.perf_counter()
    r1 = triangular_sweep(build_ring({"type": "zmod", "n": 4}), 2)
    r2 = triangular_sweep(build_ring({"type": "zmod", "n": 2}), 3)
    elapsed = time.perf_counter() - start
    ok = (
        r1.instances == 64
        and r1.agreements == 64
        and r2.instances == 64
        and r2.agreements == 64
        and elapsed < 30
    )
    report(
        5,
        ok,
        f"T2(Z/4): {r1.agreements}/64, T3(Z/2): {r2.agreements}/64, {elapsed:.1f}s < 30s",
    )


def test_criterion_6_block_bound():
    checked = 0
    bound_ok = True
    R = build_ring(PROD_DESC)
    g = gsrc_search(paper_example_poly(R), R, "SRC")
    bound_ok &= len(g.certificate.blocks) <= 3
    checked += 1
    for n in (2, 3, 4, 6, 8, 9, 12):
        Rn = build_ring({"type": "zmod", "n": n})
        for h in monic_polys(Rn, 2):
            res = gsrc_search(h, Rn, "SRC")
            if res.found:
                bound_ok &= len(res.certificate.blocks) <= 3
                checked += 1
            if n in (4, 6):
                resp = gsp_search(h, Rn)
                if resp.found:
                    bound_ok &= len(resp.certificate.blocks) <= 3
                    checked += 1
    report(6, bound_ok, f"{checked} certificates, all with <= n+1 = 3 blocks")


def test_criterion_7_pierce_layer_for_all_n_up_to_1000():
    start = time.perf_counter()
    ok = True
    for n in range(2, 1001):
        R = build_ring({"type": "zmod", "n": n})
        prim = R.primitive_idempotents()
        if not is_complete_orthogonal(R, prim):
            ok = False
            break
        if not all(s.check_local() for s in R.stalks):
            ok = False
            break
        rng = random.Random(n)
        for _ in range(100):
            a = R.from_int(rng.randrange(n))
            values = [R.restrict_element(a, i) for i in range(R.num_stalks)]
            if pierce_glue(R, list(zip(prim, values))) != a:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(
        7,
        ok,
        f"999 rings, primitive sets complete orthogonal, stalks local, "
        f"glue o restrict = id on 100 elements each, {elapsed:.1f}s < 60s",
    )


def test_criterion_8_z5_audit():
    rep1 = run_audit()
    rep2 = run_audit()
    conversions_ok = all(c["match"] for c in rep1["conversion_formulas"])
    matrix_ok = rep1["matrix_matches_printed"]
    cert_ok = rep1["strong_clean_certificate"]["verified"]
    quantities = {d["quantity"] for d in rep1["discrepancies"]}
    discrepancy_ok = {
        "characteristic polynomial constant term",
        "discriminant",
    } <= quantities
    sr_ran = rep1["sr_decision_recomputed"]["transcript"]["exists"] in (True, False)
    deterministic = rep1 == rep2
    ok = (
        conversions_ok
        and matrix_ok
        and cert_ok
        and discrepancy_ok
        and sr_ran
        and deterministic
        and rep1["all_verifications_passed"]
    )
    report(
        8,
        ok,
        "conversion formulas exact, matrix reproduced, certificate verified, "
        f"{len(rep1['discrepancies'])} discrepancies reported deterministically",
    )


def _fuzz_rings():
    descs = [
        {"type": "zmod", "n": 4},
        {"type": "zmod", "n": 5},
        {"type": "zmod", "n": 6},
        {"type": "zmod", "n": 8},
        {"type": "zmod", "n": 9},
        {"type": "zmod", "n": 12},
        {"type": "zloc", "p": 2},
        {"type": "zloc", "p": 3},
        {"type": "zloc", "p": 5},
        PROD_DESC,
        {
            "type": "product",
            "factors": [{"type": "zmod", "n": 4}, {"type": "zloc", "p": 3}],
        },
    ]
    rings = [build_ring(d) for d in descs]
    from conftest import dual_f2_tables, f2xf2_tables, f4_tables

    for maker in (f4_tables, dual_f2_tables, f2xf2_tables):
        add, mul = maker()
        rings.append(build_ring({"type": "table", "add": add, "mul": mul}))
    return rings


def test_criterion_9_certificate_soundness_fuzz():
    start = time.perf_counter()
    rng = random.Random(90125)
    rings = _fuzz_rings()
    verified = 0
    failures = []
    for i in range(10_000):
        R = rings[rng.randrange(len(rings))]
        deg = rng.choice((1, 1, 2, 2, 2, 3))
        h = Poly(R, [R.random_element(rng) for _ in range(deg)] + [R.one])
        res = gsrc_search(h, R, "SRC")
        if res.found:
            fails = verify_gsrc(h, R, res.certificate)
            if fails:
                failures.append((i, "gsrc", fails))
            verified += 1
        res = gsp_search(h, R)
        if res.found:
            fails = verify_gsp(h, R, res.certificate)
            if fails:
                failures.append((i, "gsp", fails))
            verified += 1
        if i % 23 == 0:
            res = src_search(h, R, "SRC")
            if res.found:
                fails = verify_src(h, res.certificate)
                if fails:
                    failures.append((i, "src", fails))
                verified += 1
            res = sp_search(h, R)
            if res.found:
                fails = verify_sp(h, res.certificate)
                if fails:
                    failures.append((i, "sp", fails))
                verified += 1
        if i % 17 == 0 and deg == 2:
            A = companion(h)
            d = decide_strongly_clean(A)
            if d.verdict == "yes":
                fails = verify_strong_clean(A, d.certificate)
                if fails:
                    failures.append((i, "strong_clean", fails))
                verified += 1
        if i % 29 == 0 and deg == 2:
            A = companion(h)
            d = decide_pi_regular(A, cross_check=False)
            if d.verdict == "yes":
                fails = verify_pi_regular(A, d.certificate)
                if fails:
                    failures.append((i, "pi_regular", fails))
                verified += 1
    elapsed = time.perf_counter() - start
    ok = not failures and verified > 10_000
    report(
        9,
        ok,
        f"10000 seeded instances, {verified} certificates verified, "
        f"{len(failures)} rejections, {elapsed:.1f}s",
    )
