from __future__ import annotations

import math
import random

import pytest

from cleanmat.quadz5 import (
    CONVERSION_TABLE,
    F1,
    F2,
    ONE,
    PRINTED_CHI_CONST,
    PRINTED_MATRIX,
    THETA,
    ZERO,
    MElem,
    QuadInt,
    basis_coords,
    char_poly_2x2,
    ideal_membership,
    phi_apply,
    phi_matrix,
    phi_strong_clean_certificate,
    run_audit,
    sqrt_in_ring,
    sr_exists_deg2,
)

from oracles import ideal_membership_search


def test_arithmetic_examples():
    assert (ONE - THETA) * (ONE + THETA) == QuadInt(6)
    assert QuadInt(1, 32).norm() == 5121
    assert math.isqrt(5121) ** 2 != 5121
    assert QuadInt(-1).is_unit() and QuadInt(1).is_unit()
    assert not QuadInt(2).is_unit() and not THETA.is_unit()


def test_norm_multiplicativity_random():
    rng = random.Random(1)
    for _ in range(10_000):
        x = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
        y = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
        assert (x * y).norm() == x.norm() * y.norm()


def test_units_are_exactly_plus_minus_one():
    for a in range(-20, 21):
        for b in range(-20, 21):
            x = QuadInt(a, b)
            assert x.is_unit() == (x in (QuadInt(1), QuadInt(-1)))


def test_ideal_membership():
    assert ideal_membership(QuadInt(2))
    assert ideal_membership(ONE + THETA)
    assert not ideal_membership(ONE)
    assert not ideal_membership(THETA)
    rng = random.Random(2)
    for _ in range(40):
        x = QuadInt(rng.randint(-6, 6), rng.randint(-6, 6))
        assert ideal_membership(x) == ideal_membership_search(x)


def test_conversion_formulas_exact():
    for m, expected, _label in CONVERSION_TABLE:
        assert basis_coords(m) == tuple(expected)


def test_basis_coords_rejects_non_module_points():
    with pytest.raises(ValueError):
        MElem(ONE, ZERO)  # 1 is not in the ideal
    # a pair inside A x A that escapes the lattice spanned by f1, f2 over
    # Z[theta] does not exist (the basis is free), so coords always resolve:
    rng = random.Random(3)
    for _ in range(1000):
        c1 = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        c2 = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
        m = F1.scale(c1) + F2.scale(c2)
        assert basis_coords(m) == (c1, c2)


def test_phi_examples():
    assert phi_apply(F1) == MElem(QuadInt(-1, -1), QuadInt(2, -2))
    fixed = MElem(QuadInt(2), ZERO)
    assert phi_apply(fixed) == fixed
    A = phi_matrix()
    assert A == PRINTED_MATRIX


def test_phi_linearity_random():
    rng = random.Random(4)

    def rand_m():
        return F1.scale(QuadInt(rng.randint(-5, 5), rng.randint(-5, 5))) + F2.scale(
            QuadInt(rng.randint(-5, 5), rng.randint(-5, 5))
        )

    for _ in range(200):
        x, y = rand_m(), rand_m()
        r = QuadInt(rng.randint(-5, 5), rng.randint(-5, 5))
        assert phi_apply(x + y) == phi_apply(x) + phi_apply(y)
        assert phi_apply(x.scale(r)) == phi_apply(x).scale(r)


def test_char_poly_recomputed():
    tr, dt = char_poly_2x2(phi_matrix())
    assert tr == QuadInt(3)
    assert dt == QuadInt(2)
    disc = tr * tr - QuadInt(4) * dt
    assert disc == QuadInt(1)
    assert dt != PRINTED_CHI_CONST


def test_sqrt_in_ring():
    assert sqrt_in_ring(QuadInt(4)) in (QuadInt(2), QuadInt(-2))
    x = QuadInt(2, 3)
    assert sqrt_in_ring(x * x) in (x, -x)
    assert sqrt_in_ring(QuadInt(1, 32)) is None
    assert sqrt_in_ring(QuadInt(-1)) is None


def test_sr_decision_printed_poly():
    exists, tx = sr_exists_deg2(QuadInt(-3), PRINTED_CHI_CONST)
    assert not exists
    assert tx["h(0) unit"] is False and tx["h(1) unit"] is False
    assert tx["discriminant square in Z[theta]"] is False


def test_sr_decision_recomputed_poly():
    exists, tx = sr_exists_deg2(QuadInt(-3), QuadInt(2))
    assert exists
    assert tx["factors"] == ["t - (1)", "t - (2)"]


def test_sr_trivial_split():
    # t^2: h(1) = 1 is a unit, so the trivial split f0 = 1 succeeds
    exists, tx = sr_exists_deg2(ZERO, ZERO)
    assert exists and tx["split"] == "deg(f0) = 0"


def test_sr_matches_bruteforce_linear_scan():
    rng = random.Random(5)

    def brute(b, c):
        h1 = ONE + b + c
        if h1.is_unit() or c.is_unit():
            return True
        # scan monic linear factors t + alpha with N(alpha) <= max(N(c), 1);
        # the max covers c = 0, where the cofactor rather than alpha vanishes
        bound = max(c.norm(), 1)
        for va in range(-12, 13):
            for vb in range(-12, 13):
                alpha = QuadInt(va, vb)
                if alpha.norm() > bound:
                    continue
                # h(-alpha) == 0 <=> (t + alpha) | h
                minus = -alpha
                if minus * minus + b * minus + c != ZERO:
                    continue
                beta = b - alpha  # other factor: t + beta
                if alpha.is_unit() and (ONE + beta).is_unit():
                    return True
        return False

    for _ in range(100):
        b = QuadInt(rng.randint(-3, 3), rng.randint(-1, 1))
        c = QuadInt(rng.randint(-3, 3), rng.randint(-1, 1))
        exists, _ = sr_exists_deg2(b, c)
        assert exists == brute(b, c), (b, c)


def test_phi_certificate():
    cert = phi_strong_clean_certificate()
    assert cert["verified"] and all(cert["checks"].values())
    E = cert["E"]
    # E annihilates X-coordinates and fixes Y-coordinates (row convention)
    cx = basis_coords(MElem(QuadInt(2), ZERO))
    img = [
        cx[0] * E[0][0] + cx[1] * E[1][0],
        cx[0] * E[0][1] + cx[1] * E[1][1],
    ]
    assert img == [ZERO, ZERO]
    cy = basis_coords(MElem(QuadInt(2), QuadInt(2)))
    img = [
        cy[0] * E[0][0] + cy[1] * E[1][0],
        cy[0] * E[0][1] + cy[1] * E[1][1],
    ]
    assert img == list(cy)


def test_audit_report():
    rep = run_audit()
    assert rep["all_verifications_passed"]
    assert rep["matrix_matches_printed"]
    quantities = {d["quantity"] for d in rep["discrepancies"]}
    assert "characteristic polynomial constant term" in quantities
    assert "discriminant" in quantities
    assert "headline claim (no SR-factorization)" in quantities
    assert rep["sr_decision_recomputed"]["exists"] is True
    assert rep["sr_decision_printed"]["exists"] is False
    assert run_audit() == rep  # deterministic
