"""Exact arithmetic in Z[theta], theta^2 = -5, and the rank-2 module audit.

The ring Z[theta] is a Dedekind domain that is not projective-free: the
ideal A = (2, 1+theta) is projective but not free, while M = A (+) A is free
of rank 2 with basis f1 = [-2, 1-theta], f2 = [1+theta, -2].  The
endomorphism phi([a,b]) = [a+b, 2b] splits M as {[a,0]} (+) {[b,b]}, where
phi restricts to the identity and to multiplication by 2 respectively, so
phi is strongly clean.  The audit recomputes every printed quantity of this
setup from the definitions and reports discrepancies instead of adopting
either side.
"""

from __future__ import annotations

import math

from .errors import FrozenRecord, NotInModule


class QuadInt:
    """a + b*theta with theta^2 = -5."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            bpart = "θ"
        elif self.b == -1:
            bpart = "-θ"
        else:
            bpart = f"{self.b}θ"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bpart}"

    @classmethod
    def coerce(cls, x):
        if isinstance(x, QuadInt):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        return None

    def __eq__(self, other):
        other = QuadInt.coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = QuadInt.coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = QuadInt.coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return QuadInt.coerce(other) - self

    def __neg__(self):
        return QuadInt(-self.a, -self.b)

    def __mul__(self, other):
        other = QuadInt.coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(
            self.a * other.a - 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        return QuadInt(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a + 5 * self.b * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def exact_div(self, other) -> "QuadInt | None":
        """self / other when the quotient lies in Z[theta], else None."""
        other = QuadInt.coerce(other)
        n = other.norm()
        if n == 0:
            return None
        q = self * other.conj()
        if q.a % n or q.b % n:
            return None
        return QuadInt(q.a // n, q.b // n)


THETA = QuadInt(0, 1)
ZERO = QuadInt(0)
ONE = QuadInt(1)


def ideal_membership(x: QuadInt) -> bool:
    """x in (2, 1+theta) iff a + b is even (an index-2 sublattice)."""
    return (x.a + x.b) % 2 == 0


def sqrt_in_ring(d: QuadInt) -> "QuadInt | None":
    """A square root of d in Z[theta], or None (complete decision).

    Any x with x^2 = d has N(x)^2 = N(d), so N(d) must be a perfect square
    s^2 and x = u + v*theta must satisfy u^2 + 5 v^2 = s: finitely many
    candidates, each checked exactly.
    """
    nd = d.norm()
    s = math.isqrt(nd)
    if s * s != nd:
        return None
    v = 0
    while 5 * v * v <= s:
        rem = s - 5 * v * v
        u = math.isqrt(rem)
        if u * u == rem:
            for cand in (QuadInt(u, v), QuadInt(-u, v), QuadInt(u, -v), QuadInt(-u, -v)):
                if cand * cand == d:
                    return cand
        v += 1
    return None


class MElem(FrozenRecord):
    """An element [a, b] of M = A (+) A; both components must lie in A."""

    __slots__ = ("a", "b")

    def __init__(self, a: QuadInt, b: QuadInt):
        if not ideal_membership(a) or not ideal_membership(b):
            raise ValueError(f"[{a}, {b}] is not in A (+) A")
        super().__init__(a, b)

    def __add__(self, other):
        return MElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return MElem(self.a - other.a, self.b - other.b)

    def scale(self, r: QuadInt) -> "MElem":
        return MElem(r * self.a, r * self.b)

    def __repr__(self):
        return f"[{self.a}, {self.b}]"


F1 = MElem(QuadInt(-2), ONE - THETA)
F2 = MElem(ONE + THETA, QuadInt(-2))

# det of the basis matrix with columns f1, f2
_BASIS_DET = F1.a * F2.b - F2.a * F1.b


def basis_coords(m: MElem) -> tuple[QuadInt, QuadInt]:
    """Coordinates (c1, c2) with m = c1*f1 + c2*f2, by Cramer's rule.

    The basis determinant is -2; integrality of the quotients is asserted,
    and failure means the input is not in the module.
    """
    d1 = m.a * F2.b - F2.a * m.b
    d2 = F1.a * m.b - m.a * F1.b
    c1 = d1.exact_div(_BASIS_DET)
    c2 = d2.exact_div(_BASIS_DET)
    if c1 is None or c2 is None:
        raise NotInModule(f"{m!r} has non-integral coordinates")
    assert F1.scale(c1) + F2.scale(c2) == m
    return c1, c2


def phi_apply(m: MElem) -> MElem:
    return MElem(m.a + m.b, QuadInt(2) * m.b)


def phi_matrix():
    """Matrix of phi in basis {f1, f2} (row i = coordinates of phi(f_i))."""
    r1 = basis_coords(phi_apply(F1))
    r2 = basis_coords(phi_apply(F2))
    return [list(r1), list(r2)]


def char_poly_2x2(m) -> tuple[QuadInt, QuadInt]:
    """(trace, det) of a 2x2 matrix over Z[theta]; chi = t^2 - tr*t + det."""
    tr = m[0][0] + m[1][1]
    dt = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return tr, dt


def mat_mul_2x2(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def mat_sub_2x2(x, y):
    return [[x[i][j] - y[i][j] for j in range(2)] for i in range(2)]


def sr_exists_deg2(b: QuadInt, c: QuadInt):
    """Complete SR-factorization decision for t^2 + b t + c over Z[theta].

    Trivial splits test h(1) and h(0) for units; the degree-1 split exists
    iff the discriminant b^2 - 4c is a square in Z[theta] (the ring is
    integrally closed, so rational roots of a monic are integral), and each
    root ordering is tested against the SR unit conditions.
    """
    h0 = c
    h1 = ONE + b + c
    transcript = {
        "h(0)": repr(h0),
        "h(0) unit": h0.is_unit(),
        "h(1)": repr(h1),
        "h(1) unit": h1.is_unit(),
    }
    factors = None
    if h1.is_unit():
        factors = ("1", f"t^2 + ({b})t + ({c})")
        transcript["split"] = "deg(f0) = 0"
    elif h0.is_unit():
        factors = (f"t^2 + ({b})t + ({c})", "1")
        transcript["split"] = "deg(f0) = 2"
    else:
        disc = b * b - QuadInt(4) * c
        transcript["discriminant"] = repr(disc)
        transcript["N(discriminant)"] = disc.norm()
        root = sqrt_in_ring(disc)
        transcript["discriminant square in Z[theta]"] = root is not None
        if root is not None:
            r1 = (-b + root).exact_div(QuadInt(2))
            r2 = (-b - root).exact_div(QuadInt(2))
            assert r1 is not None and r2 is not None, "integral closure violated"
            orderings = []
            for x, y in ((r1, r2), (r2, r1)):
                ok = (-x).is_unit() and (ONE - y).is_unit()
                orderings.append(
                    {
                        "f0": f"t - ({x})",
                        "f0(0) unit": (-x).is_unit(),
                        "f1(1) unit": (ONE - y).is_unit(),
                        "valid": ok,
                    }
                )
                if ok and factors is None:
                    factors = (f"t - ({x})", f"t - ({y})")
            transcript["linear splits"] = orderings
    transcript["exists"] = factors is not None
    if factors is not None:
        transcript["factors"] = list(factors)
    return factors is not None, transcript


def phi_strong_clean_certificate():
    """The (E, U) pair for phi from the X (+) Y splitting, fully re-verified.

    E is the projection onto Y = {[b, b]} along X = {[a, 0]}, i.e.
    E([a, b]) = [b, b]; its matrix in the basis is computed exactly, U is
    A - E, and idempotency, commutation, and det(U) in {1, -1} are checked.
    """
    A = phi_matrix()
    e1 = basis_coords(MElem(F1.b, F1.b))
    e2 = basis_coords(MElem(F2.b, F2.b))
    E = [list(e1), list(e2)]
    U = mat_sub_2x2(A, E)
    checks = {}
    checks["E idempotent"] = mat_mul_2x2(E, E) == E
    checks["A = E + U"] = A == [[E[i][j] + U[i][j] for j in range(2)] for i in range(2)]
    checks["EU = UE"] = mat_mul_2x2(E, U) == mat_mul_2x2(U, E)
    _, det_u = char_poly_2x2(U)
    checks["det(U) unit"] = det_u.is_unit()
    u_inv = None
    if det_u.is_unit():
        # 2x2 adjugate; det is +-1 so the inverse is integral
        adj = [[U[1][1], -U[0][1]], [-U[1][0], U[0][0]]]
        s = det_u
        u_inv = [[adj[i][j] * s for j in range(2)] for i in range(2)]  # s = s^{-1} for +-1
        checks["U U_inv = I"] = mat_mul_2x2(U, u_inv) == [[ONE, ZERO], [ZERO, ONE]]
    ok = all(checks.values())
    return {"E": E, "U": U, "U_inv": u_inv, "checks": checks, "verified": ok}


PRINTED_MATRIX = [
    [QuadInt(5, -1), QuadInt(-1, -2)],
    [QuadInt(-3, -1), QuadInt(-2, 1)],
]
PRINTED_CHI_CONST = QuadInt(2, -8)
PRINTED_CHI_TRACE = QuadInt(3)
PRINTED_DISCRIMINANT = QuadInt(1, -32)

CONVERSION_TABLE = [
    (MElem(QuadInt(2), ZERO), (QuadInt(2), ONE - THETA), "[2,0]"),
    (MElem(ONE + THETA, ZERO), (ONE + THETA, QuadInt(3)), "[1+θ,0]"),
    (MElem(ZERO, QuadInt(2)), (ONE + THETA, QuadInt(2)), "[0,2]"),
    (MElem(ZERO, ONE + THETA), (QuadInt(-2, 1), ONE + THETA), "[0,1+θ]"),
]


def run_audit() -> dict:
    """The full closing-example audit; every quantity recomputed exactly."""
    report: dict = {}

    basis_checks = []
    for m, expected, label in CONVERSION_TABLE:
        got = basis_coords(m)
        basis_checks.append(
            {
                "element": label,
                "expected": [repr(expected[0]), repr(expected[1])],
                "recomputed": [repr(got[0]), repr(got[1])],
                "match": got == tuple(expected),
            }
        )
    report["conversion_formulas"] = basis_checks

    A = phi_matrix()
    report["matrix"] = [[repr(x) for x in row] for row in A]
    report["matrix_matches_printed"] = A == PRINTED_MATRIX

    tr, dt = char_poly_2x2(A)
    disc = tr * tr - QuadInt(4) * dt
    report["char_poly"] = {
        "trace": repr(tr),
        "constant": repr(dt),
        "rendered": f"t^2 - ({tr})t + ({dt})",
    }
    report["discriminant"] = repr(disc)

    exists, transcript = sr_exists_deg2(-tr, dt)
    report["sr_decision_recomputed"] = {"exists": exists, "transcript": transcript}
    p_exists, p_transcript = sr_exists_deg2(-PRINTED_CHI_TRACE, PRINTED_CHI_CONST)
    report["sr_decision_printed"] = {"exists": p_exists, "transcript": p_transcript}

    cert = phi_strong_clean_certificate()
    report["strong_clean_certificate"] = {
        "E": [[repr(x) for x in row] for row in cert["E"]],
        "U": [[repr(x) for x in row] for row in cert["U"]],
        "checks": cert["checks"],
        "verified": cert["verified"],
    }

    discrepancies = [
        {"quantity": quantity, "printed": repr(printed), "recomputed": repr(recomputed)}
        for quantity, printed, recomputed in (
            ("characteristic polynomial constant term", PRINTED_CHI_CONST, dt),
            ("characteristic polynomial trace", PRINTED_CHI_TRACE, tr),
            ("discriminant", PRINTED_DISCRIMINANT, disc),
        )
        if recomputed != printed
    ]
    if exists:
        discrepancies.append(
            {
                "quantity": "headline claim (no SR-factorization)",
                "printed": "chi(A) has no SR-factorization",
                "recomputed": "the recomputed chi(A) DOES have an SR-factorization: "
                + " * ".join(transcript.get("factors", [])),
            }
        )
    report["discrepancies"] = discrepancies

    report["all_verifications_passed"] = (
        all(c["match"] for c in basis_checks)
        and report["matrix_matches_printed"]
        and cert["verified"]
    )
    return report
