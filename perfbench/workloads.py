"""The three benchmark workloads: input generation, one item, output checks.

Each workload is closed loop with one client: the next item starts when the
previous one has returned.  ``setup`` imports the package, builds the rings
and generates the first inputs; ``item(i)`` is the i-th input, a pure
function of the seed; ``run`` executes one item (the timed part);
``check`` returns the failures of one record as (failed units, messages);
``status`` is the verdict-only tuple that feeds the digest.

Program functions are always called through their module attribute
(``F.gsrc_search``), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from pace import BARE_NOMINAL_S, Pace, bare_interpreter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    return {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(SRC)}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Crash:
    """Record of an item that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


# -- fuzz_mixed ---------------------------------------------------------------------


def _f4_tables():
    """GF(4): b1*a + b0 encoded as 2*b1 + b0, with a^2 = a + 1."""

    def mul(x, y):
        x1, x0 = divmod(x, 2)
        y1, y0 = divmod(y, 2)
        return 2 * ((x1 * y0 + x0 * y1 + x1 * y1) % 2) + (x0 * y0 + x1 * y1) % 2

    return [[i ^ j for j in range(4)] for i in range(4)], [[mul(i, j) for j in range(4)] for i in range(4)]


def _dual_f2_tables():
    """F_2[x]/(x^2): b1*x + b0 encoded as 2*b1 + b0."""

    def mul(x, y):
        x1, x0 = divmod(x, 2)
        y1, y0 = divmod(y, 2)
        return 2 * ((x1 * y0 + x0 * y1) % 2) + (x0 * y0) % 2

    return [[i ^ j for j in range(4)] for i in range(4)], [[mul(i, j) for j in range(4)] for i in range(4)]


def _f2xf2_tables():
    """F_2 x F_2 as a raw table, so the ring splits into two stalks."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    add = [[idx[((a0 + b0) % 2, (a1 + b1) % 2)] for b0, b1 in pairs] for a0, a1 in pairs]
    mul = [[idx[(a0 * b0, a1 * b1)] for b0, b1 in pairs] for a0, a1 in pairs]
    return add, mul


def _zloc(p):
    return {"type": "zloc", "p": p}


FUZZ_RINGS = [
    {"type": "zmod", "n": 4},
    {"type": "zmod", "n": 5},
    {"type": "zmod", "n": 6},
    {"type": "zmod", "n": 8},
    {"type": "zmod", "n": 9},
    {"type": "zmod", "n": 12},
    _zloc(2),
    _zloc(3),
    _zloc(5),
    {"type": "product", "factors": [_zloc(2), _zloc(2)]},
    {"type": "product", "factors": [{"type": "zmod", "n": 4}, _zloc(3)]},
] + [
    {"type": "table", "add": add, "mul": mul}
    for add, mul in (_f4_tables(), _dual_f2_tables(), _f2xf2_tables())
]
FUZZ_DEGREES = (1, 1, 2, 2, 2, 3)
FUZZ_CHUNK = 500


def _is_unit_zloc(x: Fraction, p: int) -> bool:
    return x != 0 and x.numerator % p != 0 and x.denominator % p != 0


def zloc_src_exists(coeffs: list[Fraction], p: int) -> bool:
    """Does the monic h (low degree first) have an SRC split over Z_(p)?

    Decided by sympy: Z_(p) is integrally closed, so the monic factors of h
    over Z_(p) are the monic factors over Q; try every sub-multiset of the
    irreducible factors as f0 and test f0(0), f1(1) and Res(f0, f1) for units.
    """
    import sympy

    t = sympy.Symbol("t")
    h = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain="QQ")
    _, factors = h.factor_list()
    factors = [(f.monic(), e) for f, e in factors]

    def unit(v):
        v = sympy.Rational(v)
        return _is_unit_zloc(Fraction(int(v.p), int(v.q)), p)

    for ks in itertools.product(*(range(e + 1) for _, e in factors)):
        f0 = sympy.Poly(1, t, domain="QQ")
        for (f, _), k in zip(factors, ks):
            f0 = f0 * f**k
        f1, rem = h.div(f0)
        assert rem.is_zero
        if not (unit(f0.eval(0)) and unit(f1.eval(1))):
            continue
        if f0.degree() == 0 or f1.degree() == 0 or unit(f0.resultant(f1)):
            return True
    return False


def zloc_sp_exists(coeffs: list[Fraction], p: int) -> bool:
    """h = t^v * h0 with h0(0) a unit: the only SP shape over a domain."""
    low = next(c for c in coeffs if c != 0)
    return _is_unit_zloc(low, p)


class FuzzMixed:
    """The criterion-9 certificate fuzz: mixed rings, degrees 1-3."""

    name = "fuzz_mixed"
    default_seed = 90125
    tail = 0.99
    cycle = 1
    pace = Pace
    trace_items_per_s = 100

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cleanmat import decide, factor, matrices, rings, verify

        self.D, self.F, self.M, self.V = decide, factor, matrices, verify
        self.rings = [rings.build_ring(d) for d in FUZZ_RINGS]
        self.rng = random.Random(self.seed)
        self.first = 0  # index of self.inputs[0]; inputs are generated in chunks
        self.inputs = []
        self.pending = {}  # distinct Z_(p) absences, re-decided by ``finish``
        self._generate(FUZZ_CHUNK)

    def _generate(self, count):
        from cleanmat.polys import Poly

        self.first += len(self.inputs)
        self.inputs = []
        rng = self.rng
        for _ in range(count):
            k = rng.randrange(len(self.rings))
            R = self.rings[k]
            deg = rng.choice(FUZZ_DEGREES)
            h = Poly(R, [R.random_element(rng) for _ in range(deg)] + [R.one])
            self.inputs.append((self.first + len(self.inputs), R, deg, h))

    def item(self, i):
        """The i-th input; i only moves forward, one chunk is kept."""
        while i >= self.first + len(self.inputs):
            self._generate(FUZZ_CHUNK)
        return self.inputs[i - self.first]

    def run(self, inp):
        """One instance, as criterion 9 runs it; returns (statuses, rejections)."""
        i, R, deg, h = inp
        F, V, D = self.F, self.V, self.D
        statuses, rejected = [], []

        def search(kind, res, verifier, *ctx):
            statuses.append((kind, res.status))
            if res.found and verifier(*ctx, res.certificate):
                rejected.append(kind)

        search("gsrc", F.gsrc_search(h, R, "SRC"), V.verify_gsrc, h, R)
        search("gsp", F.gsp_search(h, R), V.verify_gsp, h, R)
        if i % 23 == 0:
            search("src", F.src_search(h, R, "SRC"), V.verify_src, h)
            search("sp", F.sp_search(h, R), V.verify_sp, h)
        if deg == 2 and (i % 17 == 0 or i % 29 == 0):
            A = self.M.companion(h)
            if i % 17 == 0:
                d = D.decide_strongly_clean(A)
                statuses.append(("strongly_clean", d.verdict))
                if d.verdict == "yes" and V.verify_strong_clean(A, d.certificate):
                    rejected.append("strongly_clean")
            if i % 29 == 0:
                d = D.decide_pi_regular(A, cross_check=False)
                statuses.append(("pi_regular", d.verdict))
                if d.verdict == "yes" and V.verify_pi_regular(A, d.certificate):
                    rejected.append("pi_regular")
        return tuple(statuses), tuple(rejected)

    def size(self, inp, rec):
        return 1

    def status(self, inp, rec):
        return None if isinstance(rec, Crash) else rec[0]

    def check(self, inp, rec):
        """Immediate checks; an absence over Z_(p) is queued for ``finish``."""
        if isinstance(rec, Crash):
            return 1, [f"item {inp[0]}: {rec.message}"]
        i, R, deg, h = inp
        statuses, rejected = rec
        msgs = [f"item {i}: {kind} certificate rejected by cleanmat.verify" for kind in rejected]
        found = dict(statuses)
        for kind, st in statuses:
            if st == "incomplete" or st == "unknown":
                msgs.append(f"item {i}: {kind} is {st} at degree {deg}")
        for kind, verdict_kind in (("gsrc", "strongly_clean"), ("gsp", "pi_regular")):
            st = found[kind]
            if st == "absent" and R.is_finite:
                msgs.append(f"item {i}: {kind} absent over the finite ring {R.label()}")
            verdict = found.get(verdict_kind)
            if verdict is not None and verdict != {"found": "yes", "absent": "no"}.get(st):
                msgs.append(f"item {i}: {verdict_kind} verdict {verdict} disagrees with {kind} {st}")
        if not msgs:
            for kind in ("gsrc", "gsp"):
                if found[kind] == "absent":
                    stalks = tuple(
                        (s.p, tuple(c.parts[j] for c in h.coeffs))
                        for j, s in enumerate(R.stalks)
                        if s.kind == "zloc"
                    )
                    self.pending.setdefault((kind, stalks), (i, R.label()))
        return (1 if msgs else 0), msgs

    def finish(self):
        """Re-decide the queued absences independently of the program.

        A gSRC (gSP) exists iff every stalk has an SRC (SP) split; finite
        local stalks always have one, Z_(p) stalks are decided here.
        """
        failed, msgs = 0, []
        for (kind, stalks), (i, label) in self.pending.items():
            exists = zloc_src_exists if kind == "gsrc" else zloc_sp_exists
            if all(exists(list(coeffs), p) for p, coeffs in stalks):
                failed += 1
                msgs.append(f"item {i}: {kind} absent but sympy finds one over {label}")
        self.pending = {}
        return failed, msgs

    def peak_rss_mb(self):
        return self_peak_rss_mb()


# -- audit_sweep --------------------------------------------------------------------

AUDIT_CALLS = (
    [("theorem_main", n, 2) for n in (8, 9, 12, 16)]
    + [("theorem_main", n, 3) for n in (2, 3)]
    + [("pi_regular", n, 2) for n in (8, 9, 12, 16)]
    + [("triangular", 8, 2), ("triangular", 3, 3)]
)


class AuditSweep:
    """theorem_main_audit, pi_regular_audit and triangular_sweep over Z/n."""

    name = "audit_sweep"
    default_seed = 2024
    tail = 1.0
    cycle = len(AUDIT_CALLS)
    pace = Pace
    trace_items_per_s = 0.4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cleanmat import decide, rings

        self.D = decide
        self.rings = {n: rings.build_ring({"type": "zmod", "n": n}) for _, n, _ in AUDIT_CALLS}

    def item(self, i):
        cycle, k = divmod(i, len(AUDIT_CALLS))
        kind, n, deg = AUDIT_CALLS[k]
        return kind, n, deg, self.seed + cycle

    def run(self, inp):
        kind, n, deg, seed = inp
        R = self.rings[n]
        if kind == "theorem_main":
            rep = self.D.theorem_main_audit(R, deg, samples=5, seed=seed)
        elif kind == "pi_regular":
            rep = self.D.pi_regular_audit(R, deg)
        else:
            rep = self.D.triangular_sweep(R, deg)
        return rep.instances, rep.agreements, len(rep.disagreements), dict(rep.routes)

    def size(self, inp, rec):
        kind, n, deg, _ = inp
        return n ** (deg * (deg + 1) // 2) if kind == "triangular" else n**deg

    def status(self, inp, rec):
        return None if isinstance(rec, Crash) else (inp[0], inp[1], inp[2], rec[0], rec[1])

    def check(self, inp, rec):
        expected = self.size(inp, rec)
        label = "{} Z/{} degree {}".format(*inp[:3])
        if isinstance(rec, Crash):
            return expected, [f"{label}: {rec.message}"]
        instances, _, disagreements, routes = rec
        if instances != expected:
            return expected, [f"{label}: {instances} instances, expected {expected}"]
        # finite local stalks are Henselian and Fitting: gSRC and gSP always exist
        absent = routes.get("gsrc_absent", 0) + routes.get("gsp_absent", 0)
        failed = min(expected, disagreements + absent)
        msgs = []
        if disagreements:
            msgs.append(f"{label}: {disagreements} disagreements")
        if absent:
            msgs.append(f"{label}: {absent} absences over a finite ring")
        return failed, msgs

    def finish(self):
        return 0, []

    def peak_rss_mb(self):
        return self_peak_rss_mb()


# -- cli_cold -----------------------------------------------------------------------

PROD2 = json.dumps({"type": "product", "factors": [_zloc(2), _zloc(2)]})
ZLOC2 = json.dumps(_zloc(2))
PAPER_POLY = "[[2,3],[3,1],[1,1]]"
VERIFY_INPUT = OUT_DIR / "verify_input.json"
VERIFY_SOURCE = ["decide", "--ring", ZLOC2, "--poly", "[2,-1,1]", "--companion"]


def _zmod(n):
    return json.dumps({"type": "zmod", "n": n})


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_near_million(rng):
    n = 10**6 + rng.randrange(10**4)
    while not _is_prime(n):
        n += 1
    return ["ring", "--ring", _zmod(n)]


def _zloc_degree5(rng):
    p = rng.choice((2, 3, 5))
    coeffs = [rng.randint(-9, 9) for _ in range(5)]
    if coeffs[0] % p == 0:
        coeffs[0] += 1  # h(0) a unit keeps the verdict decided (exit 0)
    return ["decide", "--ring", json.dumps(_zloc(p)), "--poly", json.dumps(coeffs + [1]), "--companion"]


def _z27_degree3(rng):
    coeffs = [rng.randrange(27) for _ in range(3)]
    return ["factor", "--ring", _zmod(27), "--poly", json.dumps(coeffs + [1]), "--mode", "gsrc"]


def _non_monic(rng):
    n = rng.randrange(4, 13)
    coeffs = [rng.randrange(n) for _ in range(2)] + [rng.randrange(2, n)]
    return ["decide", "--ring", _zmod(n), "--poly", json.dumps(coeffs), "--companion"]


def _fixed(*argv):
    return lambda rng: list(argv)


# (name, argv maker, expected exit code); the first twelve are the README examples
CLI_TEMPLATES = [
    ("ring_zmod12", _fixed("ring", "--ring", _zmod(12)), 0),
    ("factor_sr_paper", _fixed("factor", "--ring", PROD2, "--poly", PAPER_POLY, "--mode", "sr"), 0),
    ("decide_paper", _fixed("decide", "--ring", PROD2, "--poly", PAPER_POLY, "--companion"), 0),
    ("decide_not_clean", _fixed(*VERIFY_SOURCE), 0),
    ("decide_ring_zloc2", _fixed("decide", "--ring", ZLOC2, "--degree", "2"), 0),
    ("audit_zmod6", _fixed("audit", "--ring", _zmod(6), "--degree", "2"), 0),
    ("audit_pi_zmod4", _fixed("audit", "--ring", _zmod(4), "--degree", "2", "--pi"), 0),
    ("pi_regular_zmod6", _fixed("pi-regular", "--ring", _zmod(6), "--poly", "[2,3,1]", "--companion"), 0),
    ("triangular_zmod4", _fixed("triangular", "--ring", _zmod(4), "--degree", "2"), 0),
    ("jclean_zloc2", _fixed("jclean", "--ring", ZLOC2), 0),
    ("z5_example", _fixed("z5-example", "--pretty"), 0),
    ("verify_document", _fixed("decide", "--ring", ZLOC2, "--verify", f"@{VERIFY_INPUT}"), 0),
    ("ring_prime_1e6", _prime_near_million, 0),
    ("decide_zloc_degree5", _zloc_degree5, 0),
    ("factor_z27_degree3", _z27_degree3, 0),
    ("input_error", _non_monic, 1),
]


def _status_of(doc: dict) -> tuple:
    decision = doc.get("decision") or {}
    result = doc.get("result") or {}
    report = doc.get("report") or {}
    return (
        doc.get("command"),
        decision.get("verdict"),
        result.get("status"),
        report.get("instances"),
        report.get("agreements"),
        report.get("all_verifications_passed"),
        doc.get("valid"),
        json.dumps(doc.get("classification"), sort_keys=True),
    )


class CliRecord:
    def __init__(self, rc, stdout, stderr, child=None):
        self.rc, self.stdout, self.stderr, self.child = rc, stdout, stderr, child


class CliCold:
    """Fresh ``python -m cleanmat.cli`` processes, one at a time."""

    name = "cli_cold"
    default_seed = 2052
    tail = 0.90
    cycle = len(CLI_TEMPLATES)
    trace_items_per_s = 1.6

    @staticmethod
    def pace():
        return Pace(bare_interpreter, BARE_NOMINAL_S, every_s=1.0, on_timer=False)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cleanmat import cli, matrices, serialize, verify

        self.M, self.S, self.V = matrices, serialize, verify
        self.env = child_env()
        self.rng = random.Random(self.seed)
        self.order: list[int] = []
        self.inputs = []
        self.max_child_rss_kb = 0
        OUT_DIR.mkdir(exist_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli.main(VERIFY_SOURCE) != 0:
                raise RuntimeError("could not produce the --verify input document")
        VERIFY_INPUT.write_text(buf.getvalue(), encoding="utf-8")

    def item(self, i):
        while i >= len(self.inputs):
            if not self.order:
                self.order = list(range(len(CLI_TEMPLATES)))
                self.rng.shuffle(self.order)
            name, build, rc = CLI_TEMPLATES[self.order.pop()]
            self.inputs.append((name, build(self.rng), rc))
        return self.inputs[i]

    def run(self, inp, trace_file=None):
        """Spawn one CLI process and wait for it; the timing spans spawn to exit."""
        argv = ["-m", "cleanmat.cli"] if trace_file is None else [str(BENCH_DIR / "cli_child.py"), str(trace_file)]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv, *inp[1]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        )
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        child = None
        if trace_file is not None:
            child = json.loads(Path(trace_file).read_text(encoding="utf-8"))
            child["raw"]["cli.interp_s"] = child.pop("started") - spawned
        return CliRecord(proc.returncode, out.decode(), err[0].decode(), child)

    def size(self, inp, rec):
        return 1

    def status(self, inp, rec):
        if isinstance(rec, Crash):
            return None
        if rec.rc != 0 or not rec.stdout:
            return inp[0], rec.rc
        return (inp[0], rec.rc) + _status_of(json.loads(rec.stdout))

    def verify_document(self, doc) -> list[str]:
        """Re-verify every certificate a document carries.

        Written here rather than calling the CLI's own ``--verify`` code, so
        that the check does not depend on the code it checks.
        """
        S, V = self.S, self.V
        payload = doc.get("decision") or doc.get("result") or {}
        certs = [payload.get(k) for k in ("certificate", "factorization")]
        certs = [c for c in certs if isinstance(c, dict) and "type" in c]
        if not certs:
            return []
        R = S.ring_from_json(doc["ring"])
        inp = doc.get("input", {})
        A = h = None
        if "matrix" in inp:
            A = S.matrix_from_json(R, inp["matrix"])
        elif "poly" in inp or "poly" in doc:
            h = S.poly_from_json(R, inp.get("poly", doc.get("poly")))
            if inp.get("companion"):
                A = self.M.companion(h)
        if A is not None and h is None:
            h = self.M.char_poly(A)
        fails = []
        for data in certs:
            cert = S.certificate_from_json(R, data)
            kind = data["type"]
            if kind == "strong_clean":
                fails += V.verify_strong_clean(A, cert)
            elif kind == "pi_regular":
                fails += V.verify_pi_regular(A, cert)
            elif kind == "gsrc":
                fails += V.verify_gsrc(h, R, cert)
            elif kind == "gsp":
                fails += V.verify_gsp(h, R, cert)
            elif kind == "src":
                fails += V.verify_src(h, cert)
            elif kind == "sp":
                fails += V.verify_sp(h, cert)
        return fails

    def check(self, inp, rec):
        name, argv, expected_rc = inp
        if isinstance(rec, Crash):
            return 1, [f"{name}: {rec.message}"]
        msgs = []
        if rec.rc != expected_rc:
            msgs.append(f"{name}: exit code {rec.rc}, expected {expected_rc} ({rec.stderr.strip()[:200]})")
        elif expected_rc == 1:
            if rec.stdout or not rec.stderr.startswith("error:") or rec.stderr.count("\n") != 1:
                msgs.append(f"{name}: input error must print one 'error:' line and no document")
        else:
            try:
                doc = json.loads(rec.stdout)
            except json.JSONDecodeError as exc:
                return 1, [f"{name}: stdout is not JSON ({exc})"]
            if self.S.dumps_canonical(doc, pretty="--pretty" in argv) != rec.stdout:
                msgs.append(f"{name}: stdout does not re-dump byte-identically")
            msgs += [f"{name}: certificate rejected: {m}" for m in self.verify_document(doc)]
            report = doc.get("report") or {}
            if "disagreements" in report and report["disagreements"]:
                msgs.append(f"{name}: audit disagreements")
            if report.get("all_verifications_passed") is False or doc.get("valid") is False:
                msgs.append(f"{name}: the document reports a failed verification")
        return (1 if msgs else 0), msgs

    def finish(self):
        return 0, []

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (FuzzMixed, AuditSweep, CliCold)}
