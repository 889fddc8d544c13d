"""Command-line front end: JSON-emitting, seeded, byte-deterministic.

Exit codes: 0 decided/completed, 2 unknown or incomplete verdict, 1 usage or
input error, 3 internal verification failure (a certificate failed its
re-check).  Wall-clock timings go to stderr so stdout stays byte-identical
across repeated invocations.

Every command is a fresh process, so its start-up counts: this module
imports only ``errors`` and ``serialize`` (with ``rings`` and ``stalks``
behind it), and each ``cmd_*`` handler imports the modules it runs.
``ring`` builds and classifies a ring and loads nothing more, ``factor``
loads no decider, and only ``z5-example`` loads ``quadz5``.  The result
records are plain ``__slots__`` classes that ``serialize`` encodes type by
type, so no command imports ``dataclasses`` or ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DEFAULT_BUDGET, CleanmatError, VerificationFailed
from .serialize import (
    certificate_from_json,
    dumps_canonical,
    matrix_from_json,
    poly_from_json,
    poly_to_json,
    ring_from_json,
    to_jsonable,
)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


_degree = _at_least(1)


def _load(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON input: {exc}") from exc


def _emit(doc, args) -> None:
    sys.stdout.write(dumps_canonical(doc, pretty=args.pretty))


def build_parser() -> Parser:
    p = Parser(prog="cleanmat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, ring=True):
        sp.set_defaults(run=run)
        if ring:
            sp.add_argument("--ring", required=True, help="ring descriptor JSON or @file")
        sp.add_argument("--pretty", action="store_true", help="indented output")

    sp = sub.add_parser("ring", help="stalk decomposition and classification")
    common(sp, cmd_ring)

    sp = sub.add_parser("factor", help="SR/SRC/gSRC/SP/gSP factorization search")
    common(sp, cmd_factor)
    sp.add_argument("--poly", required=True, help="monic coefficients, low degree first")
    sp.add_argument(
        "--mode",
        default="gsrc",
        choices=["sr", "src", "gsr", "gsrc", "sp", "gsp"],
    )

    for name in ("decide", "pi-regular"):
        sp = sub.add_parser(
            name,
            help="strong cleanness decision"
            if name == "decide"
            else "strong pi-regularity decision",
        )
        common(sp, cmd_decide, ring=False)
        # optional under --verify, which reads the ring from its document
        sp.add_argument("--ring", help="ring descriptor JSON or @file")
        sp.add_argument("--poly", help="monic coefficients (with --companion)")
        sp.add_argument("--matrix", help="row-major matrix JSON or @file")
        sp.add_argument("--companion", action="store_true")
        if name == "decide":
            sp.add_argument("--degree", type=_degree, help="ring-level decision at this degree")
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        sp.add_argument("--verify", help="re-verify a previously emitted document")

    sp = sub.add_parser("audit", help="exhaustive theorem-equivalence audit")
    common(sp, cmd_audit)
    sp.add_argument("--degree", type=_degree, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=_at_least(0), default=5)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--pi", action="store_true", help="audit pi-regularity instead")

    sp = sub.add_parser("triangular", help="certify all upper-triangular matrices")
    common(sp, cmd_triangular)
    sp.add_argument("--degree", type=_degree, required=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("jclean", help="the 2x2 radical-root criterion")
    common(sp, cmd_jclean)

    sp = sub.add_parser("z5-example", help="the Z[sqrt(-5)] module audit")
    common(sp, cmd_z5, ring=False)

    return p


def _input_matrix(R, args):
    from .matrices import companion

    if args.matrix:
        data = _load(args.matrix)
        return matrix_from_json(R, data), {"matrix": data}
    if args.poly and args.companion:
        h = poly_from_json(R, _load(args.poly))
        return companion(h), {"poly": poly_to_json(h), "companion": True}
    ring_level = ", or --degree" if args.command == "decide" else ""
    raise UsageError(f"provide --matrix, or --poly with --companion{ring_level}")


def _decision_exit(decision) -> int:
    from .decide import UNKNOWN

    return 2 if decision.verdict == UNKNOWN else 0


def cmd_ring(args) -> int:
    R = ring_from_json(_load(args.ring))
    doc = {
        "command": "ring",
        "ring": R.descriptor,
        "label": R.label(),
        "stalks": [s.label() for s in R.stalks],
        "size": R.size,
        "primitive_idempotents": [to_jsonable(e) for e in R.primitive_idempotents()],
        "idempotents": [to_jsonable(e) for e in R.idempotents()]
        if R.num_stalks <= 10
        else None,
        "classification": to_jsonable(R.classify()),
    }
    _emit(doc, args)
    return 0


def cmd_factor(args) -> int:
    from .factor import gsp_search, gsrc_search, sp_search, src_search

    R = ring_from_json(_load(args.ring))
    h = poly_from_json(R, _load(args.poly))
    mode = args.mode
    if mode in ("sp", "gsp"):
        res = (gsp_search if mode == "gsp" else sp_search)(h, R)
    else:
        search = gsrc_search if mode.startswith("g") else src_search
        res = search(h, R, "SRC" if mode.endswith("src") else "SR")
    doc = {
        "command": "factor",
        "ring": R.descriptor,
        "poly": poly_to_json(h),
        "mode": mode,
        "result": to_jsonable(res),
    }
    _emit(doc, args)
    return 2 if res.status == "incomplete" else 0


def _parse_document(doc):
    """The ring, input matrix, polynomial and typed certificates of a document."""
    from .matrices import char_poly, companion

    R = ring_from_json(doc["ring"])
    payload = doc.get("decision") or doc.get("result") or {}
    inp = doc.get("input", {})
    A = None
    h = None
    if "matrix" in inp:
        A = matrix_from_json(R, inp["matrix"])
        h = char_poly(A)
    elif "poly" in inp:
        h = poly_from_json(R, inp["poly"])
        if inp.get("companion"):
            A = companion(h)
    elif "poly" in doc:
        h = poly_from_json(R, doc["poly"])
    certs = []
    for key in ("certificate", "factorization"):
        data = payload.get(key)
        if isinstance(data, dict) and "type" in data:
            certs.append((data["type"], certificate_from_json(R, data)))
    return R, A, h, certs


def _verify_document(doc, ring=None) -> list[str]:
    """Failures of the document's certificates; ``ring``, if given, must be its ring."""
    from .verify import (
        verify_gsp,
        verify_gsrc,
        verify_pi_regular,
        verify_sp,
        verify_src,
        verify_strong_clean,
    )

    try:
        R, A, h, certs = _parse_document(doc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed document ({type(exc).__name__}: {exc})") from exc
    if ring is not None and ring.key != R.key:
        raise UsageError(f"--ring {ring.label()} does not match the document's ring {R.label()}")
    fails = []
    for t, cert in certs:
        if t in ("strong_clean", "pi_regular") and A is None:
            raise UsageError(f"a {t} certificate needs a matrix in the document's input")
        if t in ("gsrc", "gsp", "src", "sp") and h is None:
            raise UsageError(f"a {t} certificate needs a polynomial in the document's input")
        if t == "strong_clean":
            fails += verify_strong_clean(A, cert)
        elif t == "pi_regular":
            fails += verify_pi_regular(A, cert)
        elif t == "gsrc":
            fails += verify_gsrc(h, R, cert)
        elif t == "gsp":
            fails += verify_gsp(h, R, cert)
        elif t == "src":
            fails += verify_src(h, cert)
        elif t == "sp":
            fails += verify_sp(h, cert)
    return fails


def cmd_decide(args) -> int:
    if args.verify:
        ring = None if args.ring is None else ring_from_json(_load(args.ring))
        fails = _verify_document(_load(args.verify), ring)
        out = {"command": "verify", "valid": not fails, "failures": fails}
        _emit(out, args)
        return 0 if not fails else 3
    if args.ring is None:
        raise UsageError("the following arguments are required: --ring")
    R = ring_from_json(_load(args.ring))
    pi = args.command == "pi-regular"
    if not pi and args.degree is not None:
        from .decide import decide_ring_strongly_clean

        decision = decide_ring_strongly_clean(R, args.degree, args.budget)
        doc = {
            "command": "decide",
            "ring": R.descriptor,
            "input": {"degree": args.degree, "ring_level": True},
            "decision": to_jsonable(decision),
        }
        _emit(doc, args)
        return _decision_exit(decision)
    A, described = _input_matrix(R, args)
    # imported once the input has parsed: bad input exits without loading the deciders
    from .decide import decide_pi_regular, decide_strongly_clean

    decision = decide_pi_regular(A) if pi else decide_strongly_clean(A)
    doc = {
        "command": args.command,
        "ring": R.descriptor,
        "input": described,
        "decision": to_jsonable(decision),
    }
    _emit(doc, args)
    return _decision_exit(decision)


def cmd_audit(args) -> int:
    from .decide import pi_regular_audit, theorem_main_audit

    R = ring_from_json(_load(args.ring))
    if args.pi:
        report = pi_regular_audit(R, args.degree, args.budget)
        kind = "pi_regular"
    else:
        report = theorem_main_audit(
            R, args.degree, args.budget, samples=args.samples, seed=args.seed
        )
        kind = "strongly_clean"
    print(f"wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    doc = {"command": "audit", "kind": kind, "report": to_jsonable(report)}
    _emit(doc, args)
    return 0 if not report.disagreements else 3


def cmd_triangular(args) -> int:
    from .decide import triangular_sweep

    R = ring_from_json(_load(args.ring))
    report = triangular_sweep(R, args.degree, args.budget)
    print(f"wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    doc = {"command": "triangular", "report": to_jsonable(report)}
    _emit(doc, args)
    return 0 if report.agreements == report.instances else 3


def cmd_jclean(args) -> int:
    from .decide import jclean_quadratic_criterion

    R = ring_from_json(_load(args.ring))
    decision = jclean_quadratic_criterion(R)
    doc = {
        "command": "jclean",
        "ring": R.descriptor,
        "decision": to_jsonable(decision),
    }
    _emit(doc, args)
    return _decision_exit(decision)


def cmd_z5(args) -> int:
    from .quadz5 import run_audit

    report = run_audit()
    doc = {"command": "z5-example", "report": to_jsonable(report)}
    _emit(doc, args)
    return 0 if report["all_verifications_passed"] else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailed as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (CleanmatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
