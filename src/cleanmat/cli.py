"""Command-line front end: JSON-emitting, seeded, byte-deterministic.

Exit codes: 0 decided/completed, 2 unknown or incomplete verdict, 1 usage or
input error, 3 internal verification failure (a certificate failed its
re-check).  Wall-clock timings go to stderr so stdout stays byte-identical
across repeated invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brute import DEFAULT_BUDGET
from .decide import (
    UNKNOWN,
    decide_pi_regular,
    decide_ring_strongly_clean,
    decide_strongly_clean,
    jclean_quadratic_criterion,
    pi_regular_audit,
    theorem_main_audit,
    triangular_sweep,
)
from .errors import CleanmatError, VerificationFailed
from .factor import gsp_search, gsrc_search, sp_search, src_search
from .matrices import char_poly, companion
from .quadz5 import run_audit
from .serialize import (
    certificate_from_json,
    dumps_canonical,
    matrix_from_json,
    poly_from_json,
    poly_to_json,
    ring_from_json,
    to_jsonable,
)
from .verify import (
    verify_gsp,
    verify_gsrc,
    verify_pi_regular,
    verify_sp,
    verify_src,
    verify_strong_clean,
)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _degree(text: str) -> int:
    """argparse type for --degree: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


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

    def common(sp, ring=True):
        if ring:
            sp.add_argument("--ring", required=True, help="ring descriptor JSON or @file")
        sp.add_argument("--pretty", action="store_true", help="indented output")
        sp.add_argument("--json", action="store_true", help="compact output (default)")

    sp = sub.add_parser("ring", help="stalk decomposition and classification")
    common(sp)

    sp = sub.add_parser("factor", help="SR/SRC/gSRC/SP/gSP factorization search")
    common(sp)
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
        common(sp)
        sp.add_argument("--poly", help="monic coefficients (with --companion)")
        sp.add_argument("--matrix", help="row-major matrix JSON or @file")
        sp.add_argument("--companion", action="store_true")
        if name == "decide":
            sp.add_argument("--degree", type=_degree, help="ring-level decision at this degree")
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        sp.add_argument("--verify", help="re-verify a previously emitted document")

    sp = sub.add_parser("audit", help="exhaustive theorem-equivalence audit")
    common(sp)
    sp.add_argument("--degree", type=_degree, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=5)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--pi", action="store_true", help="audit pi-regularity instead")

    sp = sub.add_parser("triangular", help="certify all upper-triangular matrices")
    common(sp)
    sp.add_argument("--degree", type=_degree, required=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("jclean", help="the 2x2 radical-root criterion")
    common(sp)

    sp = sub.add_parser("z5-example", help="the Z[sqrt(-5)] module audit")
    common(sp, ring=False)

    return p


def _input_matrix(R, args):
    if args.matrix:
        return matrix_from_json(R, _load(args.matrix)), {"matrix": _load(args.matrix)}
    if args.poly and args.companion:
        h = poly_from_json(R, _load(args.poly))
        return companion(h), {"poly": poly_to_json(h), "companion": True}
    ring_level = ", or --degree" if args.command == "decide" else ""
    raise UsageError(f"provide --matrix, or --poly with --companion{ring_level}")


def _decision_exit(decision) -> int:
    return 2 if decision.verdict == UNKNOWN else 0


def cmd_ring(args) -> int:
    R = ring_from_json(_load(args.ring))
    cls = R.classify()
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
        "classification": {
            "is_local": cls.is_local,
            "is_clean": cls.is_clean,
            "is_j_clean": cls.is_j_clean,
        },
    }
    _emit(doc, args)
    return 0


def cmd_factor(args) -> int:
    R = ring_from_json(_load(args.ring))
    h = poly_from_json(R, _load(args.poly))
    mode = args.mode
    if mode == "sr":
        res = src_search(h, R, "SR")
    elif mode == "src":
        res = src_search(h, R, "SRC")
    elif mode == "gsr":
        res = gsrc_search(h, R, "SR")
    elif mode == "gsrc":
        res = gsrc_search(h, R, "SRC")
    elif mode == "sp":
        res = sp_search(h, R)
    else:
        res = gsp_search(h, R)
    doc = {
        "command": "factor",
        "ring": R.descriptor,
        "poly": poly_to_json(h),
        "mode": mode,
        "result": to_jsonable(res),
    }
    _emit(doc, args)
    return 2 if res.status == "incomplete" else 0


def _verify_document(doc) -> list[str]:
    R = ring_from_json(doc["ring"])
    fails = []
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
    for key in ("certificate", "factorization"):
        data = payload.get(key)
        if not isinstance(data, dict) or "type" not in data:
            continue
        cert = certificate_from_json(R, data)
        t = data["type"]
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


def cmd_decide(args, pi: bool) -> int:
    if args.verify:
        doc = _load(args.verify)
        fails = _verify_document(doc)
        out = {"command": "verify", "valid": not fails, "failures": fails}
        _emit(out, args)
        return 0 if not fails else 3
    R = ring_from_json(_load(args.ring))
    if not pi and args.degree is not None:
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
    decision = decide_pi_regular(A) if pi else decide_strongly_clean(A)
    doc = {
        "command": "pi-regular" if pi else "decide",
        "ring": R.descriptor,
        "input": described,
        "decision": to_jsonable(decision),
    }
    _emit(doc, args)
    return _decision_exit(decision)


def cmd_audit(args) -> int:
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
    R = ring_from_json(_load(args.ring))
    report = triangular_sweep(R, args.degree, args.budget)
    print(f"wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    doc = {"command": "triangular", "report": to_jsonable(report)}
    _emit(doc, args)
    return 0 if report.agreements == report.instances else 3


def cmd_jclean(args) -> int:
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
    report = run_audit()
    doc = {"command": "z5-example", "report": to_jsonable(report)}
    _emit(doc, args)
    return 0 if report["all_verifications_passed"] else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ring":
            return cmd_ring(args)
        if args.command == "factor":
            return cmd_factor(args)
        if args.command == "decide":
            return cmd_decide(args, pi=False)
        if args.command == "pi-regular":
            return cmd_decide(args, pi=True)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "triangular":
            return cmd_triangular(args)
        if args.command == "jclean":
            return cmd_jclean(args)
        if args.command == "z5-example":
            return cmd_z5(args)
        raise UsageError(f"unknown command {args.command!r}")
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
