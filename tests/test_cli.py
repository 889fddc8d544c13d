from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from conftest import CERT_RINGS

import cleanmat
from cleanmat.cli import main

SRC = str(Path(cleanmat.__file__).resolve().parents[1])

PROD = '{"type":"product","factors":[{"type":"zloc","p":2},{"type":"zloc","p":2}]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_paper_example(capsys):
    code, out, _ = run(
        capsys,
        "decide", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--companion",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["verdict"] == "yes"
    assert doc["decision"]["route"] == "gSRC"
    assert len(doc["decision"]["factorization"]["blocks"]) == 2


def test_decide_negative_companion(capsys):
    code, out, _ = run(
        capsys,
        "decide", "--ring", '{"type":"zloc","p":2}', "--poly", "[2,-1,1]", "--companion",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["verdict"] == "no"
    assert doc["decision"]["route"] == "companion_negation"


def test_audit_document(capsys):
    code, out, _ = run(capsys, "audit", "--ring", '{"type":"zmod","n":6}', "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["instances"] == 36
    assert doc["report"]["disagreements"] == []
    assert "wall_time_s" not in doc["report"]


def test_byte_determinism(capsys):
    args = ["decide", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--companion"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, z1, _ = run(capsys, "z5-example")
    _, z2, _ = run(capsys, "z5-example")
    assert z1 == z2


def test_exit_codes(capsys):
    # unknown verdict -> 2 (non-companion matrix over an infinite ring)
    from cleanmat.matrices import random_with_charpoly
    from cleanmat.polys import Poly
    from cleanmat.rings import build_ring
    from cleanmat.serialize import matrix_to_json

    Z2 = build_ring({"type": "zloc", "p": 2})
    A = random_with_charpoly(Poly.from_ints(Z2, [2, -1, 1]), seed=3)
    code, out, _ = run(
        capsys,
        "decide", "--ring", '{"type":"zloc","p":2}',
        "--matrix", json.dumps(matrix_to_json(A)),
    )
    assert code == 2
    assert json.loads(out)["decision"]["verdict"] == "unknown"

    # usage error -> 1
    code, _, err = run(capsys, "decide", "--ring", '{"type":"zmod","n":6}')
    assert code == 1 and "error" in err

    # malformed ring -> 1
    code, _, err = run(capsys, "ring", "--ring", '{"type":"nope"}')
    assert code == 1

    # incomplete factor search -> 2
    code, out, _ = run(
        capsys,
        "factor", "--ring", '{"type":"zloc","p":2}', "--poly", "[2,1,0,0,1]",
        "--mode", "src",
    )
    assert code == 2
    assert json.loads(out)["result"]["status"] == "incomplete"


def test_verify_roundtrip(capsys, tmp_path):
    args = ["decide", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--companion"]
    _, out, _ = run(capsys, *args)
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(out)
    code, vout, _ = run(capsys, "decide", "--ring", PROD, "--verify", f"@{doc_path}")
    assert code == 0
    assert json.loads(vout)["valid"] is True

    # tamper with the certificate: E loses idempotency
    doc = json.loads(out)
    doc["decision"]["certificate"]["E"][0][0] = ["1/1", "1/1"]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    code, vout, _ = run(capsys, "decide", "--ring", PROD, "--verify", f"@{bad_path}")
    assert code == 3
    assert json.loads(vout)["valid"] is False


def _set_idempotent(value):
    def mutate(blocks):
        blocks[0]["idempotent"] = value

    return mutate


def _swap_idempotents(blocks):
    blocks[0]["idempotent"], blocks[1]["idempotent"] = (
        blocks[1]["idempotent"],
        blocks[0]["idempotent"],
    )


@pytest.mark.parametrize(
    "mutate",
    [
        _set_idempotent(["0/1", "2/1"]),
        _set_idempotent(["0/1", "0/1"]),
        _set_idempotent(["1/1", "1/1"]),
        _swap_idempotents,
    ],
    ids=["not-0/1", "all-zeros", "all-ones", "swapped"],
)
def test_a_tampered_block_idempotent_fails_verification(capsys, tmp_path, mutate):
    """Exit 3 with one failure: the idempotent is not its support's indicator."""
    _, out, _ = run(
        capsys, "decide", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--companion"
    )
    doc = json.loads(out)
    path = tmp_path / "doc.json"
    path.write_text(out)
    assert run(capsys, "decide", "--ring", PROD, "--verify", f"@{path}")[0] == 0
    mutate(doc["decision"]["factorization"]["blocks"])
    path.write_text(json.dumps(doc))
    code, vout, err = run(capsys, "decide", "--ring", PROD, "--verify", f"@{path}")
    assert (code, err) == (3, "")
    assert json.loads(vout) == {
        "command": "verify",
        "failures": ["block idempotent does not match its support"],
        "valid": False,
    }


def test_verify_roundtrip_pi_regular(capsys, tmp_path):
    args = ["pi-regular", "--ring", '{"type":"zmod","n":6}', "--poly", "[2,3,1]", "--companion"]
    _, out, _ = run(capsys, *args)
    p = tmp_path / "pi.json"
    p.write_text(out)
    code, vout, _ = run(
        capsys, "pi-regular", "--ring", '{"type":"zmod","n":6}', "--verify", f"@{p}"
    )
    assert code == 0 and json.loads(vout)["valid"] is True


def test_verify_reads_the_ring_from_its_document(capsys, tmp_path):
    """--ring is optional under --verify; given, it must name the document's ring."""
    z6 = '{"type":"zmod","n":6}'
    valid = {"command": "verify", "failures": [], "valid": True}
    for command in ("decide", "pi-regular"):
        _, out, _ = run(capsys, command, "--ring", z6, "--poly", "[2,3,1]", "--companion")
        p = tmp_path / f"{command}.json"
        p.write_text(out)
        for ring in ([], ["--ring", z6], ["--ring", '{"n":6,"type":"zmod"}']):
            code, vout, err = run(capsys, command, *ring, "--verify", f"@{p}")
            assert (code, json.loads(vout), err) == (0, valid, ""), ring
        code, vout, err = run(capsys, command, "--ring", '{"type":"zmod","n":12}', "--verify", f"@{p}")
        assert (code, vout) == (1, "")
        assert err == "error: --ring Z/12 does not match the document's ring Z/6\n"
        # without --verify the ring is still required
        code, vout, err = run(capsys, command, "--poly", "[2,3,1]", "--companion")
        assert (code, vout) == (1, "")
        assert err == "error: the following arguments are required: --ring\n"


def test_pi_regular_over_f4_answers_from_gsp_alone(capsys, tmp_path):
    # t^10 + 1 over F4: an exhaustive table solve would face 4^10 candidate
    # vectors, while the gSP certificate is built and verified directly
    f4 = json.dumps(CERT_RINGS["F4"])
    poly = "[1,0,0,0,0,0,0,0,0,0,1]"
    code, out, err = run(capsys, "pi-regular", "--ring", f4, "--poly", poly, "--companion")
    assert (code, err) == (0, "")
    assert json.loads(out)["decision"]["verdict"] == "yes"
    p = tmp_path / "f4.json"
    p.write_text(out)
    code, vout, _ = run(capsys, "pi-regular", "--ring", f4, "--verify", f"@{p}")
    assert code == 0 and '"valid":true' in vout


def test_verify_without_an_input_matrix_is_an_input_error(capsys, tmp_path):
    ring = '{"type":"zmod","n":6}'
    for command in ("decide", "pi-regular"):
        _, out, _ = run(capsys, command, "--ring", ring, "--poly", "[2,3,1]", "--companion")
        doc = json.loads(out)
        del doc["input"]["companion"]
        p = tmp_path / f"{command}.json"
        p.write_text(json.dumps(doc))
        code, vout, err = run(capsys, command, "--ring", ring, "--verify", f"@{p}")
        assert code == 1 and vout == ""
        assert err.startswith("error:") and "matrix" in err and err.count("\n") == 1

    # a factorization document without its polynomial fails the same way
    _, out, _ = run(capsys, "factor", "--ring", ring, "--poly", "[2,3,1]")
    doc = json.loads(out)
    del doc["poly"]
    p = tmp_path / "factor.json"
    p.write_text(json.dumps(doc))
    code, vout, err = run(capsys, "decide", "--ring", ring, "--verify", f"@{p}")
    assert code == 1 and vout == ""
    assert err.startswith("error:") and "polynomial" in err and err.count("\n") == 1


def test_factor_and_ring_documents(capsys):
    code, out, _ = run(
        capsys, "factor", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--mode", "sr"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "absent"
    degrees = doc["result"]["transcript"]["stalks"][0]["degrees"]
    assert set(degrees) == {"0", "1", "2"}

    code, out, _ = run(capsys, "ring", "--ring", '{"type":"zmod","n":12}')
    doc = json.loads(out)
    assert doc["stalks"] == ["Z/4", "Z/3"] and doc["size"] == 12


def test_jclean_and_triangular_and_z5(capsys):
    code, out, _ = run(capsys, "jclean", "--ring", '{"type":"zloc","p":2}')
    assert code == 0
    assert json.loads(out)["decision"]["verdict"] == "no"

    code, out, _ = run(
        capsys, "triangular", "--ring", '{"type":"zmod","n":4}', "--degree", "2"
    )
    assert code == 0
    assert json.loads(out)["report"]["agreements"] == 64

    code, out, _ = run(capsys, "z5-example")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["all_verifications_passed"]
    assert len(rep["discrepancies"]) == 3


def test_ring_level_decide_cli(capsys):
    code, out, _ = run(
        capsys, "decide", "--ring", '{"type":"zloc","p":2}', "--degree", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"]["verdict"] == "no"
    assert doc["decision"]["refutation"]["witness_h"] == [["2/1"], ["-1/1"], ["1/1"]]


def test_degree_below_one_is_a_usage_error(capsys):
    """Rejected with exit 1 and one line, before any enumeration starts."""
    z4 = '{"type":"zmod","n":4}'
    cases = [
        ("audit", "--ring", z4, "--degree", "-2"),
        ("audit", "--ring", z4, "--degree", "0", "--pi"),
        ("triangular", "--ring", z4, "--degree", "-1"),
        ("decide", "--ring", z4, "--degree", "0"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err == f"error: argument --degree: must be at least 1, got {argv[4]}\n"
    # pi-regular has no ring-level decision, so it has no --degree at all
    code, out, err = run(
        capsys, "pi-regular", "--ring", z4, "--degree", "-3", "--companion", "--poly", "[1,1]"
    )
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --degree -3\n"


def test_negative_sample_count_is_a_usage_error(capsys):
    """Rejected with exit 1 and one line, like a degree below 1."""
    code, out, err = run(
        capsys, "audit", "--ring", '{"type":"zmod","n":4}', "--degree", "2", "--samples", "-3"
    )
    assert (code, out) == (1, "")
    assert err == "error: argument --samples: must be at least 0, got -3\n"


def test_pi_regular_rejects_ring_level_flags(capsys):
    """pi-regular takes no --degree or --budget; argparse rejects both."""
    z4 = '{"type":"zmod","n":4}'
    for flag, value in (("--degree", "2"), ("--budget", "5")):
        code, out, err = run(
            capsys, "pi-regular", "--ring", z4, flag, value, "--companion", "--poly", "[1,1]"
        )
        assert code == 1 and out == ""
        assert err == f"error: unrecognized arguments: {flag} {value}\n"
    code, out, err = run(capsys, "pi-regular", "--ring", z4, "--degree", "2")
    assert code == 1 and out == "" and err.count("\n") == 1
    code, out, err = run(capsys, "pi-regular", "--ring", z4)
    assert code == 1 and out == ""
    assert err == "error: provide --matrix, or --poly with --companion\n"
    code, out, err = run(capsys, "decide", "--ring", z4)
    assert err == "error: provide --matrix, or --poly with --companion, or --degree\n"


def _python(*argv, timeout=10):
    """Run a fresh interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_numpy_loads_only_for_the_exhaustive_scan():
    """No command loads numpy, the exhaustive scan included; the scan kernel
    loads only for the audit."""
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import cleanmat, cleanmat.cli
        from cleanmat.cli import main
        z6 = '{"type":"zmod","n":6}'
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ring", "--ring", z6]) == 0
            assert main(["decide", "--ring", z6, "--poly", "[2,3,1]", "--companion"]) == 0
        assert "cleanmat._kernels" not in sys.modules, "the kernel loaded without a scan"
        with contextlib.redirect_stdout(out):
            assert main(["audit", "--ring", z6, "--degree", "2"]) == 0
        assert "cleanmat._kernels" in sys.modules, "the audit did not run the scan"
        assert "numpy" not in sys.modules, "a command loaded numpy"
        print("ok")
        """
    )
    res = _python("-c", code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ok\n"


def test_large_zmod_rings_do_not_hang():
    """Locality of Z/p^k is a primality test, not a scan of Z/q."""
    for n in (1048576, 1000000007):
        res = _python("-m", "cleanmat.cli", "ring", "--ring", json.dumps({"type": "zmod", "n": n}))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["size"] == n and doc["classification"]["is_local"] is True
    big = ["-m", "cleanmat.cli", "decide", "--ring", '{"type":"zmod","n":1000000007}']
    res = _python(*big, "--degree", "2")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "error: 1000000007^2 monic polynomials exceed budget 1000000\n"
    # every 1x1 matrix over a clean ring is strongly clean: nothing to enumerate
    res = _python(*big, "--degree", "1")
    assert (res.returncode, res.stderr) == (0, "")
    decision = json.loads(res.stdout)["decision"]
    assert (decision["verdict"], decision["route"]) == ("yes", "gSRC")
    assert "details" not in decision and "either a or a - 1 is a unit" in decision["reason"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "--degree", "100000000"], "2^100000000 monic polynomials"),
        (["audit", "--degree", "100000000"], "2^100000000 polynomials"),
        (["audit", "--pi", "--degree", "100000000"], "2^100000000 polynomials"),
        (["triangular", "--degree", "30000"], "2^450015000 triangular matrices"),
        (["audit", "--degree", "2", "--samples", "1000000000"], "4000000000 similar samples"),
    ],
)
def test_huge_degrees_fail_fast_on_the_budget(argv, message):
    """A budget check stops multiplying once the count passes the budget."""
    start = time.perf_counter()
    res = _python("-m", "cleanmat.cli", argv[0], "--ring", '{"type":"zmod","n":2}', *argv[1:])
    elapsed = time.perf_counter() - start
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"error: {message} exceed budget 1000000\n"
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["decide", "--ring", '{"type":"zloc","p":2}', "--companion",
             "--poly", "[200000000000000000000000000000,1,1]"],
            "447213595499957 trial divisions of 200000000000000000000000000000",
        ),
        (
            ["factor", "--ring", '{"type":"zloc","p":3}', "--mode", "gsrc",
             "--poly", "[3000000000000000000000000000000,2,1]"],
            "1732050807568877 trial divisions of 3000000000000000000000000000000",
        ),
    ],
    ids=["decide", "factor"],
)
def test_rational_roots_of_huge_coefficients_fail_fast_on_the_budget(argv, message):
    """The rational-root candidates of a Z_(p) polynomial come from trial
    division up to the square root of its constant, checked before it starts."""
    start = time.perf_counter()
    res = _python("-m", "cleanmat.cli", *argv)
    elapsed = time.perf_counter() - start
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"error: {message} exceed budget 1000000\n"
    assert elapsed < 1.0


def test_jclean_on_a_large_finite_stalk_does_not_hang():
    """A finite local stalk answers by Hensel's lemma, not by a root scan."""
    res = _python("-m", "cleanmat.cli", "jclean", "--ring", '{"type":"zmod","n":1048576}')
    assert res.returncode == 0, res.stderr
    decision = json.loads(res.stdout)["decision"]
    assert decision["verdict"] == "yes"
    assert decision["details"]["stalks"] == [
        {"checked": 524288, "stalk": "Z/1048576", "status": "all roots found"}
    ]


Z6 = '{"type":"zmod","n":6}'


def _verify_argv(mutate):
    """argv re-verifying the Z/6 companion document after ``mutate`` edits it."""

    def argv(tmp_path, doc):
        mutate(doc)
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        return ["decide", "--ring", Z6, "--verify", f"@{p}"]

    return argv


BAD_INPUTS = {
    "verify-no-ring": _verify_argv(lambda d: d.pop("ring")),
    "verify-strong-clean-without-E": _verify_argv(
        lambda d: d["decision"]["certificate"].pop("E")
    ),
    "verify-support-out-of-range": _verify_argv(
        lambda d: d["decision"]["factorization"]["blocks"][0].update(support=[5])
    ),
    "verify-blocks-not-a-list": _verify_argv(
        lambda d: d["decision"]["factorization"].update(blocks=5)
    ),
    "verify-input-not-an-object": _verify_argv(lambda d: d.update(input=5)),
    "verify-decision-not-an-object": _verify_argv(lambda d: d.update(decision=[1])),
    "matrix-rows-not-arrays": lambda tmp_path, doc: [
        "decide", "--ring", Z6, "--matrix", "[1,2]"
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_is_one_error_line(capsys, tmp_path, case):
    _, out, _ = run(capsys, "decide", "--ring", Z6, "--poly", "[2,3,1]", "--companion")
    res = _python("-m", "cleanmat.cli", *BAD_INPUTS[case](tmp_path, json.loads(out)))
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert "Traceback" not in res.stderr


def test_a_matrix_read_from_a_pipe():
    """``@/dev/stdin`` is read once, so a piped matrix decides like an inline one."""
    argv = ["-m", "cleanmat.cli", "decide", "--ring", Z6]
    env = dict(os.environ, PYTHONPATH=SRC)
    piped = subprocess.run(
        [sys.executable, *argv, "--matrix", "@/dev/stdin"],
        input="[[1,2],[3,4]]\n", capture_output=True, text=True, env=env, timeout=30,
    )
    inline = _python(*argv, "--matrix", "[[1,2],[3,4]]", timeout=30)
    assert (piped.returncode, piped.stderr) == (0, ""), piped.stderr
    assert piped.stdout == inline.stdout
    assert json.loads(piped.stdout)["input"] == {"matrix": [[1, 2], [3, 4]]}


def test_there_is_no_json_flag(capsys):
    code, out, err = run(capsys, "ring", "--ring", Z6, "--json")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --json\n"


ZLOC3 = '{"type":"zloc","p":3}'
ZLOC2_Z3 = '{"type":"product","factors":[{"type":"zloc","p":2},{"type":"zmod","n":3}]}'


@pytest.mark.parametrize(
    "ring, flags, value",
    [
        (ZLOC3, ["--matrix", '[["1/0",0],[0,1]]'], "1/0"),
        (ZLOC3, ["--poly", '["1/0",1]', "--companion"], "1/0"),
        (ZLOC2_Z3, ["--matrix", '[[["0/0",1],0],[0,1]]'], "0/0"),
        (ZLOC2_Z3, ["--poly", '[["0/0",1],[1,1]]', "--companion"], "0/0"),
    ],
    ids=["zloc-matrix", "zloc-poly", "product-matrix", "product-poly"],
)
def test_a_zero_denominator_is_an_input_error(capsys, ring, flags, value):
    code, out, err = run(capsys, "decide", "--ring", ring, *flags)
    assert (code, out) == (1, "")
    assert err == f"error: fraction '{value}' has a zero denominator\n"


def _z6_verify(capsys, tmp_path, mutate):
    """(exit code, stdout, stderr) of --verify on the Z/6 companion document after ``mutate``."""
    _, out, _ = run(capsys, "decide", "--ring", Z6, "--poly", "[2,3,1]", "--companion")
    return run(capsys, *_verify_argv(mutate)(tmp_path, json.loads(out)))


def _gsrc_block(doc):
    return doc["decision"]["factorization"]["blocks"][0]


def _swap_stalk_values(poly):
    return [coeff[::-1] for coeff in poly]


def test_a_full_support_block_verifies_in_either_stalk_order(capsys, tmp_path):
    """The block of 1 is R itself; listed as [1, 0] it is R with its stalks swapped."""
    _, out, _ = run(capsys, "decide", "--ring", Z6, "--poly", "[2,3,1]", "--companion")
    assert _gsrc_block(json.loads(out))["support"] == [0, 1]
    code, vout, _ = run(capsys, *_verify_argv(lambda d: None)(tmp_path, json.loads(out)))
    assert (code, json.loads(vout)["valid"]) == (0, True)

    def permute(doc):
        block = _gsrc_block(doc)
        block["support"] = [1, 0]
        for key in ("f0", "f1", "bezout_u", "bezout_v"):
            block["cert"][key] = _swap_stalk_values(block["cert"][key])

    code, vout, _ = run(capsys, *_verify_argv(permute)(tmp_path, json.loads(out)))
    assert (code, json.loads(vout)) == (0, {"command": "verify", "failures": [], "valid": True})


def test_an_unknown_src_kind_is_an_input_error(capsys, tmp_path):
    code, out, err = _z6_verify(capsys, tmp_path, lambda d: _gsrc_block(d)["cert"].update(kind=5))
    assert (code, out) == (1, "")
    assert err == 'error: certificate kind 5 is neither "SR" nor "SRC"\n'


@pytest.mark.parametrize(
    "support", [[-1], [5], [2], [0, 0], [True], ["0"], [0.0], [], 0]
)
def test_block_supports_must_name_distinct_stalks(capsys, tmp_path, support):
    code, out, err = _z6_verify(capsys, tmp_path, lambda d: _gsrc_block(d).update(support=support))
    assert (code, out) == (1, "")
    assert err == (
        f"error: block support {json.dumps(support)} must list distinct stalk indices in [0, 2)\n"
    )


def test_only_table_axiom_failures_say_the_table_is_not_a_ring(capsys, tmp_path):
    expected = {
        '{"type":"foo"}': "error: unknown ring type 'foo'\n",
        '{"type":"product","factors":[]}': "error: product requires a non-empty factor list\n",
        "5": "error: malformed ring descriptor: 5\n",
        '{"type":"table"}': "error: missing add/mul tables\n",
    }
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    mul[2][3] = 1
    table = json.dumps({"type": "table", "add": add, "mul": mul})
    expected[table] = (
        "error: table is not a commutative unital ring: "
        "multiplication commutativity fails at (2, 3)\n"
    )
    for ring, line in expected.items():
        code, out, err = run(capsys, "ring", "--ring", ring)
        assert (code, out, err) == (1, "", line), ring
    code, out, err = _z6_verify(capsys, tmp_path, lambda d: d.update(ring=5))
    assert (code, out, err) == (1, "", "error: malformed ring descriptor: 5\n")
