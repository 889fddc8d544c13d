"""The README's CLI examples print exactly the stdout recorded in the golden file.

Each example runs in-process through ``cleanmat.cli.main``; its exit code and
stdout are compared byte for byte with ``tests/golden/readme_cli.json``.  To
regenerate the file after an intended change to a document, run

    PYTHONPATH=src python tests/test_readme_examples.py

and say in the change log which entries moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cleanmat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.json"

PROD = '{"type":"product","factors":[{"type":"zloc","p":2},{"type":"zloc","p":2}]}'
ZLOC2 = '{"type":"zloc","p":2}'
NEGATIVE = ["decide", "--ring", ZLOC2, "--poly", "[2,-1,1]", "--companion"]

EXAMPLES = {
    "ring_zmod12": ["ring", "--ring", '{"type":"zmod","n":12}'],
    "factor_paper_sr": [
        "factor", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--mode", "sr",
    ],
    "decide_paper": ["decide", "--ring", PROD, "--poly", "[[2,3],[3,1],[1,1]]", "--companion"],
    "decide_negative_companion": NEGATIVE,
    "decide_ring_zloc2_degree2": ["decide", "--ring", ZLOC2, "--degree", "2"],
    "audit_zmod6": ["audit", "--ring", '{"type":"zmod","n":6}', "--degree", "2"],
    "audit_zmod4_pi": ["audit", "--ring", '{"type":"zmod","n":4}', "--degree", "2", "--pi"],
    "pi_regular_zmod6": [
        "pi-regular", "--ring", '{"type":"zmod","n":6}', "--poly", "[2,3,1]", "--companion",
    ],
    "triangular_zmod4": ["triangular", "--ring", '{"type":"zmod","n":4}', "--degree", "2"],
    "jclean_zloc2": ["jclean", "--ring", ZLOC2],
    "z5_example_pretty": ["z5-example", "--pretty"],
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def _verify_round_trip(run, out_json: Path):
    """The README's `> out.json` then `--verify @out.json` pair, as two entries."""
    first = run(NEGATIVE)
    out_json.write_text(first["stdout"], encoding="utf-8")
    second = run(["decide", "--ring", ZLOC2, "--verify", f"@{out_json}"])
    return {"decide_to_out_json": first, "verify_out_json": second}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_example(golden):
    assert len(golden) == 13
    assert set(golden) == set(EXAMPLES) | {"decide_to_out_json", "verify_out_json"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_stdout(name, golden, capsys):
    code = main(EXAMPLES[name])
    assert {"exit": code, "stdout": capsys.readouterr().out} == golden[name]


def test_readme_verify_round_trip(golden, capsys, tmp_path):
    def run(argv):
        code = main(argv)
        return {"exit": code, "stdout": capsys.readouterr().out}

    runs = _verify_round_trip(run, tmp_path / "out.json")
    assert runs["verify_out_json"]["exit"] == 0
    for name, got in runs.items():
        assert got == golden[name]


if __name__ == "__main__":
    captured = {name: _run(argv) for name, argv in EXAMPLES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        captured.update(_verify_round_trip(_run, Path(tmp) / "out.json"))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n", encoding="utf-8")
