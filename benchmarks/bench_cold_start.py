#!/usr/bin/env python3
"""Cold-start cost of each CLI subcommand: imports plus the command itself.

For each command kind of the CLI benchmark cycle (``cli_cold``: the README
examples and their seeded siblings), N fresh interpreters each time
``import cleanmat.cli`` and ``cleanmat.cli.main(argv)`` in process and
report the ``cleanmat.*`` modules left in ``sys.modules``.  The table gives
the median milliseconds over the N runs in each bytecode state and the
module count.  Interpreter start-up is not in the figure; it is the same for
every command.

Each column is one stated bytecode state of ``cleanmat`` (the standard
library keeps its own bytecode in both):

- *from source*: the children import a copy of ``src/cleanmat`` made
  without its ``__pycache__`` and run with ``-B``, so every module is
  compiled on import: the state of a fresh clone run with
  ``PYTHONDONTWRITEBYTECODE=1``;
- *warm bytecode*: a second copy is compiled with ``compileall`` first and
  the children run without ``-B``, so every module loads from its ``.pyc``.

The runs of one command alternate between the two copies.  Run with
``python benchmarks/bench_cold_start.py [--runs N]`` (default 15).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from cleanmat.cli import main  # noqa: E402

CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys, time
    t0 = time.perf_counter()
    import cleanmat.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cleanmat.cli.main(sys.argv[1:])
    elapsed = time.perf_counter() - t0
    mods = [m for m in sys.modules if m.startswith("cleanmat.")]
    print(json.dumps({"rc": rc, "s": elapsed, "modules": len(mods)}))
    """
)

Z4 = '{"type":"zmod","n":4}'
Z6 = '{"type":"zmod","n":6}'
ZLOC2 = '{"type":"zloc","p":2}'
PROD = '{"type":"product","factors":[{"type":"zloc","p":2},{"type":"zloc","p":2}]}'
PAPER_POLY = "[[2,3],[3,1],[1,1]]"


def commands(verify_doc: Path) -> dict:
    """One command of each kind in the cli_cold cycle, with its expected exit code."""
    return {
        "ring": (["ring", "--ring", '{"type":"zmod","n":12}'], 0),
        "ring (large prime)": (["ring", "--ring", '{"type":"zmod","n":1000003}'], 0),
        "factor": (["factor", "--ring", PROD, "--poly", PAPER_POLY, "--mode", "sr"], 0),
        "factor (Z/27)": (["factor", "--ring", '{"type":"zmod","n":27}', "--poly", "[1,3,9,1]"], 0),
        "decide": (["decide", "--ring", PROD, "--poly", PAPER_POLY, "--companion"], 0),
        "decide --verify": (["decide", "--ring", ZLOC2, "--verify", f"@{verify_doc}"], 0),
        "decide --degree": (["decide", "--ring", ZLOC2, "--degree", "2"], 0),
        "pi-regular": (["pi-regular", "--ring", Z6, "--poly", "[2,3,1]", "--companion"], 0),
        "audit": (["audit", "--ring", Z6, "--degree", "2"], 0),
        "audit --pi": (["audit", "--ring", Z4, "--degree", "2", "--pi"], 0),
        "triangular": (["triangular", "--ring", Z4, "--degree", "2"], 0),
        "jclean": (["jclean", "--ring", ZLOC2], 0),
        "z5-example": (["z5-example", "--pretty"], 0),
        "input error": (["decide", "--ring", Z6, "--poly", "[1,2]", "--companion"], 1),
    }


def run_child(argv, src: Path, from_source: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    flags = ["-B"] if from_source else []
    res = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(res.stdout)


def main_bench(runs: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        verify_doc = Path(tmp) / "doc.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["decide", "--ring", ZLOC2, "--poly", "[2,-1,1]", "--companion"])
        verify_doc.write_text(out.getvalue(), encoding="utf-8")
        cold, warm = Path(tmp) / "cold", Path(tmp) / "warm"
        for src in (cold, warm):
            shutil.copytree(
                SRC / "cleanmat", src / "cleanmat", ignore=shutil.ignore_patterns("__pycache__")
            )
        if not compileall.compile_dir(warm / "cleanmat", quiet=1):
            raise SystemExit("compileall failed on the warm copy")
        # bytecode state -> (copy of cleanmat, compiled from source on import)
        states = {"source": (cold, True), "warm": (warm, False)}
        rows = []
        for name, (argv, rc) in commands(verify_doc).items():
            recs = {state: [] for state in states}
            for _ in range(runs):
                for state, (src, from_source) in states.items():
                    recs[state].append(run_child(argv, src, from_source))
            every = recs["source"] + recs["warm"]
            if any(r["rc"] != rc for r in every):
                raise SystemExit(f"{name}: exit code {every[0]['rc']}, expected {rc}")
            ms = [statistics.median(r["s"] for r in recs[state]) * 1e3 for state in states]
            rows.append((name, *ms, {r["modules"] for r in every}.pop()))
    version = sys.version.split()[0]
    print(f"python {version}, {runs} fresh interpreters per command and bytecode state")
    header = f"{'from source ms':>15} {'warm bytecode ms':>17} {'cleanmat modules':>17}"
    print(f"{'command':<20} {header}")
    for name, source_ms, warm_ms, count in rows:
        print(f"{name:<20} {source_ms:>15.1f} {warm_ms:>17.1f} {count:>17}")
    means = [statistics.fmean(row[k] for row in rows) for k in (1, 2)]
    print(f"{'mean':<20} {means[0]:>15.1f} {means[1]:>17.1f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per command")
    main_bench(parser.parse_args().runs)
