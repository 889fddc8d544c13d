"""Tests of the benchmark itself: tiny runs, metric names, failure counting.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import OUT_DIR, CliCold, FuzzMixed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = [("fuzz_mixed", 60), ("audit_sweep", 1), ("cli_cold", 4)]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload,items", SMOKE)
def test_smoke_run_prints_every_end_to_end_metric(workload, items):
    _, res = result_of(bench("--workload", workload, "--items", str(items)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= items
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload,items", SMOKE)
def test_traced_run_prints_per_layer_metrics_and_equal_digests(workload, items):
    lines, res = result_of(bench("--workload", workload, "--items", str(items), "--trace", "1"))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    digest = next(line.split() for line in lines if line.startswith("digest "))
    assert digest[3] == "untraced" and digest[5] == "traced" and digest[4] == digest[6]
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert res["metrics"]["rings.elem_ops"]["value"] > 0


def test_corrupted_certificate_counts_as_failed(monkeypatch):
    from cleanmat import factor
    from cleanmat.polys import Poly

    real = factor.gsrc_search

    def corrupted(h, R, mode="SRC"):
        res = real(h, R, mode)
        if res.found:
            block = res.certificate.blocks[0]
            f0 = block.cert.f0
            block.cert = dataclasses.replace(block.cert, f0=f0 + Poly.one(f0.ring))
        return res

    wl = FuzzMixed(90125)
    wl.setup()
    monkeypatch.setattr(factor, "gsrc_search", corrupted)
    *_, tally = run.measure(wl, 60.0, 20, wl.pace())
    tally.finish()
    assert tally.attempted == 20 and tally.failed > 0
    assert any("gsrc certificate rejected" in m for m in tally.messages)


@pytest.fixture(scope="module")
def cli_workload():
    wl = CliCold(7)
    wl.setup()
    return wl


def _cli_item(wl, name):
    for i in range(64):
        inp = wl.item(i)
        if inp[0] == name:
            return inp
    raise AssertionError(name)


def test_wrong_exit_code_counts_as_failed(cli_workload):
    name, argv, rc = _cli_item(cli_workload, "ring_zmod12")
    rec = cli_workload.run((name, argv, rc))
    assert cli_workload.check((name, argv, rc), rec) == (0, [])
    tally = run.Tally(cli_workload)
    tally.add((name, argv, 3), rec)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_corrupted_cli_certificate_counts_as_failed(cli_workload):
    inp = _cli_item(cli_workload, "decide_paper")
    rec = cli_workload.run(inp)
    doc = json.loads(rec.stdout)
    E = doc["decision"]["certificate"]["E"]
    E[0][0], E[0][1] = E[0][1], E[0][0]
    rec.stdout = cli_workload.S.dumps_canonical(doc)
    failed, messages = cli_workload.check(inp, rec)
    assert failed == 1 and any("certificate rejected" in m for m in messages)


def test_exits_nonzero_without_the_program():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = bench("--workload", "fuzz_mixed", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert not out.stdout.strip()
