"""cleanmat benchmark: closed-loop, single-client workloads with checked outputs.

usage:
  python3 perfbench/run.py --workload fuzz_mixed|audit_sweep|cli_cold|all
                           [--seed N] [--seconds S] [--trace 0|1] [--items N]

``--trace 0`` measures for ``--seconds`` seconds with tracing off and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed number of items (set by
``--seconds``, so it is the same on every commit), each item untraced and
then traced, and prints the per-layer metrics and the tracing overhead.  Either
way the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary, the verdict digest and the environment stamp.  See
NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

from workloads import PINNED_THREADS

os.environ.update(PINNED_THREADS)  # before anything imports numpy

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import OUT_DIR, ROOT, SRC, WORKLOADS, CliCold, Crash, child_env  # noqa: E402

USABLE_CPUS = sorted(os.sched_getaffinity(0))

SETUP_PROBES = 4
MAX_SHOWN_FAILURES = 20


def percentile(values, q):
    """Nearest-rank percentile; q = 1.0 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_one(wl, i, **kwargs):
    """Input i, its start, latency and record; a crash is recorded, not raised."""
    inp = wl.item(i)
    t0 = time.perf_counter()
    try:
        rec = wl.run(inp, **kwargs)
    except Exception as exc:  # a crashing item is a failure, not the end of the run
        rec = Crash(exc)
    return t0, time.perf_counter() - t0, inp, rec


class Tally:
    """Checks, counts and digests the records of one pass as they arrive.

    Nothing per item is kept, so the benchmark's own memory does not grow
    with the run and ``peak_rss_mb`` stays a property of the program.
    """

    def __init__(self, wl):
        self.wl = wl
        self.items = self.attempted = self.failed = 0
        self.messages = []
        self._hash = hashlib.sha256()

    def add(self, inp, rec):
        self.items += 1
        self.attempted += self.wl.size(inp, rec)
        # verdicts only, so certificate content may change freely
        self._hash.update(json.dumps(self.wl.status(inp, rec), default=str).encode() + b"\n")
        failed, msgs = self.wl.check(inp, rec)
        self.failed += failed
        self.messages += msgs

    def finish(self):
        """Run the checks that were deferred until after the timed loop."""
        failed, msgs = self.wl.finish()
        self.failed += failed
        self.messages += msgs

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def measure(wl, seconds, max_items, pace):
    """Run items in a closed loop until the time or the item count is used up.

    Time runs out only at a whole cycle of ``wl.cycle`` items, so every run
    holds the same mix of audit calls or CLI commands, and not before ten
    samples lie beyond the tail percentile.  The latencies come back raw
    (less the pace sampling inside them) and scaled to nominal speed.
    """
    lats, starts = array.array("d"), array.array("d")
    tally = Tally(wl)
    min_items = math.ceil(10 / (1 - wl.tail)) if wl.tail < 1 else 0
    start = time.perf_counter()
    i = 0
    with pace.running():
        while (max_items is None or i < max_items) and (
            i % wl.cycle or i < min_items or time.perf_counter() - start < seconds
        ):
            pace.maybe_sample()
            t0, lat, inp, rec = run_one(wl, i)
            starts.append(t0)
            lats.append(lat)
            tally.add(inp, rec)
            i += 1
    peak_rss = wl.peak_rss_mb()  # before the lists below add to it
    pace.sample()
    raw = [lat - pace.busy(t, t + lat) for t, lat in zip(starts, lats)]
    scaled = [lat * pace.factor(t, t + lat) for t, lat in zip(starts, raw)]
    return scaled, raw, peak_rss, tally


def setup_probe(wl):
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def setup_probe_subprocess(name, seed):
    """Set-up time in a fresh interpreter, so the imports are paid again."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment() -> dict:
    from cleanmat import _kernels

    import numpy

    commit = None
    if shutil.which("git"):
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "have_numba": _kernels.HAVE_NUMBA,
        "scan_path": "numba-jit" if _kernels.HAVE_NUMBA else "numpy",
        "nproc": os.cpu_count(),
        "cpus_usable": len(USABLE_CPUS),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def emit(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def report_failures(messages):
    for m in messages[:MAX_SHOWN_FAILURES]:
        print(f"FAILED {m}")
    if len(messages) > MAX_SHOWN_FAILURES:
        print(f"... {len(messages) - MAX_SHOWN_FAILURES} more failures")


def timed_run(name, seed, seconds, max_items):
    wl = WORKLOADS[name](seed)
    pace = wl.pace()
    setups = []
    for probe in [lambda: setup_probe(wl)] + [lambda: setup_probe_subprocess(name, seed)] * SETUP_PROBES:
        pace.sample()
        t0 = time.perf_counter()
        took = probe()
        t1 = time.perf_counter()
        pace.sample()
        setups.append((took, took * pace.factor(t0, t1)))

    latencies, raw, peak_rss, tally = measure(wl, seconds, max_items, pace)
    tally.finish()
    attempted, failed = tally.attempted, tally.failed
    q = wl.tail
    tail_name = "max" if q == 1.0 else f"p{round(q * 100)}"
    beyond = len(latencies) - math.ceil(q * len(latencies))

    def e2e(lat, setup):
        return {
            "items_per_s": (attempted / sum(lat), "items/s"),
            "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, q) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    metrics = e2e(latencies, [s for _, s in setups])
    unscaled = e2e(raw, [s for s, _ in setups])
    item_kind = "audit calls" if name == "audit_sweep" else "items"
    print(f"workload {name} seed {seed}: {len(latencies)} {item_kind}, {attempted} items, "
          f"{sum(raw):.2f} s busy (closed loop, 1 client)")
    print(f"  {'metric':<16} {'nominal speed':>14} {'as timed':>14}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<16} {v:>14.6g} {unscaled[k][0]:>14.6g} {u}")
    print(f"  latency_tail_ms is latency_{tail_name}_ms, {beyond} samples beyond it"
          + ("" if beyond >= 10 or q == 1.0 else " (fewer than 10: read it as a rough bound)"))
    print(f"  failed_ratio     {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  setup samples    {', '.join(f'{s:.4f}' for _, s in setups)} s")
    print(f"  pace reference   {pace.reference.__name__}: median {statistics.median(pace.took) * 1e3:.3f} ms "
          f"(nominal {pace.nominal_s * 1e3:.1f} ms), {len(pace.took)} samples")
    report_failures(tally.messages)
    print(f"digest {name} {tally.items} {tally.digest}")
    print("env " + json.dumps(environment(), sort_keys=True))
    emit(failed == 0, attempted, failed, metrics)
    return 0


def traced_run(name, seed, seconds, max_items):
    from tracer import Tracer, add_raw, layer_metrics

    wl_cls = WORKLOADS[name]
    n_items = max_items or max(1, round(seconds * wl_cls.trace_items_per_s))

    OUT_DIR.mkdir(exist_ok=True)
    for old in OUT_DIR.glob(f"trace-{name}-*.json"):
        old.unlink()
    # CLI children trace themselves; the other workloads are traced in process,
    # set-up included.  Untraced and traced items alternate, so that drift in
    # machine speed does not leak into the overhead ratio.
    in_process = wl_cls is not CliCold
    tracer = Tracer()
    wl = wl_cls(seed)
    wl.setup()
    traced_wl = wl_cls(seed)
    with tracer.active(in_process):
        traced_wl.setup()
    plain, traced = Tally(wl), Tally(traced_wl)
    plain_s = traced_s = 0.0
    child_raw = {}
    for i in range(n_items):
        _, lat, inp, rec = run_one(wl, i)
        plain_s += lat
        plain.add(inp, rec)
        kwargs = {} if in_process else {"trace_file": OUT_DIR / f"trace-{name}-child{i}.json"}
        with tracer.active(in_process):
            _, lat, inp, rec = run_one(traced_wl, i, **kwargs)
        traced_s += lat
        traced.add(inp, rec)
        if getattr(rec, "child", None):
            add_raw(child_raw, rec.child["raw"])
    plain.finish()
    traced.finish()
    raw = tracer.summary()
    add_raw(raw, child_raw)
    messages = plain.messages + traced.messages
    if plain.digest != traced.digest:
        messages.append(f"traced digest {traced.digest} differs from untraced {plain.digest}")
    env = environment()
    tracer.dump(OUT_DIR / f"trace-{name}-{seed}.json", {"workload": name, "seed": seed, "env": env, "raw": raw})

    metrics = layer_metrics(raw)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"traced workload {name} seed {seed}: {n_items} items, each untraced then traced, "
          f"{int(raw['spans'])} spans")
    for k, (v, u) in metrics.items():
        print(f"  {k:<28} {v:.6g} {u}")
    report_failures(messages)
    print(f"digest {name} {n_items} untraced {plain.digest} traced {traced.digest}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {k: (int(v) if u in ("count", "bytes") else v, u) for k, (v, u) in metrics.items()}
    emit(not messages, traced.attempted, traced.failed, metrics)
    return 0


def run_all(args):
    """Every workload in its own interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl_cls in WORKLOADS.items():
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--seed", str(wl_cls.default_seed if args.seed is None else args.seed)]
        if args.items:
            cmd += ["--items", str(args.items)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env())
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, help="stop after this many items (smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "cleanmat" / "__init__.py").is_file():
        print(f"error: no cleanmat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    # one CPU for the benchmark and its children: the pace reference then
    # times the same CPU the work runs on
    os.sched_setaffinity(0, {USABLE_CPUS[-1]})
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(WORKLOADS[args.workload](seed))}))
        return 0
    run = traced_run if args.trace else timed_run
    return run(args.workload, seed, args.seconds, args.items)


if __name__ == "__main__":
    sys.exit(main())
