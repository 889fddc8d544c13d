"""Run one cleanmat CLI command under the tracer (the traced cli_cold pass).

usage: python cli_child.py TRACE_FILE CLI_ARGS...

Behaves like ``python -m cleanmat.cli CLI_ARGS...`` (same stdout, same exit
code) and writes the spans, the raw per-layer sums, the import time and the
monotonic time at which this interpreter started running code to
TRACE_FILE.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file = sys.argv[1]
    t0 = time.perf_counter()
    import cleanmat.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = cleanmat.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    raw = tracer.summary()
    raw["cli.import_s"] = import_s
    tracer.dump(trace_file, {"started": STARTED, "raw": raw})
    return rc


if __name__ == "__main__":
    sys.exit(main())
