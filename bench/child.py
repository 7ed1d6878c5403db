"""Child processes started by run.py.

    child.py setup WORKLOAD WORK_DIR
        Times `import specqual` (for cli_cold: `import specqual.cli`) plus the
        workload's warm-up operation in a fresh interpreter and prints
        {"import_s": ..., "warmup_s": ...}.  Making the warm-up input is not timed.

    child.py cli-trace TRACE_FILE ARGV...
        Runs `specqual.cli.main(ARGV)` like `python -m specqual.cli` does, with
        every layer traced, and writes the span totals to TRACE_FILE.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(workload: str, work: str) -> int:
    t0 = time.perf_counter()
    if workload == "cli_cold":
        import specqual.cli  # noqa: F401
    else:
        import specqual  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    wl = workloads.make(workload, Path(work), {})
    payload = wl.warmup_input()
    t0 = time.perf_counter()
    wl.warmup(payload)
    warmup_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
    return 0


def cli_trace(trace_file: str, argv: list[str]) -> int:
    from specqual import cli
    from tracer import Tracer, instrument

    tracer = Tracer()
    try:
        with instrument(tracer):
            return cli.main(argv)
    finally:
        Path(trace_file).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    role = sys.argv[1]
    if role == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3]))
    if role == "cli-trace":
        sys.exit(cli_trace(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown role {role}")
