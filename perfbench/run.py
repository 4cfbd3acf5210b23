#!/usr/bin/env python3
"""Run the obge TCP benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload trivial-tcp --seed 1 --seconds 10 --trace 0

Workloads: trivial-tcp, enhanced-rpm-tcp, setup-v500, or ``all``.  The
report lists the graph, scheme and host stamp and every metric with its
unit and sample count; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1).  The exit code is 0 only
when every answer and every host trace slice passed the correctness gate.
The package is imported from the checkout's ``src`` directory; without it
the benchmark exits with code 2.

The process pins itself to one CPU, the last of its affinity set, before it
starts the daemon, so the client and daemon threads and the reference work
that scales the query timings all run on the same CPU.  The closed loop
never runs both threads at once, so the pin costs no parallelism.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "obge" / "__init__.py").is_file():
        print(f"perfbench: no obge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import workloads

    return workloads.main()


if __name__ == "__main__":
    sys.exit(main())
