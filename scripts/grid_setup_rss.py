#!/usr/bin/env python3
"""Peak memory of ``obge setup`` on a road-like grid.

Writes a SIDE x SIDE grid graph, undirected, with integer weights from 1 to
9 drawn from a generator seeded with SEED, runs ``obge setup --undirected
--mode enhanced --budget 4096`` on it in a child process, and prints the
child's peak resident set size (``getrusage(RUSAGE_CHILDREN)``) and its wall
time.  The 32 x 32 grid has 1,047,552 next-hop entries and a data tree of
depth 18.  Exits 1 when the setup fails or its peak exceeds LIMIT_MB.

    PYTHONPATH=src python scripts/grid_setup_rss.py
"""

import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDE = 32
SEED = 1
LIMIT_MB = 300


def write_grid(path: Path, side: int, seed: int) -> None:
    """Vertex r*side+c joins its right and lower neighbours."""
    rng = random.Random(seed)
    with open(path, "w") as f:
        f.write(f"#vertices {side * side}\n")
        for r in range(side):
            for c in range(side):
                u = r * side + c
                if c + 1 < side:
                    f.write(f"{u}\t{u + 1}\t{rng.randint(1, 9)}\n")
                if r + 1 < side:
                    f.write(f"{u}\t{u + side}\t{rng.randint(1, 9)}\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        graph = Path(work) / "grid.tsv"
        write_grid(graph, SIDE, SEED)
        cmd = [sys.executable, "-m", "obge.cli", "setup", str(graph), "--undirected", "--mode", "enhanced",
               "--budget", "4096", "--out", str(Path(work) / "deploy")]
        start = time.perf_counter()
        proc = subprocess.run(cmd)
        seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{SIDE}x{SIDE} grid setup: peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB}), {seconds:.1f} s")
    if proc.returncode != 0:
        print(f"obge setup exited with code {proc.returncode}", file=sys.stderr)
        return 1
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
