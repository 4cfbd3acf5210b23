#!/usr/bin/env python3
"""Latency vs path length experiment.

Runs the in-process deployment over a chain graph and reports per-length
means plus the least-squares slope, reproducing the query-response-time
curve shape.  Writes the raw CSV next to the summary.
"""

import argparse
from pathlib import Path

from obge.bench import latency_stats, rows_to_csv, run_bench


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lengths", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--mode", choices=["trivial", "enhanced"], default="trivial")
    ap.add_argument("--Z", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("bench.csv"))
    args = ap.parse_args()

    rows = run_bench(args.lengths, args.reps, mode=args.mode, bucket_size=args.Z, seed=args.seed)
    args.out.write_text(rows_to_csv(rows) + "\n")
    st = latency_stats(rows)
    print(f"wrote {args.out} ({len(rows)} samples, mode={args.mode}, Z={args.Z})")
    print(f"{'len':>4} {'mean us':>10}")
    for plen, mean in st["means"].items():
        print(f"{plen:>4} {mean:>10.1f}")
    print(
        f"slope {st['slope']:.1f} us/hop, one-sided p={st['p_one_sided']:.3g}, "
        f"strictly increasing means: {st['monotone']}"
    )


if __name__ == "__main__":
    main()
