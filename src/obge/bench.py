"""Latency-versus-path-length measurement over the in-process deployment.

A sample is the querying thread's CPU time for one query.  In-process the
whole query runs in that thread, so this is its latency less any time the
thread spends descheduled, which a stall on a shared machine would add."""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

from scipy import stats

from .graph import Graph
from .protocol import setup
from .server import deploy_inprocess

CSV_HEADER = "path_len,rep,micros"


def chain_graph(n: int) -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1; query (0, k) has length k."""
    g = Graph(n, directed=True)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


@dataclass
class BenchRow:
    path_len: int
    rep: int
    micros: float

    def to_csv(self) -> str:
        return f"{self.path_len},{self.rep},{self.micros:.1f}"


def run_bench(
    lengths: list[int],
    reps: int,
    mode: str = "trivial",
    bucket_size: int = 5,
    seed: int | None = None,
) -> list[BenchRow]:
    rng = random.Random(seed)
    g = chain_graph(max(lengths) + 1)
    result = setup(g, mode=mode, bucket_size=bucket_size, rng=rng)
    _, _, client = deploy_inprocess(result, rng=rng)
    for plen in lengths:  # warmup: touch every path length once untimed
        client.query(0, plen)
    rows: list[BenchRow] = []
    # reps interleaved round-robin so drift cannot bias individual lengths;
    # the collector is quiesced during timing to keep pauses out of samples
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps):
            for plen in lengths:
                t0 = time.thread_time()
                client.query(0, plen)
                rows.append(BenchRow(plen, rep, (time.thread_time() - t0) * 1e6))
    finally:
        gc.enable()
    rows.sort(key=lambda r: (r.path_len, r.rep))
    return rows


def latency_stats(rows: list[BenchRow]) -> dict:
    """Per-length means and medians, whether the medians rise strictly
    with path length, and the one-sided p-value for a positive
    least-squares slope of latency against path length.  Monotonicity is
    judged on medians, which one scheduling stall cannot move."""
    by_len: dict[int, list[float]] = {}
    for r in sorted(rows, key=lambda r: r.path_len):
        by_len.setdefault(r.path_len, []).append(r.micros)
    medians = [statistics.median(vals) for vals in by_len.values()]
    reg = stats.linregress([r.path_len for r in rows], [r.micros for r in rows])
    one_sided = reg.pvalue / 2 if reg.slope > 0 else 1 - reg.pvalue / 2
    return {
        "means": {plen: statistics.fmean(vals) for plen, vals in by_len.items()},
        "medians": dict(zip(by_len, medians)),
        "slope": reg.slope,
        "p_one_sided": one_sided,
        "monotone": all(b > a for a, b in zip(medians, medians[1:])),
    }


def rows_to_csv(rows: list[BenchRow]) -> str:
    return CSV_HEADER + "\n" + "\n".join(r.to_csv() for r in rows)
