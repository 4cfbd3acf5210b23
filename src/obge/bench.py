"""Latency-versus-path-length measurement over the in-process deployment."""

from __future__ import annotations

import gc
import random
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
    budget: int | None = None,
) -> list[BenchRow]:
    rng = random.Random(seed)
    g = chain_graph(max(lengths) + 1)
    result = setup(g, mode=mode, bucket_size=bucket_size, budget=budget, rng=rng)
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
                t0 = time.perf_counter()
                client.query(0, plen)
                rows.append(BenchRow(plen, rep, (time.perf_counter() - t0) * 1e6))
    finally:
        gc.enable()
    rows.sort(key=lambda r: (r.path_len, r.rep))
    return rows


def latency_stats(rows: list[BenchRow]) -> dict:
    """Per-length means and the one-sided p-value for a positive
    least-squares slope of latency against path length."""
    means: dict[int, float] = {}
    for plen in sorted({r.path_len for r in rows}):
        vals = [r.micros for r in rows if r.path_len == plen]
        means[plen] = sum(vals) / len(vals)
    reg = stats.linregress([r.path_len for r in rows], [r.micros for r in rows])
    one_sided = reg.pvalue / 2 if reg.slope > 0 else 1 - reg.pvalue / 2
    return {
        "means": means,
        "slope": reg.slope,
        "p_one_sided": one_sided,
        "monotone": all(b > a for a, b in zip(list(means.values()), list(means.values())[1:])),
    }


def rows_to_csv(rows: list[BenchRow]) -> str:
    return CSV_HEADER + "\n" + "\n".join(r.to_csv() for r in rows)
