"""Latency-versus-path-length measurement over the in-process deployment.

A sample is the querying thread's CPU time for one query.  In-process the
whole query runs in that thread, so this is its latency less any time the
thread spends descheduled, which a stall on a shared machine would add."""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass

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


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b), with y = 1 - x passed
    exact by the caller.  The continued fraction (modified Lentz) converges
    fast for x < (a + 1) / (a + b + 2); above that, I_x(a, b) =
    1 - I_y(b, a), which is then the larger part, so nothing small is
    found by subtraction."""
    if x <= 0:
        return 0.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, y, x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y))
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 10_000):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            break
    return front * frac / a


def _t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with df degrees of freedom: for t > 0 it is
    I_x(df/2, 1/2) / 2 with x = df / (df + t^2), which keeps its relative
    accuracy however far out t is."""
    if t == 0:
        return 0.5
    tail = _betainc(df / 2, 0.5, df / (df + t * t), 1 / (1 + df / (t * t))) / 2
    return tail if t > 0 else 1.0 - tail


def latency_stats(rows: list[BenchRow]) -> dict:
    """Per-length means and medians, whether the medians rise strictly
    with path length, and the one-sided p-value for a positive
    least-squares slope of latency against path length (the t test on
    Pearson's r with n - 2 df).  Monotonicity is judged on medians, which
    one scheduling stall cannot move."""
    by_len: dict[int, list[float]] = {}
    for r in sorted(rows, key=lambda r: r.path_len):
        by_len.setdefault(r.path_len, []).append(r.micros)
    medians = [statistics.median(vals) for vals in by_len.values()]
    x, y = [r.path_len for r in rows], [r.micros for r in rows]
    slope, _ = statistics.linear_regression(x, y)
    r = statistics.correlation(x, y)
    df = len(rows) - 2
    t = r * math.sqrt(df / ((1 - r) * (1 + r))) if abs(r) < 1 else math.copysign(math.inf, r)
    return {
        "means": {plen: statistics.fmean(vals) for plen, vals in by_len.items()},
        "medians": dict(zip(by_len, medians)),
        "slope": slope,
        "p_one_sided": _t_sf(t, df),
        "monotone": all(b > a for a, b in zip(medians, medians[1:])),
    }


def rows_to_csv(rows: list[BenchRow]) -> str:
    return CSV_HEADER + "\n" + "\n".join(r.to_csv() for r in rows)
