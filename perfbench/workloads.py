"""Workloads, correctness gate and metrics of the TCP benchmark.

Each workload encrypts a fixed random sparse digraph with ``obge.protocol.
setup``, hosts the result in an in-process ``Daemon`` on an ephemeral port of
127.0.0.1, and runs a closed loop of one client over ``TcpConnection``:
``RemoteStore`` in trivial mode, ``enclave_transport`` in enhanced mode.
Query pairs are uniform random ordered pairs drawn from the seed.  Every
answer is compared with ``PathOracle`` and every query's slice of the host
trace is checked against the shape the leakage auditor models.

Timings are scaled to a nominal machine speed.  The shared machines this
runs on change speed by up to 2x from one tenth of a second to the next, so
the loop times a fixed piece of reference work (AES-GCM, os.urandom, struct
and Python object work; no obge code) before the first query and after
every query, and scales each query's latency by REF_NOMINAL_S over the mean
of the reference times just before and just after it: the idea of counting
cycles rather than seconds.  Each set-up is scaled the same way, by the
median reference time over REF_AROUND_SETUP_S of sampling on either side.
The report prints the raw, unscaled timings next to the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

import obge
from obge import protocol
from obge.graph import Graph, PathOracle
from obge.server import (
    Daemon,
    EnhancedClient,
    RemoteStore,
    ServerConfig,
    TcpConnection,
    TrivialClient,
    deploy_inprocess,
    enclave_transport,
)

from spans import SETUP_QUERY, Tracer

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"

# the benchmark graphs are fixed; --seed drives queries and ORAM randomness
GRAPH_SEED = 240519259

# share of --seconds a traced run spends untraced, to state the overhead
UNTRACED_SHARE = 0.3

OUT_DEGREE = 3
BUCKET_SIZE = 5
WARMUP_QUERIES = 50
# a phase times at least this many queries, so p99 has 10 samples beyond
# it; counts that must repeat exactly for a seed are taken over the first
# this many queries
COUNT_QUERIES = 1000

# reference work takes this long at the nominal machine speed
REF_NOMINAL_S = 100e-6
REF_AROUND_SETUP_S = 0.3
_REF_AEAD = AESGCM(bytes(16))
_REF_PLAIN = bytes(111)
_REF_STRUCT = struct.Struct(">16s16sQ32sQB")


def reference_work() -> float:
    """Time one fixed piece of work that shares no code with obge."""
    t0 = perf_counter()
    rows = []
    for _ in range(40):
        nonce = os.urandom(12)
        plain = _REF_AEAD.decrypt(nonce, _REF_AEAD.encrypt(nonce, _REF_PLAIN, None), None)
        rows.append(_REF_STRUCT.unpack_from(plain))
    kept = {i: r for i, r in enumerate(rows) if r[2] & 1 == 0}
    if len(kept) != len(rows):
        raise AssertionError("reference work computed a wrong result")
    return perf_counter() - t0


def reference_speed(seconds: float) -> float:
    """Median time of the reference work, run back to back for ``seconds``."""
    times = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        times.append(reference_work())
    return statistics.median(times)


# name -> unit, printed with --trace 0
END_TO_END = {
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "queries_per_s": "1/s",
    "ms_per_round": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_query": "bytes/query",
    "stored_bytes_per_entry": "bytes/entry",
}

# name -> unit, printed with --trace 1
PER_LAYER = {
    "graph.spdx_s": "s",
    "graph.entries": "count",
    "crypto.prf_calls": "count",
    "crypto.prf_s": "s",
    "crypto.setup_encrypt_calls": "count",
    "crypto.setup_encrypt_s": "s",
    "crypto.encrypt_calls": "count/query",
    "crypto.encrypt_s": "s/query",
    "crypto.decrypt_calls": "count/query",
    "crypto.decrypt_s": "s/query",
    "blocks.pack_calls": "count/query",
    "blocks.pack_s": "s/query",
    "blocks.unpack_calls": "count/query",
    "blocks.unpack_s": "s/query",
    "oram.access_calls.data": "count/query",
    "oram.access_calls.pm": "count/query",
    "oram.access_us_p50": "us",
    "oram.access_self_s": "s/query",
    "oram.init_self_s": "s",
    "oram.stash_peak": "blocks",
    "storage.read_path_calls": "count/query",
    "storage.read_path_s": "s/query",
    "storage.write_path_s": "s/query",
    "storage.bytes_read": "bytes/query",
    "storage.bytes_written": "bytes/query",
    "storage.trace_records": "count/query",
    "recursive.get_and_remap_calls": "count/query",
    "recursive.get_and_remap_self_s": "s/query",
    "recursive.build_self_s": "s",
    "recursive.chain_depth": "levels",
    "wire.encode_calls": "count/query",
    "wire.encode_s": "s/query",
    "wire.decode_s": "s/query",
    "wire.frame_bytes": "bytes/query",
    "server.dispatch_calls": "count/query",
    "server.dispatch_self_s": "s/query",
    "server.transport_wait_s": "s/query",
    "protocol.rounds_per_query": "rounds/query",
    "protocol.query_self_s": "s/query",
    "protocol.build_blocks_self_s": "s",
    "trace.ms_per_round_untraced": "ms",
    "trace.ms_per_round_traced": "ms",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    vertices: int
    setup_reps: int
    budget: int | None = None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="trivial-tcp",
            why="client-driven rounds: two framed TCP round trips per round; wire, server, storage and "
            "client oram/crypto work, no recursive map",
            mode=protocol.MODE_TRIVIAL,
            vertices=200,
            setup_reps=5,
        ),
        Workload(
            name="enhanced-rpm-tcp",
            why="one request/response per query; recursive map (4 KiB budget, chain depth 2) triples "
            "path accesses behind the trust boundary",
            mode=protocol.MODE_ENHANCED,
            vertices=200,
            budget=4096,
            setup_reps=5,
        ),
        Workload(
            name="setup-v500",
            why="setup-dominated (spdx, PRF, k1, placement, k2, rpm_build) and queries over an 85 MB tree "
            "far larger than CPU caches",
            mode=protocol.MODE_ENHANCED,
            vertices=500,
            budget=4096,
            setup_reps=3,
        ),
    ]
}


def make_graph(n: int, out_degree: int, seed: int) -> Graph:
    """Random sparse digraph with exactly n * out_degree distinct edges."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n * out_degree:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    g = Graph(n, directed=True)
    for u, v in sorted(edges):
        g.add_edge(u, v)
    return g


def pair_stream(n: int, seed: int, stream: str):
    """Uniform ordered pairs, u = v and unreachable pairs included; each
    phase draws from its own stream so its queries do not depend on how
    many queries an earlier, time-bounded phase made."""
    rng = random.Random(f"{seed}/{stream}")
    while True:
        yield rng.randrange(n), rng.randrange(n)


# ---------------------------------------------------------------------------
# correctness gate


class Checker:
    """Compares answers with PathOracle and checks each query's host trace:
    (|p|+1)*(1+chain_depth) ReadPath/WritePath pairs on the same leaf, in
    tree order top position-map level first, each of its tree's constant
    path width, with leaf ids in range."""

    def __init__(self, g: Graph, host, chain_depth: int, enhanced: bool):
        self.oracle = PathOracle(g)
        self.enhanced = enhanced
        self.order = list(range(chain_depth, -1, -1))
        self.width = {t: tree.params.path_width for t, tree in host.trees.items()}
        self.leaves = {t: tree.params.leaves for t, tree in host.trees.items()}
        self.request_width: int | None = None

    def check(self, u: int, v: int, got, records) -> tuple[str | None, int]:
        """Returns (error or None, rounds the answer implies)."""
        expected = self.oracle.path(u, v)
        rounds = len(expected) if expected else 1
        if got != expected:
            return f"({u},{v}): answer {got} differs from oracle {expected}", rounds
        if self.enhanced:
            if len(records) < 2 or records[0].msg_type != "EnclaveRequest" or records[-1].msg_type != "EnclaveResponse":
                return f"({u},{v}): trace not framed by EnclaveRequest/EnclaveResponse", rounds
            if self.request_width is None:
                self.request_width = records[0].byte_count
            if records[0].byte_count != self.request_width:
                return f"({u},{v}): request width {records[0].byte_count} != {self.request_width}", rounds
            records = records[1:-1]
        want = 2 * rounds * len(self.order)
        if len(records) != want:
            return f"({u},{v}): {len(records)} path records, expected {want}", rounds
        for i in range(0, want, 2):
            rd, wr = records[i], records[i + 1]
            tree = self.order[(i // 2) % len(self.order)]
            if (rd.msg_type, wr.msg_type) != ("ReadPath", "WritePath"):
                return f"({u},{v}): record pair {rd.msg_type}/{wr.msg_type}", rounds
            if rd.tree_id != tree or wr.tree_id != tree or rd.leaf != wr.leaf:
                return f"({u},{v}): pair on tree {rd.tree_id}/{wr.tree_id} leaf {rd.leaf}/{wr.leaf}, expected tree {tree}", rounds
            if not 0 <= rd.leaf < self.leaves[tree]:
                return f"({u},{v}): leaf {rd.leaf} out of range for tree {tree}", rounds
            if rd.byte_count != self.width[tree] or wr.byte_count != self.width[tree]:
                return f"({u},{v}): widths {rd.byte_count}/{wr.byte_count}, tree {tree} has {self.width[tree]}", rounds
        return None, rounds


# ---------------------------------------------------------------------------
# query phases


@dataclass
class Phase:
    """Per-query samples of one phase; failed queries stay in the sample."""

    latencies: list[float] = field(default_factory=list)  # seconds
    rounds: list[int] = field(default_factory=list)
    host_bytes: list[int] = field(default_factory=list)
    read_bytes: list[int] = field(default_factory=list)
    written_bytes: list[int] = field(default_factory=list)
    records: list[int] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference work before and after each query
    errors: list[str] = field(default_factory=list)
    # taken once COUNT_QUERIES queries are done, so neither depends on how
    # many more queries the phase completes
    prefix_leaf: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def count(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Latencies at the nominal machine speed, each scaled by the
        reference work timed just before and just after it."""
        refs = self.refs
        return [x * 2 * REF_NOMINAL_S / (a + b) for x, a, b in zip(self.latencies, refs, refs[1:])]

    def ms_per_round(self) -> float:
        return sum(self.scaled_latencies()) * 1e3 / sum(self.rounds)


def run_phase(client, host, checker: Checker, pairs, seconds: float, min_queries: int,
              tracer: Tracer | None = None) -> Phase:
    """Closed loop: the next query starts once the previous one returned.
    Runs for ``seconds`` of wall time and at least ``min_queries`` queries;
    only the query_path call itself is timed, then the reference work."""
    ph = Phase(refs=[reference_work()])
    trace = host.trace.records
    deadline = perf_counter() + seconds
    i = 0
    while i < min_queries or perf_counter() < deadline:
        u, v = next(pairs)
        if tracer is not None:
            tracer.query_id = i
        start = len(trace)
        t0 = perf_counter()
        try:
            got = client.query_path(u, v)
            err = None
        except Exception as exc:  # any failure is counted, never dropped
            got, err = None, f"({u},{v}): {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        recs = trace[start:]
        fail, rounds = checker.check(u, v, got, recs)
        err = err or fail
        if err is not None:
            ph.errors.append(err)
        ph.latencies.append(dt)
        ph.rounds.append(rounds)
        ph.host_bytes.append(sum(r.byte_count for r in recs))
        ph.read_bytes.append(sum(r.byte_count for r in recs if r.msg_type == "ReadPath"))
        ph.written_bytes.append(sum(r.byte_count for r in recs if r.msg_type == "WritePath"))
        ph.records.append(len(recs))
        ph.refs.append(reference_work())
        i += 1
        if i == COUNT_QUERIES:
            ph.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                ph.prefix_leaf = tracer.leaf_snapshot()
    return ph


@contextmanager
def hosted(result, wl: Workload, seed: int):
    """Serve a setup result from an in-process Daemon on 127.0.0.1:0 and
    yield (host, client) over one TCP connection.  The daemon flushes its
    trees and trace into a temporary directory, which is removed; every
    thread the daemon started is joined before returning."""
    before = set(threading.enumerate())
    host, srv, _ = deploy_inprocess(result, rng=random.Random(f"{seed}/controller"))
    work = Path(tempfile.mkdtemp(prefix="daemon-", dir=WORK_DIR))
    cfg = ServerConfig(tree_path=str(work), listen_addr="127.0.0.1:0", trace_path=str(work / "trace.csv"))
    daemon = Daemon(srv, cfg)
    conn = None
    try:
        daemon.start()
        conn = TcpConnection(("127.0.0.1", daemon.port))
        if wl.mode == protocol.MODE_ENHANCED:
            client = EnhancedClient(result.client, enclave_transport(conn))
        else:
            client = TrivialClient(result.client, RemoteStore(conn), rng=random.Random(f"{seed}/client"))
        yield host, client
    finally:
        if conn is not None:
            conn.close()
        daemon.shutdown()
        for t in set(threading.enumerate()) - before:
            t.join(timeout=10)
        shutil.rmtree(work, ignore_errors=True)
        alive = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
        if alive:
            raise RuntimeError(f"daemon threads still running: {alive}")


# ---------------------------------------------------------------------------
# metrics


def _p99(vals) -> float:
    return statistics.quantiles(vals, n=100, method="inclusive")[98]


def _timings(lat: list[float], ph: Phase) -> dict:
    return {
        "query_ms_p50": (statistics.median(lat) * 1e3, ph.count),
        "query_ms_p99": (_p99(lat) * 1e3, ph.count),
        "queries_per_s": (ph.count / sum(lat), ph.count),
        "ms_per_round": (sum(lat) * 1e3 / sum(ph.rounds), sum(ph.rounds)),
    }


def raw_timings(ph: Phase, setup_raw: list[float]) -> dict:
    """Timings as measured, before scaling; name -> (value, unit, samples)."""
    m = _timings(ph.latencies, ph)
    m["setup_s"] = (statistics.median(setup_raw), len(setup_raw))
    m["reference_work_us"] = (statistics.median(ph.refs) * 1e6, len(ph.refs))
    units = {**END_TO_END, "reference_work_us": "us"}
    return {f"raw.{k}": (v, units[k], n) for k, (v, n) in m.items()}


def end_to_end(ph: Phase, setup_times: list[float], result) -> dict:
    """name -> (value, unit, sample count); times at the nominal speed."""
    stored = sum(len(t.buckets) for t in result.trees)
    m = {
        **_timings(ph.scaled_latencies(), ph),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (ph.peak_rss_mb, 1),
        "wire_bytes_per_query": (sum(ph.host_bytes[:COUNT_QUERIES]) / COUNT_QUERIES, COUNT_QUERIES),
        "stored_bytes_per_entry": (stored / result.spdx_size, result.spdx_size),
    }
    return {k: (v, END_TO_END[k], n) for k, (v, n) in m.items()}


class _SpanTotals:
    """Calls, duration and self time per span name, split into the setup
    phase, the whole traced query phase and its exact-count prefix."""

    def __init__(self, spans):
        self.setup: dict[str, list] = {}
        self.query: dict[str, list] = {}
        self.prefix_calls: Counter = Counter()
        self.access_us: list[float] = []
        for _, name, t0, t1, _, query, self_s in spans:
            table = self.setup if query == SETUP_QUERY else self.query
            agg = table.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += self_s
            if query != SETUP_QUERY:
                if query < COUNT_QUERIES:
                    self.prefix_calls[name] += 1
                if name.startswith("oram.access"):
                    self.access_us.append((t1 - t0) * 1e6)

    def dur(self, table, name) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, table, name) -> float:
        return table.get(name, (0, 0.0, 0.0))[2]


def per_layer(tracer: Tracer, setup_leaf: dict, ph: Phase, untraced: Phase) -> dict:
    """name -> (value, unit, sample count); counts per query come from the
    first COUNT_QUERIES traced queries, times per query from all of them."""
    st = _SpanTotals(tracer.spans)
    exact = COUNT_QUERIES
    n = ph.count
    final_leaf = tracer.leaf_snapshot()
    zero = (0, 0.0, 0)

    def leaf_calls(name):
        return ph.prefix_leaf.get(name, zero)[0] / exact

    def leaf_s(name):
        return final_leaf.get(name, zero)[1] / n

    S, Q = st.setup, st.query
    traced_mpr = ph.ms_per_round()
    untraced_mpr = untraced.ms_per_round()
    m = {
        "graph.spdx_s": (st.dur(S, "graph.spdx"), 1),
        "graph.entries": (tracer.entries, 1),
        "crypto.prf_calls": (setup_leaf.get("crypto.prf", zero)[0], 1),
        "crypto.prf_s": (setup_leaf.get("crypto.prf", zero)[1], 1),
        "crypto.setup_encrypt_calls": (setup_leaf.get("crypto.encrypt", zero)[0], 1),
        "crypto.setup_encrypt_s": (setup_leaf.get("crypto.encrypt", zero)[1], 1),
        "crypto.encrypt_calls": (leaf_calls("crypto.encrypt"), exact),
        "crypto.encrypt_s": (leaf_s("crypto.encrypt"), n),
        "crypto.decrypt_calls": (leaf_calls("crypto.decrypt"), exact),
        "crypto.decrypt_s": (leaf_s("crypto.decrypt"), n),
        "blocks.pack_calls": (leaf_calls("blocks.pack"), exact),
        "blocks.pack_s": (leaf_s("blocks.pack"), n),
        "blocks.unpack_calls": (leaf_calls("blocks.unpack"), exact),
        "blocks.unpack_s": (leaf_s("blocks.unpack"), n),
        "oram.access_calls.data": (st.prefix_calls["oram.access.data"] / exact, exact),
        "oram.access_calls.pm": (st.prefix_calls["oram.access.pm"] / exact, exact),
        "oram.access_us_p50": (statistics.median(st.access_us), len(st.access_us)),
        "oram.access_self_s": (
            (st.self_s(Q, "oram.access.data") + st.self_s(Q, "oram.access.pm")) / n, n),
        "oram.init_self_s": (st.self_s(S, "oram.init"), 1),
        "oram.stash_peak": (tracer.stash_peak, n),
        "storage.read_path_calls": (st.prefix_calls["storage.read_path"] / exact, exact),
        "storage.read_path_s": (st.dur(Q, "storage.read_path") / n, n),
        "storage.write_path_s": (st.dur(Q, "storage.write_path") / n, n),
        "storage.bytes_read": (sum(ph.read_bytes[:exact]) / exact, exact),
        "storage.bytes_written": (sum(ph.written_bytes[:exact]) / exact, exact),
        "storage.trace_records": (sum(ph.records[:exact]) / exact, exact),
        "recursive.get_and_remap_calls": (st.prefix_calls["recursive.get_and_remap"] / exact, exact),
        "recursive.get_and_remap_self_s": (st.self_s(Q, "recursive.get_and_remap") / n, n),
        "recursive.build_self_s": (st.self_s(S, "recursive.build"), 1),
        "recursive.chain_depth": (tracer.chain_depth, 1),
        "wire.encode_calls": (leaf_calls("wire.encode"), exact),
        "wire.encode_s": (leaf_s("wire.encode"), n),
        "wire.decode_s": (leaf_s("wire.decode"), n),
        "wire.frame_bytes": (ph.prefix_leaf.get("wire.encode", zero)[2] / exact, exact),
        "server.dispatch_calls": (st.prefix_calls["server.dispatch"] / exact, exact),
        "server.dispatch_self_s": (st.self_s(Q, "server.dispatch") / n, n),
        "server.transport_wait_s": (
            (st.self_s(Q, "transport.request") - st.dur(Q, "server.handle")) / n, n),
        "protocol.rounds_per_query": (sum(ph.rounds[:exact]) / exact, exact),
        "protocol.query_self_s": (st.self_s(Q, "protocol.query") / n, n),
        "protocol.build_blocks_self_s": (st.self_s(S, "protocol.build_blocks"), 1),
        "trace.ms_per_round_untraced": (untraced_mpr, sum(untraced.rounds)),
        "trace.ms_per_round_traced": (traced_mpr, sum(ph.rounds)),
        "trace.overhead_pct": ((traced_mpr / untraced_mpr - 1) * 100, n),
    }
    return {k: (v, PER_LAYER[k], cnt) for k, (v, cnt) in m.items()}


# ---------------------------------------------------------------------------
# one run


@dataclass
class Report:
    workload: str
    stamp: dict
    metrics: dict  # name -> (value, unit, samples)
    raw: dict  # unscaled time metrics, printed but not in the result line
    attempted: int
    failed: int
    errors: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        })

    def text(self) -> str:
        lines = [f"# workload {self.workload}"]
        lines += [f"# {k}: {v}" for k, v in self.stamp.items()]
        for name, (value, unit, n) in {**self.metrics, **self.raw}.items():
            lines.append(f"{name:32s} {value:>16.6f} {unit:12s} n={n}")
        error_rate = self.failed / self.attempted
        lines.append(f"{'error_rate':32s} {error_rate:>16.6f} {'ratio':12s} n={self.attempted}")
        lines += [f"# error: {e}" for e in self.errors[:20]]
        return "\n".join(lines)


def _versions() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "obge": obge.__version__,
    }


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> Report:
    WORK_DIR.mkdir(exist_ok=True)
    g = make_graph(wl.vertices, OUT_DEGREE, GRAPH_SEED)
    tracer = Tracer() if traced else None

    # set-up: the median of several, or one traced
    setup_raw: list[float] = []
    setup_times: list[float] = []
    result = None
    ref_before = reference_speed(REF_AROUND_SETUP_S)
    for _ in range(1 if traced else wl.setup_reps):
        result = None
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            result = protocol.setup(
                g, mode=wl.mode, bucket_size=BUCKET_SIZE, budget=wl.budget,
                rng=random.Random(f"{seed}/setup"),
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_raw.append(perf_counter() - t0)
        ref_after = reference_speed(REF_AROUND_SETUP_S)
        setup_times.append(setup_raw[-1] * 2 * REF_NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
    setup_leaf = {}
    if tracer is not None:
        setup_leaf = tracer.leaf_snapshot()
        tracer.reset_leaf()

    chain_depth = result.controller.positions.chain_depth if result.controller else 0
    with hosted(result, wl, seed) as (host, client):
        checker = Checker(g, host, chain_depth, wl.mode == protocol.MODE_ENHANCED)
        n = wl.vertices
        warm = run_phase(client, host, checker, pair_stream(n, seed, "warmup"), 0, WARMUP_QUERIES)
        threads = threading.active_count()
        if tracer is None:
            timed = run_phase(client, host, checker, pair_stream(n, seed, "timed"), seconds, COUNT_QUERIES)
            phases = [warm, timed]
        else:
            untraced = run_phase(client, host, checker, pair_stream(n, seed, "untraced"),
                                 seconds * UNTRACED_SHARE, 1)
            tracer.install()
            try:
                timed = run_phase(client, host, checker, pair_stream(n, seed, "traced"),
                                  seconds * (1 - UNTRACED_SHARE), COUNT_QUERIES, tracer=tracer)
            finally:
                tracer.uninstall()
            phases = [warm, untraced, timed]

    if tracer is None:
        metrics = end_to_end(timed, setup_times, result)
        raw = raw_timings(timed, setup_raw)
    else:
        metrics = per_layer(tracer, setup_leaf, timed, untraced)
        raw = {}
        spans_file = WORK_DIR / f"spans-{wl.name}-seed{seed}.csv"
        tracer.write_csv(spans_file)

    stamp = {
        "why": wl.why,
        "graph": f"|V|={wl.vertices} edges={g.edge_count()} entries={result.spdx_size} "
        f"graph_seed={GRAPH_SEED} out_degree={OUT_DEGREE}",
        "scheme": f"mode={wl.mode} Z={BUCKET_SIZE} data_depth={result.params.data_depth} "
        f"chain_depth={chain_depth} budget={wl.budget} chi={result.params.chi}",
        "run": f"seed={seed} seconds={seconds} trace={int(traced)} timed_queries={timed.count} "
        f"warmup={warm.count} setups={len(setup_times)} threads={threads} transport=tcp-127.0.0.1",
        "rounds_histogram": dict(sorted(Counter(timed.rounds).items())),
        **_versions(),
    }
    if tracer is not None:
        stamp["spans"] = f"{len(tracer.spans)} spans written to {spans_file.relative_to(BENCH_DIR.parent)}"
    errors = [e for ph in phases for e in ph.errors]
    return Report(
        workload=wl.name,
        stamp=stamp,
        metrics=metrics,
        raw=raw,
        attempted=sum(ph.count for ph in phases),
        failed=len(errors),
        errors=errors,
    )


def main(argv=None, catalog: dict[str, Workload] = WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description="obge end-to-end and per-layer benchmark over TCP")
    ap.add_argument("--workload", required=True, choices=[*catalog, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    names = list(catalog) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        report = run_workload(catalog[name], args.seed, args.seconds, bool(args.trace))
        print(report.text())
        print(report.result_line())
        sys.stdout.flush()
        ok = ok and report.correct
    return 0 if ok else 1
