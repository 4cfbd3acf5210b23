"""Leakage auditing over recorded access traces.

The host may learn each query's path length and nothing else, so every
query must leave records of one shape (``QueryShape``): optionally framed
by an ``EnclaveRequest`` of exactly ``protocol.REQUEST_WIDTH`` = 36 bytes,
the session encryption of the 8-byte pair, and an ``EnclaveResponse`` of
exactly ``protocol.response_width(|p|)`` bytes, the session overhead, a
2-byte hop count and 4 bytes a hop; inside, (|p|+1)(1+chain_depth) ``ReadPath``/``WritePath`` pairs in tree
order, the top position-map level first and the data tree (tree 0) last,
each pair on one tree and one leaf, each record exactly its tree's
``path_width`` wide and each leaf below its tree's leaf count.  The
geometry is the trees' own, read from the tree file headers; chain_depth
is the number of trees after the data tree.

Over the queries whose shape holds, the auditor then runs two chi-square
tests on leaf histograms of at most ``MAX_BINS`` equal bins.  Each tree's
leaves are tested for uniformity over its 2^depth leaves (Pearson's
goodness of fit).  The data-tree leaves of the two most frequent queries of
each path length are tested for homogeneity (the 2 x k contingency test
over the non-empty bins, with Yates' continuity correction at df = 1).
Both take their p-value from the exact chi-square tail for integer df.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from .blocks import TreeParams
from .exceptions import ProtocolError
from .protocol import REQUEST_WIDTH, response_width
from .storage import AccessTrace, TraceRecord

SIGNIFICANCE = 0.01
# leaf histograms have at most this many bins
MAX_BINS = 64


@dataclass
class QueryTruth:
    """Ground truth the harness supplies: one row per executed query."""

    u: int
    v: int
    path_len: int  # edge count; 0 for diagonal or disconnected pairs

    def to_csv(self) -> str:
        return f"{self.u},{self.v},{self.path_len}"


def save_query_log(path: str | Path, rows: list[QueryTruth]) -> None:
    with open(path, "w") as f:
        f.write("u,v,path_len\n")
        for r in rows:
            f.write(r.to_csv() + "\n")


def load_query_log(path: str | Path) -> list[QueryTruth]:
    """A log saved by ``save_query_log``; a malformed line raises
    ProtocolError naming the file and the line."""
    rows = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "u,v,path_len":
            raise ProtocolError(f"{path}: unrecognized query log header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                u, v, plen = map(int, line.split(","))
            except ValueError:
                raise ProtocolError(f"{path}, line {lineno}: expected u,v,path_len integers, got {line!r}") from None
            if min(u, v, plen) < 0:
                raise ProtocolError(f"{path}, line {lineno}: expected non-negative u,v,path_len, got {line!r}")
            rows.append(QueryTruth(u, v, plen))
    return rows


def bin_leaves(leaves: list[int], leaf_space: int) -> list[int]:
    """Histogram leaf ids into equal power-of-two bins, at most MAX_BINS, so
    chi-square cells stay adequately filled."""
    bins = min(leaf_space, MAX_BINS)
    counts = [0] * bins
    for leaf in leaves:
        counts[leaf * bins // leaf_space] += 1
    return counts


def _chi2_sf(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-square with integer df >= 1.  With y = stat/2
    the tail is a Poisson sum, sum of e^-y y^a / a! over a = 0, 1, .. < df/2,
    for even df; for odd df it is erfc(sqrt(y)) plus the same sum over
    a = 1/2, 3/2, .. < df/2.  Every addend is positive, so nothing cancels."""
    if stat <= 0:
        return 1.0
    y = stat / 2
    tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    a = df % 2 / 2
    while a < df / 2:
        tail += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return min(tail, 1.0)


def uniformity_pvalue(leaves: list[int], leaf_space: int) -> float:
    """Pearson's goodness-of-fit test of the binned leaves against uniform."""
    if leaf_space == 1 or not leaves:
        return 1.0
    counts = bin_leaves(leaves, leaf_space)
    expected = len(leaves) / len(counts)
    return _chi2_sf(math.fsum((c - expected) ** 2 for c in counts) / expected, len(counts) - 1)


def two_sample_pvalue(a: list[int], b: list[int], leaf_space: int) -> float:
    """Chi-square homogeneity test: can the two leaf samples be told apart?
    The 2 x k table keeps the bins either sample reaches; at df = 1 each
    |O - E| shrinks by min(0.5, |O - E|) (Yates)."""
    if not a or not b:
        raise ValueError(f"two-sample test needs two non-empty samples, got {len(a)} and {len(b)} leaves")
    if leaf_space == 1:
        return 1.0
    rows = [bin_leaves(a, leaf_space), bin_leaves(b, leaf_space)]
    columns = [col for col in zip(*rows) if any(col)]
    if len(columns) < 2:
        return 1.0
    df = len(columns) - 1
    terms = []
    for col in columns:
        for observed, n in zip(col, (len(a), len(b))):
            expected = n * sum(col) / (len(a) + len(b))
            diff = abs(observed - expected)
            if df == 1:
                diff -= min(0.5, diff)
            terms.append(diff * diff / expected)
    return _chi2_sf(math.fsum(terms), df)


def repeat_rate_zscore(leaves: list[int], leaf_space: int) -> float:
    """Lag-1 collision rate against the independent-uniform expectation."""
    n = len(leaves) - 1
    if n <= 0 or leaf_space == 1:
        return 0.0
    repeats = sum(1 for x, y in zip(leaves, leaves[1:]) if x == y)
    p = 1.0 / leaf_space
    sd = (n * p * (1 - p)) ** 0.5
    return (repeats - n * p) / sd


class QueryShape:
    """The records one query may leave on the host, given each tree's
    geometry (tree id -> TreeParams, ids 0..chain_depth).  The first query
    checked fixes whether queries are framed."""

    def __init__(self, trees: dict[int, TreeParams]):
        if not trees or sorted(trees) != list(range(len(trees))):
            raise ProtocolError(f"tree ids {sorted(trees)} are not 0..n-1")
        self.trees = trees
        self.order = list(range(len(trees) - 1, -1, -1))  # top map level first, data tree last
        self.framed: bool | None = None

    def size(self, path_len: int, framed: bool) -> int:
        """Records of one query with that path length."""
        return 2 * (path_len + 1) * len(self.order) + 2 * framed

    def check(self, records: list[TraceRecord], path_len: int, first: int = 0) -> str | None:
        """The first fault in one query's records, naming its index in the
        trace (records[0] is record ``first``), or None."""
        framed = bool(records) and records[0].msg_type == "EnclaveRequest"
        if self.framed is None:
            self.framed = framed
        if framed != self.framed:
            got = records[0].msg_type if records else "end of trace"
            return f"record {first}: {got}, expected {'EnclaveRequest' if self.framed else 'ReadPath'}"
        want = self.size(path_len, framed)
        if len(records) != want:
            return f"record {first + min(len(records), want)}: query has {len(records)} records, expected {want}"
        path, at = records, first
        if framed:
            if records[0].byte_count != REQUEST_WIDTH:
                return f"record {first}: request of {records[0].byte_count} bytes, expected {REQUEST_WIDTH}"
            if records[-1].msg_type != "EnclaveResponse":
                return f"record {first + want - 1}: {records[-1].msg_type}, expected EnclaveResponse"
            if records[-1].byte_count != response_width(path_len):
                return (
                    f"record {first + want - 1}: response of {records[-1].byte_count} bytes, "
                    f"expected {response_width(path_len)} for {path_len} hop(s)"
                )
            path, at = records[1:-1], first + 1
        for i in range(0, len(path), 2):
            tree = self.order[(i // 2) % len(self.order)]
            p = self.trees[tree]
            for j, kind in enumerate(("ReadPath", "WritePath")):
                rec = path[i + j]
                if rec.msg_type != kind or rec.tree_id != tree:
                    return f"record {at + i + j}: {rec.msg_type} on tree {rec.tree_id}, expected {kind} on tree {tree}"
                if rec.byte_count != p.path_width:
                    return f"record {at + i + j}: {rec.byte_count} bytes, tree {tree} paths are {p.path_width}"
                if rec.leaf is None or not 0 <= rec.leaf < p.leaves:
                    return f"record {at + i + j}: leaf {rec.leaf} outside tree {tree}'s {p.leaves} leaves"
            if path[i + 1].leaf != path[i].leaf:
                return f"record {at + i + 1}: written at leaf {path[i + 1].leaf}, read at leaf {path[i].leaf}"
        return None


@dataclass
class AuditReport:
    n_queries: int
    shape_fault: str | None  # the first query whose records break the shape
    leaf_spaces: dict[int, int]  # tree id -> leaf count from its header
    uniformity_p: dict[int, float]  # tree id -> p over its read leaves
    repeat_z: float  # lag-1 repeats of the data tree's read leaves
    pairwise_p: dict[tuple[str, str], float]

    @property
    def shape_ok(self) -> bool:
        return self.shape_fault is None

    @property
    def uniformity_level(self) -> float:
        """SIGNIFICANCE shared over the per-tree tests (Bonferroni)."""
        return SIGNIFICANCE / len(self.uniformity_p)

    @property
    def uniformity_ok(self) -> bool:
        return all(p >= self.uniformity_level for p in self.uniformity_p.values())

    @property
    def indistinguishable(self) -> bool:
        return all(p >= SIGNIFICANCE for p in self.pairwise_p.values())

    @property
    def ok(self) -> bool:
        return self.shape_ok and self.uniformity_ok and self.indistinguishable

    def summary(self) -> str:
        verdict = {True: "PASS", False: "FAIL"}
        lines = [
            f"queries audited: {self.n_queries}",
            f"query shape against the tree headers: {verdict[self.shape_ok]}"
            + (f" ({self.shape_fault})" if self.shape_fault else ""),
        ]
        for tree, p in self.uniformity_p.items():
            lines.append(
                f"leaf uniformity, tree {tree} ({self.leaf_spaces[tree]} leaves): p={p:.4f} "
                f"({verdict[p >= self.uniformity_level]} at {self.uniformity_level:.4g})"
            )
        lines.append(f"lag-1 repeat-rate z, tree 0: {self.repeat_z:+.2f}")
        for pair, p in self.pairwise_p.items():
            lines.append(f"two-sample {pair[0]} vs {pair[1]}: p={p:.4f}")
        lines.append(f"equal-length indistinguishability: {verdict[self.indistinguishable]}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = [
            ("n_queries", self.n_queries),
            ("shape_ok", int(self.shape_ok)),
            *((f"uniformity_p_tree_{t}", f"{p:.6f}") for t, p in self.uniformity_p.items()),
            ("repeat_z", f"{self.repeat_z:.4f}"),
            ("indistinguishable", int(self.indistinguishable)),
            *((f"two_sample_{a}_{b}", f"{p:.6f}") for (a, b), p in self.pairwise_p.items()),
        ]
        return "metric,value\n" + "\n".join(f"{k},{v}" for k, v in rows)


def audit_trace(trace: AccessTrace, truths: list[QueryTruth], trees: dict[int, TreeParams]) -> AuditReport:
    """Check each query's records against ``QueryShape`` in trace order, up
    to the first fault, then test the leaves of the queries checked."""
    shape = QueryShape(trees)
    records = trace.records
    leaves: dict[int, list[int]] = {t: [] for t in sorted(trees)}
    by_query: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    fault = None
    at = 0
    for i, t in enumerate(truths):
        framed = at < len(records) and records[at].msg_type == "EnclaveRequest"
        part = records[at : at + shape.size(t.path_len, framed)]
        fault = shape.check(part, t.path_len, at)
        if fault is not None:
            fault = f"query {i} ({t.u},{t.v}), {fault}"
            break
        reads = [r for r in part if r.msg_type == "ReadPath"]
        for r in reads:
            leaves[r.tree_id].append(r.leaf)
        by_query[(t.u, t.v, t.path_len)].extend(r.leaf for r in reads if r.tree_id == 0)
        at += len(part)
    if fault is None and at < len(records):
        fault = f"record {at}: {len(records) - at} record(s) after the last query, query {len(truths) - 1}"

    # two-sample tests between the two most frequent queries of equal length
    data_leaves = trees[0].leaves
    pairwise: dict[tuple[str, str], float] = {}
    by_len: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for key in by_query:
        by_len[key[2]].append(key)
    for plen, keys in sorted(by_len.items()):
        keys = sorted(keys, key=lambda k: -len(by_query[k]))
        if len(keys) < 2:
            continue
        a, b = keys[0], keys[1]
        pairwise[(f"({a[0]},{a[1]})", f"({b[0]},{b[1]})")] = two_sample_pvalue(by_query[a], by_query[b], data_leaves)

    return AuditReport(
        n_queries=len(truths),
        shape_fault=fault,
        leaf_spaces={t: trees[t].leaves for t in leaves},
        uniformity_p={t: uniformity_pvalue(ls, trees[t].leaves) for t, ls in leaves.items()},
        repeat_z=repeat_rate_zscore(leaves[0], data_leaves),
        pairwise_p=pairwise,
    )
