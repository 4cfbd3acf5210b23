"""Plaintext graph container, next-hop table, and shortest-path oracle.

The next-hop table feeds the encrypted dictionary: for every ordered
connected pair (u, v) it records the vertex that immediately follows u on
the canonical shortest path to v.  "Canonical" means ties between
equal-cost paths are broken by fewest edges first, then by the smallest
next-hop vertex id, applied recursively; this makes every derived
structure deterministic.

The table holds no Python object per entry: ``compute_spdx`` runs one
search per source, which labels each vertex it reaches with its first hop,
and writes the source's row straight into one dense array('i') of |V|^2
next hops in address order, cell u*|V|+v.  A cell with no hop (u = v, or v
unreachable) holds u itself: a next hop never equals its source, because
``Graph`` refuses self-loops, so every cell is a vertex id and the table is
the encrypted dictionary's block payloads as they stand.  ``PathOracle``
answers the same queries from searches of its own.  For integer weights,
and other weights whose sums are exact, the two agree exactly; decimal
weights can round two equal-cost paths apart, and each side then breaks
the tie by its own sums.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .exceptions import GraphFormatError

# Distances are (total_weight, edge_count) pairs compared lexicographically.
# The edge count only matters when zero-weight edges create cost ties; it
# guarantees the greedy next-hop walk terminates.
Dist = tuple[int | float, int]


@dataclass
class Graph:
    """Directed or undirected graph over vertices 0..vertex_count-1.

    Edges are stored in a dict keyed by ordered pair; undirected graphs
    store both orientations.  Weights are non-negative and default to 1.
    """

    vertex_count: int
    directed: bool = True
    edges: dict[tuple[int, int], int | float] = field(default_factory=dict)

    def __post_init__(self):
        self._adj: list[list[tuple[int, int | float]]] | None = None

    def add_edge(self, u: int, v: int, weight: int | float = 1) -> None:
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise GraphFormatError(f"edge ({u},{v}) out of range for {self.vertex_count} vertices")
        if u == v:
            raise GraphFormatError(f"self-loop ({u},{u}) rejected")
        if weight < 0 or weight != weight or weight in (float("inf"), float("-inf")):
            raise GraphFormatError(f"edge ({u},{v}) has invalid weight {weight!r}")
        # duplicate edges keep the minimum weight
        cur = self.edges.get((u, v))
        if cur is None or weight < cur:
            self.edges[(u, v)] = weight
        if not self.directed:
            cur = self.edges.get((v, u))
            if cur is None or weight < cur:
                self.edges[(v, u)] = weight
        self._adj = None

    @property
    def adjacency(self) -> list[list[tuple[int, int | float]]]:
        """Neighbor lists sorted by vertex id, built lazily."""
        if self._adj is None:
            adj: list[list[tuple[int, int | float]]] = [[] for _ in range(self.vertex_count)]
            for (u, v), w in self.edges.items():
                adj[u].append((v, w))
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    @property
    def is_weighted(self) -> bool:
        return any(w != 1 for w in self.edges.values())

    def edge_count(self) -> int:
        if self.directed:
            return len(self.edges)
        return sum(1 for (u, v) in self.edges if u <= v)

    def reversed(self) -> "Graph":
        rev = Graph(self.vertex_count, directed=True)
        for (u, v), w in self.edges.items():
            cur = rev.edges.get((v, u))
            if cur is None or w < cur:
                rev.edges[(v, u)] = w
        return rev


def load_graph(source: TextIO | Iterable[str], directed: bool = True) -> Graph:
    """Parse an edge-list stream: ``u<TAB>v[<TAB>weight]`` per line.

    Whitespace-separated fields are accepted, blank lines and ``#`` comments
    skipped.  An optional ``#vertices N`` header fixes the vertex count;
    otherwise it is 1 + the largest id seen.
    """
    edges: list[tuple[int, int, int | float]] = []
    declared: int | None = None
    max_id = -1
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0].lower() == "vertices":
                try:
                    declared = int(parts[1])
                except ValueError:
                    raise GraphFormatError(f"bad vertex count {parts[1]!r}", line_no)
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise GraphFormatError(f"expected 2 or 3 fields, got {len(fields)}", line_no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"vertex ids must be integers: {line!r}", line_no)
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in {line!r}", line_no)
        if u == v:
            raise GraphFormatError(f"self-loop ({u},{u}) rejected", line_no)
        weight: int | float = 1
        if len(fields) == 3:
            try:
                weight = int(fields[2])
            except ValueError:
                try:
                    weight = float(fields[2])
                except ValueError:
                    raise GraphFormatError(f"bad weight {fields[2]!r}", line_no)
            if weight < 0 or weight != weight or weight == float("inf"):
                raise GraphFormatError(f"weight must be finite and >= 0, got {fields[2]}", line_no)
        edges.append((u, v, weight))
        max_id = max(max_id, u, v)

    count = declared if declared is not None else max_id + 1
    if max_id >= count:
        raise GraphFormatError(f"vertex id {max_id} exceeds declared count {count}")
    g = Graph(max(count, 0), directed=directed)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


def _sssp(adj: list[list[tuple[int, int | float]]], src: int, weighted: bool) -> dict[int, Dist]:
    """Single-source distances as (weight, hops), reached vertices only."""
    if not weighted:
        dist: dict[int, Dist] = {src: (0, 0)}
        q = deque([src])
        while q:
            u = q.popleft()
            d, h = dist[u]
            for v, _ in adj[u]:
                if v not in dist:
                    dist[v] = (d + 1, h + 1)
                    q.append(v)
        return dist

    dist = {}
    heap: list[tuple[int | float, int, int]] = [(0, 0, src)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = (d, h)
        for v, w in adj[u]:
            if v not in dist:
                heapq.heappush(heap, (d + w, h + 1, v))
    return dist


class SPMatrix:
    """All-pairs next-hop table: cell (u, v) holds the vertex right after u
    on the canonical shortest u->v path, or None when u = v or v is
    unreachable.  The cells are one dense array('i') in address order, cell
    u*|V|+v, with u itself for None: 4|V|^2 bytes, and no object per
    entry.  count is the number of cells that hold a hop."""

    def __init__(self, dimension: int, table: array, count: int):
        self.dimension = dimension
        self.table = table
        self.count = count

    def next_hop(self, u: int, v: int) -> int | None:
        self._check(u)
        self._check(v)
        w = self.table[u * self.dimension + v]
        return None if w == u else w

    def _check(self, x: int) -> None:
        if not (0 <= x < self.dimension):
            raise IndexError(f"vertex {x} out of range [0, {self.dimension})")

    def __len__(self) -> int:
        return self.count

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """((u, v), w) for every cell that holds a hop, in address order."""
        n, table = self.dimension, self.table
        for u in range(n):
            for v, w in enumerate(table[u * n : (u + 1) * n]):
                if w != u:
                    yield (u, v), w


def compute_spdx(g: Graph) -> SPMatrix:
    """Next-hop table from one search per source, which labels each vertex
    with its first hop when it first reaches it and writes the source's row
    straight into the table.

    A row starts as |V| copies of its source u, so the diagonal and the
    vertices u never reaches hold u (None); while the search runs, u's own
    cell holds -1, so a cell holding u is one not yet reached.  In a
    weighted graph it is Dijkstra from u's out-edges, keyed (weight, edges,
    first hop, vertex): every shortest-path predecessor of a vertex has a
    strictly smaller key and pops first, so a vertex's first pop carries the
    smallest first hop among its shortest paths.  With unit weights it is a
    breadth-first search over ascending neighbours: within a level the
    queue stays sorted by first hop, so each vertex is first reached
    through its smallest one.  No distance is compared across two
    searches, so decimal weights lose no reachable pair to rounding.
    """
    n = g.vertex_count
    adj = g.adjacency
    weighted = g.is_weighted
    table = array("i")
    count = 0
    for u in range(n):
        row = [u] * n
        row[u] = -1
        if weighted:
            heap = [(wt, 1, w, w) for w, wt in adj[u]]
            heapq.heapify(heap)
            while heap:
                d, h, first, x = heapq.heappop(heap)
                if row[x] != u:
                    continue
                row[x] = first
                count += 1
                for y, wt in adj[x]:
                    if row[y] == u:
                        heapq.heappush(heap, (d + wt, h + 1, first, y))
        else:
            queue = [w for w, _ in adj[u]]
            for w in queue:
                row[w] = w
            for x in queue:  # the list grows behind the loop: a FIFO queue
                first = row[x]
                for y, _ in adj[x]:
                    if row[y] == u:
                        row[y] = first
                        queue.append(y)
            count += len(queue)
        row[u] = u
        table.fromlist(row)
    return SPMatrix(n, table, count)


class PathOracle:
    """Shortest-path answers computed independently of the next-hop table:
    reverse-graph Dijkstra per destination plus a greedy forward walk.
    Distance maps are cached per destination so all-pairs sweeps stay
    affordable."""

    def __init__(self, g: Graph):
        self.g = g
        self._weighted = g.is_weighted
        self._rev_adj = g.reversed().adjacency
        self._to_dest: dict[int, dict[int, Dist]] = {}

    def _dist_to(self, v: int) -> dict[int, Dist]:
        cached = self._to_dest.get(v)
        if cached is None:
            cached = self._to_dest[v] = _sssp(self._rev_adj, v, self._weighted)
        return cached

    def path(self, u: int, v: int) -> list[int] | None:
        g = self.g
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            raise IndexError(f"vertex pair ({u},{v}) out of range [0, {g.vertex_count})")
        if u == v:
            return []
        to_v = self._dist_to(v)
        if u not in to_v:
            return None
        path = [u]
        curr = u
        adj = g.adjacency
        while curr != v:
            d, h = to_v[curr]
            for w, wt in adj[curr]:
                rest = to_v.get(w)
                # the addition the reverse search made, so its own
                # predecessor matches however the sum rounds
                if rest is not None and rest[1] == h - 1 and rest[0] + wt == d:
                    curr = w
                    break
            else:  # unreachable under the invariants; guards corrupt inputs
                raise AssertionError(f"no shortest-path successor from {curr} toward {v}")
            path.append(curr)
        return path


def spath_oracle(g: Graph, u: int, v: int) -> list[int] | None:
    """Canonical shortest path from u to v; the empty list when u == v,
    None when v is unreachable.  One-shot form of PathOracle."""
    return PathOracle(g).path(u, v)


def connected_pair_count(g: Graph) -> int:
    """Number of ordered pairs (u, v), u != v, with a path from u to v."""
    adj = g.adjacency
    weighted = g.is_weighted
    return sum(len(_sssp(adj, u, weighted)) - 1 for u in range(g.vertex_count))
