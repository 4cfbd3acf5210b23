import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from obge.exceptions import GraphFormatError
from obge.graph import (
    Graph,
    PathOracle,
    _sssp,
    compute_spdx,
    connected_pair_count,
    load_graph,
    spath_oracle,
)
from conftest import random_graph


def follow_matrix(matrix, u, v):
    """Chase next hops; independent reconstruction of the stored path."""
    if u == v:
        return []
    if matrix.next_hop(u, v) is None:
        return None
    path = [u]
    cur = u
    while cur != v:
        cur = matrix.next_hop(cur, v)
        path.append(cur)
        assert len(path) <= matrix.dimension, "next-hop chase revisited a vertex"
    return path


class TestLoadGraph:
    def test_basic_edge_list(self):
        g = load_graph(io.StringIO("0\t1\n1\t2\n2\t3\n0\t2\n"), directed=True)
        assert g.vertex_count == 4
        assert len(g.edges) == 4

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(io.StringIO("3\t3\n"))

    def test_malformed_line_carries_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(io.StringIO("0\t1\nnope\n"))

    def test_header_fixes_vertex_count(self):
        g = load_graph(io.StringIO("#vertices 10\n0\t1\n"))
        assert g.vertex_count == 10

    def test_duplicate_edges_keep_minimum_weight(self):
        g = load_graph(io.StringIO("0\t1\t5\n0\t1\t2\n0\t1\t9\n"))
        assert g.edges[(0, 1)] == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph(io.StringIO("0\t1\t-3\n"))

    def test_spaces_accepted(self):
        g = load_graph(io.StringIO("0 1\n1 2\n"))
        assert g.vertex_count == 3


class TestSPMatrix:
    def test_four_vertex_next_hop(self, four_vertex_directed):
        m = compute_spdx(four_vertex_directed)
        assert m.next_hop(0, 3) == 2  # 0->2->3 is the unique shortest

    def test_diagonal_always_none(self, four_vertex_directed, rng):
        m = compute_spdx(four_vertex_directed)
        for u in range(4):
            assert m.next_hop(u, u) is None
        g = random_graph(rng, 15, 0.3)
        m = compute_spdx(g)
        for u in range(15):
            assert m.next_hop(u, u) is None

    def test_isolated_pair_none(self):
        m = compute_spdx(Graph(2, directed=True))
        assert m.next_hop(0, 1) is None

    def test_out_of_range_raises(self, four_vertex_directed):
        m = compute_spdx(four_vertex_directed)
        with pytest.raises(IndexError):
            m.next_hop(0, 4)


class TestSPDX:
    def test_four_vertex_entries(self, four_vertex_directed):
        # every cell that holds a hop, in address order
        assert list(compute_spdx(four_vertex_directed).items()) == [
            ((0, 1), 1), ((0, 2), 2), ((0, 3), 2), ((1, 2), 2), ((1, 3), 2), ((2, 3), 3)
        ]

    def test_edgeless_graph_empty(self):
        m = compute_spdx(Graph(5, directed=True))
        assert len(m) == 0 and list(m.items()) == []

    def test_complete_digraph_on_three(self):
        g = Graph(3, directed=True)
        for u in range(3):
            for v in range(3):
                if u != v:
                    g.add_edge(u, v)
        spdx = compute_spdx(g)
        assert len(spdx) == 6
        for (u, v), w in spdx.items():
            assert w == v

    def test_completeness_equals_connected_pairs(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 40), 0.15, weighted=rng.random() < 0.5)
            assert len(compute_spdx(g)) == connected_pair_count(g)


def reference_next_hops(g: Graph) -> dict[tuple[int, int], int]:
    """The next-hop table as a dict, by a loop across two searches: every
    source's distances held as a dict of (weight, hops) tuples, and for
    each u the first neighbor w, in ascending order, whose distances plus
    the edge match u's.  Exact only where the weights' sums are."""
    weighted = g.is_weighted
    adj = g.adjacency
    rows = [_sssp(adj, u, weighted) for u in range(g.vertex_count)]
    hops: dict[tuple[int, int], int] = {}
    for u in range(g.vertex_count):
        du = rows[u]
        for w, wt in adj[u]:
            dw = rows[w]
            for v, (dv, hv) in dw.items():
                if v == u or (u, v) in hops:
                    continue
                target = du.get(v)
                if target is not None and target == (dv + wt, hv + 1):
                    hops[(u, v)] = w
    return hops


# edge weights by kind: "big" totals past 2^52, beyond what a double holds
# exactly, and "float" sums depend on their order
WEIGHTS = {
    "unit": lambda rng: 1,
    "integer": lambda rng: rng.randint(1, 9),
    "zero": lambda rng: rng.randint(0, 2),
    "float": lambda rng: rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 2.5]),
    "mixed": lambda rng: rng.choice([1, 2, 0.1, 0.3, 1.5]),
    "big": lambda rng: rng.randint(1, 2**60),
}
DECIMAL = ("float", "mixed")


def reference_graphs(kind: str, directed: bool):
    """40 seeded graphs of 1 to 24 vertices with weights of that kind."""
    rng = random.Random(f"{kind}/{directed}")
    for _ in range(40):
        n = rng.randint(1, 24)
        g = Graph(n, directed=directed)
        # edges within two parts alone, so that most graphs are
        # disconnected, and some across
        cut = rng.randint(0, n)
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and ((u < cut) == (v < cut) or rng.random() < 0.1):
                g.add_edge(u, v, WEIGHTS[kind](rng))
        yield g


class TestReferenceTable:
    """The dense table against the loop across two searches, entry for
    entry, where the weights' sums are exact.  With decimal weights that
    loop loses pairs to rounding, so there the table is held to every
    reachable pair, each walk ending at its destination."""

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_table_matches_the_reference(self, kind, directed):
        for g in reference_graphs(kind, directed):
            n = g.vertex_count
            m = compute_spdx(g)
            if kind in DECIMAL:
                assert len(m) == connected_pair_count(g)
                for (u, v), _ in m.items():
                    path = follow_matrix(m, u, v)  # at most |V| - 1 hops
                    assert path[-1] == v and len(path) <= n, (u, v)
                continue
            reference = reference_next_hops(g)
            assert len(m) == len(reference)
            for u in range(n):
                for v in range(n):
                    assert m.next_hop(u, v) == reference.get((u, v)), (u, v)
            assert dict(m.items()) == reference


class TestOracle:
    def test_four_vertex_path(self, four_vertex_directed):
        assert spath_oracle(four_vertex_directed, 0, 3) == [0, 2, 3]

    def test_source_equals_destination(self, four_vertex_directed):
        assert spath_oracle(four_vertex_directed, 1, 1) == []

    def test_unreachable_is_none(self):
        assert spath_oracle(Graph(2, directed=True), 0, 1) is None

    def test_out_of_range(self, four_vertex_directed):
        with pytest.raises(IndexError):
            spath_oracle(four_vertex_directed, 0, 9)

    def test_decimal_chain(self):
        # road-like decimal weights, where 0.7 + (0.2 + 0.2) and
        # (0.7 + 0.2) + 0.2 round apart: a successor test that subtracts an
        # edge weight from a distance finds no successor of 3
        g = load_graph(io.StringIO("3\t1\t0.7\n1\t2\t0.2\n2\t0\t0.2\n"))
        assert spath_oracle(g, 3, 0) == [3, 1, 2, 0]

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("kind", DECIMAL)
    def test_decimal_weights_path_every_reachable_pair(self, kind, directed):
        for g in reference_graphs(kind, directed):
            oracle = PathOracle(g)
            n = g.vertex_count
            found = sum(oracle.path(u, v) is not None for u in range(n) for v in range(n) if u != v)
            assert found == connected_pair_count(g)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**32 - 1),
    weighted=st.booleans(),
    directed=st.booleans(),
)
def test_matrix_reproduces_oracle(n, seed, weighted, directed):
    """Following stored next hops must reproduce the independent oracle
    vertex-for-vertex, and hop counts must equal path edge counts."""
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.5), weighted=weighted, directed=directed)
    m = compute_spdx(g)
    for u in range(n):
        for v in range(n):
            assert follow_matrix(m, u, v) == spath_oracle(g, u, v)


def test_matrix_oracle_agrees_on_larger_graphs():
    rng = random.Random(7)
    for n in (120, 200):
        g = random_graph(rng, n, 2.0 / n, weighted=True)
        m = compute_spdx(g)
        for _ in range(300):
            u, v = rng.randrange(n), rng.randrange(n)
            assert follow_matrix(m, u, v) == spath_oracle(g, u, v)


def test_zero_weight_edges_still_terminate():
    g = Graph(4, directed=True)
    g.add_edge(0, 1, 0)
    g.add_edge(1, 0, 0)
    g.add_edge(1, 2, 1)
    g.add_edge(0, 2, 1)
    m = compute_spdx(g)
    for u in range(4):
        for v in range(4):
            assert follow_matrix(m, u, v) == spath_oracle(g, u, v)
