import itertools
import random

import pytest

from obge.attack import (
    QueryRecovery,
    ahu_label,
    build_sp_trees,
    path_length_classes,
    round_classes,
)
from obge.cli import main
from obge.gkt import GktScheme
from obge.graph import Graph, compute_spdx, spath_oracle
from obge.protocol import rounds
from conftest import random_graph


def path_graph(n):
    g = Graph(n, directed=True)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def star_graph(leaves):
    g = Graph(leaves + 1, directed=True)
    for leaf in range(1, leaves + 1):
        g.add_edge(leaf, 0)
    return g


class TestGkt:
    def test_sequence_length_is_path_len_plus_one(self, four_vertex_directed):
        scheme = GktScheme(four_vertex_directed)
        resp, seq = scheme.query(0, 3)
        assert len(resp) == 2 and len(seq) == 3

    def test_identical_queries_identical_sequences(self, four_vertex_directed):
        scheme = GktScheme(four_vertex_directed)
        _, a = scheme.query(0, 3)
        _, b = scheme.query(0, 3)
        assert a == b  # the query-pattern leak

    def test_shared_destination_suffix(self, four_vertex_directed):
        scheme = GktScheme(four_vertex_directed)
        _, a = scheme.query(0, 3)
        _, b = scheme.query(2, 3)
        assert a[-len(b):] == b  # the path intersection leak

    def test_reveal_matches_oracle(self, rng):
        g = random_graph(rng, 15, 0.25, weighted=True)
        scheme = GktScheme(g)
        for u in range(15):
            for v in range(15):
                resp, _ = scheme.query(u, v)
                assert scheme.reveal(resp, u, v) == spath_oracle(g, u, v)


class TestSpTrees:
    def test_four_vertex_destination_three(self, four_vertex_directed):
        trees = build_sp_trees(four_vertex_directed)
        assert trees[3].parent == {0: 2, 1: 2, 2: 3}

    def test_edgeless_graph_singletons(self):
        trees = build_sp_trees(Graph(5, directed=True))
        assert len(trees) == 5
        for t in trees:
            assert t.vertices == {t.root}

    def test_chain_tree(self):
        trees = build_sp_trees(path_graph(3))
        assert trees[2].parent == {0: 1, 1: 2}


class TestAhu:
    def test_single_vertex(self):
        assert ahu_label({0: []}, 0) == "()"

    def test_star_vs_chain_distinct(self):
        star = {0: [1, 2], 1: [], 2: []}
        chain = {0: [1], 1: [2], 2: []}
        assert ahu_label(star, 0) != ahu_label(chain, 0)

    def test_mirrored_embeddings_equal(self):
        a = {0: [1, 2], 1: [3, 4], 2: [], 3: [], 4: []}
        b = {0: [2, 1], 2: [], 1: [4, 3], 4: [], 3: []}
        assert ahu_label(a, 0) == ahu_label(b, 0)

    def test_exhaustive_up_to_eight_vertices(self):
        """Label equality must coincide with brute-force rooted isomorphism
        on every rooted tree shape with at most 8 vertices."""
        shapes = all_rooted_shapes(8)
        assert len(shapes) == 200  # cumulative count of rooted trees, n=1..8

        rng = random.Random(5)
        labeled = [(shape, ahu_label(*scramble(shape, rng)) ) for shape in shapes]
        for (s1, l1), (s2, l2) in itertools.combinations(labeled, 2):
            assert (l1 == l2) == brute_force_iso(s1, s2), (s1, s2)
        for s, l in labeled:
            assert l == ahu_label(*scramble(s, rng))  # invariant under relabeling


def all_rooted_shapes(max_n):
    """Every unlabeled rooted tree with up to max_n vertices, as canonical
    nested tuples (children sorted)."""
    memo = {1: [()]}

    def gen(n):
        if n in memo:
            return memo[n]
        out = []

        def rec(remaining, bound_size, bound_idx, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for s in range(min(remaining, bound_size), 0, -1):
                subs = gen(s)
                start = bound_idx if s == bound_size else len(subs) - 1
                for i in range(min(start, len(subs) - 1), -1, -1):
                    acc.append(subs[i])
                    rec(remaining - s, s, i, acc)
                    acc.pop()

        rec(n - 1, n - 1, 10**9, [])
        memo[n] = out
        return out

    shapes = []
    for n in range(1, max_n + 1):
        shapes.extend(gen(n))
    return shapes


def scramble(shape, rng):
    """Random children order and vertex names for a canonical shape."""
    children = {}
    counter = itertools.count()

    def walk(node_shape):
        name = next(counter)
        kids = list(node_shape)
        rng.shuffle(kids)
        children[name] = [walk(k) for k in kids]
        return name

    root = walk(shape)
    return children, root


def brute_force_iso(t1, t2):
    """Rooted isomorphism by backtracking child matching; no canonical
    encoding involved."""
    if len(t1) != len(t2):
        return False
    used = [False] * len(t2)

    def match(i):
        if i == len(t1):
            return True
        for j in range(len(t2)):
            if not used[j] and brute_force_iso(t1[i], t2[j]):
                used[j] = True
                if match(i + 1):
                    return True
                used[j] = False
        return False

    return match(0)


class TestQueryRecovery:
    def test_unique_longest_chain(self):
        g = path_graph(4)
        scheme = GktScheme(g)
        _, seq = scheme.query(0, 3)
        assert QueryRecovery(g).candidates([seq]) == [{(0, 3)}]

    def test_star_ambiguity(self):
        g = star_graph(4)
        scheme = GktScheme(g)
        _, seq = scheme.query(2, 0)
        assert QueryRecovery(g).candidates([seq]) == [{(1, 0), (2, 0), (3, 0), (4, 0)}]

    def test_soundness_random_partial_observations(self, rng):
        for _ in range(15):
            n = rng.randrange(4, 22)
            g = random_graph(rng, n, 0.2)
            scheme = GktScheme(g)
            pairs = [pair for pair, _ in compute_spdx(g).items()]
            if not pairs:
                continue
            queries = rng.sample(pairs, min(len(pairs), rng.randrange(1, 14)))
            seqs = [scheme.query(u, v)[1] for u, v in queries]
            for truth, cands in zip(queries, QueryRecovery(g).candidates(seqs)):
                assert truth in cands

    def test_soundness_complete_observation(self, rng):
        for _ in range(5):
            g = random_graph(rng, rng.randrange(5, 16), 0.25)
            scheme = GktScheme(g)
            pairs = [pair for pair, _ in compute_spdx(g).items()]
            seqs = [scheme.query(u, v)[1] for u, v in pairs]
            for truth, cands in zip(pairs, QueryRecovery(g).candidates(seqs, assume_complete=True)):
                assert truth in cands

    def test_more_observations_never_grow_candidates(self, rng):
        g = random_graph(rng, 14, 0.25)
        scheme = GktScheme(g)
        pairs = [pair for pair, _ in compute_spdx(g).items()]
        if len(pairs) < 4:
            pytest.skip("graph too sparse")
        some = pairs[: len(pairs) // 2]
        seq_some = [scheme.query(u, v)[1] for u, v in some]
        recovery = QueryRecovery(g)
        few = recovery.candidates(seq_some)
        seq_all = [scheme.query(u, v)[1] for u, v in pairs]
        more = recovery.candidates(seq_all)
        for i, truth in enumerate(some):
            assert more[i] <= few[i], truth


class TestSeparation:
    def test_gkt_candidates_within_length_class(self, rng):
        """Token-sequence candidates can never be coarser than what the
        round count alone reveals.  A baseline query probes one token a
        round, so its sequence is as long as the oblivious scheme's round
        count."""
        g = random_graph(rng, 16, 0.2)
        scheme = GktScheme(g)
        pairs = [pair for pair, _ in compute_spdx(g).items()]
        seqs = [scheme.query(u, v)[1] for u, v in pairs]
        cands = QueryRecovery(g).candidates(seqs, assume_complete=True)
        lengths = path_length_classes(g)
        classes = round_classes(g)
        for pair, seq, cs in zip(pairs, seqs, cands):
            assert len(seq) == rounds(lengths[pair])
            assert cs <= classes[rounds(lengths[pair])]

    def test_round_classes_partition_every_pair(self):
        # 0 -> 1 -> 2 and 3 isolated: class rounds(0) is the diagonal and
        # every pair with no path; each other pair sits in the class of its
        # edge count's rounds
        g = Graph(4, directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        classes = round_classes(g)
        assert classes == {
            rounds(0): {(u, v) for u in range(4) for v in range(4)} - {(0, 1), (1, 2), (0, 2)},
            rounds(1): {(0, 1), (1, 2)},
            rounds(2): {(0, 2)},
        }

    def test_strict_separation_on_distinguishable_trees(self):
        # two same-length queries toward structurally different destinations:
        # chain 0->1->2 and star (3,4)->5 with 5->6 making trees differ
        g = Graph(7, directed=True)
        for u, v in [(0, 1), (1, 2), (3, 5), (4, 5), (5, 6)]:
            g.add_edge(u, v)
        scheme = GktScheme(g)
        pairs = [pair for pair, _ in compute_spdx(g).items()]
        seqs = [scheme.query(u, v)[1] for u, v in pairs]
        cands = QueryRecovery(g).candidates(seqs, assume_complete=True)
        sizes = {p: len(c) for p, c in zip(pairs, cands)}
        lengths = path_length_classes(g)
        classes = round_classes(g)
        for p, cs in sizes.items():
            assert cs <= len(classes[rounds(lengths[p])])
        # (0,2) and (3,6) both have length 2, but their destination trees
        # are non-isomorphic, so the attack separates them
        assert sizes[(0, 2)] < len(classes[rounds(2)])


@pytest.mark.parametrize("fault", [None, "misses its query", "is coarser than its round class"])
def test_attack_demo_exits_1_on_an_unsound_candidate_set(tmp_path, monkeypatch, capsys, fault):
    # obge attack gates the attack lab: its exit status is 2 exactly when a
    # baseline candidate set misses its query or outgrows its round class,
    # and the message names the case
    rng = random.Random(3)
    graph = tmp_path / "graph.tsv"
    graph.write_text("#vertices 12\n" + "".join(
        f"{u}\t{v}\n" for u in range(12) for v in range(12) if u != v and rng.random() < 0.2
    ))
    honest = QueryRecovery.candidates

    def candidates(self, observed, assume_complete=False):
        found = honest(self, observed, assume_complete)
        if fault == "misses its query":
            found[0] = set()
        elif fault:
            found[0] = found[0] | {(u, v) for u in range(12) for v in range(12)}
        return found

    monkeypatch.setattr(QueryRecovery, "candidates", candidates)
    assert main(["attack", str(graph)]) == (2 if fault else 0)
    out, err = capsys.readouterr()
    assert "exactly recovered queries: " in out
    assert (fault in err) if fault else err == ""
