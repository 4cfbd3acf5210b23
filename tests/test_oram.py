import random

import pytest
from hypothesis import given, strategies as st
from scipy import stats

from obge.blocks import ABSENT, HOP, Block, TreeParams, block_leaves, bucket_ad, tree_depth_for, unpack_block
from obge.crypto import CT_OVERHEAD, Cipher, Prf, keygen, pair_block, prf_eval
from obge.exceptions import CapacityError, IntegrityError, ProtocolError, StashOverflowError
from obge.graph import Graph, PathOracle, spath_oracle
from obge.oram import PathOram, oram_init, verify_placement
from obge.protocol import QueryEngine, SchemeParams, TrivialState, build_blocks, reveal, setup
from obge.server import deploy_inprocess
from obge.storage import _HEADER, TREE_MAGIC, StorageHost, TreeStorage
from conftest import chain_blocks, chain_engine, chain_graph, data_tree, random_graph, split_heads, top_entries, trivial_engine


def build(keys, count, rng, **kw):
    """One chain of count blocks toward destination count: query (u, count)
    walks blocks u..count-1, then one miss round."""
    return chain_engine(keys, 1, count, rng, **kw)


def make_blocks(keys, count):
    return chain_blocks(keys, 1, count)[1]


def leaf_of(engine, blocks, addrs):
    """Token -> mapped leaf, read from the engine's flat position map."""
    top = top_entries(engine.positions)
    return {b[:16]: top[a] for b, a in zip(split_heads(blocks), addrs)}


def run_queries(engine, rng, accesses):
    """Random chain queries until the data tree has seen `accesses` accesses."""
    count = engine.params.vertex_count - 1
    while engine.oram.access_count < accesses:
        engine.query(rng.randrange(count), count)


class AllZero:
    """Leaf sampler that piles every block onto the path to leaf 0."""

    @staticmethod
    def randrange(n):
        return 0

    @staticmethod
    def randbytes(n):
        return bytes(n)


class TestSizing:
    def test_six_blocks_z5(self, rng):
        keys = keygen()
        engine, _, tree, _, _ = build(keys, 6, rng)
        params = tree.params
        assert params.depth == 1
        assert params.node_count == 3
        assert params.node_count * params.bucket_size == 15
        top = top_entries(engine.positions)
        assert len(top) == 7 * 7  # dense over the 7 vertices' pairs
        assert sum(leaf != ABSENT for leaf in top) == 6

    def test_zero_blocks_single_bucket(self, rng):
        keys = keygen()
        k2 = Cipher(keys.k2)
        engine, tree, leaves = oram_init(b"", data_tree(0), k2, rng)
        assert tree.params.depth == 0 and tree.params.node_count == 1
        assert leaves.tolist() == [] and engine.held == {} and engine.held_count == 0

    def test_pad_full_four_vertices(self, rng, four_vertex_directed):
        # capacity covers |V|^2 - |V| = 12 real slots however few blocks
        # there are: 6 here (sized by them, the tree had depth 1), and none
        # in the empty graph on the same 4 vertices
        result = setup(four_vertex_directed, rng=rng)
        params = result.trees[0].params
        assert result.spdx_size == 6
        assert params.leaves * params.bucket_size >= 12
        assert params.depth == result.params.data_depth == tree_depth_for(12, 5) == 2
        assert setup(Graph(4, directed=True), rng=rng).trees[0].params == params

    def test_head_of_the_wrong_width_is_rejected(self, rng):
        # a short head would shift every later slot of its bucket: packed
        # heads that are not whole heads are refused
        keys = keygen()
        heads = split_heads(make_blocks(keys, 3))
        with pytest.raises(ValueError, match="block heads"):
            oram_init(heads[0] + heads[1][:-1] + heads[2], data_tree(3), Cipher(keys.k2), rng)

    def test_capacity_error(self, monkeypatch):
        # an adversarial leaf sampler piles every block onto one path;
        # with no stash allowance the overflow must surface at build time
        monkeypatch.setattr("obge.oram.STASH_MAX", 0)
        keys = keygen()
        k2 = Cipher(keys.k2)
        with pytest.raises(CapacityError):
            oram_init(make_blocks(keys, 50), data_tree(50, Z=1), k2, AllZero())


class TestBlockLayout:
    """tk (16) | payload (W) | leaf (ceil(L/8)) blocks, in buckets of a
    count byte and Z slots."""

    @given(
        depth=st.integers(0, 32),
        payload=st.sampled_from([HOP.size]) | st.integers(16, 512),
        z=st.integers(1, 8),
        data=st.data(),
    )
    def test_pack_round_trips_at_the_stated_widths(self, depth, payload, z, data):
        p = TreeParams(depth, z, payload)
        block = Block(
            data.draw(st.binary(min_size=16, max_size=16)),
            data.draw(st.binary(min_size=payload, max_size=payload)),
            data.draw(st.integers(0, p.leaves - 1)),
        )
        raw = block.pack(p)
        assert len(raw) == p.block_width == 16 + payload + -(-depth // 8)
        assert unpack_block(raw, p) == block
        assert block_leaves(raw * 3, p) == [block.leaf] * 3
        assert p.bucket_width == 1 + z * p.block_width + CT_OVERHEAD == 1 + z * p.block_width + 28

    def test_count_past_z_is_refused_naming_tree_and_node(self, rng):
        # a bucket that claims Z+1 blocks, encrypted under the engine's own
        # key and bound to its node, decrypts; the count is still refused
        keys = keygen()
        engine, _, tree, _, _ = build(keys, 40, rng)  # depth 3, Z=5
        p = tree.params
        node = p.path_nodes(0)[-1]
        plain = bytes([p.bucket_size + 1]) + bytes(p.plain_width - 1)
        tree.set_bucket(node, Cipher(keys.k2).encrypt(plain, bucket_ad(0, node)))
        with pytest.raises(IntegrityError, match=f"tree 0 node {node}: bucket counts 6 blocks, Z is 5"):
            engine.oram.access(None, 0)

    def test_buckets_count_their_blocks_first(self, rng):
        # every host bucket's plaintext is its count, that many blocks,
        # each on its own path, and zero slots, after setup and after
        # queries
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 40, rng)
        p, k2 = tree.params, Cipher(keys.k2)
        for _ in range(2):
            counts = []
            for node in range(p.node_count):
                plain = k2.decrypt(tree.get_bucket(node), bucket_ad(0, node))
                n, end = plain[0], 1 + plain[0] * p.block_width
                counts.append(n)
                assert n <= p.bucket_size and not any(plain[end:])
                for at in range(1, end, p.block_width):
                    assert node in p.path_nodes(unpack_block(plain[at : at + p.block_width], p).leaf)
            assert sum(counts) + engine.oram.held_count == 40
            run_queries(engine, rng, 60)
        verify_placement(tree, engine.oram, leaf_of(engine, blocks, addrs))


class TestAccess:
    def test_lookup_returns_payload(self, rng):
        # the engine answers with the hops' vertex ids, here of a chain
        # i, i+1, .., 40 over |V|=41
        keys = keygen()
        engine, _, _, _, _ = build(keys, 40, rng)
        for i in (0, 13, 39):
            resp = engine.query(i, 40)
            assert resp == list(range(i + 1, 41))
            assert reveal(resp, i, 40, 41) == list(range(i, 41))

    def test_missing_token_dummy_access(self, rng):
        keys = keygen()
        engine, host, _, _, _ = build(keys, 10, rng)
        before = len(host.trace)
        assert engine.query(3, 5) == []  # no entry toward vertex 5
        # dummy round is shape-identical: one read, one write
        msgs = [r.msg_type for r in host.trace.records[before:]]
        assert msgs == ["ReadPath", "WritePath"]

    def test_miss_round_reads_the_leaf_the_map_returned(self, rng):
        # the data engine draws no leaf: each hit reads the block's old
        # leaf, and the miss round the fresh leaf get_and_remap returned
        # for the absent address, which the map does not store
        keys = keygen()
        engine, host, _, _, _ = build(keys, 10, rng)
        positions, returned = engine.positions, []
        remap = positions.get_and_remap

        def recorded(addr):
            returned.append((addr, *remap(addr)))
            return returned[-1][1:]

        positions.get_and_remap = recorded
        for u, v in [(3, 5), (7, 10), (4, 4)]:  # no entry toward 5; three hits, then a miss; u = v
            returned.clear()
            before = len(host.trace)
            engine.query(u, v)
            reads = [r.leaf for r in host.trace.records[before:] if r.msg_type == "ReadPath"]
            addr, old, fresh = returned[-1]
            assert old == ABSENT and top_entries(positions)[addr] == ABSENT
            assert reads == [o for _, o, _ in returned[:-1]] + [fresh]

    def test_remap_changes_position(self, rng):
        keys = keygen()
        engine, _, _, _, addrs = build(keys, 64, rng)
        seen = set()
        for _ in range(50):
            engine.query(63, 64)  # one hit on the last block, then a miss
            seen.add(top_entries(engine.positions)[addrs[-1]])
        # 50 independent uniform draws over >= 16 leaves collide with all
        # previous ones only with negligible probability
        assert len(seen) > 5

    def test_mapped_block_must_exist(self, rng):
        keys = keygen()
        engine, _, _, _, _ = build(keys, 10, rng)
        with pytest.raises(IntegrityError):
            engine.oram.access(b"\xbb" * 16, 0, 1)  # never stored

    def test_new_leaf_out_of_range_rejected_before_io(self, rng):
        keys = keygen()
        engine, host, tree, blocks, addrs = build(keys, 10, rng)
        with pytest.raises(IndexError):
            engine.oram.access(split_heads(blocks)[0][:16], top_entries(engine.positions)[addrs[0]], tree.params.leaves)
        assert len(host.trace) == 0

    def test_placement_invariant_after_random_ops(self, rng):
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 48, rng)
        run_queries(engine, rng, 200)
        verify_placement(tree, engine.oram, leaf_of(engine, blocks, addrs))

    def test_stash_overflow_surfaces(self, rng, monkeypatch):
        # remapping every accessed block to leaf 0 exceeds that single
        # path's capacity, so a stash allowance of 8 must eventually trip
        monkeypatch.setattr("obge.oram.STASH_MAX", 8)
        keys = keygen()
        built, host, _, _, _ = build(keys, 60, rng)
        state = TrivialState(keys, built.params, built.positions, built.oram)
        engine = QueryEngine(state, host, rng=AllZero())
        with pytest.raises(StashOverflowError):
            for i in range(120):
                engine.query(i % 60, 60)


class TestWireShape:
    def test_constant_shapes_and_fresh_encryption(self, rng):
        keys = keygen()
        engine, host, tree, _, _ = build(keys, 32, rng)
        for i in range(60):
            engine.query(rng.randrange(32), 32 if i % 3 else 0)  # every third misses
        reads = [r for r in host.trace.records if r.msg_type == "ReadPath"]
        writes = [r for r in host.trace.records if r.msg_type == "WritePath"]
        assert len(reads) == len(writes) == engine.oram.access_count
        assert {r.byte_count for r in reads} == {tree.params.path_width}
        assert {w.byte_count for w in writes} == {tree.params.path_width}

    def test_rewrite_never_replays_old_bytes(self, rng):
        keys = keygen()
        engine, host, tree, _, _ = build(keys, 16, rng)
        params = tree.params

        class Spy:
            def __init__(self, inner):
                self.inner = inner
                self.last_read = None

            def read_path(self, tree_id, leaf):
                self.last_read = self.inner.read_path(tree_id, leaf)
                return self.last_read

            def write_path(self, tree_id, leaf, data):
                w = params.bucket_width
                old = [self.last_read[i : i + w] for i in range(0, len(self.last_read), w)]
                new = [data[i : i + w] for i in range(0, len(data), w)]
                assert not (set(old) & set(new)), "a bucket was written back unchanged"
                self.inner.write_path(tree_id, leaf, data)

        engine.oram.store = Spy(host)
        run_queries(engine, rng, 40)

    def test_uniform_leaf_distribution(self, rng):
        """Chi-square uniformity of observed leaves at n >= 100 * leaf count."""
        keys = keygen()
        engine, host, tree, _, _ = build(keys, 40, rng)  # depth 3, 8 leaves
        leaves = tree.params.leaves
        run_queries(engine, rng, 100 * leaves)
        counts = [0] * leaves
        for r in host.trace.records:
            if r.msg_type == "ReadPath":
                counts[r.leaf] += 1
        assert stats.chisquare(counts).pvalue >= 0.01


class TestPathIO:
    def test_path_length(self, rng):
        keys = keygen()
        _, host, tree, _, _ = build(keys, 6, rng)  # depth 1
        params = tree.params
        assert params.depth == 1
        data = host.read_path(0, 0)
        assert len(data) == 2 * params.bucket_width  # two buckets on an L=1 path

    def test_write_read_round_trip(self, rng):
        keys = keygen()
        _, host, tree, _, _ = build(keys, 6, rng)
        params = tree.params
        blob = bytes(rng.randrange(256) for _ in range(params.path_width))
        host.write_path(0, 1, blob)
        assert host.read_path(0, 1) == blob

    def test_leaf_out_of_range(self, rng):
        keys = keygen()
        _, host, tree, _, _ = build(keys, 6, rng)
        with pytest.raises(IndexError):
            host.read_path(0, tree.params.leaves)

    def test_bad_width_write_rejected(self, rng):
        keys = keygen()
        _, host, _, _, _ = build(keys, 6, rng)
        with pytest.raises(ProtocolError):
            host.write_path(0, 0, b"short")


class TestBucketBinding:
    """Each bucket authenticates its (tree id, heap index): the host cannot
    move, copy or swap buckets without the next access that reads them
    failing.  Rollback of a node to its own older ciphertext is not covered
    by this binding."""

    def test_bucket_copied_over_root_is_rejected(self, rng):
        keys = keygen()
        engine, _, tree, _, _ = build(keys, 40, rng)  # depth 3
        assert engine.query(39, 40) != []
        tree.set_bucket(0, tree.get_bucket(tree.params.node_count - 1))
        with pytest.raises(IntegrityError, match="authentication failed"):
            engine.query(38, 40)  # every path reads the root

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_swapped_siblings_are_rejected(self, rng, side):
        keys = keygen()
        engine, _, tree, _, _ = build(keys, 40, rng)
        oram = engine.oram
        leaf = 0 if side == "left" else tree.params.leaves - 1  # path through node 1 or node 2
        oram.access(None, leaf)
        left, right = tree.get_bucket(1), tree.get_bucket(2)
        tree.set_bucket(1, right)
        tree.set_bucket(2, left)
        with pytest.raises(IntegrityError, match="authentication failed"):
            oram.access(None, leaf)

    def test_bucket_from_another_tree_is_rejected(self, rng):
        keys = keygen()
        k2 = Cipher(keys.k2)
        blocks = make_blocks(keys, 40)
        engine, tree0, _ = oram_init(blocks, data_tree(40), k2, rng, tree_id=0)
        _, tree1, _ = oram_init(blocks, data_tree(40), k2, rng, tree_id=1)
        tree0.set_bucket(0, tree1.get_bucket(0))  # same node and width, other tree
        engine.store = StorageHost([tree0])
        with pytest.raises(IntegrityError, match="authentication failed"):
            engine.access(None, rng.randrange(engine.params.leaves))  # every path reads the root

    def test_verify_placement_rejects_a_moved_bucket(self, rng):
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 40, rng)
        mapped = leaf_of(engine, blocks, addrs)
        verify_placement(tree, engine.oram, mapped)
        tree.set_bucket(3, tree.get_bucket(4))
        with pytest.raises(IntegrityError):
            verify_placement(tree, engine.oram, mapped)

    def test_short_path_read_is_rejected(self, rng):
        keys = keygen()
        engine, host, _, _, _ = build(keys, 6, rng)

        class Truncating:
            def read_path(self, tree_id, leaf):
                return host.read_path(tree_id, leaf)[:-1]

        engine.oram.store = Truncating()
        with pytest.raises(IntegrityError, match="expected"):
            engine.oram.access(None, 0)

    def test_version_one_tree_file_is_rejected(self, rng, tmp_path):
        keys = keygen()
        _, _, tree, _, _ = build(keys, 6, rng)
        params = tree.params
        path = tmp_path / "tree.bin"
        tree.save(path)
        assert TreeStorage.load(path).buckets == tree.buckets
        raw = path.read_bytes()
        v1 = _HEADER.pack(TREE_MAGIC, 1, 0, params.depth, params.cached, params.bucket_size, params.payload_width)
        path.write_bytes(v1 + raw[_HEADER.size :])
        with pytest.raises(ProtocolError, match="version 1"):
            TreeStorage.load(path)


class TestFailedAccess:
    """An access that fails on a bucket or a block leaves the engine's held
    blocks as they were: it gathers the path's blocks apart from them and
    installs the result only once the store has taken the write-back."""

    @pytest.mark.parametrize("fault", ["tampered", "moved", "count-past-z", "missing-block"])
    def test_held_blocks_are_unchanged(self, fault):
        # every block on the path to leaf 0 of a depth-3 tree: its four
        # buckets hold 20 of the 40 blocks, root first, and the engine the
        # other 20.  The leaf bucket is read last, after 15 blocks above it
        keys = keygen()
        blocks = make_blocks(keys, 40)
        engine, tree, _ = oram_init(blocks, data_tree(40), Cipher(keys.k2), AllZero())
        engine.store = StorageHost([tree])
        p = tree.params
        node = p.path_nodes(0)[-1]
        held, count = engine.held_blocks(), engine.held_count
        assert count == 20
        saved, tk = tree.get_bucket(node), None
        if fault == "tampered":
            tree.set_bucket(node, saved[:-1] + bytes([saved[-1] ^ 1]))
            match = f"tree 0 node {node}: authentication failed"
        elif fault == "moved":
            tree.set_bucket(node, tree.get_bucket(node + 1))
            match = f"tree 0 node {node}: authentication failed"
        elif fault == "count-past-z":
            plain = bytes([p.bucket_size + 1]) + bytes(p.plain_width - 1)
            tree.set_bucket(node, Cipher(keys.k2).encrypt(plain, bucket_ad(0, node)))
            match = f"tree 0 node {node}: bucket counts 6 blocks"
        else:
            tk = b"\xbb" * 16  # never stored
            match = "mapped block missing"
        with pytest.raises(IntegrityError, match=match):
            engine.access(tk, 0, 0 if tk else None)
        assert engine.held_blocks() == held and engine.held_count == count
        tree.set_bucket(node, saved)
        verify_placement(tree, engine, {b[:16]: 0 for b in split_heads(blocks)})


class TestTreeTopCache:
    """The engine keeps the top k levels, as held blocks in up to 2^k groups
    by the top k bits of their leaves; the host stores and moves only levels
    k..L."""

    def test_rule_at_the_benchmark_scale(self):
        # the |V|=200 data tree has depth 13: the trivial client keeps
        # levels 0..12 and the host level 13, the leaves; a controller keeps
        # none
        params = SchemeParams(200)
        assert params.data_depth == 13
        assert params.data_params.cached == 13 and params.data_params.host_levels == 1
        assert SchemeParams(200, mode="enhanced").data_params.cached == 0

    def test_a_benchmark_scale_round_moves_one_bucket_each_way(self, rng):
        # |V|=200 gives the depth-13 data tree whatever the edges: a hit
        # and the miss round after it each read and write the host's one
        # 129-byte leaf bucket of the path, and nothing else
        g = Graph(200, directed=True)
        g.add_edge(0, 1)
        result = setup(g, mode="trivial", rng=rng)
        host, _, client = deploy_inprocess(result, rng=rng)
        assert host.trees[0].params.depth == 13
        assert len(host.trees[0].buckets) == (1 << 13) * 129
        assert client.query_path(0, 1) == [0, 1]
        trace = [(r.msg_type, r.byte_count) for r in host.trace.records]
        assert trace == [("ReadPath", 129), ("WritePath", 129)] * 2

    def test_rule_follows_the_depth_alone(self):
        # |V| and Z move k only through the depth L they give: the host
        # stores 1 level of every trivial data tree of depth L, the leaves,
        # and the client keeps the other L
        by_depth: dict[int, set[tuple[int, int]]] = {}
        for n in range(1, 300):
            for z in (1, 5, 255):
                tp = SchemeParams(n, bucket_size=z).data_params
                by_depth.setdefault(tp.depth, set()).add((tp.cached, tp.host_levels))
        assert set(range(15)) <= set(by_depth)
        for depth, rules in by_depth.items():
            assert rules == {(depth, 1)}

    @pytest.mark.parametrize("mode, k", [("trivial", 4), ("enhanced", 0)])
    def test_setup_applies_the_rule(self, mode, k):
        # a 9-vertex chain: 36 entries in a depth-4 tree, sized for the 72
        # ordered pairs, four levels more than the host keeps; a controller
        # caches nothing.  The engine stores only groups that hold blocks
        kw = {"budget": 10**9} if mode == "enhanced" else {}
        result = setup(chain_graph(9), mode=mode, rng=random.Random(1), **kw)
        assert result.params.data_depth == 4
        assert result.params.data_params.cached == k
        assert result.trees[0].params.cached == k
        party = result.client if mode == "trivial" else result.controller
        assert party.oram.params == result.trees[0].params
        assert all(0 <= g < 1 << k and group for g, group in party.oram.held.items())
        assert sum(map(len, party.oram.held.values())) == party.oram.held_count

    def test_host_holds_and_moves_only_the_uncached_levels(self, rng):
        g = random_graph(rng, 40, 0.1)
        result = setup(g, mode="trivial", rng=rng)
        host, _, client = deploy_inprocess(result, rng=rng)
        tp = host.trees[0].params
        k = tp.cached
        assert k == tp.depth >= 2 and tp.host_levels == 1
        assert len(host.trees[0].buckets) == (tp.node_count - ((1 << k) - 1)) * tp.bucket_width
        for u in range(40):
            for v in range(0, 40, 3):
                assert client.query_path(u, v) == spath_oracle(g, u, v)
        widths = {r.byte_count for r in host.trace.records if r.msg_type in ("ReadPath", "WritePath")}
        assert widths == {(tp.depth + 1 - k) * tp.bucket_width} == {tp.path_width}
        engine = client.engine
        prf = Prf(result.keys.kprf)
        mapped = {
            prf_eval(prf, pair_block(addr // 40, addr % 40)): leaf
            for addr, leaf in enumerate(top_entries(engine.positions))
            if leaf != ABSENT
        }
        verify_placement(host.trees[0], engine.oram, mapped)
        with pytest.raises(IndexError, match="not stored on the host"):
            host.trees[0].get_bucket(0)

    def test_swap_on_the_first_host_level_is_rejected(self, rng):
        keys = keygen()
        engine, _, tree, _, _ = build(keys, 40, rng, cached=1)  # depth 3: nodes 1 and 2 on the host
        oram = engine.oram
        oram.access(None, 0)
        left, right = tree.get_bucket(1), tree.get_bucket(2)
        tree.set_bucket(1, right)
        tree.set_bucket(2, left)
        with pytest.raises(IntegrityError, match="authentication failed"):
            oram.access(None, 0)

    def test_cache_must_match_the_cached_levels(self, rng):
        # k=2 of depth 3: up to four groups, group g holding the blocks
        # whose leaf has top two bits g, and only those that hold any; an
        # engine built from the held blocks alone regroups them alike; k
        # past the depth is refused
        keys = keygen()
        k2 = Cipher(keys.k2)
        params = data_tree(40, cached=2)  # depth 3
        engine, tree, leaves = oram_init(make_blocks(keys, 40), params, k2, AllZero())
        assert set(leaves) == {0}
        # 40 blocks on the path to leaf 0: 10 fit in its two host buckets
        assert engine.held_count == 30 and {g: len(group) for g, group in engine.held.items()} == {0: 30}
        verify_placement(tree, engine, {b[:16]: 0 for b in engine.held_blocks()})
        engine, _, _ = oram_init(make_blocks(keys, 40), params, k2, rng)
        rebuilt = PathOram(0, params, k2, b"".join(engine.held_blocks()))
        assert rebuilt.held == engine.held and rebuilt.held_count == engine.held_count
        with pytest.raises(ValueError, match="cannot cache 4 levels"):
            oram_init(make_blocks(keys, 40), data_tree(40, cached=4), k2, rng)


class TestHeldBlocks:
    """Blocks the engine holds sit in the group of their leaf's top k bits;
    an access searches and evicts only the group of its path."""

    @pytest.mark.parametrize("k", ["0", "1", "L"])
    def test_answers_match_the_oracle(self, rng, k):
        g = random_graph(rng, 12, 0.25)
        keys = keygen()
        heads, addrs = build_blocks(g, keys)
        depth = tree_depth_for(len(addrs), 5)
        cached = {"0": 0, "1": 1, "L": depth}[k]
        engine, host, tree, _, _ = trivial_engine(keys, 12, heads, addrs, rng, cached=cached)
        assert tree.params.depth == depth >= 3 and tree.params.cached == cached
        oracle = PathOracle(g)
        for u in range(12):
            for v in range(12):
                assert reveal(engine.query(u, v), u, v, 12) == oracle.path(u, v), (u, v)
        widths = {r.byte_count for r in host.trace.records}
        assert widths == {(depth + 1 - cached) * tree.params.bucket_width}
        verify_placement(tree, engine.oram, leaf_of(engine, heads, addrs))

    def test_held_blocks_load_a_group_at_a_time(self):
        # k=2 of depth 3: held blocks come group by group, and only the
        # groups that hold one, 0 and 3, are made; a block of group 0 after
        # one of group 3 is refused, naming the tree
        keys = keygen()
        k2 = Cipher(keys.k2)
        params = data_tree(40, cached=2)
        heads = make_blocks(keys, 4)
        blocks = [head + bytes([leaf]) for head, leaf in zip(split_heads(heads), (0, 1, 6, 7))]  # 1-byte leaves
        engine = PathOram(4, params, k2, b"".join(blocks))
        assert engine.held == {0: blocks[:2], 3: blocks[2:]} and engine.held_count == 4
        assert engine.held_blocks() == blocks
        with pytest.raises(IntegrityError, match="tree 4 held blocks are out of group order"):
            PathOram(4, params, k2, b"".join(blocks[2:] + blocks[:2]))

    def test_held_count_follows_moves_between_groups(self, rng):
        # k=2: a remap usually moves the block to another group; the count
        # stays the number of blocks held, and the peak bounds it
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 48, rng, cached=2)
        oram = engine.oram
        for _ in range(30):
            run_queries(engine, rng, oram.access_count + 20)
            assert oram.held_count == sum(map(len, oram.held.values())) <= oram.max_stash_seen
            verify_placement(tree, oram, leaf_of(engine, blocks, addrs))
        assert oram.max_stash_seen <= oram.held_max == 128 + 5 * 3

    def test_verify_placement_rejects_misplaced_held_blocks(self, rng):
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 48, rng, cached=2)
        run_queries(engine, rng, 100)
        oram, mapped = engine.oram, leaf_of(engine, blocks, addrs)
        g = next(iter(oram.held))
        blk = take(oram.held, g)
        with pytest.raises(AssertionError, match="held_count"):
            verify_placement(tree, oram, mapped)
        oram.held.setdefault((g + 1) % 4, []).append(blk)
        with pytest.raises(AssertionError, match="outside its leaf's group"):
            verify_placement(tree, oram, mapped)
        take(oram.held, (g + 1) % 4)
        oram.held_count -= 1
        with pytest.raises(AssertionError, match="absent from tree and held blocks"):
            verify_placement(tree, oram, mapped)
        # a copy of a block the host stores, held as well
        on_host = next(tk for tk in mapped if all(b[:16] != tk for b in oram.held_blocks()))
        copy = next(b for b in split_heads(blocks) if b[:16] == on_host)
        leaf = mapped[on_host]
        oram.held.setdefault(g, []).append(blk)
        oram.held.setdefault(leaf >> (tree.params.depth - 2), []).append(copy + leaf.to_bytes(tree.params.leaf_width, "big"))
        oram.held_count += 2
        with pytest.raises(AssertionError, match="stored twice"):
            verify_placement(tree, oram, mapped)

    def test_verify_placement_rejects_empty_and_stray_groups(self, rng):
        # only the groups that hold a block are stored, each keyed by one
        # of the 2^k values of a leaf's top k bits
        keys = keygen()
        engine, _, tree, blocks, addrs = build(keys, 48, rng, cached=2)
        run_queries(engine, rng, 100)
        oram, mapped = engine.oram, leaf_of(engine, blocks, addrs)
        verify_placement(tree, oram, mapped)
        g = next(iter(oram.held))
        oram.held[4] = oram.held.pop(g)
        with pytest.raises(AssertionError, match="held group 4 for 2 cached levels"):
            verify_placement(tree, oram, mapped)
        oram.held[g], oram.held[4] = oram.held.pop(4), []
        with pytest.raises(AssertionError, match="held group 4 for 2 cached levels"):
            verify_placement(tree, oram, mapped)
        del oram.held[4]
        group, oram.held[g] = oram.held[g], []
        with pytest.raises(AssertionError, match=f"held group {g} is stored empty"):
            verify_placement(tree, oram, mapped)
        oram.held[g] = group
        verify_placement(tree, oram, mapped)


def take(held, g):
    """Pop the last block of group g, dropping the group if that empties
    it, as the engine does."""
    blk = held[g].pop()
    if not held[g]:
        del held[g]
    return blk
