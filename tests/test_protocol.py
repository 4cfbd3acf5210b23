import io
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from obge import protocol, storage
from obge.blocks import HOP, bucket_ad
from obge.crypto import CT_OVERHEAD, Cipher, Prf, encode_pair, keygen, pair_block, prf_eval
from obge.exceptions import ConfigError, IntegrityError, ProtocolError
from obge.graph import Graph, PathOracle, compute_spdx, load_graph, spath_oracle
from obge.oram import STASH_MAX
from obge.protocol import (
    MAX_VERTICES,
    REQUEST_LABEL,
    REQUEST_WIDTH,
    RESPONSE_LABEL,
    STATE_VERSION,
    ControllerState,
    EnclaveController,
    EnhancedClient,
    EnhancedState,
    SchemeParams,
    TrivialClient,
    TrivialState,
    load_state,
    response_width,
    reveal,
    rounds,
    save_state,
    setup,
)
from obge.recursive import RecursivePM
from obge.server import ObgeServer, deploy_inprocess
from obge.storage import TREE_VERSION, TreeStorage
from conftest import chain_graph, random_graph, top_entries

PARTIES = (TrivialState, EnhancedState, ControllerState)
DATA = Path(__file__).parent / "data"
# each state_vN directory holds a trivial client's, an enhanced client's
# and a controller's state file of format N
STATE_FILES = (("trivial-keys.bin", TrivialState), ("enhanced-keys.bin", EnhancedState),
               ("controller.bin", ControllerState))
# the current format's state files: setup with Z=1 and rng Random(11) on
# random_graph(Random(5), 12, 0.3) (the enhanced deployment with a 16-byte
# budget, which forces 16-byte level payloads), then 60 queries, each
# (u, v) drawn as randrange(12), randrange(12) from Random(12) just before
# it runs, Random(12) being also the deployment's leaf sampler; the states
# saved, then reloaded over their trees (not kept), both deployments
# answer all 144 pairs twice as PathOracle does.  The older fixtures from
# format 12 on were made by much the same recipe, the format-14 controller
# with chi 2 and a 64-byte budget
CURRENT_STATE = DATA / f"state_v{STATE_VERSION}"
# every older format N with a fixture directory state_vN
OLD_STATE_VERSIONS = sorted(
    n for n in (int(d.name.removeprefix("state_v")) for d in DATA.glob("state_v*")) if n < STATE_VERSION
)
# the head of a data block packed by hand: token 11.., hop 7
HELD_HEAD = b"\x11" * 16 + HOP.pack(7)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def held_block(tp, leaf):
    """HELD_HEAD mapped to leaf, at the leaf width of the tree tp."""
    return HELD_HEAD + leaf.to_bytes(tp.leaf_width, "big")


@st.composite
def graphs_on_one_vertex_count(draw):
    """Two digraphs on one drawn vertex count, with edge sets drawn apart."""
    n = draw(st.integers(2, 12))
    pairs = st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v]))
    graphs = []
    for edges in (draw(pairs), draw(pairs)):
        g = Graph(n, directed=True)
        for u, v in sorted(edges):
            g.add_edge(u, v)
        graphs.append(g)
    return graphs


def deploy(g, mode, rng_seed=1, **kw):
    rng = random.Random(rng_seed)
    result = setup(g, mode=mode, rng=rng, **kw)
    host, server, client = deploy_inprocess(result, rng=rng)
    return result, host, server, client


def redeploy(host, state, client_state):
    """A fresh server over the same storage, hosting a reloaded controller."""
    server = ObgeServer(host, EnclaveController(state, host, rng=random.Random(9)))
    return EnhancedClient(client_state, server.enclave)


class TestSetup:
    def test_four_vertex_undirected_pm_size(self, four_vertex_undirected):
        result, _, _, _ = deploy(four_vertex_undirected, "trivial")
        top = top_entries(result.client.positions)
        assert len(top) == 16  # a block for each ordered pair
        assert all(leaf < result.trees[0].params.leaves for leaf in top)
        assert result.spdx_size == 12  # ordered connected pairs

    def test_trivial_map_is_flat_and_dense(self, rng):
        # the trivial client keeps one top entry per address, each a data
        # leaf, and no position-map trees
        g = random_graph(rng, 40, 0.05)
        result, host, _, _ = deploy(g, "trivial")
        positions = result.client.positions
        assert isinstance(positions, RecursivePM)
        assert positions.levels == [] and result.controller is None
        top = top_entries(positions)
        assert len(top) == 40 * 40
        assert all(leaf < host.trees[0].params.leaves for leaf in top)
        assert sorted(host.trees) == [0]

    def test_empty_graph_answers_everything_empty(self):
        g = Graph(3, directed=True)
        _, _, _, client = deploy(g, "trivial")
        for u in range(3):
            for v in range(3):
                assert client.query(u, v) == []

    def test_enhanced_budget_installs_recursive_chain(self, rng):
        g = random_graph(rng, 64, 0.1)
        result, _, server, _ = deploy(g, "enhanced", budget=64 * 64 * 8 // 16)
        assert server.controller.state.positions.chain_depth >= 1

    def test_server_side_state_contains_no_plaintext(self, four_vertex_directed):
        result, host, _, _ = deploy(four_vertex_directed, "trivial")
        blob = bytes(host.trees[0].buckets)
        keys = result.keys
        for u in range(4):
            for v in range(4):
                assert encode_pair(u, v) not in blob

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_one_prf_call_per_entry_and_per_hit(self, monkeypatch, rng, mode):
        # blocks carry no next-hop token: setup derives one token per
        # block, one a pair, in one call per source row, rows with no next
        # hop included, and a query makes a one-block call per round, each
        # of which finds its block
        calls = []
        prf = protocol.prf_eval
        monkeypatch.setattr(protocol, "prf_eval", lambda k, m: calls.append(len(m) // 16) or prf(k, m))
        g = Graph(16, directed=True)
        for (u, v), w in random_graph(rng, 15, 0.2).edges.items():  # 15's row holds no entry
            g.add_edge(u, v, w)
        result, _, _, client = deploy(g, mode, **({"budget": 256} if mode == "enhanced" else {}))
        assert calls == [16] * 16
        assert len({u for (u, _), _ in compute_spdx(g).items()}) == 15
        for u, v in [(0, 9), (3, 3), (9, 0), (5, 12), (15, 2)]:
            calls.clear()
            path = client.query_path(u, v)
            assert path == spath_oracle(g, u, v)
            assert calls == [1] * rounds(len(path) - 1 if path else 0)

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_resources_do_not_depend_on_the_graph(self, tmp_path, mode):
        # a 30-vertex chain and the edgeless graph on 30 vertices, set up
        # and queried with one leaf sampler, store the same 900 blocks, one
        # a pair: the engine holds as many of them after setup and after
        # the same u = v queries, and its state file has the same size
        seen = []
        for g in (chain_graph(30), Graph(30, directed=True)):
            result, host, server, client = deploy(g, mode, rng_seed=7)
            state = result.client if mode == "trivial" else server.controller.state
            tree, k2 = host.trees[0], Cipher(result.keys.k2)
            p = tree.params
            stored = sum(k2.decrypt(tree.get_bucket(node), bucket_ad(0, node))[0] for node in range(p.cache_nodes, p.node_count))
            after_setup = state.oram.held_count
            for u in range(30):
                assert client.query_path(u, u) == []
            path = tmp_path / f"state-{len(seen)}.bin"
            save_state(path, state)
            seen.append((stored + after_setup, after_setup, state.oram.held_count, path.stat().st_size))
        assert seen[0][0] == 900
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_build_blocks_matches_the_per_entry_loop(self, directed, weighted):
        # the row-at-a-time build gives the bytes of one PRF call and one
        # head per pair, in address order, each holding the pair's next
        # hop or its source where SPMatrix.next_hop has none, and the entry
        # count: on a sparse graph, whose rows include some with no entry,
        # on |V|=1 and on a graph with no edges
        rng = random.Random(23)
        sparse = random_graph(rng, 30, 0.05, weighted=weighted, directed=directed)
        assert 0 < len({u for (u, _), _ in compute_spdx(sparse).items()}) < 30
        keys = keygen()
        for g in (sparse, Graph(1, directed=directed), Graph(6, directed=directed)):
            n, prf, matrix = g.vertex_count, Prf(keys.kprf), compute_spdx(g)
            heads = bytearray()
            for u in range(n):
                for v in range(n):
                    w = matrix.next_hop(u, v)
                    heads += prf_eval(prf, pair_block(u, v)) + HOP.pack(u if w is None else w)
            assert protocol.build_blocks(g, keys) == (heads, len(matrix))

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_setup_heap_peaks_near_its_trees(self, mode):
        # setup holds one compact structure per stage, never an object per
        # entry: its traced heap peaks at most 100 B an entry above the
        # bytes of the trees it builds (about 50 enhanced and 70 trivial,
        # against 261 and 281 with a dict, tuples and bytes per entry)
        g = random_graph(random.Random(150), 150, 0.05)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = setup(g, mode=mode, rng=random.Random(1), **({"budget": 4096} if mode == "enhanced" else {}))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stored = sum(len(t.buckets) for t in result.trees)
        assert result.spdx_size == 150 * 149
        assert (peak - stored) / result.spdx_size <= 100

    def test_tree_header_reveals_the_depth_alone(self):
        # the complete digraph on 80 vertices (6,320 entries) and the
        # 80-vertex chain (3,160 entries) both store 6,400 blocks, one a
        # pair, in the depth-11 data tree; their headers, and so the host's
        # path widths, must not tell them apart (sized by entry count they
        # got depths 11 and 10)
        complete = Graph(80, directed=True)
        for u in range(80):
            for v in range(80):
                if u != v:
                    complete.add_edge(u, v)
        trees = [deploy(g, "trivial")[0].trees[0] for g in (complete, chain_graph(80))]
        assert [t.params.depth for t in trees] == [11, 11]
        assert trees[0].header_bytes() == trees[1].header_bytes()
        assert trees[0].params.cached == 11

    @settings(deadline=None)
    @given(graphs=graphs_on_one_vertex_count(), mode=st.sampled_from(["trivial", "enhanced"]))
    def test_trees_reveal_only_the_vertex_count(self, graphs, mode):
        # at fixed Z and budget, every tree a graph is stored in -- the
        # data tree and each map level -- has a header and a size that
        # follow from |V| alone, and so has the chain: however many pairs
        # are connected, the host cannot tell two graphs on |V| apart.  A
        # 128-byte budget gives a chain from 5 vertices on
        kw = {"budget": 128} if mode == "enhanced" else {}
        results = [setup(g, mode=mode, bucket_size=2, rng=random.Random(1), **kw) for g in graphs]
        stored = [[(t.header_bytes(), len(t.buckets)) for t in r.trees] for r in results]
        assert stored[0] == stored[1]
        parties = [r.client if mode == "trivial" else r.controller for r in results]
        assert parties[0].positions.chain_depth == parties[1].positions.chain_depth == len(results[0].trees) - 1

    def test_vertex_count_past_the_address_width_is_refused(self):
        # a hop is a 2-byte vertex id, and an address u*|V|+v 4 bytes: 2^16
        # vertices fit, one more does not
        SchemeParams(MAX_VERTICES).validate()
        with pytest.raises(ConfigError, match="65537 vertices exceed 65536"):
            SchemeParams(MAX_VERTICES + 1).validate()
        with pytest.raises(ConfigError, match="65537 vertices"):
            setup(Graph(MAX_VERTICES + 1))

    def test_block_and_path_widths(self):
        # tk 16 | payload | leaf ceil(L/8): data blocks of 16 + 2 + 2 bytes
        # at depth 13 and, at the 504-byte payload the shape rule picks at
        # a 4 KiB budget, map blocks of 16 + 504 + 1 in the depth-5 level
        # tree.  At |V|=200 (depth 13) a bucket is 1 + 5*20 + 28 bytes: the
        # trivial host path is its leaf bucket alone, the enhanced one all 14
        trivial = SchemeParams(200).data_params
        enhanced = SchemeParams(200, mode="enhanced", budget=4096)
        assert trivial.depth == enhanced.data_params.depth == 13
        assert trivial.block_width == enhanced.data_params.block_width == 20
        assert [(level.params.depth, level.params.block_width) for level in enhanced.map_shape.levels] == [(5, 521)]
        assert trivial.path_width == 1 * 129 == 129
        assert enhanced.data_params.path_width == 14 * 129 == 1_806

    @pytest.mark.parametrize("vertices, depth", [(200, 13), (500, 16)])
    def test_benchmark_data_buckets_are_129_bytes(self, vertices, depth):
        # the benchmark's data trees, Z=5: 20-byte blocks of token, 2-byte
        # hop and 2-byte leaf, and buckets of a count byte, five blocks and
        # the AES-GCM nonce and tag, in either deployment
        for mode, kw in (("trivial", {}), ("enhanced", {"budget": 4096})):
            tp = SchemeParams(vertices, mode=mode, **kw).data_params
            assert (tp.depth, tp.payload_width, tp.leaf_width) == (depth, 2, 2)
            assert tp.block_width == 20 and tp.bucket_width == 1 + 5 * 20 + 28 == 129

    def test_pad_full_sizes_past_vertex_square(self, four_vertex_directed):
        # every data tree holds a block for each of the 4*4 ordered pairs,
        # however few are connected (6 here)
        result, host, _, _ = deploy(four_vertex_directed, "trivial")
        params = host.trees[0].params
        assert result.spdx_size == 6
        assert params.leaves * params.bucket_size >= 4 * 4


class TestQueryReveal:
    def test_worked_example(self, four_vertex_directed):
        # the answer is the hops' vertex ids, 2 then 3
        _, _, _, client = deploy(four_vertex_directed, "trivial")
        resp = client.query(0, 3)
        assert resp == [2, 3]
        assert reveal(resp, 0, 3, 4) == [0, 2, 3]

    def test_diagonal_empty(self, four_vertex_directed):
        _, _, _, client = deploy(four_vertex_directed, "trivial")
        assert client.query(2, 2) == []

    def test_disconnected_single_round(self, four_vertex_directed):
        _, host, _, client = deploy(four_vertex_directed, "trivial")
        before = len(host.trace)
        assert client.query(3, 0) == []
        reads = [r for r in host.trace.records[before:] if r.msg_type == "ReadPath"]
        assert len(reads) == 1

    def test_reveal_empty_cases(self):
        assert reveal([], 2, 2, 4) == []
        assert reveal([], 2, 3, 4) is None

    def test_reveal_tampered_ct(self, four_vertex_directed):
        # the enhanced answer travels session-encrypted: one flipped bit
        # of the response ciphertext fails authentication at the client
        _, _, _, client = deploy(four_vertex_directed, "enhanced")
        send = client.transport

        def flip(ct):
            bad = bytearray(send(ct))
            bad[-20] ^= 1
            return bytes(bad)

        client.transport = flip
        with pytest.raises(IntegrityError):
            client.query(0, 3)

    @pytest.mark.parametrize(
        "resp, fault",
        [([2, 1], "does not terminate"), ([4, 3], "hop 4 is not a vertex"), ([2, 7], "hop 7 is not a vertex")],
        ids=["last-hop-not-the-destination", "hop-past-the-graph", "last-hop-past-the-graph"],
    )
    def test_reveal_rejects_a_path_off_the_destination(self, resp, fault):
        # |V|=4, dest 3: every hop is a vertex below 4, and the last is 3
        assert reveal([2, 3], 0, 3, 4) == [0, 2, 3]
        with pytest.raises(IntegrityError, match=fault):
            reveal(resp, 0, 3, 4)

    def test_out_of_range_query(self, four_vertex_directed):
        _, _, _, client = deploy(four_vertex_directed, "trivial")
        with pytest.raises(IndexError):
            client.query(0, 99)

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_rounds_equal_path_length_plus_one(self, mode):
        g = Graph(7, directed=True)
        for i in range(6):
            g.add_edge(i, i + 1)
        _, host, _, client = deploy(g, mode)
        for u, v in [(0, 6), (0, 1), (4, 4), (6, 0), (2, 5)]:
            before = len(host.trace)
            path = client.query_path(u, v)
            plen = len(path) - 1 if path else 0
            reads = [
                r for r in host.trace.records[before:]
                if r.msg_type == "ReadPath" and r.tree_id == 0
            ]
            assert len(reads) == rounds(plen)

    @pytest.mark.parametrize("mode", ["trivial", "enhanced"])
    def test_decimal_weights_keep_their_path(self, mode):
        # road-like decimal weights: the table once dropped (3, 0), whose
        # distance 0.7 + 0.2 + 0.2 two searches summed in different orders,
        # and both deployments answered "no path"
        g = load_graph(io.StringIO("3\t1\t0.7\n1\t2\t0.2\n2\t0\t0.2\n"))
        _, _, _, client = deploy(g, mode)
        assert client.query_path(3, 0) == [3, 1, 2, 0]

    @pytest.mark.xfail(
        strict=True,
        raises=IntegrityError,
        reason="ROADMAP item 8: a failed path read leaves the client's map on the fresh leaf of a block that stayed put",
    )
    def test_failed_read_leaves_the_client_usable(self, monkeypatch):
        # the first path read of (0, 5) fails: get_and_remap has already
        # given the pair's block a fresh leaf, and the block was never read,
        # so it is still on its old path and the same query misses it
        _, host, _, client = deploy(chain_graph(6), "trivial")
        read_path, reads = host.read_path, []

        def fail_first(tree_id, leaf):
            reads.append(leaf)
            if len(reads) == 1:
                raise ProtocolError("storage refuses reads")
            return read_path(tree_id, leaf)

        monkeypatch.setattr(host, "read_path", fail_first)
        with pytest.raises(ProtocolError, match="storage refuses reads"):
            client.query_path(0, 5)
        assert client.query_path(0, 5) == [0, 1, 2, 3, 4, 5]


class TestModeEquivalence:
    def test_identical_paths_across_modes(self, rng):
        for trial in range(6):
            g = random_graph(rng, rng.randrange(5, 30), 0.18, weighted=trial % 2 == 0)
            _, _, _, c1 = deploy(g, "trivial", rng_seed=trial)
            _, _, _, c2 = deploy(g, "enhanced", rng_seed=trial + 100)
            _, _, _, c3 = deploy(
                g, "enhanced", rng_seed=trial + 200,
                budget=max(512, g.vertex_count**2 * 8 // 16),
            )
            n = g.vertex_count
            for u in range(n):
                for v in range(n):
                    want = spath_oracle(g, u, v)
                    assert c1.query_path(u, v) == want
                    assert c2.query_path(u, v) == want
                    assert c3.query_path(u, v) == want


    def test_answers_are_the_oracle_hops(self, rng):
        # both deployments answer with the hops' vertex ids: the oracle's
        # path past its source, empty for u = v and where there is none
        g = random_graph(rng, 12, 0.25)
        oracle = PathOracle(g)
        for mode in ("trivial", "enhanced"):
            _, _, _, client = deploy(g, mode)
            for u in range(12):
                for v in range(12):
                    assert client.query(u, v) == (oracle.path(u, v) or [u])[1:], (mode, u, v)


class TestController:
    def test_request_width_content_independent(self, four_vertex_directed):
        result, _, _, client = deploy(four_vertex_directed, "enhanced")
        session = Cipher(result.client.session_key)
        widths = {len(session.encrypt(encode_pair(u, v), REQUEST_LABEL)) for u in range(4) for v in range(4)}
        assert widths == {REQUEST_WIDTH}

    def test_response_is_a_count_and_two_bytes_a_hop(self, four_vertex_directed):
        # the host sees the response's width, which the path length alone
        # sets: the session overhead, a 2-byte count, 2 bytes a hop
        _, host, _, client = deploy(four_vertex_directed, "enhanced")
        for (u, v), hops in {(0, 3): 2, (0, 1): 1, (2, 2): 0, (3, 0): 0}.items():
            assert len(client.query(u, v)) == hops
            record = host.trace.records[-1]
            assert record.msg_type == "EnclaveResponse"
            assert record.byte_count == response_width(hops) == CT_OVERHEAD + 2 + 2 * hops

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 4])
    def test_response_of_another_width_is_refused(self, four_vertex_directed, extra):
        # a response whose body is not its count's 2 bytes a hop, though
        # authentic and bound to its request, is refused rather than cut to
        # the count
        result, _, _, client = deploy(four_vertex_directed, "enhanced")
        session, send = Cipher(result.client.session_key), client.transport

        def widen(ct):
            ad = RESPONSE_LABEL + ct
            return session.encrypt(session.decrypt(send(ct), ad) + extra, ad)

        client.transport = widen
        with pytest.raises(ProtocolError, match="does not hold its hop count"):
            client.query(0, 3)

    @pytest.mark.parametrize("kept", [(0, 3), (2, 2)], ids=["earlier-response", "earlier-empty-response"])
    def test_replayed_response_is_refused(self, four_vertex_directed, kept):
        # a host that keeps one authentic response and returns it for a
        # later query: each response is bound to its own request
        _, _, _, client = deploy(four_vertex_directed, "enhanced")
        send, held = client.transport, []

        def replay(ct):
            if not held:
                held.append(send(ct))
            return held[0]

        client.transport = replay
        client.query(*kept)
        with pytest.raises(IntegrityError):
            client.query(1, 3)

    def test_request_echoed_back_is_refused(self, four_vertex_directed):
        # the request itself, an authentic ciphertext under the session
        # key, does not pass for its response
        _, _, _, client = deploy(four_vertex_directed, "enhanced")
        client.transport = lambda ct: ct
        with pytest.raises(IntegrityError):
            client.query(0, 3)

    def test_repeated_query_fresh_trace(self, four_vertex_directed):
        _, host, _, client = deploy(four_vertex_directed, "enhanced")
        def leaf_seq():
            before = len(host.trace)
            client.query(0, 3)
            return [r.leaf for r in host.trace.records[before:] if r.msg_type == "ReadPath"]
        seqs = [tuple(leaf_seq()) for _ in range(30)]
        assert len(set(seqs)) > 1  # deterministic replay would repeat the sequence

    def test_malformed_session_frame_rejected_before_access(self, four_vertex_directed):
        result, host, server, client = deploy(four_vertex_directed, "enhanced")
        before = len(host.trace)
        with pytest.raises(IntegrityError):
            client.transport(b"\x00" * 42)
        storage_msgs = [
            r for r in host.trace.records[before:] if r.msg_type in ("ReadPath", "WritePath")
        ]
        assert storage_msgs == []

    def test_out_of_range_pair_rejected_before_access(self, four_vertex_directed):
        result, host, server, client = deploy(four_vertex_directed, "enhanced")
        session = Cipher(result.client.session_key)
        before = len(host.trace)
        with pytest.raises(IndexError):
            client.transport(session.encrypt(encode_pair(0, 99), REQUEST_LABEL))
        storage_msgs = [
            r for r in host.trace.records[before:] if r.msg_type in ("ReadPath", "WritePath")
        ]
        assert storage_msgs == []


class TestPersistence:
    def test_keyfile_round_trip(self, tmp_path, four_vertex_directed):
        for mode, kw in (("trivial", {}), ("enhanced", {"budget": 4096})):
            result, _, _, _ = deploy(four_vertex_directed, mode, **kw)
            path = tmp_path / f"keys-{mode}.bin"
            save_state(path, result.client)
            loaded = load_state(path, TrivialState, EnhancedState)
            assert type(loaded) is type(result.client)
            assert loaded.params == result.params
            assert loaded.params.mode == mode
            if mode == "enhanced":
                assert loaded.session_key == result.client.session_key
            else:
                assert loaded.keys == result.keys

    def test_client_state_round_trip(self, tmp_path, four_vertex_directed):
        # the trivial client's engine state lives in its keys.bin
        # the client's engine is the state's own, so the saved file holds
        # what the query left
        result, _, _, client = deploy(four_vertex_directed, "trivial")
        assert client.engine.oram is result.client.oram
        client.query(0, 3)
        keyfile = tmp_path / "keys.bin"
        save_state(keyfile, result.client)
        fresh = load_state(keyfile, TrivialState)
        assert fresh.keys == result.keys
        assert fresh.positions.top == result.client.positions.top
        assert fresh.positions.levels == []
        assert fresh.oram.held == result.client.oram.held
        assert fresh.oram.params == result.trees[0].params

    def test_controller_round_trip_preserves_answers(self, tmp_path, rng):
        g = random_graph(rng, 20, 0.2)
        result, host, server, client = deploy(g, "enhanced", budget=512)
        want = {(u, v): client.query_path(u, v) for u in range(20) for v in range(20)}
        path = tmp_path / "controller.bin"
        save_state(path, server.controller.state)
        client2 = redeploy(host, load_state(path, ControllerState), result.client)
        for u in range(20):
            for v in range(20):
                got = client2.query_path(u, v)
                assert got == spath_oracle(g, u, v), (u, v)

    def test_controller_round_trip_keeps_position_map_stash(self, tmp_path, rng):
        # Z=1 keeps the level stash busy.  The shape rule picks 400-byte
        # level payloads: 200 two-byte entries a block, 2 blocks in a
        # depth-1 tree, as 512 bytes give
        g = random_graph(rng, 20, 0.2)
        result, host, server, client = deploy(g, "enhanced", budget=512, bucket_size=1)
        levels = server.controller.state.positions.levels
        assert [(lvl.params.payload_width, lvl.params.depth) for lvl in levels] == [(400, 1)]
        pairs = [(u, v) for u in range(20) for v in range(20)]
        for u, v in pairs:
            client.query_path(u, v)
            if levels[0].held_count:
                break
        saved_stash = levels[0].held_blocks()
        assert saved_stash, "no level stash to persist"
        path = tmp_path / "controller.bin"
        save_state(path, server.controller.state)
        state = load_state(path, ControllerState)
        assert state.positions.levels[0].held == {0: saved_stash}
        assert state.oram.held == server.controller.state.oram.held
        assert state.positions.top == server.controller.state.positions.top
        client2 = redeploy(host, state, result.client)
        for u, v in pairs:
            assert client2.query_path(u, v) == spath_oracle(g, u, v), (u, v)

    def test_client_state_bytes_follow_the_documented_layout(self, tmp_path):
        # the trivial client's keys.bin: magic, version, party 0; the
        # 13-byte parameter block (|V|, Z, budget); the 16-byte k2 kprf;
        # then the engine state: the flat map's |V|^2 leaves as cells
        # as wide as the data tree's leaves need, one byte for 64 leaves,
        # then the data tree's held blocks
        # (count, then per 19-byte block tk, 2-byte hop and the leaf in the
        # one byte a depth-6 tree needs, group by group, each group one
        # leaf's at k = L = 6); no shape is stored, the data depth included
        result, _, _, client = deploy(chain_graph(15), "trivial")
        state = result.client
        for u in range(14):
            client.query(u, 14)
        depth = result.params.data_depth
        oram = state.oram
        assert result.params.data_params.cached == depth == 6
        assert all(0 <= g < 64 for g in oram.held)
        # one more held block, packed by hand, in the last group at its
        # last leaf
        leaf = (1 << depth) - 1
        oram.held.setdefault(leaf, []).append(HELD_HEAD + bytes([leaf]))
        stash = oram.held_blocks()
        slots = list(struct.iter_unpack(">16sHB", b"".join(stash)))
        assert slots[-1] == (b"\x11" * 16, 7, leaf)

        want = b"OS" + bytes([STATE_VERSION, 0]) + struct.pack(">IBQ", 15, 5, 0)
        assert protocol._PARAMS.size == 13
        want += state.keys.k2 + state.keys.kprf
        top = top_entries(state.positions)
        assert len(top) == 225 and depth == 6
        want += bytes(top)
        want += struct.pack(">I", len(stash)) + b"".join(tk + struct.pack(">HB", hop, leaf) for tk, hop, leaf in slots)
        path = tmp_path / "keys.bin"
        save_state(path, state)
        assert path.read_bytes() == want
        fresh = load_state(path, TrivialState)
        assert fresh.positions.top == state.positions.top and fresh.oram.held == oram.held

    def test_raised_vertex_count_is_refused_before_any_engine(self, tmp_path):
        # the map's shape and the data depth follow from the stored |V|:
        # raised to MAX_VERTICES = 2^16 it gives a 2^32-cell top and a
        # depth-30 tree.  The top's |V|^2 cells come before the held
        # blocks, so the file runs out first.  The load runs in a child held
        # to 2 GiB of address space, so a loader that allocated for that
        # |V| would fail there with MemoryError, not take this machine's
        # memory
        result, _, _, _ = deploy(chain_graph(3), "trivial")
        path = tmp_path / "keys.bin"
        save_state(path, result.client)
        raw = path.read_bytes()
        at = protocol._PREFIX.size  # |V| opens the parameter block
        path.write_bytes(raw[:at] + struct.pack(">I", MAX_VERTICES) + raw[at + 4 :])
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from obge.exceptions import ProtocolError; from obge.protocol import TrivialState, load_state\n"
            "try: load_state(sys.argv[1], TrivialState)\n"
            "except ProtocolError as exc: print(exc)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(f"state file {path} is truncated: {len(raw)} bytes")

    @pytest.mark.parametrize("bad", ["leaf-past-tree", "leaf-all-ones"])
    def test_bad_stash_block_is_rejected(self, tmp_path, bad):
        # a controller caches no level (here of a depth-1 tree, for 3
        # vertices), so its data engine's held blocks are a stash.  A
        # block mapped to leaf 2^L, or to the largest leaf its one leaf
        # byte holds, would be evicted into whichever path is written next
        _, _, server, _ = deploy(chain_graph(3), "enhanced")
        state = server.controller.state
        tp = state.params.data_params
        assert tp.cached == 0 and tp.depth == 1 and tp.leaf_width == 1
        leaf = tp.leaves if bad == "leaf-past-tree" else 255
        state.oram.held.setdefault(0, []).append(held_block(tp, leaf))
        path = tmp_path / "controller.bin"
        save_state(path, state)
        with pytest.raises(ProtocolError, match=f"state file {path}: tree 0 holds a block mapped to leaf {leaf} of 2"):
            load_state(path, ControllerState)

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        # the blocks the trivial client holds for its cached levels, as
        # eviction left them, come back byte for byte in the same groups,
        # and the engine built over them answers as before
        g = chain_graph(15)
        result, host, _, client = deploy(g, "trivial")
        state = result.client
        assert result.params.data_params.cached == result.params.data_depth == 6
        for u in range(14):
            client.query(u, 14)
            if state.oram.held_count:
                break
        assert state.oram.held_count > 0, "no held block to persist"
        path = tmp_path / "keys.bin"
        save_state(path, state)
        fresh = load_state(path, TrivialState)
        assert fresh.oram.held == state.oram.held and fresh.params == state.params
        assert fresh.oram.held_count == state.oram.held_count
        client2 = TrivialClient(fresh, host, rng=random.Random(3))
        for u in range(15):
            assert client2.query_path(u, 14) == spath_oracle(g, u, 14)

    def test_a_leaf_level_host_leaves_no_empty_group(self, tmp_path):
        # at k = L a group is one leaf's held blocks, and most of the 2^L
        # groups are empty: the engine stores none of those, after setup,
        # after queries that empty groups and fill others, and after a save
        # and a load, which give back the same bytes.  Z=1 gives the
        # 15-vertex chain a depth-8 tree and the engine blocks to hold
        g = chain_graph(15)
        result, host, _, client = deploy(g, "trivial", bucket_size=1)
        oram = result.client.oram
        tp = oram.params
        assert tp.cached == tp.depth == 8

        def groups(engine):
            assert all(0 <= leaf < tp.leaves and group for leaf, group in engine.held.items())
            assert sum(map(len, engine.held.values())) == engine.held_count
            return set(engine.held)

        after_setup = groups(oram)
        for u in range(14):
            assert client.query_path(u, 14) == spath_oracle(g, u, 14)
        after_queries = groups(oram)
        assert after_setup - after_queries and after_queries - after_setup
        path = tmp_path / "keys.bin"
        save_state(path, result.client)
        fresh = load_state(path, TrivialState)
        assert groups(fresh.oram) == after_queries and fresh.oram.held == oram.held
        save_state(tmp_path / "again.bin", fresh)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad", ["leaf-past-tree", "leaf-all-ones"])
    def test_bad_cached_slot_is_rejected(self, tmp_path, bad):
        # with cached levels, a held block mapped past the last leaf is
        # refused like a stash block, in the last group, where its top
        # bits would put it
        result, _, _, _ = deploy(chain_graph(15), "trivial")
        state = result.client
        tp = result.params.data_params
        assert tp.cached == tp.depth == 6 and tp.leaf_width == 1
        leaf = tp.leaves if bad == "leaf-past-tree" else 255
        state.oram.held.setdefault((1 << tp.cached) - 1, []).append(held_block(tp, leaf))
        path = tmp_path / "keys.bin"
        save_state(path, state)
        with pytest.raises(ProtocolError, match=f"state file {path}: tree 0 holds a block mapped to leaf {leaf} of 64"):
            load_state(path, TrivialState)

    def test_held_blocks_out_of_group_order_are_refused(self, tmp_path):
        # held blocks are stored group by group; a block of group 0 saved
        # after one of the last group would be loaded into that group's run
        result, _, _, _ = deploy(chain_graph(15), "trivial")
        state = result.client
        tp = result.params.data_params
        assert tp.cached == 6
        state.oram.held.setdefault(tp.leaves - 1, []).extend(held_block(tp, leaf) for leaf in (tp.leaves - 1, 0))
        path = tmp_path / "keys.bin"
        save_state(path, state)
        with pytest.raises(ProtocolError, match=f"state file {path}: tree 0 held blocks are out of group order"):
            load_state(path, TrivialState)

    @pytest.mark.parametrize("cached", [0, 4])
    def test_held_count_past_the_limit_is_refused(self, tmp_path, cached):
        # at most STASH_MAX + Z(2^k - 1) blocks: the stash allowance and the
        # slots of the top buckets.  The engine refuses the count before it
        # looks at the blocks.  2 vertices get a depth-0 data tree, 8 a
        # depth-4 one, and a trivial client caches all but the leaf level
        result, _, _, _ = deploy(chain_graph(8 if cached else 2), "trivial")
        state = result.client
        tp = result.params.data_params
        assert tp.cached == cached
        limit = STASH_MAX + 5 * ((1 << cached) - 1)
        path = tmp_path / "keys.bin"
        save_state(path, state)
        raw = path.read_bytes()
        # the data tree's held count, after the keys k2 kprf and the top
        at = protocol._PREFIX.size + protocol._PARAMS.size + 2 * 16 + len(state.positions.top)
        for count, ok in ((limit, True), (limit + 1, False)):
            # blocks of the last group, so the groups stay in order
            blocks = [held_block(tp, tp.leaves - 1)] * (count - state.oram.held_count)
            path.write_bytes(raw[:at] + struct.pack(">I", count) + raw[at + 4 : at + 4 + state.oram.held_count * tp.block_width]
                             + b"".join(blocks) + raw[at + 4 + state.oram.held_count * tp.block_width :])
            if ok:
                assert load_state(path, TrivialState).oram.held_count == limit
            else:
                with pytest.raises(ProtocolError, match=f"state file {path}: tree 0 holds {count} blocks, limit {limit}"):
                    load_state(path, TrivialState)

    @pytest.mark.parametrize(
        "mode, kw, depth",
        [("trivial", {}, 0), ("enhanced", {}, 0), ("enhanced", {"budget": 256}, 1), ("enhanced", {"budget": 16}, 2)],
        ids=["trivial", "enhanced-flat", "enhanced-chain", "enhanced-chain-16"],
    )
    def test_loaded_map_has_the_shape_setup_built(self, tmp_path, rng, mode, kw, depth):
        # the map's shape is derived from the parameter block, not read from
        # the file: no file can claim data leaves, a top width or level
        # trees other than those setup built (a stored header once claimed
        # 2 data leaves for a 128-leaf tree, and every remap then went to
        # leaf 0 or 1 until the stash overflowed), the level payload the
        # shape rule picked included: 512 bytes for a flat map, 32 at a
        # 256-byte budget and 16 at a 16-byte one
        result, _, server, _ = deploy(random_graph(rng, 12, 0.3), mode, **kw)
        state = result.client if mode == "trivial" else server.controller.state
        path = tmp_path / "state.bin"
        save_state(path, state)
        loaded = load_state(path, type(state))
        want, got = state.positions, loaded.positions
        assert loaded.params == state.params
        assert got.chain_depth == want.chain_depth == depth
        assert got.shape == want.shape == state.params.map_shape
        assert got.shape.payload == {0: 512, 1: 32, 2: 16}[depth]
        assert got.shape.address_space == 144
        assert got.shape.targets[0] == result.trees[0].params.leaves
        assert len(top_entries(got)) == len(top_entries(want)) == got.shape.top_width
        assert [lvl.params for lvl in got.levels] == [t.params for t in result.trees[1:]]
        assert [lvl.tree_id for lvl in got.levels] == [t.tree_id for t in result.trees[1:]]

    @pytest.mark.parametrize("mode, tree", [("trivial", 0), ("enhanced", 1)], ids=["flat-past", "chain-past"])
    def test_top_entry_past_its_tree_is_refused(self, tmp_path, mode, tree):
        # a flat map's entries are data leaves, a chain's leaves of its last
        # level.  An entry past its tree loaded, and the first query that
        # read it raised IndexError.  The 256-byte budget gets 32-byte
        # payloads of 32 entries, so the chain's top has 5.  The cells are
        # one byte wide, for 32 data leaves or the one leaf of level 0
        kw = {"budget": 256} if mode == "enhanced" else {}
        result, _, server, _ = deploy(random_graph(random.Random(5), 12, 0.3), mode, **kw)
        state = result.client if mode == "trivial" else server.controller.state
        assert state.positions.chain_depth == tree
        leaves = result.trees[tree].params.leaves
        assert state.positions.shape.top_entry_width == 1
        path = tmp_path / "state.bin"
        save_state(path, state)
        raw = path.read_bytes()
        keys = 2 if mode == "trivial" else 3  # k2 kprf, and the controller's session key
        at = protocol._PREFIX.size + protocol._PARAMS.size + keys * 16 + 3  # top entry 3, after the keys
        path.write_bytes(raw[:at] + bytes([leaves]) + raw[at + 1 :])
        with pytest.raises(ProtocolError, match=f"{path}: top entry 3 is leaf {leaves}, but its tree has {leaves} leaves"):
            load_state(path, type(state))

    @pytest.mark.parametrize(
        "name, kind, chain_depth, held",
        [("trivial-keys.bin", TrivialState, 0, [72]), ("enhanced-keys.bin", EnhancedState, None, None),
         ("controller.bin", ControllerState, 2, [5, 2, 0])],
        ids=["trivial", "enhanced", "controller"],
    )
    def test_current_format_files_load_unchanged(self, tmp_path, name, kind, chain_depth, held):
        # the trivial client holds 72 blocks in 64 of its 256 groups (k=8
        # of the depth-8 tree of 12 vertices at Z=1, so a group is one
        # leaf's) and its top is 144 one-byte cells; the controller's chain
        # has depth 2, of 16-byte payloads, and held blocks in the data
        # tree and level 0.  Loading and saving again gives the same bytes
        state = load_state(CURRENT_STATE / name, kind)
        if chain_depth is not None:
            assert state.positions.chain_depth == chain_depth
            assert [e.held_count for e in (state.oram, *state.positions.levels)] == held
        if kind is ControllerState:
            assert state.positions.shape.payload == 16
        if kind is TrivialState:
            assert state.oram.params.cached == 8 and state.positions.shape.top_entry_width == 1
            assert len(state.oram.held) == 64 and all(state.oram.held.values())
        save_state(tmp_path / name, state)
        assert (tmp_path / name).read_bytes() == (CURRENT_STATE / name).read_bytes()

    @pytest.mark.parametrize(
        "version, name, kind",
        [pytest.param(version, name, kind, id=f"{version}-{name}")
         for version in OLD_STATE_VERSIONS for name, kind in STATE_FILES],
    )
    def test_older_format_files_are_refused(self, version, name, kind):
        # every older format's fixture, each stamped with the version of its
        # directory, is refused by that version, whatever its layout; the
        # previous format's among them, so the fixtures were found.  What
        # each format held is in CHANGES.md
        assert STATE_VERSION - 1 in OLD_STATE_VERSIONS
        path = DATA / f"state_v{version}" / name
        assert protocol._PREFIX.unpack_from(path.read_bytes())[1] == version
        with pytest.raises(ProtocolError, match=f"state file {path}: unsupported version {version}, "
                                                f"expected {STATE_VERSION}; set the deployment up again"):
            load_state(path, kind)

    @pytest.mark.parametrize(
        "field, value, match",
        [(2, 15, "smaller than the smallest map block payload"), (1, 0, "bucket size must be")],
        ids=["budget-15", "Z-0"],
    )
    def test_parameter_block_is_validated_on_load(self, tmp_path, rng, field, value, match):
        # a parameter block setup would refuse is refused before any shape
        # is derived from it: a budget that holds no level payload has no
        # shape, and with Z 0 the first query blamed the host for a path of
        # the wrong width
        _, _, server, _ = deploy(random_graph(rng, 12, 0.3), "enhanced", budget=256)
        path = tmp_path / "controller.bin"
        save_state(path, server.controller.state)
        raw = path.read_bytes()
        at, size = protocol._PREFIX.size, protocol._PARAMS.size
        fields = list(protocol._PARAMS.unpack(raw[at : at + size]))  # |V|, Z, budget
        fields[field] = value
        path.write_bytes(raw[:at] + protocol._PARAMS.pack(*fields) + raw[at + size :])
        with pytest.raises(ProtocolError, match=f"corrupt parameter block: .*{match}"):
            load_state(path, ControllerState)

    def test_old_state_layouts_are_rejected(self, tmp_path, four_vertex_directed, rng):
        # a client state without magic (the token-keyed layout), and the
        # separate key ("OK") and controller ("OC") formats, must be set up
        # again
        result, _, _, _ = deploy(four_vertex_directed, "trivial")
        _, _, server, _ = deploy(random_graph(rng, 12, 0.3), "enhanced")
        path = tmp_path / "state.bin"
        path.write_bytes(struct.pack(">I", 1) + b"\x11" * 16 + struct.pack(">Q", 3) + struct.pack(">I", 0))
        with pytest.raises(ProtocolError, match="magic"):
            load_state(path, *PARTIES)
        for old, state in ((b"OK\x01", result.client), (b"OC\x03", server.controller.state)):
            save_state(path, state)
            path.write_bytes(old + path.read_bytes()[3:])
            with pytest.raises(ProtocolError, match="bad magic"):
                load_state(path, *PARTIES)

    def test_version_two_files_are_rejected(self, tmp_path, four_vertex_directed):
        # a tree or state file stamped with the version before the current
        # one must be set up again, and the refusal says so
        result, _, _, _ = deploy(four_vertex_directed, "trivial")
        enhanced, _, server, _ = deploy(four_vertex_directed, "enhanced")
        result.trees[0].save(tmp_path / "tree.bin")
        save_state(tmp_path / "keys.bin", result.client)
        save_state(tmp_path / "enhanced-keys.bin", enhanced.client)
        save_state(tmp_path / "controller.bin", server.controller.state)
        loaders = {
            "tree.bin": (TREE_VERSION, TreeStorage.load),
            "keys.bin": (STATE_VERSION, lambda p: load_state(p, TrivialState)),
            "enhanced-keys.bin": (STATE_VERSION, lambda p: load_state(p, EnhancedState)),
            "controller.bin": (STATE_VERSION, lambda p: load_state(p, ControllerState)),
        }
        for name, (current, load) in loaders.items():
            old = current - 1
            path = tmp_path / name
            raw = path.read_bytes()
            assert raw[2] == current
            path.write_bytes(raw[:2] + bytes([old]) + raw[3:])
            kind = "tree" if name == "tree.bin" else "state"
            with pytest.raises(ProtocolError, match=f"{kind} file {path}: unsupported version {old}, expected {current}; "
                                                    "set the deployment up again"):
                load(path)

    def test_party_kind_must_match(self, tmp_path, four_vertex_directed):
        # a state file of the wrong party is refused, naming both kinds
        result, _, server, _ = deploy(four_vertex_directed, "enhanced")
        save_state(tmp_path / "controller.bin", server.controller.state)
        save_state(tmp_path / "keys.bin", result.client)
        with pytest.raises(ProtocolError, match="holds controller state, expected trivial client or enhanced client"):
            load_state(tmp_path / "controller.bin", TrivialState, EnhancedState)
        with pytest.raises(ProtocolError, match="holds enhanced client state, expected controller"):
            load_state(tmp_path / "keys.bin", ControllerState)

    def test_state_and_tree_files_are_owner_only(self, tmp_path, four_vertex_directed):
        # state files hold keys: mode 0600 whatever the umask
        result, _, server, _ = deploy(four_vertex_directed, "enhanced")
        old_umask = os.umask(0)
        try:
            save_state(tmp_path / "keys.bin", result.client)
            save_state(tmp_path / "controller.bin", server.controller.state)
            result.trees[0].save(tmp_path / "tree_000.bin")
        finally:
            os.umask(old_umask)
        for name in ("keys.bin", "controller.bin", "tree_000.bin"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o600, name

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch, rng):
        # a write that fails part-way (here at fsync, after the new bytes
        # went out) keeps the old file byte for byte and leaves no temp file
        result, _, server, _ = deploy(random_graph(rng, 12, 0.3), "enhanced", budget=256)
        trivial, _, _, client = deploy(random_graph(rng, 12, 0.3), "trivial")
        savers = {
            "keys.bin": lambda p: save_state(p, result.client),
            "controller.bin": lambda p: save_state(p, server.controller.state),
            "trivial-keys.bin": lambda p: save_state(p, trivial.client),
            "tree_000.bin": trivial.trees[0].save,
        }
        for name, save in savers.items():
            save(tmp_path / name)
        before = {name: (tmp_path / name).read_bytes() for name in savers}
        client.query(0, 5)  # remaps blocks: the state and tree bytes change

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(storage.os, "fsync", failing_fsync)
        for name, save in savers.items():
            with pytest.raises(OSError, match="disk full"):
                save(tmp_path / name)
            assert (tmp_path / name).read_bytes() == before[name]
        assert sorted(os.listdir(tmp_path)) == sorted(savers)


def load_any(path):
    return load_state(path, *PARTIES)


class TestTruncatedStateFiles:
    """Every prefix of a state file is malformed input: ProtocolError, never
    a bare struct.error or a silently short key."""

    def _assert_every_prefix_rejected(self, path):
        raw = path.read_bytes()
        for cut in sorted({0, 1, 2, 3, 10, 30, len(raw) // 2, len(raw) - 17, len(raw) - 1}):
            path.write_bytes(raw[:cut])
            with pytest.raises(ProtocolError):
                load_any(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ProtocolError, match="trailing"):
            load_any(path)

    def test_keyfile(self, tmp_path, four_vertex_directed):
        result, _, _, _ = deploy(four_vertex_directed, "enhanced")
        path = tmp_path / "keys.bin"
        save_state(path, result.client)
        self._assert_every_prefix_rejected(path)

    def test_client_state(self, tmp_path, four_vertex_directed):
        # the trivial client's keys.bin, engine state included
        result, _, _, client = deploy(four_vertex_directed, "trivial")
        client.query(0, 3)
        path = tmp_path / "keys.bin"
        save_state(path, result.client)
        self._assert_every_prefix_rejected(path)

    def test_controller(self, tmp_path, rng):
        g = random_graph(rng, 12, 0.3)
        result, _, server, _ = deploy(g, "enhanced", budget=256)
        path = tmp_path / "controller.bin"
        save_state(path, server.controller.state)
        self._assert_every_prefix_rejected(path)


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """raw cut short, with one byte overwritten, or with bytes appended."""
    how = draw(st.sampled_from(["truncate", "overwrite", "append"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "overwrite":
        # headers are short: aim at the first bytes as often as anywhere else
        i = draw(st.integers(0, 40) | st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1 :]
    return raw + draw(st.binary(min_size=1, max_size=64))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid state file of each party kind and a valid tree file, as bytes,
    and a directory to write damaged copies into."""
    work = tmp_path_factory.mktemp("fuzz")
    g = random_graph(random.Random(5), 12, 0.3)
    trivial, _, _, client = deploy(g, "trivial")
    client.query(0, 5)
    enhanced, _, server, _ = deploy(g, "enhanced", budget=256)
    for name, state in (("trivial", trivial.client), ("enhanced", enhanced.client),
                        ("controller", server.controller.state)):
        save_state(work / name, state)
    trivial.trees[0].save(work / "tree")
    return work, {p.name: p.read_bytes() for p in work.iterdir()}


# the loaders' checks live in the engines they build, and this is what
# keeps every damaged file a ProtocolError: never fewer than 200 examples,
# and the profile's count where that is more
LOADER_EXAMPLES = max(200, settings().max_examples)


class TestLoaderFuzz:
    """A damaged state or tree file either loads or raises ProtocolError;
    no other exception escapes the loaders."""

    @settings(max_examples=LOADER_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_state_loader(self, valid_files, data):
        work, files = valid_files
        raw = files[data.draw(st.sampled_from(["trivial", "enhanced", "controller"]))]
        path = work / "damaged"
        path.write_bytes(data.draw(damaged(raw)))
        try:
            assert isinstance(load_any(path), PARTIES)
        except ProtocolError:
            pass

    @settings(max_examples=LOADER_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_tree_loader(self, valid_files, data):
        work, files = valid_files
        path = work / "damaged"
        path.write_bytes(data.draw(damaged(files["tree"])))
        try:
            assert isinstance(TreeStorage.load(path), TreeStorage)
        except ProtocolError:
            pass
