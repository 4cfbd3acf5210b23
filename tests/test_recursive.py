import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from obge.blocks import TreeParams, bucket_ad, unpack_block
from obge.crypto import Cipher, Prf, keygen, pair_block, prf_eval
from obge.exceptions import ConfigError, IntegrityError
from obge.graph import PathOracle
from obge.oram import verify_placement
from obge.protocol import SchemeParams, setup
from obge.recursive import (
    MAX_CHI,
    MapLevel,
    MapShape,
    RecursivePM,
    entry_width,
    level_token,
    map_shape,
    pack_entries,
    payload_shape,
    read_entry,
    rpm_build,
)
from obge.server import deploy_inprocess
from obge.storage import StorageHost
from conftest import random_graph, top_entries


def build_rpm(leaves, data_leaves, budget, rng, Z=5):
    """The map of every address's data leaf, leaves[a] for address a, over a
    data tree of data_leaves leaves, attached to a host of its level trees."""
    keys = keygen()
    k2 = Cipher(keys.k2)
    shape = map_shape(len(leaves), budget, Z, data_leaves)
    rpm, trees = rpm_build(array("I", leaves), shape, k2, rng)
    host = StorageHost(trees)
    rpm.attach(host, rng)
    return rpm, host


def check_against_shadow(rpm, leaves, addresses):
    """Each access returns exactly the leaf a flat shadow map tracking the
    same remaps would."""
    shadow = list(leaves)
    for a in addresses:
        old, new = rpm.get_and_remap(a)
        assert old == shadow[a]
        shadow[a] = new


class TestBuild:
    def test_chain_shape_4096_1kb(self, rng):
        # 256 data leaves take 1-byte entries.  A 512-byte payload packs 512
        # of them, 8 blocks in a depth-1 tree; 416 bytes pack 416, 10
        # blocks in the same depth, the narrowest payload that keeps one
        # level of 2 buckets a path (408 bytes make 11 blocks, depth 2)
        rpm, _ = build_rpm([rng.randrange(256) for _ in range(4096)], 256, budget=1024, rng=rng)
        assert rpm.chain_depth == 1
        shape = map_shape(4096, 1024, 5, 256)
        assert rpm.shape == shape and shape.payload == 416
        assert [(lvl.blocks, lvl.params, lvl.width, lvl.per_block) for lvl in shape.levels] == [
            (10, rpm.levels[0].params, 1, 416)
        ]
        assert [lvl.params.depth for lvl in payload_shape(4096, 512, 1024, 5, 256).levels] == [1]
        assert [lvl.params.depth for lvl in payload_shape(4096, 408, 1024, 5, 256).levels] == [2]
        assert (shape.spans, shape.targets, shape.top_width) == ((1, 416), (256, 2), 10)
        assert len(top_entries(rpm)) == 10
        assert len(top_entries(rpm)) * 8 <= 1024
        # held as 10 one-byte cells, which resident memory counts at that width
        level = rpm.levels[0]
        assert len(rpm.top) == 10 * shape.top_entry_width == 10
        assert rpm.resident_bytes() == len(rpm.top) + level.held_count * level.params.block_width

    def test_benchmark_shapes(self):
        # enhanced, Z=5.  |V|=200 at 4 KiB: 8,192 data leaves take 2-byte
        # entries, 252 to a 504-byte block, so one level of 159 blocks at
        # depth 5, as 512 bytes give; |V|=500: 65,536 data leaves take
        # 2-byte entries too, 196 to a 392-byte block, then 1-byte leaves
        # of the 256-leaf level-0 tree, at the depths (8, 0) of 512 bytes.
        # The 24-vertex smoke graph, and the 30-vertex chain at 256 bytes,
        # keep one level, in a one-leaf tree
        known = [(200, 4096, 504, [(159, 5)]), (500, 4096, 392, [(1276, 8), (4, 0)]), (24, 4096, 120, [(5, 0)]),
                 (30, 256, 184, [(5, 0)])]
        for vertices, budget, payload, levels in known:
            params = SchemeParams(vertices, mode="enhanced", budget=budget)
            shape = params.map_shape
            assert shape.payload == payload and params.chi == payload // 8
            assert [(lvl.blocks, lvl.params.depth) for lvl in shape.levels] == levels
            assert shape.top_width == levels[-1][0]
            widest = payload_shape(params.address_space, min(8 * MAX_CHI, budget), budget, 5, params.data_params.leaves)
            assert [lvl.params.depth for lvl in widest.levels] == [depth for _, depth in levels]
            assert shape.host_bytes <= widest.host_bytes

    def test_flat_when_budget_covers_map(self, rng):
        # a flat map's payloads all tie; it keeps the widest
        rpm, _ = build_rpm([rng.randrange(64) for _ in range(256)], 64, budget=256 * 8, rng=rng)
        assert rpm.chain_depth == 0 and rpm.shape.payload == 8 * MAX_CHI

    def test_chi_one_rejected(self, rng):
        # a budget of 8 to 15 bytes would hold an 8-byte (chi 1) payload
        # alone, which the rule never picks
        for budget in range(8, 16):
            with pytest.raises(ConfigError, match="smallest map block payload \\(16 bytes\\)"):
                build_rpm([0] * 64, 8, budget=budget, rng=rng)

    def test_budget_below_one_packed_block_rejected(self, rng):
        # where a level is needed, a budget below the 16-byte payload is
        # refused, naming it; 16 bytes are enough, and a map that stays
        # flat needs no block at all
        with pytest.raises(ConfigError, match="budget of 15 bytes is smaller than the smallest map block payload"):
            build_rpm([1] * 4096, 8, budget=15, rng=rng)
        assert build_rpm([1] * 4096, 8, budget=16, rng=rng)[0].shape.payload == 16
        assert build_rpm([1], 8, budget=8, rng=rng)[0].chain_depth == 0

    def test_deep_chain_still_correct(self, rng):
        # a 16-byte budget forces 16-byte payloads: 32 then 2 blocks
        leaves = [rng.randrange(32) for _ in range(512)]
        rpm, _ = build_rpm(leaves, 32, budget=16, rng=rng)
        assert rpm.chain_depth == 2
        check_against_shadow(rpm, leaves, [rng.randrange(512) for _ in range(400)])


class TestAccess:
    def test_remap_bookkeeping(self, rng):
        leaves = [0] * 64
        leaves[7] = 3
        rpm, _ = build_rpm(leaves, 16, budget=64, rng=rng)
        old1, new1 = rpm.get_and_remap(7)
        assert old1 == 3
        old2, new2 = rpm.get_and_remap(7)
        assert old2 == new1

    def test_loaded_top_must_have_the_shapes_width(self, rng):
        # the loader reads the shape's width; a caller handing a top of any
        # other width is refused before the map exists
        rpm, _ = build_rpm([5] * 64, 16, budget=64, rng=rng)
        cells = bytes(rpm.top)
        w, n = rpm.shape.top_entry_width, rpm.shape.top_width
        assert len(cells) == n * w
        assert RecursivePM.load(rpm.shape, rpm.levels, cells).top == rpm.top
        for bad in (cells[:-1], cells[:-w], cells + cells[:w]):
            with pytest.raises(IntegrityError, match=f"top of {len(bad)} bytes, the map's shape has {n} entries of {w} bytes"):
                RecursivePM.load(rpm.shape, rpm.levels, bad)

    def test_out_of_range(self, rng):
        rpm, _ = build_rpm([0] * 16, 8, budget=8 * 8, rng=rng)
        with pytest.raises(IndexError):
            rpm.get_and_remap(16)


def test_entry_width_is_the_fewest_bytes_that_hold_every_leaf():
    # a 2^depth-leaf tree's leaves need depth bits, in whole bytes as a
    # block's leaf field takes them, and at least one byte
    for depth in range(25):
        leaves = 1 << depth
        w = entry_width(leaves)
        assert leaves - 1 < 1 << 8 * w
        assert w == 1 or leaves - 1 >= 1 << 8 * (w - 1)
        assert w == max(1, TreeParams(depth, 5, 2).leaf_width)
    assert [entry_width(1 << d) for d in (0, 7, 8, 9, 16, 17, 24)] == [1, 1, 1, 2, 2, 3, 3]
    assert [entry_width(n) for n in (255, 256, 257, 65536, 65537)] == [1, 1, 2, 2, 3]


@pytest.mark.parametrize("w", [1, 2, 3, 8])
def test_pack_entries_matches_per_entry_encoding(rng, w):
    # the byte-column pass against one int.to_bytes per entry: entries
    # keep their low w bytes, from an array of 8-byte entries and of the
    # 4-byte leaves oram_init draws, and the cells past them are zero
    entries = [rng.randrange(1 << 8 * w) for _ in range(37)] + [(1 << 8 * w) - 1, 0]
    want = b"".join(e.to_bytes(w, "big") for e in entries) + bytes(6 * w)
    assert pack_entries(array("Q", entries), w, 45) == want
    if w <= 4:
        assert pack_entries(array("I", entries), w, 45) == want


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "chain"])
@pytest.mark.parametrize("depth", [0, 1, 7, 8, 15, 16, 24])
def test_loaded_top_cells_follow_the_per_entry_rule(rng, flat, depth):
    # the high-byte check against one int per cell: a cell loads if it is
    # a leaf of the top's tree, and reads back as that leaf; any other
    # cell is named
    leaves = 1 << depth
    w = entry_width(leaves)
    good = [rng.randrange(leaves) for _ in range(37)] + [0, leaves - 1]
    rng.shuffle(good)
    level = MapLevel(TreeParams(depth, 5, 64), 1, w, 64 // w)
    shape = MapShape(
        len(good), 64, () if flat else (level,), (1,) if flat else (1, 1), (leaves,) if flat else (1, leaves), len(good)
    )
    assert shape.top_entry_width == w
    cells = b"".join(v.to_bytes(w, "big") for v in good)
    rpm = RecursivePM.load(shape, [], cells)
    assert top_entries(rpm) == good
    assert rpm.top == cells
    bad = {leaves, leaves + 1, (1 << 8 * w) - 1, 0xFF << 8 * (w - 1)}
    for value in sorted(v for v in bad if leaves <= v < 1 << 8 * w):
        at = rng.randrange(len(good))
        damaged = cells[: at * w] + value.to_bytes(w, "big") + cells[(at + 1) * w :]
        with pytest.raises(IntegrityError, match=f"top entry {at} is leaf {value}, but its tree has {leaves} leaves"):
            RecursivePM.load(shape, [], damaged)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=st.integers(1, 60))
def test_shadow_map_equivalence(seed, ops):
    """Any access sequence matches the shadow map.  Data leaf counts on either side of the
    8- and 16-bit boundaries give level 0 entries of 1, 2 or 3 bytes, and
    the level trees above it 1- or 2-byte ones, so per-block counts differ
    level by level; budgets from 16 bytes up give payloads from 16 to 400
    bytes and chains of one to four levels."""
    rng = random.Random(seed)
    space = rng.choice([64, 128, 300, 2000, 7000])
    data_leaves = rng.choice([32, 256, 257, 65536, 65537])
    leaves = [rng.randrange(data_leaves) for _ in range(space)]
    budget = max(16, space * 8 // rng.choice([4, 8, 16, 64, 512, 4096]))
    rpm, _ = build_rpm(leaves, data_leaves, budget=budget, rng=rng)
    check_against_shadow(rpm, leaves, [rng.randrange(space) for _ in range(ops)])


@settings(deadline=None)
@given(vertices=st.integers(2, 600), budget=st.integers(16, 1 << 20), bucket_size=st.integers(1, 8))
def test_shape_rule_keeps_the_widest_payloads_levels_and_buckets(vertices, budget, bucket_size):
    """The chosen shape has no more levels, host buckets or host bytes per
    map round than the widest payload the budget admits, and no narrower
    payload has its levels and buckets: those rise as the payload narrows,
    so the rule's key picks the narrowest payload that keeps the widest
    one's.  A flat map keeps the widest payload."""
    params = SchemeParams(vertices, bucket_size, "enhanced", budget)
    shape = params.map_shape
    space, leaves = params.address_space, params.data_params.leaves
    widest = payload_shape(space, 8 * min(MAX_CHI, budget // 8), budget, bucket_size, leaves)
    assert len(shape.levels) <= len(widest.levels)
    assert shape.host_buckets <= widest.host_buckets
    assert shape.host_bytes <= widest.host_bytes
    if not shape.levels:
        assert shape == widest
        return
    key = (len(shape.levels), shape.host_buckets)
    for payload in range(16, shape.payload, 8):
        narrower = payload_shape(space, payload, budget, bucket_size, leaves)
        assert (len(narrower.levels), narrower.host_buckets) > key


def test_mixed_width_chain(rng):
    # a 16-byte budget forces 16-byte payloads.  3-byte data leaves, 5 to
    # a block: 1,400 blocks in a 512-leaf tree; its 2-byte leaves, 8 to a
    # block: 175 blocks in a 64-leaf tree; its 1-byte leaves, 16 to a
    # block: 11 blocks in a 4-leaf tree, and those 11 entries in one block
    # under a one-entry top
    space, data_leaves = 7000, 1 << 17
    leaves = [rng.randrange(data_leaves) for _ in range(space)]
    rpm, _ = build_rpm(leaves, data_leaves, budget=16, rng=rng)
    shape = rpm.shape
    assert [(lvl.width, lvl.per_block) for lvl in shape.levels] == [(3, 5), (2, 8), (1, 16), (1, 16)]
    assert shape.spans == (1, 5, 40, 640, 10240) and shape.targets == (data_leaves, 512, 64, 4, 1)
    assert [lvl.params.leaves for lvl in rpm.levels] == [512, 64, 4, 1]
    assert len(top_entries(rpm)) == 1
    check_against_shadow(rpm, leaves, [rng.randrange(space) for _ in range(300)])


def test_padded_last_block_remaps_its_entries(rng):
    # 300 addresses of 2-byte entries, 8 to a 16-byte payload (which a
    # 16-byte budget forces): the last of 38 blocks holds addresses
    # 296..299 and four zero pad entries, which no address reads.  Its
    # addresses remap around them, the largest leaf and leaf 0 included
    leaves = [rng.randrange(512) for _ in range(300)]
    leaves[297], leaves[299] = 511, 0
    rpm, _ = build_rpm(leaves, 512, budget=16, rng=rng)
    level = rpm.shape.levels[0]
    assert (level.width, level.per_block, level.params.payload_width, level.blocks) == (2, 8, 16, 38)
    check_against_shadow(rpm, leaves, list(range(296, 300)) * 4)
    with pytest.raises(IndexError):
        rpm.get_and_remap(300)


def test_budget_compliance_under_load(rng):
    space = 4096
    # 1-byte entries, 416 to a block: 10 blocks, so a 10-byte top that
    # leaves the stash the rest of the budget
    budget = space * 8 // 32
    rpm, _ = build_rpm([rng.randrange(128) for _ in range(space)], 128, budget=budget, rng=rng)
    assert rpm.chain_depth >= 1
    slack = max(lvl.params.block_width for lvl in rpm.levels)
    for _ in range(500):
        rpm.get_and_remap(rng.randrange(space))
        assert rpm.resident_bytes() <= budget + slack

def test_per_level_uniform_leaves(rng):
    space = 1024
    # a 16-byte budget forces 16-byte payloads: 1-byte entries, 16 to a
    # block, 64 blocks in a 16-leaf tree, then 4 and 1 in one-leaf trees
    rpm, host = build_rpm([rng.randrange(64) for _ in range(space)], 64, budget=16, rng=rng)
    assert [lvl.params.leaves for lvl in rpm.levels] == [16, 1, 1]
    for _ in range(3000):
        rpm.get_and_remap(rng.randrange(space))
    for lvl in rpm.levels:
        if lvl.params.leaves < 2:
            continue
        leaves = [
            r.leaf
            for r in host.trace.records
            if r.msg_type == "ReadPath" and r.tree_id == lvl.tree_id
        ]
        counts = [0] * lvl.params.leaves
        for leaf in leaves:
            counts[leaf] += 1
        assert stats.chisquare(counts).pvalue >= 0.01


def stored_payloads(tree, engine) -> dict[bytes, bytes]:
    """Token -> payload of every block of a tree, held or on the host."""
    p = tree.params
    raw = engine.held_blocks()
    for node in range(p.cache_nodes, p.node_count):
        plain = engine.cipher.decrypt(tree.get_bucket(node), bucket_ad(tree.tree_id, node))
        raw += [plain[at : at + p.block_width] for at in range(1, 1 + plain[0] * p.block_width, p.block_width)]
    return {blk.tk: blk.payload for blk in (unpack_block(b, p) for b in raw)}


def check_placement(state, trees) -> None:
    """verify_placement on every tree of a party's state, each block mapped
    to the leaf its map entry names: each level's blocks by the entries of
    the top or of the level above, and the data blocks, one an address, by
    level 0's entries (the top's, in a flat map)."""
    positions = state.positions
    entries = top_entries(positions)
    for j in reversed(range(positions.chain_depth)):
        level, engine, tree = positions.shape.levels[j], positions.levels[j], trees[j + 1]
        tokens = [level_token(j, b) for b in range(level.blocks)]
        verify_placement(tree, engine, dict(zip(tokens, entries)))
        payloads = stored_payloads(tree, engine)
        cells = b"".join(payloads[tk][: level.per_block * level.width] for tk in tokens)
        entries = [read_entry(cells, at, level.width) for at in range(0, len(cells), level.width)]
    n = state.params.vertex_count
    tokens = prf_eval(Prf(state.keys.kprf), b"".join(pair_block(a // n, a % n) for a in range(n * n)))
    verify_placement(trees[0], state.oram, {tokens[16 * a : 16 * (a + 1)]: entries[a] for a in range(n * n)})


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vertices=st.integers(2, 40),
    density=st.sampled_from([0.0, 0.05, 0.15, 0.4]),
    bucket_size=st.integers(1, 6),
    deployment=st.just(("trivial", None)) | st.tuples(st.just("enhanced"), st.none() | st.integers(16, 1 << 14)),
)
def test_answers_and_placement_at_every_width(seed, vertices, density, bucket_size, deployment):
    """End to end over the widths the tree and map rules pick: data trees of
    one leaf to depth 11, depth 8 among them, whose 256 leaves still take
    1-byte entries, and level trees of one leaf.  Every sampled pair is
    answered as PathOracle answers it, and afterwards every tree holds each
    block on the path to the leaf its map entry names."""
    mode, budget = deployment
    rng = random.Random(seed)
    g = random_graph(rng, vertices, density)
    result = setup(g, mode=mode, bucket_size=bucket_size, budget=budget, rng=rng)
    host, server, client = deploy_inprocess(result, rng=rng)
    oracle = PathOracle(g)
    for _ in range(6):
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        assert client.query_path(u, v) == oracle.path(u, v), (u, v)
    check_placement(result.client if mode == "trivial" else server.controller.state, host.trees)
