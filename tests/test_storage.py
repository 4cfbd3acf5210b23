"""Tree file loading: the memory held while a tree loads, the host's share
of a tree with a cached top, and headers that claim more buckets than the
file holds; and the host-path table the host and the engine address a
path's buckets by."""

import random
import tracemalloc

import pytest

from obge.blocks import TreeParams
from obge.crypto import Cipher
from obge.exceptions import ProtocolError
from obge.oram import PathOram
from obge.storage import _HEADER, TREE_MAGIC, TREE_VERSION, StorageHost, TreeStorage


def traced_peak(fn):
    """(result, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_the_tree_once(tmp_path):
    tree = TreeStorage(tree_id=0, params=TreeParams(12, 5, 0))
    tree.buckets[::7] = b"\x5a" * len(tree.buckets[::7])
    path = tmp_path / "tree.bin"
    tree.save(path)
    loaded, peak = traced_peak(lambda: TreeStorage.load(path))
    assert loaded == tree
    assert peak < 1.5 * len(tree.buckets)


def test_depth_beyond_the_file_is_refused_before_allocating(tmp_path):
    # a depth-30 data tree would need about 800 GB of buckets
    path = tmp_path / "tree.bin"
    path.write_bytes(_HEADER.pack(TREE_MAGIC, TREE_VERSION, 0, 30, 0, 5, 0) + bytes(1000))
    claimed = TreeParams(30, 5, 0)
    claimed_bytes = claimed.node_count * claimed.bucket_width

    def load():
        with pytest.raises(ProtocolError) as exc:
            TreeStorage.load(path)
        return str(exc.value)

    msg, peak = traced_peak(load)
    assert f"declares {claimed_bytes} bytes" in msg and "holds 1000" in msg
    assert peak < 1 << 20


def test_a_cached_top_leaves_only_the_lower_levels_on_the_host(tmp_path):
    # depth 13 with 9 cached levels: 16,383 - 511 buckets of a count byte
    # and 5 20-byte data blocks in the file, and a path of 5 buckets
    params = TreeParams(13, 5, 2, cached=9)
    tree = TreeStorage(tree_id=0, params=params)
    assert len(tree.buckets) == (16_383 - 511) * 129
    assert params.path_width == 5 * 129 == 645
    path = tmp_path / "tree.bin"
    tree.save(path)
    assert path.stat().st_size == _HEADER.size + len(tree.buckets)
    assert TreeStorage.load(path) == tree
    blob = bytes(range(256)) * 8
    tree.write_path(3, blob[: params.path_width])
    assert tree.read_path(3) == blob[: params.path_width]
    assert tree.get_bucket(511) == blob[:129]  # level 9's node on the path to leaf 3


def test_more_cached_levels_than_the_depth_is_refused(tmp_path):
    path = tmp_path / "tree.bin"
    path.write_bytes(_HEADER.pack(TREE_MAGIC, TREE_VERSION, 0, 2, 3, 5, 0))
    with pytest.raises(ProtocolError, match="3 cached levels in a depth-2 tree"):
        TreeStorage.load(path)


# (depth, cached levels): k=0, k=2 where the depth allows it, and k=L
HOST_PATH_TREES = sorted({(d, k) for d in (0, 1, 5) for k in (0, min(2, d), d)})


def random_tree(depth, cached, rng):
    """A tree of that geometry whose host buckets hold random bytes."""
    params = TreeParams(depth, 2, 3, cached)
    return TreeStorage(0, params, bytearray(rng.randbytes(params.host_nodes * params.bucket_width)))


@pytest.mark.parametrize("depth,cached", HOST_PATH_TREES)
def test_host_path_table_names_the_path_nodes(depth, cached):
    p = TreeParams(depth, 2, 3, cached)
    assert len(p.host_path) == p.host_levels and p.host_path[0][0] == p.cache_nodes
    for leaf in range(p.leaves):
        assert [first + (leaf >> shift) for first, shift in p.host_path] == p.path_nodes(leaf)[cached:]


@pytest.mark.parametrize("depth,cached", HOST_PATH_TREES)
def test_paths_read_and_write_the_host_buckets_of_their_nodes(depth, cached):
    rng = random.Random(depth * 10 + cached)
    tree = random_tree(depth, cached, rng)
    p, w = tree.params, tree.params.bucket_width
    for leaf in range(p.leaves):
        nodes = p.path_nodes(leaf)[cached:]
        assert tree.read_path(leaf) == b"".join(tree.get_bucket(n) for n in nodes)
        data = rng.randbytes(p.path_width)
        tree.write_path(leaf, data)
        assert [tree.get_bucket(n) for n in nodes] == [data[i : i + w] for i in range(0, len(data), w)]
        assert tree.read_path(leaf) == data


@pytest.mark.parametrize("depth,cached", HOST_PATH_TREES)
def test_a_leaf_outside_the_tree_is_refused_by_host_and_engine(depth, cached):
    tree = random_tree(depth, cached, random.Random(1))
    p = tree.params
    engine = PathOram(0, p, Cipher(bytes(16)), b"")
    engine.store = StorageHost([tree])
    before = bytes(tree.buckets)
    for leaf in (-1, p.leaves, 2**40):
        with pytest.raises(IndexError, match=f"leaf {leaf} out of range"):
            tree.read_path(leaf)
        with pytest.raises(IndexError, match=f"leaf {leaf} out of range"):
            tree.write_path(leaf, bytes(p.path_width))
        with pytest.raises(IndexError, match=f"leaf {leaf} out of range"):
            engine.access(None, leaf)
    assert bytes(tree.buckets) == before and len(engine.store.trace) == 0
