import io
import os
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import settings

from obge import wire
from obge.blocks import HEAD_WIDTH, HOP, TreeParams, tree_depth_for, write_heads
from obge.crypto import Cipher, Prf, pair_block, prf_eval
from obge.graph import Graph
from obge.oram import oram_init
from obge.protocol import SchemeParams, TrivialClient, TrivialState
from obge.recursive import map_shape, read_entry, rpm_build
from obge.server import ServerConfig
from obge.storage import StorageHost

# Hypothesis budgets over the profile Hypothesis loaded itself (its "ci" one
# where it detects a CI environment): a property test that sets no
# max_examples runs 25 examples in a plain pytest run and 1,000 with
# HYPOTHESIS_PROFILE=thorough
_loaded = settings()
settings.register_profile("quick", _loaded, max_examples=25)
settings.register_profile("thorough", _loaded, max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "quick"))


def read_one_frame(frame: bytes) -> tuple[int, bytes]:
    """(message type, payload) of exactly one frame, read as the daemon and
    TcpConnection read their streams."""
    stream = io.BytesIO(frame)
    got = wire.read_frame(stream)
    assert got is not None and stream.read() == b"", "not exactly one frame"
    return got


def decode_frame(frame: bytes) -> wire.Message:
    """The message one frame carries, parsed as the daemon and TcpConnection
    parse it: read_frame, then decode_payload."""
    return wire.decode_payload(*read_one_frame(frame))


def serve_config(directory) -> ServerConfig:
    """What ``obge serve DIR`` serves, on a free port: the files in
    directory, flushed back into it with the trace in trace.csv."""
    return ServerConfig(tree_path=str(directory), listen_addr="127.0.0.1:0", trace_path=str(Path(directory) / "trace.csv"))


def random_graph(rng: random.Random, n: int, p: float, weighted: bool = False, directed: bool = True) -> Graph:
    g = Graph(n, directed=directed)
    for u in range(n):
        for v in range(u + 1 if not directed else 0, n):
            if u == v:
                continue
            if rng.random() < p:
                w = rng.randint(1, 9) if weighted else 1
                g.add_edge(u, v, w)
    return g


def chain_graph(n: int) -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1; query (0, k) has length k."""
    g = Graph(n, directed=True)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def chain_blocks(keys, chains, length):
    """The block heads of every ordered pair of n = length + chains
    vertices, built without a graph: chains 0 -> 1 -> ... -> length-1 -> d,
    one per destination d in [length, n).

    Pair (u, d), u < length, has hop u+1, and the last one d itself; every
    other pair holds its source, no hop.  So query (u, d) makes length - u
    rounds along the chain and then one on (d, d).  Returns n and the n^2
    heads in address order, packed end to end as build_blocks packs them
    (each starts with its 16-byte token).
    """
    n = length + chains
    hops = array("H")
    for u in range(n):
        hops += array("H", [u]) * n
    for d in range(length, n):
        for u in range(length):
            hops[u * n + d] = u + 1 if u + 1 < length else d
    prf = Prf(keys.kprf)
    heads = bytearray(n * n * HEAD_WIDTH)
    for u in range(n):
        pairs = b"".join(pair_block(u, v) for v in range(n))
        write_heads(heads, u * n, prf_eval(prf, pairs), hops[u * n : (u + 1) * n])
    return n, heads


def split_heads(heads) -> list[bytes]:
    """Packed data-block heads, one bytes object each."""
    return [bytes(heads[at : at + HEAD_WIDTH]) for at in range(0, len(heads), HEAD_WIDTH)]


def top_entries(positions) -> list[int]:
    """The position map's top entries, each read from its cell as the map
    reads it."""
    w = positions.shape.top_entry_width
    return [read_entry(positions.top, at, w) for at in range(0, len(positions.top), w)]


def data_tree(count, Z=5, cached=0):
    """Geometry of a data tree sized for count real blocks, by the depth rule
    setup uses, with the top `cached` levels in the engine and a hop a
    block."""
    return TreeParams(tree_depth_for(count, Z), Z, HOP.size, cached)


def chain_engine(keys, chains, length, rng, Z=5, cached=0):
    """The trivial client's query engine over chain_blocks, driven by a flat
    position map, with the data tree's top `cached` levels in the engine and
    the rest in its own storage host.  The tree's geometry is its own, not
    the one setup would derive for the scheme parameters, so any `cached`
    can be chosen.  Returns (engine, host, tree, packed heads)."""
    n, heads = chain_blocks(keys, chains, length)
    return trivial_engine(keys, n, heads, rng, Z, cached)


def trivial_engine(keys, n, heads, rng, Z=5, cached=0):
    """chain_engine's engine over the packed block heads of every ordered
    pair of an n-vertex graph, in address order, such as build_blocks
    makes."""
    k2 = Cipher(keys.k2)
    tp = data_tree(n * n, Z, cached)
    oram, tree, leaves = oram_init(heads, tp, k2, rng)
    host = StorageHost([tree])
    params = SchemeParams(vertex_count=n, bucket_size=Z)
    # the trivial client's budget is the whole dense map, so it stays flat
    shape = map_shape(params.address_space, params.map_budget, Z, tp.leaves)
    positions, _ = rpm_build(leaves, shape, k2, rng)
    state = TrivialState(keys, params, positions, oram)
    return TrivialClient(state, host, rng).engine, host, tree, heads


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def four_vertex_directed():
    """0->1, 1->2, 2->3, 0->2: the worked instance used across examples."""
    g = Graph(4, directed=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (0, 2)]:
        g.add_edge(u, v)
    return g


@pytest.fixture
def four_vertex_undirected():
    g = Graph(4, directed=False)
    for u, v in [(0, 1), (1, 2), (2, 3), (0, 2)]:
        g.add_edge(u, v)
    return g
