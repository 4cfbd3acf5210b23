"""The graph encryption scheme: setup, query, reveal, and both deployments.

Setup turns the next-hop table into fixed-width blocks keyed by PRF
tokens, one block and token for every ordered pair (u, v), |V|^2 of them
in address order u*|V|+v, loads them into a Path ORAM tree, and maps each
address to its block's leaf.  The block of (u, v) holds the next hop w as
a 2-byte vertex id and nothing else: the engine knows the destination v,
so it forms the hop's address w*|V|+v itself.  A pair with no hop (u = v,
or no path) holds u itself, which no hop equals, because a graph has no
self-loops.  So the trees hold the same blocks however many pairs are
connected, and reveal |V| and Z alone.  Vertex ids are 2 bytes, so |V| is
at most MAX_VERTICES = 2^16.  A query chases the chain of hops, deriving
each hop's token from the pair (w, v), with one oblivious access per hop,
and stops at the block whose hop is its own source: (v, v) at the end of a
path, or (u, v) itself when u = v or there is no path.  So the storage side
observes only the round count, ``rounds(|p|)`` (``audit.simulate`` builds
its records from it).  Its answer is the hops' vertex ids, which the
engine reads from its blocks; the address w*|V|+v never leaves the engine
and its map.  reveal prepends the source and checks the last hop.

Setup keeps no Python object per entry: the next-hop table is one dense
array (``graph``), read one source row at a time; ``build_blocks``
derives a row's tokens in one AES call (``crypto.Prf``) and writes its
18-byte block heads column by column into one buffer, head i for address
i; and ``rpm_build`` takes the leaves ``oram_init`` drew, already in
address order, as the map's entries.  The one loop that runs Python
statements per block is ``oram_init``'s placement, which writes each
block straight into the tree's bucket buffer (``oram``).

The paper also encrypts each hop (w,v) under a third key, k1, as the
block's payload, for the client to decrypt.  That ciphertext protected
nothing: it sits inside the k2-encrypted bucket next to the hop in the
clear, and the party that decrypts buckets (the trivial client, or the
controller) reads the hop anyway.  Without it, and with the hop as a
vertex id and the leaf at the tree's width, a data block is 20 bytes at
|V| = 200 or 500 (``blocks``), and the host's view keeps its shape: the
same rounds, one path width per tree and fresh uniform leaves.

Both deployments run the one QueryEngine: the data tree's Path ORAM, a
RecursivePM position map, the PRF key and the vertex range check.  They
differ only in where the engine runs:

* trivial  -- the client hosts it and drives every access over its store
  connection; the position map is flat, and the client also keeps the top
  levels of the data tree (the tree-top cache) as blocks its engine holds
  (see ``oram``): every level but the leaves, k = L, which the host
  stores, so each round moves one bucket each way.  k follows from the
  tree's depth alone, which the host already knows, so the tree header's
  k tells it nothing more.
* enhanced -- a controller behind the server's trust boundary (the TEE
  stand-in) hosts it; the client exchanges a single encrypted
  request/response pair per query over an emulated secure channel: the
  response is the hops' vertex ids, 2 bytes each, encrypted with its
  request as associated data, so no earlier response passes for it.  The
  position map is flat or a recursive ORAM chain, whichever fits the
  configured memory budget; the controller keeps no tree-top cache, so
  the host holds every level and the engine holds only a stash.

The party that hosts the engine holds its ORAM engines in its state: the
data tree's PathOram, which owns the blocks it holds, and the map with its
level engines.  Each is built once, by setup with its tree or
by load_state from the file; a QueryEngine over the state only attaches a
store to the engines and a leaf sampler to the map, so saving the state
writes what the last query left.

Each party keeps its state in one file, written by save_state and read by
load_state: the magic "OS", the format version, a party byte (trivial
client, enhanced client, controller) that also fixes the deployment mode,
and the 13-byte parameter block (|V|, Z, budget, 0 for none), followed by
the party's 16-byte keys (``crypto.KEY_BYTES``), each the one the party
uses:

* trivial client: k2 kprf, then the engine state (keys.bin, rewritten
  after every query because accesses remap blocks);
* enhanced client: the session key alone (keys.bin, 33 bytes);
* controller: k2 kprf and the session key, then the engine state
  (controller.bin, next to the trees).

The engine state -- the map's top, the data tree's held blocks and each
position-map level's stash -- has one codec and stores no shape:
load_state validates the parameter block and derives the data tree's
depth and cached levels (``SchemeParams.data_params``) and the map's shape
(``SchemeParams.map_shape``, level payload included) from it, as setup
does.  The top is stored as the map keeps it: big-endian cells as wide as
the tree its entries point into needs (``recursive.entry_width``): one
byte each for a data tree of up to 256 leaves, two up to 65,536.  It
comes first, so a file whose |V| was raised runs out of bytes before an
engine is sized from that |V|.  Held blocks and a stash are
stored alike: a block count and the packed blocks, group by group, which
the engine is built from as they stand.  The engines check what they are built with:
``PathOram`` its held blocks and ``RecursivePM.load`` the top; load_state
reports what they refuse as ProtocolError naming the file.  Files are
replaced atomically and readable by their owner only; a file of an older
version, of a party the caller did not ask for, or with a parameter block
setup would refuse raises ProtocolError.
"""

from __future__ import annotations

import os
import random
import secrets
import struct
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .blocks import HEAD_WIDTH, HOP, TreeParams, tree_depth_for, write_heads
from .crypto import (
    KEY_BYTES,
    PAIR_BLOCK,
    Cipher,
    KeySet,
    Prf,
    ciphertext_width,
    decode_pair,
    encode_pair,
    keygen,
    pair_block,
    prf_eval,
)
from .exceptions import CapacityError, ConfigError, IntegrityError, ProtocolError, StashOverflowError
from .graph import Graph, compute_spdx
from .oram import PathOram, oram_init
from .recursive import TOP_ENTRY_BYTES, MapShape, RecursivePM, map_shape, rpm_build
from .storage import TreeStorage, write_atomic

DATA_TREE_ID = 0

MODE_TRIVIAL = "trivial"
MODE_ENHANCED = "enhanced"

# blocks and the enhanced response carry vertex ids in 2 bytes
MAX_VERTICES = 1 << 16

@dataclass
class SchemeParams:
    vertex_count: int
    bucket_size: int = 5
    mode: str = MODE_TRIVIAL
    budget: int | None = None

    def validate(self) -> None:
        if self.mode not in (MODE_TRIVIAL, MODE_ENHANCED):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.vertex_count > MAX_VERTICES:
            raise ConfigError(
                f"{self.vertex_count} vertices exceed {MAX_VERTICES}: blocks store vertex ids in 2 bytes"
            )
        # tree headers and state files store Z in one byte
        if not 1 <= self.bucket_size <= 255:
            raise ConfigError(f"bucket size must be in [1, 255], got {self.bucket_size}")
        # state files store the budget in 64 bits, where 0 stands for none
        if self.budget is not None and not 1 <= self.budget < 1 << 64:
            raise ConfigError(f"budget must be in [1, 2^64) bytes, got {self.budget}")
        if self.budget is not None and self.mode == MODE_TRIVIAL:
            raise ConfigError("a budget applies to enhanced mode only; the trivial client keeps the whole map")

    @property
    def address_space(self) -> int:
        return self.vertex_count * self.vertex_count

    @property
    def data_depth(self) -> int:
        """The data tree's depth: room for a block per ordered pair, |V|^2,
        as setup stores them, so the tree reveals |V| and Z alone."""
        return tree_depth_for(self.address_space, self.bucket_size)

    # a controller is held to its budget, which its map and stashes take;
    # with none, and in the trivial client, the whole map counted at its
    # dense width
    @property
    def map_budget(self) -> int:
        return self.budget if self.budget is not None else self.address_space * TOP_ENTRY_BYTES

    @property
    def data_params(self) -> TreeParams:
        """The data tree's geometry: each block's payload is its hop.  The
        trivial client caches every level but the leaves, k = L, so the
        host stores one bucket of each path; a controller caches none.  A
        state file's k is derived from its depth by this rule, so another
        rule needs another STATE_VERSION."""
        depth = self.data_depth
        return TreeParams(depth, self.bucket_size, HOP.size, depth if self.mode == MODE_TRIVIAL else 0)

    @property
    def map_shape(self) -> MapShape:
        """The position map's geometry, pointing into the data tree, with
        the level payload the shape rule picks; ConfigError if the budget
        needs a level but holds no level payload."""
        return map_shape(self.address_space, self.map_budget, self.bucket_size, self.data_params.leaves)

    @property
    def chi(self) -> int:
        """The map's level payload in 8-byte words, as the shape rule picks it."""
        return self.map_shape.payload // 8


@dataclass
class TrivialState:
    """Everything the client keeps in the trivial deployment: the keys, the
    flat position map and the data tree's engine with its held blocks."""

    keys: KeySet
    params: SchemeParams
    positions: RecursivePM
    oram: PathOram


@dataclass
class EnhancedState:
    """Client-side remainder in the controller deployment: the session key
    alone, the one key the client uses."""

    params: SchemeParams
    session_key: bytes


@dataclass
class ControllerState:
    """Controller-resident secrets and ORAM engines: the scheme's keys, as
    the trivial client holds them, and the session key."""

    keys: KeySet
    session_key: bytes
    params: SchemeParams
    positions: RecursivePM
    oram: PathOram


@dataclass
class SetupResult:
    trees: list[TreeStorage]
    params: SchemeParams
    keys: KeySet
    client: TrivialState | EnhancedState
    controller: ControllerState | None
    spdx_size: int


def build_blocks(g: Graph, keys: KeySet) -> tuple[bytearray, int]:
    """Tokenize the next-hop table into block heads, one per address, in
    address order, walking the table one source row at a time.

    The pair (u, v) becomes a block whose identity is P(u,v) and whose
    payload is its table cell: the hop w, or u where it has none.  A row's
    tokens come from one PRF call over its |V| packed pair blocks, and its
    heads are written column by column, so no Python statement runs per
    pair and what a row allocates is freed before the next.  Returns the
    heads packed end to end, 18 bytes each, head i for address i, and the
    next-hop entry count.
    """
    n = g.vertex_count
    spdx = compute_spdx(g)
    table, prf = spdx.table, Prf(keys.kprf)
    heads = bytearray(n * n * HEAD_WIDTH)
    for u in range(n):
        tokens = prf_eval(prf, b"".join(map(PAIR_BLOCK.pack, repeat(u, n), range(n))))
        write_heads(heads, u * n, tokens, table[u * n : (u + 1) * n])
    return heads, len(spdx)


def setup(
    g: Graph,
    mode: str = MODE_TRIVIAL,
    bucket_size: int = 5,
    budget: int | None = None,
    rng: random.Random | None = None,
) -> SetupResult:
    """Encrypt a graph for shortest-path querying.

    Returns the server-side trees plus the party states for the chosen
    deployment; nothing in the trees links tokens to positions.  Leaves
    are drawn from ``rng``, by default the OS.  A seeded ``rng`` makes
    every initial leaf predictable from the seed, so only tests and
    benchmarks pass one.
    """
    params = SchemeParams(g.vertex_count, bucket_size=bucket_size, mode=mode, budget=budget)
    params.validate()
    shape = params.map_shape  # refuses a budget that holds no level payload before any work
    rng = rng if rng is not None else secrets.SystemRandom()
    keys = keygen()
    k2 = Cipher(keys.k2)

    heads, entries = build_blocks(g, keys)
    oram, tree, leaves = oram_init(heads, params.data_params, k2, rng, DATA_TREE_ID)
    rpm, pm_trees = rpm_build(leaves, shape, k2, rng)
    trees = [tree] + pm_trees
    if mode == MODE_TRIVIAL:
        client = TrivialState(keys=keys, params=params, positions=rpm, oram=oram)
        return SetupResult(trees, params, keys, client, None, entries)

    session_key = os.urandom(KEY_BYTES)
    controller = ControllerState(keys=keys, session_key=session_key, params=params, positions=rpm, oram=oram)
    client = EnhancedState(params=params, session_key=session_key)
    return SetupResult(trees, params, keys, client, controller, entries)


def rounds(path_len: int) -> int:
    """Data-tree rounds of a query whose path has path_len edges: one
    access per hop, then one on the block (v, v), whose hop is v itself.  A
    pair u = v and a pair with no path both count as path_len 0, one round
    on the pair's own block.  This count is what the host learns of a
    query: ``audit.simulate`` builds the host's records from it, and the
    attack lab and the tests read it here."""
    return path_len + 1


def reveal(resp: list[int], source: int, dest: int, vertex_count: int) -> list[int] | None:
    """The vertex list of a query's answer, its hops' vertex ids.

    An empty response means the empty path when source == dest and "no
    path" (None) otherwise.  A hop that is not a vertex of the graph, or a
    last hop other than dest, raises IntegrityError.
    """
    if not resp:
        return [] if source == dest else None
    if max(resp) >= vertex_count:
        raise IntegrityError(f"hop {max(resp)} is not a vertex of the graph's {vertex_count}")
    if resp[-1] != dest:
        raise IntegrityError("response does not terminate at the queried destination")
    return [source, *resp]


# an enhanced response's plaintext: the hop count, then each hop as HOP
_HOP_COUNT = struct.Struct(">H")

# associated data of the session's ciphertexts, one label a direction; a
# response's also holds its request ciphertext, so neither an earlier
# response nor the request echoed back passes for it
REQUEST_LABEL = b"obge request"
RESPONSE_LABEL = b"obge response"

# bytes of an enhanced request as the host sees it: the session encryption
# of the pair's 8-byte encoding, ``encode_pair(u, v)``
REQUEST_WIDTH = ciphertext_width(8)


def response_width(hops: int) -> int:
    """Bytes of an enhanced response of that many hops, as the host sees
    it: the session encryption of a 2-byte count and 2 bytes a hop."""
    return ciphertext_width(_HOP_COUNT.size + HOP.size * hops)


class QueryEngine:
    """The Query loop both deployments run.

    Runs the state's data tree engine and position map with the token
    PRF, one AES context under the state's kprf that the engine builds and
    keeps.  Building it attaches store to the data engine and to every
    level engine of the map, and rng to the map, so every path read and
    write goes through store and every fresh leaf comes from rng.  A
    query flushes the store before it returns or raises, so no write of it
    is left held back.
    """

    def __init__(self, state: TrivialState | ControllerState, store, rng: random.Random | None = None):
        rng = rng if rng is not None else secrets.SystemRandom()
        self.params = state.params
        self.prf = Prf(state.keys.kprf)
        self.oram = state.oram
        self.positions = state.positions
        self.store = store
        self.oram.store = store
        self.positions.attach(store, rng)

    def query(self, u: int, v: int) -> list[int]:
        """Chase the chain from (u, v), one access per block, until a
        block's hop is its own source; returns the hops' vertex ids.  The
        block of (w, v) holds the hop after w, or w itself where there is
        none; the engine forms the pair's address w*|V|+v for the map
        alone, and derives its token from the pair.  An out-of-range pair
        raises IndexError before any storage access."""
        n = self.params.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"vertex pair ({u},{v}) out of range [0, {n})")
        resp: list[int] = []
        w = u
        try:
            while True:
                addr = w * n + v
                old_leaf, new_leaf = self.positions.get_and_remap(addr)
                tk = prf_eval(self.prf, pair_block(w, v))
                try:
                    blk = self.oram.access(tk, old_leaf, new_leaf)
                except StashOverflowError:
                    raise  # raised once the held blocks carry the fresh leaf
                except BaseException:
                    # the block is still on its old path
                    self.positions.restore(addr, old_leaf)
                    raise
                (hop,) = HOP.unpack(blk.payload)
                if hop == w:
                    return resp
                resp.append(hop)
                w = hop
        finally:
            self.store.flush()


class TrivialClient:
    """Trivial deployment: the client hosts the query engine over its store."""

    def __init__(self, state: TrivialState, store, rng: random.Random | None = None):
        self.state = state
        self.engine = QueryEngine(state, store, rng)

    def query(self, u: int, v: int) -> list[int]:
        return self.engine.query(u, v)

    def query_path(self, u: int, v: int) -> list[int] | None:
        return reveal(self.query(u, v), u, v, self.state.params.vertex_count)


class EnclaveController:
    """The TEE stand-in: hosts the query engine next to the storage and
    talks to the client only through an authenticated session channel."""

    def __init__(self, state: ControllerState, store, rng: random.Random | None = None):
        self.state = state
        self.session = Cipher(state.session_key)
        self.engine = QueryEngine(state, store, rng)

    def handle_request(self, ct: bytes) -> bytes:
        """Decrypt one (u, v) request, run the query loop, and return the
        session encryption of the hop count and vertex ids,
        ``response_width`` bytes, bound to the request.  Bad frames are
        rejected before any storage access."""
        raw = self.session.decrypt(ct, REQUEST_LABEL)
        if len(raw) != 8:
            raise ProtocolError("malformed query request")
        resp = self.engine.query(*decode_pair(raw))
        body = _HOP_COUNT.pack(len(resp)) + b"".join(map(HOP.pack, resp))
        return self.session.encrypt(body, RESPONSE_LABEL + ct)

    def resident_bytes(self) -> int:
        """Controller-resident bytes: position state, held data blocks, keys."""
        key_bytes = len(self.state.keys.k2) + len(self.state.keys.kprf) + len(self.state.session_key)
        oram = self.state.oram
        return self.state.positions.resident_bytes() + oram.held_count * oram.params.block_width + key_bytes


class EnhancedClient:
    """Client side of the controller deployment: one request, one response."""

    def __init__(self, state: EnhancedState, transport):
        self.state = state
        self.session = Cipher(state.session_key)
        self.transport = transport  # callable: request ct -> response ct

    def query(self, u: int, v: int) -> list[int]:
        """The hops' vertex ids of the answer to (u, v).  A response not
        made for this request raises IntegrityError."""
        n = self.state.params.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"vertex pair ({u},{v}) out of range [0, {n})")
        request = self.session.encrypt(encode_pair(u, v), REQUEST_LABEL)
        blob = self.session.decrypt(self.transport(request), RESPONSE_LABEL + request)
        if len(blob) < _HOP_COUNT.size or len(blob) != _HOP_COUNT.size + HOP.size * _HOP_COUNT.unpack_from(blob)[0]:
            raise ProtocolError(f"response of {len(blob)} bytes does not hold its hop count and 2 bytes a hop")
        return [w for (w,) in HOP.iter_unpack(blob[_HOP_COUNT.size :])]

    def query_path(self, u: int, v: int) -> list[int] | None:
        return reveal(self.query(u, v), u, v, self.state.params.vertex_count)


# ---------------------------------------------------------------------------
# state persistence

_PREFIX = struct.Struct(">2sBB")  # magic, version, party
_PARAMS = struct.Struct(">IBQ")  # V, Z, budget
STATE_MAGIC = b"OS"
# a file of any other version is refused; CHANGES.md records what each
# older format held
STATE_VERSION = 18
# the party byte indexes this tuple; it also fixes the deployment mode
_PARTIES = (TrivialState, EnhancedState, ControllerState)
_PARTY_NAME = {TrivialState: "trivial client", EnhancedState: "enhanced client", ControllerState: "controller"}


class _Reader:
    """Cursor over the bytes of a state file.  Running past the end raises
    ProtocolError, so a truncated file is reported as malformed input
    rather than as whatever a short slice breaks later."""

    def __init__(self, raw: bytes, what: str):
        self.raw = raw
        self.what = what
        self.off = 0

    def take(self, n: int) -> bytes:
        end = self.off + n
        if end > len(self.raw):
            raise ProtocolError(f"{self.what} is truncated: {len(self.raw)} bytes, needs at least {end}")
        out = self.raw[self.off : end]
        self.off = end
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def finish(self) -> None:
        if self.off != len(self.raw):
            raise ProtocolError(f"{self.what} has {len(self.raw) - self.off} unexpected trailing bytes")


_COUNT = struct.Struct(">I")


def _pack_held(engine: PathOram) -> bytes:
    """An engine's held blocks: the count, then the fixed-width blocks."""
    held = engine.held_blocks()
    return _COUNT.pack(len(held)) + b"".join(held)


def _pack_engine(state: TrivialState | ControllerState) -> bytes:
    """Engine state: the top's cells, then the data tree's held blocks and
    each level's (level trees cache nothing, so these are their stashes)."""
    return state.positions.top + b"".join(_pack_held(engine) for engine in (state.oram, *state.positions.levels))


def _unpack_engine(r: _Reader, params: SchemeParams, shape: MapShape, k2: bytes) -> tuple[RecursivePM, PathOram]:
    """Inverse of _pack_engine, for the map of the given shape: the map and
    the data tree's engine.  What the engines refuse to be built with
    raises ProtocolError naming the file.  The engines get their store, and
    the map its leaf sampler, when a query engine is built over them."""
    cipher = Cipher(k2)
    # first: a trivial top has |V|^2 cells, so a file whose |V| was raised
    # runs out of bytes before an engine is built for that |V|
    cells = r.take(shape.top_width * shape.top_entry_width)

    def engine(tree_id: int, tp: TreeParams) -> PathOram:
        (count,) = r.unpack(_COUNT)
        return PathOram(tree_id, tp, cipher, r.take(count * tp.block_width))

    try:
        oram = engine(DATA_TREE_ID, params.data_params)
        levels = [engine(tree_id, level.params) for tree_id, level in enumerate(shape.levels, DATA_TREE_ID + 1)]
        return RecursivePM.load(shape, levels, cells), oram
    except (CapacityError, IntegrityError) as exc:
        raise ProtocolError(f"{r.what}: {exc}") from None


def save_state(path: str | Path, state: TrivialState | EnhancedState | ControllerState) -> None:
    """Write one party's state file, replacing it atomically: the prefix
    (magic, version, party), the parameter block, then the party's keys and
    its engine state or session key."""
    p = state.params
    head = _PREFIX.pack(STATE_MAGIC, STATE_VERSION, _PARTIES.index(type(state))) + _PARAMS.pack(
        p.vertex_count, p.bucket_size, p.budget or 0
    )
    if isinstance(state, EnhancedState):
        write_atomic(path, head, state.session_key)
        return
    session = (state.session_key,) if isinstance(state, ControllerState) else ()
    write_atomic(path, head, state.keys.k2, state.keys.kprf, *session, _pack_engine(state))


def load_state(path: str | Path, *kinds: type) -> TrivialState | EnhancedState | ControllerState:
    """Read a state file written by save_state.  The party it holds must be
    one of kinds (TrivialState, EnhancedState, ControllerState); anything
    else, and any malformed or older file, raises ProtocolError, as does a
    parameter block that setup would refuse."""
    r = _Reader(Path(path).read_bytes(), f"state file {path}")
    magic, version, party = r.unpack(_PREFIX)
    if magic != STATE_MAGIC:
        raise ProtocolError(f"state file {path}: bad magic {magic!r}")
    if version != STATE_VERSION:
        raise ProtocolError(
            f"state file {path}: unsupported version {version}, expected {STATE_VERSION}; "
            "set the deployment up again"
        )
    kind = _PARTIES[party] if party < len(_PARTIES) else None
    if kind not in kinds:
        held = _PARTY_NAME.get(kind, f"unknown party {party}")
        wanted = " or ".join(_PARTY_NAME[k] for k in kinds)
        raise ProtocolError(f"state file {path} holds {held} state, expected {wanted}")
    n, z, budget = r.unpack(_PARAMS)
    mode = MODE_TRIVIAL if kind is TrivialState else MODE_ENHANCED
    params = SchemeParams(n, bucket_size=z, mode=mode, budget=budget or None)
    try:  # every shape below is derived from the parameter block
        params.validate()
        shape = params.map_shape
    except ConfigError as exc:
        raise ProtocolError(f"state file {path}: corrupt parameter block: {exc}") from None
    if kind is EnhancedState:
        state = EnhancedState(params, r.take(KEY_BYTES))
    else:
        keys = KeySet(r.take(KEY_BYTES), r.take(KEY_BYTES))
        if kind is ControllerState:
            session = r.take(KEY_BYTES)
            state = ControllerState(keys, session, params, *_unpack_engine(r, params, shape, keys.k2))
        else:
            state = TrivialState(keys, params, *_unpack_engine(r, params, shape, keys.k2))
    r.finish()
    return state
