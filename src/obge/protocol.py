"""The graph encryption scheme: setup, query, reveal, and both deployments.

Setup turns the next-hop dictionary into fixed-width blocks keyed by PRF
tokens and loads them into a Path ORAM tree.  A query chases the token
chain with one oblivious access per hop plus a terminating miss round, so
the storage side observes only the round count.  Reveal decrypts the
collected payloads into the plaintext path.

Two deployments share the same wire behavior:

* trivial  -- the client keeps the position map and stash and drives every
  access itself.
* enhanced -- a controller behind the server's trust boundary (the TEE
  stand-in) keeps position map and stash; the client exchanges a single
  encrypted request/response pair per query over an emulated secure
  channel.  The position map is held flat or in a recursive ORAM chain,
  whichever fits the configured memory budget.
"""

from __future__ import annotations

import os
import random
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .blocks import ABSENT, Block, DATA_PAYLOAD_WIDTH, PAIR_PAD, TreeParams, block_width, unpack_block
from .crypto import TOKEN_BYTES, Cipher, KeySet, decode_pair, encode_pair, keygen, prf_eval
from .exceptions import ConfigError, IntegrityError, ProtocolError
from .graph import Graph, compute_spdx
from .oram import DEFAULT_STASH_MAX, BlockInput, PathOram, PathOramKV, oram_init
from .recursive import ENTRY_BYTES, RecursivePM, RpmLevel, rpm_build, _StoreBinder
from .storage import TreeStorage

DATA_TREE_ID = 0

MODE_TRIVIAL = "trivial"
MODE_ENHANCED = "enhanced"
PAD_NONE = "none"
PAD_FULL = "full"


@dataclass
class SchemeParams:
    vertex_count: int
    lambda_bits: int = 128
    bucket_size: int = 5
    pad_mode: str = PAD_NONE
    mode: str = MODE_TRIVIAL
    chi: int = 64
    budget: int | None = None
    stash_max: int = DEFAULT_STASH_MAX
    data_depth: int = 0

    def validate(self) -> None:
        if self.mode not in (MODE_TRIVIAL, MODE_ENHANCED):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.pad_mode not in (PAD_NONE, PAD_FULL):
            raise ConfigError(f"unknown pad mode {self.pad_mode!r}")
        if self.bucket_size < 1:
            raise ConfigError("bucket size must be >= 1")

    @property
    def address_space(self) -> int:
        return self.vertex_count * self.vertex_count

    @property
    def data_params(self) -> TreeParams:
        return TreeParams(self.data_depth, self.bucket_size, DATA_PAYLOAD_WIDTH)


@dataclass
class TrivialState:
    """Everything the client keeps in the client-held-state deployment."""

    keys: KeySet
    params: SchemeParams
    position_map: dict[bytes, int]
    stash: list[Block] = field(default_factory=list)


@dataclass
class EnhancedState:
    """Client-side remainder in the controller deployment: keys only."""

    keys: KeySet
    params: SchemeParams
    session_key: bytes = b""


@dataclass
class ControllerState:
    """Controller-resident secrets and ORAM state (never includes k1)."""

    k2: bytes
    kprf: bytes
    session_key: bytes
    params: SchemeParams
    positions: RecursivePM
    stash: list[Block] = field(default_factory=list)


@dataclass
class SetupResult:
    trees: list[TreeStorage]
    params: SchemeParams
    keys: KeySet
    client: TrivialState | EnhancedState
    controller: ControllerState | None
    rpm_binder: _StoreBinder | None
    spdx_size: int


def build_blocks(g: Graph, keys: KeySet) -> tuple[list[BlockInput], list[int]]:
    """Tokenize and encrypt the next-hop dictionary.

    Each entry (u,v) -> (w,v) becomes a block whose identity is P(u,v),
    whose chain pointer is P(w,v) plus the dense address w*|V|+v, and whose
    payload is the pair (w,v) encrypted under k1.
    """
    k1 = Cipher(keys.k1)
    n = g.vertex_count
    spdx = compute_spdx(g)
    inputs = []
    addresses = []
    for (u, v), (w, _) in spdx.items():
        inputs.append(
            BlockInput(
                tk=prf_eval(keys.kprf, encode_pair(u, v)),
                next_tk=prf_eval(keys.kprf, encode_pair(w, v)),
                next_addr=w * n + v,
                payload=k1.encrypt(encode_pair(w, v), PAIR_PAD),
            )
        )
        addresses.append(u * n + v)
    return inputs, addresses


def setup(
    g: Graph,
    mode: str = MODE_TRIVIAL,
    lambda_bits: int = 128,
    bucket_size: int = 5,
    pad_mode: str = PAD_NONE,
    chi: int = 64,
    budget: int | None = None,
    stash_max: int = DEFAULT_STASH_MAX,
    rng: random.Random | None = None,
) -> SetupResult:
    """Encrypt a graph for shortest-path querying.

    Returns the server-side trees plus the party states for the chosen
    deployment; nothing in the trees links tokens to positions.
    """
    params = SchemeParams(
        vertex_count=g.vertex_count,
        lambda_bits=lambda_bits,
        bucket_size=bucket_size,
        pad_mode=pad_mode,
        mode=mode,
        chi=chi,
        budget=budget,
        stash_max=stash_max,
    )
    params.validate()
    rng = rng if rng is not None else secrets.SystemRandom()
    keys = keygen(lambda_bits)
    k2 = Cipher(keys.k2)

    inputs, addresses = build_blocks(g, keys)
    pad_slots = None
    if pad_mode == PAD_FULL:
        pad_slots = max(1, params.address_space - g.vertex_count)
    tree, data_params, leaves, stash = oram_init(
        inputs,
        bucket_size=bucket_size,
        payload_width=DATA_PAYLOAD_WIDTH,
        cipher=k2,
        rng=rng,
        pad_slots=pad_slots,
        stash_max=stash_max,
        tree_id=DATA_TREE_ID,
    )
    params.data_depth = data_params.depth

    if mode == MODE_TRIVIAL:
        pm = {inp.tk: leaf for inp, leaf in zip(inputs, leaves)}
        client = TrivialState(keys=keys, params=params, position_map=pm, stash=stash)
        return SetupResult([tree], params, keys, client, None, None, len(inputs))

    session_key = os.urandom(lambda_bits // 8)
    assignments = dict(zip(addresses, leaves))
    effective_budget = budget if budget is not None else params.address_space * ENTRY_BYTES
    rpm, pm_trees, binder = rpm_build(
        assignments,
        address_space=params.address_space,
        data_leaves=data_params.leaves,
        chi=chi,
        budget=effective_budget,
        bucket_size=bucket_size,
        cipher=k2,
        rng=rng,
        stash_max=stash_max,
        first_tree_id=DATA_TREE_ID + 1,
    )
    controller = ControllerState(
        k2=keys.k2,
        kprf=keys.kprf,
        session_key=session_key,
        params=params,
        positions=rpm,
        stash=stash,
    )
    client = EnhancedState(keys=keys, params=params, session_key=session_key)
    return SetupResult([tree] + pm_trees, params, keys, client, controller, binder, len(inputs))


def reveal(resp: list[bytes], source: int, dest: int, k1: bytes) -> list[int] | None:
    """Decrypt an encrypted path into its vertex list.

    An empty response means the empty path when source == dest and "no
    path" (None) otherwise.
    """
    if not resp:
        return [] if source == dest else None
    c = Cipher(k1)
    hops = [decode_pair(c.decrypt(ct)) for ct in resp]
    if hops[-1] != (dest, dest):
        raise IntegrityError("response does not terminate at the queried destination")
    return [source] + [w for w, _ in hops]


class TrivialClient:
    """Query driver for the client-held-state deployment."""

    def __init__(self, state: TrivialState, store, rng: random.Random | None = None):
        self.state = state
        self.keys = state.keys
        p = state.params
        self.engine = PathOram(
            DATA_TREE_ID,
            p.data_params,
            store,
            Cipher(self.keys.k2),
            stash=state.stash,
            stash_max=p.stash_max,
            rng=rng if rng is not None else secrets.SystemRandom(),
        )
        self.kv = PathOramKV(self.engine, state.position_map)
        self.last_rounds = 0

    def query(self, u: int, v: int) -> list[bytes]:
        """Chase the token chain; returns the encrypted path."""
        self._check(u)
        self._check(v)
        resp: list[bytes] = []
        curr = prf_eval(self.keys.kprf, encode_pair(u, v))
        rounds = 0
        while True:
            blk = self.kv.access(curr)
            rounds += 1
            if blk is None:
                break
            resp.append(blk.payload)
            curr = blk.next_tk
        self.last_rounds = rounds
        return resp

    def query_path(self, u: int, v: int) -> list[int] | None:
        return reveal(self.query(u, v), u, v, self.keys.k1)

    def _check(self, x: int) -> None:
        if not (0 <= x < self.state.params.vertex_count):
            raise IndexError(f"vertex {x} out of range [0, {self.state.params.vertex_count})")


class EnclaveController:
    """The TEE stand-in: holds position map and stash, runs the access loop
    next to the storage, and talks to the client only through an
    authenticated session channel."""

    def __init__(self, state: ControllerState, store, rng: random.Random | None = None):
        self.state = state
        self.params = state.params
        self.session = Cipher(state.session_key)
        self.kprf = state.kprf
        rng = rng if rng is not None else secrets.SystemRandom()
        state.positions.rng = rng
        self.engine = PathOram(
            DATA_TREE_ID,
            state.params.data_params,
            store,
            Cipher(state.k2),
            stash=state.stash,
            stash_max=state.params.stash_max,
            rng=rng,
        )
        self.last_rounds = 0

    def bind_store(self, store) -> None:
        self.engine.store = store

    def handle_request(self, ct: bytes) -> bytes:
        """Decrypt one (u, v) request, run the query loop, and return the
        session-encrypted encrypted path.  Bad frames are rejected before
        any storage access."""
        raw = self.session.decrypt(ct)
        if len(raw) != 8:
            raise ProtocolError("malformed query request")
        u, v = decode_pair(raw)
        n = self.params.vertex_count
        if u >= n or v >= n:
            raise ProtocolError(f"vertex pair ({u},{v}) out of range for {n} vertices")
        resp = self.query_loop(u, v)
        blob = struct.pack(">H", len(resp)) + b"".join(resp)
        return self.session.encrypt(blob, pad_to=len(blob))

    def query_loop(self, u: int, v: int) -> list[bytes]:
        n = self.params.vertex_count
        resp: list[bytes] = []
        addr = u * n + v
        tk = prf_eval(self.kprf, encode_pair(u, v))
        rounds = 0
        while True:
            old_leaf, new_leaf = self.state.positions.get_and_remap(addr)
            if old_leaf == ABSENT:
                self.engine.access(None, None, new_leaf)
                rounds += 1
                break
            blk = self.engine.access(tk, old_leaf, new_leaf)
            rounds += 1
            if blk is None:  # cannot happen while positions and tree agree
                raise IntegrityError("mapped address yielded no block")
            resp.append(blk.payload)
            addr = blk.next_addr
            tk = blk.next_tk
        self.last_rounds = rounds
        return resp

    def resident_bytes(self) -> int:
        """Controller-resident bytes: position state, data stash, keys."""
        key_bytes = len(self.state.k2) + len(self.state.kprf) + len(self.state.session_key)
        stash_bytes = len(self.engine.stash) * self.params.data_params.block_width
        return self.state.positions.resident_bytes() + stash_bytes + key_bytes


class EnhancedClient:
    """Client side of the controller deployment: one request, one response."""

    def __init__(self, state: EnhancedState, transport):
        self.state = state
        self.session = Cipher(state.session_key)
        self.transport = transport  # callable: request ct -> response ct

    def query(self, u: int, v: int) -> list[bytes]:
        n = self.state.params.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"vertex pair ({u},{v}) out of range [0, {n})")
        request = self.session.encrypt(encode_pair(u, v), pad_to=PAIR_PAD)
        blob = self.session.decrypt(self.transport(request))
        (count,) = struct.unpack(">H", blob[:2])
        body = blob[2:]
        w = DATA_PAYLOAD_WIDTH
        if len(body) != count * w:
            raise ProtocolError("encrypted path has inconsistent length")
        return [body[i * w : (i + 1) * w] for i in range(count)]

    def query_path(self, u: int, v: int) -> list[int] | None:
        return reveal(self.query(u, v), u, v, self.state.keys.k1)


# ---------------------------------------------------------------------------
# state persistence

_KEYFILE = struct.Struct(">2sBHB IBBIIQ B H")  # magic ver lambda mode | V Z pad smax chi budget | depth | payload
KEY_MAGIC = b"OK"
CTRL_MAGIC = b"OC"
_MODE_CODE = {MODE_TRIVIAL: 0, MODE_ENHANCED: 1}
_MODE_NAME = {0: MODE_TRIVIAL, 1: MODE_ENHANCED}
_PAD_CODE = {PAD_NONE: 0, PAD_FULL: 1}
_PAD_NAME = {0: PAD_NONE, 1: PAD_FULL}


def _pack_params(params: SchemeParams) -> bytes:
    return _KEYFILE.pack(
        KEY_MAGIC,
        1,
        params.lambda_bits,
        _MODE_CODE[params.mode],
        params.vertex_count,
        params.bucket_size,
        _PAD_CODE[params.pad_mode],
        params.stash_max,
        params.chi,
        params.budget if params.budget is not None else 0,
        params.data_depth,
        DATA_PAYLOAD_WIDTH,
    )


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
_LEAF = struct.Struct(">Q")
_PM_ENTRY = struct.Struct(f">{TOKEN_BYTES}sQ")
_RPM_HEADER = struct.Struct(">QQB")  # address space, data leaves, level count
_RPM_LEVEL = struct.Struct(">IBBH")  # block count, depth, Z, payload width


def _unpack_params(raw: bytes) -> SchemeParams:
    magic, ver, lam, mode, n, z, pad, smax, chi, budget, depth, pw = _KEYFILE.unpack(raw)
    if magic != KEY_MAGIC:
        raise ProtocolError(f"bad key file magic {magic!r}")
    if ver != 1:
        raise ProtocolError(f"unsupported key file version {ver}")
    if pw != DATA_PAYLOAD_WIDTH:
        raise ProtocolError("key file written by an incompatible block layout")
    if lam not in (128, 256) or mode not in _MODE_NAME or pad not in _PAD_NAME:
        raise ProtocolError(f"corrupt parameter block (lambda {lam}, mode {mode}, pad {pad})")
    return SchemeParams(
        vertex_count=n,
        lambda_bits=lam,
        bucket_size=z,
        pad_mode=_PAD_NAME[pad],
        mode=_MODE_NAME[mode],
        chi=chi,
        budget=budget or None,
        stash_max=smax,
        data_depth=depth,
    )


def save_keyfile(path: str | Path, client: TrivialState | EnhancedState) -> None:
    keys = client.keys
    session = client.session_key if isinstance(client, EnhancedState) else b""
    blob = _pack_params(client.params)
    blob += struct.pack(">B", len(session)) + session
    blob += keys.k1 + keys.k2 + keys.kprf
    Path(path).write_bytes(blob)


def load_keyfile(path: str | Path) -> TrivialState | EnhancedState:
    r = _Reader(Path(path).read_bytes(), f"key file {path}")
    params = _unpack_params(r.take(_KEYFILE.size))
    session = r.take(r.take(1)[0])
    n = params.lambda_bits // 8
    keys = KeySet(r.take(n), r.take(n), r.take(n))
    r.finish()
    if params.mode == MODE_ENHANCED:
        return EnhancedState(keys=keys, params=params, session_key=session)
    return TrivialState(keys=keys, params=params, position_map={}, stash=[])


def _pack_stash(stash: list[Block], payload_width: int) -> bytes:
    return _COUNT.pack(len(stash)) + b"".join(b.pack(payload_width) for b in stash)


def _unpack_stash(r: _Reader, payload_width: int) -> list[Block]:
    (count,) = r.unpack(_COUNT)
    width = block_width(payload_width)
    return [unpack_block(r.take(width), payload_width) for _ in range(count)]


def save_client_state(path: str | Path, state: TrivialState) -> None:
    """Position map and stash for the trivial deployment; rewritten after
    every query because accesses remap blocks."""
    pm = state.position_map
    parts = [_COUNT.pack(len(pm))]
    parts += map(_PM_ENTRY.pack, pm.keys(), pm.values())
    parts.append(_pack_stash(state.stash, DATA_PAYLOAD_WIDTH))
    Path(path).write_bytes(b"".join(parts))


def load_client_state(path: str | Path, state: TrivialState) -> None:
    r = _Reader(Path(path).read_bytes(), f"client state file {path}")
    (count,) = r.unpack(_COUNT)
    entries = r.take(count * _PM_ENTRY.size)
    pm = dict(_PM_ENTRY.iter_unpack(entries))
    stash = _unpack_stash(r, DATA_PAYLOAD_WIDTH)
    r.finish()
    state.position_map = pm
    state.stash = stash


def save_controller(path: str | Path, state: ControllerState) -> None:
    p = state.params
    rpm = state.positions
    blob = CTRL_MAGIC + struct.pack(">B", 1)
    blob += _pack_params(p)[3:]  # parameter block sans magic and version
    blob += state.k2 + state.kprf + state.session_key
    blob += _pack_stash(state.stash, DATA_PAYLOAD_WIDTH)
    blob += _RPM_HEADER.pack(rpm.address_space, rpm.data_leaves, len(rpm.levels))
    for lvl in rpm.levels:
        tp = lvl.engine.params
        blob += _RPM_LEVEL.pack(lvl.n_blocks, tp.depth, tp.bucket_size, tp.payload_width)
        blob += _pack_stash(lvl.engine.stash, tp.payload_width)
    blob += _LEAF.pack(len(rpm.top))
    blob += b"".join(_LEAF.pack(e) for e in rpm.top)
    Path(path).write_bytes(blob)


def load_controller(path: str | Path, rng: random.Random | None = None) -> tuple[ControllerState, _StoreBinder]:
    r = _Reader(Path(path).read_bytes(), f"controller state file {path}")
    if r.take(3) != CTRL_MAGIC + b"\x01":
        raise ProtocolError("bad controller state file")
    params = _unpack_params(KEY_MAGIC + b"\x01" + r.take(_KEYFILE.size - 3))
    n = params.lambda_bits // 8
    k2, kprf, session = r.take(n), r.take(n), r.take(n)
    stash = _unpack_stash(r, DATA_PAYLOAD_WIDTH)
    a_space, data_leaves, n_levels = r.unpack(_RPM_HEADER)
    rng = rng if rng is not None else secrets.SystemRandom()
    binder = _StoreBinder()
    cipher = Cipher(k2)
    levels = []
    for i in range(n_levels):
        n_blocks, depth, z, pw = r.unpack(_RPM_LEVEL)
        lstash = _unpack_stash(r, pw)
        tp = TreeParams(depth, z, pw)
        engine = PathOram(
            DATA_TREE_ID + 1 + i, tp, binder, cipher,
            stash=lstash, stash_max=params.stash_max, rng=rng,
        )
        levels.append(RpmLevel(engine=engine, n_blocks=n_blocks))
    (top_len,) = r.unpack(_LEAF)
    top = [v[0] for v in _LEAF.iter_unpack(r.take(_LEAF.size * top_len))]
    r.finish()
    rpm = RecursivePM(
        address_space=a_space,
        data_leaves=data_leaves,
        chi=params.chi,
        levels=levels,
        top=top,
        rng=rng,
    )
    state = ControllerState(
        k2=k2, kprf=kprf, session_key=session, params=params, positions=rpm, stash=stash
    )
    return state, binder
