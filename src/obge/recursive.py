"""Position map of the query engine, flat or recursive.

The map sends each dense address u*|V|+v to the data leaf of its block.
When the whole map, as a dense array of 8-byte entries, exceeds the memory
budget, it moves into smaller ORAM trees: level 0 packs the data leaves
into blocks; level i+1 packs the leaves of level-i blocks; levels are added
until the remaining top array fits the budget.  The holder then keeps only
the top array and the per-level stashes resident, emulating an enclave with
bounded internal storage.  With no levels this is the flat map of Path
ORAM's recursive construction, which the trivial client uses as is.

A level block's payload is 8*chi bytes of entries, each as wide as the
tree it points into needs (``entry_width``): the fewest whole bytes that
hold every leaf of that tree apart from ABSENT, the all-ones value.  So
level j packs c_j = 8*chi // w_j entries per block, and an address reaches
level-j block addr // (c_0...c_j) at offset (addr // (c_0...c_{j-1})) % c_j;
the payload's last 8*chi - c_j*w_j bytes are unused.

Each level is a PathOram engine, built with its tree by ``rpm_build`` or
from a state file by the loader, and holding its own stash; ``attach``
hands every level the deployment's store and the map its leaf sampler.

The top is one dense ``array('Q')`` of 8-byte words: a flat map holds
|V|^2 entries, ABSENT where no block exists; a chain holds one entry per
last-level block.  Its width, the level count and each level's tree
geometry follow from the address space, the data tree's leaf count, chi,
the budget and Z alone (``map_shape``), so a state file stores only
contents.  A remap rewrites in place the one entry it touches, in the top
or in a level block's payload.
"""

from __future__ import annotations

import random
import secrets
import sys
from array import array
from collections.abc import Iterable

from .blocks import ABSENT, TreeParams, block_head, tree_depth_for
from .crypto import Cipher
from .exceptions import ConfigError, IntegrityError
from .oram import DEFAULT_STASH_MAX, PathOram, oram_init
from .storage import TreeStorage

# bytes of a top entry, and of a flat map's, whatever the tree it points into
TOP_ENTRY_BYTES = 8
# a level block's payload is 8*chi bytes; tree headers store its width in 16 bits
MAX_CHI = 0xFFFF // 8


def level_token(level: int, index: int) -> bytes:
    """Block identity for packed position blocks; distinct from data tokens
    by construction (data tokens are PRF outputs, these are structured)."""
    return b"\xf0" + bytes([level]) + index.to_bytes(14, "big")


def check_chi(chi: int) -> None:
    if not 2 <= chi <= MAX_CHI:
        raise ConfigError(f"packing factor chi must be in [2, {MAX_CHI}], got {chi}")


def entry_width(leaves: int) -> int:
    """Bytes of a level entry pointing into a tree of `leaves` leaves:
    leaves.bit_length() rounded up to whole bytes, so every leaf is below
    the all-ones value that stands for ABSENT."""
    return -(-leaves.bit_length() // 8)


def level_widths(data_leaves: int, levels: list[TreeParams]) -> list[int]:
    """Each level's entry width: level 0's entries point into the data
    tree, level j's into level j-1's tree."""
    return [entry_width(t) for t in [data_leaves] + [tp.leaves for tp in levels[:-1]]]


def big_endian(entries: array | bytes) -> array:
    """A copy of entries with each word's bytes in big-endian order, the
    layout of the top array in a state file; applied twice, the identity."""
    out = array("Q", entries)
    if sys.byteorder == "little":
        out.byteswap()
    return out


def map_shape(
    address_space: int, chi: int, budget: int, bucket_size: int, data_leaves: int
) -> tuple[list[tuple[int, TreeParams]], int]:
    """Shape rule of the map: each level's block count and tree geometry,
    level 0 first, and the top array's width.  While the array above, at 8
    bytes per entry, exceeds budget, a level packs it into 8*chi-byte
    payloads, as many entries per block as fit at the width of the tree
    they point into (the data tree's data_leaves for level 0), and into a
    tree sized for that many blocks."""
    check_chi(chi)
    payload = chi * 8
    if address_space * TOP_ENTRY_BYTES > budget and budget < payload:
        raise ConfigError(f"budget of {budget} bytes is smaller than one packed block ({payload} bytes)")
    levels = []
    width, target = address_space, data_leaves
    while width * TOP_ENTRY_BYTES > budget:
        width = -(-width // (payload // entry_width(target)))
        params = TreeParams(tree_depth_for(width, bucket_size), bucket_size, payload)
        levels.append((width, params))
        target = params.leaves
    return levels, width


class RecursivePM:
    """Position lookup with remap-on-access through the level chain.

    levels holds each level's Path ORAM engine: levels[0] holds data
    positions; levels[-1] is the level whose block positions sit in the top
    array.  An empty chain is the flat base case:
    the top holds the data positions directly, ABSENT for addresses with no
    block.  The level engines read and write through the store handed to
    ``attach``.
    """

    def __init__(
        self,
        address_space: int,
        data_leaves: int,
        levels: list[PathOram],
        top: array,
        rng: random.Random | None = None,
    ):
        self.address_space = address_space
        self.data_leaves = data_leaves
        self.levels = levels
        self.top = top
        self.rng = rng if rng is not None else secrets.SystemRandom()
        # a level-j block holds per_block[j] = c_j entries, and spans[j] =
        # c_0...c_{j-1} addresses share one level-j entry (spans[depth], one
        # top entry)
        self.widths = level_widths(data_leaves, [engine.params for engine in levels])
        self.per_block = [engine.params.payload_width // w for engine, w in zip(levels, self.widths)]
        self.spans = [1]
        for c in self.per_block:
            self.spans.append(self.spans[-1] * c)

    @property
    def chain_depth(self) -> int:
        return len(self.levels)

    def attach(self, store, rng: random.Random) -> None:
        """Reach the level trees through store and draw every fresh leaf from rng."""
        self.rng = rng
        for engine in self.levels:
            engine.store, engine.rng = store, rng

    def resident_bytes(self) -> int:
        """Resident state: the top array plus all level stashes."""
        total = len(self.top) * TOP_ENTRY_BYTES
        for engine in self.levels:
            total += engine.held_count * engine.params.block_width
        return total

    def get_and_remap(self, addr: int) -> tuple[int, int]:
        """Resolve the data leaf for an address and install a fresh one.

        Returns (old_leaf, new_leaf); old_leaf is ABSENT for addresses with
        no stored block, in which case the stored entry stays ABSENT.  The
        chain performs one full-shape oblivious access per level whether or
        not the address is present.
        """
        if not (0 <= addr < self.address_space):
            raise IndexError(f"address {addr} out of range [0, {self.address_space})")

        # (old, fresh) walks down the chain: the current and the new leaf of
        # the block holding the entry at each level, from the top's entry to
        # the data leaf itself
        depth, spans = len(self.levels), self.spans
        top_idx = addr // spans[depth]
        old = self.top[top_idx]
        fresh = self.rng.randrange(self.levels[-1].params.leaves if depth else self.data_leaves)
        if old != ABSENT:
            self.top[top_idx] = fresh

        for j in range(depth - 1, -1, -1):
            index = addr // spans[j + 1]
            if old == ABSENT:
                raise IntegrityError(f"position block {index} at level {j} is unmapped")
            w = self.widths[j]
            offset = (addr // spans[j]) % self.per_block[j]
            below = self.levels[j - 1].params.leaves if j > 0 else self.data_leaves
            new = self.rng.randrange(below)
            captured: list[int] = []

            def rewrite(payload: bytes, at=offset * w, w=w, new=new, captured=captured) -> bytes:
                entry = int.from_bytes(payload[at : at + w], "big")
                if entry == (1 << 8 * w) - 1:
                    captured.append(ABSENT)
                    return payload
                captured.append(entry)
                return payload[:at] + new.to_bytes(w, "big") + payload[at + w :]

            self.levels[j].access(level_token(j, index), old, fresh, rewrite)
            old, fresh = captured[0], new
        return old, fresh


def pack_entries(entries: array, w: int, count: int) -> bytearray:
    """count w-byte big-endian cells, the low w bytes of each entry and then
    ABSENT (all one bits) to pad, built a byte column at a time.  An 8-byte
    ABSENT truncates to the w-byte one."""
    raw = big_endian(entries).tobytes()
    cells = bytearray(b"\xff") * (count * w)
    end = len(entries) * w
    for k in range(w):
        cells[k:end:w] = raw[8 - w + k :: 8]
    return cells


def rpm_build(
    assignments: Iterable[tuple[int, int]],
    address_space: int,
    data_leaves: int,
    chi: int,
    budget: int,
    bucket_size: int,
    cipher: Cipher,
    rng: random.Random,
    stash_max: int = DEFAULT_STASH_MAX,
    first_tree_id: int = 1,
) -> tuple[RecursivePM, list[TreeStorage]]:
    """Build the map for a data-level leaf assignment, given as (address,
    leaf) pairs.

    Returns the map and the level trees to hand to the server; the level
    engines have no store until the map is attached to one.
    """
    shape, _ = map_shape(address_space, chi, budget, bucket_size, data_leaves)
    top = array("Q", [ABSENT]) * address_space
    for addr, leaf in assignments:
        top[addr] = leaf

    levels: list[PathOram] = []
    trees: list[TreeStorage] = []
    widths = level_widths(data_leaves, [params for _, params in shape])
    for i, ((n_blocks, params), w) in enumerate(zip(shape, widths)):
        # the array above becomes this level's payloads, as many entries to
        # a block as fit, the last block padded with ABSENT entries and each
        # payload's unused tail with one bits
        per_block = params.payload_width // w
        span, tail = per_block * w, b"\xff" * (params.payload_width - per_block * w)
        cells = pack_entries(top, w, n_blocks * per_block)
        heads = [
            block_head(level_token(i, b), 0, cells[b * span : (b + 1) * span] + tail) for b in range(n_blocks)
        ]
        engine, tree, leaves = oram_init(heads, params, cipher, rng, stash_max, first_tree_id + i)
        levels.append(engine)
        trees.append(tree)
        top = array("Q", leaves)

    rpm = RecursivePM(
        address_space=address_space,
        data_leaves=data_leaves,
        levels=levels,
        top=top,
        rng=rng,
    )
    return rpm, trees
