"""Position map of the query engine, flat or recursive.

The map sends each dense address u*|V|+v to the data leaf of its block;
every address has one, so every entry is a leaf.
When the whole map, as a dense array of 8-byte entries, exceeds the memory
budget, it moves into smaller ORAM trees: level 0 packs the data leaves
into blocks; level i+1 packs the leaves of level-i blocks; levels are added
until the remaining top, still counted at 8 bytes an entry, fits the
budget.  The holder then keeps only the top and the per-level stashes
resident, emulating an enclave with bounded internal storage.  With no
levels this is the flat map of Path ORAM's recursive construction, which
the trivial client uses as is.

A level block's payload is P bytes of entries, each as wide as the tree it
points into needs (``entry_width``): the fewest whole bytes that hold every
leaf of that tree, as a block's leaf field does, and at least one.  So
level j packs c_j = P // w_j entries per block, and an address reaches
level-j block addr // (c_0...c_j) at offset (addr // (c_0...c_{j-1})) %
c_j.  The payload's last P - c_j*w_j bytes, and the pad entries of a
level's last block, are never read, and are zero.

P is not a setting: ``map_shape`` picks it, a multiple of 8 from 16 to 512
bytes that fits the budget.  A wider payload packs more entries a block,
so it never adds a level or a host bucket a round, but it moves more
bytes in every bucket.  The rule keeps the payload with the fewest levels,
then the fewest host buckets a map round reads (sum of depth_j + 1), then
the fewest host bytes a round (sum of the level trees' path widths): the
narrowest payload that keeps the levels and buckets of the widest.  A
flat map, whose payloads all tie, keeps the widest.

The map's geometry -- the payload, each level's tree, block count, entry
width and entries per block, the spans c_0...c_j, the top's width, and
the leaf count of the tree each level's entries and the top's point into
-- follows from the address space, the data tree's leaf count, the budget
and Z alone, which the tree headers already reveal.  ``map_shape`` works
it out once, as a ``MapShape`` that ``rpm_build``, the map and a state
file's loader all read, so a state file stores only contents.

Each level is a PathOram engine, built with its tree by ``rpm_build`` or
from a state file by the loader, and holding its own stash; ``attach``
hands every level the deployment's store and the map its leaf sampler.

The top has the layout of a level payload, in memory and in a state file
alike: one ``bytearray`` of w-byte big-endian cells, w the entry width of
the tree the top points into.  A flat map holds |V|^2 cells, so the
|V|=200 flat map takes 80 KB; a chain holds one cell per last-level block.
``RecursivePM.load`` refuses cells of another total width, and cells that
are not leaves of the tree they point into.  A remap rewrites the one
entry it touches, in the top or in a level block's payload, through
``read_entry`` and ``write_entry``.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

from .blocks import TreeParams, tree_depth_for
from .crypto import Cipher
from .exceptions import ConfigError, IntegrityError
from .oram import PathOram, oram_init
from .storage import TreeStorage

# bytes the shape rule counts per top entry, whatever the tree it points into
TOP_ENTRY_BYTES = 8
# map_shape picks a level block's payload of 8*chi bytes, chi from MIN_CHI to MAX_CHI
MIN_CHI = 2
MAX_CHI = 64


def level_token(level: int, index: int) -> bytes:
    """Block identity for packed position blocks; distinct from data tokens
    by construction (data tokens are PRF outputs, these are structured)."""
    return b"\xf0" + bytes([level]) + index.to_bytes(14, "big")


def entry_width(leaves: int) -> int:
    """Bytes of a level entry pointing into a tree of `leaves` leaves: the
    fewest whole bytes that hold leaf leaves - 1, as a block's leaf field
    (``TreeParams.leaf_width``), but at least one, so a one-leaf tree's
    entries still take a byte."""
    return max(1, -(-(leaves - 1).bit_length() // 8))


def read_entry(cells: bytes | bytearray, at: int, w: int) -> int:
    """The leaf in the w-byte cell at byte offset at."""
    return int.from_bytes(cells[at : at + w], "big")


def write_entry(cells: bytearray, at: int, w: int, leaf: int) -> None:
    """Store leaf as the w-byte cell at byte offset at."""
    cells[at : at + w] = leaf.to_bytes(w, "big")


@dataclass(frozen=True)
class MapLevel:
    """One level of the chain: its tree, its block count, and the width in
    bytes and the count c_j of the entries one block packs."""

    params: TreeParams
    blocks: int
    width: int
    per_block: int


@dataclass(frozen=True)
class MapShape:
    """The map's geometry, level 0 first.  Every level block carries payload
    bytes of entries; spans[j] = c_0...c_{j-1} addresses share one level-j
    entry, and spans[depth] one top entry; targets[j] is the leaf count of
    the tree that level j's entries point into (the data tree's for level
    0), and targets[depth] the top's."""

    address_space: int
    payload: int
    levels: tuple[MapLevel, ...]
    spans: tuple[int, ...]
    targets: tuple[int, ...]
    top_width: int

    @cached_property
    def top_entry_width(self) -> int:
        """Bytes of a top cell: the entry width of the tree the top points
        into."""
        return entry_width(self.targets[-1])

    @cached_property
    def host_buckets(self) -> int:
        """Buckets one map round moves each way: a path of every level tree."""
        return sum(level.params.host_levels for level in self.levels)

    @cached_property
    def host_bytes(self) -> int:
        """Bytes one map round moves each way."""
        return sum(level.params.path_width for level in self.levels)


def payload_shape(address_space: int, payload: int, budget: int, bucket_size: int, data_leaves: int) -> MapShape:
    """The map's geometry at one payload width: while the array above, at
    TOP_ENTRY_BYTES per entry, exceeds budget, a level packs it into
    payload-byte blocks, as many entries per block as fit at the width of
    the tree they point into (the data tree's data_leaves for level 0), and
    into a tree sized for that many blocks."""
    levels, spans, targets = [], [1], [data_leaves]
    width = address_space
    while width * TOP_ENTRY_BYTES > budget:
        w = entry_width(targets[-1])
        per_block = payload // w
        width = -(-width // per_block)
        params = TreeParams(tree_depth_for(width, bucket_size), bucket_size, payload)
        levels.append(MapLevel(params, width, w, per_block))
        spans.append(spans[-1] * per_block)
        targets.append(params.leaves)
    return MapShape(address_space, payload, tuple(levels), tuple(spans), tuple(targets), width)


def map_shape(address_space: int, budget: int, bucket_size: int, data_leaves: int) -> MapShape:
    """Shape rule of the map: of the payloads of 8*chi bytes, chi from
    MIN_CHI to MAX_CHI, that fit the budget, the one whose shape has the
    fewest levels, then the fewest host buckets per map round, then the
    fewest host bytes per round; of payloads that tie, which only a flat
    map's do, the widest.  A budget that needs a level but holds no
    MIN_CHI-word payload raises ConfigError."""
    smallest = 8 * MIN_CHI
    if address_space * TOP_ENTRY_BYTES > budget and budget < smallest:
        raise ConfigError(f"budget of {budget} bytes is smaller than the smallest map block payload ({smallest} bytes)")
    widest = max(MIN_CHI, min(MAX_CHI, budget // 8))
    shapes = (
        payload_shape(address_space, 8 * chi, budget, bucket_size, data_leaves)
        for chi in range(widest, MIN_CHI - 1, -1)
    )
    # min keeps the first of equal keys, so ties go to the widest payload
    return min(shapes, key=lambda shape: (len(shape.levels), shape.host_buckets, shape.host_bytes))


class RecursivePM:
    """Position lookup with remap-on-access through the level chain.

    levels holds each level's Path ORAM engine, one per level of shape:
    levels[0] holds data positions; levels[-1] is the level whose block
    positions sit in the top's cells.  An empty chain is the flat base case:
    the top holds the data positions directly.  The level engines read and
    write through the store, and the map draws fresh leaves from the
    sampler, handed to ``attach``.
    """

    def __init__(self, shape: MapShape, levels: list[PathOram], top: bytearray):
        self.shape = shape
        self.levels = levels
        self.top = top
        self.rng: random.Random | None = None

    @classmethod
    def load(cls, shape: MapShape, levels: list[PathOram], cells: bytes) -> RecursivePM:
        """The map over a top read from a state file, kept as it is read:
        shape.top_width cells of w bytes, each a leaf of the tree the top
        points into; IntegrityError otherwise.  The leaf count is a power of
        two and w the fewest bytes that hold its leaves, so a cell is a leaf
        exactly when its high byte is below leaves >> 8(w-1): one pass over
        the high byte column checks every cell."""
        leaves, w, n = shape.targets[-1], shape.top_entry_width, shape.top_width
        if len(cells) != n * w:
            raise IntegrityError(f"top of {len(cells)} bytes, the map's shape has {n} entries of {w} bytes")
        high, limit = cells[::w], leaves >> 8 * (w - 1)
        if high and max(high) >= limit:
            at = next(at for at, b in enumerate(high) if b >= limit)
            value = read_entry(cells, at * w, w)
            raise IntegrityError(f"top entry {at} is leaf {value}, but its tree has {leaves} leaves")
        return cls(shape, levels, bytearray(cells))

    @property
    def chain_depth(self) -> int:
        return len(self.levels)

    def attach(self, store, rng: random.Random) -> None:
        """Reach the level trees through store and draw every fresh leaf from rng."""
        self.rng = rng
        for engine in self.levels:
            engine.store = store

    def resident_bytes(self) -> int:
        """Resident state: the top's cells plus all level stashes."""
        total = len(self.top)
        for engine in self.levels:
            total += engine.held_count * engine.params.block_width
        return total

    def get_and_remap(self, addr: int) -> tuple[int, int]:
        """Resolve the data leaf for an address and install a fresh one.

        Returns (old_leaf, new_leaf).  The chain performs one full-shape
        oblivious access per level.
        """
        shape = self.shape
        if not (0 <= addr < shape.address_space):
            raise IndexError(f"address {addr} out of range [0, {shape.address_space})")

        # (old, fresh) walks down the chain: the current and the new leaf of
        # the block holding the entry at each level, from the top's entry to
        # the data leaf itself
        spans, targets, randrange = shape.spans, shape.targets, self.rng.randrange
        depth, w = len(self.levels), shape.top_entry_width
        at = addr // spans[depth] * w
        old = read_entry(self.top, at, w)
        fresh = randrange(targets[depth])
        write_entry(self.top, at, w, fresh)

        for j in range(depth - 1, -1, -1):
            level = shape.levels[j]
            w = level.width
            offset = (addr // spans[j]) % level.per_block
            new = randrange(targets[j])
            captured: list[int] = []

            def rewrite(payload: bytes, at=offset * w, w=w, new=new, captured=captured) -> bytearray:
                cells = bytearray(payload)
                captured.append(read_entry(cells, at, w))
                write_entry(cells, at, w, new)
                return cells

            self.levels[j].access(level_token(j, addr // spans[j + 1]), old, fresh, rewrite)
            old, fresh = captured[0], new
        return old, fresh


def pack_entries(entries: array, w: int, count: int) -> bytearray:
    """count w-byte big-endian cells, the low w bytes of each entry of an
    unsigned array and then zero cells to pad, built a byte column at a
    time from the entries' native bytes."""
    raw, size = entries.tobytes(), entries.itemsize
    cells = bytearray(count * w)
    end = len(entries) * w
    for k in range(w):  # the k-th most significant byte of every cell
        cells[k:end:w] = raw[size - w + k if sys.byteorder == "big" else w - 1 - k :: size]
    return cells


def rpm_build(
    leaves: array,
    shape: MapShape,
    cipher: Cipher,
    rng: random.Random,
) -> tuple[RecursivePM, list[TreeStorage]]:
    """Build the map of the given shape for the data leaves of every
    address, in address order, as an array('I').  Level i is tree i + 1,
    after the data tree 0.

    Returns the map and the level trees to hand to the server; the level
    engines have no store, and the map no leaf sampler, until the map is
    attached.
    """
    entries = leaves
    levels: list[PathOram] = []
    trees: list[TreeStorage] = []
    for i, level in enumerate(shape.levels):
        # the entries above become this level's payloads, as many entries
        # to a block as fit at the width of the tree they point into
        params, w = level.params, level.width
        span = level.per_block * w
        tail = bytes(params.payload_width - span)
        cells = pack_entries(entries, w, level.blocks * level.per_block)
        heads = b"".join(level_token(i, b) + cells[b * span : (b + 1) * span] + tail for b in range(level.blocks))
        engine, tree, entries = oram_init(heads, params, cipher, rng, i + 1)
        levels.append(engine)
        trees.append(tree)
    top = pack_entries(entries, shape.top_entry_width, shape.top_width)
    return RecursivePM(shape, levels, top), trees
