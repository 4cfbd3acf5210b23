"""Position map of the query engine, flat or recursive.

The map sends each dense address u*|V|+v to the data leaf of its block.
When the whole map, counted as a dense array of 8-byte entries, exceeds
the memory budget, it moves into smaller ORAM trees: level 0 packs the data
leaves, chi entries per block; level i+1 packs the leaves of level-i
blocks; levels are added until the remaining top array fits the budget.
The holder then keeps only the top map and the per-level stashes resident,
emulating an enclave with bounded internal storage.  With no levels this
is the flat map of Path ORAM's recursive construction, which the trivial
client uses as is.

The top map is sparse, {index: leaf}: a flat map holds only the addresses
that have a block, and no dense |V|^2 array is ever built.  The chain
depth still follows the dense rule above, so trace shapes do not depend
on how many addresses are present.  A remap rewrites in place the one
8-byte entry it touches in a level block's payload.
"""

from __future__ import annotations

import random
import secrets
import struct
from collections.abc import Iterable
from dataclasses import dataclass

from .blocks import ABSENT, block_head
from .crypto import Cipher
from .exceptions import ConfigError, IntegrityError
from .oram import DEFAULT_STASH_MAX, PathOram, oram_init
from .storage import TreeStorage

ENTRY_BYTES = 8
_ENTRY = struct.Struct(">Q")
# a level block's payload holds chi entries; tree headers store its width in 16 bits
MAX_CHI = 0xFFFF // ENTRY_BYTES


def level_token(level: int, index: int) -> bytes:
    """Block identity for packed position blocks; distinct from data tokens
    by construction (data tokens are PRF outputs, these are structured)."""
    return b"\xf0" + bytes([level]) + index.to_bytes(14, "big")


def check_chi(chi: int) -> None:
    if not 2 <= chi <= MAX_CHI:
        raise ConfigError(f"packing factor chi must be in [2, {MAX_CHI}], got {chi}")


@dataclass
class RpmLevel:
    engine: PathOram
    n_blocks: int


class RecursivePM:
    """Position lookup with remap-on-access through the level chain.

    levels[0] holds data positions; levels[-1] is the level whose block
    positions sit in the top map.  An empty chain is the flat base case:
    the top map holds the data positions directly, and addresses with no
    block are missing from it.  The level engines read and write through
    the store handed to ``attach``.
    """

    def __init__(
        self,
        address_space: int,
        data_leaves: int,
        chi: int,
        levels: list[RpmLevel],
        top: dict[int, int],
        rng: random.Random | None = None,
    ):
        self.address_space = address_space
        self.data_leaves = data_leaves
        self.chi = chi
        self.levels = levels
        self.top = top
        self.rng = rng if rng is not None else secrets.SystemRandom()

    @property
    def chain_depth(self) -> int:
        return len(self.levels)

    def attach(self, store, rng: random.Random) -> None:
        """Reach the level trees through store and draw fresh leaves from rng."""
        self.rng = rng
        for lvl in self.levels:
            lvl.engine.store = store

    def resident_bytes(self) -> int:
        """Resident state: the top map at the dense width the budget rule
        counts (one entry per address, or per last-level block), plus all
        level stashes."""
        top_size = self.levels[-1].n_blocks if self.levels else self.address_space
        total = top_size * ENTRY_BYTES
        for lvl in self.levels:
            total += len(lvl.engine.stash) * lvl.engine.params.block_width
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

        if not self.levels:
            old = self.top.get(addr, ABSENT)
            fresh = self.rng.randrange(self.data_leaves)
            if old != ABSENT:
                self.top[addr] = fresh
            return old, fresh

        # (old, fresh) walks down the chain: the current and the new leaf of
        # the block holding the entry at each level, from the top map's
        # entry to the data leaf itself
        depth = len(self.levels)
        top_idx = addr // self.chi**depth
        old = self.top.get(top_idx, ABSENT)
        fresh = self.rng.randrange(self.levels[-1].engine.params.leaves)
        if old != ABSENT:
            self.top[top_idx] = fresh

        for j in range(depth - 1, -1, -1):
            index = addr // self.chi ** (j + 1)
            if old == ABSENT:
                raise IntegrityError(f"position block {index} at level {j} is unmapped")
            offset = (addr // self.chi**j) % self.chi
            below = self.levels[j - 1].engine.params.leaves if j > 0 else self.data_leaves
            new = self.rng.randrange(below)
            captured: list[int] = []

            def rewrite(payload: bytes, at=offset * ENTRY_BYTES, new=new, captured=captured) -> bytes:
                (entry,) = _ENTRY.unpack_from(payload, at)
                captured.append(entry)
                if entry == ABSENT:
                    return payload
                return payload[:at] + _ENTRY.pack(new) + payload[at + ENTRY_BYTES :]

            self.levels[j].engine.access(level_token(j, index), old, fresh, rewrite)
            old, fresh = captured[0], new
        return old, fresh


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
    check_chi(chi)
    if address_space * ENTRY_BYTES > budget and budget < chi * ENTRY_BYTES:
        raise ConfigError(
            f"budget of {budget} bytes is smaller than one packed block ({chi * ENTRY_BYTES} bytes)"
        )

    levels: list[RpmLevel] = []
    trees: list[TreeStorage] = []
    pairs, size = assignments, address_space
    tree_id = first_tree_id
    entries = struct.Struct(f">{chi}Q")
    empty = entries.pack(*[ABSENT] * chi)
    while size * ENTRY_BYTES > budget:
        n_blocks = -(-size // chi)
        chunks: dict[int, list[int]] = {}  # only the blocks that hold entries
        for index, leaf in pairs:
            b, offset = divmod(index, chi)
            chunk = chunks.get(b)
            if chunk is None:
                chunk = chunks[b] = [ABSENT] * chi
            chunk[offset] = leaf
        heads = [
            block_head(level_token(len(levels), b), 0, entries.pack(*chunks[b]) if b in chunks else empty)
            for b in range(n_blocks)
        ]
        tree, params, leaves, stash, _ = oram_init(
            heads,
            bucket_size=bucket_size,
            payload_width=chi * ENTRY_BYTES,
            cipher=cipher,
            rng=rng,
            stash_max=stash_max,
            tree_id=tree_id,
        )
        engine = PathOram(tree_id, params, None, cipher, stash=stash, stash_max=stash_max, rng=rng)
        levels.append(RpmLevel(engine=engine, n_blocks=n_blocks))
        trees.append(tree)
        pairs, size = enumerate(leaves), n_blocks
        tree_id += 1

    rpm = RecursivePM(
        address_space=address_space,
        data_leaves=data_leaves,
        chi=chi,
        levels=levels,
        top=dict(pairs),
        rng=rng,
    )
    return rpm, trees
