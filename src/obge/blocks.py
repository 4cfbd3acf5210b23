"""Fixed-width block serialization and binary-tree geometry.

Every block in a tree serializes to the same width:

    tk (16) | next_addr (8) | payload (W) | leaf (8) | flag (1)

The flag byte is 1 for a real block; a dummy slot is all zero bytes.  A
block names its next hop by dense address only; the query engine derives
that hop's token with the PRF key.  The payload width W is fixed per tree:
the data tree carries a k1 ciphertext of a vertex pair, position-map trees
carry chi packed 8-byte leaf entries.  A bucket is the concatenation of its
Z serialized blocks, dummies included, encrypted under k2 as one AES-GCM
ciphertext whose associated data is ``bucket_ad(tree_id, node)``; so a
bucket occupies ``ciphertext_width(Z * block_width)`` bytes and only
decrypts at the tree and heap index it was written for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .crypto import TOKEN_BYTES, ciphertext_width

# payload of a data-tree block: k1 ciphertext of an 8-byte encoded pair
DATA_PAYLOAD_WIDTH = ciphertext_width(8)

# reserved leaf value marking "no block stored at this address"
ABSENT = (1 << 64) - 1

_FIXED = TOKEN_BYTES + 8 + 8 + 1  # tk, next_addr, leaf, flag
_BUCKET_AD = struct.Struct(">BQ")  # tree id, heap index of the bucket

_BLOCK_STRUCTS: dict[int, struct.Struct] = {}
_DUMMY_FILLS: dict[tuple[int, int], list[bytes]] = {}


def block_width(payload_width: int) -> int:
    """Serialized width of one block carrying a payload of the given width;
    the flag byte is the last byte, nonzero for real blocks."""
    return _FIXED + payload_width


def bucket_ad(tree_id: int, node: int) -> bytes:
    """Associated data binding a bucket ciphertext to its tree and node."""
    return _BUCKET_AD.pack(tree_id, node)


def _block_struct(payload_width: int) -> struct.Struct:
    s = _BLOCK_STRUCTS.get(payload_width)
    if s is None:
        s = _BLOCK_STRUCTS[payload_width] = struct.Struct(f">16sQ{payload_width}sQB")
    return s


@dataclass
class Block:
    tk: bytes
    next_addr: int
    payload: bytes
    leaf: int

    def pack(self, payload_width: int) -> bytes:
        if len(self.payload) != payload_width:
            raise ValueError(f"payload is {len(self.payload)} bytes, tree expects {payload_width}")
        return _block_struct(payload_width).pack(self.tk, self.next_addr, self.payload, self.leaf, 1)


def unpack_block(raw: bytes, payload_width: int) -> Block:
    """The block in a slot whose flag byte is set; callers check the flag."""
    if len(raw) != _FIXED + payload_width:
        raise ValueError(f"block is {len(raw)} bytes, expected {_FIXED + payload_width}")
    tk, next_addr, payload, leaf, _ = _block_struct(payload_width).unpack(raw)
    return Block(tk, next_addr, payload, leaf)


def dummy_fills(payload_width: int, bucket_size: int) -> list[bytes]:
    """All-zero dummy slots, k of them at index k, for k up to the bucket
    size; constant per width, so built once and appended to the real blocks
    of every bucket that is not full."""
    key = (payload_width, bucket_size)
    fills = _DUMMY_FILLS.get(key)
    if fills is None:
        width = block_width(payload_width)
        fills = _DUMMY_FILLS[key] = [bytes(width * k) for k in range(bucket_size + 1)]
    return fills


@dataclass(frozen=True)
class TreeParams:
    """Geometry of one ORAM tree: depth, bucket size, block payload width."""

    depth: int  # L; path holds depth+1 buckets
    bucket_size: int  # Z
    payload_width: int

    @cached_property
    def leaves(self) -> int:
        return 1 << self.depth

    @cached_property
    def node_count(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @cached_property
    def block_width(self) -> int:
        return block_width(self.payload_width)

    @cached_property
    def bucket_width(self) -> int:
        """One ciphertext of Z serialized blocks."""
        return ciphertext_width(self.bucket_size * self.block_width)

    @cached_property
    def path_width(self) -> int:
        return (self.depth + 1) * self.bucket_width

    def path_nodes(self, leaf: int) -> list[int]:
        """Heap indices of the buckets on the root-to-leaf path, root first."""
        if not (0 <= leaf < self.leaves):
            raise IndexError(f"leaf {leaf} out of range [0, {self.leaves})")
        d = self.depth
        return [(1 << level) - 1 + (leaf >> (d - level)) for level in range(d + 1)]


def tree_depth_for(real_slots: int, bucket_size: int) -> int:
    """Depth rule: the leaf count is the number of real slots divided by Z,
    rounded up to a power of two."""
    if real_slots <= 0:
        return 0
    min_leaves = -(-real_slots // bucket_size)
    return (min_leaves - 1).bit_length()
