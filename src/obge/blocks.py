"""Fixed-width block layout and binary-tree geometry.

The only module that knows the block layout.  Every block in a tree is the
same number of packed bytes, a head and then its leaf:

    tk (16) | payload (W)  ||  leaf (ceil(L/8), big-endian)

A block's token is ``blk[TOKEN]``, and its leaf is the last
``leaf_width`` bytes, from ``head_width`` on: as many whole bytes as the
tree's depth L needs, so 2 at depths 9 to 16 and none in a one-leaf tree.
The payload width W is fixed per tree.  A data block's payload is its next
hop as a 2-byte vertex id (``HOP``), or its source itself where it has
none; the query engine knows the destination v and forms the hop's address
w*|V|+v itself, so |V| is at most 2^16 (``protocol.MAX_VERTICES``).  Every
address has a block, so no leaf value is reserved.  Position-map trees
carry the payload width the map's shape rule picks, 16 to 512 bytes of
packed leaf entries, each as wide as the tree it points into needs (see
``recursive``).  A tree has at most 2^32 leaves.

A bucket's plaintext, which ``oram`` builds and reads, is a count byte and
then Z slots: its count of real blocks first, packed end to end, then zero
slots, the dummies.  So a bucket holds at most Z <= 255 blocks, and a
count past Z is corrupt.  It is encrypted under k2 as one AES-GCM
ciphertext whose associated data is ``bucket_ad(tree_id, node)``; so a
bucket occupies ``ciphertext_width(1 + Z * block_width)`` bytes and only
decrypts at the tree and heap index it was written for.  Data blocks at
|V| = 200 or 500 (depth 13 or 16) are 20 bytes, and their Z=5 buckets
129.

The engine holding a tree may keep its top ``cached`` levels, heap nodes
0..2^k-2, itself, as held blocks (see ``oram``); the host then stores only
levels k..L, and ``path_width`` is the width of the host's part of a path.
How many levels a party caches is the scheme's rule
(``protocol.SchemeParams.data_params``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .crypto import TOKEN_BYTES, ciphertext_width

TOKEN = slice(0, TOKEN_BYTES)
HOP = struct.Struct(">H")  # a data block's payload: its next hop's vertex id
HEAD_WIDTH = TOKEN_BYTES + HOP.size  # a data block's head
# bucket_ad(tree_id, node): the associated data binding a bucket ciphertext
# to its tree and heap index
bucket_ad = struct.Struct(">BQ").pack


def write_heads(heads: bytearray, start: int, tokens: bytes, hops: Iterable[int]) -> None:
    """Write data-block heads into heads, from head index start on: one per
    token of tokens, packed end to end, with its hop, a vertex id.  The
    heads are written column by column, each token byte and then each byte
    of the big-endian hops through one strided slice, so no Python
    statement runs per head."""
    count, w = len(tokens) // TOKEN_BYTES, HEAD_WIDTH
    at = start * w
    end = at + count * w
    packed = struct.pack(f">{count}{HOP.format[1:]}", *hops)
    for j in range(TOKEN_BYTES):
        heads[at + j : end : w] = tokens[j::TOKEN_BYTES]
    for j in range(HOP.size):
        heads[at + TOKEN_BYTES + j : end : w] = packed[j :: HOP.size]


@dataclass
class Block:
    tk: bytes
    payload: bytes
    leaf: int

    def pack(self, params: TreeParams) -> bytes:
        return params.block_struct.pack(self.tk, self.payload, self.leaf.to_bytes(params.leaf_width, "big"))


def unpack_block(raw: bytes, params: TreeParams) -> Block:
    """The block in a packed slot."""
    tk, payload, leaf = params.block_struct.unpack(raw)
    return Block(tk, payload, int.from_bytes(leaf, "big"))


def block_leaves(packed: bytes, params: TreeParams) -> list[int]:
    """The leaf of each of the blocks packed end to end, in one pass."""
    words, mask = params.leaf_words
    return [word & mask for (word,) in words.iter_unpack(packed)]


@dataclass(frozen=True)
class TreeParams:
    """Geometry of one ORAM tree: depth, bucket size, block payload width,
    and how many top levels the engine keeps from the host."""

    depth: int  # L; path holds depth+1 buckets
    bucket_size: int  # Z
    payload_width: int
    cached: int = 0  # k; levels 0..k-1 stay with the engine, the host holds k..L

    @cached_property
    def leaves(self) -> int:
        return 1 << self.depth

    @cached_property
    def node_count(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @cached_property
    def head_width(self) -> int:  # and so the offset of the leaf
        return TOKEN_BYTES + self.payload_width

    @cached_property
    def leaf_width(self) -> int:
        """Bytes of a block's leaf: the fewest that hold leaf 2^L - 1."""
        return -(-self.depth // 8)

    @cached_property
    def block_width(self) -> int:
        return self.head_width + self.leaf_width

    @cached_property
    def block_struct(self) -> struct.Struct:
        """Token, payload and leaf bytes."""
        return struct.Struct(f">{TOKEN_BYTES}s{self.payload_width}s{self.leaf_width}s")

    @cached_property
    def leaf_words(self) -> tuple[struct.Struct, int]:
        """A block's leaf as struct and mask: the struct reads the 1-, 2-
        or 4-byte big-endian word that ends the block, and the mask keeps
        its last leaf_width bytes (none in a one-leaf tree)."""
        code = "BBHII"[self.leaf_width]
        words = struct.Struct(f">{self.block_width - struct.calcsize(code)}x{code}")
        return words, (1 << 8 * self.leaf_width) - 1

    @cached_property
    def dummy_fills(self) -> list[bytes]:
        """All-zero dummy slots, k of them at index k, for k up to Z;
        appended to the real blocks of every bucket that is not full."""
        return [bytes(self.block_width * k) for k in range(self.bucket_size + 1)]

    @cached_property
    def plain_width(self) -> int:
        """A bucket before encryption: the count byte and Z slots."""
        return 1 + self.bucket_size * self.block_width

    @cached_property
    def bucket_width(self) -> int:
        """One ciphertext of a bucket's plaintext."""
        return ciphertext_width(self.plain_width)

    @cached_property
    def cache_nodes(self) -> int:
        """Buckets of the top k levels, heap nodes 0..2^k-2, which the host
        does not store; also the heap index of the host's first bucket."""
        return (1 << self.cached) - 1

    @cached_property
    def host_nodes(self) -> int:
        return self.node_count - self.cache_nodes

    @cached_property
    def host_levels(self) -> int:
        """Buckets on the host's part of a path: levels k..L."""
        return self.depth + 1 - self.cached

    @cached_property
    def path_width(self) -> int:
        """Bytes of one path read or write on the host."""
        return self.host_levels * self.bucket_width

    @cached_property
    def host_path(self) -> tuple[tuple[int, int], ...]:
        """The host's levels k..L, level k first, each as the heap index of
        its first bucket and a shift: the path to leaf passes through heap
        node first + (leaf >> shift) of each.  The engine reads a path's
        associated data and the host its byte offsets off this one table."""
        d = self.depth
        return tuple(((1 << level) - 1, d - level) for level in range(self.cached, d + 1))

    def check_leaf(self, leaf: int) -> None:
        """IndexError unless leaf is one of the tree's 2^L."""
        if not 0 <= leaf < self.leaves:
            raise IndexError(f"leaf {leaf} out of range [0, {self.leaves})")

    def path_nodes(self, leaf: int) -> list[int]:
        """Heap indices of the buckets on the root-to-leaf path, root first."""
        self.check_leaf(leaf)
        d = self.depth
        return [(1 << level) - 1 + (leaf >> (d - level)) for level in range(d + 1)]


def tree_depth_for(real_slots: int, bucket_size: int) -> int:
    """Depth rule: the leaf count is the number of real slots divided by Z,
    rounded up to a power of two."""
    if real_slots <= 0:
        return 0
    min_leaves = -(-real_slots // bucket_size)
    return (min_leaves - 1).bit_length()
