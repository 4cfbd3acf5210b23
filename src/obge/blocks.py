"""Fixed-width block layout and binary-tree geometry.

The only module that knows the block layout.  Every block in a tree is the
same number of packed bytes, a head and a tail:

    tk (16) | next_addr (4) | payload (W)  ||  leaf (4) | flag (1)

A block's token is ``blk[TOKEN]`` and its tail starts at ``head_width``.
The flag byte is 1 for a real block; a dummy slot is all zero bytes.  A
block names its next hop by dense address w*|V|+v only; the query engine
derives that hop's token with the PRF key, and the hop addresses are the
query's answer.  Addresses and leaves are 4 bytes, so |V| is at most
2^16 (``protocol.MAX_VERTICES``) and a tree has at most 2^32 leaves.  The
payload width W is fixed per tree: data blocks carry none (W = 0, 25-byte
blocks), and position-map trees carry the payload width the map's shape
rule picks, 16 to 512 bytes of packed leaf entries, each as wide as the
tree it points into needs (see ``recursive``).  A
bucket is the concatenation of its Z packed blocks, dummies included,
encrypted under k2 as one AES-GCM ciphertext whose associated data is
``bucket_ad(tree_id, node)``; so a bucket occupies
``ciphertext_width(Z * block_width)`` bytes and only decrypts at the tree
and heap index it was written for.

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

# reserved leaf value marking "no block stored at this address"; the map
# returns it and stores it as an all-ones cell, no block tail holds it
ABSENT = (1 << 64) - 1

_HEAD = struct.Struct(f">{TOKEN_BYTES}sI")  # tk, next_addr; the payload follows
HEAD_WIDTH = _HEAD.size  # a data block's head, which has no payload
TOKEN = slice(0, TOKEN_BYTES)
TAIL = struct.Struct(">IB")  # leaf, flag; at offset head_width
_BUCKET_AD = struct.Struct(">BQ")  # tree id, heap index of the bucket


def bucket_ad(tree_id: int, node: int) -> bytes:
    """Associated data binding a bucket ciphertext to its tree and node."""
    return _BUCKET_AD.pack(tree_id, node)


def block_head(tk: bytes, next_addr: int, payload: bytes = b"") -> bytes:
    """The leaf-independent part of a block; placement appends the tail."""
    return _HEAD.pack(tk, next_addr) + payload


def write_heads(heads: bytearray, start: int, tokens: bytes, next_addrs: Iterable[int]) -> None:
    """Write payload-free heads into heads, from head index start on: one
    per token of tokens, packed end to end, with its next address.  The
    heads are written column by column, each token byte and then each byte
    of the big-endian addresses through one strided slice, so no Python
    statement runs per head."""
    count, w = len(tokens) // TOKEN_BYTES, HEAD_WIDTH
    at = start * w
    end = at + count * w
    addrs = struct.pack(f">{count}I", *next_addrs)
    for j in range(TOKEN_BYTES):
        heads[at + j : end : w] = tokens[j::TOKEN_BYTES]
    for j in range(w - TOKEN_BYTES):  # the next address's bytes
        heads[at + TOKEN_BYTES + j : end : w] = addrs[j :: w - TOKEN_BYTES]


@dataclass
class Block:
    tk: bytes
    next_addr: int
    payload: bytes
    leaf: int

    def pack(self, params: TreeParams) -> bytes:
        return params.block_struct.pack(self.tk, self.next_addr, self.payload, self.leaf, 1)


def unpack_block(raw: bytes, params: TreeParams) -> Block:
    """The block in a slot whose flag byte is set; callers check the flag."""
    tk, next_addr, payload, leaf, _ = params.block_struct.unpack(raw)
    return Block(tk, next_addr, payload, leaf)


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
    def head_width(self) -> int:  # and so the offset of the tail
        return _HEAD.size + self.payload_width

    @cached_property
    def block_width(self) -> int:
        return self.head_width + TAIL.size

    @cached_property
    def block_struct(self) -> struct.Struct:
        return struct.Struct(f"{_HEAD.format}{self.payload_width}s{TAIL.format[1:]}")

    @cached_property
    def dummy_fills(self) -> list[bytes]:
        """All-zero dummy slots, k of them at index k, for k up to Z;
        appended to the real blocks of every bucket that is not full."""
        return [bytes(self.block_width * k) for k in range(self.bucket_size + 1)]

    @cached_property
    def plain_width(self) -> int:
        """Z serialized blocks: a bucket before encryption."""
        return self.bucket_size * self.block_width

    @cached_property
    def bucket_width(self) -> int:
        """One ciphertext of Z serialized blocks."""
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

    def path_nodes(self, leaf: int, top: int = 0, base: int = 0) -> list[int]:
        """Heap indices less base of the buckets on the path to leaf from
        level top down: by default the root-to-leaf path, root first.  With
        top k and base 2^k - 1 they are the positions of the host's buckets
        in its array of levels k..L."""
        if not (0 <= leaf < self.leaves):
            raise IndexError(f"leaf {leaf} out of range [0, {self.leaves})")
        d, off = self.depth, base + 1
        return [(1 << level) - off + (leaf >> (d - level)) for level in range(top, d + 1)]


def tree_depth_for(real_slots: int, bucket_size: int) -> int:
    """Depth rule: the leaf count is the number of real slots divided by Z,
    rounded up to a power of two."""
    if real_slots <= 0:
        return 0
    min_leaves = -(-real_slots // bucket_size)
    return (min_leaves - 1).bit_length()
