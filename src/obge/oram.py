"""Path ORAM engine: oblivious single-block access over a bucket tree.

Every access, hit or miss, reads one root-to-leaf path and writes it back
re-encrypted, so the storage owner sees a fixed-shape (read, write) pair
per access and a leaf id that is always a fresh uniform sample.  Real
blocks displaced from the path wait in the controller-side stash, as the
packed bytes of their bucket slots, until a later write-back can evict them
to a compatible bucket; an access decodes only the block it returns.

The bucket is the unit of encryption: one AES-GCM ciphertext over its Z
serialized blocks, dummies included, so always of the same width, with
(tree id, heap index) as associated data.  Every bucket on a path is
re-encrypted under a fresh nonce on every write, so full, partly full and
empty buckets look alike, and a bucket the host moves to another node or
tree fails authentication on the next access that reads it.  The binding
does not cover freshness: the host can still put back a node's own older
ciphertext (rollback).

Tree-top cache: the engine may keep the top k levels of its tree (heap
nodes 0..2^k-2, ``params.cached``) as plaintext buckets in ``cache``.  An
access reads the cached buckets on its path as it reads decrypted ones,
and eviction places blocks exactly as without the cache, storing cached
levels' plaintext instead of encrypting it; only levels k..L cross to the
host.  Cached buckets are still buckets, so the stash bound is unchanged.

The engine is the only holder of its stash and cache.  ``oram_init``
builds it with its tree, a state file's loader builds it from the saved
contents, and a deployment only gives it a store and a leaf sampler; a
party's state holds the engine itself, so saving the state writes what
the last access left.
"""

from __future__ import annotations

import random

from .blocks import TAIL, TOKEN, Block, TreeParams, bucket_ad, unpack_block
from .crypto import Cipher
from .exceptions import CapacityError, IntegrityError, StashOverflowError
from .storage import TreeStorage

DEFAULT_STASH_MAX = 128


class PathOram:
    """Controller-side access logic for one tree.

    The store is anything exposing ``read_path(tree_id, leaf)`` and
    ``write_path(tree_id, leaf, data)``; local storage and the wire client
    both qualify; the wire client holds a write back until its next read,
    and flushing it is the caller's job.  An engine is built without one:
    whoever runs it sets ``store``, and ``rng``, which draws the leaves of
    dummy rounds.
    Position lookup is the caller's job: access takes the block's current
    leaf (or None for a dummy round) and the fresh leaf it should move to.
    One access may be in flight at a time.  cache holds the plaintext of
    the 2^k - 1 cached buckets, heap nodes in order.
    """

    def __init__(
        self,
        tree_id: int,
        params: TreeParams,
        cipher: Cipher,
        stash: list[bytes],
        cache: list[bytes],
        stash_max: int = DEFAULT_STASH_MAX,
    ):
        self.tree_id = tree_id
        self.params = params
        self.store = None
        self.cipher = cipher
        self.stash = stash
        self.cache = cache
        if len(cache) != params.cache_nodes:
            raise ValueError(
                f"tree {tree_id}: cache of {len(cache)} buckets, "
                f"{params.cached} cached levels need {params.cache_nodes}"
            )
        self.stash_max = stash_max
        self.rng = None
        self.max_stash_seen = len(self.stash)
        self.access_count = 0

    def access(
        self,
        tk: bytes | None,
        cur_leaf: int | None,
        new_leaf: int | None,
        update_payload=None,
    ) -> Block | None:
        """One oblivious access.

        With a token and its current leaf: fetch the path, pull the block
        into the stash, remap it to new_leaf, optionally rewrite its
        payload, evict, and return it.  With tk or cur_leaf None: a dummy
        round over a uniformly random path with identical wire shape,
        returning None.
        """
        p = self.params
        is_real = tk is not None and cur_leaf is not None
        if is_real and not (0 <= new_leaf < p.leaves):
            raise IndexError(f"new leaf {new_leaf} out of range [0, {p.leaves})")
        x = cur_leaf if is_real else self.rng.randrange(p.leaves)
        nodes = p.path_nodes(x)
        k = p.cached
        ads = [bucket_ad(self.tree_id, node) for node in nodes[k:]]
        raw = self.store.read_path(self.tree_id, x)
        if len(raw) != p.path_width:
            raise IntegrityError(
                f"tree {self.tree_id}: path read of {len(raw)} bytes, expected {p.path_width}"
            )

        stash = self.stash
        bw, cw = p.block_width, p.bucket_width
        ends = range(bw, p.plain_width + 1, bw)  # each slot ends in its flag byte
        # root to leaf: the cached levels, then the host's; two loops keep a
        # per-level test off the path
        for node in nodes[:k]:
            plain = self.cache[node]
            for end in ends:
                if plain[end - 1]:  # dummies stay behind
                    stash.append(plain[end - bw : end])
        decrypt = self.cipher.decrypt
        for i, ad in enumerate(ads):
            plain = decrypt(raw[i * cw : (i + 1) * cw], ad)
            for end in ends:
                if plain[end - 1]:
                    stash.append(plain[end - bw : end])

        found: Block | None = None
        if is_real:
            for i, blk in enumerate(stash):
                if blk[TOKEN] == tk:
                    break
            else:
                raise IntegrityError("mapped block missing from its path and stash")
            found = unpack_block(blk, p)
            found.leaf = new_leaf
            if update_payload is not None:
                found.payload = update_payload(found.payload)
            stash[i] = found.pack(p)

        self._evict_and_write(x, nodes, ads)
        self.access_count += 1
        if len(self.stash) > self.stash_max:
            raise StashOverflowError(f"stash holds {len(self.stash)} blocks, limit {self.stash_max}")
        self.max_stash_seen = max(self.max_stash_seen, len(self.stash))
        return found

    def _evict_and_write(self, x: int, nodes: list[int], ads: list[bytes]) -> None:
        """Greedy write-back: place stash blocks in the deepest bucket of
        the path to x that their own leaf also passes through.

        One pass sorts the stash by that deepest level, the depth minus the
        bit length of leaf XOR x; the buckets then fill from the leaf up,
        and blocks that do not fit carry toward the root, where every block
        is eligible.  What is left after the root stays in the stash.
        Levels below k go to the cache as plaintext; the rest are encrypted
        under ads, which starts at level k, and written to the host.
        """
        p = self.params
        depth, z, hw, k = p.depth, p.bucket_size, p.head_width, p.cached
        tail_at = TAIL.unpack_from
        by_level: list[list[bytes]] = [[] for _ in range(depth + 1)]
        for blk in self.stash:
            by_level[depth - (tail_at(blk, hw)[0] ^ x).bit_length()].append(blk)
        encrypt = self.cipher.encrypt
        fills = p.dummy_fills
        carry: list[bytes] = []
        buckets: list[bytes] = []  # the host's levels, leaf first
        for level, ad in zip(range(depth, k - 1, -1), reversed(ads)):
            carry += by_level[level]
            picked = carry[:z]
            del carry[:z]
            buckets.append(encrypt(b"".join(picked) + fills[z - len(picked)], ad))
        for level in range(k - 1, -1, -1):  # then the cached levels
            carry += by_level[level]
            picked = carry[:z]
            del carry[:z]
            self.cache[nodes[level]] = b"".join(picked) + fills[z - len(picked)]
        self.stash = carry
        buckets.reverse()
        self.store.write_path(self.tree_id, x, b"".join(buckets))


def oram_init(
    heads: list[bytes],
    params: TreeParams,
    cipher: Cipher,
    rng: random.Random,
    stash_max: int = DEFAULT_STASH_MAX,
    tree_id: int = 0,
) -> tuple[PathOram, TreeStorage, list[int]]:
    """Build the encrypted tree of the given geometry for a set of real
    blocks, given as heads, and the engine over it.

    Each block gets an independent uniform leaf in its tail and is placed
    in the deepest free bucket on that leaf's path, overflowing into the
    engine's stash.  Free slots hold dummies.  The top params.cached levels
    (at most the depth) stay plaintext in the engine's cache; every other
    bucket, empty or not, is one ciphertext bound to (tree_id, node) and
    goes to the host's TreeStorage.  A head of the wrong width would shift
    its bucket's later slots: ValueError.

    Returns (engine, TreeStorage, leaf assignment per head); the engine has
    no store yet.
    """
    bucket_size = params.bucket_size
    if not 0 <= params.cached <= params.depth:
        raise ValueError(f"cannot cache {params.cached} levels of a depth-{params.depth} tree")
    if len(heads) > params.node_count * bucket_size + stash_max:
        raise CapacityError(
            f"{len(heads)} blocks exceed tree capacity "
            f"{params.node_count * bucket_size} plus stash {stash_max}"
        )

    leaves = [rng.randrange(params.leaves) for _ in heads]
    placed: dict[int, list[bytes]] = {}
    stash: list[bytes] = []
    first_leaf = params.leaves - 1  # heap index of leaf 0
    hw, tail = params.head_width, TAIL.pack
    for head, leaf in zip(heads, leaves):
        if len(head) != hw:
            raise ValueError(f"block head is {len(head)} bytes, tree expects {hw}")
        blk = head + tail(leaf, 1)
        node = first_leaf + leaf
        while True:  # leaf bucket first, then up toward the root
            slot_list = placed.get(node)
            if slot_list is None:
                placed[node] = [blk]
                break
            if len(slot_list) < bucket_size:
                slot_list.append(blk)
                break
            if node == 0:
                stash.append(blk)
                break
            node = (node - 1) >> 1
    if len(stash) > stash_max:
        raise CapacityError(f"initial placement overflowed the stash ({len(stash)} blocks)")

    bw, first = params.bucket_width, params.cache_nodes
    buckets = bytearray(params.host_nodes * bw)
    cache: list[bytes] = []
    fills = params.dummy_fills
    for node in range(params.node_count):
        picked = placed.get(node, ())
        plain = b"".join(picked) + fills[bucket_size - len(picked)]
        if node < first:
            cache.append(plain)
        else:
            at = (node - first) * bw
            buckets[at : at + bw] = cipher.encrypt(plain, bucket_ad(tree_id, node))

    tree = TreeStorage(tree_id=tree_id, params=params, buckets=buckets)
    return PathOram(tree_id, params, cipher, stash, cache, stash_max), tree, leaves


def verify_placement(tree, engine: PathOram, leaf_of: dict[bytes, int]) -> None:
    """Debug walker: read the engine's cached buckets and decrypt the host's
    with its cipher, and confirm every block named in leaf_of (token ->
    mapped leaf) sits either in the engine's stash or on the path to its
    mapped leaf."""
    p, cipher, stash, cache = tree.params, engine.cipher, engine.stash, engine.cache
    bw = p.block_width
    located: dict[bytes, int] = {}
    for node in range(p.node_count):
        if node < p.cache_nodes:
            plain = cache[node]
        else:
            plain = cipher.decrypt(tree.get_bucket(node), bucket_ad(tree.tree_id, node))
        for end in range(bw, len(plain) + 1, bw):
            if plain[end - 1]:
                tk = plain[end - bw : end][TOKEN]
                if tk in located:
                    raise AssertionError("token stored twice in the tree")
                located[tk] = node
    stash_tokens = {b[TOKEN] for b in stash}
    if len(stash_tokens) != len(stash):
        raise AssertionError("token appears twice in the stash")
    for tk, leaf in leaf_of.items():
        if tk in stash_tokens:
            continue
        node = located.get(tk)
        if node is None:
            raise AssertionError("mapped block absent from tree and stash")
        if node not in p.path_nodes(leaf):
            raise AssertionError("block stored off the path to its mapped leaf")
