"""Path ORAM engine: oblivious single-block access over a bucket tree.

Every access, to a block or a dummy one, reads one root-to-leaf path and
writes it back re-encrypted, so the storage owner sees a fixed-shape
(read, write) pair per access and a leaf id that is always a fresh
uniform sample.  Real blocks that a write-back cannot place stay with the
engine, held as the packed bytes of their bucket slots until a later
write-back can evict them to a compatible bucket; an access decodes only
the block it returns.

The bucket is the unit of encryption: one AES-GCM ciphertext over its
count byte and Z slots, its real blocks first and then zero slots, so
always of the same width, with (tree id, heap index) as associated data.
An access works the host's part of the path whole: it takes each bucket's
heap index from the tree's host-path table (``TreeParams.host_path``),
opens the path's buckets in one call (``Cipher.open_path``), reads only
the first count slots of each, its real blocks, and seals the path it
writes back in one call (``Cipher.seal_path``).  A bucket that fails
authentication, or a count past Z, fails the access with IntegrityError
naming the tree and node.  Every bucket on a path is re-encrypted under
a fresh nonce on every write, so full, partly full and empty buckets look
alike, and a bucket the host moves to another node or tree fails
authentication on the next access that reads it.  The binding does not
cover freshness: the host can still put back a node's own older
ciphertext (rollback).

Held blocks: the engine may keep the top k levels of its tree
(``params.cached``), and the host then stores only levels k..L.  Those
levels never leave the engine, so it keeps no buckets for them: every
block it holds, whether it would sit in a top bucket or in the stash, is
in one of 2^k groups keyed by the top k bits of its leaf.  Only the
groups that hold a block are kept, so an engine's memory follows its
held blocks and not 2^k.  An access to path x reads the host's levels of
that path into a working copy of group x >> (L-k), the only group whose
blocks may go on them, searches it alone, evicts it into levels k..L,
leaf first, and moves the remapped block to its new leaf's group; what
does not fit stays held.  The copy replaces the group only once the store
has taken the write-back, so an access that fails on a bucket or a
missing block leaves the held blocks as they were.  The host sees the
reads and writes it would see with the top levels kept as buckets.  At
k=0 there is one group, the stash; at k=L each group is one leaf's, and
the host stores the leaf level alone.  ``held_limit`` bounds the held
blocks at the memory of the stash and the 2^k - 1 top buckets together.
The stash allowance is the constant STASH_MAX = 128: by the Path ORAM
stash bound (Stefanov et al., CCS 2013) a stash of 128 blocks at Z=5
overflows with probability about 2^-90.

``oram_init`` builds a tree from block heads packed end to end: it draws
the leaves into an array with one call for random bytes, writes each
block straight into its slot of the host's bucket buffer, where zero slots
are the dummies, writes every bucket's count with one strided assignment,
and encrypts the buckets in place, in runs of SETUP_RUN sealed in one call
each, so it holds no Python object per block.

The engine is the only holder of its held blocks.  ``oram_init`` builds it
with its tree and a state file's loader from the saved blocks, both from
the held blocks packed end to end as the file stores them; a deployment
only gives it a store.  A party's state holds the engine itself,
so saving the state writes what the last access left.  Building an engine
refuses held blocks it could not keep: more than ``held_limit``, or one
mapped past the tree's last leaf, which eviction would put off its path.
Held blocks come group by group, as ``held_blocks`` lists them and
``oram_init`` passes them; blocks out of group order are refused too, so a
group loads in the order it was saved.

The engine draws no leaves: the caller names the path of every access,
including a dummy round's, which must be a fresh uniform leaf.
"""

from __future__ import annotations

import random
from array import array

from .blocks import TOKEN, Block, TreeParams, block_leaves, bucket_ad, unpack_block
from .crypto import Cipher
from .exceptions import CapacityError, IntegrityError, StashOverflowError
from .storage import TreeStorage

STASH_MAX = 128
# buckets oram_init seals in one call: it holds one run's ciphertexts at a
# time beside the tree
SETUP_RUN = 256
# a bucket's count byte, by count
_COUNTS = [bytes((n,)) for n in range(256)]


def held_limit(params: TreeParams) -> int:
    """Most blocks an engine may hold: the stash allowance plus the Z slots
    of each of the 2^k - 1 top buckets whose place the held blocks take."""
    return STASH_MAX + params.bucket_size * params.cache_nodes


class PathOram:
    """Controller-side access logic for one tree.

    The store is anything exposing ``read_path(tree_id, leaf)`` and
    ``write_path(tree_id, leaf, data)``; local storage and the wire client
    both qualify; the wire client holds a write back until its next read,
    and flushing it is the caller's job.  An engine is built without one:
    whoever runs it sets ``store``.
    Position lookup is the caller's job: access takes the leaf of the path
    to read, the block's current leaf or a dummy round's fresh one, and the
    fresh leaf a block should move to.
    One access may be in flight at a time.  held[g] holds the blocks whose
    leaf has top k bits g, for the groups that hold any: a group is made
    when a block joins it and dropped when eviction empties it.
    held_count is their total and max_stash_seen its peak.
    """

    def __init__(self, tree_id: int, params: TreeParams, cipher: Cipher, held: bytes):
        self.tree_id = tree_id
        self.params = params
        self.store = None
        self.cipher = cipher
        self.held_max = held_limit(params)
        self.empty_bucket = bytes(params.plain_width)  # count 0, every slot zero
        bw, leaves = params.block_width, params.leaves
        count = len(held) // bw
        if count > self.held_max:
            raise CapacityError(f"tree {tree_id} holds {count} blocks, limit {self.held_max}")
        mapped = block_leaves(held, params)
        if max(mapped, default=0) >= leaves:
            raise IntegrityError(f"tree {tree_id} holds a block mapped to leaf {max(mapped)} of {leaves}")
        shift = params.depth - params.cached
        groups = [leaf >> shift for leaf in mapped]
        if groups != sorted(groups):
            raise IntegrityError(f"tree {tree_id} held blocks are out of group order")
        self.held: dict[int, list[bytes]] = {}  # only the groups that hold a block
        for g, at in zip(groups, range(0, len(held), bw)):
            self.held.setdefault(g, []).append(held[at : at + bw])
        self.held_count = self.max_stash_seen = count
        self.access_count = 0

    def held_blocks(self) -> list[bytes]:
        """Every held block, group by group in group order."""
        held = self.held
        return [blk for g in sorted(held) for blk in held[g]]

    def access(
        self,
        tk: bytes | None,
        leaf: int,
        new_leaf: int | None = None,
        update_payload=None,
    ) -> Block | None:
        """One oblivious access over the path to leaf.

        With a token, leaf is its block's current leaf: fetch the path,
        pull the block from the path or its held group, remap it to
        new_leaf, optionally rewrite its payload, evict, and return it.
        With tk None: a dummy round with identical wire shape, returning
        None; leaf must then be a fresh uniform sample.  The query loop no
        longer makes one, since every address has a block; it is kept for
        rounds that pad a query.
        """
        p = self.params
        p.check_leaf(leaf)
        if tk is not None and not (0 <= new_leaf < p.leaves):
            raise IndexError(f"new leaf {new_leaf} out of range [0, {p.leaves})")
        tree_id = self.tree_id
        ads = [bucket_ad(tree_id, first + (leaf >> shift)) for first, shift in p.host_path]
        raw = self.store.read_path(tree_id, leaf)
        if len(raw) != p.path_width:
            raise IntegrityError(f"tree {tree_id}: path read of {len(raw)} bytes, expected {p.path_width}")
        try:
            plains = self.cipher.open_path(raw, p.bucket_width, ads)
        except IntegrityError as exc:
            raise IntegrityError(f"tree {tree_id} node {self._node(leaf, exc.index)}: {exc}") from None

        shift = p.depth - p.cached
        g = leaf >> shift
        # the path's blocks join a copy of the group, which replaces it
        # only once the store has taken the write-back: a bucket or block
        # that fails the access leaves the held blocks as they were
        group = self.held.get(g)
        work = group.copy() if group else []
        before = len(work)
        z, bw = p.bucket_size, p.block_width
        for i, plain in enumerate(plains):
            n = plain[0]  # the bucket's real blocks come first; dummies stay behind
            if n > z:
                raise IntegrityError(f"tree {tree_id} node {self._node(leaf, i)}: bucket counts {n} blocks, Z is {z}")
            for at in range(1, 1 + n * bw, bw):
                work.append(plain[at : at + bw])

        found: Block | None = None
        moved: bytes | None = None
        if tk is not None:
            for i, blk in enumerate(work):
                if blk[TOKEN] == tk:
                    break
            else:
                raise IntegrityError("mapped block missing from its path and held blocks")
            found = unpack_block(blk, p)
            found.leaf = new_leaf
            if update_payload is not None:
                found.payload = update_payload(found.payload)
            if new_leaf >> shift == g:
                work[i] = found.pack(p)
            else:  # its new path leaves this one above level k
                del work[i]
                moved = found.pack(p)

        left = self._evict_and_write(leaf, work, ads)
        held = self.held
        if left:
            held[g] = left
        elif group:
            del held[g]
        if moved is not None:
            held.setdefault(new_leaf >> shift, []).append(moved)
        self.held_count += len(left) - before + (moved is not None)
        self.access_count += 1
        if self.held_count > self.held_max:
            raise StashOverflowError(
                f"tree {self.tree_id}: {self.held_count} held blocks, limit {self.held_max}"
            )
        if self.held_count > self.max_stash_seen:
            self.max_stash_seen = self.held_count
        return found

    def _node(self, leaf: int, i: int) -> int:
        """Heap index of the host's i-th bucket, level k first, on the path to leaf."""
        first, shift = self.params.host_path[i]
        return first + (leaf >> shift)

    def _evict_and_write(self, x: int, group: list[bytes], ads: list[bytes]) -> list[bytes]:
        """Greedy write-back of x's group into the host's levels k..L of the
        path to x; returns the blocks that stay held.

        Each block goes to the deepest bucket of the path that its own leaf
        also passes through, level L minus the bit length of leaf XOR x,
        which the group's shared top k bits keep at k or below.  One pass
        sorts the group by that level; the buckets then fill from the leaf
        up, and blocks that do not fit carry toward level k.  Each bucket's
        plaintext is its count byte, its blocks and zero slots, and the
        path's plaintexts are sealed in one call, each under its entry of
        ads, level k first.
        """
        p = self.params
        z, top = p.bucket_size, p.host_levels - 1
        by_level: list[list[bytes]] = [[] for _ in range(top + 1)]  # index 0 is level k
        words, mask = p.leaf_words
        leaf_of = words.unpack_from
        for blk in group:
            by_level[top - ((leaf_of(blk)[0] & mask) ^ x).bit_length()].append(blk)
        fills, empty = p.dummy_fills, self.empty_bucket
        carry: list[bytes] = []
        plains: list[bytes] = []  # leaf first
        for level in reversed(by_level):
            carry += level
            if not carry:
                plains.append(empty)
                continue
            picked = carry[:z]
            del carry[:z]
            n = len(picked)
            plains.append(b"".join((_COUNTS[n], *picked, fills[z - n])))
        plains.reverse()
        self.store.write_path(self.tree_id, x, self.cipher.seal_path(plains, ads))
        return carry


def draw_leaves(rng: random.Random, depth: int, count: int) -> array:
    """count independent uniform leaves of a depth-L tree, as an array('I'):
    one call for 4 random bytes a leaf, each word masked to its low L bits.
    The leaf count is a power of two, so the masked words are exactly
    uniform."""
    words = array("I", rng.randbytes(count * array("I").itemsize))
    return array("I", map(((1 << depth) - 1).__and__, words))


def oram_init(
    heads: bytes | bytearray,
    params: TreeParams,
    cipher: Cipher,
    rng: random.Random,
    tree_id: int = 0,
) -> tuple[PathOram, TreeStorage, array]:
    """Build the encrypted tree of the given geometry for a set of real
    blocks, given as their heads packed end to end, and the engine over it.

    Each block gets an independent uniform leaf, drawn in head order into
    an array('I') (``draw_leaves``), and is placed in the deepest free
    bucket on that leaf's path among the host's levels k..L (k =
    params.cached, at most the depth); a block they cannot take is held by
    the engine.  Placement writes each block, head and leaf, straight into
    its slot of the host's bucket buffer, after the blocks placed there
    before it, counting the blocks of each bucket in one byte per node;
    slots left zero are the dummies, and the counts become the buckets'
    count bytes in one strided assignment.  Each bucket is then encrypted
    in place: one ciphertext bound to (tree_id, node), written over its own
    plaintext, empty buckets included, a run of SETUP_RUN buckets to a
    ``Cipher.seal_path`` call.  Heads that are not a whole number
    of head widths would shift later slots: ValueError.

    Returns (engine, TreeStorage, leaf per head); the engine has no store
    yet.
    """
    z, hw, bw, lw = params.bucket_size, params.head_width, params.block_width, params.leaf_width
    if not 0 <= params.cached <= params.depth:
        raise ValueError(f"cannot cache {params.cached} levels of a depth-{params.depth} tree")
    count, extra = divmod(len(heads), hw)
    if extra:
        raise ValueError(f"packed block heads of {len(heads)} bytes are not whole {hw}-byte heads")
    limit = held_limit(params)
    if count > params.host_nodes * z + limit:
        raise CapacityError(f"{count} blocks exceed {params.host_nodes * z} host slots plus {limit} held")

    leaves = draw_leaves(rng, params.depth, count)
    cw, first = params.bucket_width, params.cache_nodes  # heap index of level k's first bucket
    buckets = bytearray(params.host_nodes * cw)  # bucket i at i*cw, its plaintext first
    fill = bytearray(params.host_nodes)  # blocks placed in each host bucket, Z <= 255
    held: list[tuple[int, bytes]] = []  # (group, block)
    leaf_bucket, shift = params.leaves - 1 - first, params.depth - params.cached
    for at, leaf in zip(range(0, len(heads), hw), leaves):
        i = leaf_bucket + leaf
        while i >= 0:  # leaf bucket first, then up toward level k
            n = fill[i]
            if n < z:
                fill[i] = n + 1
                slot = i * cw + 1 + n * bw  # after the count byte and n blocks
                buckets[slot : slot + hw] = heads[at : at + hw]
                buckets[slot + hw : slot + bw] = leaf.to_bytes(lw, "big")
                break
            i = ((i + first - 1) >> 1) - first
        else:
            held.append((leaf >> shift, heads[at : at + hw] + leaf.to_bytes(lw, "big")))
    buckets[0::cw] = fill
    held.sort(key=lambda pair: pair[0])  # the engine takes its held blocks group by group
    engine = PathOram(tree_id, params, cipher, b"".join(blk for _, blk in held))

    pw, nodes = params.plain_width, params.host_nodes
    with memoryview(buckets) as view:
        for start in range(0, nodes, SETUP_RUN):
            end = min(start + SETUP_RUN, nodes)
            plains = [view[at : at + pw] for at in range(start * cw, end * cw, cw)]
            ads = [bucket_ad(tree_id, node) for node in range(first + start, first + end)]
            buckets[start * cw : end * cw] = cipher.seal_path(plains, ads)

    tree = TreeStorage(tree_id=tree_id, params=params, buckets=buckets)
    return engine, tree, leaves


def verify_placement(tree, engine: PathOram, leaf_of: dict[bytes, int]) -> None:
    """Debug walker: decrypt the host's buckets with the engine's cipher and
    confirm that every stored group is one of the 2^k and holds a block,
    that every held block sits in the group of its leaf's top k bits, that
    held_count counts them, that every bucket's count is at most
    Z with zero slots after its blocks, that no token is stored twice, held
    and on the host included, and that every block named in leaf_of (token
    -> mapped leaf) is held or on the path to its mapped leaf."""
    p, cipher = tree.params, engine.cipher
    bw, shift = p.block_width, p.depth - p.cached
    held: set[bytes] = set()
    for g, group in engine.held.items():
        if not 0 <= g < 1 << p.cached:
            raise AssertionError(f"held group {g} for {p.cached} cached levels")
        if not group:
            raise AssertionError(f"held group {g} is stored empty")
        for blk, leaf in zip(group, block_leaves(b"".join(group), p)):
            if leaf >> shift != g:
                raise AssertionError("held block outside its leaf's group")
            if blk[TOKEN] in held:
                raise AssertionError("token held twice")
            held.add(blk[TOKEN])
    if engine.held_count != len(held):
        raise AssertionError(f"held_count {engine.held_count}, but {len(held)} blocks held")
    located: dict[bytes, int] = {}
    for node in range(p.cache_nodes, p.node_count):
        plain = cipher.decrypt(tree.get_bucket(node), bucket_ad(tree.tree_id, node))
        end = 1 + plain[0] * bw
        if plain[0] > p.bucket_size or any(plain[end:]):
            raise AssertionError(f"node {node}: count {plain[0]} past Z or a nonzero slot after its blocks")
        for at in range(1, end, bw):
            tk = plain[at : at + bw][TOKEN]
            if tk in located or tk in held:
                raise AssertionError("token stored twice")
            located[tk] = node
    for tk, leaf in leaf_of.items():
        if tk in held:
            continue
        node = located.get(tk)
        if node is None:
            raise AssertionError("mapped block absent from tree and held blocks")
        if node not in p.path_nodes(leaf):
            raise AssertionError("block stored off the path to its mapped leaf")
