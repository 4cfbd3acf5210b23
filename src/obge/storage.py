"""Server-side bucket storage: the untrusted half of the access protocol.

A TreeStorage holds the raw encrypted buckets of one ORAM tree that the
host stores, levels k..L below the engine's tree-top cache, in heap order,
and serves the host's part of each root-to-leaf path, taking each
bucket's byte offset from the tree's host-path table
(``TreeParams.host_path``), the one the engine reads the buckets'
associated data from.  A leaf outside [0, 2^L) raises IndexError.  Every
path read or write is appended to an AccessTrace, which records exactly
what the storage owner can observe: operation, tree, leaf id, and byte
count, one slotted TraceRecord each.

Tree file format ``TREE_VERSION``: a header (magic, version, tree id, depth
L, cached levels k, bucket size Z, payload width) followed by the buckets
of levels k..L, heap nodes 2^k - 1 through 2^(L+1) - 2 in heap order; the
engine holding the tree keeps levels 0..k-1 itself, so a path read or write
moves L+1-k buckets.  Each bucket is one AES-GCM ciphertext of a count byte
and Z block slots whose associated data is (tree id, heap index), so the
storage side cannot move, copy or swap buckets within or across trees
without the next access that reads them failing.  Blocks have the layout of
``blocks``, a 16-byte token, the payload and the leaf in ceil(L/8) bytes:
18 + ceil(L/8) bytes in the data tree, whose payload is a 2-byte hop, so 20
at depths 9 to 16, and P + 16 + ceil(L/8) in a position-map tree, P the
level payload the map's shape rule picks, 16 to 512 bytes of entries as
wide as the tree they point into needs (``recursive``).  Other versions are
rejected on load.
``TreeStorage.load`` checks the file size the header implies before it
allocates anything, then reads the buckets into one buffer;
``tree_geometry`` reads only the headers of a directory's tree files.  A
deployment directory keeps tree i in ``tree_file(directory, i)``,
tree_NNN.bin with i in three digits, and ``check_tree_file`` refuses a
file that holds another tree.  Tree and state files are replaced
through ``write_atomic``, as mode 0600 files.

A StorageHost is plain data: one server's trees, by tree id, and its
trace.  Neither takes a lock.  In a daemon the server's one lock
serializes every call on them (``server.ObgeServer``); in process, the
single engine that uses them makes one call at a time.
"""

from __future__ import annotations

import os
import struct
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .blocks import TreeParams
from .exceptions import ProtocolError

TREE_MAGIC = b"OT"
TREE_VERSION = 7
_HEADER = struct.Struct(">2sBBBBBH")  # magic, version, tree_id, L, k, Z, payload_width


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Replace the file at path with the concatenated chunks: write a
    sibling temp file of mode 0600, flush and fsync it, then rename it over
    path.  A failure part-way removes the temp file and leaves path as it
    was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(slots=True)
class TraceRecord:
    timestamp: float
    msg_type: str
    tree_id: int | None
    leaf: int | None
    byte_count: int

    def to_csv(self) -> str:
        tree = "" if self.tree_id is None else str(self.tree_id)
        leaf = "" if self.leaf is None else str(self.leaf)
        return f"{self.timestamp:.6f},{self.msg_type},{tree},{leaf},{self.byte_count}"


class AccessTrace:
    """Append-only log of server-visible events.  It takes no lock: its
    owner serializes appends (see ``StorageHost``)."""

    CSV_HEADER = "timestamp,msg_type,tree_id,leaf,byte_count"

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, msg_type: str, tree_id: int | None, leaf: int | None, byte_count: int) -> None:
        self.records.append(TraceRecord(time.time(), msg_type, tree_id, leaf, byte_count))

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write(self.CSV_HEADER + "\n")
            for rec in self.records:
                f.write(rec.to_csv() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AccessTrace":
        """A trace saved by ``save``; a malformed line raises ProtocolError
        naming the file and the line."""
        trace = cls()
        with open(path) as f:
            header = f.readline().strip()
            if header != cls.CSV_HEADER:
                raise ProtocolError(f"{path}: unrecognized trace header {header!r}")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    ts, msg, tree, leaf, count = line.split(",")
                    rec = TraceRecord(
                        float(ts), msg, int(tree) if tree else None, int(leaf) if leaf else None, int(count)
                    )
                except ValueError:
                    raise ProtocolError(f"{path}, line {lineno}: malformed trace record {line!r}") from None
                trace.records.append(rec)
        return trace


@dataclass
class TreeStorage:
    """The host's encrypted buckets of one tree, levels k..L, addressed by
    heap index."""

    tree_id: int
    params: TreeParams
    buckets: bytearray = field(default_factory=bytearray)

    def __post_init__(self):
        expected = self.params.host_nodes * self.params.bucket_width
        if not self.buckets:
            self.buckets = bytearray(expected)
        elif len(self.buckets) != expected:
            raise ProtocolError(
                f"tree {self.tree_id}: storage is {len(self.buckets)} bytes, expected {expected}"
            )

    def _offset(self, node: int) -> int:
        p = self.params
        if not p.cache_nodes <= node < p.node_count:
            raise IndexError(f"tree {self.tree_id}: node {node} is not stored on the host")
        return (node - p.cache_nodes) * p.bucket_width

    def get_bucket(self, node: int) -> bytes:
        at = self._offset(node)
        return bytes(self.buckets[at : at + self.params.bucket_width])

    def set_bucket(self, node: int, data: bytes) -> None:
        w = self.params.bucket_width
        if len(data) != w:
            raise ProtocolError(f"bucket write of {len(data)} bytes, expected {w}")
        at = self._offset(node)
        self.buckets[at : at + w] = data

    def read_path(self, leaf: int) -> bytes:
        """The host's buckets on the root-to-leaf path, level k first, concatenated."""
        p, buckets = self.params, self.buckets
        p.check_leaf(leaf)
        w, base = p.bucket_width, p.cache_nodes
        return b"".join(
            [buckets[(at := (first - base + (leaf >> shift)) * w) : at + w] for first, shift in p.host_path]
        )

    def write_path(self, leaf: int, data: bytes) -> None:
        p, buckets = self.params, self.buckets
        p.check_leaf(leaf)
        if len(data) != p.path_width:
            raise ProtocolError(f"path write of {len(data)} bytes, expected {p.path_width}")
        w, base, i = p.bucket_width, p.cache_nodes, 0
        for first, shift in p.host_path:
            at = (first - base + (leaf >> shift)) * w
            buckets[at : at + w] = data[i : i + w]
            i += w

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.header_bytes(), self.buckets)

    def header_bytes(self) -> bytes:
        return _HEADER.pack(
            TREE_MAGIC,
            TREE_VERSION,
            self.tree_id,
            self.params.depth,
            self.params.cached,
            self.params.bucket_size,
            self.params.payload_width,
        )

    @classmethod
    def load(cls, path: str | Path) -> "TreeStorage":
        with open(path, "rb") as f:
            tree_id, params = _read_header(f, path)
            size = params.host_nodes * params.bucket_width
            held = os.fstat(f.fileno()).st_size - _HEADER.size
            if held != size:
                raise ProtocolError(f"tree file {path}: header declares {size} bytes of buckets, file holds {held}")
            buckets = bytearray(size)
            if f.readinto(buckets) != size:
                raise ProtocolError(f"tree file {path} shrank while it was read")
        return cls(tree_id=tree_id, params=params, buckets=buckets)


def _read_header(f, path: str | Path) -> tuple[int, TreeParams]:
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ProtocolError(f"tree file {path} truncated")
    magic, version, tree_id, depth, cached, z, payload_width = _HEADER.unpack(head)
    if magic != TREE_MAGIC:
        raise ProtocolError(f"bad tree magic {magic!r}")
    if version != TREE_VERSION:
        raise ProtocolError(
            f"tree file {path}: unsupported version {version}, expected {TREE_VERSION}; set the deployment up again"
        )
    if cached > depth:
        raise ProtocolError(f"tree file {path}: {cached} cached levels in a depth-{depth} tree")
    return tree_id, TreeParams(depth=depth, bucket_size=z, payload_width=payload_width, cached=cached)


def tree_file(directory: str | Path, tree_id: int) -> Path:
    """The file a deployment directory keeps tree tree_id in."""
    return Path(directory) / f"tree_{tree_id:03d}.bin"


def tree_files(directory: str | Path) -> list[Path]:
    return sorted(Path(directory).glob("tree_*.bin"))


def check_tree_file(path: Path, directory: str | Path, tree_id: int) -> None:
    """Refuse a tree file of directory that is not named for the tree id
    its header holds: ProtocolError."""
    home = tree_file(directory, tree_id)
    if path != home:
        raise ProtocolError(f"tree file {path} holds tree {tree_id}, which belongs in {home}")


def tree_geometry(directory: str | Path) -> dict[int, TreeParams]:
    """Tree id -> geometry of every tree file in directory, from the
    headers alone; a file not named for its tree is refused."""
    geometry = {}
    for path in tree_files(directory):
        with open(path, "rb") as f:
            tree_id, params = _read_header(f, path)
        check_tree_file(path, directory, tree_id)
        geometry[tree_id] = params
    if not geometry:
        raise ProtocolError(f"no tree files under {str(directory)!r}")
    return geometry


class StorageHost:
    """The trees one server instance stores, by tree id, plus its trace.
    This is the only object the untrusted side owns.

    It takes no lock.  In a daemon the server's one lock serializes every
    call on it (``ObgeServer``); in process, the single engine that uses it
    makes one call at a time.
    """

    def __init__(self, trees: Iterable[TreeStorage]):
        self.trees: dict[int, TreeStorage] = {tree.tree_id: tree for tree in trees}
        self.trace = AccessTrace()

    def _tree(self, tree_id: int) -> TreeStorage:
        try:
            return self.trees[tree_id]
        except KeyError:
            raise ProtocolError(f"unknown tree id {tree_id}") from None

    def read_path(self, tree_id: int, leaf: int) -> bytes:
        data = self._tree(tree_id).read_path(leaf)
        self.trace.append("ReadPath", tree_id, leaf, len(data))
        return data

    def write_path(self, tree_id: int, leaf: int, data: bytes) -> None:
        self._tree(tree_id).write_path(leaf, data)
        self.trace.append("WritePath", tree_id, leaf, len(data))

    def flush(self) -> None:
        """Nothing to send: every write is applied when it is made."""
