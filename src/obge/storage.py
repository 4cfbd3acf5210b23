"""Server-side bucket storage: the untrusted half of the access protocol.

A TreeStorage holds the raw encrypted buckets of one ORAM tree in heap
order and serves whole root-to-leaf paths.  Every path read or write is
appended to an AccessTrace, which records exactly what the storage owner
can observe: operation, tree, leaf id, and byte count.

Tree file format, version 3: a header (magic, version, tree id, depth L,
bucket size Z, payload width) followed by the 2^(L+1) - 1 buckets in heap
order.  Each bucket is one AES-GCM ciphertext of Z serialized blocks whose
associated data is (tree id, heap index), so the storage side cannot move,
copy or swap buckets within or across trees without the next access that
reads them failing.  Version 1 (one ciphertext per slot) and version 2
(next-hop tokens in blocks, length-prefixed buckets) are rejected on load.
``TreeStorage.load`` checks the file size the header implies before it
allocates anything, then reads the buckets into one buffer.  Tree and state
files are replaced through ``write_atomic``, as mode 0600 files.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .blocks import TreeParams
from .exceptions import ProtocolError

TREE_MAGIC = b"OT"
TREE_VERSION = 3
_HEADER = struct.Struct(">2sBBBBH")  # magic, version, tree_id, L, Z, payload_width


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


@dataclass
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
    """Append-only log of server-visible events."""

    CSV_HEADER = "timestamp,msg_type,tree_id,leaf,byte_count"

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._lock = threading.Lock()

    def append(self, msg_type: str, tree_id: int | None, leaf: int | None, byte_count: int) -> None:
        rec = TraceRecord(time.time(), msg_type, tree_id, leaf, byte_count)
        with self._lock:
            self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write(self.CSV_HEADER + "\n")
            for rec in self.records:
                f.write(rec.to_csv() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AccessTrace":
        trace = cls()
        with open(path) as f:
            header = f.readline().strip()
            if header != cls.CSV_HEADER:
                raise ProtocolError(f"unrecognized trace header {header!r}")
            for line in f:
                line = line.strip()
                if not line:
                    continue
                ts, msg, tree, leaf, count = line.split(",")
                trace.records.append(
                    TraceRecord(
                        float(ts),
                        msg,
                        int(tree) if tree else None,
                        int(leaf) if leaf else None,
                        int(count),
                    )
                )
        return trace


@dataclass
class TreeStorage:
    """Encrypted buckets of one tree, addressed by heap index."""

    tree_id: int
    params: TreeParams
    buckets: bytearray = field(default_factory=bytearray)

    def __post_init__(self):
        expected = self.params.node_count * self.params.bucket_width
        if not self.buckets:
            self.buckets = bytearray(expected)
        elif len(self.buckets) != expected:
            raise ProtocolError(
                f"tree {self.tree_id}: storage is {len(self.buckets)} bytes, expected {expected}"
            )

    def get_bucket(self, node: int) -> bytes:
        w = self.params.bucket_width
        return bytes(self.buckets[node * w : (node + 1) * w])

    def set_bucket(self, node: int, data: bytes) -> None:
        w = self.params.bucket_width
        if len(data) != w:
            raise ProtocolError(f"bucket write of {len(data)} bytes, expected {w}")
        self.buckets[node * w : (node + 1) * w] = data

    def read_path(self, leaf: int) -> bytes:
        """All buckets on the root-to-leaf path, root first, concatenated."""
        w, buckets = self.params.bucket_width, self.buckets
        return b"".join([buckets[n * w : (n + 1) * w] for n in self.params.path_nodes(leaf)])

    def write_path(self, leaf: int, data: bytes) -> None:
        nodes = self.params.path_nodes(leaf)
        w, buckets = self.params.bucket_width, self.buckets
        if len(data) != len(nodes) * w:
            raise ProtocolError(f"path write of {len(data)} bytes, expected {len(nodes) * w}")
        for i, n in enumerate(nodes):
            buckets[n * w : (n + 1) * w] = data[i * w : (i + 1) * w]

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.header_bytes(), self.buckets)

    def header_bytes(self) -> bytes:
        return _HEADER.pack(
            TREE_MAGIC,
            TREE_VERSION,
            self.tree_id,
            self.params.depth,
            self.params.bucket_size,
            self.params.payload_width,
        )

    @classmethod
    def load(cls, path: str | Path) -> "TreeStorage":
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise ProtocolError(f"tree file {path} truncated")
            magic, version, tree_id, depth, z, payload_width = _HEADER.unpack(head)
            if magic != TREE_MAGIC:
                raise ProtocolError(f"bad tree magic {magic!r}")
            if version != TREE_VERSION:
                raise ProtocolError(f"unsupported tree version {version}")
            params = TreeParams(depth=depth, bucket_size=z, payload_width=payload_width)
            size = params.node_count * params.bucket_width
            held = os.fstat(f.fileno()).st_size - _HEADER.size
            if held != size:
                raise ProtocolError(f"tree file {path}: header declares {size} bytes of buckets, file holds {held}")
            buckets = bytearray(size)
            if f.readinto(buckets) != size:
                raise ProtocolError(f"tree file {path} shrank while it was read")
        return cls(tree_id=tree_id, params=params, buckets=buckets)


class StorageHost:
    """The set of trees one server instance stores, plus its trace.

    Path operations on a single tree are serialized by a lock; the trace
    append is atomic.  This is the only object the untrusted side owns.
    """

    def __init__(self):
        self.trees: dict[int, TreeStorage] = {}
        self.trace = AccessTrace()
        self._locks: dict[int, threading.Lock] = {}

    def add_tree(self, tree: TreeStorage) -> None:
        self.trees[tree.tree_id] = tree
        self._locks[tree.tree_id] = threading.Lock()

    def tree(self, tree_id: int) -> TreeStorage:
        try:
            return self.trees[tree_id]
        except KeyError:
            raise ProtocolError(f"unknown tree id {tree_id}")

    def read_path(self, tree_id: int, leaf: int) -> bytes:
        with self._locks.setdefault(tree_id, threading.Lock()):
            data = self.tree(tree_id).read_path(leaf)
        self.trace.append("ReadPath", tree_id, leaf, len(data))
        return data

    def write_path(self, tree_id: int, leaf: int, data: bytes) -> None:
        with self._locks.setdefault(tree_id, threading.Lock()):
            self.tree(tree_id).write_path(leaf, data)
        self.trace.append("WritePath", tree_id, leaf, len(data))
