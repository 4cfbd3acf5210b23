"""Binary wire protocol: length-prefixed frames over a byte stream.

Frame layout: magic (2) | version (1) | msg_type (1) | payload_len (4, BE)
| payload.  Big-endian throughout; every request gets exactly one response.
A header declaring more than MAX_PAYLOAD bytes is refused before its
payload is read.

Path traffic is one request type and one reply.  An ``Access`` carries an
optional path write and an optional path read:

    flags (1: bit 0 write, bit 1 read) | write tree id (1) | write leaf (8)
    | read tree id (1) | read leaf (8) | write buckets

where each (tree id, leaf) is present only with its flag, and the buckets,
present exactly with the write flag, run to the end of the payload.  The
server applies the write, then the read, and answers ``PathData`` with the
read path's buckets, empty when the request has no read.  A trivial client
defers each path write-back and sends it in the frame of its next read, so
a round costs one round trip; the last write of a query goes alone.  Widths
depend only on which parts are present and on the tree, so the recorded
trace shapes carry no query information beyond round counts.  Version 1,
which sent ReadPath/PathData and WritePath/Ack as two round trips, is
refused by its version number.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .exceptions import ProtocolError

MAGIC = b"OB"
VERSION = 2
_FRAME_HEADER = struct.Struct(">2sBBI")
# far above the widest path frame of a desk-scale tree
MAX_PAYLOAD = 64 << 20

# 0x03, 0x04 (version 1's WritePath and Ack) and 0x07 (a tree upload) stay
# unassigned, so a stray old frame is refused as an unknown type
MSG_ACCESS = 0x01
MSG_PATH_DATA = 0x02
MSG_ENCLAVE_REQUEST = 0x05
MSG_ENCLAVE_RESPONSE = 0x06
MSG_ERROR = 0x7F

ERR_USAGE = 1
ERR_PROTOCOL = 2
ERR_CAPACITY = 3

_WRITE, _READ = 0x01, 0x02  # Access flag bits
_PATH_REF = struct.Struct(">BQ")  # tree id, leaf


@dataclass
class Access:
    """Write (tree id, leaf, buckets) if given, then read (tree id, leaf)
    if given."""

    write: tuple[int, int, bytes] | None = None
    read: tuple[int, int] | None = None


@dataclass
class PathData:
    buckets: bytes


@dataclass
class EnclaveRequest:
    ct: bytes


@dataclass
class EnclaveResponse:
    ct: bytes


@dataclass
class Error:
    code: int
    detail: str


Message = Access | PathData | EnclaveRequest | EnclaveResponse | Error


def encode(msg: Message) -> bytes:
    if isinstance(msg, Access):
        mt, payload = MSG_ACCESS, _encode_access(msg)
    elif isinstance(msg, PathData):
        mt, payload = MSG_PATH_DATA, msg.buckets
    elif isinstance(msg, EnclaveRequest):
        mt, payload = MSG_ENCLAVE_REQUEST, msg.ct
    elif isinstance(msg, EnclaveResponse):
        mt, payload = MSG_ENCLAVE_RESPONSE, msg.ct
    elif isinstance(msg, Error):
        detail = msg.detail.encode()
        mt, payload = MSG_ERROR, struct.pack(">B", msg.code) + detail
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    return _FRAME_HEADER.pack(MAGIC, VERSION, mt, len(payload)) + payload


def _encode_access(msg: Access) -> bytes:
    flags, parts, buckets = 0, [], b""
    if msg.write is not None:
        tree_id, leaf, buckets = msg.write
        if not buckets:
            raise ProtocolError("Access write carries no buckets")
        flags |= _WRITE
        parts.append(_PATH_REF.pack(tree_id, leaf))
    if msg.read is not None:
        flags |= _READ
        parts.append(_PATH_REF.pack(*msg.read))
    return bytes([flags]) + b"".join(parts) + buckets


def _decode_access(payload: bytes) -> Access:
    flags = payload[0] if payload else 0
    if flags & ~(_WRITE | _READ):
        raise ProtocolError(f"Access has unknown flag bits 0x{flags:02x}")
    head = 1 + _PATH_REF.size * (bool(flags & _WRITE) + bool(flags & _READ))
    if len(payload) < head:
        raise ProtocolError("Access payload too short")
    write = read = None
    at = 1
    if flags & _WRITE:
        write = _PATH_REF.unpack_from(payload, at)
        at += _PATH_REF.size
    if flags & _READ:
        read = _PATH_REF.unpack_from(payload, at)
    buckets = payload[head:]
    if write is None:
        if buckets:
            raise ProtocolError("Access carries buckets without a write")
        return Access(None, read)
    if not buckets:
        raise ProtocolError("Access write carries no buckets")
    return Access((*write, buckets), read)


def _parse_header(header: bytes) -> tuple[int, int]:
    """Message type and payload length of a frame header of this protocol."""
    magic, version, mt, n = _FRAME_HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if n > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte limit")
    return mt, n


def decode_payload(mt: int, payload: bytes) -> Message:
    if mt == MSG_ACCESS:
        return _decode_access(payload)
    if mt == MSG_PATH_DATA:
        return PathData(payload)
    if mt == MSG_ENCLAVE_REQUEST:
        return EnclaveRequest(payload)
    if mt == MSG_ENCLAVE_RESPONSE:
        return EnclaveResponse(payload)
    if mt == MSG_ERROR:
        if not payload:
            raise ProtocolError("Error payload too short")
        return Error(payload[0], payload[1:].decode(errors="replace"))
    raise ProtocolError(f"unknown message type 0x{mt:02x}")


def read_frame(stream) -> tuple[int, bytes] | None:
    """Read one frame from a file-like/socket-like ``recv``-less stream
    object exposing ``read(n)``.  Returns None on clean EOF."""
    header = _read_exact(stream, _FRAME_HEADER.size)
    if header is None:
        return None
    mt, n = _parse_header(header)
    payload = _read_exact(stream, n) if n else b""
    if payload is None:
        raise ProtocolError("stream closed mid-frame")
    return mt, payload


def _read_exact(stream, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ProtocolError("stream closed mid-frame")
        buf += chunk
    return buf
