"""Binary wire protocol: length-prefixed frames over a byte stream.

Frame layout: magic (2) | version (1) | msg_type (1) | payload_len (4, BE)
| payload.  Big-endian throughout; every request gets exactly one response.
Payload widths are content-independent per message type so the recorded
trace shapes carry no query information beyond round counts.  A header
declaring more than MAX_PAYLOAD bytes is refused before its payload is read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .exceptions import ProtocolError

MAGIC = b"OB"
VERSION = 1
_FRAME_HEADER = struct.Struct(">2sBBI")
# far above the widest path frame of a desk-scale tree
MAX_PAYLOAD = 64 << 20

MSG_READ_PATH = 0x01
MSG_PATH_DATA = 0x02
MSG_WRITE_PATH = 0x03
MSG_ACK = 0x04
MSG_ENCLAVE_REQUEST = 0x05
MSG_ENCLAVE_RESPONSE = 0x06
MSG_ERROR = 0x7F

ERR_USAGE = 1
ERR_PROTOCOL = 2
ERR_CAPACITY = 3


@dataclass
class ReadPath:
    tree_id: int
    leaf: int


@dataclass
class PathData:
    buckets: bytes


@dataclass
class WritePath:
    tree_id: int
    leaf: int
    buckets: bytes


@dataclass
class Ack:
    pass


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


Message = ReadPath | PathData | WritePath | Ack | EnclaveRequest | EnclaveResponse | Error


def encode(msg: Message) -> bytes:
    if isinstance(msg, ReadPath):
        mt, payload = MSG_READ_PATH, struct.pack(">BQ", msg.tree_id, msg.leaf)
    elif isinstance(msg, PathData):
        mt, payload = MSG_PATH_DATA, msg.buckets
    elif isinstance(msg, WritePath):
        mt, payload = MSG_WRITE_PATH, struct.pack(">BQ", msg.tree_id, msg.leaf) + msg.buckets
    elif isinstance(msg, Ack):
        mt, payload = MSG_ACK, b""
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


def decode(frame: bytes) -> Message:
    header, payload = split_frame(frame)
    return decode_payload(header, payload)


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


def split_frame(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < _FRAME_HEADER.size:
        raise ProtocolError("frame shorter than header")
    mt, n = _parse_header(frame[: _FRAME_HEADER.size])
    payload = frame[_FRAME_HEADER.size :]
    if len(payload) != n:
        raise ProtocolError(f"payload is {len(payload)} bytes, header says {n}")
    return mt, payload


def decode_payload(mt: int, payload: bytes) -> Message:
    if mt == MSG_READ_PATH:
        if len(payload) != 9:
            raise ProtocolError("ReadPath payload must be 9 bytes")
        tree_id, leaf = struct.unpack(">BQ", payload)
        return ReadPath(tree_id, leaf)
    if mt == MSG_PATH_DATA:
        return PathData(payload)
    if mt == MSG_WRITE_PATH:
        if len(payload) < 9:
            raise ProtocolError("WritePath payload too short")
        tree_id, leaf = struct.unpack(">BQ", payload[:9])
        return WritePath(tree_id, leaf, payload[9:])
    if mt == MSG_ACK:
        if payload:
            raise ProtocolError("Ack carries no payload")
        return Ack()
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
