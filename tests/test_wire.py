import struct

import pytest
from hypothesis import given, settings, strategies as st

from obge import wire
from obge.exceptions import ProtocolError
from conftest import decode_frame


# ids name the version-1 message each frame replaces, where there is one:
# ReadPath and WritePath are Access frames with only a read or only a
# write, and Ack is PathData with no buckets
MESSAGES = {
    "ReadPath0": wire.Access(read=(0, 5)),
    "ReadPath1": wire.Access(read=(3, 2**40)),
    "PathData": wire.PathData(b"\x00" * 64),
    "WritePath": wire.Access(write=(1, 9, b"\xaa" * 32)),
    "Ack": wire.PathData(b""),
    "AccessWriteRead": wire.Access(write=(1, 9, b"\xaa" * 32), read=(0, 2**63 - 1)),
    "AccessEmpty": wire.Access(),
    "EnclaveRequest": wire.EnclaveRequest(b"ct-bytes"),
    "EnclaveResponse": wire.EnclaveResponse(b"resp"),
    "Error": wire.Error(2, "something broke"),
}


@pytest.mark.parametrize("msg", MESSAGES.values(), ids=MESSAGES.keys())
def test_round_trip_identity(msg):
    assert decode_frame(wire.encode(msg)) == msg


path_refs = st.tuples(st.integers(0, 255), st.integers(0, 2**64 - 1))


@settings(max_examples=100)
@given(
    write=st.none() | st.tuples(st.integers(0, 255), st.integers(0, 2**64 - 1), st.binary(min_size=1, max_size=200)),
    read=st.none() | path_refs,
)
def test_access_fuzz(write, read):
    msg = wire.Access(write, read)
    assert decode_frame(wire.encode(msg)) == msg


@settings(max_examples=100)
@given(tree=st.integers(0, 255), leaf=st.integers(0, 2**64 - 1), blob=st.binary(max_size=200))
def test_write_path_fuzz(tree, leaf, blob):
    # a write of any tree, leaf and buckets round-trips; one without
    # buckets is not a write and cannot be sent
    msg = wire.Access(write=(tree, leaf, blob))
    if not blob:
        with pytest.raises(ProtocolError, match="no buckets"):
            wire.encode(msg)
    else:
        assert decode_frame(wire.encode(msg)) == msg


@settings(max_examples=100)
@given(blob=st.binary(max_size=300))
def test_opaque_payload_fuzz(blob):
    for ctor in (wire.PathData, wire.EnclaveRequest, wire.EnclaveResponse):
        assert decode_frame(wire.encode(ctor(blob))) == ctor(blob)


REF = struct.pack(">BQ", 0, 3)


@pytest.mark.parametrize(
    "payload, match",
    [
        (b"", "too short"),
        (b"\x01" + REF[:5], "too short"),
        (b"\x03" + REF + b"x", "too short"),
        (b"\x04", "unknown flag bits 0x04"),
        (b"\x83" + REF + REF + b"x", "unknown flag bits 0x83"),
        (b"\x02" + REF + b"bucket", "buckets without a write"),
        (b"\x00" + b"bucket", "buckets without a write"),
        (b"\x01" + REF, "no buckets"),
        (b"\x03" + REF + REF, "no buckets"),
    ],
    ids=["empty", "short-write", "short-read", "flag-0x04", "flag-0x83", "read-with-buckets",
         "no-flags-with-buckets", "write-without-buckets", "write-read-without-buckets"],
)
def test_malformed_access_rejected(payload, match):
    with pytest.raises(ProtocolError, match=match):
        wire.decode_payload(wire.MSG_ACCESS, payload)


def test_unknown_msg_type_rejected():
    frame = bytearray(wire.encode(wire.Access()))
    frame[3] = 0xFF
    with pytest.raises(ProtocolError, match="unknown message type"):
        decode_frame(bytes(frame))


@pytest.mark.parametrize("mt", [0x03, 0x04])
def test_retired_msg_types_rejected(mt):
    # version 1's WritePath and Ack
    with pytest.raises(ProtocolError, match=f"unknown message type 0x{mt:02x}"):
        wire.decode_payload(mt, b"")


def test_bad_magic_rejected():
    frame = b"XX" + wire.encode(wire.Access())[2:]
    with pytest.raises(ProtocolError, match="magic"):
        decode_frame(frame)


def test_bad_version_rejected():
    frame = bytearray(wire.encode(wire.Access()))
    frame[2] = 9
    with pytest.raises(ProtocolError, match="version"):
        decode_frame(bytes(frame))


def test_version_one_frame_rejected():
    # a version-1 ReadPath(0, 5): refused by its version, not its type
    frame = struct.pack(">2sBBI", wire.MAGIC, 1, 0x01, 9) + struct.pack(">BQ", 0, 5)
    with pytest.raises(ProtocolError, match="unsupported version 1$"):
        decode_frame(frame)


def test_length_mismatch_rejected():
    frame = wire.encode(wire.PathData(b"abcd"))[:-1]
    with pytest.raises(ProtocolError):
        decode_frame(frame)


def test_truncated_header_rejected():
    with pytest.raises(ProtocolError):
        decode_frame(b"OB\x02")


def test_request_payload_width_is_content_independent():
    a = wire.encode(wire.Access(read=(0, 0)))
    b = wire.encode(wire.Access(read=(7, 2**63 - 1)))
    assert len(a) == len(b)
    c = wire.encode(wire.Access(write=(0, 0, bytes(64)), read=(0, 1)))
    d = wire.encode(wire.Access(write=(7, 2**63 - 1, b"\xff" * 64), read=(7, 2**40)))
    assert len(c) == len(d)
