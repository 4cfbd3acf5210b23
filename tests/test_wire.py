import pytest
from hypothesis import given, strategies as st

from obge import wire
from obge.exceptions import ProtocolError


MESSAGES = [
    wire.ReadPath(0, 5),
    wire.ReadPath(3, 2**40),
    wire.PathData(b"\x00" * 64),
    wire.WritePath(1, 9, b"\xaa" * 32),
    wire.Ack(),
    wire.EnclaveRequest(b"ct-bytes"),
    wire.EnclaveResponse(b"resp"),
    wire.Error(2, "something broke"),
]


@pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
def test_round_trip_identity(msg):
    assert wire.decode(wire.encode(msg)) == msg


@given(
    tree=st.integers(0, 255),
    leaf=st.integers(0, 2**64 - 1),
    blob=st.binary(max_size=200),
)
def test_write_path_fuzz(tree, leaf, blob):
    msg = wire.WritePath(tree, leaf, blob)
    assert wire.decode(wire.encode(msg)) == msg


@given(blob=st.binary(max_size=300))
def test_opaque_payload_fuzz(blob):
    for ctor in (wire.PathData, wire.EnclaveRequest, wire.EnclaveResponse):
        assert wire.decode(wire.encode(ctor(blob))) == ctor(blob)


def test_unknown_msg_type_rejected():
    frame = bytearray(wire.encode(wire.Ack()))
    frame[3] = 0xFF
    with pytest.raises(ProtocolError, match="unknown message type"):
        wire.decode(bytes(frame))


def test_bad_magic_rejected():
    frame = b"XX" + wire.encode(wire.Ack())[2:]
    with pytest.raises(ProtocolError, match="magic"):
        wire.decode(frame)


def test_bad_version_rejected():
    frame = bytearray(wire.encode(wire.Ack()))
    frame[2] = 9
    with pytest.raises(ProtocolError, match="version"):
        wire.decode(bytes(frame))


def test_length_mismatch_rejected():
    frame = wire.encode(wire.PathData(b"abcd"))[:-1]
    with pytest.raises(ProtocolError):
        wire.decode(frame)


def test_truncated_header_rejected():
    with pytest.raises(ProtocolError):
        wire.decode(b"OB\x01")


def test_request_payload_width_is_content_independent():
    a = wire.encode(wire.ReadPath(0, 0))
    b = wire.encode(wire.ReadPath(7, 2**63 - 1))
    assert len(a) == len(b)
