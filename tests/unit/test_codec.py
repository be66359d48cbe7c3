"""Unit tests for the binary wire codec (registry, refusals, sizes)."""

import marshal
import pickle
from typing import List

import pytest

from repro.core.messages import Reply, Request, SeqOrder
from repro.failure.detector import Heartbeat
from repro.replication.passive import StateUpdate, UpdateAck
from repro.runtime.codec import (
    WIRE_TAGS,
    BinaryCodec,
    registered_types,
)
from repro.statemachine.base import OpResult

pytestmark = pytest.mark.unit


class Opaque:
    """Unregistered: the codec refuses it wherever it sits."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Opaque) and other.label == self.label


_REPLY = Reply(
    "c1:17", OpResult(True, 1234), 17, frozenset(("p1", "p2", "p3")), 0, slot=17
)


class TestRegistry:
    def test_wire_contract_is_pinned(self):
        """Tags are registration-order positions -- the wire contract.
        Appending a class is fine; renumbering an existing one is not,
        and this pin makes that mistake loud."""
        assert WIRE_TAGS[Request] == 0
        assert WIRE_TAGS[Reply] == 1
        assert WIRE_TAGS[SeqOrder] == 5
        assert WIRE_TAGS[Heartbeat] == 21
        assert WIRE_TAGS[StateUpdate] == 22
        assert WIRE_TAGS[UpdateAck] == 23
        assert set(WIRE_TAGS) == set(registered_types())

    def test_binary_frames_are_compact(self):
        """The headline claim: a protocol frame is much smaller in
        binary than in pickle (class paths never go on the wire)."""
        binary = BinaryCodec.encode_frame("p1", _REPLY)
        pickled = pickle.dumps(("p1", _REPLY), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(binary) < 0.7 * len(pickled)

    def test_heartbeats_do_not_take_the_escape_hatch(self):
        """Heartbeats are the steady-state background traffic; they are
        a registered node, so no class path goes on the wire."""
        encoded = BinaryCodec.encode_frame("p1", Heartbeat(42))
        assert encoded[0] == 1  # binary discriminator
        assert b"Heartbeat" not in encoded
        assert BinaryCodec.decode_frame(encoded) == ("p1", Heartbeat(42))


class TestRefusals:
    """The wire format is closed: what is not a registered message, a
    marshal leaf or a container of those never becomes a frame."""

    def test_unregistered_payload_is_refused(self):
        with pytest.raises(TypeError, match="Opaque"):
            BinaryCodec.encode_frame("p1", Opaque("hello"))

    def test_unregistered_nested_in_registered_is_refused(self):
        reply = Reply("c1:1", OpResult(False, Opaque("why")), 1, frozenset(), 0)
        with pytest.raises(TypeError, match="Opaque"):
            BinaryCodec.encode_frame("p2", reply)

    def test_lying_annotation_is_refused(self):
        """A trusted-annotated field goes to ``marshal`` unwalked; one
        holding a marshal-hostile value makes the frame fail to encode,
        and the error names the payload's class."""
        request = Request("c1:1", "c1", ("set", Opaque("not native")))
        with pytest.raises(TypeError, match="a Request payload does not marshal"):
            BinaryCodec.encode_frame("c1", request)

    @pytest.mark.parametrize(
        "node",
        [[-3, b"x"], [len(WIRE_TAGS), "x"], ([-2, "x"],)],
        ids=["retired-mark", "past-the-registry", "nested"],
    )
    def test_unknown_node_tag_is_refused(self, node):
        """A node tag nothing registers is refused like a bad
        discriminator, at the top of the frame or inside it."""
        frame = b"\x01" + marshal.dumps(("p1", node), 4)
        with pytest.raises(ValueError, match="unknown node tag"):
            BinaryCodec.decode_frame(frame)


_unpickled: List[str] = []


def _record_unpickling() -> None:
    _unpickled.append("unpickled")


class _Tripwire:
    """Unpickling it calls :func:`_record_unpickling`, found by module path."""

    def __reduce__(self):
        return _record_unpickling, ()


def test_no_socket_byte_is_unpickled():
    """A frame with the old pickle discriminator (0) is refused before
    any of its bytes are interpreted."""
    frame = b"\x00" + pickle.dumps(("p1", _Tripwire()), protocol=pickle.HIGHEST_PROTOCOL)
    for buf in (frame, memoryview(frame)):
        with pytest.raises(ValueError, match="discriminator byte 0"):
            BinaryCodec.decode_frame(buf)
    assert _unpickled == []


_A = Request("c1:1", "c1", ("set", "k1", 1))
_B = Request("c2:1", "c2", ("get", "k2"))


@pytest.mark.parametrize(
    "value, members",
    [
        (frozenset({_A, _B}), lambda out: out),
        ({_A, _B}, lambda out: out),
        ({_A: 1, _B: 2}, lambda out: out.keys()),
        ({"a": _A, "b": _B}, lambda out: out.values()),
    ],
    ids=["frozenset-items", "set-items", "dict-keys", "dict-values"],
)
def test_container_of_registered_values_roundtrips(value, members):
    """Containers whose members are registered values cannot go to
    marshal as they are: the codec lowers them to marked nodes and
    rebuilds the container type on the way back."""
    src, out = BinaryCodec.decode_frame(BinaryCodec.encode_frame("p1", value))
    assert src == "p1"
    assert out == value and type(out) is type(value)
    assert {type(member) for member in members(out)} == {Request}
