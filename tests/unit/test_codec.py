"""Unit tests for the binary wire codec (registry, escape hatches, sizes)."""

import pickle

import pytest

from repro.core.messages import Reply, Request, SeqOrder
from repro.failure.detector import Heartbeat
from repro.runtime.codec import (
    WIRE_TAGS,
    BinaryCodec,
    registered_types,
)
from repro.statemachine.base import OpResult

pytestmark = pytest.mark.unit


class Opaque:
    """Unregistered (rides the escape hatches); picklable by module path."""

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
        assert WIRE_TAGS[Heartbeat] == len(WIRE_TAGS) - 1
        assert set(WIRE_TAGS) == set(registered_types())

    def test_binary_frames_are_compact(self):
        """The headline claim: a protocol frame is much smaller in
        binary than in pickle (class paths never go on the wire)."""
        binary = BinaryCodec.encode_frame("p1", _REPLY)
        pickled = pickle.dumps(("p1", _REPLY), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(binary) < 0.7 * len(pickled)

    def test_heartbeats_do_not_take_the_escape_hatch(self):
        """Heartbeats are the steady-state background traffic; they must
        be a registered node, not a pickled leaf."""
        frame = BinaryCodec.encode("p1")  # warm nothing -- just a leaf
        assert frame[0] == 1
        encoded = BinaryCodec.encode(Heartbeat(42))
        assert encoded[0] == 1  # binary discriminator
        assert b"Heartbeat" not in encoded  # no pickled class path
        assert BinaryCodec.decode(encoded) == Heartbeat(42)


class TestEscapeHatches:
    def test_unregistered_payload_rides_pickle_leaf(self):
        message = Opaque("hello")
        encoded = BinaryCodec.encode(message)
        assert encoded[0] == 1  # still a binary frame; the leaf is pickled
        assert BinaryCodec.decode(encoded) == message

    def test_unregistered_nested_in_registered_roundtrips(self):
        reply = Reply("c1:1", OpResult(False, Opaque("why")), 1, frozenset(), 0)
        src, out = BinaryCodec.decode_frame(BinaryCodec.encode_frame("p2", reply))
        assert src == "p2" and out == reply

    def test_lying_annotation_falls_back_to_whole_frame_pickle(self):
        """A trusted-annotated field holding a marshal-hostile value
        makes ``marshal.dumps`` raise; the frame silently degrades to
        whole-frame pickle (discriminator 0) and still round-trips."""
        request = Request("c1:1", "c1", ("set", Opaque("not native")))
        encoded = BinaryCodec.encode_frame("c1", request)
        assert encoded[0] == 0  # pickle discriminator
        src, out = BinaryCodec.decode_frame(encoded)
        assert src == "c1" and out == request


_A = Request("c1:1", "c1", ("set", "k1", 1))
_B = Request("c2:1", "c2", ("get", "k2"))


@pytest.mark.parametrize(
    "value, members",
    [
        (frozenset({_A, _B}), lambda out: out),
        ({_A: 1, _B: 2}, lambda out: out.keys()),
        ({"a": _A, "b": _B}, lambda out: out.values()),
    ],
    ids=["frozenset-items", "dict-keys", "dict-values"],
)
def test_container_of_registered_values_roundtrips(value, members):
    """Containers whose members are registered values cannot go to
    marshal as they are: the codec lowers them to marked nodes and
    rebuilds the container type on the way back."""
    encoded = BinaryCodec.encode(value)
    assert encoded[0] == 1  # binary discriminator: no pickle escape
    src, framed = BinaryCodec.decode_frame(BinaryCodec.encode_frame("p1", value))
    assert src == "p1"
    for out in (BinaryCodec.decode(encoded), framed):
        assert out == value and type(out) is type(value)
        assert {type(member) for member in members(out)} == {Request}
