"""Cross-version wire fixture: frame bytes that must never change.

``FRAMES`` holds the bytes ``BinaryCodec.encode_frame("s0.p1", x)``
produced (on CPython 3.11) for one instance of every class the OAR fast
path puts on the wire.  Every interpreter of the tier-1 matrix must
decode them to equal objects and encode the same objects to the same
bytes: that is what pinning ``marshal`` to ``_MARSHAL_VERSION`` and the
append-only tag registry buy, and what a cluster upgraded one process
at a time depends on.

To add a class: append the instance below, print
``BinaryCodec.encode_frame(_P1, instance).hex()``, commit the hex.  An
existing entry is only ever replaced together with a wire-format
version bump.

Two things keep the *bytes* (not just the decoded value) reproducible.
``marshal`` flags an object for back-reference when something else
holds it too, so every leaf of every instance is pinned by a second
reference (``_PINNED``) and a string that occurs twice in one frame is
one named object -- neither is left to how a compiler happens to share
constants.  And ``Reply.weight`` has one member: a frozenset travels as
a tuple in iteration order, which string hashing randomises per
process.
"""

from dataclasses import fields, is_dataclass
from typing import Any, Iterator

import pytest

from repro.broadcast.reliable import RMsg
from repro.core.messages import (
    BodyBatch,
    OrderNack,
    PhaseII,
    ReadReply,
    ReadRequest,
    Reply,
    Request,
    SeqOrder,
    ShedNotice,
)
from repro.runtime.codec import _MARSHAL_VERSION, BinaryCodec
from repro.statemachine.base import OpResult

pytestmark = pytest.mark.unit

_P1 = "s0.p1"
_REQUEST = Request("c1:7", "c1", ("set", "k042", 7))

INSTANCES = {
    "Request": _REQUEST,
    "Reply": Reply("c1:7", OpResult(True, 7), 3, frozenset({_P1}), 2, False, 11),
    "SeqOrder": SeqOrder(2, ("c1:7", "c2:1"), 40),
    "ReadRequest": ReadRequest("c1:r9", "c1", ("get", "k042"), 1),
    "ReadReply": ReadReply("c1:r9", OpResult(False, None, "no such key"), 5, 4, 2, 1),
    "ShedNotice": ShedNotice("c1:8", "write", 65, 64),
    "OrderNack": OrderNack(2, ("c1:7",)),
    "BodyBatch": BodyBatch((_REQUEST, Request("c2:1", "c2", ("del", "k001")))),
    "RMsg": RMsg("s0.p1#12", _P1, _REQUEST, (_P1, "s0.p2", "s0.p3")),
    "PhaseII": PhaseII(3, "suspicion"),
}


def _leaves(value: Any) -> Iterator[Any]:
    yield value
    if is_dataclass(value):
        for field in fields(value):
            yield from _leaves(getattr(value, field.name))
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from _leaves(item)


_PINNED = [leaf for instance in INSTANCES.values() for leaf in _leaves(instance)]

FRAMES = {
    "Request": "012902fa0573302e70315b04000000e900000000fa0463313a37da026331a903da03736574"
    "da046b303432e907000000",
    "Reply": "012902fa0573302e70315b08000000e901000000fa0463313a375b04000000e91200000054"
    "e907000000da00e90300000029017200000000e90200000046e90b000000",
    "SeqOrder": "012902fa0573302e70315b04000000e905000000e902000000a902fa0463313a37"
    "fa0463323a31e928000000",
    "ReadRequest": "012902fa0573302e70315b05000000e902000000fa0563313a7239da026331a902"
    "da03676574da046b303432e901000000",
    "ReadReply": "012902fa0573302e70315b07000000e903000000fa0563313a72395b04000000"
    "e912000000464efa0b6e6f2073756368206b6579e905000000e904000000e902000000e901000000",
    "ShedNotice": "012902fa0573302e70315b05000000e904000000fa0463313a38da057772697465"
    "e941000000e940000000",
    "OrderNack": "012902fa0573302e70315b03000000e906000000e902000000a901fa0463313a37",
    "BodyBatch": "012902fa0573302e70315b02000000e90700000029025b04000000e900000000"
    "fa0463313a37da026331a903da03736574da046b30343272010000005b040000007202000000"
    "fa0463323a31da026332a902da0364656cda046b303031",
    "RMsg": "012902fa0573302e70315b05000000e909000000fa0873302e703123313272000000005b04000000"
    "e900000000fa0463313a37da026331a903da03736574da046b303432e907000000a9037200000000"
    "fa0573302e7032fa0573302e7033",
    "PhaseII": "012902fa0573302e70315b03000000e908000000e903000000da09737573706963696f6e",
}


def test_the_fixture_was_cut_at_the_pinned_marshal_version():
    assert _MARSHAL_VERSION == 4
    assert set(FRAMES) == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_committed_frame_decodes_to_an_equal_object(name):
    src, payload = BinaryCodec.decode_frame(bytes.fromhex(FRAMES[name]))
    assert src == _P1
    assert type(payload) is type(INSTANCES[name])
    assert payload == INSTANCES[name]
    # ... and the same through a memoryview, which is what the TCP
    # transport hands the codec.
    view = memoryview(b"\xff" + bytes.fromhex(FRAMES[name]))[1:]
    assert BinaryCodec.decode_frame(view) == (src, payload)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_encoding_reproduces_the_committed_bytes(name):
    assert BinaryCodec.encode_frame(_P1, INSTANCES[name]).hex() == FRAMES[name]
