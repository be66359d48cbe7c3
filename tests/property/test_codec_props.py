"""Hypothesis round-trip properties for the binary wire codec.

The codec's correctness contract is *transparency*: a decoded frame is
indistinguishable -- by field equality and by ``repr`` (which the trace
digests and the PR-7 wire checksum both hang off) -- from the object
that was encoded.  These properties drive every registered wire type
through randomly generated field values, plus the structural payloads
(``MessageSequence``, ``RMsg`` wrapping, the fault plane's
``CorruptedPayload`` envelope) and a determinism check: a seeded sim
scenario whose every payload is round-tripped through the codec in
flight produces the same trace digest as one that passes them by
reference.
"""

from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.broadcast.reliable import RMsg
from repro.core.messages import Request
from repro.core.sequences import MessageSequence
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.runtime.codec import (
    WIRE_TAGS,
    BinaryCodec,
    registered_types,
)
from repro.sim.faultplane import CorruptedPayload, wire_checksum
from repro.sim.network import SimNetwork

# ---------------------------------------------------------------------------
# Strategies: one per field annotation used by the registered classes
# ---------------------------------------------------------------------------

_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789:._-", min_size=1, max_size=12
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=16),
    st.floats(allow_nan=False),
    st.binary(max_size=12),
)
_hashables = st.one_of(_ids, st.integers(), st.tuples(_ids, st.integers()))

#: Arbitrary ``Any``-annotated payload values: scalars plus nested
#: containers, message sequences, and an unregistered object (exercises
#: the pickle escape hatch as a leaf).
_payloads = st.recursive(
    st.one_of(_scalars, _hashables.map(lambda v: MessageSequence([v]))),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.frozensets(_hashables, max_size=3),
    ),
    max_leaves=8,
)


def _instances(cls):
    """Instances of one registered wire class with generated fields."""
    requests = st.builds(
        Request,
        rid=_ids,
        client=_ids,
        op=st.lists(_scalars, max_size=3).map(tuple),
    )
    by_annotation = {
        "str": _ids,
        "int": st.integers(-(2**31), 2**31),
        "bool": st.booleans(),
        "float": st.floats(allow_nan=False),
        "Optional[int]": st.none() | st.integers(0, 10_000),
        "Optional[str]": st.none() | _ids,
        "Tuple[str, ...]": st.lists(_ids, max_size=4).map(tuple),
        "Tuple[Any, ...]": st.lists(_scalars, max_size=4).map(tuple),
        "FrozenSet[str]": st.frozensets(_ids, max_size=4),
        "Tuple[Request, ...]": st.lists(requests, max_size=3).map(tuple),
        "DecisionVector": st.lists(
            st.tuples(_ids, _payloads), max_size=3
        ).map(tuple),
        "Any": _payloads,
    }
    return st.tuples(
        *[by_annotation[f.type] for f in fields(cls)]
    ).map(lambda values: cls(*values))


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_registered_type_roundtrips(data):
    """encode -> decode is the identity (by == and by repr) for every
    registered wire class, as a frame and bare."""
    cls = data.draw(st.sampled_from(registered_types()))
    message = data.draw(_instances(cls))
    # frozenset iteration order is not guaranteed to survive
    # reconstruction (it depends on insertion history when hashes
    # collide), so repr fidelity is only asserted for set-free examples;
    # field equality holds regardless.
    set_free = "frozenset(" not in repr(message)
    src, out = BinaryCodec.decode_frame(BinaryCodec.encode_frame("p1", message))
    assert src == "p1"
    assert out == message
    if set_free:
        assert repr(out) == repr(message)
    assert BinaryCodec.decode(BinaryCodec.encode(message)) == message


@settings(max_examples=100, deadline=None)
@given(st.lists(_hashables, max_size=8))
def test_message_sequence_payload_roundtrips(items):
    seq = MessageSequence(items)
    out = BinaryCodec.decode(BinaryCodec.encode(seq))
    assert isinstance(out, MessageSequence)
    assert out == seq
    assert tuple(out) == tuple(seq)


@settings(max_examples=100, deadline=None)
@given(
    rid=_ids,
    sender=_ids,
    group=st.lists(_ids, min_size=1, max_size=4).map(tuple),
    request=_instances(Request),
)
def test_rmsg_wrapping_roundtrips(rid, sender, group, request):
    """The R-multicast envelope round-trips with its nested Request."""
    wrapped = RMsg(rid, sender, request, group)
    src, out = BinaryCodec.decode_frame(BinaryCodec.encode_frame("s1", wrapped))
    assert out == wrapped
    assert out.payload == request


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_checksum_envelope_is_codec_stable(data):
    """The PR-7 wire checksum (CRC-32 of repr) is invariant under a
    codec round-trip -- for registered messages and for the fault
    plane's CorruptedPayload wrapper (which rides the pickle escape)."""
    cls = data.draw(st.sampled_from(registered_types()))
    message = data.draw(_instances(cls))
    # The checksum is CRC-32 of repr; see the set-order caveat above.
    assume("frozenset(" not in repr(message))
    out = BinaryCodec.decode(BinaryCodec.encode(message))
    assert wire_checksum(out) == wire_checksum(message)

    mangled = CorruptedPayload(message)
    out = BinaryCodec.decode(BinaryCodec.encode(mangled))
    assert isinstance(out, CorruptedPayload)
    assert wire_checksum(out) == wire_checksum(mangled)


def test_registry_is_append_only_prefix():
    """Tags are list positions: dense, starting at 0, in registration
    order.  (Reordering or removal would silently corrupt the wire
    contract between mixed-version peers.)"""
    tags = [WIRE_TAGS[cls] for cls in registered_types()]
    assert tags == list(range(len(tags)))


# ---------------------------------------------------------------------------
# Codec-vs-reference determinism on a seeded scenario
# ---------------------------------------------------------------------------

_SCENARIO = dict(
    n_servers=3,
    n_clients=2,
    requests_per_client=10,
    machine="kv",
    driver="open",
    open_rate=1.0,
    grace=100.0,
    horizon=10_000.0,
    seed=99,
    trace_messages=True,
)


def _digest(monkeypatch, through_codec):
    """Run the seeded sim scenario, optionally with every payload
    round-tripped through the codec at transmit time, as if it crossed a
    real wire."""
    real_transmit = SimNetwork.transmit
    if through_codec:

        def transmit(self, src, dst, payload):
            wired = BinaryCodec.decode(BinaryCodec.encode(payload))
            return real_transmit(self, src, dst, wired)

        monkeypatch.setattr(SimNetwork, "transmit", transmit)
    run = run_scenario(ScenarioConfig(**_SCENARIO))
    assert run.all_done()
    return run.trace.digest()


def test_codec_is_transparent_to_trace_digests(monkeypatch):
    """A seeded scenario produces the identical trace digest whether
    payloads cross the wire through the codec or by reference."""
    reference = _digest(monkeypatch, through_codec=False)
    assert _digest(monkeypatch, through_codec=True) == reference
