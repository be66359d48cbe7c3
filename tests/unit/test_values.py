"""One object per fact: what a request leaves behind is compact values.

Every wire message, result and adoption is a frozen slotted value built
through its slot descriptors (``repro.values.frozen_value``); the codec
registers nothing else; a client keeps one tuple per distinct adoption
weight and one rid object per request, whatever copies the wire hands it.
"""

import inspect
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import Any, Dict, Optional

import pytest

from repro.core.client import AdoptedReply, OARClient
from repro.core.messages import ReadReply, Reply, Request
from repro.harness.scenario import ScenarioConfig
from repro.runtime import codec
from repro.runtime.codec import BinaryCodec, registered_types
from repro.sharding.cluster import run_sharded_scenario
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process
from repro.sim.trace import TraceEvent
from repro.statemachine.base import OpResult
from repro.values import frozen_value

pytestmark = pytest.mark.unit


@frozen_value
class _Point:
    x: int
    y: Optional[int] = None
    tags: Dict[str, Any] = field(default_factory=dict)


class TestFrozenValue:
    def test_builds_like_the_dataclass_it_declares(self):
        assert _Point(1) == _Point(x=1, y=None, tags={})
        assert _Point(1, 2, {"a": 1}).tags == {"a": 1}
        assert _Point(1).tags is not _Point(1).tags  # a fresh default per instance
        assert hash(OpResult(True, 1)) == hash(OpResult(ok=True, value=1))
        assert repr(_Point(1, 2)) == "_Point(x=1, y=2, tags={})"
        assert str(inspect.signature(_Point)) == "(x, y=None, tags=<factory>)"
        with pytest.raises(TypeError):
            _Point()

    def test_is_frozen_and_has_no_instance_dict(self):
        point = _Point(1)
        with pytest.raises(FrozenInstanceError):
            point.x = 2
        assert not hasattr(point, "__dict__")
        assert _Point.__init__.__qualname__ == "_Point.__init__"

    def test_refuses_what_its_init_would_skip(self):
        with pytest.raises(TypeError, match="unsupported"):
            @frozen_value
            class _Hidden:
                x: int = field(default=0, init=False)

        with pytest.raises(TypeError, match="unsupported"):
            @frozen_value
            class _Checked:
                x: int

                def __post_init__(self) -> None:
                    pass


def test_every_wire_class_and_per_request_value_is_frozen_and_slotted():
    def compact(cls: type) -> bool:
        return (
            cls.__dataclass_params__.frozen
            and "__slots__" in cls.__dict__
            and cls.__dictoffset__ == 0
            and {f.name for f in fields(cls)} <= set(cls.__slots__)
        )

    values = [*registered_types(), AdoptedReply, TraceEvent]
    assert [cls.__name__ for cls in values if not compact(cls)] == []


def test_the_codec_refuses_an_unslotted_class():
    @dataclass(frozen=True)
    class Unslotted:
        rid: str

    tags = dict(codec.WIRE_TAGS)
    with pytest.raises(TypeError, match="slotted"):
        codec._register(Unslotted, len(tags) + 1000)
    assert codec.WIRE_TAGS == tags  # refused before anything was installed


@pytest.mark.parametrize("message", [
    Reply(rid="c1-0", value=OpResult(True, 5), position=1, weight=frozenset({"p1"}), epoch=0),
    ReadReply(rid="c1-r0", value=OpResult(True, 5), position=1, settled=1, epoch=0),
], ids=["Reply", "ReadReply"])
def test_a_decoded_result_has_no_instance_dict(message):
    src, decoded = BinaryCodec.decode_frame(BinaryCodec.encode_frame("p1", message))
    assert (src, decoded) == ("p1", message)
    assert not hasattr(decoded.value, "__dict__")


class _Sink(Process):
    def on_message(self, src: str, payload: Any) -> None:
        pass


def _client() -> OARClient:
    network = SimNetwork(Simulator(seed=0), latency=ConstantLatency(1.0))
    for pid in ("p1", "p2", "p3"):
        network.add_process(_Sink(pid))
    client = OARClient(
        "c1", [("p1", "p2", "p3")], read_mode="optimistic",
        is_read_only=lambda op: op[0] == "get",
    )
    network.add_process(client)
    network.start_all()
    return client


def _over_the_wire(message: Any) -> Any:
    """The copy a real backend hands the receiver: every string new."""
    return BinaryCodec.decode_frame(BinaryCodec.encode_frame("p2", message))[1]


class TestOneObjectPerFact:
    def test_equal_weights_share_one_tuple(self):
        client = _client()
        writes = [client.submit(("set", "k", i)) for i in range(2)]
        for rid in writes:
            client.on_message("p2", Reply(rid, "ok", 1, frozenset({"p1", "p2"}), 0))
        reads = [client.submit(("get", "k")) for _ in range(2)]
        for rid in reads:
            client.on_message("p2", ReadReply(rid, "v", 1, 1, 0))
        first, second = (client.adopted[rid].weight for rid in writes)
        assert first == ("p1", "p2") and first is second
        first, second = (client.adopted[rid].weight for rid in reads)
        assert first == ("p2",) and first is second

    def test_equal_weights_share_one_tuple_over_a_run(self):
        run = run_sharded_scenario(ScenarioConfig(
            machine="kv", workload="readheavy", read_ratio=0.5, read_mode="optimistic",
            n_clients=2, requests_per_client=30, seed=3,
        ))
        for client in run.clients:
            adopted = list(client.adopted.values())
            assert len({a.weight for a in adopted}) == len({id(a.weight) for a in adopted})

    @pytest.mark.parametrize("op", [("get", "k"), ("set", "k", 1)], ids=["read", "write"])
    def test_an_adoption_carries_the_rid_submit_returned(self, op):
        client = _client()
        rid = client.submit(op)
        if op[0] == "get":
            reply: Any = ReadReply(rid, "v", 1, 1, 0)
        else:
            reply = Reply(rid, "ok", 1, frozenset({"p1", "p2"}), 0)
        copy = _over_the_wire(reply)
        assert copy.rid == rid and copy.rid is not rid
        client.on_message("p2", copy)
        adopted = client.adopted[rid]
        assert adopted.rid is rid
        assert next(iter(client.adopted)) is rid

    def test_a_client_keeps_no_mid_of_a_group_it_is_not_in(self):
        client = _client()
        client.submit(("set", "k", 1))
        client.rmc.multicast(Request("x", "c1", ("noop",)), ("p1", "p2"))
        assert client.rmc._low == {}
        # A member still remembers its own mid: its peers relay it back.
        client.rmc.multicast(Request("y", "c1", ("noop",)), ("c1", "p1"))
        assert len(client.rmc._low) == 1
