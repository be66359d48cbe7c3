"""Unit tests for the OAR client's weighted-quorum adoption rule (Fig. 5)."""

from typing import Any, List

from repro.core.client import OARClient
from repro.core.messages import Reply, ShedNotice
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process

import pytest

pytestmark = pytest.mark.unit



class Sink(Process):
    """Stands in for a server: absorbs the R-multicast requests."""

    def on_message(self, src: str, payload: Any) -> None:
        pass


def build(n_servers: int = 3):
    sim = Simulator(seed=0)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = [f"p{i + 1}" for i in range(n_servers)]
    for pid in group:
        network.add_process(Sink(pid))
    client = OARClient("c1", [group])
    network.add_process(client)
    network.start_all()
    return sim, network, client, group


def reply(rid, weight, epoch=0, value="v", position=1, conservative=False):
    return Reply(
        rid=rid,
        value=value,
        position=position,
        weight=frozenset(weight),
        epoch=epoch,
        conservative=conservative,
    )


class TestMajorityWeight:
    def test_majority_threshold(self):
        for n_servers, majority in ((3, 2), (4, 3), (5, 3)):
            _sim, _network, client, _group = build(n_servers)
            rid = client.submit(("incr",))
            assert client._pending[rid].majority_weight == majority

    def test_single_sequencer_reply_insufficient(self):
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        client.on_message("p1", reply(rid, {"p1"}))
        assert rid not in client.adopted

    def test_non_sequencer_reply_carries_weight_two(self):
        # A reply with W = {p2, s} alone reaches majority for n=3.
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert rid in client.adopted
        assert client.adopted[rid].weight == ("p1", "p2")

    def test_union_of_weights_accumulates(self):
        # n=5: two disjoint-ish optimistic replies unite to a majority.
        sim, network, client, group = build(5)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert rid not in client.adopted  # weight 2 < 3
        client.on_message("p3", reply(rid, {"p3", "p1"}))
        assert rid in client.adopted  # union {p1,p2,p3} = 3

    def test_conservative_reply_adopted_alone(self):
        sim, network, client, group = build(5)
        rid = client.submit(("incr",))
        client.on_message(
            "p4", reply(rid, set(group), conservative=True)
        )
        adopted = client.adopted[rid]
        assert adopted.conservative
        assert adopted.weight == tuple(sorted(group))

    def test_heaviest_reply_wins(self):
        # An optimistic and a conservative reply in the same epoch: the
        # conservative (weight Π) must be adopted.
        sim, network, client, group = build(4)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}, value="opt", position=3))
        client.on_message(
            "p3",
            reply(rid, set(group), value="cons", position=4, conservative=True),
        )
        assert client.adopted[rid].value == "cons"
        assert client.adopted[rid].position == 4


class TestEpochSeparation:
    def test_weights_do_not_mix_across_epochs(self):
        # n=5: weight-2 replies from different epochs never unite.
        sim, network, client, group = build(5)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}, epoch=0))
        client.on_message("p3", reply(rid, {"p3", "p2"}, epoch=1))
        assert rid not in client.adopted

    def test_adoption_in_later_epoch(self):
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2"}, epoch=0))
        client.on_message("p3", reply(rid, {"p3", "p2"}, epoch=1))
        assert client.adopted[rid].epoch == 1


class TestReplyBookkeeping:
    def test_server_upgrade_keeps_heavier_reply(self):
        sim, network, client, group = build(4)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}, value="opt"))
        client.on_message(
            "p2", reply(rid, set(group), value="cons", conservative=True)
        )
        assert client.adopted[rid].value == "cons"

    def test_late_replies_counted_not_readopted(self):
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}, value="first"))
        assert client.adopted[rid].value == "first"
        client.on_message("p3", reply(rid, {"p3", "p1"}, value="late"))
        assert client.adopted[rid].value == "first"
        assert client.late_replies == 1

    def test_unknown_rid_ignored(self):
        sim, network, client, group = build(3)
        client.on_message("p2", reply("ghost-1", {"p2", "p1"}))
        assert client.adopted == {}
        assert client.late_replies == 1

    def test_outstanding_counts(self):
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        assert client.outstanding == 1
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert client.outstanding == 0

    def test_adopt_callback_fires(self):
        sim, network, client, group = build(3)
        seen: List[Any] = []
        client.on_adopt = seen.append
        rid = client.submit(("incr",))
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert [a.rid for a in seen] == [rid]

    def test_latency_measured_from_submit(self):
        sim, network, client, group = build(3)
        rid = client.submit(("incr",))
        sim.run(until=7.0)
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert client.adopted[rid].latency == 7.0


class TestThen:
    """``submit(op, then=...)``: the continuation gets the adopted reply
    *instead of* the driver; ``submit_time`` back-dates the request."""

    def test_then_gets_the_adoption_instead_of_the_driver(self):
        sim, network, client, group = build(3)
        driver: List[Any] = []
        handed: List[Any] = []
        client.on_adopt = driver.append
        rid = client.submit(("incr",), then=handed.append)
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert [a.rid for a in handed] == [rid]
        assert driver == [] and client.adopted == {}
        assert client.outstanding == 0

    def test_submit_time_back_dates_the_request(self):
        sim, network, client, group = build(3)
        sim.run(until=4.0)
        rid = client.submit(("incr",), submit_time=1.5)
        sim.run(until=7.0)
        client.on_message("p2", reply(rid, {"p2", "p1"}))
        assert client.adopted[rid].submit_time == 1.5
        assert client.adopted[rid].latency == 5.5

    def test_a_shed_request_resolves_through_its_continuation_too(self):
        sim, network, client, group = build(3)
        handed: List[Any] = []
        rid = client.submit(("incr",), then=handed.append)
        client.on_message("p1", ShedNotice(rid=rid, cls="default", queue=9, limit=8))
        assert [a.rid for a in handed] == [rid] and not handed[0].value.ok
        assert client.adopted == {}
