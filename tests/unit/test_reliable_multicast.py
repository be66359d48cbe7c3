"""Unit tests for R-multicast: Validity, Agreement, Integrity (Section 3)."""

from typing import Any, List, Tuple

from repro.broadcast.reliable import ReliableMulticast, RMsg
from repro.faults.injection import CrashDuringMulticast
from repro.sim.component import ComponentProcess
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

import pytest

pytestmark = pytest.mark.unit



class Member(ComponentProcess):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.delivered: List[Tuple[str, Any]] = []
        self.rmc = self.add_component(
            ReliableMulticast(self, lambda origin, payload: self.delivered.append((origin, payload)))
        )


def build(n: int = 4, seed: int = 0):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    members = [Member(f"p{i + 1}") for i in range(n)]
    for member in members:
        network.add_process(member)
    network.start_all()
    group = [m.pid for m in members]
    return sim, network, members, group


class TestValidity:
    def test_all_correct_members_deliver(self):
        sim, network, members, group = build()
        members[0].rmc.multicast("hello", group)
        sim.run()
        for member in members:
            assert member.delivered == [("p1", "hello")]

    def test_sender_delivers_locally_when_in_group(self):
        sim, network, members, group = build()
        members[0].rmc.multicast("x", group)
        sim.run()
        assert members[0].delivered == [("p1", "x")]

    def test_external_sender_not_in_group(self):
        sim, network, members, group = build(n=3)
        outsider = Member("client")
        network.start(outsider)
        outsider.rmc.multicast("req", group)
        sim.run()
        assert outsider.delivered == []  # not a group member
        for member in members:
            assert member.delivered == [("client", "req")]


class TestIntegrity:
    def test_no_duplicate_delivery_despite_relays(self):
        sim, network, members, group = build(n=5)
        members[0].rmc.multicast("once", group)
        sim.run()
        for member in members:
            assert len(member.delivered) == 1

    def test_distinct_messages_all_delivered(self):
        sim, network, members, group = build()
        members[0].rmc.multicast("a", group)
        members[1].rmc.multicast("b", group)
        sim.run()
        for member in members:
            assert sorted(p for _o, p in member.delivered) == ["a", "b"]

    def test_message_ids_unique_per_sender(self):
        sim, network, members, group = build(n=2)
        mid1 = members[0].rmc.multicast("a", group)
        mid2 = members[0].rmc.multicast("b", group)
        assert mid1 != mid2


class TestAgreement:
    def test_crash_mid_multicast_still_reaches_all_correct(self):
        # The defining scenario: the sender crashes so that only p2
        # receives the original send; p2's relay completes delivery.
        sim, network, members, group = build(n=4)
        CrashDuringMulticast(
            network,
            "p1",
            lambda payload: isinstance(payload, RMsg) and payload.payload == "crashy",
            deliver_to={"p2"},
        )
        members[0].rmc.multicast("crashy", group)
        sim.run()
        assert network.is_crashed("p1")
        for member in members[1:]:
            assert member.delivered == [("p1", "crashy")]

    def test_crash_before_any_delivery_means_nobody_delivers(self):
        # Integrity direction: if no correct process received it, none
        # delivers it (the message simply never happened).
        sim, network, members, group = build(n=4)
        CrashDuringMulticast(
            network,
            "p1",
            lambda payload: isinstance(payload, RMsg),
            deliver_to=set(),
        )
        members[0].rmc.multicast("ghost", group)
        sim.run()
        for member in members[1:]:
            assert member.delivered == []

    def test_relay_happens_even_if_receiver_crashes_after_relaying(self):
        # p2 receives, relays, and crashes before anyone else hears from
        # the (already crashed) origin: relays already in flight complete
        # the dissemination.
        sim, network, members, group = build(n=4)
        CrashDuringMulticast(
            network,
            "p1",
            lambda payload: isinstance(payload, RMsg),
            deliver_to={"p2"},
        )
        members[0].rmc.multicast("fragile", group)
        # p2 receives at t=1.0 and relays within that event; crash it
        # immediately after.
        network.crash_at(1.0001, "p2")
        sim.run()
        for member in members[2:]:
            assert member.delivered == [("p1", "fragile")]
