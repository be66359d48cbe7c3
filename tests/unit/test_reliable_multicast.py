"""Unit tests for R-multicast: Validity, Agreement, Integrity (Section 3)."""

import itertools
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


class _Host:
    """Just enough of a process for one ``ReliableMulticast`` to receive:
    a pid, and an env whose sends go nowhere."""

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.env = self
        self.sent = 0

    def send(self, dst: str, payload: Any) -> None:
        self.sent += 1


def _copies(order: Tuple[int, ...], dropped: int) -> List[int]:
    """Every mid of ``order`` twice -- first in ``order``, then its
    duplicate in reverse -- less the mids whose bit is set in
    ``dropped`` (both copies lost)."""
    kept = [mid for mid in order if not dropped >> mid & 1]
    return kept + kept[::-1]


class TestWatermark:
    """Integrity by a per-(origin, group) watermark plus a sparse set
    above it, checked against the plain set of every mid it replaces."""

    GROUP = ("r",)

    def test_agrees_with_a_set_of_every_mid_on_every_order(self):
        orders = list(itertools.permutations(range(5)))
        runs = 0
        for i, order in enumerate(orders):
            other = orders[(7 * i + 3) % len(orders)]
            for dropped in range(32):
                host = _Host("r")
                delivered: List[Tuple[str, int]] = []
                rmc = ReliableMulticast(host, lambda _o, p: delivered.append(p))
                streams = (
                    [("a", mid) for mid in _copies(order, dropped)],
                    [("b", mid) for mid in _copies(other, 31 - dropped)],
                )
                arrivals = [
                    copy
                    for pair in itertools.zip_longest(*streams)
                    for copy in pair
                    if copy is not None
                ]
                reference = set()
                for origin, mid in arrivals:
                    before = len(delivered)
                    rmc.on_message("x", RMsg(mid, origin, (origin, mid), self.GROUP))
                    first = (origin, mid) not in reference
                    reference.add((origin, mid))
                    # Delivered exactly on first receipt: no duplicate
                    # passes, no first copy is taken for a duplicate.
                    assert len(delivered) - before == int(first), (order, dropped, origin, mid)
                assert sorted(delivered) == sorted(reference)
                for origin in ("a", "b"):
                    # The state is the set it replaces, folded: every mid
                    # up to low, the rest above it.
                    got = {mid for o, mid in reference if o == origin}
                    low = rmc._low.get((origin, self.GROUP), -1)
                    above = rmc._above.get((origin, self.GROUP), set())
                    assert set(range(low + 1)) <= got and low + 1 not in got
                    assert above == {mid for mid in got if mid > low}
                runs += 1
        assert runs == 120 * 32

    def test_origins_and_groups_are_numbered_apart(self):
        host = _Host("r")
        delivered: List[Any] = []
        rmc = ReliableMulticast(host, lambda o, p: delivered.append(p))
        for origin, group in (("a", ("r",)), ("b", ("r",)), ("a", ("r", "s"))):
            rmc.on_message("x", RMsg(0, origin, (origin, group), group))
        assert len(delivered) == 3

    def test_a_dropped_copy_leaves_later_mids_waiting_and_none_twice(self):
        sim, network, members, group = build(n=3)
        # Mid 1 of p1 never reaches p3, on its own link or relayed.
        network.ensure_fault_plane().add_drop_rule(
            lambda src, dst, payload: dst == "p3" and isinstance(payload, RMsg)
            and payload.origin == "p1" and payload.mid == 1
        )
        for n in range(5):
            members[0].rmc.multicast(f"m{n}", group)
        sim.run()
        key = ("p1", tuple(group))
        assert [p for _o, p in members[2].delivered] == ["m0", "m2", "m3", "m4"]
        assert (members[2].rmc._low[key], members[2].rmc._above) == (0, {key: {2, 3, 4}})
        for member in members[:2]:
            assert len(member.delivered) == 5
            assert (member.rmc._low[key], member.rmc._above) == (4, {})
