"""Unit tests for the per-link fault plane: policies, blocks, accounting."""

from typing import Any, List, Tuple

import pytest

from repro.analysis.checkers import CheckFailure, check_fault_plane_accounting
from repro.core.messages import Request
from repro.faults.injection import FaultSchedule
from repro.sim.faultplane import (
    CorruptedPayload,
    LinkFaultPolicy,
    payload_kinds,
    wire_checksum,
)
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process

pytestmark = pytest.mark.unit


class Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Tuple[str, Any]] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


def build(n: int = 2, seed: int = 1):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    processes = [Recorder(f"p{i + 1}") for i in range(n)]
    for process in processes:
        network.add_process(process)
    network.start_all()
    return sim, network, processes


class TestPolicyValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LinkFaultPolicy(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaultPolicy(duplicate=-0.1)
        with pytest.raises(ValueError):
            LinkFaultPolicy(jitter_span=-1.0)

    def test_payload_kinds_reaches_through_rmsg(self):
        request = Request(rid="c1:1", client="c1", op=("mig_install", "k1"))
        assert "Request" in payload_kinds(request)
        assert "mig_install" in payload_kinds(request)

        class RMsg:  # structural stand-in for the broadcast wrapper
            def __init__(self, payload):
                self.payload = payload

        wrapped = RMsg(request)
        kinds = payload_kinds(wrapped)
        assert {"RMsg", "Request", "mig_install"} <= kinds


class TestPolicyMatching:
    def test_first_match_wins(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.add_policy(LinkFaultPolicy(), src="p1")  # benign rule first
        plane.add_policy(LinkFaultPolicy(drop=1.0))  # lossy catch-all second
        a.env.send("p2", "x")
        sim.run()
        assert [p for _s, p in b.received] == ["x"]
        assert plane.dropped == 0

    def test_src_dst_specific_rule(self):
        sim, network, (a, b, c) = build(n=3)
        plane = network.ensure_fault_plane()
        plane.add_policy(LinkFaultPolicy(drop=1.0), src="p1", dst="p2")
        a.env.send("p2", "lost")
        a.env.send("p3", "kept")
        sim.run()
        assert b.received == []
        assert [p for _s, p in c.received] == ["kept"]
        assert plane.dropped == 1

    def test_kind_specific_rule(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.add_policy(LinkFaultPolicy(drop=1.0), kind="Request")
        a.env.send("p2", Request(rid="c1:1", client="c1", op=("inc",)))
        a.env.send("p2", "plain string survives")
        sim.run()
        assert [p for _s, p in b.received] == ["plain string survives"]


class TestDropDupCorrupt:
    def test_certain_drop_counts_and_traces(self):
        sim, network, (a, b) = build()
        FaultSchedule().links(drop=1.0).install(network)
        for i in range(5):
            a.env.send("p2", i)
        sim.run()
        assert b.received == []
        plane = network.fault_plane
        assert plane.dropped == 5
        assert len(network.trace.events(kind="msg_drop")) == 5
        check_fault_plane_accounting(network.trace, network)

    def test_certain_duplicate_delivers_twice(self):
        sim, network, (a, b) = build()
        FaultSchedule().links(duplicate=1.0).install(network)
        a.env.send("p2", "x")
        sim.run()
        assert [p for _s, p in b.received] == ["x", "x"]
        assert network.fault_plane.duplicated == 1
        check_fault_plane_accounting(network.trace, network)

    def test_corruption_detected_and_dropped(self):
        sim, network, (a, b) = build()
        FaultSchedule().links(corrupt=1.0).install(network)
        a.env.send("p2", "precious")
        sim.run()
        # The corrupted payload never reaches the process.
        assert b.received == []
        assert network.fault_plane.corrupted == 1
        assert network.corrupt_dropped == 1
        assert len(network.trace.events(kind="msg_corrupt_drop")) == 1
        check_fault_plane_accounting(network.trace, network)

    def test_checksum_detects_wrapped_payload(self):
        payload = ("deposit", "alice", 5)
        stamp = wire_checksum(payload)
        assert wire_checksum(CorruptedPayload(payload)) != stamp

    def test_probabilistic_faults_deterministic_per_seed(self):
        def run(seed: int) -> List[Any]:
            sim, network, (a, b) = build(seed=seed)
            FaultSchedule().links(drop=0.3, duplicate=0.3).install(network)
            for i in range(40):
                a.env.send("p2", i)
            sim.run()
            return [p for _s, p in b.received]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestJitter:
    def test_jitter_reorders_channel(self):
        sim, network, (a, b) = build(seed=2)
        FaultSchedule().links(jitter=1.0, jitter_span=20.0).install(network)
        for i in range(30):
            a.env.send("p2", i)
        sim.run()
        payloads = [p for _s, p in b.received]
        assert sorted(payloads) == list(range(30))
        assert payloads != list(range(30))  # genuinely reordered
        assert network.fault_plane.jittered == 30
        check_fault_plane_accounting(network.trace, network)


class TestOneWayBlocks:
    def test_block_is_asymmetric(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.block("p1", "p2")
        a.env.send("p2", "muted")
        b.env.send("p1", "reverse still up")
        sim.run()
        assert b.received == []
        assert [p for _s, p in a.received] == ["reverse still up"]
        assert plane.pending_held == 1

    def test_heal_storm_releases_everything(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.block("p1", "*")
        for i in range(4):
            a.env.send("p2", i)
        sim.run()
        assert b.received == []
        plane.heal()
        sim.run()
        assert sorted(p for _s, p in b.received) == [0, 1, 2, 3]
        assert plane.held == 4
        assert plane.released == 4
        assert plane.pending_held == 0
        storms = network.trace.events(kind="heal_storm")
        assert len(storms) == 1 and storms[0]["released"] == 4
        check_fault_plane_accounting(network.trace, network)

    def test_unblock_without_release(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.block("p1", "p2")
        a.env.send("p2", "stuck")
        sim.run()
        plane.unblock("p1", "p2")
        a.env.send("p2", "flows")
        sim.run()
        # Unblock opens the link for new traffic; held traffic waits for
        # the heal storm.
        assert [p for _s, p in b.received] == ["flows"]
        assert plane.pending_held == 1

    def test_schedule_oneway_actions(self):
        sim, network, (a, b) = build()
        schedule = (
            FaultSchedule()
            .oneway(1.0, [("p1", "p2")])
            .heal_oneway(10.0)
        )
        schedule.apply(network)
        sim.schedule_at(2.0, lambda: a.env.send("p2", "held"))
        sim.run()
        assert [p for _s, p in b.received] == ["held"]
        assert network.fault_plane.released == 1


class TestRewrites:
    def test_rewrite_replaces_payload_and_counts(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.add_rewrite(
            lambda src, dst, payload: "forged" if payload == "original" else None
        )
        a.env.send("p2", "original")
        a.env.send("p2", "other")
        sim.run()
        assert [p for _s, p in b.received] == ["forged", "other"]
        assert plane.rewritten == 1
        check_fault_plane_accounting(network.trace, network)

    def test_rewrite_is_checksummed_as_sent(self):
        # A Byzantine sender signs its own lie: the rewritten payload is
        # delivered (valid checksum), not dropped as corrupt.
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.add_policy(LinkFaultPolicy(corrupt=0.0, drop=0.0))
        plane._checksums = True  # force stamping without any corrupt rule
        plane.add_rewrite(lambda src, dst, payload: "forged")
        a.env.send("p2", "original")
        sim.run()
        assert [p for _s, p in b.received] == ["forged"]
        assert network.corrupt_dropped == 0


class TestAccountingChecker:
    def test_zero_baseline_without_plane(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "x")
        sim.run()
        stats = check_fault_plane_accounting(network.trace, network)
        assert stats == {"corrupt_dropped": 0}

    def test_counter_tampering_detected(self):
        sim, network, (a, b) = build()
        FaultSchedule().links(drop=1.0).install(network)
        a.env.send("p2", "x")
        sim.run()
        network.fault_plane.dropped += 1  # silent fault: counter w/o trace
        with pytest.raises(CheckFailure):
            check_fault_plane_accounting(network.trace, network)

    def test_held_conservation_violation_detected(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.block("p1", "p2")
        a.env.send("p2", "x")
        sim.run()
        plane._held.clear()  # lose a held message without releasing it
        with pytest.raises(CheckFailure):
            check_fault_plane_accounting(network.trace, network)

    def test_a_message_lost_from_a_partition_hold_is_detected(self):
        sim, network, (a, b) = build()
        plane = network.ensure_fault_plane()
        plane.partition([["p1"], ["p2"]])
        for i in range(3):
            a.env.send("p2", i)
        sim.run()
        check_fault_plane_accounting(network.trace, network)  # 3 held, 3 pending
        plane._partition_held.pop()  # lose a held message without releasing it
        plane.heal_partition()
        sim.run()
        assert [p for _s, p in b.received] == [0, 1]
        with pytest.raises(CheckFailure, match="partition_held=3"):
            check_fault_plane_accounting(network.trace, network)

    def test_stats_surface_on_network(self):
        sim, network, (a, b) = build()
        FaultSchedule().links(drop=1.0).install(network)
        a.env.send("p2", "x")
        sim.run()
        stats = network.stats()
        assert stats["dropped"] == 1
        assert stats["sent"] == 1
        assert stats["corrupt_dropped"] == 0
