"""Integration: client retransmission and the server-side reply cache.

Replies travel on plain channels (they die with a crashing server or a
lossy link), so the client can starve even though its request was
delivered and executed.  Retransmitting the same request must never
re-execute it (at-most-once) but must re-produce the cached reply.
"""

from typing import Any, List

from repro.core.client import OARClient
from repro.core.messages import Reply, Request
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import ScriptedFailureDetector
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import CounterMachine

import pytest

pytestmark = pytest.mark.integration



def build(retry_interval=10.0):
    sim = Simulator(seed=5)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = ["p1", "p2", "p3"]
    servers = []
    for pid in group:
        server = OARServer(
            pid, group, CounterMachine(), ScriptedFailureDetector(), OARConfig()
        )
        servers.append(server)
        network.add_process(server)
    client = OARClient("c1", group, retry_interval=retry_interval)
    network.add_process(client)
    network.start_all()
    return sim, network, servers, client


class TestRetransmission:
    def test_lost_replies_recovered_by_retry(self):
        sim, network, servers, client = build(retry_interval=10.0)
        # Drop every reply for the first 5 time units.
        network.ensure_fault_plane().add_drop_rule(
            lambda src, dst, payload: isinstance(payload, Reply) and sim.now < 5.0
        )
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))
        sim.run(until=60.0, max_events=100_000)
        assert len(client.adopted) == 1
        assert client.retransmissions >= 1
        # Exactly-once execution despite the duplicate request.
        for server in servers:
            assert server.machine.fingerprint() == 1
            assert len(server.current_order) == 1

    def test_retry_does_not_duplicate_execution(self):
        sim, network, servers, client = build(retry_interval=2.0)
        # Replies flow normally; the aggressive retry races the first
        # adoption and must be harmless.
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))
        sim.schedule_at(8.0, lambda: client.submit(("incr",)))
        sim.run(until=80.0, max_events=100_000)
        assert len(client.adopted) == 2
        values = sorted(a.value.value for a in client.adopted.values())
        assert values == [1, 2]
        for server in servers:
            assert server.machine.fingerprint() == 2

    def test_cached_reply_resent_for_duplicate_rid(self):
        sim, network, servers, client = build(retry_interval=None)
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))
        sim.run(until=20.0, max_events=50_000)
        assert len(client.adopted) == 1
        # Hand-craft a duplicate of the same request (a "late relay").
        request = Request(rid="c1-0", client="c1", op=("incr",))
        replies_before = client.late_replies
        for server in servers:
            server._task0_request(request)
        sim.run(until=40.0, max_events=50_000)
        # The duplicates were answered from the cache (late replies at
        # the already-adopted client), not re-executed.
        assert client.late_replies > replies_before
        for server in servers:
            assert server.machine.fingerprint() == 1

    def test_no_retries_when_replies_flow(self):
        sim, network, servers, client = build(retry_interval=50.0)
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))
        sim.run(until=200.0, max_events=50_000)
        assert client.retransmissions == 0

    def test_retry_during_phase2_is_safe(self):
        sim, network, servers, client = build(retry_interval=3.0)
        detectors = {s.pid: s.fd for s in servers}
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))

        def suspect():
            for pid in ("p2", "p3"):
                detectors[pid].force_suspect("p1")

        sim.schedule_at(1.5, suspect)
        sim.run(until=100.0, max_events=200_000)
        assert len(client.adopted) == 1
        for server in servers:
            assert server.machine.fingerprint() == 1
