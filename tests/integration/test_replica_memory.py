"""Integration: what a replica keeps per write once the write is done.

R-multicast keeps a watermark per origin instead of every mid it saw,
and the reply cache keeps every reply only for a client that may send
a rid again; both follow in-flight work, not history.
"""

from collections import Counter

import pytest

from repro.faults.injection import FaultSchedule
from repro.harness.scenario import ScenarioConfig, build_scenario

pytestmark = pytest.mark.integration


def _counting_rdeliveries(run):
    """Count each member's R-deliveries per request, through the
    callback its ``ReliableMulticast`` hands every first receipt to."""
    counts = {}
    for server in run.servers:
        seen = counts[server.pid] = Counter()
        deliver = server.rmc._deliver

        def counted(origin, payload, deliver=deliver, seen=seen):
            seen[getattr(payload, "rid", payload)] += 1
            deliver(origin, payload)

        server.rmc._deliver = counted
    return counts


def _kv(**fields):
    return ScenarioConfig(
        protocol="oar", n_servers=3, n_clients=2, machine="kv", **fields
    )


class TestRMulticastIntegrity:
    def test_each_request_is_r_delivered_once_under_duplication_and_jitter(self):
        run = build_scenario(_kv(
            requests_per_client=40,
            # Open loop: a client has several mids in flight, so jitter
            # can reorder them.
            driver="open",
            open_rate=2.0,
            fault_schedule=FaultSchedule().links(
                duplicate=0.3, jitter=0.3, jitter_span=4.0
            ),
            seed=11,
        ))
        counts = _counting_rdeliveries(run)
        waited = Counter()
        for server in run.servers:
            receive = server.rmc.on_message

            def watched(src, payload, receive=receive, rmc=server.rmc, pid=server.pid):
                receive(src, payload)
                waited[pid] = max(waited[pid], sum(map(len, rmc._above.values())))

            server.rmc.on_message = watched
        run.execute()
        assert run.all_done()
        run.check_all()
        plane = run.network.fault_plane
        assert plane.duplicated > 0 and plane.jittered > 0
        # Jitter overtook copies: some mids arrived above a gap.
        assert max(waited.values()) > 0
        submitted = {rid for c in run.clients for rid in c.routed_to(0)}
        assert len(submitted) == 80
        for server in run.servers:
            requests = {rid: n for rid, n in counts[server.pid].items() if rid in submitted}
            assert requests == dict.fromkeys(submitted, 1)
            # Nothing was lost for good, so every gap closed.
            assert server.rmc._above == {}

    def test_a_failure_free_run_keeps_no_mid_above_any_watermark(self):
        run = build_scenario(_kv(
            requests_per_client=500, trace_level="off", seed=3,
        ))
        counts = _counting_rdeliveries(run)
        run.execute()
        assert len(run.adopted()) == 1_000
        for server in run.servers:
            assert set(counts[server.pid].values()) == {1}
            # One watermark per origin: the two clients and the
            # replicas (whose phase-2 notices are R-multicast too).
            low = server.rmc._low
            assert len(low) <= 2 + 3 and server.rmc._above == {}
            assert [low[c.pid, tuple(server.group)] for c in run.clients] == [499, 499]


class TestReplyCache:
    def test_a_client_that_never_retransmits_leaves_only_its_latest_reply(self):
        run = build_scenario(_kv(requests_per_client=50, seed=4))
        run.execute()
        assert run.all_done()
        latest = {c.routed_to(0)[-1] for c in run.clients}
        for server in run.servers:
            assert set(server._reply_cache) == latest
            assert set(server._latest_rid.values()) == latest
            assert server._shed_cache == {}

    def test_a_retransmitting_client_finds_every_reply_cached(self):
        run = build_scenario(_kv(requests_per_client=50, retry_interval=500.0, seed=4))
        run.execute()
        assert run.all_done()
        rids = {rid for c in run.clients for rid in c.routed_to(0)}
        assert len(rids) == 100
        for server in run.servers:
            assert set(server._reply_cache) == rids
            assert server._latest_rid == {}
