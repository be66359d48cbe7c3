"""Integration: boundary group sizes and client crashes.

Proposition 4's second disjunct -- "or if a correct *server* receives
request m" -- covers the case where the client itself dies right after
(or during) its multicast: the request must still settle at every
correct server even though nobody is waiting for the reply.
"""

import pytest

from repro.analysis import checkers
from repro.core.messages import Request
from repro.broadcast.reliable import RMsg
from repro.faults import CrashDuringMulticast
from repro.harness import ScenarioConfig, run_scenario
from repro.harness.scenario import build_scenario

pytestmark = pytest.mark.integration



class TestGroupSizeBoundaries:
    def test_single_server_group(self):
        # Degenerate Π = {p1}: the sequencer endorses itself; weight 1 is
        # the majority of 1.
        run = run_scenario(
            ScenarioConfig(n_servers=1, requests_per_client=5, seed=1)
        )
        assert run.all_done()
        values = sorted(a.value.value for a in run.adopted().values())
        assert values == [1, 2, 3, 4, 5]

    def test_two_server_group(self):
        # n=2: majority weight 2, so adoption always needs the follower's
        # endorsement; zero crash tolerance but full consistency.
        run = run_scenario(
            ScenarioConfig(n_servers=2, requests_per_client=8, seed=2)
        )
        assert run.all_done()
        run.check_all()
        for adoption in run.trace.events(kind="adopt"):
            assert len(adoption["weight"]) == 2

    def test_even_group_majority(self):
        # n=4: majority is 3; one opt reply (weight 2) is never enough.
        run = run_scenario(
            ScenarioConfig(n_servers=4, requests_per_client=6, seed=3)
        )
        assert run.all_done()
        run.check_all()
        assert run.clients[0].majority_weight == 3


class TestClientCrash:
    def test_request_settles_after_client_crash(self):
        # The client dies immediately after its multicast leaves: servers
        # still deliver (nobody adopts -- the client is gone).
        run = build_scenario(
            ScenarioConfig(n_servers=3, n_clients=1, requests_per_client=1,
                           seed=4, grace=30.0)
        )
        client = run.clients[0]
        run.sim.schedule_at(0.5, lambda: run.network.crash(client.pid))
        run.execute()
        for server in run.servers:
            assert tuple(server.current_order.items) == ("c1-0",)
        checkers.check_total_order(run.servers)
        checkers.check_replica_convergence(run.servers)

    def test_client_crash_mid_multicast_relay_completes(self):
        # The client crashes while multicasting so only p2 receives the
        # request directly; the R-multicast relay must still spread it
        # (Prop. 4 via "a correct server receives m").
        run = build_scenario(
            ScenarioConfig(n_servers=3, n_clients=1, requests_per_client=1,
                           seed=5, grace=30.0)
        )
        client = run.clients[0]
        CrashDuringMulticast(
            run.network,
            client.pid,
            lambda payload: isinstance(payload, RMsg)
            and isinstance(payload.payload, Request),
            deliver_to={"p2"},
        )
        run.execute()
        assert run.network.is_crashed(client.pid)
        for server in run.servers:
            assert tuple(server.current_order.items) == ("c1-0",)

    def test_client_crash_before_any_delivery_is_clean(self):
        # Nobody received the request: it simply never happened; the
        # group stays empty and consistent.
        run = build_scenario(
            ScenarioConfig(n_servers=3, n_clients=1, requests_per_client=1,
                           seed=6, grace=30.0)
        )
        client = run.clients[0]
        CrashDuringMulticast(
            run.network,
            client.pid,
            lambda payload: isinstance(payload, RMsg),
            deliver_to=set(),
        )
        run.execute()
        for server in run.servers:
            assert len(server.current_order) == 0

    def test_surviving_clients_unaffected(self):
        run = build_scenario(
            ScenarioConfig(n_servers=3, n_clients=2, requests_per_client=5,
                           seed=7, grace=60.0)
        )
        doomed, survivor = run.clients
        run.sim.schedule_at(4.0, lambda: run.network.crash(doomed.pid))
        run.execute()
        assert len(survivor.adopted) == 5
        checkers.check_external_consistency(run.trace, strict=False)
        checkers.check_total_order(run.servers)
