"""Integration: the OAR protocol hardened against link faults.

The paper's system model assumes reliable FIFO channels; the fault plane
(:mod:`repro.sim.faultplane`) breaks exactly that assumption -- loss,
duplication, corruption, reordering, asymmetric partitions -- and these
tests pin the hardening that keeps the protocol's guarantees standing:

* convergence under sustained drop+duplication (client retransmission +
  the sequencer's anti-entropy ``sync_interval``);
* corrupted payloads detected by the wire checksum and dropped, never
  applied;
* duplicated control messages (``mig_install``, ``split_open`` /
  ``split_close``, ``tx_commit``) absorbed idempotently;
* sequencer equivocation (divergent order certificates for one rid)
  raising the client-side alarm deterministically.
"""

import pytest

from repro.broadcast.reliable import RMsg
from repro.core.client import OARClient
from repro.core.messages import BodyBatch, Request, SeqOrder
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import ScriptedFailureDetector
from repro.faults import FaultSchedule
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding import ShardedScenarioConfig, attach_rebalancer, run_sharded_scenario
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.integration


LOSSY = OARConfig(sync_interval=20.0)


class TestConvergenceUnderLoss:
    def test_drop_and_duplication_on_every_link(self):
        # >= 5% independent drop and duplication on every link (the B15
        # acceptance cell): retransmission recovers lost replies and
        # requests, the anti-entropy tick repairs lost order messages,
        # and the full checker bundle stays green.
        config = ScenarioConfig(
            protocol="oar",
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            machine="kv",
            fd_kind="scripted",
            retry_interval=25.0,
            oar=LOSSY,
            fault_schedule=FaultSchedule().links(drop=0.05, duplicate=0.05),
            seed=0,
        )
        run = run_scenario(config)
        assert run.all_done(), "did not converge under 5% drop + dup"
        run.check_all()
        assert run.network.fault_plane.dropped > 0
        assert run.network.fault_plane.duplicated > 0
        retransmits = sum(c.retransmissions for c in run.clients)
        assert retransmits >= 0  # overhead is reported, loss may be absorbed

    def test_convergence_across_seeds(self):
        for seed in (1, 2, 3):
            config = ScenarioConfig(
                protocol="oar",
                n_servers=3,
                n_clients=2,
                requests_per_client=8,
                machine="counter",
                fd_kind="scripted",
                retry_interval=25.0,
                oar=LOSSY,
                fault_schedule=FaultSchedule().links(drop=0.08, duplicate=0.04),
                seed=seed,
            )
            run = run_scenario(config)
            assert run.all_done(), f"seed {seed} did not converge"
            run.check_all()

    def test_corrupted_payloads_never_applied(self):
        config = ScenarioConfig(
            protocol="oar",
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="kv",
            fd_kind="scripted",
            retry_interval=25.0,
            oar=LOSSY,
            fault_schedule=FaultSchedule().links(corrupt=0.05),
            seed=4,
        )
        run = run_scenario(config)
        assert run.all_done(), "did not converge under corruption"
        run.check_all()  # includes the corrupt-conservation accounting
        assert run.network.fault_plane.corrupted > 0
        assert run.network.corrupt_dropped == run.network.fault_plane.corrupted

    def test_jitter_reorders_but_protocol_converges(self):
        config = ScenarioConfig(
            protocol="oar",
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="kv",
            fd_kind="scripted",
            retry_interval=25.0,
            oar=LOSSY,
            fault_schedule=FaultSchedule().links(jitter=0.3, jitter_span=4.0),
            seed=5,
        )
        run = run_scenario(config)
        assert run.all_done()
        run.check_all()
        assert run.network.fault_plane.jittered > 0


class TestGoldenRunStaysClean:
    def test_fault_free_run_reports_zero_fault_counters(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="oar", n_servers=3, n_clients=2,
                requests_per_client=10, machine="kv", seed=6,
            )
        )
        assert run.all_done()
        run.check_all()  # includes the zero-baseline accounting check
        stats = run.network.stats()
        assert stats["corrupt_dropped"] == 0
        assert "dropped" not in stats  # no plane was ever installed

    def test_idle_plane_changes_nothing(self):
        # Installing a plane whose one rule injects nothing must not
        # perturb the run: the trace digest matches a plane-free twin
        # (same seed).
        base = ScenarioConfig(
            protocol="oar", n_servers=3, n_clients=2,
            requests_per_client=10, machine="kv", seed=7,
        )
        bare = run_scenario(base)
        planed = run_scenario(
            base.with_changes(fault_schedule=FaultSchedule().links())
        )
        assert bare.trace.digest() == planed.trace.digest()
        planed.check_all()


class TestDuplicateIdempotence:
    """Satellite: duplicated control messages are absorbed exactly once.

    A ``duplicate=1.0`` kind-targeted policy doubles *every* copy of the
    targeted message family; the checkers (at-most-once, migration and
    fragment atomicity, fault accounting's duplicate-execution sweep)
    prove the duplicates changed nothing.
    """

    def _migration_config(self, **changes):
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(12.0, kick)

        base = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="kv",
            workload="zipf",
            retry_interval=30.0,
            arm=arm,
            grace=200.0,
            horizon=50_000.0,
            seed=11,
        )
        return base.with_changes(**changes)

    def test_duplicated_mig_install_is_idempotent(self):
        config = self._migration_config(
            fault_schedule=FaultSchedule().links(kind="mig_install", duplicate=1.0),
        )
        run = run_sharded_scenario(config)
        assert run.all_done()
        run.check_all(strict=False)
        assert run.network.fault_plane.duplicated > 0
        coordinator = run.rebalancers[0]
        assert coordinator.done
        assert coordinator.moves_committed + coordinator.moves_aborted == 2

    def test_duplicated_split_open_and_close_are_idempotent(self):
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)
            hot = run.key_universe[0]
            coordinator.schedule(10.0, lambda: coordinator.split_key(hot, 2))

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="bank",
            workload="hotkey",
            hot_ratio=0.7,
            retry_interval=30.0,
            arm=arm,
            fault_schedule=(
                FaultSchedule()
                .links(kind="split_open", duplicate=1.0)
                .links(kind="split_close", duplicate=1.0)
            ),
            grace=200.0,
            horizon=50_000.0,
            seed=12,
        )
        run = run_sharded_scenario(config)
        assert run.all_done()
        run.check_all(strict=False)
        assert run.network.fault_plane.duplicated > 0
        coordinator = run.rebalancers[0]
        assert coordinator.done
        assert all(record.terminal for record in coordinator.journal)

    def test_duplicated_tx_commit_is_idempotent(self):
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="bank",
            workload="cross",
            cross_ratio=0.6,
            retry_interval=30.0,
            fault_schedule=FaultSchedule().links(kind="tx_commit", duplicate=1.0),
            grace=200.0,
            horizon=50_000.0,
            seed=13,
        )
        run = run_sharded_scenario(config)
        assert run.all_done()
        run.check_all(strict=False)  # cross-shard atomicity + conservation
        assert run.network.fault_plane.duplicated > 0


class TestEquivocationDetection:
    def _build(self):
        sim = Simulator(seed=5)
        network = SimNetwork(sim, latency=ConstantLatency(1.0))
        group = ["p1", "p2", "p3"]
        servers = []
        for pid in group:
            server = OARServer(
                pid, group, CounterMachine(), ScriptedFailureDetector(),
                OARConfig(batch_interval=5.0),
            )
            servers.append(server)
            network.add_process(server)
        clients = [OARClient(f"c{i + 1}", [group]) for i in range(2)]
        for client in clients:
            network.add_process(client)
        network.start_all()
        return sim, network, servers, clients

    def test_equivocating_sequencer_raises_the_alarm(self):
        # The sequencer (p1) tells p3 a *different* order than p1/p2
        # execute: the fault-plane rewrite swaps the first two rids of
        # the first multi-rid SeqOrder on the p1 -> p3 link.  Replies
        # then carry divergent (epoch, slot) certificates for the same
        # rid, which the client cross-checks deterministically.
        sim, network, servers, clients = self._build()
        plane = network.ensure_fault_plane()
        swapped = []

        def equivocate(src, dst, payload):
            if swapped or src != "p1" or dst != "p3":
                return None
            if isinstance(payload, SeqOrder) and len(payload.rids) >= 2:
                swapped.append(True)
                rids = list(payload.rids)
                rids[0], rids[1] = rids[1], rids[0]
                return SeqOrder(payload.epoch, tuple(rids), payload.start)
            return None

        plane.add_rewrite(equivocate)
        # Both requests reach the sequencer before its first batch tick,
        # so the first SeqOrder carries both rids.
        sim.schedule_at(0.0, lambda: clients[0].submit(("incr",)))
        sim.schedule_at(0.0, lambda: clients[1].submit(("incr",)))
        sim.run(until=100.0, max_events=200_000)
        assert swapped, "the equivocating rewrite never fired"
        alarms = sum(client.equivocations_detected for client in clients)
        assert alarms > 0, "divergent order certificates went undetected"
        assert network.trace.events(kind="equivocation_alarm")

    def test_no_alarm_on_honest_runs(self):
        sim, network, servers, clients = self._build()
        network.ensure_fault_plane()  # plane installed, no rewrites
        sim.schedule_at(0.0, lambda: clients[0].submit(("incr",)))
        sim.schedule_at(0.0, lambda: clients[1].submit(("incr",)))
        sim.run(until=100.0, max_events=200_000)
        assert all(c.equivocations_detected == 0 for c in clients)
        assert not network.trace.events(kind="equivocation_alarm")


class TestAntiEntropy:
    def test_sync_tick_repairs_a_fully_muted_order_message(self):
        # Kill the *first* SeqOrder copies outright (100% drop on the
        # SeqOrder kind for a window) -- without anti-entropy the
        # replicas would hold the bodies forever and never deliver.
        sim = Simulator(seed=9)
        network = SimNetwork(sim, latency=ConstantLatency(1.0))
        group = ["p1", "p2", "p3"]
        servers = []
        for pid in group:
            server = OARServer(
                pid, group, CounterMachine(), ScriptedFailureDetector(),
                OARConfig(sync_interval=15.0),
            )
            servers.append(server)
            network.add_process(server)
        client = OARClient("c1", [group], retry_interval=30.0)
        network.add_process(client)
        network.start_all()
        network.ensure_fault_plane().add_drop_rule(
            lambda src, dst, payload: isinstance(payload, SeqOrder) and sim.now < 10.0
        )
        sim.schedule_at(0.0, lambda: client.submit(("incr",)))
        sim.run(until=200.0, max_events=200_000)
        assert len(client.adopted) == 1
        for server in servers:
            assert server.machine.fingerprint() == 1
        assert network.trace.events(kind="seq_sync")

    def test_sync_tick_repairs_a_body_lost_on_every_link_to_one_replica(self):
        # Every R-multicast copy of one request to p3 is dropped -- the
        # client's own and every relay -- so p3 first hears of the rid
        # from the sequencer's SeqOrder and holds an order slot without
        # a body.  Its sync tick NACKs the rid, a peer answers with a
        # BodyBatch, and p3 Opt-delivers the rid in the sequencer's slot.
        lost = "c1-1"

        def drop_body_to_p3(src, dst, payload):
            return (
                dst == "p3"
                and isinstance(payload, RMsg)
                and isinstance(payload.payload, Request)
                and payload.payload.rid == lost
            )

        def arm(run):
            run.network.ensure_fault_plane().add_drop_rule(drop_body_to_p3)

        run = run_scenario(
            ScenarioConfig(
                protocol="oar",
                n_servers=3,
                n_clients=1,
                requests_per_client=3,
                machine="kv",
                fd_kind="scripted",
                oar=OARConfig(sync_interval=20.0),
                arm=arm,
                trace_messages=True,
                seed=0,
            )
        )
        assert run.all_done()
        trace = run.trace
        nacks = [event for event in trace.events(kind="order_nack") if event.pid == "p3"]
        assert nacks and all(lost in event["rids"] for event in nacks)
        assert not [
            event for event in trace.events(kind="order_nack") if event.pid != "p3"
        ]
        repairs = [
            event for event in trace.events(kind="msg_recv")
            if event.pid == "p3" and isinstance(event["payload"], BodyBatch)
        ]
        assert [request.rid for request in repairs[0]["payload"].requests] == [lost]
        positions = {
            event.pid: event["position"]
            for event in trace.events(kind="opt_deliver")
            if event["rid"] == lost
        }
        assert set(positions) == {"p1", "p2", "p3"}
        assert positions["p3"] == positions["p1"]
        states = {server.pid: server.machine.state() for server in run.servers}
        assert states["p3"] == states["p1"] == states["p2"]
        run.check_all()
