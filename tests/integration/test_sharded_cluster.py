"""Integration: sharded multi-group OAR (repro.sharding).

Per-shard the paper's guarantees must hold unchanged; across shards the
client-coordinated escrow commit must keep multi-key operations atomic --
including under crash-failover of a shard's sequencer.
"""

import pytest

from repro.core.client import OARClient, ShardedOARClient
from repro.core.server import OARConfig, OARServer
from repro.faults import FaultSchedule
from repro.harness import ShardedScenarioConfig, run_sharded_scenario
from repro.failure.detector import HeartbeatFailureDetector
from repro.sharding import HashShardRouter
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import KVStoreMachine
from repro.workload.drivers import ClosedLoopDriver

pytestmark = pytest.mark.integration


class TestFailureFree:
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_kv_uniform_all_properties(self, n_shards):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=n_shards,
                n_servers=3,
                n_clients=2,
                requests_per_client=12,
                machine="kv",
                workload="uniform",
                seed=n_shards,
            )
        )
        assert run.all_done()
        run.check_all()
        assert len(run.adopted()) == 24
        # Work actually spread: more than one shard delivered requests.
        active = [shard for shard in range(n_shards) if run.routed_to(shard)]
        assert len(active) > 1

    def test_zipf_workload_skews_but_stays_correct(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=4,
                n_clients=2,
                requests_per_client=15,
                machine="kv",
                workload="zipf",
                zipf_s=1.5,
                seed=7,
            )
        )
        assert run.all_done()
        run.check_all()
        loads = [len(run.routed_to(shard)) for shard in range(4)]
        # The hot key's shard carries strictly more than an even split.
        assert max(loads) > sum(loads) / 4

    def test_range_router_cluster(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=3,
                n_clients=2,
                requests_per_client=10,
                machine="kv",
                router="range",
                seed=11,
            )
        )
        assert run.all_done()
        run.check_all()

    def test_epochs_are_independent_per_shard(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=10,
                machine="kv",
                seed=5,
            )
        )
        # No suspicion, no phase 2 anywhere: every shard stays in epoch 0
        # with its own sequencer.
        for shard in run.shards:
            for server in shard:
                assert server.epoch == 0
        sequencers = {shard[0].current_sequencer for shard in run.shards}
        assert len(sequencers) == 2


class TestCrossShard:
    def test_transfers_commit_atomically(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=15,
                machine="bank",
                workload="cross",
                cross_ratio=0.5,
                seed=2,
            )
        )
        assert run.all_done()
        run.check_all()
        assert sum(client.cross_shard_started for client in run.clients) > 0
        assert sum(client.cross_shard_committed for client in run.clients) > 0

    def test_overdraft_transfer_aborts_cleanly(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=1,
                requests_per_client=1,
                machine="bank",
                workload="cross",
                initial_balance=100,
                seed=4,
            )
        )
        assert run.all_done()
        client = run.clients[0]
        accounts = run.key_universe
        # Find two accounts on different shards and overdraw the source.
        src = accounts[0]
        src_shard = run.router.shard_of(src)
        dst = next(a for a in accounts if run.router.shard_of(a) != src_shard)
        txid = client.submit(("transfer", src, dst, 10_000))
        run.sim.run(until=run.sim.now + 200.0)
        adopted = client.adopted[txid]
        assert not adopted.value.ok
        assert "overdraft" in adopted.value.error
        assert client.cross_shard_aborted == 1
        run.check_all()  # conservation: the aborted debit returned home

    def test_keyless_op_routes_to_fallback_shard(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=3,
                n_clients=1,
                requests_per_client=1,
                machine="bank",
                seed=6,
            )
        )
        client = run.clients[0]
        assert client.shards_of(("total",)) == (0,)
        rid = client.submit(("total",))
        run.sim.run(until=run.sim.now + 50.0)
        assert client.routed[rid] == 0
        assert client.adopted[rid].value.ok


class TestCrashFailover:
    def test_sequencer_crash_preserves_cross_shard_atomicity(self):
        # Crash shard 0's epoch-0 sequencer mid-run: that shard fails over
        # (suspicion -> PhaseII -> Cnsv-order -> rotate) while shard 1
        # keeps serving; in-flight transactions must still commit or
        # abort on every participant.
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_servers=3,
                n_clients=2,
                requests_per_client=12,
                machine="bank",
                workload="cross",
                cross_ratio=0.5,
                fd_interval=1.0,
                fd_timeout=8.0,
                retry_interval=30.0,
                fault_schedule=FaultSchedule().crash(10.0, "s0.p1"),
                grace=300.0,
                seed=3,
            )
        )
        assert run.all_done()
        run.check_all(strict=False)
        # Shard 0 actually failed over; shard 1 was undisturbed.
        assert all(server.epoch >= 1 for server in run.correct_servers(0))
        assert all(server.epoch == 0 for server in run.correct_servers(1))

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_sweep_conserves_money(self, seed):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_servers=3,
                n_clients=2,
                requests_per_client=8,
                machine="bank",
                workload="cross",
                cross_ratio=0.6,
                fd_interval=1.0,
                fd_timeout=6.0,
                retry_interval=25.0,
                fault_schedule=FaultSchedule().crash(8.0 + 3 * seed, "s1.p1"),
                grace=300.0,
                seed=seed,
            )
        )
        assert run.all_done()
        run.check_all(strict=False)


class TestOrderCostPipeline:
    """The sequencer service model (OARConfig.order_cost) under epoch churn.

    order_cost was introduced for the sharding benchmarks; these runs
    pin down its interaction with phase 2: a batch frozen for service
    survives epoch rotation (the stale batch is dropped and its requests
    re-ordered by the new epoch's sequencer, losing nothing).
    """

    def test_costed_pipeline_with_gc_rotation(self):
        from repro.harness import ScenarioConfig, run_scenario

        # gc_after_requests forces periodic phase 2 while batches are in
        # service, exercising the stale-batch drop in _emit_costed_order.
        run = run_scenario(
            ScenarioConfig(
                n_servers=3,
                n_clients=4,
                requests_per_client=15,
                driver="open",
                open_rate=1.0,
                oar=OARConfig(order_cost=0.5, gc_after_requests=4),
                grace=200.0,
                horizon=20_000.0,
                seed=5,
            )
        )
        assert run.all_done()
        run.check_all()
        assert run.servers[0].epoch >= 2  # rotation actually happened

    def test_costed_pipeline_survives_sequencer_crash(self):
        from repro.harness import ScenarioConfig, run_scenario

        run = run_scenario(
            ScenarioConfig(
                n_servers=3,
                n_clients=4,
                requests_per_client=10,
                driver="open",
                open_rate=1.0,
                fd_interval=1.0,
                fd_timeout=6.0,
                oar=OARConfig(order_cost=0.5),
                fault_schedule=FaultSchedule().crash(8.0, "p1"),
                grace=300.0,
                horizon=20_000.0,
                seed=1,
            )
        )
        assert run.all_done()
        run.check_all(strict=False)
        assert all(server.epoch >= 1 for server in run.correct_servers())

    def test_non_quiescent_run_checks_safety_only(self):
        # Cut a cross-shard run off mid-flight: check_all must not flag
        # an undecided transaction as an atomicity violation.
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=20,
                machine="bank",
                workload="cross",
                cross_ratio=0.8,
                horizon=6.0,
                grace=0.0,
                seed=2,
            )
        )
        assert not run.all_done()
        run.check_all(strict=False, at_least_once=False)


class TestDegenerateSingleShard:
    """A 1-shard cluster must behave exactly like the unsharded protocol."""

    def _run(self, client_factory, ops):
        sim = Simulator(seed=9)
        network = SimNetwork(sim, latency=ConstantLatency(1.0))
        group = ["p1", "p2", "p3"]

        def fd_factory(host):
            return HeartbeatFailureDetector(
                host, monitored=group, interval=5.0, timeout=15.0
            )

        servers = []
        for pid in group:
            server = OARServer(pid, group, KVStoreMachine(), fd_factory, OARConfig())
            servers.append(server)
            network.add_process(server)
        client = client_factory(group)
        network.add_process(client)
        network.start_all()
        driver = ClosedLoopDriver(sim, client, iter(ops), total=len(ops))
        sim.run_until(lambda: driver.done, max_events=500_000)
        sim.run(until=sim.now + 50.0)
        assert driver.done
        return client, servers

    def test_identical_to_unsharded_baseline(self):
        ops = [
            ("set", "k1", "v1"),
            ("set", "k2", "v2"),
            ("get", "k1"),
            ("cas", "k2", "v2", "v3"),
            ("delete", "k1"),
            ("get", "k2"),
        ]
        plain_client, plain_servers = self._run(
            lambda group: OARClient("c1", group), ops
        )
        sharded_client, sharded_servers = self._run(
            lambda group: ShardedOARClient(
                "c1",
                [group],
                HashShardRouter(1),
                key_extractor=KVStoreMachine.keys_of,
                tx_planner=KVStoreMachine.tx_branches,
            ),
            ops,
        )
        assert sharded_client.cross_shard_started == 0
        plain = {
            rid: (a.value, a.position, a.epoch, a.conservative)
            for rid, a in plain_client.adopted.items()
        }
        sharded = {
            rid: (a.value, a.position, a.epoch, a.conservative)
            for rid, a in sharded_client.adopted.items()
        }
        assert plain == sharded
        for plain_server, sharded_server in zip(plain_servers, sharded_servers):
            assert (
                plain_server.machine.fingerprint()
                == sharded_server.machine.fingerprint()
            )

    def test_single_shard_scenario_checks(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=1,
                n_clients=2,
                requests_per_client=10,
                machine="bank",
                workload="cross",  # all transfers become single-shard ops
                seed=12,
            )
        )
        assert run.all_done()
        run.check_all()
        assert sum(client.cross_shard_started for client in run.clients) == 0
