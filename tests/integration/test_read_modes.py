"""Integration: the replica-local read path under load, crashes, migration.

Every scenario runs the full checker bundle; ``check_read_consistency``
additionally asserts that conservative ("adopted-mode") reads only ever
observe prefix-closed states of the adopted order, and measures (without
failing) how many optimistic reads were stale.
"""

import pytest

from repro.analysis import checkers
from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding import (
    ShardedScenarioConfig,
    attach_rebalancer,
    run_sharded_scenario,
)
from repro.statemachine import KVStoreMachine

pytestmark = pytest.mark.integration


def total_reads(run):
    return sum(client.reads_adopted for client in run.clients)


class TestFailureFreeReads:
    def test_optimistic_reads_bypass_the_sequencer(self):
        run = run_scenario(
            ScenarioConfig(
                machine="kv",
                n_servers=3,
                n_clients=2,
                requests_per_client=40,
                read_mode="optimistic",
                read_ratio=0.8,
                seed=2,
            )
        )
        assert run.all_done()
        run.check_all()
        assert total_reads(run) > 0
        # Reads are answered, never ordered: no read rid appears in any
        # delivery event.
        read_rids = set()
        for client in run.clients:
            read_rids |= client.read_rids
        delivered = {
            event["rid"]
            for event in run.trace.events_of_kinds(("opt_deliver", "a_deliver"))
        }
        assert read_rids and not (read_rids & delivered)
        # Round-robin spread: every replica served some reads.
        assert all(server.reads_served > 0 for server in run.servers)

    def test_conservative_reads_poll_every_replica(self):
        run = run_scenario(
            ScenarioConfig(
                machine="kv",
                n_servers=3,
                n_clients=2,
                requests_per_client=40,
                read_mode="conservative",
                read_ratio=0.8,
                seed=2,
            )
        )
        assert run.all_done()
        run.check_all()
        reads = total_reads(run)
        assert reads > 0
        # Conservative mode fans every read out to the whole group.
        assert sum(s.reads_served for s in run.servers) >= 3 * reads
        stats = checkers.check_read_consistency(
            run.trace, run.servers, KVStoreMachine, shard=0
        )
        assert stats["conservative"] == reads
        assert stats["stale_optimistic"] == 0

    def test_bank_reads(self):
        run = run_scenario(
            ScenarioConfig(
                machine="bank",
                n_servers=3,
                n_clients=2,
                requests_per_client=30,
                read_mode="optimistic",
                seed=4,
            )
        )
        assert run.all_done()
        run.check_all()
        # bank_ops emits balance reads ~20% of the time.
        assert total_reads(run) > 0


class TestReadsUnderCrashFailover:
    def _config(self, read_mode, seed=0):
        return ScenarioConfig(
            machine="kv",
            n_servers=3,
            n_clients=2,
            requests_per_client=25,
            read_mode=read_mode,
            read_ratio=0.7,
            retry_interval=30.0,
            fd_interval=1.0,
            fd_timeout=8.0,
            fault_schedule=FaultSchedule().crash(12.0, "p1"),
            grace=300.0,
            horizon=50_000.0,
            seed=seed,
        )

    def test_optimistic_reads_survive_a_replica_crash(self):
        # p1 (the epoch-0 sequencer) dies; optimistic reads whose
        # round-robin target was p1 are re-sent to the next replica.
        run = run_scenario(self._config("optimistic", seed=1))
        assert run.all_done()
        run.check_all(strict=False)
        assert total_reads(run) > 0

    def test_conservative_reads_survive_a_replica_crash(self):
        # The crashed replica never votes; a quorum among survivors is
        # still a majority of the group, so reads keep completing.
        run = run_scenario(self._config("conservative", seed=1))
        assert run.all_done()
        run.check_all(strict=False)
        assert total_reads(run) > 0


class TestReadsRacingMigration:
    def _run(self, read_mode, seed=7, crash_replica=False):
        def arm(run):
            coordinator = attach_rebalancer(run)

            def kick():
                # Move the two hottest keys, one at a time: reads in
                # flight race mig_prepare (freeze) and mig_install.
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(20.0, kick)
            if crash_replica:
                run.network.crash_at(24.0, "s1.p2")

        return run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_servers=3,
                n_clients=2,
                requests_per_client=40,
                machine="kv",
                workload="readheavy",
                zipf_s=1.5,  # the migrated head keys carry the traffic
                read_mode=read_mode,
                read_ratio=0.85,
                retry_interval=30.0,
                arm=arm,
                grace=300.0,
                horizon=50_000.0,
                seed=seed,
            )
        )

    @pytest.mark.parametrize("read_mode", ["optimistic", "conservative"])
    def test_reads_redirect_through_the_move(self, read_mode):
        run = self._run(read_mode)
        assert run.all_done()
        run.check_all()
        coordinator = run.rebalancers[0]
        assert coordinator.done
        assert coordinator.moves_committed == 2
        # The Zipf head moved while 85% of traffic was reading it:
        # someone must have hit the frozen/exported window.
        assert sum(client.redirects for client in run.clients) > 0
        assert total_reads(run) > 0
        # No operation was stranded by the redirect machinery.
        for client in run.clients:
            assert client.outstanding == 0

    def test_reads_race_migration_and_replica_crash(self):
        run = self._run("conservative", crash_replica=True)
        assert run.all_done()
        run.check_all(strict=False)
        assert run.rebalancers[0].done
        assert total_reads(run) > 0


class TestReadCostScaling:
    def test_read_goodput_scales_with_replicas_not_the_sequencer(self):
        # The B12 claim in miniature: with a costed read pipeline per
        # replica, optimistic read capacity is n/read_cost while the
        # sequencer path pins reads to the single ordering pipeline.
        def makespan(n_servers, read_mode):
            run = run_scenario(
                ScenarioConfig(
                    machine="kv",
                    n_servers=n_servers,
                    n_clients=4,
                    requests_per_client=25,
                    read_mode=read_mode,
                    read_ratio=0.9,
                    driver="open",
                    open_rate=2.0,
                    oar=OARConfig(order_cost=0.5, read_cost=0.5),
                    horizon=100_000.0,
                    grace=100.0,
                    seed=3,
                )
            )
            assert run.all_done()
            run.check_all()
            adopts = [
                event.time
                for event in run.trace.events_of_kinds(("adopt", "read_adopt"))
            ]
            return max(adopts)

        local_3 = makespan(3, "optimistic")
        local_7 = makespan(7, "optimistic")
        ordered_3 = makespan(3, "sequencer")
        # More replicas, faster drain; the ordered path is the slowest.
        assert local_7 < local_3 < ordered_3


class TestReadCheckerScope:
    def test_per_shard_checks_cover_every_read(self):
        # Every read a client adopts names the shard it was routed to,
        # so checking each shard's group checks every read once.
        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=30,
                machine="kv",
                workload="readheavy",
                read_ratio=0.85,
                read_mode="conservative",
                seed=3,
            )
        )
        adopted = run.trace.count("read_adopt")
        assert adopted > 0
        checked = [
            checkers.check_read_consistency(
                run.trace, servers, KVStoreMachine, shard=shard
            )["reads"]
            for shard, servers in enumerate(run.shards)
        ]
        assert sum(checked) == adopted
