"""Chaos matrix: crash/failover + live migration under seed x latency sweeps.

This module is the workload behind the CI ``chaos-matrix`` job (nightly
``schedule:`` and the ``chaos`` PR label; its ``lossdup`` seed-3 and
``asym`` seed-4 cells at constant latency also gate every PR in the
``integration`` job): every cell of the matrix runs
it with a different ``CHAOS_SEED`` and ``CHAOS_LATENCY`` so the same
scenarios are exercised across many timings::

    CHAOS_SEED=3 CHAOS_LATENCY=jitter \
        python -m pytest tests/integration/test_chaos_matrix.py -q

Environment knobs (all optional -- the defaults make this an ordinary
member of the tier-1 suite):

``CHAOS_SEED``
    Base seed for every scenario in the module (default 0).
``CHAOS_LATENCY``
    Latency profile: ``constant`` (the paper's one-hop unit),
    ``jitter`` (uniform 0.5-1.5) or ``tail`` (truncated normal with a
    fat-ish deviation) -- reordering across links is where optimistic
    delivery earns its undo machinery.
``CHAOS_ARTIFACT_DIR``
    Where to drop a failing run's trace digest + scenario description
    (default ``chaos-artifacts``); the CI job uploads this directory so
    a red matrix cell is reproducible from the artifact alone.
``CHAOS_FAULTS``
    Link-fault profile layered on *every* scenario in the module:
    ``off`` (benign channels, the default), ``lossdup`` (drop +
    duplication on the client<->server links, duplication on the
    server<->server links -- the Cnsv-order consensus assumes reliable
    channels, so server-side loss is exercised by the dedicated cells
    below, not blanket-injected under crash-driven phase 2), or
    ``asym`` (a mid-run one-way mute of one replica's outbound links,
    healed in a single release storm).
"""

import os
from dataclasses import replace

import pytest

from repro.faults import FaultSchedule
from repro.sharding import (
    ShardedScenarioConfig,
    attach_rebalancer,
    run_sharded_scenario,
)
from repro.core.messages import SeqOrder
from repro.core.server import OARConfig
from repro.sim.latency import ConstantLatency, NormalLatency, UniformLatency
from repro.workload.openloop import FlashCrowdProcess

pytestmark = pytest.mark.integration

SEED = int(os.environ.get("CHAOS_SEED", "0"))
LATENCY = os.environ.get("CHAOS_LATENCY", "constant")
ARTIFACT_DIR = os.environ.get("CHAOS_ARTIFACT_DIR", "chaos-artifacts")
FAULTS = os.environ.get("CHAOS_FAULTS", "off")

LATENCY_PROFILES = ("constant", "jitter", "tail")
FAULT_PROFILES = ("off", "lossdup", "asym")

#: Client-side pids the lossdup profile targets (clients and the
#: rebalance coordinators scenarios may attach).
CLIENT_PIDS = ("c1", "c2", "c3", "rb1", "rb2")


def make_latency():
    if LATENCY == "constant":
        return ConstantLatency(1.0)
    if LATENCY == "jitter":
        return UniformLatency(0.5, 1.5)
    if LATENCY == "tail":
        return NormalLatency(mean=1.0, stddev=0.4, minimum=0.05)
    raise ValueError(
        f"unknown CHAOS_LATENCY {LATENCY!r} (choose from {LATENCY_PROFILES})"
    )


def client_link_faults(schedule, drop=0.04, duplicate=0.04, server_dup=0.03):
    """Drop + duplicate on every client<->server link, dup-only between servers.

    The consensus layer (phase 2) assumes reliable server channels, so
    blanket server-side loss under crash-driven failovers could stall a
    round forever -- duplication, however, is provably absorbed
    everywhere (R-multicast mid-dedup, per-src consensus buckets,
    idempotent request/order paths), so it is injected on every link.
    Added to ``schedule``, which is returned.
    """
    for pid in CLIENT_PIDS:
        schedule.links(src=pid, drop=drop, duplicate=duplicate)
        schedule.links(dst=pid, drop=drop, duplicate=duplicate)
    return schedule.links(duplicate=server_dup)


def with_chaos_faults(config):
    """Layer the ``CHAOS_FAULTS`` profile onto one scenario config."""
    if FAULTS == "off":
        return config
    if FAULTS == "lossdup":
        return config.with_changes(
            fault_schedule=client_link_faults(config.fault_schedule or FaultSchedule()),
            oar=replace(config.oar, sync_interval=15.0),
        )
    if FAULTS == "asym":
        schedule = config.fault_schedule or FaultSchedule()
        # One replica's outbound links go mute mid-run (heartbeats,
        # replies, relays -- everything it says disappears while it
        # still hears the world), then a single heal storm releases the
        # whole backlog at once.
        schedule.oneway(25.0, [("s0.p2", "*")]).heal_oneway(60.0)
        return config.with_changes(fault_schedule=schedule)
    raise ValueError(
        f"unknown CHAOS_FAULTS {FAULTS!r} (choose from {FAULT_PROFILES})"
    )


def run_with_artifact(name, config, extra_checks=None):
    """Run + check a scenario; on failure, dump a reproducible artifact.

    The artifact (scenario name, seed, latency profile, full config and
    the run's trace digest) is everything needed to replay a red matrix
    cell locally.
    """
    config = with_chaos_faults(config)
    run = run_sharded_scenario(config)
    try:
        assert run.all_done(), "chaos run did not reach quiescence"
        run.check_all(strict=False)
        if extra_checks is not None:
            extra_checks(run)
    except BaseException as failure:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        path = os.path.join(
            ARTIFACT_DIR, f"{name}-s{SEED}-{LATENCY}-{FAULTS}.txt"
        )
        with open(path, "w") as handle:
            handle.write(f"scenario: {name}\n")
            handle.write(f"seed: {SEED}\nlatency: {LATENCY}\nfaults: {FAULTS}\n")
            handle.write(f"config: {config!r}\n")
            handle.write(f"failure: {failure}\n")
            handle.write(f"trace digest: {run.trace.digest()}\n")
            handle.write(f"events: {len(run.trace)}\n")
        raise
    return run


class TestChaosMatrix:
    def test_sequencer_crash_failover_cross_shard(self):
        # B10c shape, re-seeded: shard 0's epoch-0 sequencer dies while
        # cross-shard transfers are in flight.
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="bank",
            workload="cross",
            cross_ratio=0.5,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=FaultSchedule().crash(10.0 + (SEED % 3), "s0.p1"),
            grace=300.0,
            horizon=50_000.0,
            seed=SEED,
        )
        run_with_artifact("crash-failover", config)

    def test_migration_during_server_crash(self):
        # A replica (non-sequencer) dies while keys are being migrated:
        # migration adoption still needs only a majority per group.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(15.0, kick)

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=15,
            machine="kv",
            workload="zipf",
            zipf_s=1.4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=FaultSchedule().crash(18.0, "s1.p2"),
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 100,
        )
        def extra(run):
            coordinator = run.rebalancers[0]
            assert coordinator.done
            assert coordinator.moves_committed + coordinator.moves_aborted == 2

        run_with_artifact("migration-server-crash", config, extra)

    def test_reads_race_migration_under_replica_crash(self):
        # The replica-local read path under chaos: a 90/10 Zipf read mix
        # in both read modes (split by seed parity so every nightly
        # sweep covers both), the two head keys migrating mid-run, and a
        # replica crash in the middle of it.  check_all runs
        # check_read_consistency per shard: zero adopted-mode
        # violations, staleness merely counted.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(16.0, kick)
            run.network.crash_at(20.0 + (SEED % 4), "s0.p2")

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=25,
            machine="kv",
            workload="readheavy",
            zipf_s=1.4,
            read_mode="conservative" if SEED % 2 else "optimistic",
            read_ratio=0.9,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 300,
        )

        def extra(run):
            assert run.rebalancers[0].done
            reads = sum(client.reads_adopted for client in run.clients)
            assert reads > 0
            for client in run.clients:
                assert client.outstanding == 0

        run_with_artifact("reads-race-migration", config, extra)

    def test_parallel_execution_races_migration_and_crash(self):
        # The execution engine under chaos: every replica charges
        # exec_cost on 4 conflict-scheduled lanes (so delivered ops are
        # routinely still in lanes when later events land), the two Zipf
        # head keys migrate mid-run, and a replica crashes while its
        # lanes are busy.  check_all covers check_migration_atomicity
        # (single owner, nothing lost, conservation of ownership books)
        # and check_read_consistency (fenced reads stay prefix-anchored)
        # per shard.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(14.0, kick)
            run.network.crash_at(18.0 + (SEED % 5), "s1.p3")

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=20,
            machine="kv",
            workload="readheavy",
            zipf_s=1.3,
            read_mode="optimistic" if SEED % 2 else "conservative",
            read_ratio=0.5,
            exec_cost=0.8,
            exec_lanes=4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 400,
        )

        def extra(run):
            assert run.rebalancers[0].done
            for server in run.servers:
                if not server.crashed:
                    assert server.engine.idle
                    assert (
                        tuple(server.undo_log.tags) == server.o_delivered.items
                    )
            # The service model was actually in play: ops were executed
            # through lanes at every live replica.
            assert all(
                server.engine.executed > 0
                for server in run.servers
                if not server.crashed
            )
            for client in run.clients:
                assert client.outstanding == 0

        run_with_artifact("parallel-exec-migration", config, extra)

    def test_coordinator_crash_with_recovery(self):
        # The coordinator itself dies mid-move; a recovery coordinator
        # adopts the journal and heals the cluster.
        def arm(run):
            coordinator = attach_rebalancer(run)
            key = run.key_universe[0]
            src = run.routing_table.shard_of(key)
            dst = (src + 1) % run.config.n_shards
            coordinator.schedule(20.0, lambda: coordinator.migrate(key, dst))
            run.sim.schedule_at(
                # Jittered latencies move the adoption instant around;
                # seed-dependent crash times sample the whole window
                # (pre-prepare, stranded, and post-install crashes).
                21.0 + (SEED % 5),
                lambda: run.network.crash(coordinator.client.pid),
            )

            def recover():
                recovery = attach_rebalancer(run, pid="rb2")
                recovery.resume(coordinator.journal)

            run.sim.schedule_at(90.0, recover)

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=15,
            machine="bank",
            workload="cross",
            cross_ratio=0.0,
            latency=make_latency(),
            retry_interval=40.0,
            arm=arm,
            grace=200.0,
            horizon=50_000.0,
            seed=SEED + 200,
        )
        def extra(run):
            recovery = run.rebalancers[1]
            assert recovery.done
            # Whatever the crash timing, recovery leaves nothing stranded.
            for record in recovery.journal:
                assert record.terminal, record

        run_with_artifact("coordinator-crash", config, extra)

    def test_split_races_migration_and_crash(self):
        # A hot-key split queued against ordinary key migrations (the
        # coordinator serializes them, so each runs against the traffic
        # and routing churn the other left behind) while a replica dies
        # mid-window.  check_all runs check_fragment_conservation for
        # the bank machine: fragments + escrow must equal the adopted
        # history exactly, whatever the interleaving.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)
            hot = run.key_universe[0]

            def kick():
                coordinator.split_key(hot, 2)
                n = run.config.n_shards
                for key in run.key_universe[1:3]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(12.0, kick)
            run.network.crash_at(16.0 + (SEED % 4), "s1.p2")

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=20,
            machine="bank",
            workload="hotkey",
            hot_ratio=0.7,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 500,
        )

        def extra(run):
            coordinator = run.rebalancers[0]
            assert coordinator.done
            assert coordinator.splits_committed + coordinator.splits_aborted == 1
            assert all(record.terminal for record in coordinator.journal)
            for client in run.clients:
                assert client.outstanding == 0

        run_with_artifact("split-races-migration", config, extra)

    def test_split_traffic_on_parallel_lanes_under_crash(self):
        # The full stack at once: a split hot key served by costed
        # 4-lane execution (fragment ops ride separate lanes, borrows
        # ride 2PC between shards) with a replica crashing while its
        # lanes are busy -- the crash/undo half of the conservation
        # story, since Opt-undone fragment ops must never count toward
        # the adopted-history equation.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)
            hot = run.key_universe[0]
            coordinator.schedule(10.0, lambda: coordinator.split_key(hot, 4))
            run.network.crash_at(20.0 + (SEED % 5), "s0.p3")

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=20,
            machine="bank",
            workload="hotkey",
            hot_ratio=1.0,
            initial_balance=60,  # slim fragments: shortfalls and borrows
            exec_cost=0.8,
            exec_lanes=4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 600,
        )

        def extra(run):
            coordinator = run.rebalancers[0]
            assert coordinator.done
            for server in run.servers:
                if not server.crashed:
                    assert server.engine.idle
            for client in run.clients:
                assert client.outstanding == 0

        run_with_artifact("split-parallel-exec-crash", config, extra)

    def test_flash_crowd_sequencer_crash_with_shedding(self):
        # The overload cell: a flash crowd drives both shards past their
        # admission bound (ISSUE 8) while shard 0's sequencer dies at
        # the top of the surge.  Failover must not turn shedding into
        # lost requests or double decisions: every offered arrival
        # resolves into exactly one of admitted/shed/throttled
        # (check_admission_accounting, inside the full bundle), and the
        # run reaches quiescence despite the crash landing mid-flood.
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=120,
            machine="bank",
            driver="session",
            open_rate=3.0,
            arrival=FlashCrowdProcess(
                base_rate=1.0, peak_rate=8.0, at=10.0,
                ramp=10.0, hold=120.0, decay=20.0,
            ),
            n_sessions=40,
            oar=OARConfig(order_cost=0.5, admission_limit=6),
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=FaultSchedule().crash(25.0 + (SEED % 3), "s0.p1"),
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 1300,
        )

        def extra(run):
            total_shed = sum(s.shed for ss in run.shards for s in ss)
            assert total_shed > 0, "the flash crowd should force sheds"
            # The crash forced a failover on shard 0.
            assert any(
                s.epoch > 0 for s in run.shards[0] if not s.crashed
            ), "shard 0 never rotated off the crashed sequencer"
            for driver in run.drivers:
                assert driver.offered == (
                    driver.admitted + driver.shed + driver.throttled
                )

        run_with_artifact("flash-crowd-shedding-crash", config, extra)


class TestChaosLinkFaults:
    """Link faults composed with the crash/migration/split chaos cells.

    The cells above assume reliable channels unless ``CHAOS_FAULTS``
    says otherwise; these cells bake specific link-fault shapes into the
    scenario itself, so every matrix row (including ``off``) exercises
    loss, duplication, corruption, reordering and one-way partitions
    *combined with* the crash-driven machinery.
    """

    def test_link_loss_during_sequencer_crash_failover(self):
        # Lossy client links while shard 0's sequencer dies: phase 2
        # consensus runs over the (reliable, but duplicating) server
        # links, retransmission + anti-entropy repair the client side.
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=10,
            machine="kv",
            workload="uniform",
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            oar=OARConfig(sync_interval=15.0),
            fault_schedule=client_link_faults(
                FaultSchedule().crash(12.0 + (SEED % 3), "s0.p1")
            ),
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 700,
        )

        def extra(run):
            plane = run.network.fault_plane
            assert plane.dropped + plane.duplicated > 0
            for client in run.clients:
                assert client.outstanding == 0

        run_with_artifact("link-loss-sequencer-crash", config, extra)

    def test_asym_partition_heal_storm_during_migration(self):
        # One replica's outbound links go mute while keys migrate: its
        # held replies/relays/heartbeats all land at once in the heal
        # storm, and migration atomicity must survive the burst.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(12.0, kick)

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            machine="kv",
            workload="zipf",
            zipf_s=1.4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=(
                FaultSchedule()
                .oneway(20.0, [("s1.p3", "*")])
                .heal_oneway(55.0)
            ),
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 800,
        )

        def extra(run):
            assert run.rebalancers[0].done
            plane = run.network.fault_plane
            assert plane.held > 0
            assert plane.pending_held == 0  # the storm released everything

        run_with_artifact("asym-heal-storm-migration", config, extra)

    def test_duplicated_control_plane_during_split_and_crash(self):
        # Every migration/split control message is delivered twice while
        # a replica dies mid-split: idempotent install/open/close paths
        # must absorb the duplicates even across the failover.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)
            hot = run.key_universe[0]

            def kick():
                coordinator.split_key(hot, 2)
                src = run.routing_table.shard_of(run.key_universe[1])
                coordinator.migrate(
                    run.key_universe[1], (src + 1) % run.config.n_shards
                )

            coordinator.schedule(12.0, kick)
            run.network.crash_at(18.0 + (SEED % 4), "s1.p2")

        faults = FaultSchedule()
        for kind in ("mig_install", "split_open", "split_close"):
            faults.links(kind=kind, duplicate=1.0)

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=15,
            machine="bank",
            workload="hotkey",
            hot_ratio=0.7,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=faults,
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 900,
        )

        def extra(run):
            coordinator = run.rebalancers[0]
            assert coordinator.done
            assert all(record.terminal for record in coordinator.journal)
            assert run.network.fault_plane.duplicated > 0

        run_with_artifact("dup-control-plane-split-crash", config, extra)

    def test_corruption_under_parallel_lanes_and_migration(self):
        # Random payload corruption on every link (detected-and-dropped
        # at the checksum gate, i.e. uniform low-grade loss) while keys
        # migrate and every replica executes on costed lanes.
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:2]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            coordinator.schedule(14.0, kick)

        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            machine="kv",
            workload="zipf",
            zipf_s=1.3,
            exec_cost=0.8,
            exec_lanes=4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            oar=OARConfig(sync_interval=15.0),
            fault_schedule=FaultSchedule().links(corrupt=0.03),
            arm=arm,
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 1000,
        )

        def extra(run):
            assert run.rebalancers[0].done
            plane = run.network.fault_plane
            assert plane.corrupted > 0
            # check_fault_plane_accounting (inside check_all) proves
            # corrupt_dropped == corrupted; nothing corrupted applied.

        run_with_artifact("corruption-parallel-lanes", config, extra)

    def test_jitter_reorder_during_crash_failover(self):
        # Per-message jitter breaks the FIFO floor on every link (real
        # reordering, not just variable latency) while the sequencer
        # dies: slot-contiguous order acceptance buffers the gaps.
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            machine="bank",
            workload="cross",
            cross_ratio=0.4,
            latency=make_latency(),
            fd_interval=1.0,
            fd_timeout=8.0,
            retry_interval=30.0,
            fault_schedule=(
                FaultSchedule()
                .links(jitter=0.3, jitter_span=4.0)
                .crash(14.0 + (SEED % 3), "s0.p1")
            ),
            grace=300.0,
            horizon=50_000.0,
            seed=SEED + 1100,
        )

        def extra(run):
            assert run.network.fault_plane.jittered > 0

        run_with_artifact("jitter-sequencer-crash", config, extra)

    def test_equivocation_alarm_fires_under_every_latency_profile(self):
        # The Byzantine cell: a scripted equivocating sequencer tells
        # one replica a different order.  The clients' order
        # certificates must raise the alarm under every latency profile
        # of the matrix -- detection may not depend on benign timing.
        from repro.core.client import OARClient
        from repro.core.server import OARServer
        from repro.failure.detector import ScriptedFailureDetector
        from repro.sim.loop import Simulator
        from repro.sim.network import SimNetwork
        from repro.statemachine import CounterMachine

        sim = Simulator(seed=SEED + 1200)
        network = SimNetwork(sim, latency=make_latency())
        group = ["p1", "p2", "p3"]
        for pid in group:
            network.add_process(
                OARServer(
                    pid, group, CounterMachine(), ScriptedFailureDetector(),
                    OARConfig(batch_interval=5.0),
                )
            )
        clients = [OARClient(f"c{i + 1}", group) for i in range(2)]
        for client in clients:
            network.add_process(client)
        network.start_all()
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
        sim.schedule_at(0.0, lambda: clients[0].submit(("incr",)))
        sim.schedule_at(0.0, lambda: clients[1].submit(("incr",)))
        sim.run(until=200.0, max_events=200_000)
        assert swapped, "the equivocating rewrite never fired"
        alarms = sum(client.equivocations_detected for client in clients)
        assert alarms > 0, "divergent order certificates went undetected"
        assert network.trace.events(kind="equivocation_alarm")
