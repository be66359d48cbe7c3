"""Integration: live shard rebalancing (repro.sharding.rebalance).

Online key migration between OAR groups must preserve every per-shard
paper property, cross-shard 2PC atomicity, and the migration invariants
(single owner per key, nothing lost or duplicated, conservation) -- with
traffic in flight, with stale client routing tables, and across a
coordinator crash followed by recovery.
"""

import pytest

from repro.analysis import checkers
from repro.sharding import (
    ShardedScenarioConfig,
    attach_rebalancer,
    run_sharded_scenario,
)

pytestmark = pytest.mark.integration


def _arm_single_move(run, start_at=30.0, key_index=0):
    """Attach a coordinator that migrates one key at ``start_at``."""
    coordinator = attach_rebalancer(run)
    key = run.key_universe[key_index]
    src = run.routing_table.shard_of(key)
    dst = (src + 1) % run.config.n_shards
    coordinator.schedule(start_at, lambda: coordinator.migrate(key, dst))
    return coordinator


def _stranded_bank_migration():
    """A bank run whose coordinator crashes between the destination's
    ``mig_install`` and adopting it (it adopts the prepare at t=33 and
    would have adopted the install at t=36; it crashes at t=34).

    Returns the run, the migrating account and its destination shard.
    """
    state = {}

    def arm(run):
        coordinator = attach_rebalancer(run)
        key = run.key_universe[5]
        dst = (run.routing_table.shard_of(key) + 1) % run.config.n_shards
        state.update(key=key, dst=dst)
        run.sim.schedule_at(30.0, lambda: coordinator.migrate(key, dst))
        run.sim.schedule_at(34.0, lambda: run.network.crash(coordinator.client.pid))

    run = run_sharded_scenario(
        ShardedScenarioConfig(
            n_shards=2,
            n_clients=2,
            requests_per_client=10,
            machine="bank",
            workload="cross",
            cross_ratio=0.3,
            seed=8,
            arm=arm,
            horizon=50_000.0,
        )
    )
    return run, state["key"], state["dst"]


class TestSingleMigration:
    def test_key_moves_and_clients_redirect(self):
        state = {}

        def arm(run):
            state["coordinator"] = _arm_single_move(run)
            state["key"] = run.key_universe[0]
            state["src"] = run.routing_table.shard_of(state["key"])

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=30,
                machine="kv",
                workload="zipf",
                zipf_s=1.5,  # key 0 is hot, so traffic hits the move
                seed=5,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator = state["coordinator"]
        assert coordinator.done
        record = coordinator.journal[0]
        assert record.phase == "done"
        # Routing epoch bumped; authority routes the key to its new home.
        assert run.routing_table.epoch == 1
        dst = run.routing_table.shard_of(state["key"])
        assert dst != state["src"]
        # The destination replicas own the key now, the source's don't.
        for server in run.correct_servers(dst):
            assert server.machine.owns(state["key"])
        for server in run.correct_servers(state["src"]):
            assert not server.machine.owns(state["key"])
        # Some client hit the stale route and was redirected.
        assert sum(client.redirects for client in run.clients) > 0
        # Redirect retries are not new demand: the exact (undecayed)
        # submission book must count each logical operation once.
        total_load = sum(
            count
            for client in run.clients
            for count in client.key_load.counts().values()
        )
        assert total_load == run.config.n_clients * run.config.requests_per_client
        run.check_all()

    def test_value_survives_the_move(self):
        # A key written before the migration must read back identically
        # after it, from the new shard.
        def arm(run):
            _arm_single_move(run, start_at=40.0)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=1,
                requests_per_client=40,
                machine="kv",
                workload="zipf",
                zipf_s=1.8,
                seed=9,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        run.check_all()
        key = run.key_universe[0]
        dst = run.routing_table.shard_of(key)
        values = {
            server.machine.state().get(key)
            for server in run.correct_servers(dst)
        }
        assert len(values) == 1  # replicas agree on the migrated value

    def test_rebalance_plans_off_the_hot_shard(self):
        # Range router + Zipf: the hot keys are contiguous on shard 0,
        # so the planner must move load off shard 0.
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run, start_at=80.0, max_moves=4)
            state["coordinator"] = coordinator

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=4,
                n_clients=4,
                requests_per_client=40,
                machine="kv",
                workload="zipf",
                zipf_s=1.5,
                router="range",
                n_keys=32,
                seed=2,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator = state["coordinator"]
        assert coordinator.done
        assert coordinator.moves_committed > 0
        hot_keys = [record.key for record in coordinator.journal]
        # The hottest (lowest-index) keys are the ones worth moving, and
        # the first move comes off the hot shard (later moves may trim
        # whichever shard the greedy plan finds hottest next).
        assert run.key_universe[0] in hot_keys
        assert coordinator.journal[0].src == 0
        run.check_all()


class TestAutoTriggeredRebalance:
    def test_sustained_skew_fires_without_a_scheduled_kick(self):
        # Range router + Zipf packs the head on shard 0; nobody ever
        # calls rebalance() -- the policy tick must notice the sustained
        # hot/cold imbalance in the decayed counters and fire the plan
        # itself (ROADMAP open item: trigger on load, not on the clock).
        state = {}

        def arm(run):
            state["coordinator"] = attach_rebalancer(
                run,
                auto=True,
                auto_interval=20.0,
                auto_ratio=2.0,
                auto_sustain=2,
                auto_min_load=5.0,
                max_moves=4,
            )

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=4,
                n_clients=4,
                requests_per_client=60,
                machine="kv",
                workload="zipf",
                zipf_s=1.5,
                router="range",
                n_keys=32,
                seed=3,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator = state["coordinator"]
        assert coordinator.auto_rebalances >= 1
        assert coordinator.moves_committed > 0
        # The policy acted on the packed Zipf head: the first plan's
        # moves come off the hot shard.
        first_wave = coordinator.journal[: coordinator.moves_committed]
        assert any(record.src == 0 for record in first_wave)
        assert len(run.trace.events(kind="rebalance_strike")) >= 2
        assert len(run.trace.events(kind="rebalance_auto")) >= 1
        run.check_all()

    @pytest.mark.parametrize("seed", range(3))
    def test_near_equal_shards_after_the_first_settle_never_move_a_key_back(self, seed):
        # The full loop, not just the planner (TestPlanStability): a
        # packed Zipf head fires one multi-move plan, after which the two
        # shards are near-equal while the policy keeps ticking until the
        # run is quiescent.  Nothing may be planned after that first
        # settle, and no key may return to a shard it left.  (The guard
        # is the trigger ratio standing above the load counters' sampling
        # noise: at auto_ratio=1.2 this shape re-plans, and at Zipf 1.0
        # it moves a key back.)
        state = {}

        def arm(run):
            state["coordinator"] = attach_rebalancer(
                run,
                auto=True,
                auto_interval=20.0,
                auto_ratio=1.5,
                auto_sustain=2,
                auto_min_load=5.0,
                max_moves=4,
            )

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=4,
                requests_per_client=120,
                machine="kv",
                workload="zipf",
                zipf_s=1.2,
                router="range",
                n_keys=32,
                seed=seed,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator = state["coordinator"]
        (plan,) = run.trace.events(kind="rebalance_auto")
        assert coordinator.auto_rebalances == 1
        assert len(coordinator.journal) == plan.fields["moves"]
        assert all(record.phase == "done" for record in coordinator.journal)
        left = {}
        for record in coordinator.journal:
            assert record.dst not in left.get(record.key, ()), record
            left.setdefault(record.key, set()).add(record.src)
        # The policy kept polling after the settle, and it stayed quiet.
        settled = max(event.time for event in run.trace.events(kind="mig_done"))
        assert run.sim.now > settled + 2 * 20.0
        run.check_all()

    def test_balanced_uniform_load_never_fires(self):
        state = {}

        def arm(run):
            state["coordinator"] = attach_rebalancer(
                run, auto=True, auto_interval=20.0, auto_ratio=3.0,
                auto_sustain=2, auto_min_load=5.0,
            )

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=40,
                machine="kv",
                workload="uniform",
                n_keys=32,
                seed=4,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        assert state["coordinator"].auto_rebalances == 0
        assert state["coordinator"].journal == []
        run.check_all()


class TestMigrationVsCrossShard2PC:
    @pytest.mark.parametrize("seed", range(3))
    def test_interleaved_migrations_and_transfers(self, seed):
        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=5.0)

            def kick():
                n = run.config.n_shards
                for key in run.key_universe[:3]:
                    src = run.routing_table.shard_of(key)
                    coordinator.migrate(key, (src + 1) % n)

            run.sim.schedule_at(20.0 + 7 * seed, kick)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=25,
                machine="bank",
                workload="cross",
                cross_ratio=0.5,
                seed=seed,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        assert sum(client.cross_shard_committed for client in run.clients) > 0
        run.check_all()  # per-shard + 2PC + migration atomicity/conservation


class TestCoordinatorCrash:
    def test_crash_mid_migration_then_recovery(self):
        # Crash the coordinator right after it submits mig_prepare and
        # before the install can land: the key's state is stranded in
        # the source shard's outbound escrow (owned by nobody), clients
        # spin on redirects, and a recovery coordinator adopting the
        # journal completes the move.
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run)
            state["coordinator"] = coordinator
            key = run.key_universe[0]
            state["key"] = key
            src = run.routing_table.shard_of(key)
            state["src"] = src
            dst = (src + 1) % run.config.n_shards
            run.sim.schedule_at(30.0, lambda: coordinator.migrate(key, dst))
            # The prepare is opt-delivered at the source replicas by
            # t=32 (one hop to the group, one to order), but the
            # coordinator only adopts at t=33 -- crash inside that
            # window, before the install can even be submitted.
            run.sim.schedule_at(
                32.5, lambda: run.network.crash(coordinator.client.pid)
            )

            def snapshot_stranded():
                # Mid-crash invariant: nobody owns the key, the source
                # escrow holds its state (checker's non-quiescent mode).
                checkers.check_migration_atomicity(
                    run.trace,
                    run.shards,
                    run.routing_table,
                    run.key_universe,
                    expected_total=run.initial_total,
                    quiescent=False,
                )
                owners = [
                    shard
                    for shard in range(run.config.n_shards)
                    if run.correct_servers(shard)
                    and run.correct_servers(shard)[0].machine.owns(key)
                ]
                state["stranded_owners"] = owners
                state["stranded_escrow"] = run.correct_servers(src)[
                    0
                ].machine.outbound_migrations()

            run.sim.schedule_at(60.0, snapshot_stranded)

            def recover():
                recovery = attach_rebalancer(run, pid="rb2")
                recovery.resume(coordinator.journal)
                state["recovery"] = recovery

            run.sim.schedule_at(80.0, recover)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=30,
                machine="bank",
                # Same-shard transfers only: a cross-shard escrow hold on
                # the account would (correctly) veto the export and the
                # crash would hit before any state was stranded -- the
                # interleaving case has its own test above.
                workload="cross",
                cross_ratio=0.0,
                seed=11,
                arm=arm,
                horizon=50_000.0,
                grace=100.0,
            )
        )
        assert run.all_done()
        # The crash really hit mid-migration: the key was ownerless and
        # escrowed when we looked.
        assert state["stranded_owners"] == []
        assert len(state["stranded_escrow"]) == 1
        # Recovery finished the move and bumped the epoch.
        recovery = state["recovery"]
        assert recovery.done
        assert recovery.journal[-1].phase == "done"
        assert run.routing_table.epoch >= 1
        dst = run.routing_table.shard_of(state["key"])
        assert dst != state["src"]
        run.check_all(strict=False)

    def test_check_all_tolerates_stranded_migration_without_recovery(self):
        # A coordinator crash with no recovery leaves the migration
        # stranded forever.  That is incomplete, not non-atomic:
        # check_all must fall back to safety-only migration checks
        # instead of raising "migrations never completed".
        def arm(run):
            coordinator = attach_rebalancer(run)
            key = run.key_universe[5]  # a cold key: no escrow interference
            src = run.routing_table.shard_of(key)
            dst = (src + 1) % run.config.n_shards
            run.sim.schedule_at(30.0, lambda: coordinator.migrate(key, dst))
            run.sim.schedule_at(
                32.5, lambda: run.network.crash(coordinator.client.pid)
            )

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=10,
                machine="kv",
                workload="uniform",
                seed=8,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()  # crashed coordinators do not block quiescence
        coordinator = run.rebalancers[0]
        assert any(not record.terminal for record in coordinator.journal)
        run.check_all()  # safety holds; completeness is correctly waived

    def test_check_all_tolerates_stranded_bank_migration(self):
        # The bank twin, stranded one step later: the install reached
        # the destination but the crashed coordinator never adopted it
        # and never forgot the export, so the balance sits both in the
        # source escrow and in a destination account.  Money is counted
        # there once, wherever the conservation law is checked.
        run, key, dst = _stranded_bank_migration()
        assert run.all_done()
        (record,) = run.rebalancers[0].journal
        assert record.phase == "installing"
        source = run.correct_servers(record.src)[0].machine
        assert [entry[0] for entry in source.outbound_migrations().values()] == [key]
        assert run.correct_servers(dst)[0].machine.owns(key)
        run.check_all()

    def test_money_created_inside_the_install_to_forget_window_is_caught(self):
        run, key, dst = _stranded_bank_migration()
        for server in run.correct_servers(dst):
            server.machine._accounts[key] += 7
        with pytest.raises(checkers.CheckFailure, match="sum to 8007, expected 8000"):
            run.check_all()

    def test_duplicate_prepare_reprobes_status_instead_of_aborting(self):
        # Recovery race: a restarted migration's prepare can lose to the
        # crashed coordinator's still-in-flight original prepare and be
        # rejected with "already prepared".  That rejection is proof the
        # state *is* escrowed -- the coordinator must re-probe status
        # and continue the install, never abort (which would strand the
        # key ownerless forever).
        from repro.sharding.cluster import build_sharded_scenario

        run = build_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2, n_clients=1, requests_per_client=1, machine="kv", seed=1
            )
        )
        coordinator = attach_rebalancer(run)
        key = run.key_universe[0]
        src = run.routing_table.shard_of(key)
        dst = 1 - src
        record = coordinator.migrate(key, dst)
        run.sim.run(until=2.0)  # the real prepare is now in flight

        # Simulate the duplicate rejection the race produces.
        from repro.statemachine.base import OpResult

        coordinator._on_prepare(
            record,
            OpResult(ok=False, error=f"mig_prepare: {record.mid} already prepared"),
        )
        assert record.phase != "aborted"
        # A status probe went out; letting the run continue completes
        # the migration normally from the escrowed state.
        run.sim.run(until=run.sim.now + 100.0)
        assert record.phase == "done"
        assert run.routing_table.shard_of(key) == dst

    def test_recovery_of_fully_completed_migration_is_noop(self):
        # Resume a journal whose migration already finished: the status
        # probes find unknown-at-source/installed-at-destination and the
        # recovery must not double-install or double-bump the epoch.
        state = {}

        def arm(run):
            coordinator = _arm_single_move(run, start_at=20.0)
            state["coordinator"] = coordinator

            def recover():
                recovery = attach_rebalancer(run, pid="rb2")
                # Pretend the first coordinator crashed post-completion
                # but its journal was snapshotted mid-flight.
                journal = [r for r in coordinator.journal]
                for record in journal:
                    record.phase = "installing"  # stale snapshot
                recovery.resume(journal)
                state["recovery"] = recovery

            run.sim.schedule_at(120.0, recover)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=30,
                machine="kv",
                workload="zipf",
                zipf_s=1.5,
                seed=6,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        assert state["recovery"].done
        assert run.routing_table.epoch == 1  # bumped exactly once
        run.check_all()

    def test_crash_mid_split_is_resumed_as_an_abort_that_conserves(self):
        # Crash the coordinator after split_open ran at the source and
        # before it adopted the result: fragment 0 is installed there and
        # fragment 1 sits in its escrow, while the routing table still
        # knows only the whole key.  Recovery surfaces the split as an
        # abort; the stranded fragments still sum to the account's value.
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run)
            key = run.key_universe[0]
            state.update(coordinator=coordinator, key=key, src=run.routing_table.shard_of(key))
            run.sim.schedule_at(30.0, lambda: state.update(split=coordinator.split_key(key, 2)))
            run.sim.schedule_at(32.5, lambda: run.network.crash(coordinator.client.pid))

            def recover():
                state["escrow"] = run.correct_servers(state["src"])[0].machine.outbound_migrations()
                recovery = attach_rebalancer(run, pid="rb2")
                recovery.resume(coordinator.journal)
                state["recovery"] = recovery

            run.sim.schedule_at(80.0, recover)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=30,
                machine="bank",
                workload="cross",
                cross_ratio=0.0,
                seed=11,
                arm=arm,
                horizon=50_000.0,
                grace=100.0,
            )
        )
        assert run.all_done()
        split, recovery, key = state["split"], state["recovery"], state["key"]
        # The crash really hit between split_open and the table commit.
        assert [entry[0] for entry in state["escrow"].values()] == [f"{key}#f1"]
        assert not run.trace.events(kind="split_commit")
        assert split.phase == "aborted" and split.error == "coordinator crashed mid-split"
        assert recovery.splits_aborted == 1 and recovery.done
        aborts = run.trace.events(kind="split_abort")
        assert [(e.pid, e["sid"], e["reason"]) for e in aborts] == [
            ("rb2", split.sid, split.error)
        ]
        assert key not in run.routing_table.splits
        run.check_all()
        # The stranded family is checked, not skipped: fragment 0 plus
        # the escrowed fragment 1 equal the adopted history.
        initial = {account: run.config.initial_balance for account in run.key_universe}
        assert checkers.check_fragment_conservation(
            run.trace, run.shards, run.routing_table, initial
        ) == 1


class TestRefusals:
    """A step the shards refuse every time ends the record ``aborted``,
    after the retries, and the coordinator goes on with its queue."""

    def test_prepare_refused_by_a_non_owner_aborts_and_the_queue_moves_on(self):
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0, max_attempts=2)
            key, other = run.key_universe[0], run.key_universe[1]
            owner = run.routing_table.shard_of(key)
            n = run.config.n_shards
            state.update(coordinator=coordinator, key=key, owner=owner)

            def kick():
                # The prepare goes to a shard that does not own the key.
                state["refused"] = coordinator.migrate(key, (owner + 2) % n, src=(owner + 1) % n)
                state["queued"] = coordinator.migrate(
                    other, (run.routing_table.shard_of(other) + 1) % n
                )

            coordinator.schedule(20.0, kick)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=3,
                n_clients=2,
                requests_per_client=10,
                machine="kv",
                workload="uniform",
                seed=3,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator, refused, queued = state["coordinator"], state["refused"], state["queued"]
        assert refused.phase == "aborted" and refused.attempts == 2
        assert refused.error.startswith("mig_prepare: ")
        begins = [e.time for e in run.trace.events(kind="mig_begin") if e["mid"] == refused.mid]
        assert len(begins) == 2 and begins[1] - begins[0] >= 6.0
        aborts = run.trace.events(kind="mig_abort")
        assert [(e["mid"], e["reason"]) for e in aborts] == [(refused.mid, refused.error)]
        assert coordinator.moves_aborted == 1 and coordinator.moves_committed == 1
        assert queued.phase == "done" and coordinator.done
        assert run.routing_table.shard_of(state["key"]) == state["owner"]
        run.check_all()

    def test_split_open_refused_every_time_aborts_the_split(self):
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0, max_attempts=2)
            key = run.key_universe[0]
            state.update(coordinator=coordinator, key=key)
            coordinator.schedule(
                20.0, lambda: state.update(split=coordinator.split_key(key, 2))
            )

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=10,
                machine="kv",
                workload="uniform",
                seed=4,
                arm=arm,
                horizon=50_000.0,
            )
        )
        assert run.all_done()
        coordinator, split = state["coordinator"], state["split"]
        assert split.phase == "aborted" and split.attempts == 2
        # The kv machine has no split_open: it refuses the op outright.
        assert split.error.startswith("unknown operation: ('split_open'")
        begins = [e.time for e in run.trace.events(kind="split_begin") if e["sid"] == split.sid]
        assert len(begins) == 2 and begins[1] - begins[0] >= 6.0
        aborts = run.trace.events(kind="split_abort")
        assert [(e["sid"], e["reason"]) for e in aborts] == [(split.sid, split.error)]
        assert coordinator.splits_aborted == 1 and coordinator.splits_committed == 0
        assert coordinator.done and state["key"] not in run.routing_table.splits
        run.check_all()

    def test_split_close_refused_every_time_aborts_the_unsplit(self):
        state = {}

        def arm(run):
            coordinator = attach_rebalancer(run, retry_delay=6.0, max_attempts=2)
            hot = run.key_universe[0]
            state.update(coordinator=coordinator, hot=hot)
            coordinator.schedule(10.0, lambda: coordinator.split_key(hot, 2))

            def kick():
                # Fragment 0 moves away just before the merge is planned
                # around it: the strays go to where it was, and the home
                # shard's split_close finds fragment 0 gone every time.
                (f0, _home), (_f1, away) = run.routing_table.fragments_of(hot)
                coordinator.migrate(f0, away)
                state["unsplit"] = coordinator.unsplit_key(hot)

            coordinator.schedule(60.0, kick)

        run = run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2,
                n_clients=2,
                requests_per_client=25,
                machine="bank",
                workload="hotkey",
                hot_ratio=0.5,
                accounts_per_shard=3,
                seed=7,
                arm=arm,
                horizon=50_000.0,
                grace=200.0,
            )
        )
        assert run.all_done()
        coordinator, unsplit = state["coordinator"], state["unsplit"]
        assert unsplit.phase == "aborted" and unsplit.attempts == 2
        assert unsplit.error.startswith("split_close: wrong_shard: ")
        begins = [e.time for e in run.trace.events(kind="unsplit_begin")]
        assert len(begins) == 2 and begins[1] - begins[0] >= 6.0
        aborts = run.trace.events(kind="unsplit_abort")
        assert [(e["sid"], e["reason"]) for e in aborts] == [(unsplit.sid, unsplit.error)]
        assert coordinator.unsplits_committed == 0 and coordinator.moves_committed == 2
        assert coordinator.done and state["hot"] in run.routing_table.splits
        assert not run.trace.events(kind="unsplit_done")
        run.check_all()
