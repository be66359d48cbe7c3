"""Integration tests for the admission-control plane: sequencer-side
shedding, the read bulkhead, control-plane isolation under a data-plane
flood, and the idle-plane digest-identity guarantee."""

import pytest

from repro.core.admission import Overloaded
from repro.core.server import OARConfig
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario
from repro.sharding.rebalance import attach_rebalancer
from repro.workload.openloop import FlashCrowdProcess

pytestmark = pytest.mark.integration


def saturated(limit, **changes):
    """2x-saturation sessioned Poisson load against a costed sequencer."""
    config = ScenarioConfig(
        seed=9,
        driver="session",
        requests_per_client=200,
        open_rate=4.0,
        oar=OARConfig(order_cost=0.5, admission_limit=limit),
        horizon=50_000.0,
        grace=100.0,
    )
    return run_scenario(config.with_changes(**changes))


class TestWriteShedding:
    def test_saturation_sheds_deterministically_and_conserves(self):
        run = saturated(8)
        driver = run.drivers[0]
        assert run.all_done()
        assert driver.shed > 0
        assert driver.offered == driver.admitted + driver.shed + driver.throttled
        # Every shed decision fired exactly at the configured bound.
        for event in run.trace.events(kind="shed"):
            assert event["queue"] >= event["limit"] == 8
        # Sheds surface as failed OpResults wrapping Overloaded, through
        # the ordinary adopted map.
        client = run.clients[0]
        assert client.overloaded == driver.shed
        for rid in client.shed_rids:
            record = client.adopted[rid]
            assert record.position == -1
            assert not record.value.ok
            assert record.value.error == "overloaded"
            assert isinstance(record.value.value, Overloaded)
        run.check_all()

    def test_same_seed_sheds_identically(self):
        a, b = saturated(8), saturated(8)
        assert a.clients[0].shed_rids == b.clients[0].shed_rids
        assert [s.shed for s in a.servers] == [s.shed for s in b.servers]

    def test_retransmission_hits_the_notice_cache(self):
        # With retransmission on, a shed rid's retry must re-receive the
        # cached notice (at most one shed decision per rid), never a
        # second decision or a silent drop.
        run = saturated(8, retry_interval=25.0)
        assert run.all_done()
        assert run.drivers[0].shed > 0
        run.check_all()  # includes the at-most-once shed assertion


class TestReadBulkhead:
    def test_read_storm_sheds_on_its_own_queue(self):
        # A read-heavy flood against a costed read pipeline: reads shed
        # at read_queue_limit; the write path keeps its own ledger.
        config = ScenarioConfig(
            seed=4,
            driver="session",
            requests_per_client=300,
            open_rate=6.0,
            machine="kv",
            read_ratio=0.9,
            read_mode="optimistic",
            n_servers=3,
            oar=OARConfig(read_cost=1.0, order_cost=0.1, read_queue_limit=4),
            horizon=50_000.0,
            grace=100.0,
        )
        run = run_scenario(config)
        assert run.all_done()
        total_reads_shed = sum(s.reads_shed for s in run.servers)
        assert total_reads_shed > 0
        assert all(s.shed == 0 for s in run.servers)  # write queue untouched
        client = run.clients[0]
        assert client.shed_rids & client.read_rids  # read sheds surfaced
        run.check_all()


class TestControlPlaneBulkhead:
    def test_migration_completes_through_a_data_plane_flood(self):
        # A flash crowd saturates both sequencers past their admission
        # bound while a live migration runs.  The bulkhead exempts the
        # mig_* escrow steps from shedding, so the migration commits and
        # every migration checker passes despite heavy data-plane sheds.
        config = ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=2,
            requests_per_client=150,
            machine="bank",
            driver="session",
            open_rate=3.0,
            arrival=FlashCrowdProcess(
                base_rate=1.0, peak_rate=8.0, at=10.0, ramp=10.0,
                hold=120.0, decay=20.0,
            ),
            oar=OARConfig(order_cost=0.5, admission_limit=6),
            seed=21,
            horizon=50_000.0,
            grace=100.0,
        )
        run = run_sharded_scenario(config)
        coordinator = attach_rebalancer(run)
        key = run.key_universe[0]
        coordinator.schedule(30.0, lambda: coordinator.migrate(key, 1, src=0))
        run.execute()
        assert run.all_done()
        assert coordinator.done
        record = coordinator.journal[0]
        assert record.phase == "done"
        total_shed = sum(s.shed for ss in run.shards for s in ss)
        assert total_shed > 0, "the flood should overwhelm the data plane"
        # No control-class shed ever happened (the bulkhead guarantee).
        for event in run.trace.events(kind="shed"):
            assert event["cls"] in ("write", "read")
        run.check_all()


class TestIdlePlaneZeroOverhead:
    def test_digest_identity_when_admission_never_fires(self):
        # The acceptance criterion: a fault-free closed-loop run is
        # digest-identical whether the plane is off (None) or enabled
        # with bounds it never reaches -- the admission branch costs
        # nothing on the untriggered path.
        base = ScenarioConfig(
            seed=13,
            n_clients=2,
            requests_per_client=25,
            machine="bank",
            trace_messages=True,
        )
        off = run_scenario(base)
        armed = run_scenario(
            base.with_changes(oar=OARConfig(admission_limit=10**9, read_queue_limit=10**9))
        )
        assert off.trace.digest() == armed.trace.digest()
        assert all(s.shed == 0 and s.reads_shed == 0 for s in armed.servers)
        assert all(c.overloaded == 0 for c in armed.clients)
        off.check_all()
        armed.check_all()
