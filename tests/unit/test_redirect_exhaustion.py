"""Redirect-budget exhaustion must terminate, not strand, an operation.

A key frozen by ``mig_prepare`` is owned by *no* shard until its install
lands; if the migration never completes (stranded coordinator), every
retry redirects again.  When ``max_redirects`` is spent the client must
surface a deterministic terminal WrongShard failure, clear every piece
of in-flight bookkeeping (``_pending`` / ``_redirect_pending`` /
``outstanding``), and let the workload driver finish -- a stranded
``pending()`` would hang the run forever.
"""

import pytest

from repro.sharding import ShardedScenarioConfig, attach_rebalancer, build_sharded_scenario
from repro.statemachine.base import OpResult, WrongShard

pytestmark = pytest.mark.unit


def freeze_first_key_forever(run):
    """Start a migration of key 0 whose coordinator dies immediately:
    the key stays parked in the source's outbound escrow, ownerless."""
    coordinator = attach_rebalancer(run)
    key = run.key_universe[0]
    src = run.routing_table.shard_of(key)
    dst = (src + 1) % run.config.n_shards

    def kick():
        coordinator.migrate(key, dst)
        # Crash while the prepare is still in flight (it is R-multicast,
        # so the servers execute it and freeze the key anyway): the
        # install never happens and nobody ever bumps the routing epoch.
        run.sim.schedule_at(run.sim.now + 2.0, lambda: run.network.crash(coordinator.client.pid))

    run.sim.schedule_at(10.0, kick)
    return key


def run_against_frozen_key(read_mode="sequencer", max_redirects=3):
    state = {}

    def arm(run):
        state["key"] = freeze_first_key_forever(run)

    config = ShardedScenarioConfig(
        n_shards=2,
        n_clients=1,
        requests_per_client=0,  # the one op is submitted manually below
        machine="kv",
        workload="uniform",
        seed=11,
        max_redirects=max_redirects,
        redirect_delay=5.0,
        read_mode=read_mode,
    )
    run = build_sharded_scenario(config)
    arm(run)
    client = run.clients[0]
    # Submit one op on the soon-to-be-frozen key well after the freeze.
    op = ("get", "k000") if read_mode != "sequencer" else ("set", "k000", "vX")
    rids = []
    run.sim.schedule_at(80.0, lambda: rids.append(client.submit(op)))
    # Drive the sim directly (the zero-request drivers would declare the
    # run quiescent before the redirect chain even starts).
    run.sim.run(until=2_000.0)
    return run, client, state["key"], rids


class TestRedirectExhaustion:
    def test_write_surfaces_terminal_wrong_shard(self):
        run, client, key, rids = run_against_frozen_key(max_redirects=3)
        assert key == "k000"
        # The run terminated: nothing in flight, nothing stranded.
        assert client.outstanding == 0
        assert client._pending == {}
        assert client._redirect_pending == 0
        assert client.redirects == 3
        assert client.redirects_exhausted == 1
        # Exactly one logical outcome surfaced: a deterministic
        # WrongShard failure for the frozen key.
        surfaced = [a for a in client.adopted.values() if a.rid not in client.read_rids]
        assert len(surfaced) == 1
        outcome = surfaced[0].value
        assert isinstance(outcome, OpResult) and not outcome.ok
        assert isinstance(outcome.value, WrongShard)
        assert outcome.value.key == key
        exhausted = run.trace.events(kind="redirect_exhausted")
        assert len(exhausted) == 1 and exhausted[0]["attempts"] == 3

    def test_read_surfaces_terminal_wrong_shard(self):
        run, client, key, rids = run_against_frozen_key(
            read_mode="optimistic", max_redirects=2
        )
        assert client.outstanding == 0
        assert client._reads == {}
        assert client._redirect_pending == 0
        assert client.redirects_exhausted == 1
        surfaced = list(client.adopted.values())
        assert len(surfaced) == 1
        outcome = surfaced[0].value
        assert isinstance(outcome, OpResult) and not outcome.ok
        assert isinstance(outcome.value, WrongShard)

    def test_zero_budget_surfaces_immediately(self):
        run, client, key, rids = run_against_frozen_key(max_redirects=0)
        assert client.redirects == 0
        assert client.redirects_exhausted == 1
        assert client.outstanding == 0
        (surfaced,) = client.adopted.values()
        assert isinstance(surfaced.value.value, WrongShard)

    def test_latency_spans_the_whole_redirect_chain(self):
        run, client, key, rids = run_against_frozen_key(max_redirects=2)
        (surfaced,) = [a for a in client.adopted.values()]
        # Two redirect pauses of redirect_delay each sit inside the
        # surfaced latency: the chain is one logical operation.
        assert surfaced.latency >= 2 * run.config.redirect_delay
