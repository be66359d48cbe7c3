"""One continuation per request: ``submit(op, then=..., submit_time=...)``.

Whoever submits a request says who gets its adopted reply (the base
rule is pinned in ``test_oar_client.py::TestThen``), which is how
redirects, 2PC branches, scatter reads, borrows and the rebalance
coordinator's stages chain requests without a table of request ids.
``submit_time`` back-dates a step, so a chain -- however many requests
it takes -- is timed from its first submission.
"""

from typing import Any

import pytest

from repro.sharding import ShardedScenarioConfig, attach_rebalancer, build_sharded_scenario

pytestmark = pytest.mark.unit


T0 = 40.0  #: when the stale client submits, well after the split committed


def split_hot_key_under_a_stale_client(name: str, *args: Any):
    """Split the hot account 4 ways at t=0, then have a client whose
    routing table has never been synced submit ``(name, hot, *args)`` at
    ``T0``: WrongShard, one redirect, then the fragment rewrite."""
    run = build_sharded_scenario(
        ShardedScenarioConfig(
            n_shards=2, n_servers=3, n_clients=1, requests_per_client=0, machine="bank",
            workload="hotkey", accounts_per_shard=3, initial_balance=30, seed=7,
        )
    )
    coordinator = attach_rebalancer(run)
    hot = run.key_universe[0]
    coordinator.schedule(0.0, lambda: coordinator.split_key(hot, 4))
    client = run.clients[0]
    run.sim.schedule_at(T0, lambda: client.submit((name, hot, *args)))
    run.sim.run(until=1_000.0)
    assert coordinator.splits_committed == 1 and client.outstanding == 0
    (surfaced,) = client.adopted.values()
    return run, client, surfaced


class TestLatencySpansTheChain:
    """Regression: a context built after a redirect used the retry's
    clock, so every later step of the chain restarted the latency."""

    def test_redirected_then_borrowing_withdrawal_is_timed_from_first_submission(self):
        # Each fragment holds ~7; withdrawing 20 is short and borrows.
        run, client, surfaced = split_hot_key_under_a_stale_client("withdraw", 20)
        assert client.redirects == 1 and client.borrows >= 1
        assert surfaced.submit_time == T0
        assert surfaced.latency == surfaced.adopt_time - T0
        assert surfaced.latency > run.config.redirect_delay

    def test_redirected_then_scattered_read_is_timed_from_first_submission(self):
        run, client, surfaced = split_hot_key_under_a_stale_client("balance")
        assert client.redirects == 1 and client.split_reads == 1
        assert surfaced.value.ok and surfaced.value.value == 30
        assert surfaced.submit_time == T0
        assert surfaced.latency >= run.config.redirect_delay
        (traced,) = run.trace.events(kind="split_read_adopt")
        assert traced["latency"] == surfaced.latency
