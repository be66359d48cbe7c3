"""Unit tests for the decayed per-key load counters (hot-spot detection).

The rebalance planner must act on *recent* load: a key that was hot
during warm-up and went cold long ago no longer justifies a migration.
"""

import pytest

from repro.core.loadtrack import DecayingKeyLoad
from repro.sharding.rebalance import RebalanceCoordinator
from repro.sharding.router import HashShardRouter, RoutingTable

pytestmark = pytest.mark.unit


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestDecayingKeyLoad:
    def test_no_decay_within_an_instant(self):
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        for _ in range(5):
            load.record("k")
        assert load["k"] == pytest.approx(5.0)
        assert load.counts() == {"k": 5}

    def test_half_life_halves(self):
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        load.record("k", weight=8.0)
        clock.now = 100.0
        assert load["k"] == pytest.approx(4.0)
        clock.now = 300.0
        assert load["k"] == pytest.approx(1.0)
        # The exact submission book never decays.
        assert load.counts() == {"k": 1}

    def test_recording_compounds_with_decay(self):
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        load.record("k", weight=4.0)
        clock.now = 100.0
        load.record("k", weight=1.0)  # 4/2 + 1
        assert load["k"] == pytest.approx(3.0)

    def test_unrecord_compensates_and_floors_at_zero(self):
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        load.record("k")
        clock.now = 1000.0  # decayed to ~0.001
        load.unrecord("k")
        assert load["k"] == 0.0
        assert load.counts() == {"k": 0}

    def test_snapshot_brings_idle_keys_current(self):
        # The stale-hot-spot bug: an idle key's stored value is stale
        # until touched; snapshot() must decay it to *now* anyway.
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        load.record("old", weight=100.0)
        clock.now = 1000.0
        load.record("new", weight=10.0)
        snap = load.snapshot()
        assert snap["new"] == pytest.approx(10.0)
        assert snap["old"] < 0.1  # ten half-lives gone

    def test_dict_like_views_decay(self):
        clock = ManualClock()
        load = DecayingKeyLoad(half_life=100.0, clock=clock)
        load.record("k", weight=8.0)
        clock.now = 100.0
        assert dict(load.items()) == {"k": pytest.approx(4.0)}
        assert "k" in load and len(load) == 1
        assert load.get("missing") == 0.0


class _StubClient:
    """The minimum surface RebalanceCoordinator needs at plan time."""

    def __init__(self, key_load) -> None:
        self.key_load = key_load
        self.pid = "rb-stub"
        self.on_adopt = None


class TestPlanFollowsTheCurrentHead:
    def _coordinator(self, clients, n_shards=2):
        authority = RoutingTable(HashShardRouter(n_shards))
        return RebalanceCoordinator(
            _StubClient(clients[0].key_load) if clients else _StubClient(None),
            authority,
            observed_clients=clients,
        )

    def test_shifted_hot_set_drives_the_plan(self):
        # One key hammered early on shard A, then traffic moves to a
        # head key (plus filler) on shard B.  An all-time counter still
        # calls the old key the hot head and plans to move it; the
        # decayed snapshot must plan the *current* head instead.
        router = HashShardRouter(2)
        keys = [f"k{i:03d}" for i in range(32)]
        shard_a = [k for k in keys if router.shard_of(k) == 0]
        shard_b = [k for k in keys if router.shard_of(k) == 1]
        hot_old, old_filler = shard_a[0], shard_a[1]
        hot_new, filler = shard_b[0], shard_b[1]

        def replay(half_life):
            clock = ManualClock()
            load = DecayingKeyLoad(half_life=half_life, clock=clock)
            for _ in range(120):
                load.record(hot_old)
            for _ in range(80):
                load.record(old_filler)
            clock.now = 1200.0  # twelve half-lives: the old head is cold
            for _ in range(60):
                load.record(hot_new)
            for _ in range(40):
                load.record(filler)
            return load

        load = replay(half_life=100.0)
        coordinator = self._coordinator([_StubClient(load)])
        snapshot = coordinator.snapshot_key_load()
        assert snapshot[hot_new] > snapshot[hot_old]

        moves = coordinator.plan_moves(max_moves=1)
        assert moves, "the current hot head must be planned off its shard"
        key, src, _dst = moves[0]
        assert key == hot_new
        assert src == router.shard_of(hot_new)

        # The same history through a counter that in effect never
        # decays (a half-life far beyond the run) migrates a key off the
        # *old* hot shard -- a key nobody touches any more -- which is
        # exactly the stale-hot-spot bug this fixes.
        stale_coordinator = self._coordinator([_StubClient(replay(1e12))])
        stale_moves = stale_coordinator.plan_moves(max_moves=1)
        assert stale_moves
        stale_key, stale_src, _ = stale_moves[0]
        assert stale_src == router.shard_of(hot_old)
        assert stale_key in (hot_old, old_filler)
