"""Unit tests for the auto-triggered rebalancer policy.

The ROADMAP open item: rebalances used to fire only at scheduled times;
now :meth:`RebalanceCoordinator.enable_auto_trigger` polls the decayed
per-key load counters and fires a plan when the hot/cold shard imbalance
stays above a threshold for a *sustained* window.  These tests drive the
policy with a manual clock and a fake shard (adoptions synthesized
inline), so every tick and strike is deterministic and inspectable --
including the shifting-hot-set case where the trigger must chase the
*current* Zipf head across shards.
"""

import pytest

from repro.core.loadtrack import DecayingKeyLoad
from repro.core.client import AdoptedReply
from repro.sharding.rebalance import RebalanceCoordinator
from repro.sharding.router import RoutingTable, make_router
from repro.statemachine.base import OpResult

pytestmark = pytest.mark.unit

KEYS = tuple(f"k{i:03d}" for i in range(16))


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _FakeEnv:
    """set_timer collects callbacks for manual firing; trace records."""

    def __init__(self, clock: ManualClock) -> None:
        self.clock = clock
        self.timers = []
        self.traced = []

    @property
    def now(self) -> float:
        return self.clock.now

    def set_timer(self, delay, callback):
        self.timers.append((self.clock.now + delay, callback))

    def fire_due(self) -> None:
        # Drain: a fired callback may schedule another due timer (the
        # fake shard's same-instant adoptions chain prepare -> install
        # -> forget).
        while True:
            due = [t for t in self.timers if t[0] <= self.clock.now]
            if not due:
                return
            self.timers = [t for t in self.timers if t[0] > self.clock.now]
            for _when, callback in due:
                callback()

    def trace(self, kind, **fields):
        self.traced.append((kind, fields))


class _FakeShardClient:
    """A sharded-client stand-in that adopts every mig_* op instantly.

    ``submit_to_shard`` synthesizes the deterministic reply the real
    shard would eventually adopt (prepare exports a token state, install
    acks, forget acks), handed to the step's continuation ``then`` --
    so a whole migration transaction completes within one policy tick
    and the *second* trigger can be tested without a simulator.
    """

    def __init__(self, env, key_load) -> None:
        self.pid = "rb-fake"
        self.env = env
        self.key_load = key_load
        self.crashed = False
        self.answers = True  #: False: submitted steps are never adopted
        self._counter = 0
        self.submitted = []

    def submit_to_shard(self, op, shard, then):
        self._counter += 1
        rid = f"{self.pid}-{self._counter}"
        self.submitted.append((op, shard))
        name = op[0]
        if name == "mig_prepare":
            value = ("exported", ("present", "v"))
        elif name == "mig_install":
            value = ("installed",)
        elif name == "split_open":
            # ("split_open", sid, key, frags, dsts): echo the escrow
            # plan the real source shard would ship.
            sid, frags, dsts = op[1], op[3], op[4]
            value = (
                "split",
                tuple(
                    (f"{sid}.{i}", frags[i], dsts[i], "part")
                    for i in range(1, len(frags))
                ),
            )
        elif name == "split_close":
            value = ("merged", "state")
        else:  # mig_forget / mig_status on this happy path
            value = ("forgotten",)
        reply = AdoptedReply(
            rid=rid, value=OpResult(ok=True, value=value), position=1,
            epoch=0, weight=("s",), conservative=True,
            submit_time=self.env.now, adopt_time=self.env.now,
        )
        # Deliver the adoption after the coordinator records the stage
        # (the real client adopts asynchronously too).
        if self.answers:
            self.env.set_timer(0.0, lambda: then(reply))
        return rid


def make_coordinator(n_shards=2, **auto):
    clock = ManualClock()
    env = _FakeEnv(clock)
    load = DecayingKeyLoad(half_life=100.0, clock=clock)
    client = _FakeShardClient(env, load)
    authority = RoutingTable(make_router("range", n_shards, KEYS))
    coordinator = RebalanceCoordinator(
        client, authority, observed_clients=[client]
    )
    coordinator.enable_auto_trigger(
        check_interval=auto.pop("check_interval", 10.0),
        ratio=auto.pop("ratio", 3.0),
        sustain=auto.pop("sustain", 2),
        min_load=auto.pop("min_load", 10.0),
        max_moves=auto.pop("max_moves", 2),
        split_n=auto.pop("split_n", 0),
    )
    return clock, env, load, authority, coordinator


def tick(clock, env, dt=10.0):
    clock.now += dt
    env.fire_due()


class TestAutoTriggerPolicy:
    def test_balanced_load_never_triggers(self):
        clock, env, load, _authority, coordinator = make_coordinator()
        for key in KEYS:
            load.record(key, weight=10.0)
        for _ in range(5):
            tick(clock, env)
        assert coordinator.auto_rebalances == 0
        assert coordinator.journal == []

    def test_quiet_cluster_never_triggers(self):
        # All-zero counters: the min_load floor keeps inf ratios from
        # firing on noise.
        clock, env, _load, _authority, coordinator = make_coordinator()
        for _ in range(5):
            tick(clock, env)
        assert coordinator.auto_rebalances == 0

    def test_sustained_imbalance_fires_after_strike_window(self):
        clock, env, load, authority, coordinator = make_coordinator(sustain=3)
        # A hot *set* on shard 0 (each key lighter than the hot-cold
        # gap, so the greedy planner has movable candidates) vs a cold
        # pulse on shard 1.
        hot_set = {KEYS[0]: 80.0, KEYS[1]: 40.0, KEYS[2]: 40.0, KEYS[3]: 40.0}

        def heat(scale=1.0):
            for key, weight in hot_set.items():
                load.record(key, weight=weight * scale)
            load.record(KEYS[-1], weight=10.0 * scale)

        heat()
        tick(clock, env)  # strike 1
        assert coordinator.auto_rebalances == 0
        heat()
        tick(clock, env)  # strike 2
        assert coordinator.auto_rebalances == 0
        heat()
        tick(clock, env)  # strike 3 -> fire
        assert coordinator.auto_rebalances == 1
        moved = [record.key for record in coordinator.journal]
        assert KEYS[0] in moved  # the heaviest movable key leads the plan
        # The fake shard adopted every step: the moves are fully done
        # and the authority routes every moved key to the cold shard.
        assert all(record.terminal for record in coordinator.journal)
        assert authority.shard_of(KEYS[0]) == 1

    def test_momentary_spike_resets_the_strikes(self):
        clock, env, load, _authority, coordinator = make_coordinator(sustain=2)
        hot = KEYS[0]
        load.record(hot, weight=200.0)
        load.record(KEYS[-1], weight=10.0)
        tick(clock, env)  # strike 1
        # The spike decays away (half-life 100, tick 10 -> wait long).
        clock.now += 500.0
        load.record(KEYS[-1], weight=50.0)  # shard 1 now carries the load
        load.record(KEYS[0], weight=40.0)  # near-balanced
        tick(clock, env)  # ratio below threshold: strikes reset
        load.record(hot, weight=200.0)
        tick(clock, env)  # strike 1 again, not 2: no fire
        assert coordinator.auto_rebalances == 0

    def test_shifting_hot_set_chases_the_current_head(self):
        # Phase 1: KEYS[0] (shard 0) is the head -> first auto rebalance
        # moves it.  Phase 2: traffic shifts to KEYS[-1]'s neighbour on
        # shard 1 while the old head decays -> the *second* trigger must
        # plan the new head, not re-litigate the stale one.
        clock, env, load, authority, coordinator = make_coordinator(
            sustain=2, max_moves=1
        )
        old_head = KEYS[0]

        def heat_phase1():
            load.record(old_head, weight=100.0)  # heaviest movable key
            load.record(KEYS[1], weight=60.0)
            load.record(KEYS[2], weight=60.0)
            load.record(KEYS[-1], weight=20.0)  # shard 1 pulse

        heat_phase1()
        tick(clock, env)
        heat_phase1()
        tick(clock, env)  # fires: old_head 0 -> 1
        assert coordinator.auto_rebalances == 1
        assert coordinator.journal[0].key == old_head
        assert authority.shard_of(old_head) == 1

        # The hot set shifts: ten half-lives silence the old head, a new
        # head heats up on shard 1 (which, under the *current* routing,
        # also hosts the migrated old head).
        clock.now += 1000.0
        new_head = KEYS[-1]

        def heat_phase2():
            load.record(new_head, weight=100.0)
            load.record(KEYS[-2], weight=60.0)
            load.record(KEYS[-3], weight=60.0)
            load.record(KEYS[1], weight=20.0)  # shard 0 keeps a pulse

        heat_phase2()
        tick(clock, env)
        heat_phase2()
        tick(clock, env)  # fires again, for the new head
        assert coordinator.auto_rebalances == 2
        assert coordinator.journal[-1].key == new_head
        assert authority.shard_of(new_head) == 0

    def test_no_fire_while_a_migration_is_active(self):
        clock, env, load, _authority, coordinator = make_coordinator(sustain=1)
        # Hold the coordinator busy with a manually enqueued move that
        # never completes (its steps are never adopted).
        coordinator.client.answers = False
        coordinator.migrate(KEYS[2], 1)
        env.fire_due()
        assert not coordinator.done
        hot = KEYS[0]
        load.record(hot, weight=500.0)
        load.record(KEYS[-1], weight=10.0)
        tick(clock, env)
        tick(clock, env)
        assert coordinator.auto_rebalances == 0  # deferred, not stacked
        # Deferred means the evidence is *kept*: the strikes survive, so
        # the plan fires on the first over-threshold tick after the
        # active migration drains instead of re-earning the window.
        assert coordinator._auto_strikes >= coordinator._auto["sustain"]

    def test_parameter_validation(self):
        _clock, _env, _load, _authority, coordinator = make_coordinator()
        with pytest.raises(ValueError):
            coordinator.enable_auto_trigger(check_interval=0.0)
        with pytest.raises(ValueError):
            coordinator.enable_auto_trigger(ratio=1.0)
        with pytest.raises(ValueError):
            coordinator.enable_auto_trigger(sustain=0)

    def test_imbalance_ratio_shapes(self):
        _clock, _env, load, _authority, coordinator = make_coordinator()
        assert coordinator.imbalance_ratio({})[0] == 1.0
        load.record(KEYS[0], weight=10.0)
        ratio, hot, cold = coordinator.imbalance_ratio()
        assert ratio == float("inf") and hot > 0 and cold == 0.0
        load.record(KEYS[-1], weight=5.0)
        ratio, _hot, _cold = coordinator.imbalance_ratio()
        assert ratio == pytest.approx(2.0)


def make_manual_coordinator(n_shards=2):
    """A coordinator with no auto trigger: plan_moves is called directly."""
    clock = ManualClock()
    env = _FakeEnv(clock)
    load = DecayingKeyLoad(half_life=100.0, clock=clock)
    client = _FakeShardClient(env, load)
    authority = RoutingTable(make_router("range", n_shards, KEYS))
    coordinator = RebalanceCoordinator(
        client, authority, observed_clients=[client]
    )
    return env, authority, coordinator


class TestPlanStability:
    """plan_moves must not churn: near-equal shards stay put, and a
    planned move is never immediately planned back (ping-pong).

    The guard is the gap test -- a candidate key must carry *less* load
    than the current hot-cold gap -- which makes every accepted move
    strictly shrink the gap, so re-planning after the move has nothing
    left to do.  Range routing over KEYS puts k000-k007 on shard 0 and
    k008-k015 on shard 1.
    """

    def test_near_equal_shards_plan_nothing(self):
        _env, _authority, coordinator = make_manual_coordinator()
        load = {KEYS[0]: 10.0, KEYS[1]: 9.0, KEYS[8]: 10.0, KEYS[9]: 8.0}
        # 19 vs 18: every candidate outweighs the gap of 1, even with
        # plenty of move budget.
        assert coordinator.plan_moves(load, max_moves=8) == []

    def test_plan_stops_before_inverting_the_imbalance(self):
        _env, _authority, coordinator = make_manual_coordinator()
        load = {KEYS[0]: 4.0, KEYS[1]: 4.0, KEYS[8]: 1.0}
        # 8 vs 1: moving one 4 lands at 4 vs 5, and the new gap of 1
        # admits no candidate -- the plan must stop at one move rather
        # than oscillate keys across the near-equal shards.
        plan = coordinator.plan_moves(load, max_moves=8)
        assert plan == [(KEYS[0], 0, 1)]

    def test_replanning_after_the_move_is_empty(self):
        _env, authority, coordinator = make_manual_coordinator()
        load = {KEYS[0]: 9.0, KEYS[1]: 5.0, KEYS[8]: 6.0}
        plan = coordinator.plan_moves(load, max_moves=8)
        assert plan == [(KEYS[1], 0, 1)]
        # Commit the move and re-plan against the *same* load snapshot:
        # 9 vs 11 leaves a gap of 2 with no lighter candidate, so the
        # moved key is not bounced home.
        authority.move(KEYS[1], 1)
        assert coordinator.plan_moves(load, max_moves=8) == []

    def test_plan_is_deterministic(self):
        _env, _authority, coordinator = make_manual_coordinator()
        load = {KEYS[0]: 12.0, KEYS[1]: 7.0, KEYS[2]: 7.0, KEYS[8]: 3.0}
        first = coordinator.plan_moves(load, max_moves=8)
        assert first == coordinator.plan_moves(load, max_moves=8)

    def test_single_dominant_key_defeats_the_planner(self):
        _env, _authority, coordinator = make_manual_coordinator()
        load = {KEYS[0]: 100.0, KEYS[8]: 5.0}
        # The hot key outweighs the gap: moving it would only swap which
        # shard is hot.  An empty plan here is the auto-split trigger's
        # precondition.
        assert coordinator.plan_moves(load, max_moves=8) == []


class TestAutoSplit:
    def test_dominant_key_splits_when_the_plan_is_defeated(self):
        clock, env, load, authority, coordinator = make_coordinator(
            sustain=2, split_n=2
        )
        hot = KEYS[0]

        def heat():
            load.record(hot, weight=500.0)
            load.record(KEYS[-1], weight=10.0)

        heat()
        tick(clock, env)  # strike 1
        heat()
        tick(clock, env)  # strike 2: plan is empty -> split instead
        assert coordinator.auto_rebalances == 0
        assert coordinator.auto_splits == 1
        assert coordinator.splits_committed == 1
        placements = authority.fragments_of(hot)
        assert placements is not None and len(placements) == 2
        assert [kind for kind, _f in env.traced if kind == "split_auto"]

    def test_fragments_are_never_split_again(self):
        clock, env, load, authority, coordinator = make_coordinator(
            sustain=1, split_n=2
        )
        hot = KEYS[0]
        load.record(hot, weight=500.0)
        load.record(KEYS[-1], weight=10.0)
        tick(clock, env)
        assert coordinator.auto_splits == 1
        frag0 = authority.fragments_of(hot)[0][0]
        # The heat follows a fragment now; sustained imbalance on it
        # must not cascade into splitting the fragment itself.
        for _ in range(3):
            load.record(frag0, weight=500.0)
            load.record(KEYS[-1], weight=10.0)
            tick(clock, env)
        assert coordinator.auto_splits == 1
        assert authority.fragments_of(frag0) is None

    def test_split_n_validation(self):
        _clock, _env, _load, _authority, coordinator = make_coordinator()
        with pytest.raises(ValueError):
            coordinator.enable_auto_trigger(split_n=1)
        with pytest.raises(ValueError):
            coordinator.enable_auto_trigger(split_n=-2)
