"""Determinism guarantees across the kernel fast-lane rewrite.

The same-instant fast lane, handle-free posts and lazy-cancellation
compaction are pure performance features: they must not change *any*
observable schedule.  Three layers of evidence:

* a fixed-seed B5-style scenario whose full trace digest (time, pid,
  kind, fields -- message-level events included) is pinned to the value
  captured **before** the fast lane existed (commit f35608a);
* repeat-run reproducibility (same seed -> byte-identical digest);
* a hypothesis property driving random scheduling programs through both
  the real :class:`Simulator` and a minimal pure-heap reference
  implementing the original global-counter semantics (``ReferenceLoop``,
  shared with the perf gate that times the fast lane against it),
  asserting identical firing order -- this pins the ``schedule`` /
  ``call_soon`` / ``post`` interleaving contract.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.harness import ReferenceLoop
from repro.harness import ScenarioConfig, run_scenario
from repro.sim.loop import Simulator

pytestmark = pytest.mark.property


#: Captured at commit f35608a (pre-fast-lane kernel) for this exact
#: config; must never drift under semantics-preserving optimization.
GOLDEN_DIGEST = "83faff120b9b5c1eb25b54c56ed4c06fa72536a2ad217dffb50a6e323c06d3be"
GOLDEN_CONFIG = dict(
    n_servers=3,
    n_clients=2,
    requests_per_client=15,
    machine="kv",
    driver="open",
    open_rate=1.0,
    grace=100.0,
    horizon=10_000.0,
    seed=1234,
    trace_messages=True,
)


def _golden_run():
    run = run_scenario(ScenarioConfig(**GOLDEN_CONFIG))
    assert run.all_done()
    return run


class TestGoldenScenario:
    def test_digest_matches_pre_rewrite_golden(self):
        assert _golden_run().trace.digest() == GOLDEN_DIGEST

    def test_repeat_runs_are_byte_identical(self):
        assert _golden_run().trace.digest() == _golden_run().trace.digest()

    def test_different_seed_differs(self):
        config = dict(GOLDEN_CONFIG)
        config["seed"] = 4321
        other = run_scenario(ScenarioConfig(**config))
        assert other.trace.digest() != GOLDEN_DIGEST


#: A program is a tree of events; each node carries the scheduling API
#: to use and a delay bucket, and fires its children when it executes.
_api = st.sampled_from(["schedule", "post", "call_soon"])
_delay = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_program = st.recursive(
    st.tuples(_api, _delay),
    lambda children: st.tuples(_api, _delay, st.lists(children, max_size=4)),
    max_leaves=40,
)


def _spawn(loop, spec, order, counter, use_real_api):
    if len(spec) == 2:
        api, delay, children = spec[0], spec[1], []
    else:
        api, delay, children = spec
    event_id = next(counter)

    def fire():
        order.append((event_id, loop.now))
        for child in children:
            _spawn(loop, child, order, counter, use_real_api)

    if api == "call_soon":
        loop.call_soon(fire)
    elif api == "post" and use_real_api:
        loop.post(delay, fire)
    else:  # "schedule" (the reference treats post as schedule)
        loop.schedule(delay, fire)


@given(st.lists(_program, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_interleaving_matches_reference_kernel(programs):
    """Fast lane + handle-free posts fire in exact global schedule order."""
    real_order, ref_order = [], []
    real = Simulator(seed=0)
    ref = ReferenceLoop()
    real_ids, ref_ids = itertools.count(), itertools.count()
    for spec in programs:
        _spawn(real, spec, real_order, real_ids, use_real_api=True)
        _spawn(ref, spec, ref_order, ref_ids, use_real_api=False)
    real.run()
    ref.run()
    assert real_order == ref_order


@given(st.lists(_program, min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_run_and_step_agree(programs):
    """Driving via step() yields the same order as run()."""
    run_order, step_order = [], []
    by_run = Simulator(seed=0)
    by_step = Simulator(seed=0)
    run_ids, step_ids = itertools.count(), itertools.count()
    for spec in programs:
        _spawn(by_run, spec, run_order, run_ids, use_real_api=True)
        _spawn(by_step, spec, step_order, step_ids, use_real_api=True)
    by_run.run()
    while by_step.step():
        pass
    assert run_order == step_order
    assert by_run.events_processed == by_step.events_processed


# ----------------------------------------------------------------------
# One run loop: run() == run_until() == a loop of step()
# ----------------------------------------------------------------------

#: As ``_program``, with a third choice per node: cancel the timer right
#: after scheduling it.  A cancelled ``schedule(0.0)`` is a dead handle
#: in the same-instant lane, any other a dead entry in the heap; both
#: stay queued until the loop reaches them.
_cancel = st.booleans()
_cancelling_program = st.recursive(
    st.tuples(_api, _delay, _cancel),
    lambda children: st.tuples(_api, _delay, _cancel, st.lists(children, max_size=4)),
    max_leaves=40,
)


def _spawn_cancelling(sim, spec, order, counter):
    api, delay, cancel = spec[:3]
    children = spec[3] if len(spec) == 4 else []
    event_id = next(counter)

    def fire():
        order.append((event_id, sim.now))
        for child in children:
            _spawn_cancelling(sim, child, order, counter)

    if api == "call_soon":
        sim.call_soon(fire)
    elif api == "post":
        sim.post(delay, fire)
    else:
        handle = sim.schedule(delay, fire)
        if cancel:
            handle.cancel()


def _loaded(programs):
    sim, order = Simulator(seed=0), []
    ids = itertools.count()
    for spec in programs:
        _spawn_cancelling(sim, spec, order, ids)
    return sim, order


def _state(sim, order):
    return (
        list(order),
        sim.now,
        sim.events_processed,
        sim.pending_events,
        sim.cancelled_pending,
    )


def _step_until(sim, predicate, max_events):
    """What ``run_until`` was before it became a loop of its own."""
    executed = 0
    while not predicate():
        if executed >= max_events or not sim.step():
            return predicate()
        executed += 1
    return True


@given(st.lists(_cancelling_program, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_run_until_to_exhaustion_is_run_is_a_step_loop(programs):
    """Same events in the same order at the same instants, the same
    clock and ``events_processed``, every cancelled entry skipped and
    accounted for -- whichever of the three drives the queue dry."""
    by_run, run_order = _loaded(programs)
    by_step, step_order = _loaded(programs)
    by_until, until_order = _loaded(programs)
    by_run.run()
    while by_step.step():
        pass
    assert by_until.run_until(lambda: False, max_events=1 << 40) is False
    reference = _state(by_step, step_order)
    assert _state(by_run, run_order) == reference
    assert _state(by_until, until_order) == reference
    assert by_step.pending_events == 0 and by_step.cancelled_pending == 0


@given(st.lists(_cancelling_program, min_size=1, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_run_until_stops_where_the_step_loop_would(programs, data):
    """A predicate that turns true in the middle of an instant, and a
    budget that runs out before it does: ``run_until`` answers what the
    ``predicate(); step()`` loop answers and leaves the same queue."""
    dry, dry_order = _loaded(programs)
    dry.run()
    total = len(dry_order)
    stop_after = data.draw(st.integers(0, total + 1), label="stop_after")
    budget = data.draw(st.integers(0, total + 1), label="budget")

    by_until, until_order = _loaded(programs)
    by_step, step_order = _loaded(programs)
    answer = by_until.run_until(lambda: len(until_order) >= stop_after, max_events=budget)
    expected = _step_until(by_step, lambda: len(step_order) >= stop_after, budget)
    assert answer == expected == (stop_after <= min(budget, total))
    assert _state(by_until, until_order) == _state(by_step, step_order)
    assert len(until_order) == min(stop_after, budget, total)

    # run(max_events=...) spends the same budget on the same events ...
    by_run, run_order = _loaded(programs)
    by_run.run(max_events=min(stop_after, budget))
    assert _state(by_run, run_order) == _state(by_step, step_order)
    # ... and all three carry on to the same end.
    by_until.run()
    by_run.run_until(lambda: False)
    while by_step.step():
        pass
    assert _state(by_until, until_order) == _state(by_step, step_order)
    assert _state(by_run, run_order) == _state(by_step, step_order)
    assert until_order == dry_order


def test_the_predicate_is_asked_between_events_that_ran_only():
    """Once at entry and once after each event that fired: a cancelled
    entry is skipped without a question, as ``step()`` skips it."""
    sim = Simulator(seed=0)
    fired, asked = [], []
    sim.schedule(0.0, lambda: fired.append("dead-fast")).cancel()
    sim.call_soon(lambda: fired.append("a"))
    sim.schedule(1.0, lambda: fired.append("dead-heap")).cancel()
    sim.post(1.0, lambda: fired.append("b"))
    sim.post(2.0, lambda: fired.append("c"))

    def predicate():
        asked.append((sim.now, tuple(fired)))
        return fired == ["a", "b"]

    assert sim.run_until(predicate) is True
    assert asked == [(0.0, ()), (0.0, ("a",)), (1.0, ("a", "b"))]
    assert sim.events_processed == 2 and sim.pending_events == 1
    assert sim.cancelled_pending == 0


def test_a_failing_event_still_counts_and_leaves_the_loop_usable():
    sim = Simulator(seed=0)
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.call_soon(lambda: fired.append(1))
    sim.call_soon(boom)
    sim.call_soon(lambda: fired.append(2))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until(lambda: False)
    assert sim.events_processed == 2 and fired == [1]
    assert sim.run_until(lambda: fired == [1, 2]) is True
    assert sim.events_processed == 3
