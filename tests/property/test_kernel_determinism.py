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
