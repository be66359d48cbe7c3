"""Properties of the conflict-aware parallel execution engine.

Hypothesis drives randomized runs with a positive ``exec_cost`` and
multiple ``exec_lanes`` and asserts the engine's two core contracts:

* **Serial equivalence** -- scheduling only moves *when* state mutates,
  never *what* it becomes: a costed multi-lane run lands every replica in
  exactly the state (and hands every client exactly the adopted values)
  of the free-execution run of the same scenario, across seeds,
  machines, lane counts and costs.  The full checker bundle (total
  order, external consistency, convergence, read consistency) passes.

* **Lane fencing under undo/redo** -- a conservative adoption that
  Opt-undelivers an optimistic suffix while conflicting operations are
  still queued in (or occupying) lanes never desyncs the undo log from
  ``O_delivered``: ``paranoid=True`` asserts ``undo_log.tags ==
  O_delivered`` after *every* message at every server, and phase 2s are
  forced at a high rate (tiny ``gc_after_requests``) so undo constantly
  races in-flight execution.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness.scenario import ScenarioConfig, run_scenario

pytestmark = pytest.mark.property


def _run(machine, seed, exec_cost, exec_lanes, gc_after=None, crash_at=None,
         read_mode="sequencer"):
    config = ScenarioConfig(
        machine=machine,
        n_servers=3,
        n_clients=2,
        requests_per_client=15,
        read_ratio=0.3 if (machine == "kv" and read_mode != "sequencer") else None,
        n_keys=8,
        zipf_s=0.8,
        driver="open",
        open_rate=2.0,
        read_mode=read_mode,
        oar=OARConfig(
            exec_cost=exec_cost,
            exec_lanes=exec_lanes,
            gc_after_requests=gc_after,
            paranoid=True,
        ),
        fd_interval=1.0,
        fd_timeout=8.0,
        retry_interval=30.0 if crash_at is not None else None,
        fault_schedule=(
            FaultSchedule().crash(crash_at, "p1") if crash_at is not None else None
        ),
        grace=300.0,
        horizon=100_000.0,
        seed=seed,
    )
    run = run_scenario(config)
    assert run.all_done(), "run did not reach quiescence"
    return run


@given(
    seed=st.integers(min_value=0, max_value=40),
    machine=st.sampled_from(["kv", "bank", "counter"]),
    exec_lanes=st.sampled_from([2, 3, 4]),
    exec_cost=st.sampled_from([0.3, 0.7, 1.5]),
)
@settings(max_examples=12, deadline=None)
def test_parallel_and_serial_execution_agree(seed, machine, exec_lanes, exec_cost):
    costed = _run(machine, seed, exec_cost, exec_lanes)
    free = _run(machine, seed, 0.0, 1)
    costed.check_all()
    free.check_all()
    # Same replica states...
    assert [s.machine.fingerprint() for s in costed.servers] == [
        s.machine.fingerprint() for s in free.servers
    ]
    # ...and same adopted results at the clients (positions and values).
    def adopted_view(run):
        return {
            rid: (adopted.value, adopted.position)
            for rid, adopted in run.adopted().items()
        }

    assert adopted_view(costed) == adopted_view(free)


@given(
    seed=st.integers(min_value=0, max_value=40),
    exec_lanes=st.sampled_from([2, 4]),
    exec_cost=st.sampled_from([0.5, 1.0]),
    gc_after=st.sampled_from([3, 5]),
)
@settings(max_examples=10, deadline=None)
def test_undo_fences_lanes_under_forced_phase2(seed, exec_lanes, exec_cost, gc_after):
    # Frequent GC phase 2s undo/settle optimistic suffixes while the
    # lanes are saturated; paranoid mode asserts undo-log/O_delivered
    # alignment after every message, so a single fencing bug fails here.
    run = _run("kv", seed, exec_cost, exec_lanes, gc_after=gc_after)
    run.check_all()
    for server in run.servers:
        assert tuple(server.undo_log.tags) == server.o_delivered.items
        assert server.engine.idle


@given(
    seed=st.integers(min_value=0, max_value=40),
    exec_lanes=st.sampled_from([2, 4]),
    crash_at=st.floats(min_value=4.0, max_value=20.0),
)
@settings(max_examples=8, deadline=None)
def test_crash_driven_undo_with_busy_lanes(seed, exec_lanes, crash_at):
    # A sequencer crash forces the real suspicion->PhaseII->Cnsv-order
    # path (with genuine Bad suffixes) while execution lanes are busy.
    run = _run("bank", seed, 0.6, exec_lanes, crash_at=crash_at)
    run.check_all(strict=False)
    for server in run.servers:
        if not server.crashed:
            assert tuple(server.undo_log.tags) == server.o_delivered.items
            assert server.engine.idle


@pytest.mark.parametrize(
    "exec_cost, expect_cancelled",
    [
        # Decision lands after both doomed ops executed: the undo runs
        # their resolved inverses.
        (10.0, 0),
        # Decision lands while both are still in (or queued for) a lane:
        # the engine cancels them -- nothing executed, nothing to revert.
        (20.0, 2),
    ],
)
def test_figure4_undo_fences_lanes(exec_cost, expect_cancelled):
    # The paper's worst case (Figure 4: p2 Opt-delivered a doomed suffix
    # that consensus excludes) replayed under the execution service
    # model: the Bad suffix is undone in reverse delivery order whether
    # it already executed, is mid-lane, or is still dependency-chained.
    from repro.analysis import checkers
    from repro.harness.figures import run_figure_4

    run = run_figure_4(config=OARConfig(exec_cost=exec_cost, exec_lanes=2))
    p2 = run.server("p2")
    assert run.opt_undelivered("p2") == ("c2-1", "c1-1")  # reverse order
    assert p2.engine.cancelled_in_flight == expect_cancelled
    for server in run.correct_servers():
        assert tuple(server.settled_order.items)[:4] == (
            "c1-0", "c2-0", "c2-1", "c1-1",
        )
        assert tuple(server.undo_log.tags) == server.o_delivered.items
        assert server.engine.idle
    checkers.check_external_consistency(run.trace)
    checkers.check_cnsv_order_properties(run.trace, 4)
    checkers.check_replica_convergence(run.correct_servers())


@given(
    seed=st.integers(min_value=0, max_value=40),
    read_mode=st.sampled_from(["optimistic", "conservative"]),
    exec_lanes=st.sampled_from([2, 4]),
)
@settings(max_examples=8, deadline=None)
def test_reads_fenced_by_inflight_writes_stay_consistent(seed, read_mode, exec_lanes):
    # Replica-local reads wait for conflicting in-flight writes; the
    # read-consistency checker (inside check_all) asserts every adopted
    # conservative read is anchored in a prefix of the adopted order.
    run = _run("kv", seed, 0.5, exec_lanes, read_mode=read_mode)
    run.check_all()
    reads = sum(client.reads_adopted for client in run.clients)
    assert reads > 0
    for client in run.clients:
        assert client.outstanding == 0
