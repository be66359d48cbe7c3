"""Experiment B7: ablations of the paper's two engineering remarks.

1. **Periodic PhaseII garbage collection** (Remark, Section 5.3): without
   it, ``O_delivered`` grows with the entire failure-free history, so the
   eventual phase-2 consensus carries a proposal proportional to the whole
   run; with GC every N requests the proposal stays O(N).

2. **Rotating sequencer** (Section 5.3): with a fixed sequencer, a
   crashed sequencer forces *every* subsequent epoch through the
   conservative path; rotation restores the optimistic fast path after a
   single recovery epoch.
"""

import pytest

from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, Table, run_scenario, write_result

pytestmark = pytest.mark.bench


REQUESTS = 40


def run_gc(gc_after, seed: int = 0):
    # A suspicion late in the run forces one "real" phase 2 so we can
    # measure the proposal size with and without GC having trimmed it.
    schedule = FaultSchedule().suspect(90.0, "p1").unsuspect(120.0, "p1")
    return run_scenario(
        ScenarioConfig(
            n_servers=3,
            n_clients=2,
            requests_per_client=REQUESTS // 2,
            think_time=1.0,
            fd_kind="scripted",
            oar=OARConfig(gc_after_requests=gc_after),
            fault_schedule=schedule,
            grace=200.0,
            horizon=5_000.0,
            seed=seed,
        )
    )


def max_proposal(run) -> int:
    proposals = run.trace.events(kind="cnsv_propose")
    if not proposals:
        return 0
    return max(
        len(p["o_delivered"]) + len(p["o_notdelivered"]) for p in proposals
    )


def run_rotation(rotate: bool, seed: int = 0):
    return run_scenario(
        ScenarioConfig(
            n_servers=3,
            n_clients=2,
            requests_per_client=8,
            fd_interval=1.5,
            fd_timeout=5.0,
            oar=OARConfig(rotate_sequencer=rotate),
            fault_schedule=FaultSchedule().crash(8.0, "p1"),
            grace=400.0,
            horizon=5_000.0,
            seed=seed,
        )
    )


def test_gc_bounds_proposals(benchmark):
    run = benchmark.pedantic(run_gc, args=(5,), rounds=2, iterations=1)
    assert run.all_done()
    run.check_all()
    assert max_proposal(run) <= 12


def test_no_gc_grows_proposals(benchmark):
    run = benchmark.pedantic(run_gc, args=(None,), rounds=2, iterations=1)
    assert run.all_done()
    # Everything Opt-delivered before the suspicion sits in one proposal.
    assert max_proposal(run) >= REQUESTS * 0.75


def test_rotation_restores_fast_path(benchmark):
    run = benchmark.pedantic(
        run_rotation, args=(True,), rounds=2, iterations=1
    )
    assert run.all_done()
    # After the single recovery epoch, adoption goes optimistic again.
    post_crash = [
        e for e in run.trace.events(kind="adopt") if e.time > 20.0
    ]
    assert post_crash
    assert any(not e["conservative"] for e in post_crash)


def test_b7_report(benchmark):
    gc_run = run_gc(5)
    nogc_run = run_gc(None)
    rot_run = run_rotation(True)
    fixed_run = benchmark.pedantic(
        run_rotation, args=(False,), rounds=1, iterations=1
    )

    def conservative_fraction(run):
        adoptions = run.trace.events(kind="adopt")
        if not adoptions:
            return 0.0
        conservative = sum(1 for a in adoptions if a["conservative"])
        return conservative / len(adoptions)

    gc_table = Table(
        "B7a -- PhaseII garbage collection (Remark, Section 5.3)",
        ["config", "max consensus proposal size", "phase-2 executions"],
    )
    gc_table.add_row(
        "no GC", max_proposal(nogc_run),
        len({e["epoch"] for e in nogc_run.trace.events(kind="phase2_start")}),
    )
    gc_table.add_row(
        "GC every 5 requests", max_proposal(gc_run),
        len({e["epoch"] for e in gc_run.trace.events(kind="phase2_start")}),
    )

    rot_table = Table(
        "B7b -- Rotating vs fixed sequencer after a sequencer crash",
        ["config", "final epoch", "conservative adoption fraction"],
    )
    rot_table.add_row(
        "rotating (paper)", rot_run.correct_servers()[0].epoch,
        conservative_fraction(rot_run),
    )
    rot_table.add_row(
        "fixed sequencer", fixed_run.correct_servers()[0].epoch,
        conservative_fraction(fixed_run),
    )

    lines = [
        gc_table.render(),
        "",
        rot_table.render(),
        "",
        "shape: GC keeps the eventual consensus input O(gc window) instead",
        "of O(history); rotation returns to the optimistic path after one",
        "recovery epoch while the fixed-sequencer variant burns one",
        "conservative phase per epoch forever (its epoch counter races).",
    ]
    write_result("B7_ablations", "\n".join(lines))

    assert max_proposal(gc_run) < max_proposal(nogc_run)
    assert conservative_fraction(rot_run) < 1.0
    assert fixed_run.correct_servers()[0].epoch >= rot_run.correct_servers()[0].epoch
