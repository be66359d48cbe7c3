"""Experiment B3: how rare is Opt-undeliver?

Section 6 argues an Opt-undelivery needs a *triple* coincidence: (1) the
sequencer fails so that only a minority received its ordering, (2) no
member of that minority has its initial value in the consensus decision
(all of them suspected, footnote 5), and (3) the conservative order
actually differs.

The sweep escalates the adversary and counts, per condition, how many
runs execute phase 2 at all versus how many actually undo:

* ``crash``            -- sequencer crashes cleanly (ordering delivered).
* ``partial``          -- crash mid-multicast, minority got the ordering.
* ``partial+isolated`` -- additionally the minority is partitioned and
  suspected (the full Figure 4 conditions, "unsuspected" consensus).
"""

import pytest

from repro.core.messages import SeqOrder
from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, Table, run_scenario, write_result
from repro.sim.latency import UniformLatency

pytestmark = pytest.mark.bench


SEEDS = range(8)


def make_config(condition: str, seed: int) -> ScenarioConfig:
    collect = "unsuspected" if condition == "partial+isolated" else "majority"
    schedule = FaultSchedule()

    if condition == "crash":
        schedule.crash(8.0, "p1")
    else:
        counter = {"n": 0}

        def match(payload) -> bool:
            if not isinstance(payload, SeqOrder):
                return False
            counter["n"] += 1
            return counter["n"] > 2 * 3  # lose the 3rd ordering multicast

        schedule.crash_during_multicast("p1", match, deliver_to={"p2"})

    if condition == "partial+isolated":
        # The isolation starts well after the partial multicast (~t=9)
        # so the minority member has actually Opt-delivered the doomed
        # batch before the conservative phase begins.
        schedule.partition(13.0, [["p1", "p2"], ["p3", "p4", "c1", "c2"]])
        schedule.suspect(13.5, "p1")
        schedule.suspect(13.5, "p2")
        schedule.heal(45.0)
        schedule.unsuspect(50.0, "p2")
        fd_kind = "scripted"
    else:
        fd_kind = "heartbeat"

    return ScenarioConfig(
        protocol="oar",
        n_servers=4,
        n_clients=2,
        requests_per_client=6,
        # Jitter makes the replicas receive concurrent requests in
        # different orders -- without it, the conservative order always
        # coincides with the undone optimistic order and the thriftiness
        # rule (Fig. 7, lines 15-19) cancels every undo.
        latency=UniformLatency(0.5, 1.5),
        oar=OARConfig(batch_interval=1.5, consensus_collect=collect),
        fd_kind=fd_kind,
        fd_interval=1.5,
        fd_timeout=5.0,
        fault_schedule=schedule,
        grace=300.0,
        horizon=3_000.0,
        seed=seed,
    )


def sweep(condition: str):
    phase2_runs = 0
    undo_runs = 0
    undone_messages = 0
    for seed in SEEDS:
        run = run_scenario(make_config(condition, seed))
        run.check_all(strict=False, at_least_once=False)
        if run.trace.events(kind="phase2_start"):
            phase2_runs += 1
        undos = run.trace.events(kind="opt_undeliver")
        if undos:
            undo_runs += 1
        undone_messages += len(undos)
    return phase2_runs, undo_runs, undone_messages


def test_clean_crash_never_undoes(benchmark):
    phase2, undo_runs, _messages = benchmark.pedantic(
        sweep, args=("crash",), rounds=1, iterations=1
    )
    assert phase2 == len(list(SEEDS))  # recovery always runs...
    assert undo_runs == 0  # ...but never needs to undo


def test_partial_multicast_alone_rarely_undoes(benchmark):
    # Minority optimism exists, but with majority estimate collection the
    # minority's value is always in the decision: no undo.
    _phase2, undo_runs, _messages = benchmark.pedantic(
        sweep, args=("partial",), rounds=1, iterations=1
    )
    assert undo_runs == 0


def test_full_triple_event_undoes(benchmark):
    phase2, undo_runs, messages = benchmark.pedantic(
        sweep, args=("partial+isolated",), rounds=1, iterations=1
    )
    assert phase2 == len(list(SEEDS))
    # Even with all three conditions forced, the thriftiness rule still
    # cancels undos whose re-delivery order happens to coincide -- so we
    # require undo in *some* but not necessarily all runs.
    assert 1 <= undo_runs <= len(list(SEEDS))
    assert messages >= undo_runs


def test_b3_report(benchmark):
    rows = {}
    for condition in ("crash", "partial", "partial+isolated"):
        rows[condition] = sweep(condition)
    benchmark.pedantic(
        sweep, args=("crash",), rounds=1, iterations=1
    )
    table = Table(
        "B3 -- Opt-undeliver requires the paper's triple event (8 runs each)",
        ["condition", "runs w/ phase 2", "runs w/ undo", "messages undone"],
    )
    labels = {
        "crash": "sequencer crash (ordering delivered)",
        "partial": "crash mid-multicast (minority ordered)",
        "partial+isolated": "+ minority partitioned & suspected",
    }
    for condition, (phase2, undo_runs, messages) in rows.items():
        table.add_row(labels[condition], phase2, undo_runs, messages)
    lines = [
        table.render(),
        "",
        "shape: phase 2 is routine after any suspicion, but Opt-undeliver",
        "appears only when all three of the paper's conditions coincide",
        "(Section 6) -- matching the claim that undo probability is very low.",
    ]
    write_result("B3_undo_probability", "\n".join(lines))
