"""Integration: Propositions 1-7 over seeded randomized fault schedules.

Each seed produces a different crash/suspicion/partition schedule; every
run must satisfy the full checker bundle (the machine-checkable forms of
the paper's propositions).  This is the workhorse correctness soak; the
hypothesis fuzzer in tests/property goes further.
"""

import random

import pytest

from repro.analysis import checkers
from repro.faults import FaultSchedule, random_fault_schedule
from repro.harness import ScenarioConfig, run_scenario

pytestmark = pytest.mark.integration



def run_with_schedule(seed: int, n_servers: int = 3, **overrides):
    rng = random.Random(seed)
    pids = [f"p{i + 1}" for i in range(n_servers)]
    majority = n_servers // 2 + 1
    schedule = random_fault_schedule(
        rng,
        pids,
        horizon=60.0,
        max_crashes=min(1, n_servers - majority),
        suspicion_rate=0.4,
    )
    config = ScenarioConfig(
        n_servers=n_servers,
        n_clients=2,
        requests_per_client=8,
        fd_interval=2.0,
        fd_timeout=6.0,
        fault_schedule=schedule,
        grace=250.0,
        seed=seed,
        **overrides,
    )
    return run_scenario(config)


class TestRandomizedSchedules:
    @pytest.mark.parametrize("seed", range(12))
    def test_three_servers(self, seed):
        run = run_with_schedule(seed)
        assert run.all_done(), f"run {seed} did not quiesce"
        run.check_all(strict=False)

    @pytest.mark.parametrize("seed", range(12, 18))
    def test_five_servers(self, seed):
        run = run_with_schedule(seed, n_servers=5)
        assert run.all_done(), f"run {seed} did not quiesce"
        run.check_all(strict=False)

    @pytest.mark.parametrize("seed", range(18, 22))
    def test_bank_machine_under_faults(self, seed):
        run = run_with_schedule(seed, machine="bank")
        assert run.all_done()
        run.check_all(strict=False)
        # Bank invariant: transfers conserve the total balance; deposits
        # and withdrawals applied identically everywhere (convergence is
        # checked by check_all; here we pin the invariant run-wide).
        totals = {s.machine.total_balance() for s in run.correct_servers()}
        assert len(totals) == 1


class TestProposition1:
    """Validity of request handling: only client requests are delivered."""

    def test_every_delivery_matches_a_submission(self):
        run = run_with_schedule(seed=101)
        submitted = set(run.submitted_rids())
        for kind in ("opt_deliver", "a_deliver"):
            for event in run.trace.events(kind=kind):
                assert event["rid"] in submitted


class TestProposition2And3:
    """At-most-once request handling."""

    def test_no_duplicate_settlement(self):
        run = run_with_schedule(seed=102)
        checkers.check_at_most_once(run.trace, run.servers)

    def test_message_delivered_in_two_epochs_was_undone_in_first(self):
        # Prop 3: re-delivery in a later epoch requires an undo earlier.
        run = run_with_schedule(seed=103)
        seen = {}
        undone = {
            (e.pid, e["rid"], e["epoch"])
            for e in run.trace.events(kind="opt_undeliver")
        }
        for event in run.trace.events(kind="opt_deliver"):
            key = (event.pid, event["rid"])
            if key in seen:
                assert (event.pid, event["rid"], seen[key]) in undone
            seen[key] = event["epoch"]


class TestProposition4:
    """At-least-once: every submitted request eventually settles."""

    def test_quiescent_run_delivers_everything(self):
        run = run_with_schedule(seed=104)
        assert run.all_done()
        checkers.check_at_least_once(
            run.trace, run.correct_servers(), run.submitted_rids()
        )


class TestProposition5:
    """Total order of replies across servers."""

    def test_positions_agree_for_settled_requests(self):
        run = run_with_schedule(seed=105)
        positions = {}
        crashed = {e.pid for e in run.trace.events(kind="crash")}
        undone = {
            (e.pid, e["rid"], e["epoch"])
            for e in run.trace.events(kind="opt_undeliver")
        }
        for kind in ("opt_deliver", "a_deliver"):
            for event in run.trace.events(kind=kind):
                if event.pid in crashed:
                    continue
                if (event.pid, event["rid"], event["epoch"]) in undone:
                    continue
                positions.setdefault(event["rid"], set()).add(event["position"])
        for rid, position_set in positions.items():
            assert len(position_set) == 1, f"{rid} settled at {position_set}"


class TestProposition7:
    """External consistency of adopted replies."""

    @pytest.mark.parametrize("seed", [106, 107, 108])
    def test_adoptions_consistent(self, seed):
        run = run_with_schedule(seed=seed)
        checkers.check_external_consistency(run.trace, strict=False)
