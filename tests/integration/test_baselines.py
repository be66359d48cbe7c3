"""Integration: the baseline protocols (sequencer ABcast, CT ABcast, passive)."""

import pytest

from repro.analysis import checkers
from repro.broadcast.sequencer import OrderMsg
from repro.faults import CrashDuringMulticast, FaultSchedule
from repro.harness import ScenarioConfig, run_scenario

pytestmark = pytest.mark.integration



def make_anomaly_config(seed: int, lost_order_index: int = 4) -> ScenarioConfig:
    """A sequencer-baseline config armed to hit the Figure 1(b) window.

    The sequencer crashes while multicasting its ``lost_order_index``-th
    ordering message (nobody receives it, but the sequencer has already
    delivered and replied), and network jitter makes the new sequencer
    see pending requests in its own order.
    """
    from repro.sim.latency import UniformLatency

    def arm(run) -> None:
        counter = {"n": 0}

        def match(payload) -> bool:
            if not isinstance(payload, OrderMsg):
                return False
            counter["n"] += 1
            return counter["n"] > (lost_order_index - 1) * (
                run.config.n_servers - 1
            )

        CrashDuringMulticast(run.network, "p1", match, deliver_to=set())

    return ScenarioConfig(
        protocol="sequencer",
        n_clients=3,
        requests_per_client=6,
        latency=UniformLatency(0.5, 1.5),
        fd_interval=1.0,
        fd_timeout=4.0,
        arm=arm,
        grace=150.0,
        seed=seed,
    )


class TestSequencerBaselineFailureFree:
    def test_total_order_and_convergence(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="sequencer",
                n_clients=3,
                requests_per_client=10,
                seed=1,
            )
        )
        assert run.all_done()
        checkers.check_total_order(run.servers)
        checkers.check_replica_convergence(run.servers)
        assert checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        ) == 0

    def test_two_phase_latency(self):
        # Client -> replicas (1) + sequencer order (1) + reply (1) = 3
        # for followers, but the *sequencer's* reply arrives after 2
        # phases, and first-reply adoption takes it: latency 2.
        run = run_scenario(
            ScenarioConfig(
                protocol="sequencer", requests_per_client=10, seed=2
            )
        )
        latencies = run.latencies()
        assert all(abs(latency - 2.0) < 1e-9 for latency in latencies)


class TestSequencerBaselineCrash:
    def test_failover_continues_service(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="sequencer",
                n_clients=2,
                requests_per_client=10,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=FaultSchedule().crash(10.0, "p1"),
                grace=150.0,
                seed=3,
            )
        )
        assert run.all_done()
        # Survivors still agree among themselves...
        checkers.check_total_order(run.correct_servers())
        checkers.check_replica_convergence(run.correct_servers())

    def test_anomaly_is_possible_under_crashes(self):
        # Across seeds, sequencer-crash runs must produce client-visible
        # inconsistencies -- the Figure 1(b) risk the baseline carries by
        # design.  The anomaly needs the crash to swallow an ordering
        # message *after* the sequencer replied (crash mid-multicast) and
        # the new sequencer to see requests in a different order (network
        # jitter) -- exactly the combination the paper describes in
        # Section 2.4.  The scenario-exact version is in test_figures.py.
        total = 0
        for seed in range(8):
            run = run_scenario(
                make_anomaly_config(seed)
            )
            total += checkers.count_baseline_inconsistencies(
                run.trace, run.correct_servers()
            )
        assert total >= 1


class TestCTAtomicBroadcast:
    def test_failure_free_consistency(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="ct", n_clients=2, requests_per_client=10, seed=4
            )
        )
        assert run.all_done()
        checkers.check_total_order(run.servers)
        checkers.check_replica_convergence(run.servers)

    def test_latency_exceeds_optimistic_protocols(self):
        run = run_scenario(
            ScenarioConfig(protocol="ct", requests_per_client=10, seed=5)
        )
        latencies = run.latencies()
        # Reduction to consensus costs at least request + estimate +
        # proposal + reply = 4 phases end to end.
        assert min(latencies) >= 4.0

    def test_crash_of_coordinator_tolerated(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="ct",
                n_clients=2,
                requests_per_client=8,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=FaultSchedule().crash(8.0, "p1"),
                grace=300.0,
                seed=6,
            )
        )
        assert run.all_done()
        checkers.check_total_order(run.correct_servers())
        checkers.check_replica_convergence(run.correct_servers())

    def test_never_inconsistent_even_under_crash(self):
        for seed in range(4):
            run = run_scenario(
                ScenarioConfig(
                    protocol="ct",
                    n_clients=2,
                    requests_per_client=6,
                    fd_interval=2.0,
                    fd_timeout=6.0,
                    fault_schedule=FaultSchedule().crash(6.0, "p1"),
                    grace=300.0,
                    seed=seed,
                )
            )
            assert run.all_done()
            assert checkers.count_baseline_inconsistencies(
                run.trace, run.correct_servers()
            ) == 0


class TestPassiveReplication:
    def test_failure_free_consistency(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="passive", n_clients=2, requests_per_client=10, seed=7
            )
        )
        assert run.all_done()
        checkers.check_total_order(run.servers)
        checkers.check_replica_convergence(run.servers)

    def test_four_phase_latency(self):
        # request (1) + update (1) + ack (1) + reply (1).
        run = run_scenario(
            ScenarioConfig(protocol="passive", requests_per_client=10, seed=8)
        )
        latencies = run.latencies()
        assert all(abs(latency - 4.0) < 1e-9 for latency in latencies)

    def test_primary_failover(self):
        run = run_scenario(
            ScenarioConfig(
                protocol="passive",
                n_clients=2,
                requests_per_client=10,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=FaultSchedule().crash(10.0, "p1"),
                grace=200.0,
                seed=9,
            )
        )
        assert run.all_done()
        checkers.check_replica_convergence(run.correct_servers())
