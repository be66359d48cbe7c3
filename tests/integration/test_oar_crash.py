"""Integration: OAR under crash faults (sequencer and others)."""

import pytest

from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, run_scenario

pytestmark = pytest.mark.integration



def crash_config(n_servers, victim, when, seed, **kwargs):
    return ScenarioConfig(
        n_servers=n_servers,
        n_clients=2,
        requests_per_client=kwargs.pop("requests", 12),
        fd_interval=2.0,
        fd_timeout=6.0,
        fault_schedule=FaultSchedule().crash(when, victim),
        grace=150.0,
        seed=seed,
        **kwargs,
    )


class TestSequencerCrash:
    def test_service_survives_and_stays_consistent(self):
        run = run_scenario(crash_config(3, "p1", 10.0, seed=1))
        assert run.all_done()
        run.check_all()
        assert run.trace.events(kind="phase2_start")

    def test_epoch_advances_and_sequencer_rotates(self):
        run = run_scenario(crash_config(3, "p1", 10.0, seed=2))
        survivors = run.correct_servers()
        assert all(server.epoch >= 1 for server in survivors)
        assert all(server.current_sequencer != "p1" for server in survivors)

    @pytest.mark.parametrize("n_servers", [3, 5, 7])
    def test_various_group_sizes(self, n_servers):
        run = run_scenario(crash_config(n_servers, "p1", 12.0, seed=n_servers))
        assert run.all_done()
        run.check_all()

    def test_crash_before_any_request(self):
        run = run_scenario(crash_config(3, "p1", 0.5, seed=4))
        assert run.all_done()
        run.check_all()

    def test_two_crashes_with_majority_left(self):
        schedule = FaultSchedule().crash(10.0, "p1").crash(30.0, "p2")
        run = run_scenario(
            ScenarioConfig(
                n_servers=5,
                n_clients=2,
                requests_per_client=10,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=schedule,
                grace=200.0,
                seed=5,
            )
        )
        assert run.all_done()
        run.check_all()

    def test_conservative_replies_after_crash(self):
        run = run_scenario(crash_config(3, "p1", 5.0, seed=6))
        assert any(
            adoption["conservative"]
            for adoption in run.trace.events(kind="adopt")
        )


class TestNonSequencerCrash:
    def test_follower_crash_does_not_trigger_phase2(self):
        # Only suspicion of the *sequencer* moves the protocol to phase 2
        # (Task 1c); a crashed follower is simply suspected and ignored.
        run = run_scenario(crash_config(3, "p3", 10.0, seed=7))
        assert run.all_done()
        run.check_all()
        assert run.trace.events(kind="phase2_start") == []

    def test_majority_weight_still_reachable(self):
        # n=3 with one follower down: the sequencer + one follower still
        # give weight 2 = majority.
        run = run_scenario(crash_config(3, "p2", 8.0, seed=8))
        assert run.all_done()
        assert all(
            not adoption["conservative"]
            for adoption in run.trace.events(kind="adopt")
        )


class TestFixedSequencerAblation:
    def test_rotation_disabled_still_progresses_after_crash(self):
        # With rotation off and the (crashed) p1 staying sequencer, each
        # epoch immediately re-enters phase 2: requests settle through the
        # conservative path only.  Slow but safe -- the pathology the
        # rotating-coordinator paragraph of Section 5.3 warns about.
        run = run_scenario(
            crash_config(
                3,
                "p1",
                5.0,
                seed=9,
                requests=4,
                oar=OARConfig(rotate_sequencer=False),
                horizon=3_000.0,
            )
        )
        assert run.all_done()
        run.check_all(at_least_once=False)
        survivors = run.correct_servers()
        assert all(server.current_sequencer == "p1" for server in survivors)
        assert all(server.epoch >= 2 for server in survivors)
