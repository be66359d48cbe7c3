"""Integration: OARConfig.paranoid runtime invariant checking.

Paranoid mode re-validates the server's structural invariants after
every delivered message; it must be silent on correct runs (including
crash/undo recovery) and loud on corrupted state.
"""

import pytest

from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, run_scenario
from repro.harness.figures import run_figure_4

pytestmark = pytest.mark.integration



class TestParanoidMode:
    def test_silent_on_clean_run(self):
        run = run_scenario(
            ScenarioConfig(
                requests_per_client=10,
                n_clients=2,
                oar=OARConfig(paranoid=True),
                seed=1,
            )
        )
        assert run.all_done()
        run.check_all()

    def test_silent_across_crash_recovery(self):
        run = run_scenario(
            ScenarioConfig(
                n_servers=3,
                n_clients=2,
                requests_per_client=10,
                fd_interval=2.0,
                fd_timeout=6.0,
                oar=OARConfig(paranoid=True),
                fault_schedule=FaultSchedule().crash(10.0, "p1"),
                grace=200.0,
                seed=2,
            )
        )
        assert run.all_done()
        run.check_all()

    def test_explicit_check_on_final_state(self):
        run = run_scenario(
            ScenarioConfig(requests_per_client=5, seed=3)
        )
        for server in run.servers:
            server.check_invariants()

    def test_detects_overlap_corruption(self):
        run = run_scenario(ScenarioConfig(requests_per_client=3, seed=4))
        server = run.servers[0]
        # Corrupt: pretend an optimistic message is also settled.
        assert server.o_delivered  # no phase 2 ran
        server.a_delivered = server.a_delivered.concat(
            server.o_delivered.items[:1]
        )
        with pytest.raises(RuntimeError, match="overlap"):
            server.check_invariants()

    def test_detects_missing_body_corruption(self):
        run = run_scenario(ScenarioConfig(requests_per_client=3, seed=5))
        server = run.servers[0]
        server.o_delivered.append("phantom-1")
        with pytest.raises(RuntimeError, match="without request body"):
            server.check_invariants()

    def test_detects_undo_log_desync(self):
        run = run_scenario(ScenarioConfig(requests_per_client=3, seed=6))
        server = run.servers[0]
        assert server.phase == 1
        server.undo_log.push("rogue", lambda: None)
        with pytest.raises(RuntimeError, match="undo log"):
            server.check_invariants()

    def test_silent_through_figure4_undo(self):
        # The heaviest recovery path (partition + undo + re-delivery)
        # with paranoia enabled end to end.
        from repro.core.server import OARServer

        run = run_figure_4()
        # run_figure_4 builds its own servers; re-check their final state
        # explicitly (they were built without paranoid mode).
        for server in run.correct_servers():
            assert isinstance(server, OARServer)
            server.check_invariants()
