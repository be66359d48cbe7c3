"""Integration: larger deployments and heavier contention.

The paper's scenarios use 3-4 servers; these tests push the group and
client counts up to confirm nothing in the implementation is secretly
O(small-n) or single-client-shaped.
"""

import pytest

from repro.faults import FaultSchedule
from repro.harness import ScenarioConfig, run_scenario

pytestmark = pytest.mark.integration



class TestLargeGroups:
    def test_nine_replicas_failure_free(self):
        run = run_scenario(
            ScenarioConfig(
                n_servers=9,
                n_clients=3,
                requests_per_client=8,
                seed=1,
            )
        )
        assert run.all_done()
        run.check_all()
        assert all(len(s.current_order) == 24 for s in run.servers)

    def test_nine_replicas_with_three_crashes(self):
        schedule = (
            FaultSchedule()
            .crash(8.0, "p1")
            .crash(20.0, "p5")
            .crash(32.0, "p9")
        )
        run = run_scenario(
            ScenarioConfig(
                n_servers=9,
                n_clients=2,
                requests_per_client=8,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=schedule,
                grace=300.0,
                seed=2,
            )
        )
        assert run.all_done()
        run.check_all(strict=False)
        assert len(run.correct_servers()) == 6

    def test_majority_weight_scales(self):
        # n=9: majority weight is 5; a single opt reply (weight 2) can
        # never be adopted -- adoption needs four distinct endorsers
        # beyond the sequencer.
        run = run_scenario(
            ScenarioConfig(n_servers=9, requests_per_client=5, seed=3)
        )
        for adoption in run.trace.events(kind="adopt"):
            assert len(adoption["weight"]) >= 2  # adopted reply's own W
        assert run.clients[0].majority_weight == 5


class TestContention:
    def test_ten_clients_interleaved(self):
        run = run_scenario(
            ScenarioConfig(
                n_servers=3,
                n_clients=10,
                requests_per_client=5,
                machine="counter",
                seed=4,
            )
        )
        assert run.all_done()
        run.check_all()
        values = sorted(a.value.value for a in run.adopted().values())
        assert values == list(range(1, 51))

    def test_contention_with_crash(self):
        run = run_scenario(
            ScenarioConfig(
                n_servers=5,
                n_clients=6,
                requests_per_client=5,
                fd_interval=2.0,
                fd_timeout=6.0,
                fault_schedule=FaultSchedule().crash(10.0, "p1"),
                grace=300.0,
                seed=5,
            )
        )
        assert run.all_done()
        run.check_all(strict=False)
        assert len(run.adopted()) == 30

    def test_open_loop_burst(self):
        run = run_scenario(
            ScenarioConfig(
                n_servers=3,
                n_clients=5,
                requests_per_client=10,
                driver="open",
                open_rate=4.0,
                grace=150.0,
                seed=6,
            )
        )
        assert run.all_done()
        run.check_all()
        assert len(run.adopted()) == 50
