"""Integration: the paper's figures, asserted event by event.

These are the tightest reproduction artifacts: each test pins the exact
delivery orders, undo sets and client adoptions of the corresponding
figure.  The benchmark suite re-runs them as timed scenarios; here we
assert their semantics.
"""

from repro.analysis import checkers
from repro.broadcast.reliable import RMsg
from repro.harness.figures import (
    run_figure_1a,
    run_figure_1b,
    run_figure_1b_with_oar,
    run_figure_2,
    run_figure_3,
    run_figure_4,
)

import pytest

pytestmark = pytest.mark.integration


M1, M2, M3, M4 = "c1-0", "c1-1", "c1-2", "c1-3"  # figure 2/3 request ids


class TestFigure2:
    """OAR with no failure nor suspicion."""

    def test_all_servers_opt_deliver_all_five_in_order(self):
        run = run_figure_2()
        expected = ("c1-0", "c1-1", "c1-2", "c1-3", "c1-4")
        for pid in ("p1", "p2", "p3"):
            assert run.opt_delivered(pid) == expected

    def test_two_sequencer_batches(self):
        run = run_figure_2()
        batches = [e["rids"] for e in run.trace.events(kind="seq_order")]
        assert batches == [
            ("c1-0", "c1-1"),
            ("c1-2", "c1-3", "c1-4"),
        ]

    def test_phase_two_never_runs(self):
        run = run_figure_2()
        assert run.trace.events(kind="phase2_start") == []
        assert run.trace.events(kind="a_deliver") == []
        assert run.trace.events(kind="opt_undeliver") == []

    def test_client_adopts_all_optimistically(self):
        run = run_figure_2()
        adopted = run.adopted()
        assert len(adopted) == 5
        assert all(not a.conservative for a in adopted.values())
        assert sorted(a.position for a in adopted.values()) == [1, 2, 3, 4, 5]

    def test_full_checker_suite(self):
        run = run_figure_2()
        run_checks(run, group_size=3)

    def test_check_all_sees_the_scripted_requests(self):
        """The figure submits through ``client.submit``, not a driver;
        at-least-once must range over those five requests all the same,
        and fail for a sixth that p3 never receives (the client adopts
        it from the majority {p1, p2}, so the run is quiescent)."""
        run = run_figure_2()
        assert run.routed_to(0) == ["c1-0", "c1-1", "c1-2", "c1-3", "c1-4"]
        run.check_all()
        run.network.ensure_fault_plane().add_drop_rule(
            lambda src, dst, payload: (
                dst == "p3" and isinstance(payload, RMsg) and payload.payload.rid == "c1-5"
            )
        )
        assert run.clients[0].submit(("incr",)) == "c1-5"
        run.sim.run(until=60.0, max_events=100_000)
        assert run.all_done() and "c1-5" in run.adopted()
        with pytest.raises(checkers.CheckFailure, match=r"p3: requests never delivered.*c1-5"):
            run.check_all()


class TestFigure3:
    """Sequencer crash; majority Opt-delivered -> no Opt-undelivery."""

    def test_crash_leaves_only_p2_with_second_batch(self):
        run = run_figure_3()
        assert run.server("p1").crashed
        assert run.opt_delivered("p1") == (M1, M2, M3, M4)
        assert run.opt_delivered("p2") == (M1, M2, M3, M4)
        assert run.opt_delivered("p3") == (M1, M2)

    def test_cnsv_order_outputs_match_figure(self):
        # Bad = ε, New = ε for p2; Bad = ε, New = {m3;m4} for p3.
        run = run_figure_3()
        results = {
            e.pid: (e["bad"], e["new"])
            for e in run.trace.events(kind="cnsv_order")
        }
        assert results["p2"] == ((), ())
        assert results["p3"] == ((), (M3, M4))

    def test_no_opt_undelivery_anywhere(self):
        run = run_figure_3()
        assert run.trace.events(kind="opt_undeliver") == []

    def test_p3_a_delivers_the_missing_suffix(self):
        run = run_figure_3()
        assert run.a_delivered("p3") == (M3, M4)

    def test_survivors_agree_on_final_order(self):
        run = run_figure_3()
        orders = {
            tuple(s.current_order.items) for s in run.correct_servers()
        }
        assert orders == {(M1, M2, M3, M4)}

    def test_full_checker_suite(self):
        run = run_figure_3()
        run_checks(run, group_size=3)


class TestFigure4:
    """Sequencer crash; minority optimism -> Opt-undelivery at p2."""

    M1, M2, M3, M4 = "c1-0", "c2-0", "c1-1", "c2-1"

    def test_delivery_pattern_matches_figure(self):
        run = run_figure_4()
        assert run.opt_delivered("p1") == (self.M1, self.M2, self.M3, self.M4)
        assert run.opt_delivered("p2") == (self.M1, self.M2, self.M3, self.M4)
        assert run.opt_delivered("p3") == (self.M1, self.M2)
        assert run.opt_delivered("p4") == (self.M1, self.M2)

    def test_p2_undelivers_in_reverse_order(self):
        run = run_figure_4()
        assert run.opt_undelivered("p2") == (self.M4, self.M3)

    def test_cnsv_order_outputs_match_figure(self):
        run = run_figure_4()
        epoch0 = {
            e.pid: (e["bad"], e["new"])
            for e in run.trace.events(kind="cnsv_order")
            if e["epoch"] == 0
        }
        assert epoch0["p2"] == ((self.M3, self.M4), (self.M4, self.M3))
        assert epoch0["p3"] == ((), (self.M4, self.M3))
        assert epoch0["p4"] == ((), (self.M4, self.M3))

    def test_decision_excludes_minority_value(self):
        run = run_figure_4()
        event = next(
            e for e in run.trace.events(kind="cnsv_order") if e.pid == "p2"
        )
        decided_pids = {pid for pid, _v in event["decision"]}
        assert decided_pids == {"p3", "p4"}

    def test_agreed_epoch_order_is_m1_m2_m4_m3(self):
        run = run_figure_4()
        expected = (self.M1, self.M2, self.M4, self.M3)
        for server in run.correct_servers():
            assert tuple(server.settled_order.items)[:4] == expected

    def test_clients_adopt_only_consistent_replies(self):
        run = run_figure_4()
        adopted = run.adopted()
        assert adopted[self.M3].position == 4  # m3 settled after m4
        assert adopted[self.M4].position == 3
        assert adopted[self.M3].conservative
        assert adopted[self.M4].conservative

    def test_full_checker_suite(self):
        run = run_figure_4()
        run_checks(run, group_size=4)


class TestFigure1:
    """The sequencer-baseline stack scenario (motivating example)."""

    def test_good_run_consistent(self):
        run = run_figure_1a()
        for server in run.servers:
            assert server.delivered_order == ("c2-0", "c1-0")
            assert server.machine.fingerprint() == ("x",)
        adopted = run.adopted()
        assert adopted["c2-0"].value.value == "y"
        assert checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        ) == 0
        run.check_all()

    def test_bad_run_exhibits_external_inconsistency(self):
        run = run_figure_1b()
        adopted = run.adopted()
        # The client adopted pop -> y from the doomed sequencer...
        assert adopted["c2-0"].value.value == "y"
        # ...but the surviving replicas delivered (push; pop): pop -> x.
        for server in run.correct_servers():
            assert server.delivered_order == ("c1-0", "c2-0")
            assert server.machine.fingerprint() == ("y",)
        assert checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        ) == 1
        # The anomaly is external: the survivors themselves converge.
        run.check_all()

    def test_oar_on_same_scenario_stays_consistent(self):
        run = run_figure_1b_with_oar()
        adopted = run.adopted()
        # OAR's client adopts pop -> x, matching the survivors.
        assert adopted["c2-0"].value.value == "x"
        assert adopted["c2-0"].conservative
        checkers.check_external_consistency(run.trace)
        assert checkers.count_baseline_inconsistencies(
            run.trace, run.correct_servers()
        ) == 0
        run.check_all()


def run_checks(run, group_size):
    checkers.check_cnsv_order_properties(run.trace, group_size)
    checkers.check_majority_guarantee(run.trace, group_size)
    checkers.check_at_most_once(run.trace, run.servers)
    checkers.check_total_order(run.correct_servers())
    checkers.check_replica_convergence(run.correct_servers())
    checkers.check_external_consistency(run.trace)
    run.check_all()
