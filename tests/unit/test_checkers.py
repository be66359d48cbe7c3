"""Unit tests for the correctness checkers: they must catch violations."""

import pytest

from repro.analysis.checkers import (
    CheckFailure,
    check_at_least_once,
    check_at_most_once,
    check_cnsv_order_properties,
    check_external_consistency,
    check_majority_guarantee,
    check_replica_convergence,
    check_total_order,
    count_baseline_inconsistencies,
    reconstruct_delivered,
    settled_epochs,
)
from repro.sim.trace import TraceLog
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.unit



class FakeServer:
    """Minimal stand-in exposing what the checkers consume."""

    def __init__(self, pid, order, crashed=False, counter=None):
        self.pid = pid
        self.delivered_order = tuple(order)
        self.crashed = crashed
        self.machine = CounterMachine(initial=counter if counter is not None else len(order))


class TestReconstruction:
    def test_replay_with_undo(self):
        log = TraceLog()
        log.record(1.0, "p1", "opt_deliver", rid="a", epoch=0, position=1, value=1)
        log.record(2.0, "p1", "opt_deliver", rid="b", epoch=0, position=2, value=2)
        log.record(3.0, "p1", "opt_undeliver", rid="b", epoch=0)
        log.record(4.0, "p1", "a_deliver", rid="c", epoch=0, position=2, value=2)
        assert reconstruct_delivered(log, "p1") == ["a", "c"]

    def test_out_of_order_undo_detected(self):
        log = TraceLog()
        log.record(1.0, "p1", "opt_deliver", rid="a", epoch=0, position=1, value=1)
        log.record(2.0, "p1", "opt_deliver", rid="b", epoch=0, position=2, value=2)
        log.record(3.0, "p1", "opt_undeliver", rid="a", epoch=0)
        with pytest.raises(CheckFailure, match="does not undo the last"):
            reconstruct_delivered(log, "p1")

    def test_settled_epochs(self):
        log = TraceLog()
        log.record(0.0, "p1", "epoch_start", epoch=0, sequencer="p1")
        log.record(9.0, "p1", "epoch_start", epoch=1, sequencer="p2")
        assert settled_epochs(log, "p1") == {0}


class TestTotalOrderChecker:
    def test_accepts_prefix_related(self):
        servers = [FakeServer("p1", ["a", "b"]), FakeServer("p2", ["a", "b", "c"])]
        check_total_order(servers)

    def test_rejects_divergence(self):
        servers = [FakeServer("p1", ["a", "b"]), FakeServer("p2", ["b", "a"])]
        with pytest.raises(CheckFailure, match="total order"):
            check_total_order(servers)

    def test_ignores_crashed(self):
        servers = [
            FakeServer("p1", ["b", "a"], crashed=True),
            FakeServer("p2", ["a", "b"]),
        ]
        check_total_order(servers)


class TestConvergenceChecker:
    def test_rejects_state_divergence_with_same_order(self):
        servers = [
            FakeServer("p1", ["a"], counter=1),
            FakeServer("p2", ["a"], counter=99),
        ]
        with pytest.raises(CheckFailure, match="diverge"):
            check_replica_convergence(servers)

    def test_accepts_matching_states(self):
        servers = [FakeServer("p1", ["a"]), FakeServer("p2", ["a"])]
        check_replica_convergence(servers)


class TestAtMostOnce:
    def test_detects_duplicate_delivery(self):
        log = TraceLog()
        log.record(1.0, "p1", "opt_deliver", rid="a", epoch=0, position=1, value=1)
        log.record(2.0, "p1", "a_deliver", rid="a", epoch=0, position=2, value=2)
        server = FakeServer("p1", ["a", "a"])
        with pytest.raises(CheckFailure, match="duplicate"):
            check_at_most_once(log, [server])

    def test_detects_trace_state_mismatch(self):
        log = TraceLog()
        log.record(1.0, "p1", "opt_deliver", rid="a", epoch=0, position=1, value=1)
        server = FakeServer("p1", ["b"])
        with pytest.raises(CheckFailure, match="differs from server state"):
            check_at_most_once(log, [server])


class TestAtLeastOnce:
    def test_detects_missing_request(self):
        log = TraceLog()
        log.record(1.0, "p1", "a_deliver", rid="a", epoch=0, position=1, value=1)
        server = FakeServer("p1", ["a"])
        with pytest.raises(CheckFailure, match="never delivered"):
            check_at_least_once(log, [server], ["a", "missing"])

    def test_passes_when_all_delivered(self):
        log = TraceLog()
        log.record(1.0, "p1", "a_deliver", rid="a", epoch=0, position=1, value=1)
        check_at_least_once(log, [FakeServer("p1", ["a"])], ["a"])


class TestMajorityGuaranteeChecker:
    def _opt(self, log, pid, rid, epoch, position):
        log.record(
            float(position), pid, "opt_deliver",
            rid=rid, epoch=epoch, position=position, value=position,
        )

    def _final(self, log, pid, rids):
        for position, rid in enumerate(rids, start=1):
            log.record(
                10.0 + position, pid, "a_deliver",
                rid=rid, epoch=0, position=position, value=position,
            )

    def test_detects_violation(self):
        log = TraceLog()
        # Majority (p1, p2 of 3) opt-deliver a before b...
        for pid in ("p1", "p2"):
            self._opt(log, pid, "a", 0, 1)
            self._opt(log, pid, "b", 0, 2)
        # ...but p3 A-delivers b before a.
        self._final(log, "p3", ["b", "a"])
        with pytest.raises(CheckFailure) as failure:
            check_majority_guarantee(log, 3)
        # The failure carries the offending slice of history, not just
        # the pair: where each holder and the violator put m1 and m2.
        text = str(failure.value)
        assert "majority Opt-delivered a before b in epoch 0" in text
        assert "but p3 delivered b first" in text
        assert "Opt-delivery ranks: p1 a@0 b@1; p2 a@0 b@1" in text
        assert "final positions at p3: b@0 a@1" in text

    def test_detects_violation_against_rid_sort_order(self):
        # The mirror image: the majority's first message sorts *after*
        # its second.  A sweep over sorted rid pairs that only ever
        # counts "smaller rid first" never looks at this direction.
        log = TraceLog()
        for pid in ("p1", "p2"):
            self._opt(log, pid, "b", 0, 1)
            self._opt(log, pid, "a", 0, 2)
        self._final(log, "p3", ["a", "b"])
        with pytest.raises(
            CheckFailure, match="Opt-delivered b before a in epoch 0, but p3"
        ):
            check_majority_guarantee(log, 3)

    def test_detects_inversion_of_non_adjacent_pair(self):
        # x sits between the pair in the Opt order and is absent from
        # p3's final order, so no two *neighbours* are inverted.
        log = TraceLog()
        for pid in ("p1", "p2"):
            for position, rid in enumerate(("a", "x", "b"), start=1):
                self._opt(log, pid, rid, 0, position)
        self._final(log, "p3", ["b", "a"])
        with pytest.raises(CheckFailure, match="p1 a@0 b@2; p2 a@0 b@2"):
            check_majority_guarantee(log, 3)

    def test_majority_counted_per_pair_not_per_replica(self):
        # Two of three orders disagree with the final one, but about
        # different pairs: no single pair has a majority behind it.
        log = TraceLog()
        for position, rid in enumerate(("b", "a", "c", "d"), start=1):
            self._opt(log, "p1", rid, 0, position)
        for position, rid in enumerate(("a", "b", "d", "c"), start=1):
            self._opt(log, "p2", rid, 0, position)
        self._final(log, "p3", ["a", "b", "c", "d"])
        assert check_majority_guarantee(log, 3) == 1

    def test_minority_prefix_allows_reordering(self):
        log = TraceLog()
        self._opt(log, "p1", "a", 0, 1)  # only one of three
        self._opt(log, "p1", "b", 0, 2)
        self._final(log, "p3", ["b", "a"])
        check_majority_guarantee(log, 3)


class TestExternalConsistencyChecker:
    def _adopt(self, log, rid, position, value):
        log.record(
            9.0, "c1", "adopt",
            rid=rid, position=position, value=value, epoch=0,
            weight=("p1", "p2"), conservative=False, latency=1.0,
        )

    def test_detects_conflicting_a_deliver(self):
        log = TraceLog()
        self._adopt(log, "a", 1, "x")
        log.record(5.0, "p2", "a_deliver", rid="a", epoch=0, position=2, value="y")
        with pytest.raises(CheckFailure, match="external consistency"):
            check_external_consistency(log)

    def test_detects_conflicting_kept_opt_deliver(self):
        log = TraceLog()
        self._adopt(log, "a", 1, "x")
        log.record(5.0, "p2", "opt_deliver", rid="a", epoch=0, position=2, value="y")
        with pytest.raises(CheckFailure, match="external consistency"):
            check_external_consistency(log)

    def test_undone_opt_deliver_is_fine(self):
        log = TraceLog()
        self._adopt(log, "a", 1, "x")
        log.record(5.0, "p2", "opt_deliver", rid="a", epoch=0, position=2, value="y")
        log.record(6.0, "p2", "opt_undeliver", rid="a", epoch=0)
        assert check_external_consistency(log) == 1

    def test_crashed_process_deliveries_ignored(self):
        log = TraceLog()
        self._adopt(log, "a", 1, "x")
        log.record(5.0, "p2", "opt_deliver", rid="a", epoch=0, position=2, value="y")
        log.record(6.0, "p2", "crash")
        check_external_consistency(log)

    def test_relaxed_mode_tolerates_unsettled_epochs(self):
        log = TraceLog()
        self._adopt(log, "a", 1, "x")
        log.record(0.0, "p2", "epoch_start", epoch=0, sequencer="p1")
        log.record(5.0, "p2", "opt_deliver", rid="a", epoch=0, position=2, value="y")
        with pytest.raises(CheckFailure):
            check_external_consistency(log, strict=True)
        check_external_consistency(log, strict=False)  # epoch 0 never settled


class TestCnsvOrderChecker:
    def _run_epoch(self, log, results):
        for pid, (o_dlv, o_notdlv) in results["proposals"].items():
            log.record(
                5.0, pid, "cnsv_propose",
                epoch=0, o_delivered=o_dlv, o_notdelivered=o_notdlv,
            )
        for pid, (bad, new) in results["orders"].items():
            o_dlv = results["proposals"][pid][0]
            log.record(
                6.0, pid, "cnsv_order",
                epoch=0, o_delivered=o_dlv, decision=(), bad=bad, new=new,
            )

    def test_accepts_consistent_epoch(self):
        log = TraceLog()
        self._run_epoch(log, {
            "proposals": {
                "p1": (("a", "b"), ()),
                "p2": (("a",), ("b",)),
            },
            "orders": {
                "p1": ((), ()),
                "p2": ((), ("b",)),
            },
        })
        assert check_cnsv_order_properties(log, 3) == 1

    def test_detects_agreement_violation(self):
        log = TraceLog()
        self._run_epoch(log, {
            "proposals": {
                "p1": (("a", "b"), ()),
                "p2": (("a", "b"), ()),
            },
            "orders": {
                "p1": ((), ()),
                "p2": (("b",), ()),  # p2 drops b: finals differ
            },
        })
        with pytest.raises(CheckFailure, match="agreement"):
            check_cnsv_order_properties(log, 3)

    def test_detects_undo_legality_violation(self):
        log = TraceLog()
        self._run_epoch(log, {
            "proposals": {"p1": (("a", "b"), ()), "p2": (("a", "b"), ())},
            "orders": {
                "p1": (("a",), ("a",)),  # Bad={a} is not a suffix of [a,b]
                "p2": (("a",), ("a",)),
            },
        })
        with pytest.raises(CheckFailure, match="undo legality"):
            check_cnsv_order_properties(log, 3)

    def test_detects_nontriviality_violation(self):
        log = TraceLog()
        self._run_epoch(log, {
            "proposals": {
                "p1": ((), ("m",)),
                "p2": ((), ("m",)),  # majority of 3 holds m
            },
            "orders": {"p1": ((), ()), "p2": ((), ())},  # nobody delivers it
        })
        with pytest.raises(CheckFailure, match="non-triviality"):
            check_cnsv_order_properties(log, 3)

    def test_detects_unproposed_new_message(self):
        log = TraceLog()
        self._run_epoch(log, {
            "proposals": {"p1": ((), ()), "p2": ((), ())},
            "orders": {"p1": ((), ("ghost",)), "p2": ((), ("ghost",))},
        })
        with pytest.raises(CheckFailure, match="validity"):
            check_cnsv_order_properties(log, 3)


class TestBaselineScoring:
    def test_counts_stale_adoptions(self):
        log = TraceLog()
        log.record(
            3.0, "c1", "adopt",
            rid="a", position=1, value="y", epoch=0,
            weight=("p1",), conservative=True, latency=1.0,
        )
        servers = [FakeServer("p2", ["b", "a"]), FakeServer("p3", ["b", "a"])]
        assert count_baseline_inconsistencies(log, servers) == 1

    def test_consistent_adoption_not_counted(self):
        log = TraceLog()
        log.record(
            3.0, "c1", "adopt",
            rid="a", position=1, value="y", epoch=0,
            weight=("p1",), conservative=True, latency=1.0,
        )
        servers = [FakeServer("p2", ["a", "b"]), FakeServer("p3", ["a", "b"])]
        assert count_baseline_inconsistencies(log, servers) == 0
