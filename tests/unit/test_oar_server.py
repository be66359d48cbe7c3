"""Unit tests for OAR server internals: the edge cases of Fig. 6.

Integration tests exercise whole runs; these tests poke the server's
task machinery directly -- stale/future epoch handling, sequencer
authentication, ordering-before-request races, and the phase-2
bookkeeping that the pseudo-code leaves implicit.
"""

import tracemalloc
from statistics import median
from typing import Callable, List

import pytest

from repro.core.cnsv_order import CnsvOrderResult
from repro.core.messages import PhaseII, Reply, Request, SeqOrder
from repro.broadcast.reliable import RMsg
from repro.core.sequences import EMPTY, MessageSequence
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import ScriptedFailureDetector
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.unit



def build(n: int = 3, config: OARConfig = None, seed: int = 0):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = [f"p{i + 1}" for i in range(n)]
    servers: List[OARServer] = []
    for pid in group:
        server = OARServer(
            pid, group, CounterMachine(), ScriptedFailureDetector(),
            config or OARConfig(),
        )
        servers.append(server)
        network.add_process(server)

    class FakeClient:
        def __init__(self, pid):
            self.pid = pid
            self.replies = []

        def on_message(self, src, payload):
            self.replies.append((src, payload))

    class ClientProcess(Process):
        def __init__(self):
            super().__init__("c1")
            self.replies = []

        def on_message(self, src, payload):
            if isinstance(payload, Reply):
                self.replies.append((src, payload))

    client = ClientProcess()
    network.add_process(client)
    network.start_all()
    return sim, network, servers, client


def request(n: int) -> Request:
    return Request(rid=f"c1-{n}", client="c1", op=("incr",))


class TestConstruction:
    def test_pid_must_be_group_member(self):
        with pytest.raises(ValueError, match="not in server group"):
            OARServer(
                "outsider", ["p1"], CounterMachine(),
                ScriptedFailureDetector(), OARConfig(),
            )

    def test_initial_state_matches_fig6_lines_1_to_5(self):
        _sim, _network, servers, _client = build()
        server = servers[0]
        assert len(server.r_delivered) == 0
        assert len(server.a_delivered) == 0
        assert len(server.o_delivered) == 0
        assert server.epoch == 0
        assert server.phase == 1
        assert server.current_sequencer == "p1"
        assert server.majority == 2


class TestTask1b:
    def test_order_from_non_sequencer_is_ignored(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task0_request(request(0))
        p2._task1b_order("p3", SeqOrder(0, ("c1-0",)))  # p3 is not s
        assert len(p2.o_delivered) == 0

    def test_stale_epoch_order_dropped(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2.epoch = 3
        p2._task0_request(request(0))
        p2._task1b_order("p1", SeqOrder(1, ("c1-0",)))
        assert len(p2.o_delivered) == 0

    def test_future_epoch_order_buffered(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task0_request(request(0))
        p2._task1b_order("p2", SeqOrder(2, ("c1-0",)))
        assert len(p2.o_delivered) == 0
        assert 2 in p2._future_orders

    def test_order_before_request_body_waits(self):
        # The ordering message can overtake the request (relay race);
        # delivery must wait for the body, in order.
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task1b_order("p1", SeqOrder(0, ("c1-0", "c1-1")))
        assert len(p2.o_delivered) == 0
        p2._task0_request(request(1))  # second body first: still blocked
        assert len(p2.o_delivered) == 0
        p2._task0_request(request(0))  # head arrives: both drain, in order
        assert p2.o_delivered == ("c1-0", "c1-1")

    def test_duplicate_rid_in_order_ignored(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task0_request(request(0))
        p2._task1b_order("p1", SeqOrder(0, ("c1-0",)))
        p2._task1b_order("p1", SeqOrder(0, ("c1-0",)))
        assert p2.o_delivered == ("c1-0",)
        assert p2.machine.fingerprint() == 1

    def test_weight_is_s_for_sequencer_and_ps_for_others(self):
        sim, _network, servers, client = build()
        # Inject the request body at every server (bypassing R-multicast),
        # then let the sequencer's ordering propagate.
        for server in reversed(servers):
            server._task0_request(request(0))
        sim.run()
        weights = {
            src: payload.weight
            for src, payload in client.replies
            if payload.rid == "c1-0"
        }
        assert weights["p1"] == frozenset({"p1"})
        assert weights["p2"] == frozenset({"p1", "p2"})
        assert weights["p3"] == frozenset({"p1", "p3"})


class TestTask2:
    def test_phase2_for_current_epoch_only_once(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task2_phase2(PhaseII(0, "suspicion"))
        assert p2.phase == 2
        # A second PhaseII for the same epoch is absorbed.
        p2._task2_phase2(PhaseII(0, "suspicion"))
        assert p2.phase == 2

    def test_stale_phase2_ignored(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2.epoch = 2
        p2._task2_phase2(PhaseII(0, "suspicion"))
        assert p2.phase == 1

    def test_future_phase2_buffered(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task2_phase2(PhaseII(3, "suspicion"))
        assert p2.phase == 1
        assert 3 in p2._future_phase2

    def test_suspicion_of_non_sequencer_does_not_trigger(self):
        sim, network, servers, _client = build()
        p2 = servers[1]
        p2.fd.force_suspect("p3")
        sim.run(until=10.0)
        assert p2.phase == 1
        assert network.trace.events(kind="phase2_request") == []

    def test_suspicion_of_sequencer_triggers_phase2_broadcast(self):
        sim, network, servers, _client = build()
        for server in servers[1:]:
            server.fd.force_suspect("p1")
        sim.run(max_events=100_000)
        # Both suspecting servers requested; everyone ran exactly one
        # conservative phase and moved to epoch 1 with the next sequencer.
        assert len(network.trace.events(kind="phase2_request")) == 2
        for server in servers:
            assert server.epoch == 1
            assert server.phase == 1
            assert server.current_sequencer == "p2"

    def test_rotation_disabled_keeps_sequencer(self):
        sim, network, servers, _client = build(
            config=OARConfig(rotate_sequencer=False)
        )
        for server in servers[1:]:
            server.fd.force_suspect("p1")
        # p1 is alive here; it also runs phase 2 when the PhaseII arrives.
        sim.run(max_events=100_000)
        # Epoch advanced but the (still suspected) p1 stays sequencer, so
        # the new epoch immediately re-enters phase 2 at the suspecting
        # servers -- run a few more epochs to observe the treadmill.
        assert all(s.current_sequencer == "p1" for s in servers)


class TestEpochSettlement:
    def run_crash_recovery(self):
        sim, network, servers, client = build()
        # Inject the request body everywhere (bypassing R-multicast --
        # its relay guarantees are tested elsewhere).
        for server in servers:
            server._task0_request(request(0))
        sim.run(until=5.0)
        network.crash("p1")
        for server in servers[1:]:
            server.fd.force_suspect("p1")
        sim.run(max_events=200_000)
        return sim, network, servers, client

    def test_survivors_settle_and_clear_o_delivered(self):
        _sim, _network, servers, _client = self.run_crash_recovery()
        for server in servers[1:]:
            assert server.epoch == 1
            assert len(server.o_delivered) == 0
            assert server.a_delivered == ("c1-0",)
            assert server.settled_order == server.current_order

    def test_undo_log_empty_after_settlement(self):
        _sim, _network, servers, _client = self.run_crash_recovery()
        for server in servers[1:]:
            assert len(server.undo_log) == 0

    def test_reply_cache_survives_settlement(self):
        sim, network, servers, client = self.run_crash_recovery()
        p2 = servers[1]
        # Re-delivering the request must answer from the cache without
        # touching the state machine.
        before = p2.machine.fingerprint()
        replies_before = len(client.replies)
        p2._task0_request(request(0))
        sim.run(until=sim.now + 5.0)
        assert p2.machine.fingerprint() == before
        assert len(client.replies) > replies_before


class TestUnorderedSet:
    """Fig. 6 line 9, maintained incrementally (``OARServer._unordered``)."""

    def test_follows_r_delivery_and_opt_delivery(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        for n in range(4):
            p2._task0_request(request(n))
        assert tuple(p2._unordered) == ("c1-0", "c1-1", "c1-2", "c1-3")
        p2._task1b_order("p1", SeqOrder(0, ("c1-2", "c1-0")))
        assert p2.o_delivered == ("c1-2", "c1-0")
        assert tuple(p2._unordered) == ("c1-1", "c1-3")
        p2.check_invariants()

    def settle_with_partial_redelivery(self, config: OARConfig) -> OARServer:
        """p2 Opt-delivers c1-0..2 of c1-0..4, then Cnsv-order undoes
        c1-1 and c1-2 and A-delivers only c1-2 (and c1-4)."""
        _sim, _network, servers, _client = build(config=config)
        p2 = servers[1]
        for n in range(5):
            p2._task0_request(request(n))
        p2._task1b_order("p1", SeqOrder(0, ("c1-0", "c1-1", "c1-2")))
        assert tuple(p2._unordered) == ("c1-3", "c1-4")
        p2.phase = 2
        p2._finish_phase2(
            CnsvOrderResult(
                bad=MessageSequence(["c1-1", "c1-2"]),
                new=MessageSequence(["c1-2", "c1-4"]),
                good=MessageSequence(["c1-0"]),
                dlv_max=MessageSequence(["c1-0"]),
            )
        )
        assert p2.a_delivered == ("c1-0", "c1-2", "c1-4")
        p2.check_invariants()
        return p2

    def test_bad_reenters_at_its_r_delivery_position(self):
        # c1-1 is unordered again, and (R ⊖ A) ⊖ O has it where
        # R_delivered has it: ahead of c1-3, not behind it.
        p2 = self.settle_with_partial_redelivery(
            OARConfig(paranoid=True, rotate_sequencer=False)
        )
        assert len(p2.o_delivered) == 0
        assert tuple(p2._unordered) == ("c1-1", "c1-3")

    def test_next_sequencer_orders_the_undone_rid_first(self):
        # With rotation p2 is the sequencer of epoch 1 and orders what
        # is left at once -- in that same order.
        p2 = self.settle_with_partial_redelivery(OARConfig(paranoid=True))
        assert p2.is_sequencer and p2.epoch == 1
        assert p2.o_delivered == ("c1-1", "c1-3")
        assert not p2._unordered

    def test_pending_index_follows_the_queue(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task1b_order("p1", SeqOrder(0, ("c1-0", "c1-1")))
        assert p2._opt_pending_set == {"c1-0", "c1-1"}
        p2._task0_request(request(0))
        assert tuple(p2._opt_pending) == ("c1-1",)
        assert p2._opt_pending_set == {"c1-1"}
        p2.check_invariants()
        p2._task2_phase2(PhaseII(0, "test"))
        assert not p2._opt_pending and not p2._opt_pending_set


    def test_invariant_check_rejects_a_misordered_or_stale_set(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        for n in range(3):
            p2._task0_request(request(n))
        p2.check_invariants()
        right = p2._unordered
        p2._unordered = dict.fromkeys(reversed(right))  # same elements
        with pytest.raises(RuntimeError, match="unordered set"):
            p2.check_invariants()
        p2._unordered = right
        p2._task1b_order("p1", SeqOrder(0, ("c1-1",)))
        p2._unordered["c1-1"] = None  # delivered, yet still listed
        with pytest.raises(RuntimeError, match="unordered set"):
            p2.check_invariants()

    def test_invariant_check_rejects_a_pending_index_out_of_step(self):
        _sim, _network, servers, _client = build()
        p2 = servers[1]
        p2._task1b_order("p1", SeqOrder(0, ("c1-0", "c1-1")))
        p2.check_invariants()
        p2._opt_pending_set.discard("c1-1")
        with pytest.raises(RuntimeError, match="membership index"):
            p2.check_invariants()


class TestDeferredOrdering:
    """Task 1a at ``batch_interval=0`` goes through ``env.defer``: one
    order per burst of input on a host that reads many messages per
    wake-up, one per request on a host that delivers them one by one."""

    @staticmethod
    def queued(server: OARServer) -> List[Callable[[], None]]:
        """Stand-in for the TCP host: ``env.defer`` queues, the test drains."""
        queue: List[Callable[[], None]] = []
        server.env.defer = queue.append
        return queue

    @staticmethod
    def orders(network, pid: str) -> List[tuple]:
        return [
            (event["epoch"], event["rids"])
            for event in network.trace.events(kind="seq_order", pid=pid)
        ]

    def test_requests_delivered_before_the_drain_share_one_order(self):
        _sim, network, servers, _client = build()
        p1 = servers[0]
        queue = self.queued(p1)
        for n in (3, 0, 2, 1):
            p1._task0_request(request(n))
        assert len(queue) == 1  # at most one deferral pending
        assert self.orders(network, "p1") == []
        queue.pop()()
        assert self.orders(network, "p1") == [(0, ("c1-3", "c1-0", "c1-2", "c1-1"))]
        assert p1.o_delivered == ("c1-3", "c1-0", "c1-2", "c1-1")
        # The next burst defers afresh.
        p1._task0_request(request(4))
        assert len(queue) == 1
        queue.pop()()
        assert self.orders(network, "p1")[1:] == [(0, ("c1-4",))]

    def test_the_default_env_orders_every_request_on_arrival(self):
        _sim, network, servers, _client = build()
        p1 = servers[0]
        for n in range(4):
            p1._task0_request(request(n))
            assert not p1._order_deferred
        assert self.orders(network, "p1") == [(0, (f"c1-{n}",)) for n in range(4)]

    def test_a_drain_in_phase_2_orders_nothing_and_the_epoch_start_orders_the_backlog(self):
        _sim, network, servers, _client = build(config=OARConfig(rotate_sequencer=False))
        p1 = servers[0]
        queue = self.queued(p1)
        for n in range(3):
            p1._task0_request(request(n))
        p1._task2_phase2(PhaseII(0, "test"))
        assert p1.phase == 2
        queue.pop()()
        assert self.orders(network, "p1") == []
        p1._task0_request(request(3))  # phase 2: buffered, not deferred
        assert queue == [] and not p1._order_deferred
        p1._finish_phase2(CnsvOrderResult(EMPTY, EMPTY, EMPTY, EMPTY))
        assert p1.is_sequencer and p1.epoch == 1
        assert self.orders(network, "p1") == [(1, ("c1-0", "c1-1", "c1-2", "c1-3"))]

    def test_a_drain_after_losing_the_sequencer_role_orders_nothing(self):
        _sim, network, servers, _client = build()
        p1, p2 = servers[0], servers[1]
        queue = self.queued(p1)
        for server in (p1, p2):
            for n in range(2):
                server._task0_request(request(n))
        for server in (p1, p2):
            server._task2_phase2(PhaseII(0, "test"))
        p1._finish_phase2(CnsvOrderResult(EMPTY, EMPTY, EMPTY, EMPTY))
        assert p1.phase == 1 and p1.current_sequencer == "p2"
        queue.pop()()  # deferred as the sequencer of epoch 0
        assert self.orders(network, "p1") == []
        assert tuple(p1._unordered) == ("c1-0", "c1-1")
        # The backlog is the new sequencer's, ordered as its epoch starts.
        p2._finish_phase2(CnsvOrderResult(EMPTY, EMPTY, EMPTY, EMPTY))
        assert self.orders(network, "p2") == [(1, ("c1-0", "c1-1"))]

    def test_invariants_hold_between_deferral_and_drain(self):
        _sim, network, servers, _client = build(config=OARConfig(paranoid=True))
        p1 = servers[0]
        queue = self.queued(p1)
        for n in range(3):
            # Through on_message, so that the paranoid check itself runs.
            p1.on_message("c1", RMsg(n, "c1", request(n), ("p1", "p2", "p3")))
            assert p1._order_deferred and len(queue) == 1
        assert tuple(p1._unordered) == ("c1-0", "c1-1", "c1-2")
        queue.pop()()
        p1.check_invariants()
        assert self.orders(network, "p1") == [(0, ("c1-0", "c1-1", "c1-2"))]
        assert not p1._unordered and not p1._order_deferred

    def test_non_sequencers_never_defer(self):
        _sim, _network, servers, _client = build()

        def refuse(_callback):
            raise AssertionError("only the phase-1 sequencer defers")

        for follower in servers[1:]:
            follower.env.defer = refuse
            for n in range(3):
                follower._task0_request(request(n))
            assert not follower._order_deferred

    def test_the_pending_flag_is_clear_when_ordering_raises(self, monkeypatch):
        _sim, network, servers, _client = build()
        p1 = servers[0]
        queue = self.queued(p1)
        p1._task0_request(request(0))

        def broken() -> None:
            assert not p1._order_deferred
            raise RuntimeError("ordering bug")

        with monkeypatch.context() as patch:
            patch.setattr(p1, "_maybe_order", broken)
            with pytest.raises(RuntimeError, match="ordering bug"):
                queue.pop()()
        assert not p1._order_deferred
        # Nothing is wedged: the next R-delivery defers again and its
        # drain orders the stranded rid too.
        p1._task0_request(request(1))
        queue.pop()()
        assert self.orders(network, "p1") == [(0, ("c1-0", "c1-1"))]


class TestHistoryIndependence:
    def test_allocation_per_request_does_not_grow_with_history(self):
        """A request allocates the same at history 16 000 as at 500.

        Counted, not timed: the peak of traced allocation while one
        request is R-delivered, ordered and Opt-delivered by a
        one-replica group.  The median of 50 consecutive requests
        ignores the odd request on which a list or dict grows.
        """
        sim = Simulator(seed=0)
        network = SimNetwork(sim, trace_level="off")
        server = OARServer(
            "p1", ["p1"], CounterMachine(), ScriptedFailureDetector(), OARConfig()
        )
        network.add_process(server)
        network.add_process(Process("c1"))
        network.start_all()

        def deliver(n: int) -> int:
            body = request(n)
            tracemalloc.reset_peak()
            before, _peak = tracemalloc.get_traced_memory()
            server._task0_request(body)
            _current, peak = tracemalloc.get_traced_memory()
            sim.run()  # hand the reply over, so the event queue stays empty
            return peak - before

        def median_at(history: int, done: int) -> float:
            for n in range(done, history):
                server._task0_request(request(n))
                sim.run()
            tracemalloc.start()
            try:
                return median(deliver(history + n) for n in range(50))
            finally:
                tracemalloc.stop()

        early = median_at(500, 0)
        late = median_at(16_000, 550)
        assert len(server.o_delivered) == len(server.r_delivered) == 16_050
        assert late <= 2 * early, (early, late)


class TestConfigValidation:
    def test_negative_batch_interval_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            OARConfig(batch_interval=-1.0)

    def test_denormal_batch_interval_rejected(self):
        # A near-zero periodic timer would starve the event loop; the
        # config floor forces callers to use 0 (order-on-arrival).
        with pytest.raises(ValueError, match="floor"):
            OARConfig(batch_interval=1e-9)

    def test_zero_and_sane_intervals_accepted(self):
        OARConfig(batch_interval=0.0)
        OARConfig(batch_interval=0.5, gc_interval=10.0, gc_after_requests=5)

    def test_bad_gc_knobs_rejected(self):
        with pytest.raises(ValueError, match="gc_interval"):
            OARConfig(gc_interval=1e-9)
        with pytest.raises(ValueError, match="gc_after_requests"):
            OARConfig(gc_after_requests=0)
