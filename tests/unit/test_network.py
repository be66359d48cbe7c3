"""Unit tests for the simulated network: FIFO, crashes, partitions, interceptors."""

from typing import Any, List, Tuple

import pytest

from repro.faults.injection import FaultSchedule, crash_during_multicast
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process

pytestmark = pytest.mark.unit



class Recorder(Process):
    """Records every message it receives."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Tuple[str, Any]] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


class Echoer(Recorder):
    """Replies 'echo:<n>' to every message."""

    def on_message(self, src: str, payload: Any) -> None:
        super().on_message(src, payload)
        self.env.send(src, f"echo:{payload}")


def build(n: int = 2, latency=None, seed: int = 1):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=latency or ConstantLatency(1.0))
    processes = [Recorder(f"p{i + 1}") for i in range(n)]
    for process in processes:
        network.add_process(process)
    network.start_all()
    return sim, network, processes


class TestDelivery:
    def test_message_delivered_after_latency(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "hello")
        sim.run()
        assert b.received == [("p1", "hello")]
        assert sim.now == 1.0

    def test_send_to_unknown_destination_raises(self):
        sim, network, (a, _b) = build()
        with pytest.raises(KeyError):
            a.env.send("nope", "hello")

    def test_fifo_preserved_with_jittery_latency(self):
        # Uniform latency could reorder; the channel must not.
        sim, network, (a, b) = build(latency=UniformLatency(0.1, 5.0), seed=3)
        for i in range(50):
            a.env.send("p2", i)
        sim.run()
        assert [payload for _src, payload in b.received] == list(range(50))

    def test_fifo_independent_per_channel(self):
        sim, network, (a, b, c) = build(n=3, latency=UniformLatency(0.1, 5.0))
        for i in range(20):
            a.env.send("p3", ("a", i))
            b.env.send("p3", ("b", i))
        sim.run()
        a_msgs = [p for _s, p in c.received if p[0] == "a"]
        b_msgs = [p for _s, p in c.received if p[0] == "b"]
        assert a_msgs == [("a", i) for i in range(20)]
        assert b_msgs == [("b", i) for i in range(20)]

    def test_message_counters(self):
        sim, network, (a, b) = build()
        a.env.send("p2", 1)
        a.env.send("p2", 2)
        sim.run()
        assert network.messages_sent == 2
        assert network.messages_delivered == 2


class TestCrash:
    def test_crashed_process_stops_receiving(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "before")
        sim.run()
        network.crash("p2")
        a.env.send("p2", "after")
        sim.run()
        assert [p for _s, p in b.received] == ["before"]

    def test_crashed_process_cannot_send(self):
        sim, network, (a, b) = build()
        network.crash("p1")
        a.env.send("p2", "zombie")
        sim.run()
        assert b.received == []

    def test_in_flight_messages_from_crashed_sender_still_arrive(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "in-flight")
        network.crash("p1")  # after the send left
        sim.run()
        assert [p for _s, p in b.received] == ["in-flight"]

    def test_crashed_process_timers_suppressed(self):
        sim, network, (a, b) = build()
        fired = []
        a.env.set_timer(5.0, lambda: fired.append("x"))
        network.crash_at(2.0, "p1")
        sim.run()
        assert fired == []

    def test_on_crash_hook_runs_once(self):
        class Crashable(Recorder):
            def __init__(self, pid):
                super().__init__(pid)
                self.crash_count = 0

            def on_crash(self):
                self.crash_count += 1

        sim = Simulator()
        network = SimNetwork(sim)
        p = Crashable("p1")
        network.start(p)
        network.crash("p1")
        network.crash("p1")
        assert p.crash_count == 1
        assert network.is_crashed("p1")
        assert network.correct_pids() == []


class TestDefer:
    def test_deferred_work_runs_before_defer_returns(self):
        # The simulator delivers one message per event: the input being
        # handled is consumed already, and no event is spent on the call.
        sim, _network, (a, _b) = build()
        ran = []
        events = sim.pending_events
        a.env.defer(lambda: ran.append(sim.now))
        assert ran == [sim.now]
        assert sim.pending_events == events


class TestPartition:
    def test_partition_holds_and_heal_releases(self):
        sim, network, (a, b) = build()
        network.set_partition([["p1"], ["p2"]])
        a.env.send("p2", "delayed")
        sim.run(until=10.0)
        assert b.received == []
        network.heal()
        sim.run()
        assert [p for _s, p in b.received] == ["delayed"]

    def test_partition_preserves_order_across_heal(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "first")
        sim.run(until=0.5)  # first is in flight
        network.set_partition([["p1"], ["p2"]])
        a.env.send("p2", "second")
        a.env.send("p2", "third")
        sim.run(until=5.0)
        network.heal()
        sim.run()
        assert [p for _s, p in b.received] == ["first", "second", "third"]

    def test_same_group_communication_unaffected(self):
        sim, network, (a, b, c) = build(n=3)
        network.set_partition([["p1", "p2"], ["p3"]])
        a.env.send("p2", "intra")
        a.env.send("p3", "inter")
        sim.run(until=10.0)
        assert [p for _s, p in b.received] == ["intra"]
        assert c.received == []

    def test_unlisted_processes_share_implicit_group(self):
        sim, network, (a, b, c) = build(n=3)
        network.set_partition([["p1"]])
        b.env.send("p3", "rest-to-rest")
        sim.run(until=10.0)
        assert [p for _s, p in c.received] == ["rest-to-rest"]

    def test_duplicate_group_membership_rejected(self):
        sim, network, _ = build(n=2)
        with pytest.raises(ValueError):
            network.set_partition([["p1"], ["p1", "p2"]])

    def test_message_in_flight_when_partition_forms_is_held(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "caught")
        network.set_partition([["p1"], ["p2"]])
        sim.run(until=10.0)
        assert b.received == []
        network.heal()
        sim.run()
        assert [p for _s, p in b.received] == ["caught"]


class TestInterceptors:
    def test_interceptor_can_drop(self):
        sim, network, (a, b) = build()
        network.add_interceptor(lambda src, dst, payload: payload != "drop-me")
        a.env.send("p2", "drop-me")
        a.env.send("p2", "keep-me")
        sim.run()
        assert [p for _s, p in b.received] == ["keep-me"]

    def test_interceptor_removal(self):
        sim, network, (a, b) = build()
        block = lambda src, dst, payload: False
        network.add_interceptor(block)
        a.env.send("p2", 1)
        network.remove_interceptor(block)
        a.env.send("p2", 2)
        sim.run()
        assert [p for _s, p in b.received] == [2]

    def test_crash_during_multicast_partial_delivery(self):
        sim, network, procs = build(n=4)
        a = procs[0]
        injector = crash_during_multicast(
            network, "p1", lambda p: p == "batch", deliver_to={"p2"}
        )
        a.env.send_to_all(["p2", "p3", "p4"], "batch")
        sim.run()
        assert [p for _s, p in procs[1].received] == ["batch"]
        assert procs[2].received == []
        assert procs[3].received == []
        assert network.is_crashed("p1")
        assert injector.triggered_at == 0.0

    def test_crash_during_multicast_ignores_other_messages(self):
        sim, network, procs = build(n=3)
        a = procs[0]
        crash_during_multicast(
            network, "p1", lambda p: p == "target", deliver_to=set()
        )
        a.env.send_to_all(["p2", "p3"], "innocent")
        sim.run()
        assert [p for _s, p in procs[1].received] == ["innocent"]
        assert not network.is_crashed("p1")


class TestFaultSchedule:
    def test_schedule_applies_crashes_and_partitions(self):
        sim, network, (a, b) = build()
        schedule = (
            FaultSchedule()
            .partition(1.0, [["p1"], ["p2"]])
            .heal(5.0)
            .crash(8.0, "p2")
        )
        schedule.apply(network)
        sim.schedule_at(2.0, lambda: a.env.send("p2", "held"))
        sim.run()
        assert [p for _s, p in b.received] == ["held"]
        assert network.is_crashed("p2")
        assert schedule.crash_times == [8.0]

    def test_unknown_action_rejected(self):
        from repro.faults.injection import FaultAction, _make_action

        sim, network, _ = build()
        action = _make_action(network, [], FaultAction(0.0, "explode"))
        with pytest.raises(ValueError):
            action()


class TestTraceIntegration:
    def test_trace_records_process_events(self):
        sim, network, (a, b) = build()
        a.env.trace("custom", detail=42)
        events = network.trace.events(kind="custom")
        assert len(events) == 1
        assert events[0].pid == "p1"
        assert events[0]["detail"] == 42

    def test_message_tracing_optional(self):
        sim = Simulator()
        network = SimNetwork(sim, trace_messages=True)
        a, b = Recorder("a"), Recorder("b")
        network.add_process(a)
        network.add_process(b)
        network.start_all()
        a.env.send("b", "x")
        sim.run()
        assert network.trace.events(kind="msg_send")
        assert network.trace.events(kind="msg_recv")
