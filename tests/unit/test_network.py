"""Unit tests for the simulated network: FIFO, crashes, partitions, drop rules."""

from typing import Any, List, Tuple

import pytest

from repro.faults.injection import CrashDuringMulticast, FaultSchedule
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


def build(n: int = 2, latency=None, seed: int = 1, process=None):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=latency or ConstantLatency(1.0))
    processes = [(process or Recorder)(f"p{i + 1}") for i in range(n)]
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
        plane = network.ensure_fault_plane()
        plane.partition([["p1"], ["p2"]])
        a.env.send("p2", "delayed")
        sim.run(until=10.0)
        assert b.received == []
        plane.heal_partition()
        sim.run()
        assert [p for _s, p in b.received] == ["delayed"]

    def test_partition_preserves_order_across_heal(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "first")
        sim.run(until=0.5)  # first is in flight
        plane = network.ensure_fault_plane()
        plane.partition([["p1"], ["p2"]])
        a.env.send("p2", "second")
        a.env.send("p2", "third")
        sim.run(until=5.0)
        plane.heal_partition()
        sim.run()
        assert [p for _s, p in b.received] == ["first", "second", "third"]

    def test_same_group_communication_unaffected(self):
        sim, network, (a, b, c) = build(n=3)
        network.ensure_fault_plane().partition([["p1", "p2"], ["p3"]])
        a.env.send("p2", "intra")
        a.env.send("p3", "inter")
        sim.run(until=10.0)
        assert [p for _s, p in b.received] == ["intra"]
        assert c.received == []

    def test_unlisted_processes_share_implicit_group(self):
        sim, network, (a, b, c) = build(n=3)
        network.ensure_fault_plane().partition([["p1"]])
        b.env.send("p3", "rest-to-rest")
        sim.run(until=10.0)
        assert [p for _s, p in c.received] == ["rest-to-rest"]

    def test_duplicate_group_membership_rejected(self):
        sim, network, _ = build(n=2)
        with pytest.raises(ValueError):
            network.ensure_fault_plane().partition([["p1"], ["p1", "p2"]])

    def test_message_in_flight_when_partition_forms_is_held(self):
        sim, network, (a, b) = build()
        a.env.send("p2", "caught")
        plane = network.ensure_fault_plane()
        plane.partition([["p1"], ["p2"]])
        sim.run(until=10.0)
        assert b.received == []
        plane.heal_partition()
        sim.run()
        assert [p for _s, p in b.received] == ["caught"]


class TestInterceptors:
    """Sends intercepted on the fault plane: drop rules and the scripted
    mid-multicast crash built on one."""

    def test_a_drop_rule_drops_before_any_other_fault(self):
        sim, network, (a, b) = build()
        seen: List[Any] = []

        def rule(src: str, dst: str, payload: Any) -> bool:
            seen.append(payload)
            return payload == "drop-me"

        plane = network.ensure_fault_plane()
        plane.add_drop_rule(rule)
        plane.add_drop_rule(lambda src, dst, payload: payload == "and-me")
        rewrites_saw: List[Any] = []
        plane.add_rewrite(lambda src, dst, payload: rewrites_saw.append(payload))
        for payload in ("drop-me", "keep-me", "and-me"):
            a.env.send("p2", payload)
        sim.run()
        assert seen == ["drop-me", "keep-me", "and-me"]  # the first rule sees all
        assert rewrites_saw == ["keep-me"]  # the rest of the plane only what passed
        assert [p for _s, p in b.received] == ["keep-me"]
        assert plane.dropped == plane.rewritten == 0  # a scripted drop is no link fault

    def test_crash_during_multicast_partial_delivery(self):
        sim, network, procs = build(n=4)
        a = procs[0]
        injector = CrashDuringMulticast(
            network, "p1", lambda p: p == "batch", deliver_to={"p2"}
        )
        for dst in ("p2", "p3", "p4"):
            a.env.send(dst, "batch")
        sim.run()
        assert [p for _s, p in procs[1].received] == ["batch"]
        assert procs[2].received == []
        assert procs[3].received == []
        assert network.is_crashed("p1")
        assert injector.triggered_at == 0.0

    def test_crash_during_multicast_ignores_other_messages(self):
        sim, network, procs = build(n=3)
        a = procs[0]
        CrashDuringMulticast(
            network, "p1", lambda p: p == "target", deliver_to=set()
        )
        for dst in ("p2", "p3"):
            a.env.send(dst, "innocent")
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

    def test_a_pid_the_deployment_lacks_is_rejected_before_anything_runs(self):
        sim, network, _ = build()
        for schedule in (
            FaultSchedule().crash(1.0, "p9"),
            FaultSchedule().suspect(1.0, "p9"),
            FaultSchedule().unsuspect(1.0, "p9"),
            FaultSchedule().partition(1.0, [["p1"], ["p2", "p9"]]),
            FaultSchedule().heal(1.0).oneway(2.0, [("p9", "*")]),
        ):
            with pytest.raises(ValueError, match=r"names \['p9'\].*has \['p1', 'p2'\]"):
                schedule.apply(network)
        assert sim.pending_events == 0
        # "*" is no pid, and link-rule patterns are not checked.
        FaultSchedule().oneway(1.0, [("*", "p2")]).links(src="rb1", drop=1.0).apply(network)
        assert sim.pending_events == 1

    def test_an_unknown_kind_is_rejected_at_apply_not_when_due(self):
        from repro.faults.injection import FaultAction

        sim, network, _ = build()
        with pytest.raises(ValueError, match="unknown fault action: explode"):
            FaultSchedule([FaultAction(50.0, "explode")]).apply(network)
        assert sim.pending_events == 0

    def test_a_one_group_pid_in_a_sharded_run_is_rejected(self):
        from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario

        config = ShardedScenarioConfig(
            n_shards=2, requests_per_client=2, fault_schedule=FaultSchedule().crash(5.0, "p1")
        )
        with pytest.raises(ValueError, match=r"names \['p1'\].*'s0\.p1'"):
            run_sharded_scenario(config)

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


class Timed(Process):
    """Records what it receives and when."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Tuple[float, str, Any]] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((self.env.now, src, payload))


def build_timed(n: int = 2, latency=None):
    return build(n, latency, process=Timed)


class TestHop:
    """``transmit`` schedules the fault-free hop itself; every rule of
    ``_schedule_delivery`` and ``_deliver`` still applies to it."""

    def test_a_shortened_delay_still_waits_for_the_fifo_floor(self):
        sim, network, (a, b) = build_timed(latency=ConstantLatency(5.0))
        a.env.send("p2", "slow")
        network.latency.delay = 1.0  # re-read per message
        a.env.send("p2", "fast")
        b.env.send("p1", "other channel")
        sim.run()
        assert b.received == [(5.0, "p1", "slow"), (5.0, "p1", "fast")]
        assert a.received == [(1.0, "p2", "other channel")]

    def test_a_receiver_crashed_in_flight_receives_nothing(self):
        sim, network, (a, b) = build_timed()
        a.env.send("p2", "lost")
        sim.run(until=0.5)
        network.crash("p2")
        sim.run()
        assert b.received == []
        assert network.messages_sent == 1 and network.messages_delivered == 0

    def test_a_sender_crashed_before_the_send_sends_nothing(self):
        sim, network, (a, b) = build_timed()
        network.crash("p1")
        a.env.send("p2", "zombie")
        assert network.messages_sent == 0 and sim.pending_events == 0

    def test_a_partition_formed_in_flight_holds_and_heal_releases_in_send_order(self):
        sim, network, (a, b, c) = build_timed(n=3)
        a.env.send("p3", "a-in-flight")  # seq 0
        b.env.send("p3", "b-in-flight")  # seq 1
        sim.run(until=0.5)
        plane = network.ensure_fault_plane()
        plane.partition([["p1", "p2"], ["p3"]])
        b.env.send("p3", "b-held-at-send")  # seq 2, held before a's next
        a.env.send("p3", "a-held-at-send")  # seq 3
        sim.run(until=10.0)
        assert c.received == []
        # Held at delivery comes after held at send in the list ...
        assert [envelope.seq for envelope in plane.held_envelopes()] == [2, 3, 0, 1]
        plane.heal_partition()
        sim.run()
        # ... and heal puts the wire back in send order.
        assert c.received == [
            (11.0, "p1", "a-in-flight"),
            (11.0, "p2", "b-in-flight"),
            (11.0, "p2", "b-held-at-send"),
            (11.0, "p1", "a-held-at-send"),
        ]
        assert network.trace.events(kind="heal")[0]["released"] == 4

    def test_an_idle_fault_plane_changes_nothing(self):
        """A plane with no rules sends every envelope through
        ``FaultPlane.process`` and ``_schedule_delivery``: the digest
        must be the one the hop scheduled from ``transmit`` gives."""

        def digest(with_plane: bool) -> str:
            sim = Simulator(seed=7)
            network = SimNetwork(sim, latency=UniformLatency(0.1, 3.0), trace_messages=True)
            for pid in ("p1", "p2", "p3"):
                network.add_process(Echoer(pid))
            if with_plane:
                network.ensure_fault_plane()
            network.start_all()
            for i in range(5):
                network.process("p1").env.send("p2", i)
                network.process("p3").env.send("p1", -i)
            sim.run(max_events=300)
            assert sim.events_processed == 300
            return network.trace.digest()

        assert digest(with_plane=True) == digest(with_plane=False)

    def test_checksummed_envelopes_are_verified_at_delivery(self):
        """The verifier arrives with the plane that stamps the checksums."""
        from repro.sim.faultplane import LinkFaultPolicy

        sim, network, (a, b) = build_timed()
        assert network._wire_checksum is None
        network.ensure_fault_plane().add_policy(LinkFaultPolicy(corrupt=1.0))
        for i in range(4):
            a.env.send("p2", i)
        sim.run()
        assert b.received == [] and network.corrupt_dropped == 4
        assert not list(network.in_flight_checksummed())


class TestPrebinding:
    """A process's ``send``/``set_timer``/``post``/``trace`` are bound when
    it starts, never at import: a method patched on the class before the
    network is built is the one every call goes through (what
    ``benchmarks/e2e/layers.py`` relies on)."""

    @staticmethod
    def _scenario(**changes):
        from repro.core.server import OARConfig
        from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario

        return run_sharded_scenario(
            ShardedScenarioConfig(
                n_shards=2, n_servers=3, n_clients=2, requests_per_client=6, n_keys=8,
                machine="kv", workload="uniform", driver="open", open_rate=0.5,
                oar=OARConfig(order_cost=0.5), exec_cost=0.25, exec_lanes=2, seed=3,
                **changes,
            )
        )

    def test_class_level_patches_see_every_call(self, monkeypatch):
        from repro.core.execution import ExecutionEngine
        from repro.sim.trace import TraceLog

        calls = {"transmit": 0, "submit": 0, "record": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SimNetwork, "transmit")
        counted(ExecutionEngine, "submit")
        counted(TraceLog, "record")
        run = self._scenario()
        assert run.all_done() and len(run.adopted()) == 12
        assert calls["transmit"] == run.network.messages_sent > 0
        assert calls["submit"] == sum(s.engine.executed for s in run.servers) == 3 * 12
        assert calls["record"] == len(run.trace) > 0

    def test_a_trace_that_is_off_is_never_called(self, monkeypatch):
        from repro.sim.trace import TraceLog

        calls: List[str] = []
        for name in ("record", "_drop_record"):
            monkeypatch.setattr(
                TraceLog, name, lambda self, *a, _name=name, **k: calls.append(_name)
            )
        run = self._scenario(trace_level="off")
        assert run.all_done() and len(run.adopted()) == 12
        assert len(run.trace) == 0 and calls == []
        # The log itself still drops what reaches it directly.
        run.network.crash("s0.p1")
        assert calls == ["_drop_record"] and len(run.trace) == 0

    def test_timers_and_posts_of_a_crashed_process_never_fire(self):
        sim, network, (a, b) = build_timed()
        fired: List[str] = []
        handle = a.env.set_timer(2.0, lambda: fired.append("timer"))
        a.env.post(2.0, lambda: fired.append("post"))
        a.env.post(0.0, lambda: fired.append("post-now"))
        b.env.set_timer(2.0, lambda: fired.append("b-timer"))
        cancelled = b.env.set_timer(1.0, lambda: fired.append("cancelled"))
        cancelled.cancel()
        sim.run(until=1.0)
        network.crash("p1")
        sim.run()
        assert fired == ["post-now", "b-timer"]
        assert handle.fired and not cancelled.fired  # popped, then suppressed
