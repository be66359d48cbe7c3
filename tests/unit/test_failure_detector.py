"""Unit tests for the heartbeat and scripted failure detectors (◇S)."""

from typing import Any, List

from repro.failure.detector import (
    HeartbeatFailureDetector,
    ScriptedFailureDetector,
)
from repro.faults import FaultSchedule
from repro.sim.component import ComponentProcess
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

import pytest

pytestmark = pytest.mark.unit



class Monitored(ComponentProcess):
    """A process whose only job is running a heartbeat failure detector."""

    def __init__(self, pid: str, group: List[str], **fd_kwargs: Any) -> None:
        super().__init__(pid)
        self.fd = HeartbeatFailureDetector(self, group, **fd_kwargs)
        self.add_component(self.fd)
        self.transitions: List[tuple] = []
        self.fd.add_listener(lambda p, s: self.transitions.append((p, s)))


def build(n: int = 3, seed: int = 0, **fd_kwargs: Any):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = [f"p{i + 1}" for i in range(n)]
    processes = [Monitored(pid, group, **fd_kwargs) for pid in group]
    for process in processes:
        network.add_process(process)
    network.start_all()
    return sim, network, processes


class TestStrongCompleteness:
    def test_crashed_process_eventually_suspected_by_all(self):
        sim, network, procs = build(interval=2.0, timeout=6.0)
        network.crash_at(10.0, "p1")
        sim.run(until=50.0)
        for proc in procs[1:]:
            assert proc.fd.is_suspected("p1")

    def test_suspicion_is_permanent_for_crashed(self):
        sim, network, procs = build(interval=2.0, timeout=6.0)
        network.crash_at(5.0, "p2")
        sim.run(until=100.0)
        assert procs[0].fd.is_suspected("p2")
        assert procs[2].fd.is_suspected("p2")


class TestEventualAccuracy:
    def test_no_suspicions_in_stable_run(self):
        sim, network, procs = build(interval=2.0, timeout=6.0)
        sim.run(until=100.0)
        for proc in procs:
            assert proc.fd.suspects == set()

    def test_false_suspicion_recanted_and_timeout_widened(self):
        # A transient partition makes p1 silent long enough to be
        # suspected; after healing the heartbeat recants the suspicion
        # and the timeout grows (eventual accuracy mechanism).
        sim, network, procs = build(interval=2.0, timeout=5.0)
        FaultSchedule().partition(10.0, [["p1"], ["p2", "p3"]]).heal(30.0).apply(network)
        sim.run(until=40.0)
        p2 = procs[1]
        assert ("p1", True) in p2.transitions  # was suspected
        sim.run(until=80.0)
        assert not p2.fd.is_suspected("p1")  # recanted
        assert p2.fd.current_timeout("p1") > 5.0  # backoff applied


class TestScriptedSuspicions:
    def test_force_suspect_and_unsuspect(self):
        fd = ScriptedFailureDetector()
        seen = []
        fd.add_listener(lambda p, s: seen.append((p, s)))
        fd.force_suspect("p1")
        assert fd.is_suspected("p1")
        fd.force_suspect("p1")  # idempotent: no second notification
        fd.force_unsuspect("p1")
        assert not fd.is_suspected("p1")
        assert seen == [("p1", True), ("p1", False)]

    def test_sticky_forced_suspicion_survives_heartbeats(self):
        sim, network, procs = build(interval=2.0, timeout=1000.0)
        p2 = procs[1]
        p2.fd.force_suspect("p1", sticky=True)
        sim.run(until=50.0)
        assert p2.fd.is_suspected("p1")  # heartbeats keep arriving, still stuck
        p2.fd.force_unsuspect("p1")
        assert not p2.fd.is_suspected("p1")


class TestConfiguration:
    def test_invalid_parameters_rejected(self):
        import pytest

        sim = Simulator()
        network = SimNetwork(sim)
        host = ComponentProcess("h")
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(host, ["h", "x"], interval=0)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(host, ["h", "x"], timeout=-1)

    def test_self_not_monitored(self):
        host = ComponentProcess("p1")
        fd = HeartbeatFailureDetector(host, ["p1", "p2"])
        assert fd.monitored == ["p2"]

    def test_resolve_fd_accepts_instance_and_factory(self):
        import pytest

        from repro.failure.detector import resolve_fd

        host = ComponentProcess("p1")
        scripted = ScriptedFailureDetector()
        assert resolve_fd(scripted, host) is scripted
        built = resolve_fd(
            lambda h: HeartbeatFailureDetector(h, ["p1", "p2"]), host
        )
        assert isinstance(built, HeartbeatFailureDetector)
        with pytest.raises(TypeError):
            resolve_fd("nonsense", host)
