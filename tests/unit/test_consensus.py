"""Unit tests for Chandra-Toueg consensus with Maj-validity."""

from typing import Any, Dict, List, Optional

import pytest

from repro.consensus.chandra_toueg import ConsensusManager
from repro.failure.detector import HeartbeatFailureDetector, ScriptedFailureDetector
from repro.sim.component import ComponentProcess
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

pytestmark = pytest.mark.unit



class Participant(ComponentProcess):
    def __init__(self, pid: str, group: List[str], fd=None, collect="majority") -> None:
        super().__init__(pid)
        self.fd = fd if fd is not None else ScriptedFailureDetector()
        self.manager = self.add_component(
            ConsensusManager(self, group, self.fd, collect=collect)
        )
        if isinstance(self.fd, HeartbeatFailureDetector):
            self.add_component(self.fd)
        self.decisions: Dict[Any, Any] = {}

    def propose(self, instance: Any, value: Any) -> None:
        self.manager.propose(
            instance, value, lambda k, v: self.decisions.__setitem__(k, v)
        )


def build(n: int = 3, seed: int = 0, heartbeat: bool = False, collect: str = "majority"):
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = [f"p{i + 1}" for i in range(n)]
    participants = []
    for pid in group:
        if heartbeat:
            proc = Participant.__new__(Participant)
            ComponentProcess.__init__(proc, pid)
            proc.fd = HeartbeatFailureDetector(proc, group, interval=2.0, timeout=6.0)
            proc.manager = proc.add_component(
                ConsensusManager(proc, group, proc.fd, collect=collect)
            )
            proc.add_component(proc.fd)
            proc.decisions = {}
        else:
            proc = Participant(pid, group, collect=collect)
        participants.append(proc)
        network.add_process(proc)
    network.start_all()
    return sim, network, participants


class TestFailureFree:
    def test_all_decide_same_vector(self):
        sim, network, parts = build()
        for part in parts:
            part.propose("k0", f"v-{part.pid}")
        sim.run(max_events=50_000)
        decisions = [part.decisions["k0"] for part in parts]
        assert decisions.count(decisions[0]) == len(decisions)

    def test_maj_validity_vector_covers_majority(self):
        sim, network, parts = build(n=5)
        for part in parts:
            part.propose("k0", f"v-{part.pid}")
        sim.run(max_events=50_000)
        vector = parts[0].decisions["k0"]
        assert len(vector) >= 3  # majority of 5
        for pid, value in vector:
            assert value == f"v-{pid}"  # values are genuine initial values

    def test_vector_sorted_by_pid(self):
        sim, network, parts = build(n=5)
        for part in reversed(parts):
            part.propose("k0", f"v-{part.pid}")
        sim.run(max_events=50_000)
        vector = parts[0].decisions["k0"]
        pids = [pid for pid, _v in vector]
        assert pids == sorted(pids)

    def test_multiple_instances_are_independent(self):
        sim, network, parts = build()
        for part in parts:
            part.propose("a", f"a-{part.pid}")
            part.propose("b", f"b-{part.pid}")
        sim.run(max_events=100_000)
        for part in parts:
            assert set(part.decisions) == {"a", "b"}
        assert parts[0].decisions["a"] == parts[1].decisions["a"]
        assert parts[0].decisions["b"] == parts[1].decisions["b"]

    def test_double_propose_rejected(self):
        sim, network, parts = build()
        parts[0].propose("k0", "v")
        with pytest.raises(ValueError):
            parts[0].propose("k0", "v2")


class TestCoordinatorFailure:
    def test_crashed_coordinator_is_bypassed(self):
        sim, network, parts = build()
        network.crash("p1")  # round-0 coordinator
        for part in parts[1:]:
            part.propose("k0", f"v-{part.pid}")
        # p1 is crashed: suspicion must come from the (scripted) FDs.
        for part in parts[1:]:
            part.fd.force_suspect("p1")
        sim.run(max_events=50_000)
        assert parts[1].decisions["k0"] == parts[2].decisions["k0"]
        vector = parts[1].decisions["k0"]
        assert {pid for pid, _v in vector} <= {"p2", "p3"}

    def test_heartbeat_fd_drives_termination(self):
        sim, network, parts = build(heartbeat=True)
        network.crash("p1")
        for part in parts[1:]:
            part.propose("k0", f"v-{part.pid}")
        sim.run(until=200.0, max_events=200_000)
        assert "k0" in parts[1].decisions
        assert parts[1].decisions["k0"] == parts[2].decisions["k0"]

    def test_wrong_suspicion_is_safe(self):
        # p2 and p3 wrongly suspect the (alive) coordinator p1; the
        # protocol moves to later rounds and still agrees with p1.
        sim, network, parts = build()
        for part in parts:
            part.propose("k0", f"v-{part.pid}")
        parts[1].fd.force_suspect("p1")
        parts[2].fd.force_suspect("p1")
        sim.run(max_events=100_000)
        decisions = [part.decisions.get("k0") for part in parts]
        assert decisions[0] is not None
        assert decisions.count(decisions[0]) == 3


class TestLatecomers:
    def test_late_proposer_gets_stored_decision(self):
        sim, network, parts = build()
        parts[0].propose("k0", "v-p1")
        parts[1].propose("k0", "v-p2")
        sim.run(max_events=50_000)
        assert "k0" in parts[0].decisions
        # p3 proposes long after the decision: must terminate immediately.
        parts[2].propose("k0", "v-p3")
        sim.run(max_events=10_000)
        assert parts[2].decisions["k0"] == parts[0].decisions["k0"]

    def test_messages_before_local_propose_are_buffered(self):
        sim, network, parts = build()
        parts[0].propose("k0", "v-p1")
        sim.run(until=0.5)  # estimates in flight to p1 only
        parts[1].propose("k0", "v-p2")
        parts[2].propose("k0", "v-p3")
        sim.run(max_events=50_000)
        assert len({repr(p.decisions["k0"]) for p in parts}) == 1


class TestUnsuspectedCollection:
    def test_decision_can_exclude_wrongly_suspected_minority(self):
        # Four participants; p3/p4 suspect p2 (and crashed p1) while a
        # partition delays p2's traffic: the decision is built from
        # p3/p4's values only -- the Figure 4 precondition.
        sim, network, parts = build(n=4, collect="unsuspected")
        network.crash("p1")
        plane = network.ensure_fault_plane()
        plane.partition([["p2"], ["p3", "p4"]])
        for part in parts[1:]:
            part.propose("k0", f"v-{part.pid}")
        for pid in ("p3", "p4"):
            proc = next(p for p in parts if p.pid == pid)
            proc.fd.force_suspect("p1")
            proc.fd.force_suspect("p2")
        next(p for p in parts if p.pid == "p2").fd.force_suspect("p1")
        sim.schedule_at(30.0, plane.heal_partition)
        sim.run(max_events=200_000)
        for part in parts[1:]:
            assert "k0" in part.decisions
        vector = parts[1].decisions["k0"]
        assert {pid for pid, _v in vector} == {"p3", "p4"}
        # Agreement still holds everywhere, including the excluded p2.
        assert parts[1].decisions["k0"] == parts[2].decisions["k0"]
        assert parts[2].decisions["k0"] == parts[3].decisions["k0"]

    def test_invalid_collect_mode_rejected(self):
        host = ComponentProcess("p1")
        with pytest.raises(ValueError):
            ConsensusManager(host, ["p1"], ScriptedFailureDetector(), collect="psychic")

    def test_non_participant_rejected(self):
        host = ComponentProcess("outsider")
        with pytest.raises(ValueError):
            ConsensusManager(host, ["p1", "p2"], ScriptedFailureDetector())
