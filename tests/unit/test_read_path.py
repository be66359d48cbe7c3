"""Unit tests for the replica-local read path (OARConfig.read_mode).

Covers: read-only classification on the bundled machines, the server's
read serving (current-state observation, non-read-only rejection, the
read_cost serial service model), and the client's optimistic /
conservative adoption rules.
"""

from typing import Any

import pytest

from repro.core.client import OARClient
from repro.core.messages import ReadReply, ReadRequest
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import ScriptedFailureDetector
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process
from repro.statemachine import BankMachine, CounterMachine, KVStoreMachine

pytestmark = pytest.mark.unit


class TestReadOnlyClassification:
    def test_kv(self):
        assert KVStoreMachine.is_read_only(("get", "k"))
        assert KVStoreMachine.is_read_only(("keys",))
        assert not KVStoreMachine.is_read_only(("set", "k", "v"))
        assert not KVStoreMachine.is_read_only(("delete", "k"))
        assert not KVStoreMachine.is_read_only(("cas", "k", "a", "b"))
        # Malformed arities stay on the ordered path.
        assert not KVStoreMachine.is_read_only(("get",))
        assert not KVStoreMachine.is_read_only(())

    def test_bank(self):
        assert BankMachine.is_read_only(("balance", "alice"))
        assert BankMachine.is_read_only(("total",))
        assert not BankMachine.is_read_only(("deposit", "alice", 1))
        assert not BankMachine.is_read_only(("transfer", "a", "b", 1))
        assert not BankMachine.is_read_only(("tx_prepare", "t", "debit", "a", 1))

    def test_migration_family_is_never_read_only(self):
        # Even mig_status must be totally ordered: migration recovery
        # reasons about its position in the shard's order.
        for machine in (KVStoreMachine, BankMachine):
            assert not machine.is_read_only(("mig_status", "m0"))

    def test_default_classifier_is_conservative(self):
        assert not CounterMachine.is_read_only(("value",))


class _ReplySink(Process):
    """Collects ReadReply messages sent back to a fake client pid."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.replies = []

    def on_message(self, src: str, payload: Any) -> None:
        self.replies.append((src, payload))


def build_server(config: OARConfig = None):
    sim = Simulator(seed=0)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = ["p1", "p2", "p3"]
    machine = KVStoreMachine()
    server = OARServer(
        "p1", group, machine, lambda host: ScriptedFailureDetector(),
        config or OARConfig(),
    )
    sink = _ReplySink("c1")
    for peer in ("p2", "p3"):
        network.add_process(_ReplySink(peer))
    network.add_process(server)
    network.add_process(sink)
    network.start_all()
    return network, server, sink


class TestServerReadServing:
    def test_read_observes_current_state_and_positions(self):
        network, server, sink = build_server()
        server.machine.apply(("set", "k", "v1"))
        server.on_message("c1", ReadRequest("c1-r0", "c1", ("get", "k")))
        network.sim.run()
        (_src, reply), = sink.replies
        assert isinstance(reply, ReadReply)
        assert reply.value.ok and reply.value.value == "v1"
        assert reply.position == 0 and reply.settled == 0  # nothing delivered
        assert server.reads_served == 1

    def test_non_read_only_op_is_rejected_deterministically(self):
        network, server, sink = build_server()
        server.on_message("c1", ReadRequest("c1-r0", "c1", ("set", "k", "v")))
        network.sim.run()
        (_src, reply), = sink.replies
        assert not reply.value.ok
        assert "not read-only" in reply.value.error
        assert server.machine.state() == {}  # nothing mutated

    def test_read_cost_serializes_service(self):
        # Two reads arriving together leave the replica one read_cost
        # apart: the replica is a serial read pipeline at rate 1/cost.
        network, server, sink = build_server(OARConfig(read_cost=4.0))
        server.machine.apply(("set", "k", "v1"))
        server.on_message("c1", ReadRequest("c1-r0", "c1", ("get", "k")))
        server.on_message("c1", ReadRequest("c1-r1", "c1", ("get", "k")))
        network.sim.run()
        assert [r.rid for _s, r in sink.replies] == ["c1-r0", "c1-r1"]
        exec_times = [
            event.time for event in network.trace.events(kind="read_exec")
        ]
        assert exec_times == [4.0, 8.0]


class _ReadSink(Process):
    """Stands in for a replica: records ReadRequests, never answers."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.read_requests = []

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, ReadRequest):
            self.read_requests.append(payload)


def build_client(read_mode: str, n_servers: int = 3, **kwargs):
    sim = Simulator(seed=0)
    network = SimNetwork(sim, latency=ConstantLatency(1.0))
    group = [f"p{i + 1}" for i in range(n_servers)]
    sinks = {pid: _ReadSink(pid) for pid in group}
    for sink in sinks.values():
        network.add_process(sink)
    client = OARClient(
        "c1",
        group,
        read_mode=read_mode,
        is_read_only=KVStoreMachine.is_read_only,
        **kwargs,
    )
    network.add_process(client)
    network.start_all()
    return sim, client, sinks


def read_reply(rid, value, position=3, settled=3, epoch=0, round=0):
    from repro.statemachine.base import OpResult

    return ReadReply(
        rid=rid, value=OpResult(ok=True, value=value),
        position=position, settled=settled, epoch=epoch, round=round,
    )


class TestClientReadModes:
    def test_sequencer_mode_never_takes_the_read_path(self):
        sim, client, sinks = build_client("sequencer")
        rid = client.submit(("get", "k"))
        assert not rid.startswith("c1-r")
        assert client.read_rids == set()

    def test_optimistic_targets_one_replica_round_robin(self):
        sim, client, sinks = build_client("optimistic")
        for _ in range(3):
            client.submit(("get", "k"))
        sim.run(until=5.0)  # sinks never answer; stop before any retry
        assert [len(s.read_requests) for s in sinks.values()] == [1, 1, 1]

    def test_optimistic_adopts_first_reply(self):
        sim, client, sinks = build_client("optimistic")
        rid = client.submit(("get", "k"))
        client.on_message("p1", read_reply(rid, "v7"))
        assert rid in client.adopted
        adopted = client.adopted[rid]
        assert adopted.value.value == "v7"
        assert not adopted.conservative
        assert adopted.weight == ("p1",)
        assert client.outstanding == 0

    def test_conservative_needs_matching_majority(self):
        sim, client, sinks = build_client("conservative")
        rid = client.submit(("get", "k"))
        sim.run(until=5.0)
        # Every replica was polled.
        assert all(len(s.read_requests) == 1 for s in sinks.values())
        client.on_message("p1", read_reply(rid, "v7"))
        assert rid not in client.adopted  # one voice is not a majority
        client.on_message("p2", read_reply(rid, "v8"))
        assert rid not in client.adopted  # two distinct values
        client.on_message("p3", read_reply(rid, "v7", position=5, settled=5))
        assert rid in client.adopted
        adopted = client.adopted[rid]
        assert adopted.conservative
        assert adopted.weight == ("p1", "p3")
        # The freshest matching observation's position is reported.
        assert adopted.position == 5

    def test_conservative_repolls_on_split_vote(self):
        # retry_interval pinned far out so only the split-vote re-poll
        # (paced by read_retry_delay) drives the resend in this test.
        sim, client, sinks = build_client(
            "conservative", read_retry_delay=2.0, retry_interval=1000.0
        )
        rid = client.submit(("get", "k"))
        sim.run(until=3.0)
        for pid, value in (("p1", "a"), ("p2", "b"), ("p3", "c")):
            client.on_message(pid, read_reply(rid, value))
        assert rid not in client.adopted
        sim.run(until=7.0)  # re-poll at t=5 arrives at the sinks at t=6
        assert all(len(s.read_requests) == 2 for s in sinks.values())
        assert all(s.read_requests[-1].round == 1 for s in sinks.values())
        # Converged second round: majority forms from fresh replies only.
        client.on_message("p1", read_reply(rid, "z", round=1))
        client.on_message("p2", read_reply(rid, "z", round=1))
        assert rid in client.adopted

    def test_conservative_ignores_straggler_from_superseded_round(self):
        # A round-0 reply arriving after the re-poll must not combine
        # with round-1 replies into a majority no instant ever held.
        sim, client, sinks = build_client(
            "conservative", read_retry_delay=2.0, retry_interval=1000.0
        )
        rid = client.submit(("get", "k"))
        sim.run(until=3.0)
        for pid, value in (("p1", "v"), ("p2", "b"), ("p3", "c")):
            client.on_message(pid, read_reply(rid, value))
        sim.run(until=7.0)  # round 1 polled
        client.on_message("p1", read_reply(rid, "v", round=0))  # straggler
        client.on_message("p2", read_reply(rid, "v", round=1))
        assert rid not in client.adopted  # 1 fresh voice, not a majority
        client.on_message("p3", read_reply(rid, "v", round=1))
        assert rid in client.adopted

    def test_optimistic_retry_rotates_target(self):
        # Backoff: base 10, so retries fire at t=10 and t=10+20=30.
        sim, client, sinks = build_client("optimistic", retry_interval=10.0)
        client.submit(("get", "k"))
        sim.run(until=35.0)
        # Initial send to p1, retries rotate to p2 then p3.
        polled = [pid for pid, s in sinks.items() if s.read_requests]
        assert polled == ["p1", "p2", "p3"]
        assert client.read_retransmissions == 2

    def test_reads_retry_even_without_retry_interval(self):
        # The default-config liveness hole: a read sent to a dead
        # replica must still be re-sent eventually (the lazy default
        # interval with backoff), or it hangs forever.
        sim, client, sinks = build_client("optimistic")
        client.submit(("get", "k"))
        default = OARClient.DEFAULT_READ_RETRY_INTERVAL
        sim.run(until=default + 5.0)  # first retry at t=default
        assert client.read_retransmissions == 1
        polled = [pid for pid, s in sinks.items() if s.read_requests]
        assert polled == ["p1", "p2"]

    def test_reads_count_as_outstanding(self):
        sim, client, sinks = build_client("optimistic")
        rid = client.submit(("get", "k"))
        assert client.outstanding == 1
        client.on_message("p1", read_reply(rid, "v"))
        assert client.outstanding == 0
