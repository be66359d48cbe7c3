"""Unit tests for the wall-clock host's plumbing (timers, crash, routing)."""

import asyncio
import sys
from typing import Any, List

import pytest

from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedScenarioConfig
from repro.sim.process import Process

pytestmark = pytest.mark.unit


class Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Any] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


class TestTcpCluster:
    def test_route_and_mutual_exclusion(self):
        async def scenario():
            cluster = TcpCluster()
            a, b = Recorder("a"), Recorder("b")
            cluster.add_process(a)
            cluster.add_process(b)
            await cluster.start()
            for index in range(20):
                a.env.send("b", index)
            await cluster.run_until(lambda: len(b.received) == 20, timeout=5)
            await cluster.shutdown()
            return b.received

        received = asyncio.run(scenario())
        assert [payload for _src, payload in received] == list(range(20))

    def test_crashed_process_neither_sends_nor_receives(self):
        async def scenario():
            cluster = TcpCluster()
            a, b = Recorder("a"), Recorder("b")
            cluster.add_process(a)
            cluster.add_process(b)
            await cluster.start()
            cluster.crash("b")
            a.env.send("b", "into the void")
            b.env.send("a", "from the grave")
            await asyncio.sleep(0.05)
            await cluster.shutdown()
            return a.received, b.received, b.crashed

        a_received, b_received, b_crashed = asyncio.run(scenario())
        assert b_crashed
        assert b_received == []
        assert a_received == []

    def test_timer_fires_and_cancel_prevents(self):
        async def scenario():
            cluster = TcpCluster()
            a = Recorder("a")
            cluster.add_process(a)
            await cluster.start()
            fired = []
            handle1 = a.env.set_timer(0.01, lambda: fired.append("one"))
            handle2 = a.env.set_timer(0.01, lambda: fired.append("two"))
            handle2.cancel()
            await asyncio.sleep(0.05)
            await cluster.shutdown()
            return fired, handle1, handle2

        fired, handle1, handle2 = asyncio.run(scenario())
        assert fired == ["one"]
        assert handle1.fired and handle1.active is False
        assert handle2.cancelled and not handle2.fired

    def test_timers_suppressed_after_crash(self):
        async def scenario():
            cluster = TcpCluster()
            a = Recorder("a")
            cluster.add_process(a)
            await cluster.start()
            fired = []
            a.env.set_timer(0.02, lambda: fired.append("x"))
            cluster.crash("a")
            await asyncio.sleep(0.05)
            await cluster.shutdown()
            return fired

        assert asyncio.run(scenario()) == []

    def test_duplicate_pid_rejected(self):
        async def scenario():
            cluster = TcpCluster()
            cluster.add_process(Recorder("a"))
            with pytest.raises(ValueError, match="duplicate"):
                cluster.add_process(Recorder("a"))
            await cluster.start()
            with pytest.raises(RuntimeError, match="already started"):
                cluster.add_process(Recorder("b"))
            await cluster.shutdown()

        asyncio.run(scenario())

    def test_trace_records_with_cluster_clock(self):
        async def scenario():
            cluster = TcpCluster()
            a = Recorder("a")
            cluster.add_process(a)
            await cluster.start()
            a.env.trace("custom", x=1)
            await cluster.shutdown()
            return cluster.trace.events(kind="custom")

        events = asyncio.run(scenario())
        assert len(events) == 1
        assert events[0].pid == "a"
        assert events[0].time >= 0.0

    def test_per_process_rng_deterministic_by_seed(self):
        async def draws(seed):
            cluster = TcpCluster(seed=seed)
            a = Recorder("a")
            cluster.add_process(a)
            await cluster.start()
            values = [a.env.rng.random() for _ in range(5)]
            await cluster.shutdown()
            return values

        first = asyncio.run(draws(7))
        second = asyncio.run(draws(7))
        third = asyncio.run(draws(8))
        assert first == second
        assert first != third


class TestDecodedNames:
    def test_bodies_name_clients_and_keys_by_the_processs_strings(self):
        """Over TCP every replica keeps the request bodies it decoded.
        Pids and keys are interned where they are minted, so ``marshal``
        decodes them to this process's one string; rids are not (their
        vocabulary has no bound), so each body keeps its own."""
        run = run_runtime_scenario(RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                n_shards=1, n_servers=3, n_clients=2, requests_per_client=5,
                machine="kv", workload="uniform", trace_level="off", seed=5,
            ),
            backend="tcp",
        ))
        assert run.completed and len(run.adopted()) == 10
        for server in run.view.servers:
            bodies = list(server.requests.values())
            assert len(bodies) == 10
            for body in bodies:
                assert sys.intern(body.client) is body.client
                assert sys.intern(body.op[1]) is body.op[1]
                # An equal string built here interns to itself, not to
                # the body's rid: nothing interned that rid.
                assert sys.intern("".join(body.rid)) is not body.rid
