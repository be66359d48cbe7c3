"""Unit tests for workload generators and client drivers."""

import itertools
import random

import pytest

from repro.statemachine import BankMachine, KVStoreMachine, StackMachine
from repro.workload.drivers import OpenLoopDriver
from repro.workload.generators import bank_ops, counter_ops, kv_ops, stack_ops
from repro.harness import ScenarioConfig, run_scenario

pytestmark = pytest.mark.unit



def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestGenerators:
    def test_counter_ops(self):
        assert take(counter_ops(), 3) == [("incr",)] * 3

    def test_stack_ops_deterministic_and_applicable(self):
        ops_a = take(stack_ops(random.Random(1)), 50)
        ops_b = take(stack_ops(random.Random(1)), 50)
        assert ops_a == ops_b
        machine = StackMachine()
        for op in ops_a:
            machine.apply(op)  # must never raise

    def test_stack_push_bias(self):
        ops = take(stack_ops(random.Random(2), push_bias=1.0), 20)
        assert all(op[0] == "push" for op in ops)
        names = {op[0] for op in take(stack_ops(random.Random(2), push_bias=0.0), 20)}
        assert names == {"pop"}

    def test_kv_ops_applicable(self):
        machine = KVStoreMachine()
        for op in take(kv_ops(random.Random(3)), 100):
            machine.apply(op)
        assert {op[0] for op in take(kv_ops(random.Random(3)), 100)} <= {
            "set",
            "cas",
            "get",
        }

    def test_bank_ops_applicable_and_deterministic(self):
        machine = BankMachine({"alice": 1000, "bob": 1000, "carol": 1000})
        ops = take(bank_ops(random.Random(4)), 200)
        assert ops == take(bank_ops(random.Random(4)), 200)
        for op in ops:
            machine.apply(op)
        kinds = {op[0] for op in ops}
        assert "transfer" in kinds


class TestDriversViaScenario:
    def test_closed_loop_submits_sequentially(self):
        run = run_scenario(
            ScenarioConfig(n_clients=1, requests_per_client=5, seed=11)
        )
        assert run.all_done()
        client = run.clients[0]
        assert len(client.adopted) == 5
        # Closed loop: next submit strictly after previous adoption.
        submits = sorted(
            e.time for e in run.trace.events(kind="submit", pid=client.pid)
        )
        adopts = sorted(
            e.time for e in run.trace.events(kind="adopt", pid=client.pid)
        )
        for i in range(1, len(submits)):
            assert submits[i] >= adopts[i - 1]

    def test_closed_loop_think_time(self):
        run = run_scenario(
            ScenarioConfig(
                n_clients=1, requests_per_client=3, think_time=10.0, seed=12
            )
        )
        submits = sorted(
            e.time for e in run.trace.events(kind="submit")
        )
        adopts = sorted(e.time for e in run.trace.events(kind="adopt"))
        assert submits[1] >= adopts[0] + 10.0

    def test_open_loop_poisson_arrivals(self):
        run = run_scenario(
            ScenarioConfig(
                n_clients=1,
                requests_per_client=20,
                driver="open",
                open_rate=5.0,
                seed=13,
            )
        )
        assert run.all_done()
        submits = [e.time for e in run.trace.events(kind="submit")]
        assert len(submits) == 20
        # Open loop does not wait for adoptions: several submissions can
        # precede the first adoption.
        first_adopt = min(e.time for e in run.trace.events(kind="adopt"))
        assert any(t < first_adopt for t in submits[1:])

    def test_open_loop_requires_positive_rate(self):
        from repro.sim.loop import Simulator

        with pytest.raises(ValueError):
            OpenLoopDriver(Simulator(), object(), iter(()), total=1, rate=0.0)

    def test_driver_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(driver="telepathic"))
