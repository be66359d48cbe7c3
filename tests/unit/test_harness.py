"""Unit tests for the scenario harness and component plumbing."""

import random

import pytest

from repro.faults.injection import random_fault_schedule
from repro.harness.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario
from repro.sim.component import Component, ComponentProcess
from repro.sim.latency import (
    ConstantLatency,
    LanProfile,
    NormalLatency,
    PerLinkLatency,
    UniformLatency,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

pytestmark = pytest.mark.unit



class TestScenarioConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_scenario(ScenarioConfig(protocol="carrier-pigeon"))

    def test_a_baseline_replicates_one_group_only(self):
        with pytest.raises(ValueError, match="sequencer baseline replicates one group"):
            build_scenario(ScenarioConfig(protocol="sequencer", n_shards=2))

    def test_one_group_is_the_one_shard_case_of_the_one_builder(self):
        assert run_scenario is run_sharded_scenario
        config = ScenarioConfig(machine="kv")
        assert type(config) is ShardedScenarioConfig
        assert (config.n_shards, config.n_clients, config.workload) == (1, 1, "single")
        assert ScenarioConfig(machine="kv", read_ratio=0.5).workload == "readheavy"
        assert ScenarioConfig(machine="bank", read_ratio=0.5).workload == "single"
        # One group keeps the paper's replica names; N groups prefix them.
        assert build_scenario(config).server_pids == ["p1", "p2", "p3"]
        sharded = build_scenario(config.with_changes(n_shards=2, workload="uniform"))
        assert sharded.server_pids[:2] == ["s0.p1", "s0.p2"]

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            build_scenario(ScenarioConfig(machine="turing"))

    def test_unknown_fd_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fd kind"):
            build_scenario(ScenarioConfig(fd_kind="tarot"))

    def test_with_changes_copies(self):
        base = ScenarioConfig(n_servers=3)
        derived = base.with_changes(n_servers=5, seed=9)
        assert base.n_servers == 3
        assert derived.n_servers == 5
        assert derived.seed == 9

    def test_build_wires_expected_processes(self):
        run = build_scenario(ScenarioConfig(n_servers=4, n_clients=2))
        assert run.server_pids == ["p1", "p2", "p3", "p4"]
        assert [c.pid for c in run.clients] == ["c1", "c2"]
        assert set(run.detectors) == {"p1", "p2", "p3", "p4"}

    def test_each_server_gets_its_own_machine(self):
        run = build_scenario(ScenarioConfig(n_servers=3))
        machines = {id(s.machine) for s in run.servers}
        assert len(machines) == 3

    def test_scripted_fd_kind(self):
        from repro.failure.detector import ScriptedFailureDetector

        run = build_scenario(ScenarioConfig(fd_kind="scripted"))
        assert all(
            isinstance(fd, ScriptedFailureDetector)
            for fd in run.detectors.values()
        )

    def test_arm_hook_runs_before_simulation(self):
        seen = {}

        def arm(run):
            seen["time"] = run.sim.now
            seen["servers"] = len(run.servers)

        run = run_scenario(
            ScenarioConfig(requests_per_client=1, arm=arm, seed=1)
        )
        assert seen == {"time": 0.0, "servers": 3}
        assert run.all_done()

    def test_horizon_stops_runaway_scenarios(self):
        # A zero-request config with heartbeats never quiesces by itself;
        # the horizon bounds it.
        run = run_scenario(
            ScenarioConfig(requests_per_client=0, horizon=50.0, grace=1.0)
        )
        assert run.sim.now <= 60.0

    def test_run_exposes_adoptions_and_latencies(self):
        run = run_scenario(ScenarioConfig(requests_per_client=3, seed=2))
        assert len(run.adopted()) == 3
        assert len(run.latencies()) == 3
        assert len(run.submitted_rids()) == 3

    @pytest.mark.parametrize("protocol", ["oar", "sequencer"])
    def test_check_all_refuses_a_run_without_a_trace(self, protocol):
        run = run_scenario(
            ScenarioConfig(protocol=protocol, requests_per_client=3, trace_level="off")
        )
        assert run.all_done()
        with pytest.raises(ValueError, match='trace_level="full"'):
            run.check_all()

    def test_sharded_check_all_refuses_a_run_without_a_trace(self):
        run = run_sharded_scenario(
            ShardedScenarioConfig(requests_per_client=3, trace_level="off")
        )
        assert run.all_done()
        with pytest.raises(ValueError, match='trace_level="full"'):
            run.check_all()


class TestComponentDispatch:
    class PingComponent(Component):
        MESSAGE_TYPES = (int,)

        def __init__(self, host):
            super().__init__(host)
            self.got = []

        def on_message(self, src, payload):
            self.got.append((src, payload))

    class Host(ComponentProcess):
        def __init__(self, pid):
            super().__init__(pid)
            self.app_messages = []

        def on_app_message(self, src, payload):
            self.app_messages.append((src, payload))

    def test_routing_by_type(self):
        sim = Simulator()
        network = SimNetwork(sim)
        host = self.Host("h")
        ping = host.add_component(self.PingComponent(host))
        other = self.Host("o")
        network.add_process(host)
        network.add_process(other)
        network.start_all()
        other.env.send("h", 42)  # -> component
        other.env.send("h", "text")  # -> app handler
        sim.run()
        assert ping.got == [("o", 42)]
        assert host.app_messages == [("o", "text")]

    def test_component_env_requires_started_host(self):
        host = self.Host("h")
        component = self.PingComponent(host)
        with pytest.raises(RuntimeError, match="before host start"):
            _ = component.env


class TestLatencyModels:
    def test_constant(self):
        rng = random.Random(0)
        assert ConstantLatency(2.5).sample(rng, "a", "b") == 2.5
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_bounds(self):
        rng = random.Random(0)
        model = UniformLatency(1.0, 2.0)
        for _ in range(100):
            assert 1.0 <= model.sample(rng, "a", "b") <= 2.0
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_normal_truncates(self):
        rng = random.Random(0)
        model = NormalLatency(mean=0.1, stddev=5.0, minimum=0.05)
        assert all(
            model.sample(rng, "a", "b") >= 0.05 for _ in range(200)
        )
        with pytest.raises(ValueError):
            NormalLatency(mean=-1)

    def test_lan_profile_spikes(self):
        rng = random.Random(0)
        calm = LanProfile(base=1.0, jitter=0.0, spike_probability=0.0)
        assert calm.sample(rng, "a", "b") == 1.0
        spiky = LanProfile(
            base=1.0, jitter=0.0, spike_probability=1.0, spike_factor=7.0
        )
        assert spiky.sample(rng, "a", "b") == 7.0
        with pytest.raises(ValueError):
            LanProfile(spike_probability=2.0)

    def test_per_link_overrides(self):
        rng = random.Random(0)
        model = PerLinkLatency(
            ConstantLatency(1.0), {("a", "b"): ConstantLatency(9.0)}
        )
        assert model.sample(rng, "a", "b") == 9.0
        assert model.sample(rng, "b", "a") == 1.0
        model.set_link("b", "a", ConstantLatency(5.0))
        assert model.sample(rng, "b", "a") == 5.0

    def test_reprs_are_informative(self):
        assert "2.5" in repr(ConstantLatency(2.5))
        assert "Uniform" in repr(UniformLatency())
        assert "Normal" in repr(NormalLatency())
        assert "LanProfile" in repr(LanProfile())
        assert "PerLink" in repr(PerLinkLatency(ConstantLatency(1.0), {}))


class TestRandomFaultSchedules:
    def test_respects_majority_bound(self):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="majority"):
            random_fault_schedule(rng, ["p1", "p2", "p3"], 100.0, max_crashes=2)

    def test_deterministic_per_rng_seed(self):
        pids = ["p1", "p2", "p3", "p4", "p5"]
        a = random_fault_schedule(
            random.Random(7), pids, 100.0, 2, suspicion_rate=0.5,
            partition_probability=1.0,
        )
        b = random_fault_schedule(
            random.Random(7), pids, 100.0, 2, suspicion_rate=0.5,
            partition_probability=1.0,
        )
        assert [(x.time, x.kind, x.target) for x in a.actions] == [
            (x.time, x.kind, x.target) for x in b.actions
        ]

    def test_actions_sorted_by_time(self):
        schedule = random_fault_schedule(
            random.Random(3), ["p1", "p2", "p3", "p4", "p5"], 100.0, 2,
            suspicion_rate=0.8, partition_probability=1.0,
        )
        times = [action.time for action in schedule.actions]
        assert times == sorted(times)

    def test_partition_isolates_minority_only(self):
        for seed in range(10):
            schedule = random_fault_schedule(
                random.Random(seed), ["p1", "p2", "p3", "p4", "p5"], 100.0, 0,
                partition_probability=1.0,
            )
            partitions = [
                action for action in schedule.actions
                if action.kind == "partition"
            ]
            for action in partitions:
                minority = action.target[0]
                assert len(minority) <= 2  # < majority of 5
