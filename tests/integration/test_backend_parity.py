"""One description, one deployment: the builder places and drives the
same thing on the simulator and on TCP sockets.

What is compared is what the builder decides, not what the schedule
does with it: pids and their placement order, each shard's replica state
before any traffic, the routing epoch, and -- from a closed-loop run,
where the next op is submitted only when the previous one was adopted --
every client's sequence of submitted rids and ops.  One replication
group (``n_shards=1``) is placed under the paper's replica names, and a
baseline protocol's group runs over sockets as on the simulator.
"""

from typing import Any, Dict, List, Tuple

import pytest

from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.harness.scenario import ScenarioConfig
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import (
    BASELINE_SERVERS,
    ShardedRun,
    ShardedScenarioConfig,
    place_sharded_scenario,
    run_sharded_scenario,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Process

pytestmark = pytest.mark.integration

_HOSTS = {
    "sim": lambda: SimNetwork(Simulator(seed=0)),
    "tcp": TcpCluster,
}

_SCENARIOS = {
    "kv": dict(n_shards=2, machine="kv", workload="uniform", n_keys=32),
    "bank": dict(n_shards=2, machine="bank", workload="cross", cross_ratio=0.4),
    "one-group-kv": dict(n_shards=1, machine="kv", workload="uniform", n_keys=32),
}


def _config(scenario: str) -> ShardedScenarioConfig:
    return ShardedScenarioConfig(
        seed=17, n_servers=3, n_clients=3, requests_per_client=12,
        driver="closed", **_SCENARIOS[scenario],
    )


def _placement(backend: str, config: ShardedScenarioConfig) -> Dict[str, Any]:
    host = _HOSTS[backend]()
    run = place_sharded_scenario(config, host)
    return {
        "shard_groups": run.shard_groups,
        "pids": host.pids,
        "machine_state": [[s.machine.state() for s in shard] for shard in run.shards],
        "epoch": (run.routing_table.epoch, [c.router.epoch for c in run.clients]),
        "key_universe": run.key_universe,
        "initial_total": run.initial_total,
    }


def _submitted(view: ShardedRun) -> Dict[str, List[Tuple[str, Tuple[Any, ...]]]]:
    """Per client: the (rid, op) of every ``submit``, in submission order."""
    by_client: Dict[str, List[Tuple[str, Tuple[Any, ...]]]] = {
        client.pid: [] for client in view.clients
    }
    for event in view.trace.events(kind="submit"):
        by_client[event.pid].append((event["rid"], event["op"]))
    return by_client


@pytest.mark.parametrize("backend", ["tcp"])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_real_backend_deploys_what_the_simulator_deploys(scenario, backend):
    config = _config(scenario)
    placed = _placement(backend, config)
    assert placed == _placement("sim", config)
    if config.n_shards == 1:  # one group: the paper's replica names
        assert placed["shard_groups"] == (("p1", "p2", "p3"),)

    reference = run_sharded_scenario(config)
    run = run_runtime_scenario(RuntimeScenarioConfig(scenario=config, backend=backend))
    assert reference.all_done() and run.completed
    submitted = _submitted(run.view)
    assert submitted == _submitted(reference)
    assert all(len(ops) >= config.requests_per_client for ops in submitted.values())
    assert run.view.routing_table.epoch == reference.routing_table.epoch == 0


#: case id -> (protocol, fields over the one-group defaults).  A keyed
#: workload gives the machine ownership books, so every passive
#: ``StateUpdate`` snapshot carries the ``set`` of owned keys.
_BASELINE_CASES = {
    **{protocol: (protocol, {}) for protocol in sorted(BASELINE_SERVERS)},
    "passive-kv-uniform": ("passive", dict(workload="uniform", n_keys=16)),
    "passive-bank-uniform": ("passive", dict(machine="bank", workload="uniform", n_keys=16)),
}


@pytest.mark.parametrize("backend", ["tcp"])
@pytest.mark.parametrize("case", list(_BASELINE_CASES))
def test_a_baseline_group_runs_on_the_real_backends_as_on_the_simulator(case, backend):
    protocol, fields = _BASELINE_CASES[case]
    config = ScenarioConfig(**{
        "protocol": protocol, "machine": "kv", "seed": 17, "n_clients": 3,
        "requests_per_client": 12, **fields,
    })
    reference = run_sharded_scenario(config)
    run = run_runtime_scenario(RuntimeScenarioConfig(scenario=config, backend=backend))
    assert reference.all_done() and run.completed
    assert run.view.server_pids == reference.server_pids == ["p1", "p2", "p3"]
    submitted = _submitted(run.view)
    assert submitted == _submitted(reference)
    assert all(len(ops) == config.requests_per_client for ops in submitted.values())
    run.check_all()  # the two ledgers and replica convergence, over sockets


class _Sender(Process):
    def on_message(self, src: str, payload: Any) -> None:
        pass


def test_a_send_to_a_pid_nobody_hosts_raises_on_every_backend():
    """The simulator refuses a destination it does not host; the TCP
    host does the same while it runs, and once shut down a late send
    goes nowhere (counted as dropped)."""
    network = SimNetwork(Simulator(seed=0))
    sender = _Sender("a")
    network.start(sender)
    with pytest.raises(KeyError, match="unknown destination: nobody"):
        sender.env.send("nobody", "hello")

    cluster = TcpCluster(trace_level="off")
    sender = _Sender("a")
    cluster.add_process(sender)
    cluster.start_all()
    try:
        with pytest.raises(KeyError, match="unknown destination: nobody"):
            sender.env.send("nobody", "hello")
    finally:
        cluster.shutdown()
    sender.env.send("nobody", "too late")
    stats = cluster.stats()
    assert stats["dropped_frames"] == 1 and stats["frames_sent"] == 0
