"""One description, one deployment: the builder places and drives the
same thing on the simulator, on asyncio queues and on TCP sockets.

What is compared is what the builder decides, not what the schedule
does with it: pids and their placement order, each shard's replica state
before any traffic, the routing epoch, and -- from a closed-loop run,
where the next op is submitted only when the previous one was adopted --
every client's sequence of submitted rids and ops.
"""

from typing import Any, Dict, List, Tuple

import pytest

from repro.runtime.host import AsyncioCluster
from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import (
    ShardedRun,
    ShardedScenarioConfig,
    place_sharded_scenario,
    run_sharded_scenario,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

pytestmark = pytest.mark.integration

_HOSTS = {
    "sim": lambda: SimNetwork(Simulator(seed=0)),
    "asyncio": AsyncioCluster,
    "tcp": TcpCluster,
}

_SCENARIOS = {
    "kv": dict(machine="kv", workload="uniform", n_keys=32),
    "bank": dict(machine="bank", workload="cross", cross_ratio=0.4),
}


def _config(machine: str) -> ShardedScenarioConfig:
    return ShardedScenarioConfig(
        seed=17, n_shards=2, n_servers=3, n_clients=3, requests_per_client=12,
        driver="closed", **_SCENARIOS[machine],
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


@pytest.mark.parametrize("backend", ["asyncio", "tcp"])
@pytest.mark.parametrize("machine", sorted(_SCENARIOS))
def test_real_backend_deploys_what_the_simulator_deploys(machine, backend):
    config = _config(machine)
    assert _placement(backend, config) == _placement("sim", config)

    reference = run_sharded_scenario(config)
    run = run_runtime_scenario(RuntimeScenarioConfig(scenario=config, backend=backend))
    assert reference.all_done() and run.completed
    submitted = _submitted(run.view)
    assert submitted == _submitted(reference)
    assert all(len(ops) >= config.requests_per_client for ops in submitted.values())
    assert run.view.routing_table.epoch == reference.routing_table.epoch == 0
