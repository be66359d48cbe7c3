"""The five named workloads: shapes, sizes and the reason each exists.

One *round* of a workload is one fresh cluster driven to quiescence at
the committed size below; a benchmark run repeats rounds (each in its
own process) for the requested number of seconds and reports medians.

Sizes are half the ones ISSUE 11 sized (``requests_per_client`` halved
on every workload, the paced window cut from 10 s to 4 s): the driver's
time cap leaves ~30 s per run, and a run wants five or more rounds for
its medians to be steady.  Per-op cost still grows with history inside a
round (``workload.throughput_decay`` shows it).

Only long-lived scenario fields are used -- no ``ScenarioConfig``,
``tcp_cluster_factory``, ``direct_dispatch``, ``encode_cache`` or
``codec="pickle"`` -- so the ROADMAP's simplification PRs need not touch
this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.server import OARConfig
from repro.faults.injection import FaultSchedule
from repro.runtime.scenario import RuntimeScenarioConfig
from repro.sharding.cluster import ShardedScenarioConfig
from repro.sim.latency import LanProfile

#: Wall-clock seconds per scenario time unit on the TCP backend
#: (``RuntimeScenarioConfig.time_scale``'s default, pinned here because
#: the open-loop rates below are stated per unit).
TIME_SCALE = 0.04

#: Size of the full-trace pass that puts each ``tcp_*`` workload's shape
#: through ``check_all()`` (kept small: the bundle is cubic today).
VERIFY_REQUESTS_PER_CLIENT = 60


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  #: one line, repeated in BENCHMARK.json
    backend: str  #: "tcp" or "sim"
    loop: str  #: how load is offered, for the README and the printout
    scenario: Callable[[int], ShardedScenarioConfig]  #: seed -> scenario
    #: TCP only: fields of the RuntimeScenarioConfig around the scenario.
    runtime: Optional[Dict[str, Any]] = None
    #: Simulated instant and pid of the injected crash, if any.
    crash: Optional[Tuple[float, str]] = None
    #: ``check_all()`` runs inside the timed region.
    checked: bool = False
    #: Offered well under capacity: the machine idles most of the time and
    #: its slow waves (see ``calibrate.py``) barely reach the drive phase
    #: (at 0.7 of nominal speed p50 is 8% up, not 43%), so the drive's
    #: numbers are reported as measured.  Set-up is a busy burst like any
    #: other and is brought to nominal speed.
    paced: bool = False

    def runtime_config(self, scenario: ShardedScenarioConfig) -> RuntimeScenarioConfig:
        return RuntimeScenarioConfig(
            scenario=scenario,
            backend="tcp",
            time_scale=TIME_SCALE,
            timeout=60.0,
            **(self.runtime or {}),
        )


def _tcp_write(seed: int, requests: int, open_rate: float) -> ShardedScenarioConfig:
    return ShardedScenarioConfig(
        n_shards=1, n_servers=3, n_clients=4, requests_per_client=requests,
        machine="kv", workload="uniform", driver="open", open_rate=open_rate,
        trace_level="off", seed=seed,
    )


def _tcp_write_sat(seed: int) -> ShardedScenarioConfig:
    # 500/unit = 12 500 ops/s per client, ~20x what one loop adopts.
    return _tcp_write(seed, requests=1000, open_rate=500.0)


def _tcp_write_paced(seed: int) -> ShardedScenarioConfig:
    # 2/unit = 50 ops/s per client x 4 for 4 s, about a third of capacity.
    return _tcp_write(seed, requests=200, open_rate=50.0 * TIME_SCALE)


def _tcp_read_heavy(seed: int) -> ShardedScenarioConfig:
    return ShardedScenarioConfig(
        n_shards=1, n_servers=3, n_clients=4, requests_per_client=2500,
        machine="kv", workload="readheavy", read_ratio=0.9, zipf_s=1.2,
        read_mode="optimistic", driver="closed", trace_level="off", seed=seed,
    )


def _sim_shard_write(seed: int) -> ShardedScenarioConfig:
    # 64 keys, not the default 32: those hash 15/7/3/7 onto the four
    # shards, which parks shard 0 at 94% of its ordering capacity and
    # makes p90 swing by a quarter from seed to seed.  64 keys land
    # 23/15/12/14 (busiest shard at 72%).
    return ShardedScenarioConfig(
        n_shards=4, n_servers=3, n_clients=8, requests_per_client=750, n_keys=64,
        machine="kv", workload="uniform", driver="open", open_rate=0.5,
        oar=OARConfig(order_cost=0.5), exec_cost=0.25, exec_lanes=2,
        trace_level="off", seed=seed,
    )


_FAILOVER_REQUESTS = 64
_FAILOVER_RATE = 0.2
#: Mid-way through the offered schedule, so requests due during the
#: outage are on the books.
_FAILOVER_CRASH = (_FAILOVER_REQUESTS / _FAILOVER_RATE / 2, "s0.p1")


def _sim_failover_checked(seed: int) -> ShardedScenarioConfig:
    return ShardedScenarioConfig(
        n_shards=2, n_servers=3, n_clients=4, requests_per_client=_FAILOVER_REQUESTS,
        machine="bank", workload="cross", cross_ratio=0.3,
        driver="open", open_rate=_FAILOVER_RATE,
        latency=LanProfile(1.0, 0.3, 0.02, 4.0),
        fd_kind="heartbeat", fd_interval=1.0, fd_timeout=6.0,
        fault_schedule=FaultSchedule().crash(*_FAILOVER_CRASH),
        trace_level="full", seed=seed,
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="tcp_write_sat",
        why="TCP, 3 replicas, 4x1000 ordered kv writes offered at ~20x capacity with a 2 ms "
        "flush window: adopted ops/s over sockets; codec, tcp, R-multicast, server, sequences",
        backend="tcp",
        loop="open, due-time schedule, 12 500 ops/s per client x 4 (saturating)",
        scenario=_tcp_write_sat,
        runtime={"tcp_flush_interval": 0.002},
    ),
    Workload(
        name="tcp_write_paced",
        why="same cluster, turn-boundary flush, Poisson 4x50 ops/s (a third of capacity) timed "
        "from due: where batching windows show their latency cost and idle overhead its CPU",
        backend="tcp",
        loop="open, due-time schedule, 50 ops/s per client x 4 for 4 s",
        scenario=_tcp_write_paced,
        paced=True,
    ),
    Workload(
        name="tcp_read_heavy",
        why="TCP, 90/10 Zipf-1.2 kv mix, optimistic replica-local reads, closed loop 4x2500: "
        "90% of ops bypass R-multicast, sequencer and undo log; a write-path gain predicts no change",
        backend="tcp",
        loop="closed, 4 clients, no think time",
        scenario=_tcp_read_heavy,
    ),
    Workload(
        name="sim_shard_write",
        why="sim, 4 shards x 3, 8x750 kv writes, open 0.5/unit, order_cost 0.5, 2 exec lanes: "
        "sim.loop, sim.network, sharding and core.execution work hardest, runtime.* does nothing",
        backend="sim",
        loop="open, Poisson 0.5 ops/unit per client x 8 (half of ordering capacity)",
        scenario=_sim_shard_write,
    ),
    Workload(
        name="sim_failover_checked",
        why="sim, 2 shards x 3, bank with 30% cross-shard 2PC, sequencer s0.p1 crashed mid-run, "
        "full trace, check_all() timed: consensus, failure detector, trace and checkers only matter here",
        backend="sim",
        loop="open, Poisson 0.2 ops/unit per client x 4, crash at t=160",
        scenario=_sim_failover_checked,
        crash=_FAILOVER_CRASH,
        checked=True,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def round_seed(seed: int, round_index: int) -> int:
    """The scenario seed of one round: a function of ``--seed`` and the round."""
    return seed * 1000 + round_index
