"""Declarative scenario construction and execution.

A :class:`ScenarioConfig` describes a complete deployment: protocol,
group size, state machine, latency model, failure detector, workload and
fault schedule.  :func:`run_scenario` builds it on a fresh deterministic
simulator, runs it to quiescence (all submitted requests adopted) plus a
grace period, and returns a :class:`ScenarioRun` with everything the
checkers, benchmarks and examples need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.analysis import checkers
from repro.broadcast.ct_abcast import CTAtomicBroadcastServer
from repro.broadcast.sequencer import SequencerAtomicBroadcastServer
from repro.core.client import OARClient
from repro.core.server import OARServer
from repro.failure.detector import FailureDetector
from repro.replication.active import FirstReplyClient
from repro.replication.passive import PassiveReplicationServer
from repro.sharding.cluster import (
    MACHINE_CLASSES,
    BaseRun,
    BaseScenarioConfig,
    CheckedGroup,
    fd_factory,
    make_driver,
    resolve_oar,
    sim_network,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import BankMachine
from repro.workload.drivers import ClosedLoopDriver, OpenLoopDriver
from repro.workload.generators import (
    bank_ops,
    counter_ops,
    kv_ops,
    read_heavy_kv_ops,
    stack_ops,
)

PROTOCOLS = ("oar", "sequencer", "ct", "passive")


@dataclass
class ScenarioConfig(BaseScenarioConfig):
    """Everything needed to reproduce one single-group experiment run."""

    protocol: str = "oar"


@dataclass
class ScenarioRun(BaseRun):
    """A built (and, after ``execute``, completed) scenario."""

    config: ScenarioConfig
    sim: Simulator
    network: SimNetwork
    servers: List[Any]

    @property
    def server_pids(self) -> List[str]:
        return [server.pid for server in self.servers]

    @property
    def correct_servers(self) -> List[Any]:
        return [s for s in self.servers if not s.crashed]

    def submitted_rids(self) -> List[str]:
        """The drivers' submissions; for a run scripted through
        ``client.submit`` instead (the figures), the ``submit`` events
        every client traces -- one group, so each is a logical request."""
        return super().submitted_rids() or [
            event["rid"] for event in self.trace.events(kind="submit")
        ]

    def latencies(self) -> List[float]:
        return [event["latency"] for event in self.trace.events(kind="adopt")]

    def _groups(self) -> List[CheckedGroup]:
        if self.config.protocol != "oar":
            return []
        return [
            (self.servers, self.submitted_rids(), lambda: _make_machine(self.config.machine), None)
        ]

    def _check_own(self, quiescent: bool) -> None:
        if self.config.protocol != "oar":
            # The baselines promise replicated state, not the paper's
            # properties.
            checkers.check_replica_convergence(self.servers)


def _make_machine(kind: str) -> Any:
    if kind == "bank":  # the bank starts with seeded accounts
        return BankMachine({"alice": 1_000, "bob": 1_000, "carol": 1_000})
    cls = MACHINE_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown machine kind: {kind} (choose from {tuple(MACHINE_CLASSES)})")
    return cls()


def _make_ops(config: ScenarioConfig, rng: random.Random) -> Iterator[Tuple[Any, ...]]:
    kind = config.machine
    if kind == "counter":
        return counter_ops()
    if kind == "stack":
        return stack_ops(rng)
    if kind == "kv":
        if config.read_ratio is not None:
            keys = tuple(f"k{i:03d}" for i in range(config.n_keys))
            return read_heavy_kv_ops(
                rng, keys, s=config.zipf_s, read_ratio=config.read_ratio
            )
        return kv_ops(rng)
    if kind == "bank":
        return bank_ops(rng)
    raise ValueError(f"unknown machine kind: {kind}")


def build_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Construct (but do not run) the deployment described by ``config``."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol: {config.protocol} (choose from {PROTOCOLS})"
        )
    network = sim_network(config)
    sim = network.sim

    oar_config = resolve_oar(config)
    group = [f"p{i + 1}" for i in range(config.n_servers)]
    detectors: Dict[str, FailureDetector] = {}

    build_fd = fd_factory(config, group, detectors)

    servers: List[Any] = []
    for pid in group:
        machine = _make_machine(config.machine)
        if config.protocol == "oar":
            server: Any = OARServer(pid, group, machine, build_fd, oar_config)
        elif config.protocol == "sequencer":
            server = SequencerAtomicBroadcastServer(pid, group, machine, build_fd)
        elif config.protocol == "ct":
            server = CTAtomicBroadcastServer(pid, group, machine, build_fd)
        else:
            server = PassiveReplicationServer(pid, group, machine, build_fd)
        servers.append(server)
        network.add_process(server)

    clients: List[Any] = []
    for index in range(config.n_clients):
        cid = f"c{index + 1}"
        if config.protocol == "oar":
            client: Any = OARClient(
                cid,
                group,
                retry_interval=config.retry_interval,
                read_mode=oar_config.read_mode,
                is_read_only=MACHINE_CLASSES[config.machine].is_read_only,
            )
        else:
            reliable = config.protocol == "ct"
            client = FirstReplyClient(cid, group, reliable=reliable)
        clients.append(client)
        network.add_process(client)

    network.start_all()

    drivers = [
        make_driver(
            config,
            sim,
            client,
            _make_ops(config, sim.child_rng(f"ops/{client.pid}")),
            sim.child_rng(f"arrivals/{client.pid}"),
            ClosedLoopDriver,
            OpenLoopDriver,
        )
        for client in clients
    ]

    return ScenarioRun(
        config=config,
        sim=sim,
        network=network,
        servers=servers,
        clients=clients,
        drivers=drivers,
        detectors=detectors,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Build and execute a scenario; the usual one-call entry point."""
    return build_scenario(config).execute()
