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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import checkers
from repro.broadcast.ct_abcast import CTAtomicBroadcastServer
from repro.broadcast.sequencer import SequencerAtomicBroadcastServer
from repro.core.client import OARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import FailureDetector
from repro.faults.injection import FaultSchedule
from repro.replication.active import FirstReplyClient
from repro.replication.passive import PassiveReplicationServer
from repro.sharding.cluster import (
    MACHINE_CLASSES,
    fd_factory,
    make_driver,
    run_to_quiescence,
    sim_network,
)
from repro.sim.latency import LatencyModel
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.trace import TraceLog
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
class ScenarioConfig:
    """Everything needed to reproduce one experiment run."""

    protocol: str = "oar"
    n_servers: int = 3
    n_clients: int = 1
    requests_per_client: int = 20
    machine: str = "counter"
    seed: int = 0

    #: One-way link delay model; None = constant 1.0 (one phase per hop).
    latency: Optional[LatencyModel] = None

    #: "heartbeat" (live ◇S implementation) or "scripted" (suspicions are
    #: injected explicitly -- used by figure-exact scenarios).
    fd_kind: str = "heartbeat"
    fd_interval: float = 5.0
    fd_timeout: float = 15.0

    #: OAR-specific knobs (ignored by other protocols).
    oar: OARConfig = field(default_factory=OARConfig)

    #: How clients execute read-only operations: None defers to
    #: ``oar.read_mode`` (default "sequencer", the paper's base
    #: protocol); "optimistic" / "conservative" enable the
    #: replica-local read path (OAR protocol only).
    read_mode: Optional[str] = None

    #: Replica execution service model overrides: None defers to
    #: ``oar.exec_cost`` / ``oar.exec_lanes`` (default: free inline
    #: execution).  Setting them here builds the servers with a
    #: per-operation execution cost and that many conflict-scheduled
    #: worker lanes (benchmark B13).
    exec_cost: Optional[float] = None
    exec_lanes: Optional[int] = None

    #: When set (kv machine only), the workload becomes the Zipf-skewed
    #: read-heavy mix of ``read_heavy_kv_ops`` with this read fraction
    #: over ``n_keys`` keys -- the B12 read-scaling workload.
    read_ratio: Optional[float] = None
    n_keys: int = 16
    zipf_s: float = 1.2

    #: "closed" (latency-oriented), "open" (Poisson arrivals at
    #: ``open_rate`` requests/time-unit per client) or "session" (the
    #: overload harness: an arrival process multiplexing ``n_sessions``
    #: logical sessions per client, optional client-side token bucket,
    #: streaming latency recorder -- see ``repro.workload.openloop``).
    driver: str = "closed"
    open_rate: float = 0.2
    think_time: float = 0.0
    #: All drivers start submitting at this time (warm-up windowing:
    #: B14 starts drivers after its topology change commits).
    driver_start_at: float = 0.0
    #: Session-driver knobs: the arrival process (None = Poisson at
    #: ``open_rate``), sessions per client, the client-side token bucket
    #: (``client_rate`` None disables throttling), and the warm-up cut
    #: for the latency recorder (ops submitted before ``measure_from``
    #: are excluded from percentiles).
    arrival: Optional[Any] = None
    n_sessions: int = 64
    client_rate: Optional[float] = None
    client_burst: float = 8.0
    measure_from: float = 0.0
    #: Admission-control overrides: None defers to the ``oar`` config
    #: (default: disabled; see ``OARConfig.admission_limit``).
    admission_limit: Optional[int] = None
    read_queue_limit: Optional[int] = None
    #: Client retransmission pacing (lost replies / crashed read
    #: targets); None disables retransmission.
    retry_interval: Optional[float] = None

    fault_schedule: Optional[FaultSchedule] = None

    #: Link-fault-plane installer; called with the built
    #: :class:`~repro.sim.network.SimNetwork` right after construction
    #: (e.g. ``lambda net: install_uniform_faults(net, drop=0.05)``).
    faults: Optional[Callable[[SimNetwork], None]] = None

    #: Hook for surgical fault injection; called with the built
    #: :class:`ScenarioRun` before the simulation starts (e.g. to arm a
    #: crash-during-multicast interceptor).
    arm: Optional[Callable[["ScenarioRun"], None]] = None

    #: Simulated-time and event budget.
    horizon: float = 10_000.0
    max_events: int = 2_000_000
    grace: float = 50.0
    trace_messages: bool = False
    #: "full" keeps the checker-grade protocol trace; "off" disables all
    #: tracing (zero-waste mode for throughput/soak runs -- ``check_all``
    #: and trace-based metrics need "full").
    trace_level: str = "full"

    def with_changes(self, **changes: Any) -> "ScenarioConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **changes)


@dataclass
class ScenarioRun:
    """A built (and, after ``execute``, completed) scenario."""

    config: ScenarioConfig
    sim: Simulator
    network: SimNetwork
    servers: List[Any]
    clients: List[Any]
    drivers: List[Any]
    detectors: Dict[str, FailureDetector]

    @property
    def trace(self) -> TraceLog:
        return self.network.trace

    @property
    def server_pids(self) -> List[str]:
        return [server.pid for server in self.servers]

    @property
    def correct_servers(self) -> List[Any]:
        return [s for s in self.servers if not s.crashed]

    def submitted_rids(self) -> List[str]:
        return [rid for driver in self.drivers for rid in driver.submitted]

    def adopted(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for client in self.clients:
            merged.update(client.adopted)
        return merged

    def latencies(self) -> List[float]:
        return [event["latency"] for event in self.trace.events(kind="adopt")]

    def all_done(self) -> bool:
        """Drivers finished and every live replica drained its exec lanes.

        A run is not quiescent while a live server still holds delivered
        operations in its execution engine: the machine state (and the
        outstanding replies) would still change.  Crashed servers never
        drain and are excluded, matching crash-stop semantics.
        """
        if not all(driver.done for driver in self.drivers):
            return False
        return not any(
            getattr(server, "exec_backlog", 0)
            for server in self.servers
            if not server.crashed
        )

    # ------------------------------------------------------------------

    def execute(self) -> "ScenarioRun":
        """Run to quiescence (+ grace period); returns self for chaining."""
        # Only OAR servers have execution lanes to drain.
        lanes = self.servers if self.config.protocol == "oar" else ()
        run_to_quiescence(self, lanes)
        return self

    # ------------------------------------------------------------------
    # Checker bundle
    # ------------------------------------------------------------------

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """Assert every applicable paper property over this run's trace."""
        trace = self.trace
        if self.config.protocol == "oar":
            # Replica-local reads are never delivered by servers -- they
            # are answered, not ordered -- so they are not subject to the
            # delivery-based at-least-once property.  Shed requests
            # likewise: refused deterministically, deliberately never
            # ordered.
            excluded = set()
            for client in self.clients:
                excluded |= getattr(client, "read_rids", set())
                excluded |= getattr(client, "shed_rids", set())
            checkers.check_single_shard_properties(
                trace,
                self.servers,
                [rid for rid in self.submitted_rids() if rid not in excluded],
                strict=strict,
                at_least_once=at_least_once and self.all_done(),
            )
            checkers.check_read_consistency(
                trace,
                self.servers,
                lambda: _make_machine(self.config.machine),
            )
            checkers.check_fault_plane_accounting(trace, self.network)
            checkers.check_admission_accounting(
                trace, self.servers, self.clients, self.drivers
            )
        else:
            checkers.check_replica_convergence(self.servers)
            checkers.check_fault_plane_accounting(trace, self.network)


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

    oar_config = config.oar.with_exec_overrides(
        config.exec_cost, config.exec_lanes
    ).with_admission_overrides(config.admission_limit, config.read_queue_limit)
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

    read_mode = config.read_mode or config.oar.read_mode
    clients: List[Any] = []
    for index in range(config.n_clients):
        cid = f"c{index + 1}"
        if config.protocol == "oar":
            client: Any = OARClient(
                cid,
                group,
                retry_interval=config.retry_interval,
                read_mode=read_mode,
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
