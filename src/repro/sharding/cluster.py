"""A sharded OAR deployment: N independent replication groups, one service.

The paper's protocol totally orders *all* requests through a single
sequencer, which caps throughput at one ordering pipeline.  The sharded
cluster partitions the state machine by key (``repro.sharding.router``)
and runs one full OAR group -- its own sequencer, replicas, undo logs,
failure detectors and epochs -- per shard, all hosted on one
deterministic simulator so every existing checker and fault-injection
tool applies unchanged.

The paper's own service is the one-group case, ``n_shards=1``: every
scenario -- one group or N, OAR or a baseline protocol -- is one
:class:`ShardedScenarioConfig`, placed by :func:`place_sharded_scenario`
and answered by one :class:`ShardedRun`.

Consistency contract:

* per shard, everything the paper guarantees (total order, at-most/least
  once, external consistency of adopted replies);
* across shards, *atomicity* of multi-key operations via the client-
  coordinated escrow 2PC (see :class:`~repro.core.client.OARClient`
  and the ``tx_*`` operations of
  :class:`~repro.statemachine.bank.BankMachine`) -- checked by
  :func:`~repro.analysis.checkers.check_cross_shard_atomicity`, with the
  money it moves conserved per
  :func:`~repro.analysis.checkers.check_migration_atomicity`.

There is deliberately *no* global order across shards: operations on
different shards are independent, which is exactly why throughput scales
(cf. Optimistic Parallel State-Machine Replication, Marandi & Pedone
2014).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis import checkers
from repro.broadcast.ct_abcast import CTAtomicBroadcastServer
from repro.broadcast.sequencer import SequencerAtomicBroadcastServer
from repro.core.admission import TokenBucket
from repro.core.client import OARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import (
    FailureDetector,
    HeartbeatFailureDetector,
    ScriptedFailureDetector,
)
from repro.faults.injection import FaultSchedule
from repro.replication.active import FirstReplyClient
from repro.replication.passive import PassiveReplicationServer
from repro.sharding.router import RoutingTable, ShardRouter, make_router
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Host, Process
from repro.sim.trace import TraceLog
from repro.statemachine import (
    BankMachine,
    CounterMachine,
    KVStoreMachine,
    SplittableMachine,
    StackMachine,
    StateMachine,
)
from repro.workload.drivers import ClosedLoopDriver, OpenLoopDriver
from repro.workload.openloop import PoissonProcess, SessionedOpenLoopDriver
from repro.workload.generators import (
    bank_ops,
    counter_ops,
    cross_shard_bank_ops,
    hot_key_bank_ops,
    kv_ops,
    read_heavy_bank_ops,
    read_heavy_kv_ops,
    stack_ops,
    zipfian_kv_ops,
)

#: Machine kind -> replica state machine class, for every harness.
MACHINE_CLASSES = {
    "kv": KVStoreMachine,
    "bank": BankMachine,
    "counter": CounterMachine,
    "stack": StackMachine,
}
SHARDED_MACHINES = tuple(MACHINE_CLASSES)
WORKLOADS = ("uniform", "zipf", "cross", "readheavy", "hotkey", "single")
DRIVERS = ("closed", "open", "session")

#: The baseline protocols the paper measures OAR against, by server
#: class (each built as ``cls(pid, group, machine, build_fd)`` and
#: served to :class:`~repro.replication.active.FirstReplyClient`s).
BASELINE_SERVERS = {
    "sequencer": SequencerAtomicBroadcastServer,
    "ct": CTAtomicBroadcastServer,
    "passive": PassiveReplicationServer,
}
PROTOCOLS = ("oar", *BASELINE_SERVERS)

#: The single-group mix's key universe (``workload="single"``): the keys
#: of ``kv_ops`` and the accounts of ``bank_ops``.
SINGLE_GROUP_KEYS = {"kv": ("a", "b", "c", "d"), "bank": ("alice", "bob", "carol")}

#: Machines with per-key state: their sharded deployments carry the
#: key-ownership books and support live migration + the migration
#: atomicity checker.
MIGRATABLE_MACHINES = ("kv", "bank")


@dataclass
class ShardedScenarioConfig:
    """Everything needed to reproduce one experiment run.

    ``n_shards`` replication groups of ``n_servers`` replicas behind a
    key router; the paper's own service is ``n_shards=1``, whose
    defaults :func:`~repro.harness.scenario.ScenarioConfig` fills in.
    """

    n_shards: int = 2
    n_servers: int = 3  #: replicas per replication group
    n_clients: int = 2
    requests_per_client: int = 20
    machine: str = "kv"
    seed: int = 0

    #: "oar" (the paper's protocol) or a baseline it is measured
    #: against: "sequencer" or "ct" Atomic Broadcast, "passive"
    #: replication.  The baselines replicate one group (``n_shards=1``).
    protocol: str = "oar"
    router: str = "hash"  #: "hash" or "range"

    #: One-way link delay model; None = constant 1.0 (one phase per hop).
    latency: Optional[LatencyModel] = None

    #: "heartbeat" (live ◇S implementation) or "scripted" (suspicions are
    #: injected explicitly -- used by figure-exact scenarios).
    fd_kind: str = "heartbeat"
    fd_interval: float = 5.0
    fd_timeout: float = 15.0

    #: OAR-specific knobs (ignored by other protocols).
    oar: OARConfig = field(default_factory=OARConfig)

    #: How the clients execute read-only operations: "sequencer" orders
    #: reads like writes (the paper's base protocol); "optimistic" (one
    #: replica, chosen round-robin, answers from its current state, which
    #: may later be undone) and "conservative" (every replica answers; a
    #: value is adopted once a majority agree) answer replica-locally.
    #: See :class:`~repro.core.client.OARClient`, which validates it.
    read_mode: str = "sequencer"

    #: Scenario-level overrides of ``oar`` (see :func:`resolve_oar`);
    #: None defers to the ``oar`` config.  ``exec_cost`` / ``exec_lanes``
    #: are the replica execution service model: a per-operation
    #: execution cost and that many conflict-scheduled worker lanes
    #: (benchmark B13).
    exec_cost: Optional[float] = None
    exec_lanes: Optional[int] = None

    #: Workload family: "uniform" (kv over a flat key universe), "zipf"
    #: (kv, skewed), "cross" (bank transfers, cross-shard mix), "readheavy"
    #: (kv or bank, Zipf-skewed, ``read_ratio`` reads -- the
    #: replica-local read-path mix of benchmark B12), "hotkey" (bank
    #: deposits/withdrawals/balances with ``hot_ratio`` of all traffic
    #: on one account -- the key-splitting stress of B14), "single" (the
    #: paper's one-group mix: kv sets/cas/gets over keys a-d, bank
    #: transfers/deposits/withdrawals/balances over alice/bob/carol).
    #: The deposits of "hotkey" and "single" change the money supply, so
    #: their runs have no conserved total (``check_fragment_conservation``
    #: covers split accounts instead).  Counter and stack machines have
    #: one mix each, whatever the workload.
    workload: str = "uniform"
    #: ``read_ratio`` is the read fraction of the read-heavy mix
    #: (``read_heavy_kv_ops``) over a universe of ``n_keys`` kv keys with
    #: exponent ``zipf_s``; every kv workload but "single" draws from
    #: that universe.
    read_ratio: float = 0.9
    n_keys: int = 32
    zipf_s: float = 1.2
    cross_ratio: float = 0.3
    hot_ratio: float = 0.8
    accounts_per_shard: int = 4
    initial_balance: int = 1_000

    #: "closed" (latency-oriented), "open" (Poisson arrivals at
    #: ``open_rate`` requests/time-unit per client) or "session" (the
    #: overload harness: an arrival process multiplexing ``n_sessions``
    #: logical sessions per client, optional client-side token bucket,
    #: streaming latency recorder -- see ``repro.workload.openloop``).
    driver: str = "closed"
    open_rate: float = 0.2
    think_time: float = 0.0
    #: Simulated time at which the drivers begin submitting.  A warm-up
    #: window lets pre-arranged topology work (scheduled migrations or
    #: key splits via ``arm``) commit before traffic measures against
    #: it, instead of queueing stale-routed requests behind the change.
    driver_start_at: float = 0.0
    #: Session-driver knobs: the arrival process (None = Poisson at
    #: ``open_rate``), sessions per client, the client-side token bucket
    #: (``client_rate`` None disables throttling), and the warm-up cut
    #: for the latency recorder (ops submitted before ``measure_from``
    #: are excluded from percentiles).
    arrival: Optional[Any] = None
    n_sessions: int = 64
    client_rate: Optional[float] = None
    measure_from: float = 0.0
    #: Client retransmission pacing (lost replies / crashed read
    #: targets); None disables retransmission.
    retry_interval: Optional[float] = None

    #: Pause before a WrongShard-redirected operation is retried (covers
    #: the window where a migrating key is owned by no shard; the budget
    #: of redirects is ``repro.core.client.MAX_REDIRECTS``).
    redirect_delay: float = 5.0

    #: Every fault of the run: standing rules (installed before any
    #: process starts) and timed actions (applied by ``execute``).
    fault_schedule: Optional[FaultSchedule] = None

    #: Called with the built run before the simulation starts (e.g. to
    #: attach a rebalancer and schedule its work).
    arm: Optional[Callable[["ShardedRun"], None]] = None

    #: Simulated-time and event budget.
    horizon: float = 20_000.0
    max_events: int = 4_000_000
    grace: float = 50.0
    trace_messages: bool = False
    #: "full" keeps the checker-grade protocol trace; "off" disables all
    #: tracing (zero-waste mode for throughput/soak runs -- ``check_all``
    #: and trace-based metrics need "full").
    trace_level: str = "full"

    def with_changes(self, **changes: Any) -> "ShardedScenarioConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **changes)


def resolve_oar(config: ShardedScenarioConfig) -> OARConfig:
    """The OAR knobs a scenario's servers are built with.

    ``config.oar`` with every scenario-level override that is set
    applied; a scenario that sets none gets ``config.oar`` itself, so
    runs that never touch these knobs build exactly what they always
    did.
    """
    overrides = {
        name: value
        for name in ("exec_cost", "exec_lanes")
        if (value := getattr(config, name)) is not None
    }
    return replace(config.oar, **overrides) if overrides else config.oar


@dataclass
class ShardedRun:
    """A built (and, after ``execute``, completed) deployment: one
    replication group or N, on the simulator or on a wall-clock host."""

    config: ShardedScenarioConfig
    sim: Optional[Simulator]  #: None when a wall-clock backend hosts the run
    network: Host
    router: ShardRouter  #: the static base placement (epoch 0)
    routing_table: RoutingTable  #: the authoritative epoched view
    shard_groups: Tuple[Tuple[str, ...], ...]
    shards: List[List[Any]]  #: servers, indexed by shard
    clients: List[Any]
    drivers: List[Any]
    detectors: Dict[str, FailureDetector]
    key_universe: Tuple[str, ...]
    initial_total: Optional[int]  #: bank only: conserved money supply
    #: Rebalance coordinators attached to this run (see
    #: :func:`~repro.sharding.rebalance.attach_rebalancer`).
    rebalancers: List[Any] = field(default_factory=list)

    @property
    def trace(self) -> TraceLog:
        return self.network.trace

    @property
    def servers(self) -> List[Any]:
        """All servers across shards (shard-major order)."""
        return [server for shard in self.shards for server in shard]

    @property
    def server_pids(self) -> List[str]:
        return [server.pid for server in self.servers]

    def server(self, pid: str) -> Any:
        return next(s for s in self.servers if s.pid == pid)

    def correct_servers(self, shard: int = 0) -> List[Any]:
        return [s for s in self.shards[shard] if not s.crashed]

    def submitted_rids(self) -> List[str]:
        """The drivers' logical submissions (cross-shard txids count once)."""
        return [rid for driver in self.drivers for rid in driver.submitted]

    def routed_to(self, shard: int) -> List[str]:
        """Physical rids (ops and tx branches) routed to one shard,
        scripted ``client.submit`` calls included."""
        return [
            rid for client in self.clients for rid in client.routed_to(shard)
        ]

    def adopted(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for client in self.clients:
            merged.update(client.adopted)
        return merged

    def latencies(self) -> List[float]:
        """Client-perceived logical latencies (whole transactions)."""
        return [adopted.latency for adopted in self.adopted().values()]

    # -- trace queries (what the figure-exact scenarios assert on) -----

    def opt_delivered(self, pid: str, epoch: int = 0) -> Tuple[str, ...]:
        return tuple(
            event["rid"]
            for event in self.trace.events(kind="opt_deliver", pid=pid)
            if event["epoch"] == epoch
        )

    def a_delivered(self, pid: str, epoch: Optional[int] = None) -> Tuple[str, ...]:
        return tuple(
            event["rid"]
            for event in self.trace.events(kind="a_deliver", pid=pid)
            if epoch is None or event["epoch"] == epoch
        )

    def opt_undelivered(self, pid: str) -> Tuple[str, ...]:
        return tuple(
            event["rid"]
            for event in self.trace.events(kind="opt_undeliver", pid=pid)
        )

    # -- quiescence ----------------------------------------------------

    def all_done(self) -> bool:
        """Drivers finished, rebalancers drained, exec lanes drained.

        A run is not quiescent while a live server still holds delivered
        operations in its execution engine (only OAR servers have one):
        the machine state (and the outstanding replies) would still
        change.  A *crashed* coordinator never drains; it is excluded so
        a coordinator-crash scenario still reaches quiescence (its
        stranded migrations are the recovery coordinator's job).
        Likewise crashed replicas never drain their execution lanes
        (crash-stop suppresses their timers) and are excluded.
        """
        for driver in self.drivers:
            if not driver.done:
                return False
        for coordinator in self.rebalancers:
            if not coordinator.done and not coordinator.client.crashed:
                return False
        for server in self.servers:
            if not server.crashed and getattr(server, "exec_backlog", 0):
                return False
        return True

    def execute(self) -> "ShardedRun":
        """Run to quiescence (+ grace period); returns self for chaining.

        Applies the fault schedule and the ``arm`` hook, runs the
        simulator until the run is quiescent -- or the horizon passes --
        and then for the grace period, so replies and settlements in
        flight land before checking.
        """
        config = self.config
        if config.fault_schedule is not None:
            config.fault_schedule.apply(self.network, list(self.detectors.values()))
        if config.arm is not None:
            config.arm(self)
        sim = self.sim
        deadline = config.horizon
        waiting = iter(self.drivers)
        busy = next(waiting, None)  # the driver last seen busy

        def quiescent() -> bool:
            # Asked after every simulator event.  Horizon first (one
            # float compare); then only the driver last seen busy:
            # while it is, ``all_done()`` is false whatever the others
            # do.  Once each driver has reported done, the full rule.
            nonlocal busy
            if sim.now >= deadline:
                return True
            while busy is not None:
                if not busy.done:
                    return False
                busy = next(waiting, None)
            return self.all_done()

        sim.run_until(quiescent, max_events=config.max_events)
        sim.run(until=sim.now + config.grace, max_events=config.max_events)
        return self

    # -- checking ------------------------------------------------------

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """Assert every applicable property over this run's trace.

        An OAR run: the paper's properties over each group, whose
        conservative reads must observe prefix-closed states of its
        adopted order (optimistic staleness is counted, not failed); the
        fault-plane and admission ledgers; then cross-shard transactions,
        migrations, splits and money.  A baseline run: the two ledgers
        and replica convergence, which is all the baselines promise.
        Completeness (at-least-once, every transaction decided, ...)
        only applies to a quiescent run; a run cut off mid-flight is
        checked for safety.  ``strict=False`` tolerates optimistic
        deliveries in epochs still unsettled at the end (see
        ``check_external_consistency``).
        """
        trace = self.trace
        if not trace.enabled:
            # Handed an empty trace, the first checker would report a
            # protocol violation the run never committed.
            raise ValueError(
                'check_all() needs the protocol trace: build the run with '
                'trace_level="full" (this one has trace_level="off")'
            )
        quiescent = self.all_done()
        oar = self.config.protocol == "oar"
        if oar:
            # Replica-local reads are answered, not ordered, and shed
            # requests are refused, never ordered: neither is subject to
            # the delivery-based properties.
            excluded: Set[str] = set()
            for client in self.clients:
                excluded |= client.read_rids
                excluded |= client.shed_rids
            placement = self.router.placement(self.key_universe)
            # Every group's events in one pass over the trace, not one each.
            indexes = checkers.DeliveryIndex.per_group(trace, self.shard_groups)
            for shard, index in enumerate(indexes):
                servers = self.shards[shard]
                checkers.check_single_shard_properties(
                    index,
                    servers,
                    [rid for rid in self.routed_to(shard) if rid not in excluded],
                    strict=strict,
                    at_least_once=at_least_once and quiescent,
                )
                checkers.check_read_consistency(
                    trace,
                    servers,
                    partial(_make_machine, self.config, placement[shard]),
                    shard=shard,
                )
        checkers.check_fault_plane_accounting(trace, self.network)
        checkers.check_admission_accounting(
            trace, self.servers, self.clients, self.drivers
        )
        if not oar:
            checkers.check_replica_convergence(self.servers)
            return
        checkers.check_cross_shard_atomicity(trace, self.shards, quiescent=quiescent)
        # A coordinator crash strands its migrations without making the
        # run non-quiescent (all_done excludes crashed coordinators), so
        # completeness claims only hold once every journal record is
        # terminal -- recovery coordinators drive the *same* record
        # objects to terminal, so this settles after a successful
        # resume.  Until then the migration and split checkers run in
        # safety-only mode (stranded is incomplete, not non-atomic).
        settled = quiescent and all(
            record.terminal
            for coordinator in self.rebalancers
            for record in coordinator.journal
        )
        if self.config.machine in MIGRATABLE_MACHINES:
            # Also the bank's money conservation, across both escrows.
            checkers.check_migration_atomicity(
                trace,
                self.shards,
                self.routing_table,
                self.key_universe,
                expected_total=self.initial_total,
                quiescent=settled,
            )
        if self.config.machine == "bank":
            # Hot-key splitting: every account that was ever split must
            # conserve its logical value exactly (fragments + escrows ==
            # initial placement + net adopted deltas).  A no-op when the
            # run never split anything.
            checkers.check_fragment_conservation(
                trace,
                self.shards,
                self.routing_table,
                initial_values={
                    account: self.config.initial_balance
                    for account in self.key_universe
                },
                quiescent=settled,
            )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _key_universe(config: ShardedScenarioConfig) -> Tuple[str, ...]:
    # Interned, as pids are (see place_sharded_scenario).
    if config.workload == "single" and config.machine in SINGLE_GROUP_KEYS:
        return SINGLE_GROUP_KEYS[config.machine]
    if config.machine == "bank":
        count = config.accounts_per_shard * config.n_shards
        return tuple(sys.intern(f"a{i:03d}") for i in range(count))
    return tuple(sys.intern(f"k{i:03d}") for i in range(config.n_keys))


def _make_machine(
    config: ShardedScenarioConfig, placed_keys: Tuple[str, ...]
) -> StateMachine:
    """One shard's replica state machine; ``placed_keys`` is the shard's
    epoch-0 key ownership (migratable machines enforce it and support
    live migration; keyless machines ignore placement).  The single-group
    mix's machines own every key (``owned=None``), as the paper's one
    service does: no ownership books, no WrongShard, nothing to migrate."""
    owned = None if config.workload == "single" else placed_keys
    if config.machine == "kv":
        return KVStoreMachine(owned=owned)
    if config.machine == "bank":
        return BankMachine(
            {account: config.initial_balance for account in placed_keys},
            owned=owned,
        )
    return MACHINE_CLASSES[config.machine]()


def _make_ops(
    config: ShardedScenarioConfig,
    rng: random.Random,
    key_universe: Tuple[str, ...],
    accounts_by_shard: Tuple[Tuple[str, ...], ...],
) -> Iterator[Tuple[Any, ...]]:
    if config.machine == "counter":
        return counter_ops()
    if config.machine == "stack":
        return stack_ops(rng)
    if config.machine == "bank":
        if config.workload == "cross":
            return cross_shard_bank_ops(
                rng, accounts_by_shard, cross_ratio=config.cross_ratio
            )
        if config.workload == "readheavy":
            return read_heavy_bank_ops(
                rng, accounts_by_shard, read_ratio=config.read_ratio
            )
        if config.workload == "hotkey":
            # key_universe[0] is the hot account; the generator's own
            # 20% read mix applies (config.read_ratio is the readheavy
            # knob and defaults far too read-heavy for a write stress).
            return hot_key_bank_ops(rng, key_universe, hot_ratio=config.hot_ratio)
        if config.workload == "single":
            return bank_ops(rng, key_universe)
        return cross_shard_bank_ops(rng, accounts_by_shard, cross_ratio=0.0)
    if config.workload == "zipf":
        return zipfian_kv_ops(rng, key_universe, s=config.zipf_s)
    if config.workload == "readheavy":
        return read_heavy_kv_ops(
            rng, key_universe, s=config.zipf_s, read_ratio=config.read_ratio
        )
    return kv_ops(rng, keys=key_universe)


def _validate(config: ShardedScenarioConfig) -> None:
    """Reject what no backend can build, before any host is touched."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol: {config.protocol} (choose from {PROTOCOLS})"
        )
    if config.protocol != "oar" and config.n_shards != 1:
        raise ValueError(
            f"the {config.protocol} baseline replicates one group: it needs "
            f"n_shards=1, not {config.n_shards}"
        )
    if config.machine not in SHARDED_MACHINES:
        raise ValueError(
            f"unknown machine kind: {config.machine} "
            f"(choose from {SHARDED_MACHINES})"
        )
    if config.workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload: {config.workload} (choose from {WORKLOADS})"
        )
    if config.workload == "cross" and config.machine != "bank":
        raise ValueError("the cross-shard workload requires the bank machine")
    if config.workload == "hotkey" and config.machine != "bank":
        raise ValueError("the hot-key workload requires the bank machine")
    if config.driver not in DRIVERS:
        raise ValueError(f"unknown driver kind: {config.driver}")
    if config.driver == "open" and config.open_rate <= 0:
        raise ValueError("rate must be positive")


def fd_factory(
    config: Any, group: Sequence[str], detectors: Dict[str, FailureDetector]
) -> Callable[[Process], FailureDetector]:
    """The scenario's failure detector for one replication group.

    ``config`` is any scenario config (``fd_kind`` / ``fd_interval`` /
    ``fd_timeout``); every detector built is registered in ``detectors``
    by its host's pid.
    """

    def build(host: Process) -> FailureDetector:
        if config.fd_kind == "heartbeat":
            detector: FailureDetector = HeartbeatFailureDetector(
                host,
                monitored=group,
                interval=config.fd_interval,
                timeout=config.fd_timeout,
            )
        elif config.fd_kind == "scripted":
            detector = ScriptedFailureDetector()
        else:
            raise ValueError(f"unknown fd kind: {config.fd_kind}")
        detectors[host.pid] = detector
        return detector

    return build


def make_driver(
    config: Any,
    clock: Any,
    client: Any,
    ops: Iterator[Tuple[Any, ...]],
    arrivals_rng: random.Random,
    closed_loop: Callable[..., Any],
    open_loop: Callable[..., Any],
) -> Any:
    """One client's workload driver, as ``config.driver`` names it.

    ``clock`` is the scheduling surface the driver runs on (a
    ``Simulator``, or the runtime's wall-clock adapter); the closed- and
    open-loop classes are the caller's, so a caller whose module names
    were rebound (the benchmark injects a due-time open loop that way)
    builds what its own globals say at call time.
    """
    if config.driver == "closed":
        return closed_loop(
            clock,
            client,
            ops,
            total=config.requests_per_client,
            think_time=config.think_time,
            start_at=config.driver_start_at,
        )
    if config.driver == "open":
        return open_loop(
            clock,
            client,
            ops,
            total=config.requests_per_client,
            rate=config.open_rate,
            rng=arrivals_rng,
            start_at=config.driver_start_at,
        )
    if config.driver == "session":
        bucket = (
            TokenBucket(config.client_rate)
            if config.client_rate is not None
            else None
        )
        return SessionedOpenLoopDriver(
            clock,
            client,
            ops,
            total=config.requests_per_client,
            arrival=(
                config.arrival
                if config.arrival is not None
                else PoissonProcess(config.open_rate)
            ),
            rng=arrivals_rng,
            n_sessions=config.n_sessions,
            start_at=config.driver_start_at,
            bucket=bucket,
            measure_from=config.measure_from,
        )
    raise ValueError(f"unknown driver kind: {config.driver}")


def place_sharded_scenario(
    config: ShardedScenarioConfig, host: Host, sim: Optional[Simulator] = None
) -> ShardedRun:
    """Place every server and client of the deployment on ``host``.

    The backend-neutral half of construction: routing, replica state
    machines, servers and clients, added to ``host`` shard-major, servers
    before clients.  The caller then runs ``host.start_all()`` and
    :func:`start_drivers`.
    """
    _validate(config)
    key_universe = _key_universe(config)
    router = make_router(config.router, config.n_shards, key_universe)
    # The authoritative epoched routing view: identical to the base
    # router at epoch 0; live rebalancing overlays key moves on it.
    routing_table = RoutingTable(router)
    accounts_by_shard = routing_table.placement(key_universe)

    # One group is the paper's service and names its replicas as the
    # paper does; N groups prefix each replica with its shard.  Pids and
    # keys are interned, so marshal decodes them to this process's own
    # strings (not rids or values: interned strings are never freed).
    shard_groups = tuple(
        tuple(
            sys.intern(f"p{i + 1}" if config.n_shards == 1 else f"s{shard}.p{i + 1}")
            for i in range(config.n_servers)
        )
        for shard in range(config.n_shards)
    )

    detectors: Dict[str, FailureDetector] = {}
    oar_config = resolve_oar(config)
    baseline = BASELINE_SERVERS.get(config.protocol)
    shards: List[List[Any]] = []
    for shard, group in enumerate(shard_groups):
        servers: List[Any] = []
        build_fd = fd_factory(config, group, detectors)
        for pid in group:
            machine = _make_machine(config, accounts_by_shard[shard])
            if baseline is None:
                server: Any = OARServer(pid, group, machine, build_fd, oar_config)
            else:
                server = baseline(pid, group, machine, build_fd)
            servers.append(server)
            host.add_process(server)
        shards.append(servers)

    machine_cls = MACHINE_CLASSES[config.machine]
    clients: List[Any] = []
    for index in range(config.n_clients):
        pid = sys.intern(f"c{index + 1}")
        if baseline is not None:
            # Adopt the first reply; only the CT replicas need their
            # requests R-multicast.
            client: Any = FirstReplyClient(
                pid, shard_groups[0], reliable=config.protocol == "ct"
            )
        else:
            # Each client routes by its own (possibly stale) copy of the
            # table and re-syncs from the authority on WrongShard redirects.
            client = OARClient(
                pid,
                shard_groups,
                routing_table.copy(),
                key_extractor=machine_cls.keys_of,
                tx_planner=machine_cls.tx_branches,
                retry_interval=config.retry_interval,
                route_authority=routing_table,
                redirect_delay=config.redirect_delay,
                read_mode=config.read_mode,
                is_read_only=machine_cls.is_read_only,
                splitter=(
                    machine_cls
                    if issubclass(machine_cls, SplittableMachine)
                    else None
                ),
            )
        clients.append(client)
        host.add_process(client)

    initial_total = None
    if config.machine == "bank" and config.workload not in ("hotkey", "single"):
        # The hot-key and single-group mixes' deposits/withdrawals change
        # the money supply, so the conserved-total checks do not apply
        # there -- check_fragment_conservation covers split accounts.
        initial_total = config.initial_balance * len(key_universe)

    return ShardedRun(
        config=config,
        sim=sim,
        network=host,
        router=router,
        routing_table=routing_table,
        shard_groups=shard_groups,
        shards=shards,
        clients=clients,
        drivers=[],
        detectors=detectors,
        key_universe=key_universe,
        initial_total=initial_total,
    )


def start_drivers(
    run: ShardedRun,
    clock: Any,
    child_rng: Callable[[str], random.Random],
    closed_loop: Callable[..., Any],
    open_loop: Callable[..., Any],
) -> None:
    """Give every client of a placed, started deployment its driver.

    ``clock`` schedules the drivers (``schedule_at`` / ``schedule`` /
    ``call_soon``), ``child_rng(name)`` derives the per-client op and
    arrival streams, the same on every backend:
    ``random.Random(f"{seed}/{name}")``.
    """
    config = run.config
    accounts_by_shard = run.router.placement(run.key_universe)
    for client in run.clients:
        ops = _make_ops(
            config, child_rng(f"ops/{client.pid}"), run.key_universe, accounts_by_shard
        )
        run.drivers.append(
            make_driver(
                config,
                clock,
                client,
                ops,
                child_rng(f"arrivals/{client.pid}"),
                closed_loop,
                open_loop,
            )
        )


def sim_network(config: Any) -> SimNetwork:
    """A fresh simulator and the scenario's network on it (the sim host)."""
    network = SimNetwork(
        Simulator(seed=config.seed),
        latency=config.latency if config.latency is not None else ConstantLatency(1.0),
        trace_messages=config.trace_messages,
        trace_level=config.trace_level,
    )
    if config.fault_schedule is not None:
        config.fault_schedule.install(network)
    return network


def build_sharded_scenario(config: ShardedScenarioConfig) -> ShardedRun:
    """Construct (but do not run) the sharded deployment on the simulator."""
    network = sim_network(config)
    sim = network.sim
    run = place_sharded_scenario(config, network, sim)
    network.start_all()
    start_drivers(run, sim, sim.child_rng, ClosedLoopDriver, OpenLoopDriver)
    return run


def run_sharded_scenario(config: ShardedScenarioConfig) -> ShardedRun:
    """Build and execute a sharded scenario; the one-call entry point."""
    return build_sharded_scenario(config).execute()
