"""Sharded-scenario parity for the real backend (TCP sockets).

The simulator is the correctness oracle; this module is the proof that
the *same* protocol objects -- ``OARServer``, ``OARClient``, the
router, the replica-local read paths, the closed/open-loop drivers --
run unmodified over real event loops and real sockets.  Construction is
:mod:`repro.sharding.cluster`'s, not a copy of it: the deployment is
placed by :func:`~repro.sharding.cluster.place_sharded_scenario` on a
:class:`~repro.runtime.tcp.TcpCluster` instead of a ``SimNetwork``, and
driven by :func:`~repro.sharding.cluster.start_drivers` on a wall
clock instead of the ``Simulator``.

Two impedance mismatches are bridged here:

* **Time.**  Scenario configs speak simulated time units (a redirect
  delay of 5.0, a horizon of 20 000).  The scenario that is placed is a
  copy with every time-valued knob scaled by ``time_scale`` seconds per
  unit -- except the failure detector, whose wall-clock
  interval/timeout are set explicitly (``fd_interval``/``fd_timeout``):
  a scaled sim timeout can land under the event loop's scheduling
  jitter and manufacture false suspicions that the sim never sees.
* **Scheduling.**  The workload drivers only use the simulator's
  ``now`` and ``schedule_at`` / ``schedule`` / ``call_soon`` surface, so
  a thin :class:`_WallClock` adapter lets all three drivers -- closed,
  open and session -- run verbatim over the cluster's event loop.

The result object wraps a genuine
:class:`~repro.sharding.cluster.ShardedRun` whose ``network`` is the
real cluster, so ``check_all`` -- the full checker bundle, trace-based
properties included -- applies to socket runs exactly as it does to
simulated ones.

Over TCP the sequencer's order batching needs no window: with
``OARConfig.batch_interval`` left at 0 the sequencer orders through
``ProcessEnv.defer``, i.e. once the loop iteration has handled every
chunk that was readable, so one ``SeqOrder`` carries one rid when requests
arrive alone and many when they arrive faster than they are ordered.
An explicit ``batch_interval`` is scaled like every other time knob and
gives the paper's periodic Task 1a.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.client import OARClient
from repro.core.server import OARConfig
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import (
    ShardedRun,
    ShardedScenarioConfig,
    place_sharded_scenario,
    start_drivers,
)
from repro.workload.drivers import ClosedLoopDriver, OpenLoopDriver

BACKENDS = ("tcp",)


class _WallClock:
    """Duck-type of the Simulator's scheduling surface over the cluster's loop.

    Delays arrive in simulated time units and are scaled to wall-clock
    seconds; ``now`` and ``schedule_at`` are in those units too, since
    this clock's construction (the drivers' time zero).  Every callback
    is a timer of no process, run as one turn of the cluster, so what a
    driver step sends is flushed when the step returns.
    """

    __slots__ = ("_cluster", "_scale", "_epoch")

    def __init__(self, cluster: TcpCluster, scale: float) -> None:
        self._cluster = cluster
        self._scale = scale
        self._epoch = cluster.now

    @property
    def now(self) -> float:
        return (self._cluster.now - self._epoch) / self._scale

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        cluster = self._cluster
        cluster.post(None, self._epoch + when * self._scale - cluster.now, callback)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._cluster.post(None, delay * self._scale, callback)

    def call_soon(self, callback: Callable[[], None]) -> None:
        self._cluster.post(None, 0.0, callback)


@dataclass(frozen=True)
class RuntimeScenarioConfig:
    """A sharded scenario bound to the real backend.

    ``scenario`` is the same description the simulator runs (its
    ``trace_level`` included: ``check_all`` needs "full", throughput
    runs want "off"); the fields here say how to host it on a wall
    clock.
    """

    scenario: ShardedScenarioConfig
    backend: str = "tcp"  #: the one wall-clock host: "tcp"
    time_scale: float = 0.04  #: wall-clock seconds per simulated unit
    #: Wall-clock failure detector cadence (not scaled from the
    #: scenario: see module docstring).
    fd_interval: float = 0.2
    fd_timeout: float = 1.5
    #: Timed coalescing window forwarded to :class:`TcpCluster`, one for
    #: all connections: the first frame buffered since the last pass
    #: arms it (``None`` = flush at the turn boundary; throughput cells
    #: set a small window to trade per-hop latency for fewer syscalls).
    tcp_flush_interval: Optional[float] = None
    timeout: float = 60.0  #: wall-clock quiescence deadline (s)
    grace: float = 0.05  #: settle window after quiescence (s)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend: {self.backend} (choose from {BACKENDS})")

    def with_changes(self, **changes: Any) -> "RuntimeScenarioConfig":
        return replace(self, **changes)


@dataclass
class RuntimeShardedRun:
    """A completed wall-clock run plus its sim-shaped checker view.

    ``view`` is a real :class:`~repro.sharding.cluster.ShardedRun`
    whose ``network`` is the live cluster -- every property and the
    whole ``check_all`` bundle read through it unchanged.  Its
    ``config`` is the scenario as placed (time in wall-clock seconds);
    ``config.scenario`` here is the description as given.
    """

    config: RuntimeScenarioConfig
    cluster: TcpCluster
    view: ShardedRun
    completed: bool = False
    elapsed: float = 0.0  #: wall-clock seconds of the drive phase

    @property
    def clients(self) -> List[OARClient]:
        return self.view.clients

    @property
    def drivers(self) -> List[Any]:
        return self.view.drivers

    def adopted(self) -> Dict[str, Any]:
        return self.view.adopted()

    def ops_per_sec(self) -> float:
        """Adopted logical operations per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.view.adopted()) / self.elapsed

    def transport_stats(self) -> Dict[str, int]:
        return self.cluster.stats()

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """The full sharded checker bundle, on the wall-clock trace."""
        self.view.check_all(strict=strict, at_least_once=at_least_once)


def _scaled_oar(config: RuntimeScenarioConfig) -> OARConfig:
    """The scenario's own OAR knobs, scaled to wall clock."""
    oar = config.scenario.oar
    scale = config.time_scale

    def interval(value: Optional[float]) -> Optional[float]:
        if value is None or value == 0.0:
            return value
        return max(value * scale, OARConfig.MIN_INTERVAL)

    return replace(
        oar,
        batch_interval=interval(oar.batch_interval),
        order_cost=oar.order_cost * scale,
        read_cost=oar.read_cost * scale,
        exec_cost=oar.exec_cost * scale,
        gc_interval=interval(oar.gc_interval),
        sync_interval=interval(oar.sync_interval),
    )


def _wall_clock_scenario(config: RuntimeScenarioConfig) -> ShardedScenarioConfig:
    """The scenario as it is placed: time-valued knobs in wall-clock
    seconds.  Rejects the sim-only features, which have no placed form."""
    scenario = config.scenario
    if scenario.fault_schedule is not None:
        raise ValueError(
            "fault schedules are sim-only; runtime runs exercise "
            "real sockets (crash processes via cluster.crash instead)"
        )
    if scenario.arm is not None:
        raise ValueError(
            "the arm hook is sim-only: a runtime run has no control "
            "surface to hand it yet, so it would never be called"
        )
    scale = config.time_scale

    def scaled(value: Optional[float]) -> Optional[float]:
        return value * scale if value is not None else None

    return scenario.with_changes(
        oar=_scaled_oar(config),
        exec_cost=scaled(scenario.exec_cost),
        retry_interval=scaled(scenario.retry_interval),
        redirect_delay=scenario.redirect_delay * scale,
        fd_interval=config.fd_interval,
        fd_timeout=config.fd_timeout,
    )


def _make_cluster(config: RuntimeScenarioConfig) -> TcpCluster:
    return TcpCluster(config.scenario.trace_level, config.tcp_flush_interval)


def run_runtime_scenario(config: RuntimeScenarioConfig) -> RuntimeShardedRun:
    """Build, drive to quiescence, and tear down; the one-call entry point.
    An error raised by a turn propagates once the cluster is shut down."""
    scenario = _wall_clock_scenario(config)
    cluster = _make_cluster(config)
    view = place_sharded_scenario(scenario, cluster)
    run = RuntimeShardedRun(config=config, cluster=cluster, view=view)
    seed = scenario.seed
    try:
        cluster.start_all()
        # The two driver classes are read from this module's globals
        # here, at build time, so a caller that rebinds them (the repo
        # benchmark's due-time open loop) drives the run with its own.
        start_drivers(
            view,
            _WallClock(cluster, config.time_scale),
            lambda name: random.Random(f"{seed}/{name}"),
            ClosedLoopDriver,
            OpenLoopDriver,
        )
        started = time.perf_counter()
        run.completed = cluster.run_until(view.all_done, timeout=config.timeout)
        run.elapsed = time.perf_counter() - started
        if config.grace > 0:
            cluster.run_until(lambda: False, timeout=config.grace)
    finally:
        cluster.shutdown()
    return run
