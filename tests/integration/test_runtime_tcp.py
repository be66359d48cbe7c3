"""Integration tests for the TCP runtime: sharded parity + transport.

The headline acceptance test: a seeded sharded scenario executed over
:class:`~repro.runtime.tcp.TcpCluster` with the binary codec passes the
*full* ``check_all`` bundle -- the same checkers that gate every sim
run (single-shard safety, read consistency, cross-shard atomicity,
fault-plane and admission accounting, fragment conservation).  The
runtime scenario builder wraps a genuine
:class:`~repro.sharding.cluster.ShardedRun` view, so nothing here is a
weakened parity mode.  One OAR group placed by hand, without the
builder, runs failure-free and through a sequencer crash.

The transport-level tests pin the throughput mechanisms directly:
write coalescing (one flush per connection and turn), encode-once
fan-out, dead-peer reconnect and crash accounting, the idle steady
state, backpressure, teardown that loses no frame and closes every fd,
and the trace-level hot-path gate.  Framing and the turn discipline are pinned without
sockets in ``tests/unit/test_tcp_framing.py``.
"""

import gc
import inspect
import socket
import tracemalloc
import warnings
from dataclasses import fields
from typing import Any, Callable, List, Tuple

import pytest

from repro.analysis import checkers
from repro.core.client import OARClient, ShardedOARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import HeartbeatFailureDetector
from repro.faults import FaultSchedule
from repro.runtime import scenario as runtime_scenario
from repro.runtime import tcp
from repro.runtime.scenario import (
    RuntimeScenarioConfig,
    run_runtime_scenario,
)
from repro.harness.scenario import ScenarioConfig
from repro.runtime.tcp import _FLUSH_BYTES, TcpCluster
from repro.sharding.cluster import (
    ShardedScenarioConfig,
    build_sharded_scenario,
    place_sharded_scenario,
)
from repro.sharding.rebalance import attach_rebalancer
from repro.sim.process import Process, ProcessEnv
from repro.statemachine import CounterMachine

pytestmark = pytest.mark.integration


def _config(**overrides: Any) -> ShardedScenarioConfig:
    base = dict(
        seed=7,
        n_shards=2,
        n_servers=3,
        n_clients=4,
        requests_per_client=10,
        machine="kv",
        workload="uniform",
        n_keys=32,
    )
    base.update(overrides)
    return ShardedScenarioConfig(**base)


class TestShardedParity:
    def test_tcp_binary_sharded_scenario_passes_check_all(self):
        run = run_runtime_scenario(
            RuntimeScenarioConfig(scenario=_config(), backend="tcp")
        )
        assert run.completed
        run.check_all()
        assert run.ops_per_sec() > 0
        stats = run.transport_stats()
        assert stats["frames_sent"] > 0
        assert stats["dropped_frames"] == 0

    def test_tcp_cross_shard_bank_two_phase_commit(self):
        run = run_runtime_scenario(
            RuntimeScenarioConfig(
                scenario=_config(machine="bank", workload="cross", seed=11),
                backend="tcp",
            )
        )
        assert run.completed
        run.check_all()

    def test_tcp_readheavy_optimistic_reads(self):
        run = run_runtime_scenario(
            RuntimeScenarioConfig(
                scenario=_config(
                    machine="bank",
                    workload="readheavy",
                    read_ratio=0.8,
                    read_mode="optimistic",
                    seed=3,
                ),
                backend="tcp",
            )
        )
        assert run.completed
        run.check_all()
        assert sum(c.reads_adopted for c in run.clients) > 0

    def test_check_all_refuses_a_run_without_a_trace(self):
        run = run_runtime_scenario(
            RuntimeScenarioConfig(
                scenario=_config(trace_level="off"), backend="tcp"
            )
        )
        assert run.completed
        with pytest.raises(ValueError, match='trace_level="full"'):
            run.check_all()

    def test_sim_only_features_are_rejected(self):
        with pytest.raises(ValueError, match="sim-only"):
            run_runtime_scenario(
                RuntimeScenarioConfig(
                    scenario=_config(fault_schedule=FaultSchedule().links(drop=0.1)),
                    backend="tcp",
                )
            )
        with pytest.raises(ValueError, match="sim-only"):
            # Silently never calling the hook would be worse than refusing it.
            run_runtime_scenario(
                RuntimeScenarioConfig(
                    scenario=_config(arm=lambda run: None), backend="tcp"
                )
            )
        with pytest.raises(ValueError, match="sim-only"):
            run_runtime_scenario(
                RuntimeScenarioConfig(scenario=_config(driver="session"), backend="tcp")
            )
        # One wall-clock host: the in-process queue transport is gone too.
        for backend in ("carrier-pigeon", "asyncio"):
            with pytest.raises(ValueError, match="unknown backend"):
                run_runtime_scenario(
                    RuntimeScenarioConfig(scenario=_config(), backend=backend)
                )


class TestOrderBatching:
    """Over sockets the sequencer orders when the loop has drained its
    input (``ProcessEnv.defer``); a window is the scenario's to ask for."""

    def test_batch_interval_stays_zero_unless_the_scenario_sets_one(self):
        scaled = runtime_scenario._scaled_oar
        config = RuntimeScenarioConfig(scenario=_config(), backend="tcp")
        assert scaled(config).batch_interval == 0.0
        explicit = RuntimeScenarioConfig(
            scenario=_config(oar=OARConfig(batch_interval=0.5)), time_scale=0.04
        )
        assert scaled(explicit).batch_interval == pytest.approx(0.02)
        # ... and never under the floor a periodic timer is allowed.
        tiny = explicit.with_changes(time_scale=0.0001)
        assert scaled(tiny).batch_interval == OARConfig.MIN_INTERVAL

    def test_an_explicit_interval_still_orders_periodically(self):
        interval = 0.01  # 0.25 units x 0.04 s
        run = run_runtime_scenario(
            RuntimeScenarioConfig(
                scenario=_config(
                    n_shards=1,
                    requests_per_client=30,
                    driver="open",
                    open_rate=50.0,  # 2 000/s per client: many per window
                    oar=OARConfig(batch_interval=0.25),
                ),
                backend="tcp",
            )
        )
        assert run.completed
        run.check_all()
        orders = run.view.trace.events(kind="seq_order")
        assert max(len(order["rids"]) for order in orders) > 1
        assert len(orders) < 4 * 30 / 2
        # Task 1a runs on the tick, not on arrival: orders are a window apart.
        times = [order.time for order in orders]
        assert min(b - a for a, b in zip(times, times[1:])) > 0.9 * interval

    def test_an_idle_cluster_arms_heartbeat_timers_only(self, monkeypatch):
        """No ordering tick, on any replica: what an idle cluster puts on
        its timer heap is its failure detectors' and nothing else."""
        config = RuntimeScenarioConfig(
            scenario=_config(n_shards=1, n_clients=1, fd_kind="heartbeat"),
            backend="tcp",
            fd_interval=0.02,
        )
        cluster = runtime_scenario._make_cluster(config)
        place_sharded_scenario(runtime_scenario._wall_clock_scenario(config), cluster)
        armed: List[Any] = []
        try:
            cluster.start()
            push = tcp.heappush  # every timer goes through it

            def recording(heap: List[Any], entry: Any) -> None:
                armed.append(entry[3])
                push(heap, entry)

            monkeypatch.setattr(tcp, "heappush", recording)
            cluster.run_until(lambda: False, timeout=0.1)
            monkeypatch.undo()
        finally:
            cluster.shutdown()
        ticks = [
            owner for owner in armed
            if isinstance(getattr(owner, "__self__", None), HeartbeatFailureDetector)
        ]
        assert len(ticks) >= 3 * 3  # three replicas, 20 ms cadence, 100 ms
        assert [owner for owner in armed if owner not in ticks] == []

    def test_closed_loop_writes_pass_check_all_with_load_following_batches(self):
        run = run_runtime_scenario(
            RuntimeScenarioConfig(
                scenario=_config(n_shards=1, requests_per_client=60, seed=17),
                backend="tcp",
            )
        )
        assert run.completed
        run.check_all()
        assert len(run.adopted()) == 4 * 60
        orders = run.view.trace.events(kind="seq_order")
        assert sum(len(order["rids"]) for order in orders) == 4 * 60
        assert not any(server._order_deferred for server in run.view.servers)


def build_group(
    cluster: TcpCluster, n_servers: int = 3, fd_interval: float = 0.2, fd_timeout: float = 1.0
) -> Tuple[List[OARServer], OARClient]:
    """One OAR group of counters and one client, added to ``cluster`` by hand."""
    group = [f"p{i + 1}" for i in range(n_servers)]
    servers = []
    for pid in group:
        server = OARServer(
            pid,
            group,
            CounterMachine(),
            lambda host: HeartbeatFailureDetector(
                host, group, interval=fd_interval, timeout=fd_timeout
            ),
            OARConfig(),
        )
        servers.append(server)
        cluster.add_process(server)
    client = OARClient("c1", group)
    cluster.add_process(client)
    return servers, client


def closed_loop(client: OARClient, total: int) -> Callable[..., None]:
    """Submit one increment per adoption, ``total`` in all; returns the
    first step (call it once the cluster is started)."""
    submitted = {"n": 0}

    def submit_next(_adopted: Any = None) -> None:
        if submitted["n"] < total:
            submitted["n"] += 1
            client.submit(("incr",))

    client.on_adopt = submit_next
    return submit_next


class TestTcpRuntime:
    """The same OAR protocol objects, hosted by hand on sockets."""

    def test_failure_free_run_over_sockets(self):
        cluster = TcpCluster()
        servers, client = build_group(cluster)
        first = closed_loop(client, total=10)
        cluster.start()
        first()
        done = cluster.run_until(lambda: len(client.adopted) >= 10, timeout=20)
        cluster.shutdown()
        assert done
        assert len(client.adopted) == 10
        values = sorted(a.value.value for a in client.adopted.values())
        assert values == list(range(1, 11))
        checkers.check_total_order(servers)
        checkers.check_replica_convergence(servers)
        checkers.check_external_consistency(cluster.trace, strict=False)
        checkers.check_majority_guarantee(cluster.trace, len(servers))

    def test_crash_failover_over_sockets(self):
        cluster = TcpCluster()
        servers, client = build_group(cluster, fd_interval=0.05, fd_timeout=0.3)
        first = closed_loop(client, total=10)
        cluster.start()
        first()
        cluster.run_until(lambda: len(client.adopted) >= 3, timeout=10)
        cluster.crash("p1")
        done = cluster.run_until(lambda: len(client.adopted) >= 10, timeout=25)
        cluster.shutdown()
        assert done
        survivors = [s for s in servers if not s.crashed]
        checkers.check_total_order(survivors)
        checkers.check_replica_convergence(survivors)
        checkers.check_external_consistency(cluster.trace, strict=False)
        assert all(server.epoch >= 1 for server in survivors)

    def test_latency_is_wall_clock_positive(self):
        """Latencies are read off the cluster's monotonic clock: each is
        positive and fits inside the wall-clock span of the run."""
        cluster = TcpCluster()
        _servers, client = build_group(cluster)
        first = closed_loop(client, total=5)
        cluster.start()
        begun = cluster.now
        first()
        cluster.run_until(lambda: len(client.adopted) >= 5, timeout=20)
        span = cluster.now - begun
        cluster.shutdown()
        assert len(client.adopted) == 5
        for adopted in client.adopted.values():
            assert 0.0 < adopted.latency <= span
        assert sum(a.latency for a in client.adopted.values()) <= span


def _opened_listeners(monkeypatch) -> List[Any]:
    """Every listening socket a ``TcpCluster`` opens from here on."""
    opened: List[Any] = []
    real_start = TcpCluster.start

    def start(self):
        try:
            real_start(self)
        finally:
            opened.extend(self._listeners.values())

    monkeypatch.setattr(TcpCluster, "start", start)
    return opened


class TestTeardown:
    def test_bad_open_rate_is_rejected_before_any_socket_opens(self, monkeypatch):
        opened = _opened_listeners(monkeypatch)
        with pytest.raises(ValueError, match="rate must be positive"):
            run_runtime_scenario(
                RuntimeScenarioConfig(
                    scenario=_config(driver="open", open_rate=0.0), backend="tcp"
                )
            )
        assert opened == []

    def test_failure_after_start_still_closes_every_socket(self, monkeypatch):
        """Whatever raises once the listening sockets are open -- here a
        driver that refuses to be built -- the cluster is shut down."""
        opened = _opened_listeners(monkeypatch)

        def refuse(*_args: Any, **_kwargs: Any) -> Any:
            raise ValueError("no driver today")

        monkeypatch.setattr(runtime_scenario, "OpenLoopDriver", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no driver today"):
                run_runtime_scenario(
                    RuntimeScenarioConfig(scenario=_config(driver="open"), backend="tcp")
                )
            gc.collect()
        assert len(opened) == 2 * 3 + 4  # every server and client had a socket
        assert all(listener.fileno() == -1 for listener in opened)  # closed
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_an_error_in_a_turn_ends_the_run_after_shutdown(self, monkeypatch):
        """A handler that raises does not leave the run to time out: the
        error propagates from ``run_runtime_scenario``, and every socket
        and the epoll fd are closed first."""
        opened = _opened_listeners(monkeypatch)
        clusters: List[TcpCluster] = []
        real_make = runtime_scenario._make_cluster

        def make(config: RuntimeScenarioConfig) -> TcpCluster:
            clusters.append(real_make(config))
            return clusters[-1]

        def faulty(self: OARServer, src: str, payload: Any) -> None:
            raise RuntimeError("handler bug")

        monkeypatch.setattr(runtime_scenario, "_make_cluster", make)
        monkeypatch.setattr(OARServer, "on_message", faulty)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="handler bug"):
                run_runtime_scenario(
                    RuntimeScenarioConfig(scenario=_config(), backend="tcp", timeout=30)
                )
            gc.collect()
        (cluster,) = clusters
        assert cluster.now < 10  # not the deadline: the first request raised
        assert cluster._epoll is None and cluster._handlers == {}
        assert all(listener.fileno() == -1 for listener in opened)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_knob_budget():
    """The runtime's whole option surface; a new knob has to argue its
    way past this list."""
    assert {field.name for field in fields(RuntimeScenarioConfig)} == {
        "scenario",
        "backend",
        "time_scale",
        "timeout",
        "tcp_flush_interval",
        "fd_interval",
        "fd_timeout",
        "grace",
    }
    assert list(inspect.signature(TcpCluster).parameters) == [
        "seed",
        "trace_level",
        "flush_interval",
    ]
    # No module switch either: the TCP-only order window is gone.
    assert not hasattr(runtime_scenario, "TCP_BATCH_INTERVAL")
    # What a protocol process may ask of its host (``defer`` since PR 17).
    assert {name for name in vars(ProcessEnv) if not name.startswith("_")} == {
        "pid",
        "now",
        "rng",
        "peers",
        "send",
        "send_to_all",
        "set_timer",
        "post",
        "defer",
        "trace",
    }

    # The sim scenarios' surface: one config dataclass, every knob
    # declared once.  One replication group is not a second type:
    # ScenarioConfig only fills that case's defaults in.
    assert {field.name for field in fields(ShardedScenarioConfig)} == {
        "n_shards", "n_servers", "n_clients", "requests_per_client", "machine", "seed",
        "protocol", "router", "latency", "fd_kind", "fd_interval", "fd_timeout", "oar",
        "read_mode", "exec_cost", "exec_lanes", "workload", "read_ratio", "n_keys",
        "zipf_s", "cross_ratio", "hot_ratio", "accounts_per_shard", "initial_balance",
        "driver", "open_rate", "think_time", "driver_start_at", "arrival", "n_sessions",
        "client_rate", "measure_from", "retry_interval", "load_half_life",
        "redirect_delay", "max_redirects", "fault_schedule", "arm", "horizon",
        "max_events", "grace", "trace_messages", "trace_level",
    }
    assert len(fields(ShardedScenarioConfig)) == 43
    assert type(ScenarioConfig()) is ShardedScenarioConfig


def test_one_way_to_wait_for_an_adoption():
    """The client's budget: who gets an adoption is the request's
    ``then`` (``OARClient._record_adoption``), not a table keyed by
    request id; a new side table or private-hook override has to argue
    its way past this list."""
    overridden = set(vars(ShardedOARClient)) & set(vars(OARClient))
    assert overridden - {"__doc__", "__module__", "__annotations__"} == {
        "__init__", "submit", "outstanding", "_read_redirect",
    }
    assert list(inspect.signature(OARClient.submit).parameters) == [
        "self", "op", "servers", "then", "submit_time",
    ]
    assert inspect.signature(ShardedOARClient.submit) == inspect.signature(OARClient.submit)
    run = build_sharded_scenario(ShardedScenarioConfig(requests_per_client=0))
    coordinator = attach_rebalancer(run)
    gone = {
        "_branch_to_tx", "_op_of", "_redirect_attempts", "_scatter", "_scatter_branch",
        "_budget_of", "_borrows", "_intercept_adoption", "_remap_logical", "_stage_of",
    }
    for thing in (run.clients[0], coordinator):
        assert gone & set(dir(thing)) == set(), type(thing).__name__
    assert coordinator.client.on_adopt is None  # stages are continuations


class _Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Any] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


class _PingPong(Process):
    """Answers every number below ``limit`` with its successor."""

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.limit = self.last = 0

    def on_message(self, src: str, payload: int) -> None:
        self.last = payload
        if payload < self.limit:
            self.env.send(src, payload + 1)


def started(*processes: Process, **kwargs: Any) -> TcpCluster:
    cluster = TcpCluster(trace_level="off", **kwargs)
    for process in processes:
        cluster.add_process(process)
    cluster.start()
    return cluster


def settle(cluster: TcpCluster, seconds: float) -> None:
    """Run the loop for ``seconds``, whatever happens."""
    cluster.run_until(lambda: False, timeout=seconds)


class TestTransport:
    def test_a_read_allocates_no_receive_buffer(self):
        """The allocation pin.  A ``sock.recv(n)`` allocates an n-byte
        ``bytes`` for every read of a ten-byte frame (asyncio's plain
        ``Protocol`` asks for 256 KiB); reads into the cluster's standing
        buffer allocate the decoded objects only.  Counted in bytes, so
        it needs no reference machine: ~264 KB with a 256 KiB ``recv``,
        2-12 KB without."""
        a, b = _PingPong("a"), _PingPong("b")
        cluster = started(a, b)

        def volley(messages: int) -> None:
            a.limit = b.limit = max(a.last, b.last) + messages
            a.env.send("b", a.limit - messages + 1)
            assert cluster.run_until(lambda: max(a.last, b.last) == a.limit, timeout=10)

        try:
            volley(64)  # connections made, caches and free lists warm
            reads = cluster.stats()["wakeups"]
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                volley(1000)
                peak = tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()
            reads = cluster.stats()["wakeups"] - reads
        finally:
            cluster.shutdown()
        assert reads == 1000  # strict alternation: one frame per read
        assert peak < 64 * 1024

    def test_coalescing_shares_writes_and_fanout_encodes_once(self):
        a = _Recorder("a")
        receivers = [_Recorder(f"r{i}") for i in range(3)]
        cluster = started(a, *receivers)
        payload = ("broadcast", "x" * 64)
        for _ in range(20):  # same object, fan-out to all receivers
            for receiver in receivers:
                a.env.send(receiver.pid, payload)
        cluster.run_until(lambda: all(len(r.received) == 20 for r in receivers), timeout=5)
        stats = cluster.stats()
        cluster.shutdown()
        assert stats["frames_sent"] == 60
        # All frames to one destination were emitted outside any turn:
        # they share a single flush per connection, not one write per
        # frame -- and a single wakeup on the other side.
        assert stats["flushes"] == 3
        assert stats["wakeups"] == 3
        # The identity cache only re-encodes when the object changes:
        # the same payload object across the whole synchronous burst is
        # one encode, every other send is a hit.
        assert stats["encode_cache_hits"] == 59

    def test_dead_writer_reconnects_once_and_redelivers(self):
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "first")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        # Drop the connection at the peer's end: the cached socket sees
        # EOF, and the next flush must reconnect once and still deliver.
        conn = cluster._conns[("a", "b")]
        (accepted_by_b,) = cluster._inbound
        accepted_by_b.close()
        assert cluster.run_until(lambda: conn.sock is None, timeout=5)
        a.env.send("b", "second")
        delivered = cluster.run_until(lambda: len(b.received) == 2, timeout=5)
        stats = cluster.stats()
        cluster.shutdown()
        assert delivered
        assert stats["reconnects"] == 1
        assert stats["dropped_frames"] == 0

    def test_frames_to_crashed_peer_are_dropped_not_raised(self):
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        cluster.crash("b")  # listener closed; no connection exists yet
        a.env.send("b", "into the void")
        settle(cluster, 0.05)
        stats = cluster.stats()
        attempts = list(cluster._conns)
        cluster.shutdown()
        assert b.received == []
        # Dropped at the door: counted, never encoded, and no connection
        # (so no connect attempt) was ever made for it.
        assert stats["dropped_frames"] == 1
        assert stats["frames_sent"] == 0
        assert attempts == []

    def test_crash_closes_the_pids_transports_and_later_frames_are_dropped(self):
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "ping")
        b.env.send("a", "pong")
        cluster.run_until(lambda: len(a.received) == 1 and len(b.received) == 1, timeout=5)
        (accepted_by_b,) = [i for i in cluster._inbound if i.pid == "b"]
        b.env.send("a", "last words")  # buffered when the crash hits
        cluster.crash("b")
        assert accepted_by_b.sock is None and accepted_by_b not in cluster._inbound
        assert cluster._conns["b", "a"].sock is None  # written, then closed
        assert "b" not in cluster._listeners
        cluster.run_until(lambda: len(a.received) == 2, timeout=5)
        before = cluster.stats()
        a.env.send("b", "anyone there?")
        settle(cluster, 0.05)
        after = cluster.stats()
        cluster.shutdown()
        # What b sent before it crashed is still delivered ...
        assert [payload for _src, payload in a.received] == ["pong", "last words"]
        # ... and a frame for it afterwards goes nowhere: no encode, no
        # write down the half-dead connection, no reconnect.
        assert after["dropped_frames"] == before["dropped_frames"] + 1
        assert after["frames_sent"] == before["frames_sent"]
        assert after["reconnects"] == 0

    def test_an_established_mesh_owns_no_tasks(self):
        """Nothing polls, drains or lingers: once the connects are done
        there is no task, timer or write interest -- the loop watches its
        sockets for input and nothing else."""
        processes = [_Recorder(f"p{i}") for i in range(3)]
        cluster = started(*processes)
        for src in processes:
            for dst in processes:
                src.env.send(dst.pid, f"from {src.pid}")
        delivered = cluster.run_until(
            lambda: all(len(p.received) == 3 for p in processes), timeout=5
        )
        conns = list(cluster._conns.values())
        idle = [not (c.connecting or c.pending or c.buf) for c in conns]
        fds = len(cluster._handlers)
        timers = list(cluster._timers)
        cluster.shutdown()
        assert delivered
        assert len(conns) == 9 and all(idle)
        assert fds == 3 + 9 + 9  # listeners, accepted sides, connecting sides
        assert timers == []

    def test_shutdown_delivers_frames_buffered_in_the_last_turn(self):
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "hello")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        for index in range(3):
            a.env.send("b", index)  # still in conn.buf: no turn has ended
        assert len(cluster._conns["a", "b"].buf) == 3
        cluster.shutdown()
        assert [payload for _src, payload in b.received] == ["hello", 0, 1, 2]

    def test_shutdown_closes_every_socket_and_the_epoll_fd(self):
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "hello")
        b.env.send("a", "hello")
        cluster.run_until(lambda: len(b.received) == len(a.received) == 1, timeout=5)
        epoll = cluster._epoll
        socks = [c.sock for c in cluster._conns.values()]
        socks += [i.sock for i in cluster._inbound] + list(cluster._listeners.values())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cluster.shutdown()
            gc.collect()
        assert len(socks) == 2 + 2 + 2
        assert all(sock.fileno() == -1 for sock in socks)
        assert epoll.closed and cluster._handlers == {}
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_shutdown_runs_a_pending_defer_drain_and_counts_what_it_refuses(self):
        """A ``defer`` drain still pending at ``shutdown`` is the last
        turn: its send is delivered.  What a later drain sends meets
        closed connections and is counted as dropped, so every frame
        shows up in the books."""
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "hello")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)

        def last_turn() -> None:
            a.env.send("b", "deferred")
            a.env.defer(lambda: a.env.send("b", "too late"))

        cluster.turn(lambda: a.env.defer(last_turn))
        cluster.shutdown()
        stats = cluster.stats()
        assert [payload for _src, payload in b.received] == ["hello", "deferred"]
        assert (stats["frames_sent"], stats["frames_received"]) == (2, 2)
        assert stats["dropped_frames"] == 1

    def test_backpressure_holds_frames_until_the_transport_resumes(self):
        """Over a real socket: while a partial write's remainder waits for
        ``EPOLLOUT``, flushes leave the frames in ``conn.buf``; once the
        peer reads, they are written in order."""
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        a.env.send("b", "hello")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        conn = cluster._conns["a", "b"]
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        big = "x" * (4 << 20)  # more than the peer's window and our buffer
        a.env.send("b", big)  # past ``_FLUSH_BYTES``: written inside the send
        assert conn.pending  # ... in part: b has not read
        for index in range(5):
            cluster.turn(lambda index=index: a.env.send("b", index))  # a flush pass each
        held = len(conn.buf)
        cluster.run_until(lambda: len(b.received) == 7, timeout=10)
        cluster.shutdown()
        assert held == 5
        assert [payload for _src, payload in b.received] == ["hello", big, 0, 1, 2, 3, 4]

    def test_trace_level_off_disables_recording(self):
        a = _Recorder("a")
        cluster = started(a)
        a.env.trace("custom", x=1)
        cluster.shutdown()
        assert cluster.trace.events() == []

    def test_oversized_payload_flushes_inside_send(self):
        """The size trigger: a connection buffer past ``_FLUSH_BYTES`` is
        written by ``send_frame`` itself, before the turn boundary."""
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b)
        # Establish the connection first: frames buffered while the
        # connect is in flight wait for it whatever their size.
        a.env.send("b", "hello")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        before = cluster.stats()["flushes"]
        a.env.send("b", "small")
        after_small = cluster.stats()["flushes"]
        a.env.send("b", "x" * (_FLUSH_BYTES + 1))
        after_big = cluster.stats()["flushes"]  # the loop has not run since the sends
        delivered = cluster.run_until(lambda: len(b.received) == 3, timeout=5)
        cluster.shutdown()
        assert after_small == before  # under the trigger: waits for the pass
        assert after_big == before + 1  # both frames, one write, synchronously
        assert delivered

    def test_flush_interval_batches_across_turns(self):
        """With a timed flush window, frames sent in *separate* turns
        still share one write (turn-boundary flushing cannot)."""
        a, b = _Recorder("a"), _Recorder("b")
        cluster = started(a, b, flush_interval=0.05)
        a.env.send("b", "hello")
        cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        baseline = cluster.stats()["flushes"]
        for index in range(5):
            a.env.send("b", index)
            cluster._run_once(0.0)  # a fresh loop iteration per frame
        cluster.run_until(lambda: len(b.received) == 6, timeout=5)
        stats = cluster.stats()
        cluster.shutdown()
        assert stats["flushes"] - baseline == 1

    def test_one_flush_window_serves_every_connection(self):
        """The first frame buffered since the last pass arms the one
        pass, ``flush_interval`` out, and that pass writes every
        connection dirty by then: frames for two connections, buffered in
        separate iterations 10 ms apart, leave together, and the first
        waits the window, no longer."""
        a, b, c = _Recorder("a"), _Recorder("b"), _Recorder("c")
        cluster = started(a, b, c, flush_interval=0.05)
        a.env.send("b", "hello")
        a.env.send("c", "hello")
        assert cluster.run_until(lambda: len(b.received) == len(c.received) == 1, timeout=5)
        passes: List[Tuple[float, List[Tuple[str, str]]]] = []
        flush_pass = cluster._flush_pass

        def recording_pass() -> None:
            passes.append((tcp._monotonic(), [conn.key for conn in cluster._dirty]))
            flush_pass()

        cluster._flush_pass = recording_pass
        before = cluster.stats()
        first = tcp._monotonic()
        a.env.send("b", 1)
        settle(cluster, 0.01)  # iterations inside the window
        a.env.send("c", 2)
        delivered = cluster.run_until(lambda: len(b.received) == len(c.received) == 2, timeout=5)
        stats = cluster.stats()
        cluster.shutdown()
        assert delivered
        assert [keys for _when, keys in passes] == [[("a", "b"), ("a", "c")]]
        assert stats["timers_fired"] - before["timers_fired"] == 1
        assert stats["flushes"] - before["flushes"] == 2
        # the window runs from the first frame; 20 ms is slack for the host
        assert 0.05 <= passes[0][0] - first < 0.05 + 0.02


#: Exact loop and transport counts of one closed-loop TCP run: one group
#: of 3 replicas, 1 client x 200 kv writes, a scripted detector, trace
#: off, turn-boundary flush.  A closed loop never sleeps until a timer
#: (every driver step is posted already due), so these repeat on any
#: machine; how precisely the loop sleeps cannot move them.
TCP_CLOSED_LOOP_COUNTS = {
    "frames_sent": 2800,
    "flushes": 2798,
    "iterations": 605,
    "timers_fired": 200,
    "wakeups": 2400,
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_closed_loop_tcp_counts_are_exact(seed):
    run = run_runtime_scenario(RuntimeScenarioConfig(scenario=ShardedScenarioConfig(
        seed=seed, n_shards=1, n_servers=3, n_clients=1, requests_per_client=200,
        machine="kv", workload="uniform", fd_kind="scripted", trace_level="off",
    )))
    assert run.completed and len(run.adopted()) == 200
    stats = run.transport_stats()
    assert {name: stats[name] for name in TCP_CLOSED_LOOP_COUNTS} == TCP_CLOSED_LOOP_COUNTS
