"""Unit tests for the wall-clock host's plumbing (timers, crash, routing)
and for the event loop it runs."""

import importlib
import os
import pkgutil
import statistics
import subprocess
import sys
import time
from typing import Any, List

import pytest

import repro
from repro.runtime import tcp
from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedScenarioConfig
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.process import Host, Process, ProcessEnv

pytestmark = pytest.mark.unit


class Recorder(Process):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.received: List[Any] = []

    def on_message(self, src: str, payload: Any) -> None:
        self.received.append((src, payload))


def started(*pids: str, **kwargs: Any) -> TcpCluster:
    cluster = TcpCluster(**kwargs)
    for pid in pids:
        cluster.add_process(Recorder(pid))
    cluster.start_all()
    return cluster


def settle(cluster: TcpCluster, seconds: float) -> None:
    """Run the loop for ``seconds``, whatever happens."""
    cluster.run_until(lambda: False, timeout=seconds)


class Waits:
    """The loop's waits: the timeout of every ``epoll.poll`` (through the
    cluster's epoll) and of every ``select.select`` (patched in the
    module)."""

    def __init__(self, cluster: TcpCluster, monkeypatch: Any) -> None:
        self.polls: List[float] = []
        self.selects: List[float] = []
        waits, epoll, real_select = self, cluster._epoll, tcp.select.select

        class Epoll:
            def poll(self, timeout: float) -> Any:
                waits.polls.append(timeout)
                return epoll.poll(timeout)

            def __getattr__(self, name: str) -> Any:
                return getattr(epoll, name)

        def select(rlist: Any, wlist: Any, xlist: Any, timeout: float) -> Any:
            waits.selects.append(timeout)
            return real_select(rlist, wlist, xlist, timeout)

        cluster._epoll = Epoll()
        monkeypatch.setattr(tcp.select, "select", select)


class TestTcpCluster:
    def test_route_and_mutual_exclusion(self):
        cluster = TcpCluster()
        a, b = Recorder("a"), Recorder("b")
        cluster.add_process(a)
        cluster.add_process(b)
        cluster.start_all()
        for index in range(20):
            a.env.send("b", index)
        cluster.run_until(lambda: len(b.received) == 20, timeout=5)
        cluster.shutdown()
        assert [payload for _src, payload in b.received] == list(range(20))

    def test_crashed_process_neither_sends_nor_receives(self):
        cluster = TcpCluster()
        a, b = Recorder("a"), Recorder("b")
        cluster.add_process(a)
        cluster.add_process(b)
        cluster.start_all()
        cluster.crash("b")
        a.env.send("b", "into the void")
        b.env.send("a", "from the grave")
        settle(cluster, 0.05)
        cluster.shutdown()
        assert b.crashed
        assert b.received == []
        assert a.received == []

    def test_timer_fires_and_cancel_prevents(self):
        cluster = started("a")
        env = cluster._processes["a"].env
        fired = []
        handle1 = env.set_timer(0.01, lambda: fired.append("one"))
        handle2 = env.set_timer(0.01, lambda: fired.append("two"))
        handle2.cancel()
        settle(cluster, 0.05)
        cluster.shutdown()
        assert fired == ["one"]
        assert handle1.fired and handle1.active is False
        assert handle2.cancelled and not handle2.fired

    def test_timers_suppressed_after_crash(self):
        cluster = started("a")
        fired = []
        cluster._processes["a"].env.set_timer(0.02, lambda: fired.append("x"))
        cluster.crash("a")
        settle(cluster, 0.05)
        cluster.shutdown()
        assert fired == []

    def test_trace_records_with_cluster_clock(self):
        cluster = started("a")
        cluster._processes["a"].env.trace("custom", x=1)
        cluster.shutdown()
        events = cluster.trace.events(kind="custom")
        assert len(events) == 1
        assert events[0].pid == "a"
        assert events[0].time >= 0.0


class Crashable(Recorder):
    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.crash_count = 0

    def on_crash(self) -> None:
        self.crash_count += 1


def unstarted(backend: str) -> Host:
    return SimNetwork(Simulator()) if backend == "sim" else TcpCluster()


class TestHost:
    """The process table and crash-stop, written once on ``Host``, as
    each host sees them."""

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_on_crash_hook_runs_once(self, backend):
        host = unstarted(backend)
        process = Crashable("p1")
        host.add_process(process)
        host.start_all()
        host.crash("p1")
        host.crash("p1")
        if backend == "tcp":
            host.shutdown()
        assert process.crash_count == 1
        assert process.crashed and host.is_crashed("p1")
        assert [event.pid for event in host.trace.events(kind="crash")] == ["p1"]

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_duplicate_pid_rejected(self, backend):
        host = unstarted(backend)
        host.add_process(Recorder("a"))
        with pytest.raises(ValueError, match="duplicate"):
            host.add_process(Recorder("a"))
        host.start_all()
        if backend == "tcp":
            # Its listeners are open: the cluster takes no one after start.
            with pytest.raises(RuntimeError, match="already started"):
                host.add_process(Recorder("b"))
            host.shutdown()
        assert host.pids == ["a"]


class TestLoop:
    """The cluster's own loop: poll, ready handlers, due timers, drain."""

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_cancelled_timers_do_not_pile_up_on_the_heap(self, backend):
        # A read-retry timer is long and cancelled almost at once; on
        # either host the heap is rebuilt once more than half of it is
        # dead.
        if backend == "sim":
            network = SimNetwork(Simulator())
            network.start(Recorder("a"))
            env, queue, close = network.process("a").env, network.sim, lambda: None
        else:
            cluster = started("a")
            env, queue, close = cluster._processes["a"].env, cluster, cluster.shutdown
        keep = env.set_timer(60.0, lambda: None)
        for _ in range(10_000):
            env.set_timer(4.0, lambda: None).cancel()
        assert len(queue._queue) <= 3
        assert queue._queue[0][2] is keep
        close()

    def test_timers_fire_in_deadline_order_and_ties_in_scheduling_order(self, monkeypatch):
        cluster = started("a")
        env = cluster._processes["a"].env
        fired: List[str] = []
        now = tcp._monotonic()
        monkeypatch.setattr(tcp, "_monotonic", lambda: now)  # every deadline exact
        for name, delay in [("late", 0.03), ("tie-1", 0.01), ("early", 0.0),
                            ("tie-2", 0.01), ("tie-3", 0.01)]:
            env.post(delay, lambda name=name: fired.append(name))
        monkeypatch.undo()
        assert cluster.run_until(lambda: len(fired) == 5, timeout=1)
        cluster.shutdown()
        assert fired == ["early", "tie-1", "tie-2", "tie-3", "late"]

    def test_a_chain_of_late_timers_does_not_starve_the_others(self):
        # An open-loop driver behind schedule re-arms itself already due;
        # what it arms waits for the next iteration, behind the rest.
        cluster = started("a")
        env = cluster._processes["a"].env
        ran: List[str] = []

        def chain() -> None:
            ran.append("chain")
            env.post(-1.0, chain)

        env.post(0.0, chain)
        env.post(0.0, lambda: ran.append("other"))
        assert cluster.run_until(lambda: "other" in ran, timeout=1)
        cluster.shutdown()
        assert ran == ["chain", "other"]

    def test_a_crashed_pids_timers_and_deferred_work_never_run(self):
        cluster = started("a", "b")
        a, b = cluster._processes["a"].env, cluster._processes["b"].env
        ran: List[str] = []
        for env in (a, b):
            env.set_timer(0.0, lambda pid=env.pid: ran.append(f"timer {pid}"))
            env.post(0.0, lambda pid=env.pid: ran.append(f"post {pid}"))
            env.defer(lambda pid=env.pid: ran.append(f"defer {pid}"))
        cluster.crash("a")
        settle(cluster, 0.02)
        cluster.shutdown()
        assert ran == ["timer b", "post b", "defer b"]
        assert cluster.stats()["timers_fired"] == 2

    def test_an_idle_cluster_does_not_wake_itself(self, monkeypatch):
        cluster = started("a", "b")
        waits = Waits(cluster, monkeypatch)
        before = cluster.stats()["iterations"]
        settle(cluster, 0.2)
        iterations = cluster.stats()["iterations"] - before
        cluster.shutdown()
        assert iterations <= 2
        # blocked until the deadline: no 2 ms tick
        assert len(waits.selects) <= 2 and len(waits.polls) <= 2

    def test_a_timer_is_waited_for_to_the_microsecond(self, monkeypatch):
        """``epoll.poll`` rounds its timeout up to a whole millisecond,
        so the loop blocks in ``select`` on the epoll fd for exactly the
        time left, and polls only without waiting."""
        cluster = started("a")
        waits = Waits(cluster, monkeypatch)
        fired: List[bool] = []
        now = tcp._monotonic()
        monkeypatch.setattr(tcp, "_monotonic", lambda: now)
        cluster._processes["a"].env.post(0.0003, lambda: fired.append(True))
        cluster._run_once(now + 1.0)  # the clock held: not due after the wait
        assert fired == []
        monkeypatch.setattr(tcp, "_monotonic", lambda: now + 0.0003)
        cluster._run_once(now + 1.0)  # due: fires, without a wait
        cluster.shutdown()
        assert fired == [True]
        assert waits.selects == [pytest.approx(0.0003, abs=1e-6)]
        assert set(waits.polls) == {0.0}

    def test_no_timer_fires_early_and_few_fire_late(self, monkeypatch):
        """50 timers 0.1-0.9 ms out, on the real clock: none fires before
        its deadline, and the median is late by well under the 0.5 ms
        that waits rounded up to a millisecond make it."""
        cluster = started("a")
        env = cluster._processes["a"].env
        late: List[float] = []
        now = tcp._monotonic()
        monkeypatch.setattr(tcp, "_monotonic", lambda: now)
        for index in range(50):
            delay = 0.0001 + 0.0008 * index / 49
            env.post(delay, lambda due=now + delay: late.append(time.monotonic() - due))
        monkeypatch.undo()
        assert cluster.run_until(lambda: len(late) == 50, timeout=1)
        stats = cluster.stats()
        cluster.shutdown()
        assert min(late) >= 0.0
        assert statistics.median(late) < 0.0004
        # counted when the batch is taken, before each callback runs
        assert 0 <= stats["timer_late_us"] <= sum(late) * 1e6

    def test_a_turn_that_raises_is_closed_and_ends_run_until(self):
        cluster = started("a", "b")
        a = cluster._processes["a"].env

        def faulty() -> None:
            a.send("b", "sent before the bug")
            raise RuntimeError("timer bug")

        a.post(0.0, faulty)
        with pytest.raises(RuntimeError, match="timer bug"):
            settle(cluster, 1.0)
        assert cluster._in_turn is False
        # The turn's send was flushed on its way out, and the loop goes on.
        b = cluster._processes["b"]
        assert cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        cluster.shutdown()

    def test_loop_counters_are_in_stats(self):
        cluster = started("a", "b")
        a, b = cluster._processes["a"], cluster._processes["b"]
        a.env.post(0.0, lambda: a.env.send("b", "hello"))
        assert cluster.run_until(lambda: len(b.received) == 1, timeout=5)
        stats = cluster.stats()
        cluster.shutdown()
        assert stats["timers_fired"] == 1
        assert stats["timer_late_us"] >= 0
        # the timer's iteration, then the connect, the accept and the read
        assert 2 <= stats["iterations"] <= 6

    def test_start_says_the_host_needs_epoll(self, monkeypatch):
        monkeypatch.delattr(tcp.select, "epoll")
        cluster = TcpCluster()
        cluster.add_process(Recorder("a"))
        with pytest.raises(RuntimeError, match="select.epoll: the TCP host runs on Linux only"):
            cluster.start_all()
        cluster.shutdown()  # nothing was opened: nothing to close
        assert cluster._listeners == {}

    def test_start_says_select_takes_fds_below_fd_setsize(self, monkeypatch):
        def out_of_range(*_args: Any) -> None:
            raise ValueError("filedescriptor out of range in select()")

        opened: List[Any] = []
        real_epoll = tcp.select.epoll

        def epoll() -> Any:
            opened.append(real_epoll())
            return opened[-1]

        monkeypatch.setattr(tcp.select, "epoll", epoll)
        monkeypatch.setattr(tcp.select, "select", out_of_range)
        cluster = TcpCluster()
        cluster.add_process(Recorder("a"))
        with pytest.raises(RuntimeError, match=r"FD_SETSIZE \(1024\)"):
            cluster.start_all()
        assert len(opened) == 1 and opened[0].closed  # what it opened is closed
        cluster.shutdown()
        assert cluster._listeners == {}

    def test_both_hosts_hand_out_the_one_env(self):
        """The sim and TCP hosts share one ``ProcessEnv`` and one ``Host``
        base: a second env class (or the wall-clock host module), or a
        host redefining the process table, coming back fails."""
        for host in (SimNetwork, TcpCluster):
            assert issubclass(host, Host)
            assert not {"pids", "process", "is_crashed"} & set(vars(host))
        network = SimNetwork(Simulator())
        network.start(Recorder("a"))
        cluster = started("a")
        env_classes = {type(network.process("a").env), type(cluster._processes["a"].env)}
        cluster.shutdown()
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        subclasses, todo = set(), [ProcessEnv]
        while todo:
            for cls in todo.pop().__subclasses__():
                todo.append(cls)
                if cls.__module__.split(".")[0] == "repro":
                    subclasses.add(cls)
        assert len(env_classes) == 1 and subclasses == env_classes
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.host")

    def test_nothing_under_repro_imports_asyncio(self):
        # The TCP host runs its own loop: a fresh interpreter that
        # imports the package, the runtime and its scenario runner has
        # not loaded asyncio (nor the ssl and concurrent.futures it drags
        # in).
        code = (
            "import sys, repro, repro.runtime, repro.runtime.scenario\n"
            "print(sorted(m for m in ('asyncio', 'ssl', 'concurrent.futures')"
            " if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
        )
        assert out.stdout.strip() == "[]"


class TestDecodedNames:
    def test_bodies_name_clients_and_keys_by_the_processs_strings(self):
        """Over TCP every replica keeps the request bodies it decoded.
        Pids and keys are interned where they are minted, so ``marshal``
        decodes them to this process's one string; rids are not (their
        vocabulary has no bound), so each body keeps its own."""
        run = run_runtime_scenario(RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                n_shards=1, n_servers=3, n_clients=2, requests_per_client=5,
                machine="kv", workload="uniform", trace_level="off", seed=5,
            ),
            backend="tcp",
        ))
        assert run.completed and len(run.adopted()) == 10
        for server in run.view.servers:
            bodies = list(server.requests.values())
            assert len(bodies) == 10
            for body in bodies:
                assert sys.intern(body.client) is body.client
                assert sys.intern(body.op[1]) is body.op[1]
                # An equal string built here interns to itself, not to
                # the body's rid: nothing interned that rid.
                assert sys.intern("".join(body.rid)) is not body.rid
