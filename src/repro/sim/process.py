"""Process abstraction: protocol cores are written against ``ProcessEnv``.

A protocol implementation (OAR server, consensus participant, ...) is a
:class:`Process` subclass.  It never touches the simulator or sockets
directly; it only calls methods on its :class:`ProcessEnv`.  The
deterministic simulator (:mod:`repro.sim.network`) and the TCP host of
:mod:`repro.runtime` are both a :class:`Host` -- one process table, one
crash-stop rule -- and both hand their processes a :class:`HostEnv`, the
one implementation, so the exact same protocol code runs under both.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set

from repro.sim.loop import TimerHandle
from repro.sim.trace import TraceLog


def _no_trace(kind: str, **fields: Any) -> None:
    """``env.trace`` of a host whose log is off (sim and runtime alike)."""


class ProcessEnv:
    """The narrow world a protocol process can see.

    Concrete environments are created by the hosting substrate; protocol
    code receives one in :meth:`Process.start` and stores it as
    ``self.env``.
    """

    @property
    def pid(self) -> str:
        """This process's identifier."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        """Current time (simulated or wall-clock seconds)."""
        raise NotImplementedError

    def send(self, dst: str, payload: Any) -> None:
        """Send ``payload`` to ``dst`` over the reliable FIFO channel.

        A multicast is a loop of these -- *not* an atomic one.  A crash
        can interrupt it partway, which is exactly the behaviour the
        paper's Figures 3 and 4 depend on.
        """
        raise NotImplementedError

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` after ``delay``; cancellable via the handle."""
        raise NotImplementedError

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`set_timer` for events that never cancel.

        No handle is allocated (the simulator routes zero-delay posts
        onto its same-instant fast lane).
        """
        raise NotImplementedError

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the input being handled now is consumed.

        Work that is better done once per burst of input than once per
        message (the sequencer's Task 1a) goes through here.  The
        simulator hands a process one message per event and has nothing
        more to consume, so it makes a plain synchronous call.  The TCP
        host reads many frames per wake-up and runs the callback at the
        end of its loop iteration, once every chunk that was readable and
        every due timer has been handled; a process that crashes in
        between never sees it run (the rule timers follow).
        """
        raise NotImplementedError

    def trace(self, kind: str, **fields: Any) -> None:
        """Record a structured trace event (see :mod:`repro.analysis.trace`)."""
        raise NotImplementedError


class HostEnv(ProcessEnv):
    """The one :class:`ProcessEnv`, of both hosts.

    ``host`` is the :class:`Host` (the sim's network or the TCP
    cluster) the process runs on.  What a protocol calls on every message
    and timer is the host's own method with this pid filled in -- no
    frame of ours in between -- bound when the process starts, so a
    method patched on the class before then is the one called.
    """

    def __init__(self, host: Host, pid: str) -> None:
        self._clock = host._clock
        self._pid = pid
        self.send = partial(getattr(host, host._send_name), pid)  # type: ignore[method-assign]
        self.set_timer = partial(host.set_timer, pid)  # type: ignore[method-assign]
        self.post = partial(host.post, pid)  # type: ignore[method-assign]
        self.defer = partial(host.defer, pid)  # type: ignore[method-assign]
        self._trace_record = host.trace.record
        if not host.trace.enabled:
            # Dropped at the door: no kwargs packed, no clock read.
            self.trace = _no_trace  # type: ignore[method-assign]

    @property
    def pid(self) -> str:
        return self._pid

    @property
    def now(self) -> float:
        return self._clock.now

    def trace(self, kind: str, **fields: Any) -> None:
        self._trace_record(self._clock.now, self._pid, kind, **fields)


class Host:
    """What processes run on, under the paper's system model (Section 3).

    The base of both hosts, :class:`~repro.sim.network.SimNetwork` and
    :class:`~repro.runtime.tcp.TcpCluster`: the process table, the
    crash-stop rule and the trace.  ``clock.now`` is the host's time
    (the simulator's, or the cluster's own); a subclass names its
    ``send(src, dst, payload)`` in ``_send_name``, and that method, with
    ``set_timer``, ``post`` and ``defer`` (each taking the pid first), is
    what :class:`HostEnv` binds.  Each host filters crashed pids inline
    at its own input points (deliveries, timers, sends), on the one
    ``_crashed`` set: a shared call there would cost a frame per event.
    """

    #: looked up by name when a process starts, so a method wrapped on
    #: the class before then is the one every send goes through
    _send_name: str

    def __init__(self, clock: Any, trace_level: str = "full") -> None:
        self._clock = clock
        self.trace = TraceLog(level=trace_level)
        self._processes: Dict[str, Process] = {}
        self._crashed: Set[str] = set()

    @property
    def pids(self) -> List[str]:
        """All registered process identifiers, in registration order."""
        return list(self._processes)

    def process(self, pid: str) -> Process:
        return self._processes[pid]

    def add_process(self, process: Process) -> None:
        """Register a process; :meth:`start_all` starts it."""
        if process.pid in self._processes:
            raise ValueError(f"duplicate pid: {process.pid}")
        self._processes[process.pid] = process

    def is_crashed(self, pid: str) -> bool:
        return pid in self._crashed

    def crash(self, pid: str) -> None:
        """Crash ``pid`` now (crash-stop: it never executes again)."""
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        process = self._processes.get(pid)
        if process is not None:
            process.crashed = True
            process.on_crash()
        self.trace.record(self._clock.now, pid, "crash")

    def start_all(self) -> None:
        """Hand every process not started yet its env and run its
        initialization hook."""
        for pid, process in self._processes.items():
            if process.env is None:
                process.start(HostEnv(self, pid))


class Process:
    """Base class for all protocol actors.

    Lifecycle: the hosting substrate calls :meth:`start` once, delivers
    messages via :meth:`on_message`, and calls :meth:`on_crash` if the
    process is crashed by fault injection.  Handlers run one at a time
    (mutual exclusion), matching the paper's task model (Section 5.3).
    """

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.env: Optional[ProcessEnv] = None
        self.crashed = False

    def start(self, env: ProcessEnv) -> None:
        """Bind the environment and run protocol initialization."""
        self.env = env
        self.on_start()

    def on_start(self) -> None:
        """Protocol initialization hook (timers, initial sends)."""

    def on_message(self, src: str, payload: Any) -> None:
        """Handle one delivered message."""

    def on_crash(self) -> None:
        """Hook invoked when fault injection crashes this process."""

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.pid} ({status})>"
