"""In-process asyncio host for protocol processes.

Each process gets an inbox queue and a pump task that delivers one
message at a time (the same mutual-exclusion discipline as the
simulator).  Sends are queue puts, optionally after a fixed ``link_delay``
(constant, so FIFO per channel is preserved -- the paper's channel model).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.process import Process, ProcessEnv, _no_trace
from repro.sim.trace import TraceLog


class AsyncioTimerHandle:
    """Duck-type of :class:`repro.sim.loop.TimerHandle` over asyncio.

    The handle is itself the ``call_later`` callback: firing marks it and
    hands the callback to the cluster as one turn of its process.
    """

    __slots__ = ("_env", "_callback", "_handle", "cancelled", "fired", "deadline")

    def __init__(self, env: "AsyncioEnv", delay: float, callback: Callable[[], None]) -> None:
        self._env = env
        self._callback = callback
        self.cancelled = False
        self.fired = False
        loop = env._cluster.loop
        self.deadline = loop.time() + delay
        self._handle: Optional[asyncio.TimerHandle] = loop.call_later(delay, self)

    def __call__(self) -> None:
        self.fired = True
        self._handle = None  # it points back here: do not leave a cycle
        self._env._fire(self._callback)

    def cancel(self) -> None:
        if not self.fired:
            self.cancelled = True
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired


class AsyncioEnv(ProcessEnv):
    """ProcessEnv implementation backed by a :class:`RuntimeCluster`."""

    def __init__(self, cluster: "RuntimeCluster", pid: str, seed: int) -> None:
        self._cluster = cluster
        self._pid = pid
        self._rng = random.Random(f"{seed}/{pid}")
        if not cluster.trace.enabled:
            # Dropped at the door: no kwargs packed, no clock read.
            self.trace = _no_trace  # type: ignore[method-assign]

    @property
    def pid(self) -> str:
        return self._pid

    @property
    def now(self) -> float:
        return self._cluster.now

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def peers(self) -> Sequence[str]:
        return self._cluster.pids

    def send(self, dst: str, payload: Any) -> None:
        self._cluster.route(self._pid, dst, payload)

    def _fire(self, callback: Callable[[], None]) -> None:
        """A timer of this process came due (crash-stop: never after a crash)."""
        if not self._cluster.is_crashed(self._pid):
            self._cluster.turn(callback)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> AsyncioTimerHandle:
        return AsyncioTimerHandle(self, delay, callback)

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free timer: no AsyncioTimerHandle is allocated."""
        self._cluster.loop.call_later(delay, self._fire, callback)

    def trace(self, kind: str, **fields: Any) -> None:
        self._cluster.trace.record(self._cluster.now, self._pid, kind, **fields)


class RuntimeCluster:
    """What the wall-clock hosts share: processes, crash-stop, the clock.

    Subclasses supply the transport: ``start`` (hand every process its
    env and begin delivering) and ``shutdown``.
    """

    #: The event loop everything runs on, bound by :meth:`start`.
    loop: asyncio.AbstractEventLoop

    def __init__(self, seed: int = 0, trace_level: str = "full") -> None:
        self.seed = seed
        self.trace = TraceLog(level=trace_level)
        self._processes: Dict[str, Process] = {}
        self._crashed: set = set()
        self._started = False
        #: ``shutdown`` has run: a send from then on goes nowhere
        #: (counted as dropped where the transport keeps counts)
        self._closed = False
        self._epoch = time.monotonic()
        self._stats: Dict[str, int] = {}

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    @property
    def pids(self) -> List[str]:
        return list(self._processes)

    def add_process(self, process: Process) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        if process.pid in self._processes:
            raise ValueError(f"duplicate pid: {process.pid}")
        self._processes[process.pid] = process

    def is_crashed(self, pid: str) -> bool:
        return pid in self._crashed

    def crash(self, pid: str) -> None:
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        process = self._processes.get(pid)
        if process is not None:
            process.crashed = True
            process.on_crash()
        self.trace.record(self.now, pid, "crash")

    def stats(self) -> Dict[str, int]:
        """Transport counters (empty for a transport that keeps none)."""
        return dict(self._stats)

    async def start(self) -> None:
        """Bind the running loop and restart the clock; subclasses go on
        to hand every process its env."""
        self._started = True
        self._epoch = time.monotonic()
        self.loop = asyncio.get_running_loop()

    def turn(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as one turn: a timer or driver step that may
        send.  A transport that batches sends per turn overrides this."""
        callback()

    async def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 30.0,
        poll: float = 0.002,
    ) -> bool:
        """Poll ``predicate`` until true or ``timeout`` wall-clock seconds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            await asyncio.sleep(poll)
        return predicate()


class AsyncioCluster(RuntimeCluster):
    """Hosts processes on one asyncio event loop with queue transport.

    Usage::

        cluster = AsyncioCluster(link_delay=0.001)
        cluster.add_process(server); ...
        async def scenario():
            await cluster.start()
            ... submit requests ...
            await cluster.run_until(lambda: client.outstanding == 0)
            await cluster.shutdown()
        asyncio.run(scenario())
    """

    def __init__(
        self, link_delay: float = 0.0, seed: int = 0, trace_level: str = "full"
    ) -> None:
        super().__init__(seed, trace_level)
        self.link_delay = link_delay
        self._inboxes: Dict[str, "asyncio.Queue[Tuple[str, Any]]"] = {}
        self._pumps: List[asyncio.Task] = []

    def route(self, src: str, dst: str, payload: Any) -> None:
        if src in self._crashed:
            return
        inbox = self._inboxes.get(dst)
        if inbox is None:
            if self._closed:
                return
            # As on the simulator: a pid nobody hosts is a wiring bug.
            raise KeyError(f"unknown destination: {dst}")
        if self.link_delay > 0:
            # Constant delay keeps per-channel FIFO (asyncio call_later
            # with equal delays fires in scheduling order).
            self.loop.call_later(self.link_delay, inbox.put_nowait, (src, payload))
        else:
            inbox.put_nowait((src, payload))

    async def start(self) -> None:
        await super().start()
        self._inboxes = {pid: asyncio.Queue() for pid in self._processes}
        for pid, process in self._processes.items():
            process.start(AsyncioEnv(self, pid, self.seed))
        for pid in self._processes:
            self._pumps.append(self.loop.create_task(self._pump(pid)))

    async def _pump(self, pid: str) -> None:
        inbox = self._inboxes[pid]
        process = self._processes[pid]
        while True:
            src, payload = await inbox.get()
            if pid in self._crashed:
                continue
            process.on_message(src, payload)

    async def shutdown(self) -> None:
        self._closed = True
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()
