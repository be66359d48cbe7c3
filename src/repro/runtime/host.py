"""The wall-clock process env: what a process hosted by a
:class:`~repro.runtime.tcp.TcpCluster` sees as its world.

Time is the cluster's monotonic clock, timers are event-loop timers, and
``send`` / ``defer`` are the cluster's own, with the pid bound.
"""

from __future__ import annotations

import asyncio
import random
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.sim.process import ProcessEnv, _no_trace

if TYPE_CHECKING:
    from repro.runtime.tcp import TcpCluster


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
    """ProcessEnv implementation backed by a :class:`~repro.runtime.tcp.TcpCluster`."""

    def __init__(self, cluster: "TcpCluster", pid: str, seed: int) -> None:
        self._cluster = cluster
        self._pid = pid
        self._rng = random.Random(f"{seed}/{pid}")
        # One call per frame: the cluster's ``send_frame`` with the pid
        # bound (and ``defer``, which waits for the loop).
        self.send = partial(cluster.send_frame, pid)  # type: ignore[method-assign]
        self.defer = partial(cluster.defer, pid)  # type: ignore[method-assign]
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
