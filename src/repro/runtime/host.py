"""The wall-clock process env: what a process hosted by a
:class:`~repro.runtime.tcp.TcpCluster` sees as its world.

Time is the cluster's monotonic clock, and ``send``, ``set_timer``,
``post`` and ``defer`` are the cluster's own with the pid bound: a timer
is an entry on the cluster's heap, run as one turn of its loop.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.process import ProcessEnv, _no_trace

if TYPE_CHECKING:
    from repro.runtime.tcp import TcpCluster


class WallClockEnv(ProcessEnv):
    """ProcessEnv implementation backed by a :class:`~repro.runtime.tcp.TcpCluster`."""

    def __init__(self, cluster: "TcpCluster", pid: str, seed: int) -> None:
        self._cluster = cluster
        self._pid = pid
        self._rng = random.Random(f"{seed}/{pid}")
        # One call each: the cluster's own, with the pid bound.
        self.send = partial(cluster.send_frame, pid)  # type: ignore[method-assign]
        self.set_timer = partial(cluster.set_timer, pid)  # type: ignore[method-assign]
        self.post = partial(cluster.post, pid)  # type: ignore[method-assign]
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

    def trace(self, kind: str, **fields: Any) -> None:
        self._cluster.trace.record(self._cluster.now, self._pid, kind, **fields)
