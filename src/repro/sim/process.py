"""Process abstraction: protocol cores are written against ``ProcessEnv``.

A protocol implementation (OAR server, consensus participant, ...) is a
:class:`Process` subclass.  It never touches the simulator or sockets
directly; it only calls methods on its :class:`ProcessEnv`.  The
deterministic simulator (:mod:`repro.sim.network`) and the TCP host of
:mod:`repro.runtime` both provide the same interface, so the exact same
protocol code runs under both.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.sim.loop import TimerHandle


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

    @property
    def rng(self) -> random.Random:
        """Deterministic per-process random generator."""
        raise NotImplementedError

    @property
    def peers(self) -> Sequence[str]:
        """All process identifiers known to the hosting network."""
        raise NotImplementedError

    def send(self, dst: str, payload: Any) -> None:
        """Send ``payload`` to ``dst`` over the reliable FIFO channel."""
        raise NotImplementedError

    def send_to_all(self, dsts: Iterable[str], payload: Any) -> None:
        """Send ``payload`` to each destination, in iteration order.

        This is a plain loop of :meth:`send` calls -- *not* an atomic
        multicast.  A crash can interrupt it partway, which is exactly the
        behaviour the paper's Figures 3 and 4 depend on.
        """
        for dst in dsts:
            self.send(dst, payload)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` after ``delay``; cancellable via the handle."""
        raise NotImplementedError

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`set_timer` for events that never cancel.

        Substrates override this to skip per-event handle allocation
        (the simulator routes zero-delay posts onto its same-instant
        fast lane); the default just discards the handle.
        """
        self.set_timer(delay, callback)

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the input being handled now is consumed.

        Work that is better done once per burst of input than once per
        message (the sequencer's Task 1a) goes through here.  A host
        that hands a process one message per event has nothing more to
        consume, so the default -- the simulator's -- is a plain
        synchronous call.  The TCP host reads many
        frames per wake-up and runs the callback at the end of its loop
        iteration, once every chunk that was readable and every due
        timer has been handled; a process that crashes in between never
        sees it run (the rule timers follow).
        """
        callback()

    def trace(self, kind: str, **fields: Any) -> None:
        """Record a structured trace event (see :mod:`repro.analysis.trace`)."""
        raise NotImplementedError


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
