"""Heartbeat and scripted failure detectors.

See :mod:`repro.failure` for the ◇S properties these provide.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set

from repro.sim.component import Component
from repro.sim.process import Process
from repro.values import frozen_value

#: Listener signature: (pid, suspected) -- called on every transition.
SuspicionListener = Callable[[str, bool], None]


def resolve_fd(fd_or_factory: object, host: Process) -> "FailureDetector":
    """Accept either a detector instance or a ``host -> detector`` factory.

    Heartbeat detectors need their host process (they send through its
    environment), which creates a chicken-and-egg problem for callers
    building a server: pass a factory and the server resolves it against
    itself.
    """
    if isinstance(fd_or_factory, FailureDetector):
        return fd_or_factory
    if callable(fd_or_factory):
        return fd_or_factory(host)
    raise TypeError(f"not a failure detector or factory: {fd_or_factory!r}")


@frozen_value
class Heartbeat:
    """Periodic liveness message exchanged between group members."""

    seq: int


class FailureDetector:
    """Common interface: query suspicions, subscribe to transitions."""

    def __init__(self) -> None:
        self._suspected: Set[str] = set()
        self._listeners: List[SuspicionListener] = []

    @property
    def suspects(self) -> Set[str]:
        """The current suspicion set D_p (a copy)."""
        return set(self._suspected)

    def is_suspected(self, pid: str) -> bool:
        """True while ``pid`` is in the suspicion set."""
        return pid in self._suspected

    def add_listener(self, listener: SuspicionListener) -> None:
        """Subscribe to (pid, suspected) transitions."""
        self._listeners.append(listener)

    def _transition(self, pid: str, suspected: bool) -> None:
        if suspected and pid not in self._suspected:
            self._suspected.add(pid)
        elif not suspected and pid in self._suspected:
            self._suspected.discard(pid)
        else:
            return
        for listener in list(self._listeners):
            listener(pid, suspected)


class ScriptedFailureDetector(FailureDetector):
    """A failure detector entirely driven by the experiment script.

    Used by the figure-exact reproductions: the scenario decides exactly
    when each process starts suspecting the sequencer, with no heartbeat
    traffic perturbing the run.
    """

    def force_suspect(self, pid: str) -> None:
        """Inject a suspicion (the experiment script plays the oracle)."""
        self._transition(pid, True)

    def force_unsuspect(self, pid: str) -> None:
        """Retract an injected suspicion."""
        self._transition(pid, False)


class HeartbeatFailureDetector(FailureDetector, Component):
    """◇S-style heartbeat failure detector.

    Every ``interval`` the owner sends a heartbeat to all monitored
    processes and checks, per monitored process, whether the last
    heartbeat from it is older than that process's current timeout.  A
    false suspicion (heartbeat received while suspected) multiplies the
    offender's timeout by ``backoff``, which yields eventual weak accuracy
    once timeouts exceed the real (post-stabilization) message delays.

    Parameters
    ----------
    host:
        The owning process (heartbeats are sent through its environment).
    monitored:
        The peers to watch (the rest of the group, typically).
    interval:
        Heartbeat period, in time units.
    timeout:
        Initial suspicion timeout.  Values close to the actual network
        delay produce aggressive (fast but mistake-prone) detection --
        the trade-off the paper discusses in Section 2.2.
    backoff:
        Multiplicative timeout increase after each false suspicion.
    """

    MESSAGE_TYPES = (Heartbeat,)

    def __init__(
        self,
        host: Process,
        monitored: Iterable[str],
        interval: float = 5.0,
        timeout: float = 15.0,
        backoff: float = 2.0,
    ) -> None:
        FailureDetector.__init__(self)
        Component.__init__(self, host)
        if interval <= 0 or timeout <= 0 or backoff < 1.0:
            raise ValueError("invalid failure-detector parameters")
        self.monitored = [pid for pid in monitored if pid != host.pid]
        self.interval = interval
        self.backoff = backoff
        self._timeout: Dict[str, float] = {pid: timeout for pid in self.monitored}
        self._last_heard: Dict[str, float] = {}
        self._sticky: Set[str] = set()
        self._seq = 0
        self._started = False

    def start(self) -> None:
        """Begin heartbeating; call from the host's ``on_start``."""
        if self._started or not self.monitored:
            return
        self._started = True
        now = self.env.now
        for pid in self.monitored:
            self._last_heard[pid] = now
        self._tick()

    def force_suspect(self, pid: str, sticky: bool = True) -> None:
        """Inject a (possibly wrong) suspicion; sticky ones ignore heartbeats."""
        if sticky:
            self._sticky.add(pid)
        self._transition(pid, True)

    def force_unsuspect(self, pid: str) -> None:
        """Retract a (possibly sticky) injected suspicion."""
        self._sticky.discard(pid)
        self._transition(pid, False)

    def current_timeout(self, pid: str) -> float:
        """The adaptive suspicion timeout currently applied to ``pid``."""
        return self._timeout[pid]

    def on_message(self, src: str, payload: Heartbeat) -> None:
        """Record liveness; recant (and widen) on a false suspicion."""
        self._last_heard[src] = self.env.now
        if self.is_suspected(src) and src not in self._sticky:
            # False suspicion: recant and widen this process's timeout.
            self._timeout[src] = self._timeout.get(src, self.interval) * self.backoff
            self._transition(src, False)

    def _tick(self) -> None:
        self._seq += 1
        beat = Heartbeat(self._seq)
        now = self.env.now
        for pid in self.monitored:
            self.env.send(pid, beat)
            silent_for = now - self._last_heard.get(pid, now)
            if silent_for > self._timeout[pid] and not self.is_suspected(pid):
                self._transition(pid, True)
        self.env.set_timer(self.interval, self._tick)
