"""Simulated network: reliable FIFO channels and crash injection.

The channel semantics implement the system model of the paper (Section 3):

* **Reliable** -- a message sent by a process that does not crash is
  eventually delivered to its destination if the destination does not
  crash.  Partitions *delay* messages (they are held and released on heal)
  rather than dropping them, which models asynchrony without violating
  channel reliability.
* **FIFO** -- two messages from p to q are delivered in send order.
  The network enforces this by never scheduling an arrival on a channel
  earlier than the previously scheduled arrival on that channel.
* **Crash-stop** -- a crashed process neither sends nor receives; messages
  already in flight *from* it are still delivered (they left the sender
  before the crash), messages *to* it are discarded at delivery time.

Partitions, scripted drops (e.g. "crash the sequencer so that only p2
receives the ordering message", Figures 3 and 4) and every other fault
live on the send path's one hook, :mod:`repro.sim.faultplane`.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.loop import Simulator, TimerHandle
from repro.sim.process import Process, ProcessEnv, _no_trace
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.sim.faultplane import FaultPlane


class Envelope:
    """A message in flight.

    A plain ``__slots__`` class (not a dataclass): one envelope is
    allocated per message, so construction cost is hot-path cost.
    """

    __slots__ = ("seq", "src", "dst", "payload", "send_time", "checksum")

    def __init__(
        self, seq: int, src: str, dst: str, payload: Any, send_time: float
    ) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        # Wire checksum, stamped by the fault plane when corruption is
        # possible; None means "trusted link, skip verification".
        self.checksum: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"Envelope(seq={self.seq}, src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, send_time={self.send_time})"
        )


class _SimEnv(ProcessEnv):
    """The ProcessEnv implementation backed by :class:`SimNetwork`."""

    def __init__(self, network: "SimNetwork", pid: str) -> None:
        self._network = network
        self._pid = pid
        self._rng = network.sim.child_rng(f"proc/{pid}")
        self._sim = network.sim
        # What a protocol calls on every message and timer is the
        # network's own method with this pid filled in -- no frame of
        # ours in between.  Bound here, when the process starts, so a
        # method patched on the class before then is the one called.
        self.send = partial(network.transmit, pid)  # type: ignore[method-assign]
        self.set_timer = partial(network.set_process_timer, pid)  # type: ignore[method-assign]
        self.post = partial(network.post_process_event, pid)  # type: ignore[method-assign]
        self._trace_record = network.trace.record
        if not network.trace.enabled:
            # Dropped at the door: no kwargs packed, no clock read.
            self.trace = _no_trace  # type: ignore[method-assign]

    @property
    def pid(self) -> str:
        return self._pid

    @property
    def now(self) -> float:
        return self._sim._now

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def peers(self) -> Sequence[str]:
        return self._network.pids

    def trace(self, kind: str, **fields: Any) -> None:
        self._trace_record(self._sim._now, self._pid, kind, **fields)


class SimNetwork:
    """Hosts processes on a :class:`Simulator` and routes messages.

    Parameters
    ----------
    sim:
        The event loop that drives everything.
    latency:
        One-way delay model for all links (default: constant 1.0 -- one
        simulated time unit per message phase).
    trace_messages:
        When True, every send/delivery/drop is recorded in the trace log
        (useful for figure-exact reproductions; off by default to keep
        large soak runs cheap).
    trace_level:
        ``"full"`` (default) keeps the usual protocol trace; ``"off"``
        installs a disabled log so soak and throughput runs pay nothing
        per event (the checkers need ``"full"``).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        trace_messages: bool = False,
        trace_level: str = "full",
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        # Constant models skip the per-message sample() call (the common
        # configuration; delay is re-read per message so mutating
        # latency.delay still works).
        self._latency_is_const = type(self.latency) is ConstantLatency
        self.trace = TraceLog(level=trace_level)
        self.trace_messages = trace_messages and self.trace.enabled
        self._processes: Dict[str, Process] = {}
        self._crashed: set = set()
        self._seq = itertools.count()
        self._last_arrival: Dict[Tuple[str, str], float] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        #: Corrupted payloads detected (checksum mismatch) and dropped
        #: at delivery instead of being handed to the protocol.
        self.corrupt_dropped = 0
        # Checksummed envelopes scheduled but not yet at their delivery
        # gate: the accounting checker must be able to find a corrupted
        # payload that is still in flight when the run is cut off.
        # Only fault-plane-stamped envelopes are tracked, so golden runs
        # never touch this set.
        self._in_flight_checksummed: set = set()
        self._fault_plane: Optional["FaultPlane"] = None
        # Only the fault plane stamps checksums, so the function that
        # verifies them arrives with it (``ensure_fault_plane``).
        self._wire_checksum: Optional[Callable[[Any], int]] = None
        self._rng = sim.child_rng("network")

    # ------------------------------------------------------------------
    # Registration and lifecycle
    # ------------------------------------------------------------------

    @property
    def pids(self) -> List[str]:
        """All registered process identifiers, in registration order."""
        return list(self._processes)

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def fault_plane(self) -> Optional["FaultPlane"]:
        return self._fault_plane

    def ensure_fault_plane(self) -> "FaultPlane":
        """The installed fault plane, creating one on first use.

        Idempotent: a fault schedule's rules and actions and tests can
        all compose onto the same plane.
        """
        if self._fault_plane is None:
            from repro.sim.faultplane import FaultPlane, wire_checksum

            self._fault_plane = FaultPlane(self)
            self._wire_checksum = wire_checksum
        return self._fault_plane

    def stats(self) -> Dict[str, int]:
        """Aggregate message/fault counters for the run report.

        Fault-free runs must report zero for every fault counter --
        the golden-run assertions and the accounting checker both rely
        on that.
        """
        stats = {
            "sent": self._messages_sent,
            "delivered": self._messages_delivered,
            "corrupt_dropped": self.corrupt_dropped,
        }
        if self._fault_plane is not None:
            stats.update(self._fault_plane.stats())
        return stats

    def add_process(self, process: Process) -> None:
        """Register a process.  Call :meth:`start_all` (or start it yourself)."""
        if process.pid in self._processes:
            raise ValueError(f"duplicate pid: {process.pid}")
        self._processes[process.pid] = process

    def start_all(self) -> None:
        """Bind environments and run every process's initialization hook."""
        for pid, process in self._processes.items():
            if process.env is None:
                process.start(_SimEnv(self, pid))

    def start(self, process: Process) -> None:
        """Register and immediately start one process."""
        self.add_process(process)
        process.start(_SimEnv(self, process.pid))

    def process(self, pid: str) -> Process:
        return self._processes[pid]

    # ------------------------------------------------------------------
    # Crash injection
    # ------------------------------------------------------------------

    def crash(self, pid: str) -> None:
        """Crash ``pid`` now (crash-stop: it never executes again)."""
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        process = self._processes.get(pid)
        if process is not None:
            process.crashed = True
            process.on_crash()
        self.trace.record(self.sim.now, pid, "crash")

    def crash_at(self, when: float, pid: str) -> TimerHandle:
        """Schedule a crash of ``pid`` at absolute time ``when``."""
        return self.sim.schedule_at(when, lambda: self.crash(pid))

    def is_crashed(self, pid: str) -> bool:
        return pid in self._crashed

    def correct_pids(self) -> List[str]:
        """Registered processes that have not crashed."""
        return [p for p in self._processes if p not in self._crashed]

    # ------------------------------------------------------------------
    # Message transmission
    # ------------------------------------------------------------------

    def transmit(self, src: str, dst: str, payload: Any) -> None:
        """Route one message.  Called by process environments."""
        if src in self._crashed:
            return  # a crashed process cannot send
        if dst not in self._processes:
            raise KeyError(f"unknown destination: {dst}")
        now = self.sim._now
        self._messages_sent += 1
        envelope = Envelope(next(self._seq), src, dst, payload, now)
        if self.trace_messages:
            self.trace.record(now, src, "msg_send", dst=dst, payload=payload)
        if self._fault_plane is not None:
            # The plane puts every copy it lets through on the wire
            # itself, via _schedule_delivery.
            self._fault_plane.process(envelope)
            return
        # The fault-free hop, scheduled from here: _schedule_delivery
        # with no extra delay, the FIFO floor on and no checksum.
        if self._latency_is_const:
            arrival = now + self.latency.delay
        else:
            arrival = now + self.latency.sample(self._rng, src, dst)
        channel = (src, dst)
        last_arrival = self._last_arrival
        previous = last_arrival.get(channel, 0.0)
        if previous > arrival:
            arrival = previous
        last_arrival[channel] = arrival
        self.sim.post_at(arrival, partial(self._deliver, envelope))

    def _schedule_delivery(
        self, envelope: Envelope, extra_delay: float = 0.0, fifo: bool = True
    ) -> None:
        if self._latency_is_const:
            delay = self.latency.delay
        else:
            delay = self.latency.sample(self._rng, envelope.src, envelope.dst)
        arrival = self.sim.now + delay + extra_delay
        if fifo:
            channel = (envelope.src, envelope.dst)
            last_arrival = self._last_arrival
            # FIFO: never deliver before the previously scheduled arrival
            # on this channel.  Jittered and heal-storm deliveries bypass
            # the floor (and leave it unchanged): reordering is the fault
            # being injected.
            previous = last_arrival.get(channel, 0.0)
            if previous > arrival:
                arrival = previous
            last_arrival[channel] = arrival
        # Deliveries never cancel: handle-free scheduling skips the
        # TimerHandle allocation on every message.
        if envelope.checksum is not None:
            self._in_flight_checksummed.add(envelope)
        self.sim.post_at(arrival, partial(self._deliver, envelope))

    def in_flight_checksummed(self):
        """Checksummed envelopes scheduled but not yet delivered/dropped."""
        return iter(self._in_flight_checksummed)

    def _deliver(self, envelope: Envelope) -> None:
        if envelope.checksum is not None:
            self._in_flight_checksummed.discard(envelope)
            if self._wire_checksum(envelope.payload) != envelope.checksum:
                # Detected-and-dropped: corrupted payloads never reach
                # the protocol.  Checked before the crashed-destination
                # discard so the accounting is exact either way.
                self.corrupt_dropped += 1
                if self.trace.enabled:
                    self.trace.record(
                        self.sim.now, envelope.dst, "msg_corrupt_drop",
                        src=envelope.src, payload=envelope.payload,
                    )
                return
        if envelope.dst in self._crashed:
            return
        if self._fault_plane is not None and self._fault_plane.held_by_partition(envelope):
            return  # a partition formed while the message was in flight
        process = self._processes.get(envelope.dst)
        if process is None:
            return
        self._messages_delivered += 1
        if self.trace_messages:
            self.trace.record(
                self.sim.now, envelope.dst, "msg_recv",
                src=envelope.src, payload=envelope.payload,
            )
        process.on_message(envelope.src, envelope.payload)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def set_process_timer(
        self, pid: str, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """A timer that is suppressed if its owner has crashed by fire time."""
        return self.sim.schedule(delay, partial(self._fire, pid, callback))

    def post_process_event(
        self, pid: str, delay: float, callback: Callable[[], None]
    ) -> None:
        """Handle-free :meth:`set_process_timer` for uncancellable events.

        Same crash suppression, but no :class:`TimerHandle` is allocated
        and zero-delay posts ride the simulator's same-instant fast lane.
        """
        self.sim.post(delay, partial(self._fire, pid, callback))

    def _fire(self, pid: str, callback: Callable[[], None]) -> None:
        """A process's timer or posted event came due."""
        if pid not in self._crashed:
            callback()
