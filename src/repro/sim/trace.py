"""Structured trace events.

Every protocol-relevant action (Opt-deliver, A-deliver, Opt-undeliver,
reply adoption, consensus decision, ...) is recorded as a
:class:`TraceEvent`.  The correctness checkers in :mod:`repro.analysis`
operate purely on these traces, which keeps them independent of protocol
internals and lets them validate both the simulator and the TCP
runtime.

Two performance features keep tracing off the hot path:

* **Kind index** -- :class:`TraceLog` maintains a per-kind position index
  so ``events(kind=...)`` is O(matches) instead of O(log length).  The
  checkers issue dozens of kind-filtered queries per run; on large traces
  the index turns quadratic checker passes into linear ones.
* **Level gate** -- ``TraceLog(level="off")`` drops every record at the
  door.  Soak runs and throughput benchmarks run with tracing off;
  checker-backed tests keep the default full-fidelity log.
"""

from __future__ import annotations

import hashlib
from dataclasses import field
from heapq import merge as _heapq_merge
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.values import frozen_value

#: Recognized trace levels: "full" records everything, "off" records
#: nothing (zero-waste mode for soak/throughput runs).
TRACE_LEVELS = ("full", "off")


@frozen_value
class TraceEvent:
    """One timestamped, structured event emitted by a process."""

    time: float
    pid: str
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:.3f}] {self.pid} {self.kind}({parts})"


class TraceLog:
    """An append-only log of :class:`TraceEvent` with filtering helpers.

    Parameters
    ----------
    level:
        ``"full"`` (default) records everything; ``"off"`` silently drops
        every record -- the log stays empty and costs nothing on
        the protocol hot path.
    """

    def __init__(self, level: str = "full") -> None:
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level: {level} (choose from {TRACE_LEVELS})")
        self._events: List[TraceEvent] = []
        self._by_kind: Dict[str, List[int]] = {}
        self._level = level
        if level == "off":
            # Shadow the hot-path method with a no-op so a disabled log
            # costs one dropped call, not a branch per record.
            self.record = self._drop_record  # type: ignore[method-assign]

    @property
    def level(self) -> str:
        return self._level

    @property
    def enabled(self) -> bool:
        """True when this log records events."""
        return self._level != "off"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, time: float, pid: str, kind: str, **fields: Any) -> None:
        events = self._events
        index = self._by_kind.get(kind)
        if index is None:
            index = self._by_kind[kind] = []
        index.append(len(events))
        events.append(TraceEvent(time, pid, kind, fields))

    def _drop_record(self, time: float, pid: str, kind: str, **fields: Any) -> None:
        """record() of a level="off" log."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        pid: Optional[str] = None,
    ) -> List[TraceEvent]:
        """All events, optionally filtered by kind and/or process.

        Kind-filtered queries use the kind index: O(matching events),
        independent of the total log length.
        """
        events = self._events
        if kind is not None:
            positions = self._by_kind.get(kind, ())
            if pid is None:
                return [events[i] for i in positions]
            return [events[i] for i in positions if events[i].pid == pid]
        if pid is not None:
            return [e for e in events if e.pid == pid]
        return list(events)

    def events_of_kinds(
        self,
        kinds: Sequence[str],
        pid: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events of any of ``kinds``, in log order, via the kind index.

        O(matches · log len(kinds)): the per-kind position lists are
        merged, never the full log scanned.  This is what lets the
        checkers replay delivery histories on long traces cheaply.
        """
        by_kind = self._by_kind
        position_lists = [by_kind[k] for k in kinds if k in by_kind]
        if not position_lists:
            return []
        if len(position_lists) == 1:
            positions: Any = position_lists[0]
        else:
            positions = _heapq_merge(*position_lists)
        events = self._events
        if pid is None:
            return [events[i] for i in positions]
        return [events[i] for i in positions if events[i].pid == pid]

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` (O(1) via the index)."""
        return len(self._by_kind.get(kind, ()))

    def kinds(self) -> List[str]:
        """Distinct event kinds present, in first-seen order."""
        return list(self._by_kind)

    def clear(self) -> None:
        self._events.clear()
        self._by_kind.clear()

    def digest(self) -> str:
        """A canonical SHA-256 over (time, pid, kind, sorted fields).

        Two runs are byte-identical exactly when their digests match;
        the determinism tests pin fixed-seed scenarios to golden digests
        across kernel changes.
        """
        h = hashlib.sha256()
        for event in self._events:
            line = "%r|%s|%s|%r\n" % (
                event.time,
                event.pid,
                event.kind,
                sorted(event.fields.items()),
            )
            h.update(line.encode())
        return h.hexdigest()

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering (for debugging and example scripts)."""
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(repr(e) for e in events)
