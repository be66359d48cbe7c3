"""The discrete-event simulation loop.

The simulator maintains two event stores:

* a priority queue (binary heap) of timestamped events in the future, and
* a **same-instant fast lane** (a plain FIFO deque) for events scheduled
  at the *current* instant (``call_soon``, zero-delay delivery).

Events scheduled for the same instant fire in the order they were
scheduled, which is what preserves FIFO delivery for messages that share
an arrival time.  The fast lane preserves that contract without paying
the heap's ``O(log n)`` push/pop per event: an event created *at* instant
``t`` always fires after every heap event stamped ``t`` (those were
necessarily scheduled before the clock reached ``t``), and fast-lane
events fire in append order among themselves -- exactly the global
scheduling order the heap's tie-breaking counter used to enforce.

Scheduling comes in two flavours:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`TimerHandle` -- use these for *timers* (heartbeats,
  retransmissions, batch ticks) that protocol logic may want to cancel.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` /
  :meth:`Simulator.call_soon` are **handle-free**: no ``TimerHandle`` is
  allocated and nothing can cancel the event.  Message deliveries never
  cancel, so the network schedules through these and the per-message
  allocation disappears from the hot path.

The heap and its cancel bookkeeping are a :class:`TimerQueue`, the one
timer queue of both hosts: the simulator builds on it, and so does the
TCP host's loop (:class:`~repro.runtime.tcp.TcpCluster`).  Cancellation
is lazy (the entry stays queued and is skipped when popped), but the
queue counts dead entries and compacts the heap when more than half of
it is cancelled, so cancel-heavy workloads (heartbeat failure detectors
re-arming timeouts, read retries) cannot bloat it.

All randomness used anywhere in a simulation must come from a named
child generator, :meth:`Simulator.child_rng`, so a run is fully
determined by its seed and no component's draws perturb another's.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple, Union

import random

#: Heap entries: (when, tie-break counter, handle-or-None, callback),
#: and whatever more a host keeps per entry (the TCP host: the owning
#: pid).  ``handle`` is None for handle-free posts -- nothing to
#: allocate, check or cancel.
_HeapEntry = Tuple[Any, ...]

#: Fast-lane entries are bare callbacks (handle-free posts) or the
#: TimerHandle itself (cancellable same-instant timers); the run loop
#: dispatches on the entry's class.
_FastEntry = Union[Callable[[], None], "TimerHandle"]

#: Compaction threshold: rebuild the heap once more than half of it, and
#: more than this many entries, are cancelled.  One dead entry is left
#: for the pop to skip.
_COMPACT_MIN = 1


class TimerHandle:
    """A cancellable handle for a scheduled event.

    Cancellation is lazy: the event stays in the queue but is skipped when
    it reaches the front.  ``fired`` reports whether the callback ran.
    """

    __slots__ = ("cancelled", "fired", "deadline", "_owner", "_callback")

    def __init__(
        self,
        deadline: float,
        owner: "TimerQueue",
        callback: Optional[Callable[[], None]] = None,
    ) -> None:
        self.cancelled = False
        self.fired = False
        self.deadline = deadline
        self._owner = owner
        self._callback = callback

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._callback is None:
            self._owner._note_cancel()
        else:
            # Only the simulator's same-instant handles carry their
            # callback.  The lane drains within the instant: there is
            # nothing to compact, so the cancel is only counted.
            self._owner._cancelled_fast += 1  # type: ignore[attr-defined]

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not self.cancelled and not self.fired


class TimerQueue:
    """A timer heap with lazy cancellation: what both hosts build on.

    ``_queue`` is a binary heap of ``(when, seq, handle or None,
    callback, ...)`` entries; ``seq`` (from ``_counter``) breaks ties in
    scheduling order.  A host pushes and pops entries itself, on its own
    clock; a cancelled handle's entry stays until it is popped (the host
    then decrements ``_cancelled_heap`` and skips it) or a compaction
    drops it.
    """

    def __init__(self) -> None:
        self._queue: List[_HeapEntry] = []
        self._counter = itertools.count()
        #: cancelled handles whose entries are still on the heap
        self._cancelled_heap = 0

    def _note_cancel(self) -> None:
        """Called by :meth:`TimerHandle.cancel` for a heap entry;
        compacts when mostly dead."""
        self._cancelled_heap += 1
        if (
            self._cancelled_heap > _COMPACT_MIN
            and self._cancelled_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Runs in O(live entries); triggered when more than half the heap
        is dead so the amortized cost per cancellation is O(1).  Mutates
        ``self._queue`` in place: the run loops hold a local alias to
        the list across callbacks, so rebinding the attribute would
        silently strand events scheduled after a mid-run compaction.
        """
        self._queue[:] = [
            entry
            for entry in self._queue
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled_heap = 0


class Simulator(TimerQueue):
    """Deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed of every :meth:`child_rng` stream.  Two simulations
        constructed with the same seed and fed the same schedule of
        events produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._fast: Deque[_FastEntry] = deque()
        # Counted apart from the heap's, so the compaction trigger never
        # rescans the lane (which drains by itself within the instant).
        self._cancelled_fast = 0
        #: current simulated time (a plain attribute: read on every hop)
        self.now = 0.0
        self._events_processed = 0
        self._seed = seed

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for run budgets)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (the true backlog).

        Cancellation is lazy (see the module docstring): a cancelled
        timer stays physically queued until it reaches the front or a
        compaction sweeps it, but it will never run.  This property
        excludes those dead entries, so quiescence predicates and
        run-budget heuristics ("is anything left to do?") see exactly
        the events that can still fire.  Before the PR 2 kernel rewrite
        this counted dead entries too, which made cancel-heavy runs
        (heartbeat re-arming) look perpetually busy.

        Invariant: ``pending_events + cancelled_pending`` equals the
        physical queue size (heap plus same-instant fast lane).
        """
        return (
            len(self._queue)
            + len(self._fast)
            - self._cancelled_heap
            - self._cancelled_fast
        )

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still physically queued, awaiting lazy removal.

        Purely diagnostic: these entries occupy memory and are skipped
        at pop time, but can never fire.  The counter shrinks as dead
        entries reach the heap front (or the fast lane drains) and drops
        to near zero whenever compaction rebuilds a mostly-dead heap.
        Useful for asserting that compaction keeps up in soak tests.
        """
        return self._cancelled_heap + self._cancelled_fast

    def child_rng(self, name: str) -> random.Random:
        """An independent, deterministic generator for the component
        ``name``: a function of the seed and the name alone, so draws at
        data-dependent rates never perturb another component's."""
        return random.Random(f"{self._seed}/{name}")

    # ------------------------------------------------------------------
    # Scheduling: cancellable timers
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self.now
        when = now + delay
        if when <= now:  # delay == 0 (or rounds to nothing): same instant
            handle = TimerHandle(when, self, callback)
            self._fast.append(handle)
            return handle
        handle = TimerHandle(when, self)
        heapq.heappush(self._queue, (when, next(self._counter), handle, callback))
        return handle

    def schedule_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute simulated time ``when``."""
        now = self.now
        if when <= now:
            if when < now:
                raise ValueError(f"cannot schedule in the past: {when} < {now}")
            handle = TimerHandle(when, self, callback)
            self._fast.append(handle)
            return handle
        handle = TimerHandle(when, self)
        heapq.heappush(self._queue, (when, next(self._counter), handle, callback))
        return handle

    # ------------------------------------------------------------------
    # Scheduling: handle-free posts (uncancellable; no allocation)
    # ------------------------------------------------------------------

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule`: the event cannot be cancelled."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.post_at(self.now + delay, callback)

    def post_at(self, when: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule_at`: the event cannot be cancelled."""
        now = self.now
        if when <= now:
            if when < now:
                raise ValueError(f"cannot schedule in the past: {when} < {now}")
            self._fast.append(callback)
            return
        heapq.heappush(self._queue, (when, next(self._counter), None, callback))

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current instant, after pending same-time events.

        Handle-free: same-instant events cannot be cancelled.  This is the
        cheapest way to defer work within the current instant (one deque
        append; the heap is never touched).
        """
        self._fast.append(callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        queue = self._queue
        fast = self._fast
        while True:
            if fast:
                # Heap events stamped exactly `now` were scheduled before
                # the clock reached `now`, so they precede the fast lane.
                if not queue or queue[0][0] != self.now:
                    entry = fast.popleft()
                    if entry.__class__ is TimerHandle:
                        if entry.cancelled:
                            self._cancelled_fast -= 1
                            continue
                        entry.fired = True
                        self._events_processed += 1
                        entry._callback()  # type: ignore[misc]
                        return True
                    self._events_processed += 1
                    entry()  # type: ignore[operator]
                    return True
            elif not queue:
                return False
            when, _seq, handle, callback = heapq.heappop(queue)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled_heap -= 1
                    continue
                handle.fired = True
            self.now = when
            self._events_processed += 1
            callback()
            return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            The clock is advanced to ``until`` when the horizon is reached.
        max_events:
            Stop after this many additional events (guards against
            non-terminating protocols in tests).
        """
        self._drain(None, until, max_events if max_events is not None else (1 << 62))
        if until is not None and self.now < until:
            self.now = until

    def run_until(self, predicate: Callable[[], bool], max_events: int = 1_000_000) -> bool:
        """Run until ``predicate()`` is true; it is asked before every event.

        Returns False if the events or the budget ran out first.
        """
        return self._drain(predicate, None, max_events)

    def _drain(
        self,
        predicate: Optional[Callable[[], bool]],
        until: Optional[float],
        budget: int,
    ) -> bool:
        """The run loop; True when ``predicate`` (if there is one) ended it.

        Picks each event exactly as :meth:`step` does.  The predicate is
        asked once at entry and then after every event that *ran* -- a
        cancelled entry is skipped without a question -- so it sees the
        states a ``predicate(); step()`` loop would show it.
        """
        queue = self._queue
        fast = self._fast
        fast_pop = fast.popleft
        heappop = heapq.heappop
        timer_cls = TimerHandle
        processed = 0
        try:
            if predicate is not None and predicate():
                return True
            while processed < budget:
                if fast:
                    # Due-now heap events precede the fast lane (they
                    # carry older scheduling counters); otherwise drain
                    # the lane in append order.
                    if not queue or queue[0][0] != self.now:
                        entry = fast_pop()
                        if entry.__class__ is timer_cls:
                            if entry.cancelled:
                                self._cancelled_fast -= 1
                                continue
                            entry.fired = True
                            entry = entry._callback
                        processed += 1
                        entry()  # type: ignore[operator]
                        if predicate is not None and predicate():
                            return True
                        continue
                elif not queue:
                    break
                if until is not None and queue[0][0] > until:
                    break
                when, _seq, handle, callback = heappop(queue)
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled_heap -= 1
                        continue
                    handle.fired = True
                self.now = when
                processed += 1
                callback()
                if predicate is not None and predicate():
                    return True
        finally:
            self._events_processed += processed
        return False
