"""Conflict-aware parallel execution engine for the replica apply path.

Through PR 4 a replica *executed* commands for free and serially: the
server called ``apply_with_undo`` inline at delivery time.  Once ordering
(``order_cost``) and reads (``read_cost``) carry service models, command
execution is the next un-modeled bottleneck.  This module refactors it
into an explicit scheduler, following Optimistic Parallel State-Machine
Replication (Marandi & Pedone, PAPERS.md): commands on disjoint state may
execute concurrently at a replica without breaking determinism, because
disjoint commands commute.

The engine owns ``exec_lanes`` parallel worker lanes, each a serial
pipeline charging ``exec_cost`` simulated time per operation (mirroring
the ``order_cost``/``read_cost`` service models), scaled per op by the
machine's :meth:`~repro.statemachine.base.StateMachine.exec_cost_of`
weight (migrations install whole key states, ``keys`` scans the store;
the default weight 1.0 keeps the flat model).  Submitted operations
are dependency-chained by their *conflict footprint*
(:meth:`~repro.statemachine.base.StateMachine.conflict_footprint`, keyed
off ``keys_of``): an op waits for the latest earlier op whose footprint
intersects its own; ops with disjoint footprints run in whatever lanes
are free.  A ``None`` footprint is *global* and fences the whole
pipeline.

Determinism and undo discipline:

* The **delivery order is fixed before execution**: the server appends to
  ``O_delivered`` (and pushes a *pending* undo entry) at delivery time;
  the engine only decides *when* the state mutation happens.  Conflicting
  ops execute in delivered order (the dependency chains), and disjoint
  ops commute, so the final state -- and every individual result -- is
  byte-identical to serial execution.
* State mutates at service **completion** (one simulator event), never at
  service start.  An op that is still in a lane has therefore not touched
  the machine, which is what makes Opt-undeliver's lane fencing trivial:
  :meth:`ExecutionEngine.cancel` detaches a not-yet-executed op with no
  state to revert, and an op that *did* execute has -- by chain order --
  no conflicting successor mid-flight, so its undo closure (resolved into
  the :class:`~repro.statemachine.undo.UndoLog` at completion) can run
  inline.
* Reads (:meth:`submit_read`) wait for in-flight conflicting writes on
  their keys but never occupy a lane, never fence later writes, and never
  fence each other: the state a read observes is always the machine after
  some delivery-order prefix of each key it touches.

``exec_cost <= 0`` is the **inline fast path**: ``submit`` applies the
operation synchronously and calls the completion callback before
returning, reproducing the pre-engine behaviour (and its trace digests)
exactly -- no entries, no timers, no allocation beyond the call itself.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.statemachine.base import StateMachine
from repro.statemachine.undo import UndoLog

#: Completion callback: (result, lane) -> None.  ``lane`` is the worker
#: lane that serviced the op (0 on the inline fast path).
OnDone = Callable[[Any, int], None]


class _Entry:
    """One scheduled operation (or fenced read) in the engine."""

    __slots__ = (
        "rid",
        "op",
        "footprint",
        "weight",
        "seq",
        "waiting",
        "dependents",
        "on_done",
        "undoable",
        "inverse",
        "read",
        "done",
        "lane",
        "timer",
        "prev",
        "refence",
    )

    def __init__(
        self,
        rid: Optional[str],
        op: Tuple[Any, ...],
        footprint: Optional[Tuple[Any, ...]],
        on_done: Any,
        undoable: bool,
        read: bool = False,
        weight: float = 1.0,
    ) -> None:
        self.rid = rid
        self.op = op
        self.footprint = footprint
        self.weight = weight
        self.seq = -1  # submission order, stamped by _link
        self.waiting = 0
        self.dependents: List[_Entry] = []
        self.on_done = on_done
        self.undoable = undoable
        #: Opt-undeliver inverse closure; when set, completion runs this
        #: instead of applying ``op`` (the op names what is being undone
        #: and prices the lane occupancy via ``exec_cost_of``).
        self.inverse: Optional[Callable[[], None]] = None
        self.read = read
        self.done = False
        self.lane: int = -1
        self.timer: Any = None
        #: Read-only entries: one of this read's dependencies was
        #: *cancelled* rather than completed, so the dependency may have
        #: subsumed older live writes -- re-check the tails before
        #: firing.
        self.refence = False
        #: key -> the tail this entry displaced when it was linked (the
        #: ``None`` key chains global entries).  Only consulted when a
        #: *cancelled* tail must be walked past to find the newest live
        #: predecessor; cleared on normal completion (every predecessor
        #: is then complete too, so nothing behind is ever needed).
        self.prev: Dict[Any, Optional["_Entry"]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("lane" if self.timer else "wait")
        return f"<_Entry {self.rid or self.op!r} {state}>"


class ExecutionEngine:
    """Schedules state-machine executions over conflict-chained lanes.

    Parameters
    ----------
    machine:
        The replica's deterministic state machine; its class's
        ``conflict_footprint`` defines the conflict relation.
    lanes:
        Number of parallel worker lanes (>= 1).
    cost:
        Service time per operation; ``0`` selects the inline fast path.
    timer:
        ``timer(delay, callback) -> handle`` with a ``cancel()`` method;
        standalone users pass ``Simulator.schedule``.  A server has no
        environment yet when it builds its engine, so it assigns
        :attr:`timer` when it starts: its environment's ``set_timer``
        (which also gives crash-stop suppression for free).
    undo_log:
        Where optimistic executions register their inverses (pending at
        submit, resolved at completion).  May be omitted only when every
        ``submit`` uses ``undoable=False`` (settled work and reads);
        an undoable submission without a log is a programming error and
        fails loudly.
    """

    def __init__(
        self,
        machine: StateMachine,
        lanes: int = 1,
        cost: float = 0.0,
        timer: Optional[Callable[[float, Callable[[], None]], Any]] = None,
        undo_log: Optional[UndoLog] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("exec_lanes must be >= 1")
        if cost < 0:
            raise ValueError("exec_cost must be >= 0")
        self.machine = machine
        self.lanes = lanes
        self.cost = cost
        #: True when executions run synchronously at submit (cost 0).
        self.inline = cost <= 0.0
        self.timer = timer
        self.undo_log = undo_log
        self._conflict_footprint = type(machine).conflict_footprint
        self._exec_cost_of = type(machine).exec_cost_of
        # rid -> live undoable entry (cancel's lookup; completed entries
        # leave the map, so "absent" means "already executed").
        self._by_rid: Dict[str, _Entry] = {}
        # key -> newest entry whose footprint contains the key (kept
        # even once done: the walk skips done entries via their `prev`
        # chains).  Never cleared -- global entries ride a separate
        # chain (`_global_tail`, linked by the None key) and each key's
        # dependency resolves to the newest *live* entry across both
        # chains, by submission sequence.
        self._tails: Dict[Any, _Entry] = {}
        self._global_tail: Optional[_Entry] = None
        self._seq = 0
        self._ready: Deque[_Entry] = deque()
        self._free_lanes: List[int] = list(range(lanes - 1, -1, -1))
        self._live = 0  # write entries not yet completed/cancelled
        self._in_service = 0
        # Counters (tests, benchmarks, introspection).
        self.executed = 0
        self.inverses_executed = 0
        self.cancelled_in_flight = 0
        self.max_concurrency = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Write operations delivered but not yet executed (or cancelled)."""
        return self._live

    @property
    def idle(self) -> bool:
        return self._live == 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        rid: str,
        op: Tuple[Any, ...],
        on_done: OnDone,
        undoable: bool,
    ) -> None:
        """Schedule one delivered operation for execution.

        ``undoable=True`` is the optimistic path: a pending entry is
        pushed onto the undo log now (keeping it aligned with the
        delivery order) and resolved with the real inverse at
        completion.  ``undoable=False`` is settled (A-delivered) work.
        ``on_done(result, lane)`` fires at completion -- synchronously,
        before ``submit`` returns, on the inline fast path.
        """
        if self.inline:
            if undoable:
                result, undo = self.machine.apply_with_undo(op)
                self.undo_log.push(rid, undo)
            else:
                result = self.machine.apply(op)
            self.executed += 1
            on_done(result, 0)
            return
        entry = _Entry(
            rid, op, self._footprint(op), on_done, undoable,
            weight=self._exec_cost_of(op),
        )
        if undoable:
            self.undo_log.push_pending(rid)
            self._by_rid[rid] = entry
        self._live += 1
        self._link(entry)
        if entry.waiting == 0:
            self._ready.append(entry)
        self._pump()

    def submit_inverse(
        self,
        rid: str,
        op: Tuple[Any, ...],
        undo: Callable[[], None],
        on_done: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Charge an Opt-undeliver inverse through the lane model.

        Undoing an executed operation is real work: the inverse occupies
        an execution lane for ``exec_cost x exec_cost_of(op)``, exactly
        like the forward execution did, instead of running free at the
        phase-2 instant.  ``op`` is the *forward* operation being undone
        -- it provides the conflict footprint (inverses submitted in
        reverse delivery order chain correctly among themselves, and New
        redos submitted afterwards chain behind them) and the cost
        weight.  Inverse entries are never undoable, never registered
        for :meth:`cancel`, and count in :attr:`backlog` so quiescence
        waits for them.

        On the inline fast path the inverse runs synchronously (the
        pre-engine behaviour, byte-identical) and ``on_done`` -- which
        exists so callers can trace the charged completion -- does not
        fire.
        """
        if self.inline:
            undo()
            return
        entry = _Entry(
            rid, op, self._footprint(op),
            (lambda _result, lane: on_done(lane))
            if on_done is not None
            else (lambda _result, lane: None),
            undoable=False,
            weight=self._exec_cost_of(op),
        )
        entry.inverse = undo
        self._live += 1
        self._link(entry)
        if entry.waiting == 0:
            self._ready.append(entry)
        self._pump()

    def submit_read(self, op: Tuple[Any, ...], on_ready: Callable[[], None]) -> None:
        """Run ``on_ready`` once no conflicting write is in flight.

        Fires synchronously when nothing conflicts (always, on the
        inline fast path).  Reads take no lane and charge no ``cost`` --
        the read service model (``read_cost``) is charged upstream --
        and they never delay writes or other reads.
        """
        if self._live == 0:
            on_ready()
            return
        footprint = self._footprint(op)
        deps = self._deps_for(footprint)
        if not deps:
            on_ready()
            return
        entry = _Entry(None, op, footprint, on_ready, undoable=False, read=True)
        entry.waiting = len(deps)
        for dep in deps:
            dep.dependents.append(entry)

    # ------------------------------------------------------------------
    # Dependency linking
    # ------------------------------------------------------------------

    def _footprint(self, op: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """The op's conflict footprint as a *sorted* tuple (None = global).

        Sorting (by repr, which totally orders mixed key types) makes
        linking order independent of set-iteration order, which hash
        randomization would otherwise vary across processes -- the
        engine must schedule identically for identical seeds.
        """
        keys = self._conflict_footprint(op)
        if keys is None:
            return None
        if len(keys) == 1:
            return tuple(keys)  # one key: nothing to put in order
        return tuple(sorted(keys, key=repr))

    def _live_keyed(self, key: Any) -> Optional[_Entry]:
        """Newest live entry on ``key``'s chain (walks past done ones)."""
        tail = self._tails.get(key)
        while tail is not None and tail.done:
            tail = tail.prev.get(key)
        return tail

    def _live_global(self) -> Optional[_Entry]:
        """Newest live global entry (walks past done ones)."""
        tail = self._global_tail
        while tail is not None and tail.done:
            tail = tail.prev.get(None)
        return tail

    def _deps_for(self, footprint: Optional[Tuple[Any, ...]]) -> List[_Entry]:
        deps: List[_Entry] = []
        glob = self._live_global()
        if footprint is None:
            # Global: wait for every live chain.  Every live keyed entry
            # is an ancestor of the newest live entry on one of its
            # keys' chains (tails are never cleared), so the distinct
            # live chain heads plus the live global tail transitively
            # cover everything in flight.
            seen = set()
            for key in self._tails:
                head = self._live_keyed(key)
                if head is not None and id(head) not in seen:
                    seen.add(id(head))
                    deps.append(head)
            if glob is not None and id(glob) not in seen:
                deps.append(glob)
            return deps
        # Two chains can conflict on a key -- the key's own and the
        # global one -- and either may carry the newer entry; the newer
        # one (by submission sequence) transitively covers the older, so
        # it alone is the dependency.  Done entries (completed *or*
        # cancelled) are walked past on both chains, which is what keeps
        # an Opt-undelivered suffix from hiding still-live older writes.
        tails = self._tails
        for key in footprint:
            head = tails.get(key)
            while head is not None and head.done:
                head = head.prev.get(key)
            if head is None or (glob is not None and glob.seq > head.seq):
                head = glob
            if head is not None and head not in deps:
                deps.append(head)
        return deps

    def _link(self, entry: _Entry) -> None:
        self._seq += 1
        entry.seq = self._seq
        deps = self._deps_for(entry.footprint)
        entry.waiting = len(deps)
        for dep in deps:
            dep.dependents.append(entry)
        if entry.footprint is None:
            entry.prev[None] = self._global_tail
            self._global_tail = entry
            return
        for key in entry.footprint:
            entry.prev[key] = self._tails.get(key)
            self._tails[key] = entry

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        ready = self._ready
        free = self._free_lanes
        while free and ready:
            entry = ready.popleft()
            if entry.done:
                continue  # cancelled while queued
            lane = free.pop()
            entry.lane = lane
            self._in_service += 1
            if self._in_service > self.max_concurrency:
                self.max_concurrency = self._in_service
            entry.timer = self.timer(
                self.cost * entry.weight, partial(self._complete, entry)
            )

    def _complete(self, entry: _Entry) -> None:
        entry.timer = None
        if entry.inverse is not None:
            entry.inverse()
            result = None
            self.inverses_executed += 1
        elif entry.undoable:
            result, undo = self.machine.apply_with_undo(entry.op)
            # The log exists: undoable submissions require one (the
            # matching push_pending already succeeded at submit).
            self.undo_log.resolve(entry.rid, undo)
            self.executed += 1
        else:
            result = self.machine.apply(entry.op)
            self.executed += 1
        self._in_service -= 1
        self._free_lanes.append(entry.lane)
        ready_reads = self._finish(entry)
        entry.on_done(result, entry.lane)
        for read in ready_reads:
            self._fire_read(read)
        self._pump()

    def _finish(self, entry: _Entry) -> List[_Entry]:
        """Mark ``entry`` done and release its dependents.

        Returns the reads that became runnable (fired by the caller,
        after the entry's own completion callback).
        """
        entry.done = True
        # Identity-guarded: an *inverse* entry shares its rid with the
        # forward op it undoes, and that rid may have been re-delivered
        # (and re-registered) in a later epoch while the inverse was
        # still in a lane -- popping blindly would orphan the live entry.
        if entry.rid is not None and self._by_rid.get(entry.rid) is entry:
            del self._by_rid[entry.rid]
        self._live -= 1
        # Every predecessor of a *completed* entry has completed (chain
        # order), so nothing will ever need to walk past this entry.
        entry.prev.clear()
        ready_reads: List[_Entry] = []
        for dependent in entry.dependents:
            if dependent.done:
                continue
            dependent.waiting -= 1
            if dependent.waiting == 0:
                if dependent.read:
                    ready_reads.append(dependent)
                else:
                    self._ready.append(dependent)
        entry.dependents = []
        return ready_reads

    # ------------------------------------------------------------------
    # Opt-undeliver fencing
    # ------------------------------------------------------------------

    def cancel(self, rid: str) -> bool:
        """Fence ``rid`` for Opt-undeliver.

        Returns True when the op already executed -- the caller reverts
        it through the undo log, and chain order guarantees no
        conflicting successor is mid-flight.  Returns False when the op
        never ran: it is detached (its completion timer cancelled, its
        dependents released), so there is no state to revert and the
        undo log's entry for it is still pending (a no-op to pop).
        """
        if self.inline:
            return True
        entry = self._by_rid.pop(rid, None)
        if entry is None:
            return True  # completed: revert via the undo log
        entry.done = True
        self.cancelled_in_flight += 1
        if entry.timer is not None:  # in service: the mutation never happened
            entry.timer.cancel()
            entry.timer = None
            self._in_service -= 1
            self._free_lanes.append(entry.lane)
        self._live -= 1
        # Keep entry.prev: a live *older* entry on these keys may still
        # need to be found by later linkers walking past this cancel.
        ready_reads: List[_Entry] = []
        for dependent in entry.dependents:
            if dependent.done:
                continue
            if dependent.read:
                dependent.refence = True
            dependent.waiting -= 1
            if dependent.waiting == 0:
                if dependent.read:
                    ready_reads.append(dependent)
                else:
                    self._ready.append(dependent)
        entry.dependents = []
        for read in ready_reads:
            self._fire_read(read)
        self._pump()
        return False

    def _fire_read(self, read: _Entry) -> None:
        """Run a released read, re-fencing it first if a cancel freed it.

        A dependency that was *cancelled* (not completed) may have
        subsumed older live writes on the read's keys -- the read only
        ever waited for the newest tail per key.  Such a read re-checks
        the live tails and re-links if anything conflicting is still in
        flight; a read released purely by completions fires directly.
        """
        if not read.refence:
            read.on_done()
            return
        read.refence = False
        deps = self._deps_for(read.footprint)
        if not deps:
            read.on_done()
            return
        read.waiting = len(deps)
        for dep in deps:
            dep.dependents.append(read)
