"""The Isis/Amoeba-style sequencer-based Atomic Broadcast (Section 2.4).

This is the baseline the paper builds on -- and whose failure mode it
fixes.  The failure-free protocol (Figure 1(a) of the paper):

1. the client sends its request to all replicas in G;
2. one replica, the *sequencer*, assigns sequence numbers and sends them
   to G;
3. each replica delivers requests in sequence-number order and replies;
   the client adopts the first reply (classic active replication).

Failure handling is the lightweight non-view-synchronous scheme whose
cost profile motivated Isis-style systems, and which exhibits exactly the
anomaly of Figure 1(b): a replica that suspects the sequencer bumps its
view; the first unsuspected replica declares itself the new sequencer and
broadcasts *its own* delivery history as the authoritative order of the
new view, then keeps sequencing.  Nothing already delivered is undone, so
if the crashed sequencer had delivered a request and replied before its
ordering message reached anyone, the new order can contradict that reply:
an **external inconsistency** (category (c) in the paper's optimism
classification), and the replicas' states can silently diverge.

The checkers in :mod:`repro.analysis` detect both; benchmark
``benchmarks/test_external_consistency.py`` measures how often they occur
versus the structurally-zero rate of OAR.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Set, Tuple

from repro.core.messages import Reply, Request
from repro.failure.detector import (
    FailureDetector,
    HeartbeatFailureDetector,
    resolve_fd,
)
from repro.sim.component import ComponentProcess
from repro.statemachine.base import StateMachine
from repro.values import frozen_value


@frozen_value
class OrderMsg:
    """An incremental ordering assignment from the view's sequencer."""

    view: int
    seqno: int
    rid: str


@frozen_value
class OrderBatch:
    """One multi-assignment ordering message: contiguous seqnos for many rids.

    ``rids[i]`` is assigned sequence number ``first_seqno + i``.  The
    sequencer emits one of these per drain instead of one
    :class:`OrderMsg` per request when several requests are pending at
    once (takeover re-sequencing, arrival bursts) -- the same batching
    model OAR's ``SeqOrder`` uses (benchmarks B5/B9).
    """

    view: int
    first_seqno: int
    rids: Tuple[str, ...]


@frozen_value
class ViewOrder:
    """A new sequencer's takeover: its full history is the view's order."""

    view: int
    sequence: Tuple[str, ...]


class SequencerAtomicBroadcastServer(ComponentProcess):
    """A replica of the sequencer-based Atomic Broadcast group G.

    The constructor mirrors :class:`~repro.core.server.OARServer` so that
    benchmarks can swap protocols; there is no epoch/undo machinery
    because this protocol never repairs -- that is the point of the
    baseline.
    """

    def __init__(
        self,
        pid: str,
        group: Sequence[str],
        machine: StateMachine,
        fd: FailureDetector,
    ) -> None:
        super().__init__(pid)
        if pid not in group:
            raise ValueError(f"{pid} not in group {group}")
        self.group: Tuple[str, ...] = tuple(group)
        #: Fan-out targets (everyone but us), precomputed once.
        self.peers: Tuple[str, ...] = tuple(m for m in self.group if m != pid)
        self.machine = machine
        self.fd = resolve_fd(fd, self)
        fd = self.fd
        self.requests: Dict[str, Request] = {}
        self.delivered: List[str] = []
        self._delivered_set: Set[str] = set()
        self.view = 0
        self._i_am_sequencer = self.group[0] == pid
        self._next_seqno = 1  # sequencer-side: next number to assign
        self._assignments: Dict[int, str] = {}  # receiver: seqno -> rid (current view)
        self._next_deliver = 1  # receiver-side: next seqno to deliver
        # ViewOrder rids awaiting bodies; deque because it drains from
        # the front (pop(0) on a list is O(queue) per delivery).
        self._adopt_queue: Deque[str] = deque()
        # Takeover views already adopted: a duplicated ViewOrder (link
        # faults) must not clear newer assignments or rewind the
        # delivery cursor.  View equality alone cannot be the guard --
        # a higher-view OrderMsg can legitimately bump `view` before
        # its ViewOrder arrives.
        self._adopted_takeovers: Set[int] = set()
        if isinstance(fd, HeartbeatFailureDetector):
            self.add_component(fd)
        fd.add_listener(self._on_suspicion)

    # ------------------------------------------------------------------

    @property
    def chosen_sequencer(self) -> str:
        """The first group member this replica does not suspect."""
        for pid in self.group:
            if not self.fd.is_suspected(pid):
                return pid
        return self.group[0]  # everyone suspected: degenerate fallback

    @property
    def is_sequencer(self) -> bool:
        """True while this replica believes it is the view's sequencer."""
        return self._i_am_sequencer

    @property
    def delivered_order(self) -> Tuple[str, ...]:
        """This replica's delivery order so far (may diverge -- by design)."""
        return tuple(self.delivered)

    # ------------------------------------------------------------------

    def on_app_message(self, src: str, payload: Any) -> None:
        """Dispatch requests, assignments and view takeovers."""
        if isinstance(payload, Request):
            self._on_request(payload)
        elif isinstance(payload, OrderMsg):
            self._on_order(src, payload)
        elif isinstance(payload, OrderBatch):
            self._on_order_batch(src, payload)
        elif isinstance(payload, ViewOrder):
            self._on_view_order(src, payload)

    def _on_request(self, request: Request) -> None:
        if request.rid in self.requests:
            return
        self.requests[request.rid] = request
        self.env.trace("r_deliver", rid=request.rid)
        if self._i_am_sequencer:
            self._sequence(request.rid)
        self._drain()

    # -- sequencer side -------------------------------------------------

    def _sequence(self, rid: str) -> None:
        if rid in self._delivered_set or rid in self._assignments.values():
            return
        order = OrderMsg(view=self.view, seqno=self._next_seqno, rid=rid)
        self._next_seqno += 1
        self.env.trace("seq_assign", rid=rid, seqno=order.seqno, view=self.view)
        send = self.env.send
        for member in self.peers:
            send(member, order)
        self._assignments[order.seqno] = order.rid
        self._drain()

    def _sequence_batch(self, rids: Sequence[str]) -> None:
        """Assign contiguous seqnos to many rids in one ordering message.

        One :class:`OrderBatch` replaces the per-request ``OrderMsg``
        fan-out (|group|-1 sends per request -> per batch), the same
        batching model the OAR sequencer's ``SeqOrder`` uses.
        """
        assigned = self._assignments.values()
        fresh = [
            rid
            for rid in rids
            if rid not in self._delivered_set and rid not in assigned
        ]
        if not fresh:
            return
        if len(fresh) == 1:
            self._sequence(fresh[0])
            return
        first = self._next_seqno
        batch = OrderBatch(view=self.view, first_seqno=first, rids=tuple(fresh))
        for offset, rid in enumerate(fresh):
            self._assignments[first + offset] = rid
            self.env.trace("seq_assign", rid=rid, seqno=first + offset, view=self.view)
        self._next_seqno = first + len(fresh)
        send = self.env.send
        for member in self.peers:
            send(member, batch)
        self._drain()

    # -- receiver side ----------------------------------------------------

    def _on_order(self, src: str, order: OrderMsg) -> None:
        if order.view < self.view:
            return  # assignment from a deposed sequencer
        if order.view == self.view and self.fd.is_suspected(src):
            return
        if order.view > self.view:
            # We have not executed the view change locally yet; trust the
            # higher view (its ViewOrder is on the way or was processed).
            self.view = order.view
        if order.seqno < self._next_deliver:
            return  # stale duplicate: this slot was already delivered
        self._assignments[order.seqno] = order.rid
        self._drain()

    def _on_order_batch(self, src: str, batch: OrderBatch) -> None:
        if batch.view < self.view:
            return  # assignments from a deposed sequencer
        if batch.view == self.view and self.fd.is_suspected(src):
            return
        if batch.view > self.view:
            self.view = batch.view
        assignments = self._assignments
        first = batch.first_seqno
        next_deliver = self._next_deliver
        for offset, rid in enumerate(batch.rids):
            seqno = first + offset
            if seqno < next_deliver:
                continue  # stale duplicate: slot already delivered
            assignments[seqno] = rid
        self._drain()

    def _on_view_order(self, src: str, takeover: ViewOrder) -> None:
        if takeover.view < self.view or self.fd.is_suspected(src):
            return
        if takeover.view in self._adopted_takeovers:
            return  # duplicated takeover: already adopted this view
        self._adopted_takeovers.add(takeover.view)
        self.view = takeover.view
        self._i_am_sequencer = False
        self._assignments.clear()
        self.env.trace("view_adopt", view=self.view, sequencer=src)
        # The new sequencer's history is the authoritative order of the
        # new view: deliver anything in it we have not delivered (nothing
        # already delivered is undone -- this is where replica states can
        # diverge).  Subsequent OrderMsg seqnos continue after the history.
        self._adopt_queue.extend(
            rid for rid in takeover.sequence if rid not in self._delivered_set
        )
        self._next_deliver = len(takeover.sequence) + 1
        self._drain()

    def _drain(self) -> None:
        """Deliver adopted-history rids, then contiguous assignments."""
        while self._adopt_queue and self._adopt_queue[0] in self.requests:
            rid = self._adopt_queue.popleft()
            if rid not in self._delivered_set:
                self._deliver(rid)
        if self._adopt_queue:
            return  # order within the adopted history must be respected
        while True:
            rid = self._assignments.get(self._next_deliver)
            if rid is None or rid not in self.requests:
                return
            del self._assignments[self._next_deliver]
            self._next_deliver += 1
            if rid not in self._delivered_set:
                self._deliver(rid)

    def _deliver(self, rid: str) -> None:
        request = self.requests[rid]
        result = self.machine.apply(request.op)
        self.delivered.append(rid)
        self._delivered_set.add(rid)
        position = len(self.delivered)
        self.env.trace(
            "a_deliver", rid=rid, position=position, value=result, epoch=self.view
        )
        self.env.send(
            request.client,
            Reply(
                rid=rid,
                value=result,
                position=position,
                weight=frozenset({self.pid}),
                epoch=self.view,
                conservative=True,
            ),
        )

    # ------------------------------------------------------------------

    def _on_suspicion(self, pid: str, suspected: bool) -> None:
        if not suspected or self.crashed:
            return
        chosen = self.chosen_sequencer
        if chosen == self.pid and not self._i_am_sequencer:
            self._take_over()

    def _take_over(self) -> None:
        """Become the sequencer of a new view."""
        self.view += 1
        self._i_am_sequencer = True
        self._assignments.clear()
        self._adopt_queue.clear()
        self.env.trace("view_change", view=self.view, sequencer=self.pid)
        takeover = ViewOrder(view=self.view, sequence=tuple(self.delivered))
        send = self.env.send
        for member in self.peers:
            send(member, takeover)
        self._next_seqno = len(self.delivered) + 1
        self._next_deliver = self._next_seqno
        # One multi-assignment message re-sequences the whole undelivered
        # backlog (was one OrderMsg fan-out per request).
        self._sequence_batch(
            [rid for rid in self.requests if rid not in self._delivered_set]
        )
