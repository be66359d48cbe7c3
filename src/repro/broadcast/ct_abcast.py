"""Conservative Atomic Broadcast by reduction to consensus [CT96].

The classic Chandra-Toueg reduction: requests are disseminated with
reliable multicast; replicas run a sequence of consensus instances, each
deciding the *batch* of messages to deliver next.  Delivery happens only
after consensus -- total order can never be violated, but every request
pays the full consensus latency (3+ communication phases) instead of the
sequencer's single phase.

This is the conservative end of the latency/consistency trade-off the
paper discusses (Section 1): ``benchmarks/test_latency_failure_free.py``
quantifies the gap that motivates optimistic protocols.

The batch order within a decision is made deterministic exactly like
Cnsv-order does: the decision vector is the (pid-sorted) collection of
proposed batches of a majority; replicas deliver their deduplicated
concatenation (⊎), skipping already-delivered messages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.broadcast.reliable import ReliableMulticast
from repro.consensus.chandra_toueg import ConsensusManager
from repro.core.messages import Reply, Request
from repro.core.sequences import MessageSequence, merge_dedup
from repro.failure.detector import (
    FailureDetector,
    HeartbeatFailureDetector,
    resolve_fd,
)
from repro.sim.component import ComponentProcess
from repro.statemachine.base import StateMachine


class CTAtomicBroadcastServer(ComponentProcess):
    """A replica delivering requests through per-batch consensus."""

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
        self.machine = machine
        self.fd = resolve_fd(fd, self)
        fd = self.fd
        self.requests: Dict[str, Request] = {}
        self.r_delivered: List[str] = []
        self.delivered: List[str] = []
        self._delivered_set: Set[str] = set()
        # R-delivered rids no decision has covered yet, in R-delivery
        # order (a dict as an ordered set): the next proposal, kept up
        # to date instead of rescanned from r_delivered per instance.
        self._undecided: Dict[str, None] = {}
        self._instance = 0
        self._proposing = False
        # Decided rids awaiting bodies, in order.  An ordered set: O(1)
        # membership, and popitem(last=False) takes the head in O(1), so
        # a long decided-but-unknown backlog drains in linear time.
        self._deliver_queue: OrderedDict[str, None] = OrderedDict()
        self.rmc = self.add_component(ReliableMulticast(self, self._on_rdeliver))
        self.consensus = self.add_component(ConsensusManager(self, self.group, fd))
        if isinstance(fd, HeartbeatFailureDetector):
            self.add_component(fd)

    @property
    def delivered_order(self) -> Tuple[str, ...]:
        """The (always totally ordered) delivery sequence so far."""
        return tuple(self.delivered)

    # ------------------------------------------------------------------

    def _on_rdeliver(self, origin: str, payload: Any) -> None:
        if not isinstance(payload, Request):
            raise TypeError(f"unexpected R-delivered payload: {payload!r}")
        if payload.rid in self.requests:
            return
        self.requests[payload.rid] = payload
        self.r_delivered.append(payload.rid)
        if payload.rid not in self._deliver_queue:
            self._undecided[payload.rid] = None
        self.env.trace("r_deliver", rid=payload.rid)
        self._drain_deliver_queue()
        self._maybe_start_instance()

    def _maybe_start_instance(self) -> None:
        """Launch the next consensus instance if there is work and none runs."""
        if self._proposing:
            return
        batch = tuple(self._undecided)
        if not batch:
            return
        self._proposing = True
        instance_id = ("abcast", self._instance)
        self.env.trace("abcast_propose", instance=self._instance, batch=batch)
        # Proposals are (batch,) 1-tuples so the decision vector shape is
        # uniform with other consensus users.
        self.consensus.propose(instance_id, batch, self._on_decide)

    def _on_decide(self, instance_id: Tuple[str, int], vector: Any) -> None:
        _tag, number = instance_id
        if number != self._instance:
            raise RuntimeError(
                f"{self.pid}: decision for instance {number}, expected {self._instance}"
            )
        # Deterministic merged order of the decided batches (pid-sorted
        # vector, first occurrence wins) -- same ⊎ discipline as Cnsv-order.
        merged: MessageSequence = merge_dedup(*(batch for _pid, batch in vector))
        self.env.trace(
            "abcast_decide", instance=number, order=merged.items,
        )
        for rid in merged:
            if rid not in self._delivered_set and rid not in self._deliver_queue:
                self._deliver_queue[rid] = None
                self._undecided.pop(rid, None)
        self._instance += 1
        self._proposing = False
        self._drain_deliver_queue()
        self._maybe_start_instance()

    def _drain_deliver_queue(self) -> None:
        queue = self._deliver_queue
        requests = self.requests
        while queue and next(iter(queue)) in requests:
            rid, _ = queue.popitem(last=False)
            self._deliver(rid)

    def _deliver(self, rid: str) -> None:
        request = self.requests[rid]
        result = self.machine.apply(request.op)
        self.delivered.append(rid)
        self._delivered_set.add(rid)
        position = len(self.delivered)
        self.env.trace(
            "a_deliver", rid=rid, position=position, value=result, epoch=0
        )
        self.env.send(
            request.client,
            Reply(
                rid=rid,
                value=result,
                position=position,
                weight=frozenset(self.group),
                epoch=0,
                conservative=True,
            ),
        )
