"""Passive (primary-backup) replication (Section 2.1).

The client interacts with one replica, the *primary*; the primary executes
the request and propagates the resulting state to the secondaries, then
replies.  Consistency in a real deployment needs view-synchronous
broadcast and a membership service (the paper cites [GS97]); this
implementation uses the same lightweight suspicion-driven takeover as the
sequencer baseline, which is honest about the trade-off the paper makes:
passive replication's fail-over is where its cost hides.

Protocol (failure-free):

1. the client sends the request to every replica; non-primaries buffer it;
2. the primary applies the operation and sends ``StateUpdate`` (the
   post-operation state snapshot) to the backups;
3. backups install updates in order and ack;
4. the primary replies to the client once a majority of the group
   (including itself) has stored the update.

Fail-over: on suspecting the primary, the first unsuspected replica takes
over, installs itself as primary, and (re)processes every buffered request
it has no update for.  Duplicate execution of an update the old primary
never managed to propagate is visible as a repeated rid in the update log
-- the takeover skips rids it already has updates for, mirroring classic
primary-backup at-most-once bookkeeping.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

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
class StateUpdate:
    """Primary-to-backup state propagation."""

    seqno: int
    rid: str
    value: Any
    snapshot_token: int  # identifies the snapshot payload (sent alongside)
    snapshot: Any


@frozen_value
class UpdateAck:
    seqno: int


class PassiveReplicationServer(ComponentProcess):
    """One replica of a primary-backup group."""

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
        self.update_log: List[StateUpdate] = []
        self._updated_rids: Set[str] = set()
        self._next_seqno = 1
        self._pending_acks: Dict[int, Set[str]] = {}
        self._pending_reply: Dict[int, Request] = {}
        self._unprocessed: List[str] = []
        if isinstance(fd, HeartbeatFailureDetector):
            self.add_component(fd)
        fd.add_listener(self._on_suspicion)

    @property
    def majority(self) -> int:
        return len(self.group) // 2 + 1

    @property
    def current_primary(self) -> str:
        for pid in self.group:
            if not self.fd.is_suspected(pid):
                return pid
        return self.group[0]

    @property
    def is_primary(self) -> bool:
        return self.current_primary == self.pid

    @property
    def delivered_order(self) -> Tuple[str, ...]:
        return tuple(update.rid for update in self.update_log)

    # ------------------------------------------------------------------

    def on_app_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Request):
            self._on_request(payload)
        elif isinstance(payload, StateUpdate):
            self._on_update(src, payload)
        elif isinstance(payload, UpdateAck):
            self._on_ack(src, payload)

    def _on_request(self, request: Request) -> None:
        if request.rid in self.requests:
            return
        self.requests[request.rid] = request
        self.env.trace("r_deliver", rid=request.rid)
        if self.is_primary:
            self._process(request)
        else:
            self._unprocessed.append(request.rid)

    def _process(self, request: Request) -> None:
        if request.rid in self._updated_rids:
            return
        result = self.machine.apply(request.op)
        seqno = self._next_seqno
        self._next_seqno += 1
        update = StateUpdate(
            seqno=seqno,
            rid=request.rid,
            value=result,
            snapshot_token=seqno,
            snapshot=self.machine.snapshot(),
        )
        self._install(update)
        self.env.trace(
            "primary_process", rid=request.rid, seqno=seqno, value=result
        )
        self._pending_acks[seqno] = {self.pid}
        self._pending_reply[seqno] = request
        for member in self.group:
            if member != self.pid:
                self.env.send(member, update)
        self._maybe_reply(seqno)

    def _install(self, update: StateUpdate) -> None:
        self.update_log.append(update)
        self._updated_rids.add(update.rid)

    def _on_update(self, src: str, update: StateUpdate) -> None:
        if update.rid in self._updated_rids:
            return
        self.machine.restore(update.snapshot)
        self._install(update)
        self._next_seqno = max(self._next_seqno, update.seqno + 1)
        self.env.trace("backup_install", rid=update.rid, seqno=update.seqno)
        self.env.send(src, UpdateAck(update.seqno))

    def _on_ack(self, src: str, ack: UpdateAck) -> None:
        acks = self._pending_acks.get(ack.seqno)
        if acks is None:
            return
        acks.add(src)
        self._maybe_reply(ack.seqno)

    def _maybe_reply(self, seqno: int) -> None:
        acks = self._pending_acks.get(seqno)
        request = self._pending_reply.get(seqno)
        if acks is None or request is None or len(acks) < self.majority:
            return
        update = next(u for u in self.update_log if u.seqno == seqno)
        del self._pending_acks[seqno]
        del self._pending_reply[seqno]
        position = self.update_log.index(update) + 1
        self.env.trace(
            "a_deliver", rid=request.rid, position=position, value=update.value,
            epoch=0,
        )
        self.env.send(
            request.client,
            Reply(
                rid=request.rid,
                value=update.value,
                position=position,
                weight=frozenset(self.group),
                epoch=0,
                conservative=True,
            ),
        )

    # ------------------------------------------------------------------

    def _on_suspicion(self, pid: str, suspected: bool) -> None:
        if not suspected or not self.is_primary:
            return
        # We just became (or remain) the primary.  First, re-reply for
        # every installed update: the old primary may have died between
        # propagating an update and answering the client (the client
        # deduplicates).  Then process everything buffered that no
        # installed update covers.
        for update in self.update_log:
            request = self.requests.get(update.rid)
            if request is None:
                continue
            position = self.update_log.index(update) + 1
            self.env.send(
                request.client,
                Reply(
                    rid=request.rid,
                    value=update.value,
                    position=position,
                    weight=frozenset(self.group),
                    epoch=0,
                    conservative=True,
                ),
            )
        backlog, self._unprocessed = self._unprocessed, []
        for rid in backlog:
            if rid not in self._updated_rids:
                self._process(self.requests[rid])
