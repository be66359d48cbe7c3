"""The OAR server (Fig. 6): optimistic phase, conservative phase, epochs.

Each server process runs the five tasks of the paper, in mutual exclusion
(the hosting substrate delivers one event at a time):

* **Task 0**  -- buffer incoming client requests (R-delivered).
* **Task 1a** -- the sequencer orders not-yet-ordered messages and sends
  the sequence to the group (phase 1).
* **Task 1b** -- on receiving the sequencer's ordering message, the server
  Opt-delivers each request: applies it to the state machine (recording an
  undo entry), and replies to the client with weight ``{s}`` (if it *is*
  the sequencer) or ``{p, s}`` (otherwise).
* **Task 1c** -- on suspecting the sequencer, R-broadcast ``(k, PhaseII)``.
* **Task 2**  -- on R-delivering ``(k, PhaseII)``, run Cnsv-order (reduction
  to Maj-validity consensus), Opt-undeliver the ``Bad`` suffix in reverse
  order, A-deliver ``New`` with weight Π, settle the epoch, rotate the
  sequencer, and move to epoch k+1.

Two engineering details the pseudo-code leaves implicit are handled
explicitly here and stress-tested:

* An ordering message can arrive *before* the request it orders has been
  R-delivered locally (the ordering message travels one hop from the
  sequencer; the request may need a relay).  Ordered-but-unknown requests
  wait in ``_opt_pending`` and are drained as requests arrive -- in order.
* The ``New`` sequence of Cnsv-order can likewise contain requests not yet
  R-delivered locally.  Phase 2 completes only once all of them are known
  (R-multicast agreement guarantees they arrive).

The Remark of Section 5.3 (unbounded ``O_delivered`` when phase 2 is
rare) is implemented as the two garbage-collection knobs
``gc_after_requests`` / ``gc_interval``, which make the sequencer
R-broadcast a periodic PhaseII.  Benchmarks quantify the trade-off
(`benchmarks/test_ablation_gc.py`).  What grows without phase 2 is
memory and the size of the next Cnsv-order proposal, not the cost of a
request: ``R_delivered`` and ``O_delivered`` are append-only logs and
line 9's not-yet-ordered sequence is maintained incrementally, so Tasks
0, 1a and 1b do the same work per request at any history length (see
"Ordering bookkeeping" in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.consensus.chandra_toueg import ConsensusManager
from repro.core.admission import traffic_class
from repro.core.execution import ExecutionEngine
from repro.core.cnsv_order import (
    CnsvOrderResult,
    compute_bad_new,
    decision_from_vector,
)
from repro.core.messages import (
    BodyBatch,
    OrderNack,
    PhaseII,
    ReadReply,
    ReadRequest,
    Reply,
    Request,
    SeqOrder,
    ShedNotice,
)
from repro.core.sequences import EMPTY, MessageSequence, SequenceLog
from repro.broadcast.reliable import ReliableMulticast
from repro.failure.detector import (
    FailureDetector,
    HeartbeatFailureDetector,
    resolve_fd,
)
from repro.sim.component import ComponentProcess
from repro.statemachine.base import OpResult, StateMachine
from repro.statemachine.undo import UndoLog

@dataclass
class OARConfig:
    """Tunable knobs of the OAR server.

    batch_interval:
        How often Task 1a runs at the sequencer.  ``0.0`` means "order
        upon R-delivery" (lowest latency): at once on a host that
        delivers one message per event, and once per burst of input on
        one that reads many (``ProcessEnv.defer``), so the batch follows
        the load.  A positive value is the paper's periodic Task 1a: it
        batches requests over a fixed window, trading latency for fewer
        ordering messages.
    order_cost:
        Per-request service time at the sequencer (Task 1a).  ``0.0``
        (the default) keeps the paper's idealized instant sequencer; a
        positive value models the real bottleneck -- one ordering
        pipeline that processes requests serially at rate
        ``1/order_cost`` -- which is what caps a single group's
        throughput and what sharding (``repro.sharding``) multiplies.
    rotate_sequencer:
        Use the rotating-coordinator scheme of Section 5.3 (new sequencer
        after each phase 2).  Disabling it reproduces the "crashed
        sequencer continuously slows down the system" pathology.
    gc_after_requests / gc_interval:
        The periodic PhaseII garbage collection of the Remark in
        Section 5.3: trigger phase 2 every N optimistic deliveries or
        every T time units.  ``None`` disables (the paper's base
        algorithm).
    read_cost:
        Per-read service time at a replica for the replica-local read
        path (a client whose ``read_mode`` is not ``"sequencer"``, see
        :class:`~repro.core.client.OARClient`).  ``0.0`` answers instantly;
        a positive value models a replica serving reads serially at rate
        ``1/read_cost``, which is what makes read goodput scale with
        replica count measurable (benchmark B12).
    exec_cost / exec_lanes:
        The replica execution service model
        (:class:`~repro.core.execution.ExecutionEngine`).  ``exec_cost``
        is the service time one state-machine operation occupies a
        worker lane for (``0.0``, the default, executes inline at
        delivery -- the paper's free-execution idealization and the
        golden-digest fast path); ``exec_lanes`` is how many operations
        with disjoint ``keys_of`` footprints may be in service
        concurrently.  Conflicting operations are dependency-chained in
        delivered order, so results and state are byte-identical to
        serial execution; aggregate execution capacity is
        ``exec_lanes/exec_cost`` for conflict-free workloads and
        ``1/exec_cost`` for a single hot key (benchmark B13).
    """

    batch_interval: float = 0.0
    order_cost: float = 0.0
    rotate_sequencer: bool = True
    gc_after_requests: Optional[int] = None
    gc_interval: Optional[float] = None
    read_cost: float = 0.0
    exec_cost: float = 0.0
    exec_lanes: int = 1

    #: Admission control (``None`` disables each bound -- the default,
    #: which keeps the admission plane entirely off the hot path).
    #: ``admission_limit`` bounds the *sequencer's* unordered backlog
    #: (``|R_delivered| - |A_delivered| - |O_delivered|``): a write that
    #: R-delivers at the sequencer while the backlog is at the bound is
    #: *shed* -- answered with a deterministic
    #: :class:`~repro.core.messages.ShedNotice` instead of being
    #: ordered.  Control-plane operations (migration/split/2PC steps,
    #: see ``repro.core.admission.traffic_class``) are bulkheaded: never
    #: shed, whatever the backlog.  ``read_queue_limit`` bounds the
    #: replica-local read queue the same way (only meaningful with a
    #: positive ``read_cost``; the zero-cost path has no queue to
    #: bound).  Shed decisions are deterministic functions of replica
    #: state, so seeded runs shed identically.
    admission_limit: Optional[int] = None
    read_queue_limit: Optional[int] = None

    #: Anti-entropy period for lossy links (``None`` disables -- the
    #: paper's reliable-channel model needs none).  Every
    #: ``sync_interval`` time units the sequencer re-sends its epoch's
    #: cumulative order (repairing lost ordering messages, which travel
    #: point-to-point and are otherwise sent exactly once), and every
    #: server NACKs rids it holds order slots for without a request
    #: body; peers answer with the bodies.  Both paths are idempotent,
    #: so the knob is safe to leave on under benign links -- it simply
    #: never fires a useful repair.
    sync_interval: Optional[float] = None

    #: Verify the server's internal invariants after every task (state
    #: disjointness, undo-log alignment, request-body coverage).  Cheap
    #: enough for tests and debugging; off by default for big sweeps.
    paranoid: bool = False

    #: Smallest allowed positive batch/GC interval: a near-zero periodic
    #: timer would starve the event loop without ordering any faster
    #: than ``batch_interval = 0`` (order on every R-delivery).
    MIN_INTERVAL = 0.001

    def __post_init__(self) -> None:
        if self.batch_interval < 0:
            raise ValueError("batch_interval must be >= 0")
        if self.order_cost < 0:
            raise ValueError("order_cost must be >= 0")
        if 0 < self.batch_interval < self.MIN_INTERVAL:
            raise ValueError(
                f"batch_interval {self.batch_interval} is below the "
                f"{self.MIN_INTERVAL} floor; use 0 for order-on-arrival"
            )
        if self.gc_interval is not None and self.gc_interval < self.MIN_INTERVAL:
            raise ValueError("gc_interval must be >= MIN_INTERVAL")
        if self.gc_after_requests is not None and self.gc_after_requests < 1:
            raise ValueError("gc_after_requests must be >= 1")
        if self.read_cost < 0:
            raise ValueError("read_cost must be >= 0")
        if self.exec_cost < 0:
            raise ValueError("exec_cost must be >= 0")
        if not isinstance(self.exec_lanes, int) or self.exec_lanes < 1:
            raise ValueError("exec_lanes must be an integer >= 1")
        if self.sync_interval is not None and self.sync_interval < self.MIN_INTERVAL:
            raise ValueError("sync_interval must be >= MIN_INTERVAL")
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError("admission_limit must be >= 1 (or None to disable)")
        if self.read_queue_limit is not None and self.read_queue_limit < 1:
            raise ValueError("read_queue_limit must be >= 1 (or None to disable)")


class OARServer(ComponentProcess):
    """A server process p of the replicated service Π (Fig. 6).

    Parameters
    ----------
    pid:
        This server's identifier; must be a member of ``group``.
    group:
        Π, the ordered list of all server identifiers.  The epoch-k
        sequencer is ``group[k mod n]`` when rotation is enabled.
    machine:
        The deterministic state machine to replicate.
    fd:
        The ◇S failure-detector instance (heartbeat or scripted); used by
        Task 1c and by the consensus oracle.
    config:
        Protocol knobs; see :class:`OARConfig`.
    """

    def __init__(
        self,
        pid: str,
        group: Sequence[str],
        machine: StateMachine,
        fd: FailureDetector,
        config: Optional[OARConfig] = None,
    ) -> None:
        super().__init__(pid)
        if pid not in group:
            raise ValueError(f"{pid} not in server group {group}")
        self.group: Tuple[str, ...] = tuple(group)
        #: Fan-out targets (everyone but us), precomputed once: the
        #: ordering path sends to the same peers for every batch.
        self.peers: Tuple[str, ...] = tuple(m for m in self.group if m != pid)
        # Reply weights (Fig. 6), built once: every optimistic reply under
        # sequencer group[i] carries _opt_weights[i] -- {s} at the
        # sequencer, {p, s} elsewhere -- and every conservative one Π.
        # Replies stay in the reply cache for good, so a set built per
        # delivery would be kept for every write.
        self._opt_weights: Tuple[frozenset, ...] = tuple(
            frozenset({pid, s}) for s in self.group
        )
        self._group_weight = frozenset(self.group)
        self.machine = machine
        self.fd = resolve_fd(fd, self)
        fd = self.fd
        self.config = config or OARConfig()

        # Fig. 6, lines 1-5.  R_delivered and O_delivered grow message
        # by message, so they are logs; A_delivered changes only at an
        # epoch settle, by the Section 5.1 operators, so it is a value.
        self.r_delivered = SequenceLog()
        self.a_delivered: MessageSequence = EMPTY
        self.o_delivered = SequenceLog()
        self.epoch = 0

        # Fig. 6, line 9: (R_delivered ⊖ A_delivered) ⊖ O_delivered, kept
        # up to date instead of recomputed (a dict as an ordered set):
        # rids enter at R-delivery, leave at Opt-/A-delivery, and the
        # undone ones re-enter at the epoch settle.
        self._unordered: Dict[str, None] = {}

        self.phase = 1
        self.sequencer_index = 0
        self.requests: Dict[str, Request] = {}
        self.undo_log = UndoLog()

        # The replica execution service model (OARConfig.exec_cost /
        # exec_lanes): every apply -- optimistic, conservative redo, and
        # read fencing -- goes through the engine.  exec_cost = 0 is the
        # inline fast path (executes synchronously at delivery, exactly
        # the pre-engine behaviour and trace shape).
        self.engine = ExecutionEngine(
            machine,
            lanes=self.config.exec_lanes,
            cost=self.config.exec_cost,
            undo_log=self.undo_log,
        )

        # Ordered by the sequencer but not yet executable (request body
        # not R-delivered yet); drained in order by Task 0.  An ordered
        # set: O(1) membership, and popitem(last=False) takes the head in
        # O(1), so a long ordered-but-unknown backlog drains in linear
        # time.
        self._opt_pending: OrderedDict[str, None] = OrderedDict()

        # Buffers for messages belonging to future epochs.
        self._future_orders: Dict[int, List[SeqOrder]] = {}
        self._future_phase2: Dict[int, str] = {}

        # Epoch-slot bookkeeping (loss/equivocation hardening).  The
        # sequencer numbers every rid it orders within an epoch
        # consecutively (`SeqOrder.start`); replicas accept orders only
        # contiguously (`_epoch_accepted` counts accepted slots,
        # out-of-order arrivals wait in `_order_gaps`) so a lost order
        # message can never silently shift the optimistic order.
        # `_epoch_order` is the sequencer's cumulative emission (re-sent
        # by the anti-entropy tick); `_order_slots` maps each accepted
        # rid to its sequencer-assigned slot -- the order certificate
        # optimistic replies carry for client-side equivocation
        # cross-checking -- until that reply is built.  All reset at
        # every epoch settle.
        self._epoch_order: List[str] = []
        self._epoch_accepted = 0
        self._order_gaps: Dict[int, SeqOrder] = {}
        self._order_slots: Dict[str, int] = {}

        # The last epoch for which this process R-broadcast PhaseII
        # (epochs only grow, so one number remembers them all).
        self._phase2_requested = -1

        # Pending Cnsv-order result waiting for missing New requests.
        self._pending_result: Optional[CnsvOrderResult] = None

        # Sequencer service model (OARConfig.order_cost): the epoch whose
        # batch is currently being serviced, and the frozen batch itself.
        self._order_busy_epoch: Optional[int] = None
        self._order_batch: MessageSequence = EMPTY
        #: An order-on-arrival Task 1a is waiting in ``env.defer``.
        self._order_deferred = False

        self._opt_delivery_count_this_epoch = 0

        # Replica-local read path: reads waiting for this replica's read
        # service slot (OARConfig.read_cost models a serial read
        # pipeline per replica; 0 answers on arrival).
        self._read_queue: Deque[ReadRequest] = deque()
        self._read_busy = False
        self.reads_served = 0

        # Admission control (OARConfig.admission_limit /
        # read_queue_limit): shed counters by bulkhead class, plus the
        # notice cache that makes shedding idempotent under client
        # retransmission (mirroring the reply cache), kept only for a
        # request whose client retransmits.
        self.shed = 0
        self.reads_shed = 0
        self._shed_cache: Dict[str, ShedNotice] = {}

        # At-most-once execution with at-least-once replies: the last
        # reply sent per request, re-sent when an already-known rid is
        # R-delivered again.  A client that retransmits
        # (``Request.retransmits``) may ask for any rid again, so all its
        # replies stay; of one that never does, only the latest
        # (``_latest_rid``) stays, for a copy of a rid that comes back
        # without it (a crossed ``BodyBatch``).  Entries are replaced when
        # a message is re-delivered after an Opt-undeliver.
        self._reply_cache: Dict[str, Reply] = {}
        self._latest_rid: Dict[str, str] = {}

        self.rmc = self.add_component(ReliableMulticast(self, self._on_rdeliver))
        # Cnsv-order's consensus runs the paper's footnote 5.
        self.consensus = self.add_component(
            ConsensusManager(self, self.group, fd, collect="unsuspected")
        )
        if isinstance(fd, HeartbeatFailureDetector):
            self.add_component(fd)
        fd.add_listener(self._on_suspicion)

    # ------------------------------------------------------------------
    # Introspection (used by tests, checkers and benchmarks)
    # ------------------------------------------------------------------

    @property
    def current_sequencer(self) -> str:
        """The sequencer s of the current epoch."""
        return self.group[self.sequencer_index]

    @property
    def is_sequencer(self) -> bool:
        """True when this process is the current epoch's sequencer s."""
        return self.group[self.sequencer_index] == self.pid

    @property
    def settled_order(self) -> MessageSequence:
        """A_delivered: the conservatively settled global order."""
        return self.a_delivered

    @property
    def current_order(self) -> MessageSequence:
        """A_delivered ⊕ O_delivered: this server's full delivery order."""
        return self.a_delivered.concat(self.o_delivered)

    @property
    def majority(self) -> int:
        """⌈(|Π|+1)/2⌉ -- the quorum every guarantee is anchored in."""
        return len(self.group) // 2 + 1

    @property
    def exec_backlog(self) -> int:
        """Delivered-but-not-executed operations (0 on the inline path).

        Quiescence predicates use this: a run is not done while any live
        replica still has state mutations in its execution lanes.
        """
        return self.engine.backlog

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Start components, batch/GC timers, and trace epoch 0."""
        # Lane service runs on this process's own timers (which also
        # gives it crash-stop suppression); there is an env to take
        # them from only now.
        self.engine.timer = self.env.set_timer
        super().on_start()
        if self.config.batch_interval > 0:
            self._schedule_batch_tick()
        if self.config.gc_interval is not None:
            self._schedule_gc_tick()
        if self.config.sync_interval is not None:
            self._schedule_sync_tick()
        self.env.trace("epoch_start", epoch=0, sequencer=self.current_sequencer)

    def _schedule_batch_tick(self) -> None:
        def tick() -> None:
            self._maybe_order()
            self._schedule_batch_tick()

        self.env.set_timer(self.config.batch_interval, tick)

    def _schedule_gc_tick(self) -> None:
        def tick() -> None:
            if self.is_sequencer and self.phase == 1 and self.o_delivered:
                self._request_phase2("gc")
            self._schedule_gc_tick()

        self.env.set_timer(self.config.gc_interval, tick)

    def _schedule_sync_tick(self) -> None:
        def tick() -> None:
            self._sync_tick()
            self._schedule_sync_tick()

        self.env.set_timer(self.config.sync_interval, tick)

    def _sync_tick(self) -> None:
        """Anti-entropy against lossy links (OARConfig.sync_interval).

        Two repairs, both idempotent at the receiver:

        * The sequencer re-sends its epoch's *cumulative* order
          (``start=0``): ordering messages travel point-to-point and
          are otherwise sent exactly once, so one drop would desync a
          replica's optimistic order for the rest of the epoch.
        * Any server holding order slots without the request bodies
          NACKs the missing rids to its peers, who answer with a
          :class:`BodyBatch` -- covering the tail case where every
          R-multicast relay copy of a request was lost on the links to
          one replica.
        """
        if self.phase == 1 and self.is_sequencer and self._epoch_order:
            order = SeqOrder(self.epoch, tuple(self._epoch_order), 0)
            self.env.trace(
                "seq_sync", epoch=self.epoch, count=len(self._epoch_order)
            )
            send = self.env.send
            for member in self.peers:
                send(member, order)
        missing = [rid for rid in self._opt_pending if rid not in self.requests]
        result = self._pending_result
        if result is not None:
            missing.extend(
                rid for rid in result.new if rid not in self.requests
            )
        if missing:
            nack = OrderNack(self.epoch, tuple(dict.fromkeys(missing)))
            self.env.trace("order_nack", epoch=self.epoch, rids=nack.rids)
            send = self.env.send
            for member in self.peers:
                send(member, nack)

    # ------------------------------------------------------------------
    # Task 0: buffer incoming client messages (and PhaseII notifications)
    # ------------------------------------------------------------------

    def _on_rdeliver(self, origin: str, payload: Any) -> None:
        if isinstance(payload, Request):
            self._task0_request(payload)
        elif isinstance(payload, PhaseII):
            self._task2_phase2(payload)
        else:
            raise TypeError(f"unexpected R-delivered payload: {payload!r}")

    def _task0_request(self, request: Request) -> None:
        if request.rid in self.requests:
            # A client retransmission (R-multicast integrity rules out
            # duplicates of the *same* multicast): never re-execute, but
            # re-send the cached reply so the client can still adopt.
            cached = self._reply_cache.get(request.rid)
            if cached is not None:
                self.env.send(request.client, cached)
            else:
                notice = self._shed_cache.get(request.rid)
                if notice is not None:
                    self.env.send(request.client, notice)
            return
        if self._should_shed(request):
            self._shed_request(request)
            return
        self.requests[request.rid] = request
        self.r_delivered.append(request.rid)
        self._unordered[request.rid] = None
        self.env.trace("r_deliver", rid=request.rid)
        self._drain_opt_pending()
        if self._pending_result is not None:
            self._try_finish_phase2()
        if (
            self.config.batch_interval == 0
            and not self._order_deferred
            and self.phase == 1
            and self.is_sequencer
        ):
            # Order on arrival -- once the host has handed over every
            # request that arrived with this one, so that the batch
            # follows the load: one rid when requests come alone, many
            # when they come faster than they are ordered.
            self._order_deferred = True
            self.env.defer(self._deferred_order)

    def _deferred_order(self) -> None:
        # Cleared first: should ordering raise, the next R-delivery
        # must be able to defer again.
        self._order_deferred = False
        self._maybe_order()

    # ------------------------------------------------------------------
    # Admission control (OARConfig.admission_limit / read_queue_limit)
    # ------------------------------------------------------------------

    @property
    def admission_backlog(self) -> int:
        """Unordered requests queued ahead of the sequencer, O(1).

        ``|R_delivered| - |A_delivered| - |O_delivered|`` -- exact in
        the fault-free regime (every delivered rid was R-delivered
        first); clamped at zero because post-failover deliveries of
        rids this replica shed (body known, never R-delivered here) can
        make the difference go negative.
        """
        backlog = (
            len(self.r_delivered) - len(self.a_delivered) - len(self.o_delivered)
        )
        return max(0, backlog)

    def _should_shed(self, request: Request) -> bool:
        """The shed decision: a pure function of config + replica state.

        Only the current sequencer in phase 1 sheds: non-sequencers
        merely buffer bodies (cheap, and their copy is what lets a shed
        rid still be ordered by a successor sequencer -- see
        ``_shed_request``), and phase 2 defers the decision to the new
        epoch's sequencer, which sheds on arrival once its inherited
        backlog exceeds the bound.  Control-plane operations are
        bulkheaded past the check entirely.
        """
        limit = self.config.admission_limit
        if limit is None or not self.is_sequencer or self.phase != 1:
            return False
        if traffic_class(request.op) == "control":
            return False
        return self.admission_backlog >= limit

    def _shed_request(self, request: Request) -> None:
        """Refuse a write deterministically: notice now, never ordered.

        The body is still recorded in ``self.requests``: (a) it makes
        the rid hit the at-most-once dedup branch, so retransmissions
        re-send the cached notice instead of re-deciding; (b) if a
        *successor* sequencer (which never shed this rid -- shedding is
        sequencer-local) orders it after a failover, this replica can
        opt-deliver it from the stored body instead of wedging in
        ``_opt_pending``.  The client surfaces whichever answer arrives
        first and counts the other as late.
        """
        queue = self.admission_backlog
        limit = self.config.admission_limit
        assert limit is not None
        self.requests[request.rid] = request
        self.shed += 1
        notice = ShedNotice(rid=request.rid, cls="write", queue=queue, limit=limit)
        if request.retransmits:
            self._shed_cache[request.rid] = notice
        self.env.trace("shed", rid=request.rid, cls="write", queue=queue, limit=limit)
        self.env.send(request.client, notice)

    # ------------------------------------------------------------------
    # Task 1a: the sequencer orders messages
    # ------------------------------------------------------------------

    def _maybe_order(self) -> None:
        if self.phase != 1 or not self.is_sequencer:
            return
        if self._order_busy_epoch is not None:
            return  # a batch is in service; arrivals wait their turn
        # Line 9's sequence as a value, less the messages already ordered
        # (sent in an earlier msgSet of this epoch) but still waiting
        # for their request body locally.
        not_delivered = MessageSequence(self._unordered).subtract(
            self._opt_pending
        )
        if not not_delivered:
            return
        if self.config.order_cost > 0:
            # Freeze the batch now and charge for exactly what will be
            # emitted, so the ordering pipeline saturates at 1/order_cost
            # requests per time unit regardless of arrival rate.
            self._order_busy_epoch = self.epoch
            self._order_batch = not_delivered
            delay = self.config.order_cost * len(not_delivered)
            self.env.set_timer(delay, self._emit_costed_order)
            return
        self._send_order(not_delivered)

    def _emit_costed_order(self) -> None:
        epoch = self._order_busy_epoch
        self._order_busy_epoch = None
        batch, self._order_batch = self._order_batch, EMPTY
        if self.phase == 1 and self.is_sequencer and self.epoch == epoch:
            # A conservative phase may have settled part of the batch in
            # the meantime; only the still-unordered remainder is sent.
            remainder = (
                batch.subtract(self.a_delivered)
                .subtract(self.o_delivered)
                .subtract(self._opt_pending)
            )
            if remainder:
                self._send_order(remainder)
        # Service the backlog that accumulated during this batch (or, if
        # the epoch moved on, let the normal triggers take over).
        self._maybe_order()

    def _send_order(self, not_delivered: MessageSequence) -> None:
        order = SeqOrder(self.epoch, not_delivered.items, len(self._epoch_order))
        self._epoch_order.extend(not_delivered.items)
        self.env.trace("seq_order", epoch=self.epoch, rids=order.rids)
        send = self.env.send
        for member in self.peers:
            send(member, order)
        # The paper assumes the sequencer delivers its own ordering
        # message immediately (Section 5.3).
        self._task1b_order(self.pid, order)

    # ------------------------------------------------------------------
    # Task 1b: optimistic delivery
    # ------------------------------------------------------------------

    def on_app_message(self, src: str, payload: Any) -> None:
        """Handle the sequencer's ordering messages (Task 1b) and reads."""
        if isinstance(payload, SeqOrder):
            self._task1b_order(src, payload)
        elif isinstance(payload, ReadRequest):
            self._on_read_request(payload)
        elif isinstance(payload, OrderNack):
            self._on_order_nack(src, payload)
        elif isinstance(payload, BodyBatch):
            self._on_body_batch(payload)

    def _on_order_nack(self, src: str, nack: OrderNack) -> None:
        """Anti-entropy: answer a peer's missing-body NACK."""
        known = tuple(
            self.requests[rid] for rid in nack.rids if rid in self.requests
        )
        if known:
            self.env.send(src, BodyBatch(known))

    def _on_body_batch(self, batch: BodyBatch) -> None:
        """Feed repaired request bodies through the ordinary Task 0 path.

        ``_task0_request`` is rid-idempotent (known bodies only re-send
        the cached reply), so duplicated or crossed batches are safe.
        """
        for request in batch.requests:
            self._task0_request(request)

    # ------------------------------------------------------------------
    # Replica-local reads (never ordered; see OARClient's read_mode)
    # ------------------------------------------------------------------

    def _on_read_request(self, read: ReadRequest) -> None:
        if self.config.read_cost <= 0:
            self._serve_read(read)
            return
        limit = self.config.read_queue_limit
        if limit is not None and len(self._read_queue) >= limit:
            # The read bulkhead: a read storm fills its *own* bounded
            # queue and sheds there, never the write/admission queue.
            self.reads_shed += 1
            self.env.trace(
                "shed", rid=read.rid, cls="read",
                queue=len(self._read_queue), limit=limit,
            )
            self.env.send(
                read.client,
                ShedNotice(
                    rid=read.rid, cls="read",
                    queue=len(self._read_queue), limit=limit,
                ),
            )
            return
        self._read_queue.append(read)
        if not self._read_busy:
            self._read_busy = True
            self.env.set_timer(self.config.read_cost, self._read_service_tick)

    def _read_service_tick(self) -> None:
        """One read leaves the serial read pipeline (rate 1/read_cost)."""
        if self._read_queue:
            self._serve_read(self._read_queue.popleft())
        if self._read_queue:
            self.env.set_timer(self.config.read_cost, self._read_service_tick)
        else:
            self._read_busy = False

    def _serve_read(self, read: ReadRequest) -> None:
        """Execute a read against this replica's current state and reply.

        The observed state is A_delivered ⊕ O_delivered -- the settled
        prefix plus this replica's optimistic suffix.  The reply carries
        both lengths so the client (and the read-consistency checker)
        can tell how much of the observation was still optimistic.  An
        operation the machine does not classify read-only gets a
        deterministic error (a buggy or malicious client must not make a
        replica diverge through the unordered path).

        With a positive ``exec_cost`` the read is fenced by the
        execution engine: it waits for in-flight conflicting *writes* on
        its keys (a delivered-but-unexecuted write must land before the
        read answers, or the reply's position tag would claim state the
        replica had not reached), but takes no lane and delays nothing.
        """
        if not self.machine.is_read_only(read.op):
            self._answer_read(
                read,
                OpResult(ok=False, error=f"read: {read.op!r} is not read-only"),
            )
            return
        self.engine.submit_read(
            read.op, lambda: self._answer_read(read, self.machine.apply(read.op))
        )

    def _answer_read(self, read: ReadRequest, result: Any) -> None:
        settled = len(self.a_delivered)
        position = settled + len(self.o_delivered)
        self.reads_served += 1
        reply = ReadReply(
            rid=read.rid,
            value=result,
            position=position,
            settled=settled,
            epoch=self.epoch,
            round=read.round,
        )
        self.env.trace(
            "read_exec",
            rid=read.rid,
            position=position,
            settled=settled,
            epoch=self.epoch,
            value=result,
        )
        self.env.send(read.client, reply)

    def _task1b_order(self, src: str, order: SeqOrder) -> None:
        if order.epoch < self.epoch:
            return  # stale: sent by the sequencer of a finished epoch
        if order.epoch > self.epoch or self.phase == 2:
            # From a sequencer ahead of us, or received while this epoch's
            # conservative phase is running: buffer for the epoch it names.
            if order.epoch > self.epoch:
                self._future_orders.setdefault(order.epoch, []).append(order)
            return
        if src != self.current_sequencer:
            return  # only the epoch's sequencer may order (defensive)
        self._accept_order(order)
        if self._order_gaps:
            self._drain_order_gaps()
        self._drain_opt_pending()

    def _accept_order(self, order: SeqOrder) -> None:
        """Accept an ordering message's slots, contiguously.

        The sequencer numbers its epoch's rids consecutively, so a
        replica knows exactly which slots it has accepted
        (``_epoch_accepted``).  An order starting beyond that count
        means an earlier ordering message is missing (lost or still in
        flight): it waits in ``_order_gaps`` rather than being adopted
        at a silently shifted position.  An order starting below it is
        a duplicate or an anti-entropy resend: the already-accepted
        prefix is skipped, only genuinely new slots are adopted.  Under
        benign FIFO links ``start == _epoch_accepted`` always, and this
        reduces exactly to the original accept loop.
        """
        accepted = self._epoch_accepted
        if order.start > accepted:
            existing = self._order_gaps.get(order.start)
            if existing is None or len(order.rids) > len(existing.rids):
                self._order_gaps[order.start] = order
            self.env.trace(
                "order_gap",
                epoch=order.epoch,
                start=order.start,
                accepted=accepted,
            )
            return
        skip = accepted - order.start
        if skip >= len(order.rids):
            return  # stale duplicate: every slot already accepted
        slot = accepted
        for rid in order.rids[skip:]:
            self._epoch_accepted += 1
            self._order_slots[rid] = slot
            slot += 1
            if (
                rid in self.a_delivered
                or rid in self.o_delivered
                or rid in self._opt_pending
            ):
                continue
            self._opt_pending[rid] = None

    def _drain_order_gaps(self) -> None:
        """Adopt buffered out-of-order SeqOrders once their gap closes."""
        progressed = True
        while progressed and self._order_gaps:
            progressed = False
            for start in sorted(self._order_gaps):
                if start <= self._epoch_accepted:
                    self._accept_order(self._order_gaps.pop(start))
                    progressed = True
                    break

    def _drain_opt_pending(self) -> None:
        """Opt-deliver ordered requests whose bodies have arrived, in order."""
        if self.phase != 1:
            return
        pending = self._opt_pending
        requests = self.requests
        while pending and next(iter(pending)) in requests:
            rid, _ = pending.popitem(last=False)
            self._opt_deliver(rid)

    def _opt_deliver(self, rid: str) -> None:
        """Fig. 6, lines 12-19: deliver the request, execute, reply.

        Delivery (the ``O_delivered`` append, the pending undo entry,
        the position) happens here, at the delivery instant; *execution*
        is handed to the engine.  On the exec_cost=0 fast path the
        engine applies synchronously and ``_opt_executed`` runs before
        this method returns, reproducing the inline behaviour (and its
        trace events) exactly; with a positive exec_cost the op waits
        for a lane (and for conflicting predecessors) and the trace
        splits into ``opt_deliver`` (delivery instant, no value) plus
        ``exec_done`` (completion instant, with the result).
        """
        weight = self._opt_weights[self.sequencer_index]
        request = self.requests[rid]
        # Deliver under the body's rid object: ``rid`` came from a
        # SeqOrder, which over a real backend is a second decoded copy.
        rid = request.rid
        self.o_delivered.append(rid)
        self._unordered.pop(rid, None)
        self._opt_delivery_count_this_epoch += 1
        position = len(self.a_delivered) + len(self.o_delivered)
        epoch = self.epoch
        if not self.engine.inline:
            self.env.trace("opt_deliver", rid=rid, epoch=epoch, position=position)
        self.engine.submit(
            rid,
            request.op,
            partial(self._opt_executed, request, position, weight, epoch),
            undoable=True,
        )
        if (
            self.config.gc_after_requests is not None
            and self.is_sequencer
            and self._opt_delivery_count_this_epoch >= self.config.gc_after_requests
        ):
            self._request_phase2("gc")

    def _opt_executed(
        self,
        request: Request,
        position: int,
        weight: frozenset,
        epoch: int,
        result: Any,
        lane: int,
    ) -> None:
        """An optimistic delivery left its execution lane: reply."""
        rid = request.rid
        if self.engine.inline:
            self.env.trace(
                "opt_deliver",
                rid=rid,
                epoch=epoch,
                position=position,
                value=result,
            )
        else:
            self.env.trace(
                "exec_done",
                rid=rid,
                epoch=epoch,
                position=position,
                value=result,
                lane=lane,
                conservative=False,
            )
        reply = Reply(
            rid=rid,
            value=result,
            position=position,
            weight=weight,
            epoch=epoch,
            conservative=False,
            # The order certificate: the sequencer-assigned epoch slot
            # this replica learned for the rid (clients cross-check
            # certificates for equivocation).  None if the slots were
            # already reset by an epoch settle.  Nothing reads the slot
            # after this reply, so it leaves the map here.
            slot=self._order_slots.pop(rid, None),
        )
        self._cache_reply(request, reply)
        self.env.send(request.client, reply)

    # ------------------------------------------------------------------
    # Task 1c: suspicion of the sequencer
    # ------------------------------------------------------------------

    def _on_suspicion(self, pid: str, suspected: bool) -> None:
        if suspected and self.phase == 1 and pid == self.current_sequencer:
            self._request_phase2("suspicion")

    def _request_phase2(self, reason: str) -> None:
        """Fig. 6, line 21: R-broadcast (k, PhaseII) to the group, once."""
        if self._phase2_requested == self.epoch:
            return
        self._phase2_requested = self.epoch
        self.env.trace("phase2_request", epoch=self.epoch, reason=reason)
        self.rmc.multicast(PhaseII(self.epoch, reason), self.group)

    # ------------------------------------------------------------------
    # Task 2: conservative ordering
    # ------------------------------------------------------------------

    def _task2_phase2(self, notification: PhaseII) -> None:
        epoch = notification.epoch
        if epoch < self.epoch:
            return  # this epoch is already settled locally
        if epoch > self.epoch:
            self._future_phase2.setdefault(epoch, notification.reason)
            return
        if self.phase == 2:
            return  # already running this epoch's conservative phase
        self.phase = 2
        self.env.trace("phase2_start", epoch=epoch, reason=notification.reason)
        # Requests ordered by the sequencer whose bodies never arrived are
        # not delivered; they are covered by O_notdelivered (if received)
        # or by a later epoch.
        self._opt_pending.clear()
        o_delivered = self.o_delivered.items
        o_notdelivered = tuple(self._unordered)
        self.env.trace(
            "cnsv_propose",
            epoch=epoch,
            o_delivered=o_delivered,
            o_notdelivered=o_notdelivered,
        )
        self.consensus.propose(
            ("cnsv", epoch), (o_delivered, o_notdelivered), self._on_cnsv_decide
        )

    def _on_cnsv_decide(self, instance_id: Tuple[str, int], vector: Any) -> None:
        _tag, epoch = instance_id
        if epoch != self.epoch or self.phase != 2:
            raise RuntimeError(
                f"{self.pid}: decision for epoch {epoch} in epoch "
                f"{self.epoch}/phase {self.phase}"
            )
        decision = decision_from_vector(vector)
        o_delivered = self.o_delivered.snapshot()
        result = compute_bad_new(o_delivered, decision)
        self.env.trace(
            "cnsv_order",
            epoch=epoch,
            o_delivered=o_delivered.items,
            decision=decision,
            bad=result.bad.items,
            new=result.new.items,
        )
        self._pending_result = result
        self._try_finish_phase2()

    def _try_finish_phase2(self) -> None:
        """Complete phase 2 once every request in New is known locally."""
        result = self._pending_result
        if result is None:
            return
        missing = [rid for rid in result.new if rid not in self.requests]
        if missing:
            self.env.trace("phase2_waiting", epoch=self.epoch, missing=tuple(missing))
            return
        self._pending_result = None
        self._finish_phase2(result)

    def _finish_phase2(self, result: CnsvOrderResult) -> None:
        epoch = self.epoch

        # Fig. 6, lines 25-26: Opt-undeliver Bad, in reverse delivery
        # order (footnote 2).  The engine fences each undo first: an op
        # still waiting for (or occupying) a lane is detached -- it never
        # touched the state, so its undo entry is a pending no-op --
        # while an executed op has, by chain order, no conflicting
        # successor mid-flight.  Executed inverses are *charged*: they
        # occupy an execution lane for exec_cost x the op's weight, just
        # like the forward execution did (inverses submitted in reverse
        # order chain correctly among themselves via the same conflict
        # footprints, and New redos below chain behind them).
        for rid in reversed(result.bad.items):
            self.engine.cancel(rid)
            undo = self.undo_log.pop_last(rid)
            # The cached reply reflects the undone execution; drop it
            # until the message is delivered again.
            self._reply_cache.pop(rid, None)
            self.env.trace("opt_undeliver", rid=rid, epoch=epoch)
            if undo is None:
                continue  # cancelled before execution: state untouched
            request = self.requests[rid]
            self.engine.submit_inverse(
                rid,
                request.op,
                undo,
                lambda lane, rid=rid: self.env.trace(
                    "undo_exec", rid=rid, epoch=epoch, lane=lane
                ),
            )

        # Fig. 6, lines 27-29: A-deliver New, reply with weight Π.
        # A-delivery (the position in the settled order) is decided
        # here; the execution is engine-scheduled like any other apply,
        # dependency-chained behind any still-in-flight survivors on
        # conflicting keys.
        survivors = result.good  # O_delivered ⊖ Bad
        base_position = len(self.a_delivered) + len(survivors)
        for offset, rid in enumerate(result.new.items):
            request = self.requests.get(rid)
            position = base_position + offset + 1
            if not self.engine.inline:
                self.env.trace(
                    "a_deliver", rid=rid, epoch=epoch, position=position
                )
            self.engine.submit(
                rid,
                request.op,
                partial(self._cons_executed, request, position, epoch),
                undoable=False,
            )

        # Fig. 6, lines 30-32: settle the epoch.
        self.a_delivered = self.a_delivered.concat(survivors).concat(result.new)
        self.o_delivered.clear()
        self._settle_unordered(result)
        self.undo_log.commit()
        self.epoch = epoch + 1
        self.phase = 1
        self._opt_delivery_count_this_epoch = 0
        # Epoch-slot bookkeeping restarts with the epoch: slots are
        # per-epoch, and the new sequencer numbers from zero.
        self._epoch_order.clear()
        self._epoch_accepted = 0
        self._order_gaps.clear()
        self._order_slots.clear()
        if self.config.rotate_sequencer:
            self.sequencer_index = (self.sequencer_index + 1) % len(self.group)
        self.env.trace(
            "epoch_start", epoch=self.epoch, sequencer=self.current_sequencer
        )

        # Replay anything buffered for the new epoch, then resume Task 1a.
        self._replay_buffers()
        if self.phase == 1:
            if (
                self.fd.is_suspected(self.current_sequencer)
                and self._phase2_requested != self.epoch
            ):
                # Task 1c for the new epoch: the new sequencer is already
                # suspected.
                self._request_phase2("suspicion")
            self._maybe_order()

    def _settle_unordered(self, result: CnsvOrderResult) -> None:
        """Bring line 9's sequence across the epoch settle.

        New was just A-delivered, so it leaves.  Bad was Opt-undelivered:
        whatever of it New did not deliver again is R-delivered and in
        neither A_delivered nor O_delivered, i.e. unordered once more --
        and its place in ``(R ⊖ A) ⊖ O`` is its place in R_delivered,
        *ahead* of everything R-delivered since.  (A rid this replica
        shed was never R-delivered here and stays out, as the definition
        says.)  Re-entry is the only step that is not an append, so the
        set is rebuilt in R_delivered's order, one pass over the log, and
        only when it happens.
        """
        unordered = self._unordered
        new = result.new
        for rid in new:
            unordered.pop(rid, None)
        r_delivered = self.r_delivered
        undone = {
            rid for rid in result.bad if rid not in new and rid in r_delivered
        }
        if undone:
            self._unordered = dict.fromkeys(
                rid for rid in r_delivered if rid in unordered or rid in undone
            )

    def _cons_executed(
        self, request: Request, position: int, epoch: int, result: Any, lane: int
    ) -> None:
        """A conservative (A-delivered) op left its lane: reply weight Π."""
        rid = request.rid
        if self.engine.inline:
            self.env.trace(
                "a_deliver", rid=rid, epoch=epoch, position=position, value=result
            )
        else:
            self.env.trace(
                "exec_done",
                rid=rid,
                epoch=epoch,
                position=position,
                value=result,
                lane=lane,
                conservative=True,
            )
        reply = Reply(
            rid=rid,
            value=result,
            position=position,
            weight=self._group_weight,
            epoch=epoch,
            conservative=True,
        )
        self._cache_reply(request, reply)
        self.env.send(request.client, reply)

    def _cache_reply(self, request: Request, reply: Reply) -> None:
        """Keep ``reply`` for a re-sent rid: every reply of a client that
        retransmits, the latest only of one that does not."""
        rid = request.rid
        if not request.retransmits:
            client = request.client
            previous = self._latest_rid.get(client)
            if previous != rid:
                if previous is not None:
                    self._reply_cache.pop(previous, None)
                self._latest_rid[client] = rid
        self._reply_cache[rid] = reply

    def _replay_buffers(self) -> None:
        orders = self._future_orders.pop(self.epoch, [])
        for order in orders:
            self._task1b_order(self.current_sequencer, order)
        reason = self._future_phase2.pop(self.epoch, None)
        if reason is not None:
            self._task2_phase2(PhaseII(self.epoch, reason))

    # ------------------------------------------------------------------
    # Paranoid self-checks (OARConfig.paranoid)
    # ------------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        """Deliver one message, then self-check when paranoid."""
        super().on_message(src, payload)
        if self.config.paranoid:
            self.check_invariants()

    def check_invariants(self) -> None:
        """Assert the structural invariants of the Fig. 6 state.

        Raises ``RuntimeError`` with a precise description if any is
        broken -- these are implementation invariants, one level below
        the paper's propositions (which the trace checkers cover).
        """
        a_set = self.a_delivered.to_set()
        o_set = set(self.o_delivered)
        if a_set & o_set:
            raise RuntimeError(
                f"{self.pid}: A_delivered and O_delivered overlap: "
                f"{sorted(a_set & o_set)}"
            )
        delivered = a_set | o_set
        # Settled/optimistic messages whose body we do not know are
        # impossible; messages can be delivered without being in
        # R_delivered only via Cnsv-order's New (and then the body was
        # required before A-delivery).
        missing_bodies = delivered - set(self.requests)
        if missing_bodies:
            raise RuntimeError(
                f"{self.pid}: delivered without request body: "
                f"{sorted(missing_bodies)}"
            )
        if self.phase == 1:
            # Undo log tracks exactly the current epoch's optimistic
            # deliveries, in order.
            if tuple(self.undo_log.tags) != self.o_delivered.items:
                raise RuntimeError(
                    f"{self.pid}: undo log {self.undo_log.tags} out of sync "
                    f"with O_delivered {self.o_delivered.items}"
                )
        # Everything R-delivered is either pending, optimistic or settled;
        # nothing is both pending and delivered.
        pending = set(self._opt_pending)
        if pending & delivered:
            raise RuntimeError(
                f"{self.pid}: pending ∩ delivered = {sorted(pending & delivered)}"
            )
        # The incrementally maintained line-9 sequence is, element for
        # element, the one the paper defines.
        unordered = (
            self.r_delivered.snapshot()
            .subtract(self.a_delivered)
            .subtract(self.o_delivered)
        )
        if tuple(self._unordered) != unordered.items:
            raise RuntimeError(
                f"{self.pid}: unordered set {tuple(self._unordered)} is not "
                f"(R_delivered ⊖ A_delivered) ⊖ O_delivered = {unordered.items}"
            )
        if self.phase not in (1, 2):
            raise RuntimeError(f"{self.pid}: bad phase {self.phase}")
