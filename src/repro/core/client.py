"""The OAR client (Fig. 5): weighted-quorum reply adoption.

The client R-multicasts its request to the server group Π and collects
replies.  Replies are grouped by the epoch ``k`` in which the servers
generated them; within one epoch the client accumulates the *union* of the
reply weights (the sets of endorsing servers).  Once that union reaches
the majority threshold ``⌈(|Π|+1)/2⌉`` the client **adopts** a reply with
the largest individual weight.

Why this is safe (Proposition 7): within an epoch all optimistic replies
for a request are identical (the sequencer's FIFO ordering gives
prefix-related optimistic sequences), and all conservative replies are
identical (Cnsv-order agreement).  A reply that could still be undone is
endorsed by at most a minority (undo consistency), so it can never
accumulate majority weight; conservative replies carry weight Π and win
the largest-weight selection immediately.

The paper's service is one group, ``OARClient(pid, [group])``.  A
*partitioned* service (``repro.sharding``) hands the client N
independent OAR groups: each request is routed by its keys to one of
them, adoption runs per group (each group has its own majority
threshold), and multi-key operations that straddle groups run a
client-coordinated two-phase commit whose branches are ordinary
totally-ordered requests on their shards.

With live rebalancing (``repro.sharding.rebalance``) a client's routing
table can go stale: a key it routes to shard s may have been migrated
away.  The shard then answers with a deterministic, totally-ordered
:class:`~repro.statemachine.base.WrongShard` error, and the client
**re-syncs its routing-table copy from the cluster's authoritative
epoched table and retries** the operation under a fresh request id (the
redirect loop also covers the in-flight window where a key is owned by
*no* shard -- retries are spaced by ``redirect_delay`` until the
migration lands).  The retried request is a brand-new totally-ordered
request, so per-shard at-most-once and total-order guarantees are
untouched; the original (error) adoption is simply never surfaced to the
workload driver.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.broadcast.reliable import ReliableMulticast
from repro.core.admission import Overloaded
from repro.core.loadtrack import DecayingKeyLoad
from repro.core.messages import ReadReply, ReadRequest, Reply, Request, ShedNotice
from repro.sim.component import ComponentProcess
from repro.statemachine.base import OpResult, WrongShard
from repro.values import frozen_value


@frozen_value
class AdoptedReply:
    """The client's final outcome for one request.

    For a cross-shard transaction the adopted reply is synthesized
    from the branch adoptions: ``position`` and
    ``epoch`` are ``-1`` (there is no single-group position), ``weight``
    is empty, and ``conservative`` is True only when every branch was
    adopted conservatively.
    """

    rid: str
    value: Any
    position: int
    epoch: int
    weight: Tuple[str, ...]
    conservative: bool
    submit_time: float
    adopt_time: float

    @property
    def latency(self) -> float:
        """Client-perceived latency: adoption minus submission time."""
        return self.adopt_time - self.submit_time


#: A continuation: what a request's adopted reply is handed to instead of
#: the workload driver.  Every multi-step operation (a WrongShard retry,
#: a 2PC branch, a scatter-read branch, a borrow, a migration stage) is a
#: ``then`` on an ordinary request, so it acts only on committed outcomes.
Then = Callable[[AdoptedReply], None]

#: An order certificate as first seen: (rid, slot, replying server).
_Cert = Tuple[str, int, str]

#: Half-life (simulated time units) of :attr:`OARClient.key_load`.
KEY_LOAD_HALF_LIFE = 250.0

#: How a client executes read-only operations (``OARClient(read_mode=)``).
READ_MODES = ("sequencer", "optimistic", "conservative")

#: Redirects one logical operation may take; once spent, the WrongShard
#: error is surfaced as a terminal adoption (keeps runs with a
#: permanently stranded key terminating).
MAX_REDIRECTS = 100


class _PendingRequest:
    """Reply bookkeeping for one in-flight request."""

    __slots__ = (
        "rid",
        "op",
        "group",
        "submit_time",
        "then",
        "replies_by_epoch",
        "weight_by_epoch",
        "retries",
    )

    def __init__(
        self, rid: str, op: Tuple[Any, ...], group: Tuple[str, ...], submit_time: float,
        then: Optional[Then],
    ) -> None:
        #: The rid as this client minted it: adoptions are keyed and
        #: stamped with this object, not with a reply's decoded copy.
        self.rid = rid
        self.op = op
        self.group = group
        self.submit_time = submit_time
        self.then = then
        self.retries = 0
        # epoch -> {server pid -> Reply}; per server we keep the
        # heaviest reply seen for that epoch (a conservative reply
        # supersedes the server's earlier optimistic one).
        self.replies_by_epoch: Dict[int, Dict[str, Reply]] = {}
        # epoch -> running union of endorsement weights.  Maintained
        # incrementally on each reply so the majority check is O(|weight|)
        # per reply instead of re-unioning every kept reply (weights
        # within an epoch are nested, so the running union equals the
        # union over the kept-heaviest replies).
        self.weight_by_epoch: Dict[int, set] = {}

    @property
    def majority_weight(self) -> int:
        """⌈(|group|+1)/2⌉ for the group this request was sent to."""
        return len(self.group) // 2 + 1


class _PendingRead:
    """Reply bookkeeping for one in-flight replica-local read."""

    __slots__ = (
        "rid",
        "op",
        "group",
        "shard",
        "mode",
        "submit_time",
        "then",
        "attempts",
        "replies",
        "target_index",
        "retries",
        "round",
        "timer",
    )

    def __init__(
        self,
        rid: str,
        op: Tuple[Any, ...],
        group: Tuple[str, ...],
        shard: int,
        mode: str,
        submit_time: float,
        then: Optional[Then],
        attempts: int,
        target_index: int,
    ) -> None:
        self.rid = rid  #: as minted, like ``_PendingRequest.rid``
        self.op = op
        self.group = group
        self.shard = shard
        self.mode = mode
        self.submit_time = submit_time
        self.then = then
        #: WrongShard redirects this logical read already spent (read
        #: by ``_adopt_read`` before the trace).
        self.attempts = attempts
        self.target_index = target_index
        #: server pid -> its latest ReadReply *of the current round*.
        #: Every retransmit/re-poll bumps ``round`` and clears this, and
        #: conservative mode drops replies tagged with a stale round, so
        #: a quorum only ever forms among same-round replies -- mixing
        #: rounds could assemble a majority no single instant ever held.
        self.replies: Dict[str, ReadReply] = {}
        self.retries = 0
        self.round = 0
        #: Live retransmit TimerHandle; cancelled on adoption so the
        #: common case (read answered promptly) leaves no dead timer in
        #: the event queue -- this sits on the measured read hot path.
        self.timer: Any = None

    @property
    def majority(self) -> int:
        return len(self.group) // 2 + 1


class _CrossShardTx:
    """Coordinator state for one client-driven cross-shard transaction."""

    __slots__ = (
        "txid",
        "op",
        "submit_time",
        "then",
        "attempts",
        "shards",
        "prepare_rids",
        "prepared",
        "phase",
        "decision_rids",
        "decided",
        "inflight",
    )

    def __init__(
        self,
        txid: str,
        op: Tuple[Any, ...],
        submit_time: float,
        then: Optional[Then],
        attempts: int,
        shards: Tuple[int, ...],
    ) -> None:
        self.txid = txid
        self.op = op
        self.submit_time = submit_time
        self.then = then  # who gets the whole-transaction outcome
        self.attempts = attempts  # redirects this logical op already spent
        self.shards = shards
        self.prepare_rids: Dict[str, int] = {}  # branch rid -> shard
        self.prepared: Dict[str, AdoptedReply] = {}
        self.phase = "prepare"  # -> "commit" | "abort"
        self.decision_rids: Set[str] = set()
        self.decided: Dict[str, AdoptedReply] = {}
        self.inflight = 0  # branches submitted but not yet adopted

    @property
    def all_prepared(self) -> bool:
        return len(self.prepared) == len(self.prepare_rids)

    @property
    def prepare_ok(self) -> bool:
        return all(
            isinstance(a.value, OpResult) and a.value.ok
            for a in self.prepared.values()
        )


class _ScatterRead:
    """One merge-on-read over a split key's fragments (client-side)."""

    __slots__ = ("sid", "op", "key", "order", "submit_time", "then", "by_frag",
                 "got", "error", "conservative")

    def __init__(
        self, sid: str, op: Tuple[Any, ...], key: Any, order: Tuple[Any, ...],
        submit_time: float, then: Optional[Then],
    ) -> None:
        self.sid = sid
        self.op = op
        self.key = key
        self.order = order  # fragment keys, in fragment-index order
        self.submit_time = submit_time
        self.then = then
        self.by_frag: Dict[Any, Any] = {}
        self.got = 0
        self.error: Optional[str] = None
        self.conservative = True


class _BudgetWithdraw:
    """One budget-limited op on a fragment, with its borrow bookkeeping."""

    __slots__ = ("op", "key", "frag", "frag_op", "frags", "submit_time",
                 "then", "attempts", "tried", "shortfall")

    def __init__(
        self, op: Tuple[Any, ...], key: Any, frag: Any,
        frag_op: Tuple[Any, ...], frags: Tuple[Any, ...], submit_time: float,
        then: Optional[Then],
    ) -> None:
        self.op = op
        self.key = key
        self.frag = frag
        self.frag_op = frag_op
        self.frags = frags
        self.submit_time = submit_time
        self.then = then
        self.attempts = 0
        self.tried: Set[Any] = set()
        self.shortfall = 0


def _no_keys(op: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The default key extractor: every op goes to shard 0."""
    return ()


class OARClient(ComponentProcess):
    """A client process c issuing requests to the replicated service.

    Every request is routed to one group and adopted with that group's
    majority rule.  With one group (the paper's service) routing is
    trivial; with several (``repro.sharding``) single-key requests go
    to their key's group, and multi-key requests whose keys straddle
    groups are decomposed (via the state machine's
    :meth:`~repro.statemachine.base.StateMachine.tx_branches` hook)
    into per-shard prepare branches; once every branch is adopted, the
    client decides commit (all prepares succeeded) or abort and drives
    the decision branches.  Every branch is an ordinary request,
    totally ordered by its shard's sequencer and adopted under the usual
    weighted-quorum rule -- the cross-shard path adds no new consensus
    machinery, only a state machine on top of adopted outcomes.

    When the routing table carries **hot-key splits** and a ``splitter``
    (a :class:`~repro.statemachine.base.SplittableMachine` subclass) is
    configured, operations on a split key are rewritten at submit time:

    * commutative ops (``split_kind`` ``"local"``) go to one fragment,
      chosen round-robin per key, so load spreads across the fragments'
      shards and execution lanes;
    * budget-limited ops (``"budget"``) go to one fragment and, when the
      fragment's local balance falls short (the machine reports
      ``("short", available)``), the client **borrows**: it submits an
      ordinary transfer from a sibling fragment (riding the cross-shard
      2PC when the donor lives elsewhere) and retries the op on the
      enriched fragment, rotating donors until one covers the shortfall
      or all have been tried;
    * whole-value reads (``"read"``) **scatter-gather**: one read per
      fragment, combined with the machine's ``merge_read`` and surfaced
      as a single synthesized adoption (``position``/``epoch`` ``-1``,
      like cross-shard transactions);
    * multi-key ops have each split key rewritten onto one fragment
      (a short transfer source simply fails, like any overdraft).

    A client that has not yet synced past the split's epoch routes to
    the logical key, gets WrongShard, and learns the split through the
    ordinary sync-and-retry loop -- splits need no new staleness
    machinery.

    Parameters
    ----------
    pid:
        Client identifier (must not collide with server pids).
    shard_groups:
        One server group Π per shard, indexed by shard id; the paper's
        service is ``[group]``.
    router:
        The deterministic key -> shard mapping shared with the cluster
        (default: a hash router over ``shard_groups``).
    key_extractor:
        ``op -> keys`` hook (usually ``Machine.keys_of``).  The default
        names no keys, so every op goes to shard 0: only meaningful for
        one group.
    tx_planner:
        ``(op, txid) -> {key: branch_op}`` hook (usually
        ``Machine.tx_branches``) for cross-shard decomposition.
    retry_interval:
        When set, a request still unadopted after this much time is
        R-multicast again (same rid; the servers never re-execute --
        they re-send the cached reply).  Covers the lost-reply case:
        replies travel on plain channels and die with a crashing
        server, unlike requests, which the R-multicast relays protect.
        Reads use the same knob: an unanswered read is re-sent (to the
        next replica in optimistic mode -- the target may be dead).
    route_authority:
        The cluster's authoritative epoched
        :class:`~repro.sharding.router.RoutingTable`.  When given (and
        ``router`` is this client's own copy of it), WrongShard replies
        trigger a sync-and-retry instead of surfacing an error; when
        None the client never redirects (static-routing behaviour).
    redirect_delay:
        Pause before a redirected operation is retried -- covers the
        in-flight migration window where the key is owned by no shard.
        The read path waits it too, for the same reason (the group has
        to converge): before re-polling a conservative read whose
        replies split, and, times 20, before re-sending an unanswered
        read when no ``retry_interval`` is set.  One logical operation
        is redirected at most :data:`MAX_REDIRECTS` times; the
        WrongShard error after that is its terminal adoption, counted in
        :attr:`redirects_exhausted`.
    read_mode / is_read_only:
        The replica-local read path.  With ``read_mode="sequencer"``
        (the default, the paper's base protocol) every operation is
        ordered.  With ``"optimistic"`` or ``"conservative"``,
        operations the ``is_read_only`` classifier approves bypass the
        sequencer entirely: the client sends a :class:`ReadRequest`
        point-to-point to the key's shard group -- to one replica chosen
        round-robin (optimistic: first reply wins, scales with replica
        count) or to the whole group (conservative: adopt once a
        majority return the same value).  ``is_read_only`` is usually
        the state machine's
        :meth:`~repro.statemachine.base.StateMachine.is_read_only`.
        Reads on a key the target shard lost (frozen mid-migration, or
        moved away) get the same WrongShard sync-and-retry as writes.
    splitter:
        The deployment's :class:`~repro.statemachine.base.
        SplittableMachine` subclass (the machine *class*, not an
        instance), enabling the fragment rewrite / borrow / merge-on-read
        behaviour described above for keys the routing table marks as
        split.  ``None`` (the default) leaves split keys un-rewritten:
        ops on them WrongShard until the key is unsplit.
    """

    def __init__(
        self,
        pid: str,
        shard_groups: Sequence[Sequence[str]],
        router: Any = None,
        key_extractor: Callable[[Tuple[Any, ...]], Tuple[Any, ...]] = _no_keys,
        tx_planner: Optional[
            Callable[[Tuple[Any, ...], str], Optional[Dict[Any, Tuple[Any, ...]]]]
        ] = None,
        retry_interval: Optional[float] = None,
        route_authority: Optional[Any] = None,
        redirect_delay: float = 5.0,
        read_mode: str = "sequencer",
        is_read_only: Optional[Callable[[Tuple[Any, ...]], bool]] = None,
        splitter: Optional[type] = None,
    ) -> None:
        super().__init__(pid)
        if read_mode not in READ_MODES:
            raise ValueError(f"read_mode {read_mode!r} not in {READ_MODES}")
        groups = tuple(tuple(group) for group in shard_groups)
        if router is None:
            # Imported here: repro.sharding's package imports this module.
            from repro.sharding.router import HashShardRouter

            router = HashShardRouter(len(groups))
        if router.n_shards != len(groups):
            raise ValueError(
                f"router has {router.n_shards} shards but "
                f"{len(groups)} groups were given"
            )
        self.shard_groups = groups
        self.router = router
        self.key_extractor = key_extractor
        self.tx_planner = tx_planner
        #: Fired with every adoption whose request has no ``then``; the
        #: workload drivers chain themselves onto it.
        self.on_adopt: Optional[Callable[[AdoptedReply], None]] = None
        self.retry_interval = retry_interval
        self.route_authority = route_authority
        self.redirect_delay = redirect_delay
        self.retransmissions = 0
        self.read_mode = read_mode
        self.is_read_only = is_read_only
        self.rmc = self.add_component(ReliableMulticast(self, self._unexpected_rdeliver))
        self._counter = itertools.count()
        self._pending: Dict[str, _PendingRequest] = {}
        self.adopted: Dict[str, AdoptedReply] = {}
        self.late_replies = 0
        # Replica-local reads in flight, in their own rid namespace
        # (<pid>-r<n>): read ids must never collide with ordered request
        # ids, and checkers exclude them from delivery-based properties.
        self._read_counter = itertools.count()
        self._reads: Dict[str, _PendingRead] = {}
        self._read_rr = 0  # round-robin cursor for optimistic targets
        self.read_rids: Set[str] = set()
        self.reads_adopted = 0
        self.read_retransmissions = 0
        # Admission control: ops the sequencer refused under load.  Each
        # surfaces as a failed OpResult wrapping Overloaded through the
        # normal adoption callback; the rid set lets run-level checkers
        # exclude shed ops from delivery-based properties (they were
        # answered, deliberately never ordered).
        self.overloaded = 0
        self.shed_rids: Set[str] = set()
        # Sequencer-equivocation detection: optimistic replies carry an
        # *order certificate* -- the sequencer-assigned (epoch, slot) the
        # replying replica learned for the rid.  The client cross-checks
        # every certificate it ever sees (late replies included: the
        # divergent one typically lands after adoption) against two
        # indices; a conflict means the sequencer told two replicas two
        # different orders, which message loss cannot fake (slots are
        # sequencer-assigned, not replica positions).  One pair of indices
        # per (scope, epoch) -- the scope is the server-group prefix, so
        # sharded groups never cross-talk -- keyed by slot and by rid,
        # both holding the first certificate seen, (rid, slot, src).
        self._certs: Dict[Tuple[str, int], Tuple[Dict[int, _Cert], Dict[str, _Cert]]] = {}
        self.equivocations_detected = 0
        # Adoption weights, interned: a reply's weight set (a frozenset),
        # a single replying pid and each sorted tuple all map to the one
        # tuple every adoption of that set shares.
        self._weights: Dict[Any, Tuple[str, ...]] = {}
        self._tx_counter = itertools.count()
        #: Transactions between begin and finish (for :attr:`outstanding`).
        self._txs: Dict[str, _CrossShardTx] = {}
        #: Every physical request (single-shard ops and tx branches) and
        #: the shard it was routed to; per-shard checkers use this.
        self.routed: Dict[str, int] = {}
        #: Inverse index of :attr:`routed`, maintained at submit time so
        #: per-shard checkers do not rescan every routed request per shard.
        self._routed_by_shard: Dict[int, List[str]] = {}
        #: Per-key submission load: the statistic the rebalance
        #: coordinator plans from (cheap, works with tracing off).  It
        #: decays, so a key that went cold is not migrated on stale
        #: evidence.  ``snapshot()`` gives decayed loads, ``counts()``
        #: exact submission counts.
        self.key_load = DecayingKeyLoad(
            half_life=KEY_LOAD_HALF_LIFE, clock=lambda: self.env.now
        )
        self._redirect_pending = 0
        self.cross_shard_started = 0
        self.cross_shard_committed = 0
        self.cross_shard_aborted = 0
        self.redirects = 0
        self.redirects_exhausted = 0
        # -- hot-key splitting ------------------------------------------
        self.splitter = splitter
        #: key -> round-robin cursor over its fragments.
        self._split_rr: Dict[Any, int] = {}
        self._scatter_counter = itertools.count()
        self.split_rewrites = 0
        self.split_reads = 0
        self.borrows = 0
        self.borrows_failed = 0

    @property
    def outstanding(self) -> int:
        """In-flight physical requests plus any tx between phases.

        A transaction always has a branch in flight between begin and
        finish (decisions are submitted in the last prepare's adoption
        event), so the second term is defensive.  Operations waiting out
        a redirect delay count too -- the driver must not conclude the
        run while a retry is pending -- as do replica-local reads.
        """
        base = len(self._pending) + len(self._reads) + self._redirect_pending
        if not self._txs:  # quiescence predicates poll this per event
            return base
        stalled = sum(1 for tx in self._txs.values() if tx.inflight == 0)
        return base + stalled

    def shards_of(self, op: Tuple[Any, ...]) -> Tuple[int, ...]:
        """The distinct shards an operation's keys map to (sorted)."""
        return self._shards_for_keys(tuple(self.key_extractor(tuple(op))))

    def _shards_for_keys(self, keys: Tuple[Any, ...]) -> Tuple[int, ...]:
        """The routing policy: keyless operations get the deterministic
        fallback shard 0, keyed ones the sorted set of their shards."""
        if not keys:
            return (0,)
        return tuple(sorted({self.router.shard_of(key) for key in keys}))

    # ------------------------------------------------------------------

    def submit(
        self,
        op: Tuple[Any, ...],
        then: Optional[Then] = None,
        submit_time: Optional[float] = None,
    ) -> str:
        """OAR-multicast(m, Π) to the group ``op``'s keys route to.

        Returns the request id; the adopted reply appears in
        :attr:`adopted` (and via the ``on_adopt`` callback) -- unless the
        caller passes the continuation ``then``, which gets the adopted
        reply instead.  ``submit_time`` back-dates the request: a step of
        a longer logical operation is timed from that operation's first
        submission.  Read-only operations take the replica-local read
        path when :attr:`read_mode` enables it; a multi-shard op is
        fanned out as a 2PC transaction.
        """
        return self._route(
            tuple(op), then, self.env.now if submit_time is None else submit_time, 0
        )

    def _route(
        self, op: Tuple[Any, ...], then: Optional[Then], submit_time: float, attempts: int
    ) -> str:
        """Submit one logical operation: ``then`` gets its final outcome;
        ``submit_time`` and ``attempts`` (WrongShard redirects already
        spent) are what a retry inherits from the first try."""
        keys = tuple(self.key_extractor(op))
        record = self.key_load.record
        for key in keys:
            record(key)
        if self.splitter is not None and self.router.splits:
            handled = self._submit_split(op, keys, then, submit_time, attempts)
            if handled is not None:
                return handled
        shards = self._shards_for_keys(keys)
        if len(shards) == 1:
            if self._wants_read_path(op):
                # Replica-local read: straight to the key's shard group,
                # no sequencer involved.  (A hypothetical multi-shard
                # read has no single group to quorum over and falls
                # through to the ordered path below.)
                return self._submit_read(op, shards[0], then, submit_time, attempts)
            return self.submit_to_shard(
                op, shards[0], partial(self._on_routed, op, attempts, then), submit_time
            )
        return self._begin_cross_shard(op, shards, then, submit_time, attempts)

    def submit_to_shard(
        self, op: Tuple[Any, ...], shard: int,
        then: Optional[Then] = None, submit_time: Optional[float] = None,
    ) -> str:
        """R-multicast ``op`` to one shard's group, recording the routing.

        The normal path routes by key; this entry point is for requests
        whose shard is chosen by the caller -- transaction branches and
        the rebalance coordinator's ``mig_*`` operations -- and whose
        outcome, WrongShard included, goes to ``then`` as it is.
        """
        group = self.shard_groups[shard]
        rid = f"{self.pid}-{next(self._counter)}"
        request = Request(
            rid=rid, client=self.pid, op=tuple(op),
            retransmits=self.retry_interval is not None,
        )
        self._pending[rid] = _PendingRequest(
            rid, request.op, group, self.env.now if submit_time is None else submit_time, then
        )
        self.env.trace("submit", rid=rid, op=request.op)
        self.rmc.multicast(request, group)
        if self.retry_interval is not None:
            self.env.set_timer(
                self.retry_interval, lambda: self._maybe_retry(request)
            )
        self.routed[rid] = shard
        per_shard = self._routed_by_shard.get(shard)
        if per_shard is None:
            per_shard = self._routed_by_shard[shard] = []
        per_shard.append(rid)
        return rid

    def routed_to(self, shard: int) -> List[str]:
        """Physical rids (ops and tx branches) this client routed to ``shard``."""
        return list(self._routed_by_shard.get(shard, ()))

    def _maybe_retry(self, request: Request) -> None:
        pending = self._pending.get(request.rid)
        if pending is None:
            return  # adopted in the meantime
        pending.retries += 1
        self.retransmissions += 1
        self.env.trace("retransmit", rid=request.rid, attempt=pending.retries)
        self.rmc.multicast(request, pending.group)
        self.env.set_timer(
            self.retry_interval, lambda: self._maybe_retry(request)
        )

    def on_app_message(self, src: str, payload: Any) -> None:
        """Handle server replies (everything else is component traffic)."""
        if isinstance(payload, Reply):
            self._on_reply(src, payload)
        elif isinstance(payload, ReadReply):
            self._on_read_reply(src, payload)
        elif isinstance(payload, ShedNotice):
            self._on_shed(src, payload)

    # ------------------------------------------------------------------
    # Replica-local reads (read_mode)
    # ------------------------------------------------------------------

    def _wants_read_path(self, op: Tuple[Any, ...]) -> bool:
        return (
            self.read_mode != "sequencer"
            and self.is_read_only is not None
            and self.is_read_only(op)
        )

    def _submit_read(
        self, op: Tuple[Any, ...], shard: int, then: Optional[Then],
        submit_time: float, attempts: int,
    ) -> str:
        """Send a read straight to a shard's replicas, bypassing its sequencer."""
        rid = f"{self.pid}-r{next(self._read_counter)}"
        target_index = self._read_rr
        self._read_rr += 1
        pending = _PendingRead(
            rid=rid,
            op=op,
            group=self.shard_groups[shard],
            shard=shard,
            mode=self.read_mode,
            submit_time=submit_time,
            then=then,
            attempts=attempts,
            target_index=target_index,
        )
        self._reads[rid] = pending
        self.read_rids.add(rid)
        self.env.trace(
            "read_submit", rid=rid, op=op, mode=pending.mode, shard=shard
        )
        self._send_read(rid, pending)
        pending.timer = self.env.set_timer(
            self._read_retry_interval(0), lambda: self._maybe_retry_read(rid)
        )
        return rid

    def _read_retry_interval(self, retries: int) -> float:
        """Pacing of the unanswered-read retry timer (binary backoff).

        Unlike writes (R-multicast both ways, relayed around crashes),
        reads travel on plain point-to-point channels, so without a
        retry a read targeting a crashed replica would hang forever --
        the read path must not *lose* fault tolerance the ordered path
        has without extra knobs.  ``retry_interval`` sets the base when
        given (matching write retransmission).  Otherwise the base is a
        lazy liveness floor, 20 ``redirect_delay``s (100 units at the
        default, ~50 unit-latency round trips): a read is usually
        unanswered because it is *queued* at a loaded replica, not
        because the replica died, and an eager default would retransmit
        queued reads into an ever-deeper queue (measured in B12: a
        10-unit base collapsed saturated conservative goodput ~5x).
        Crash-failover scenarios that care about recovery latency set
        ``retry_interval`` explicitly, exactly as writes do.  The
        interval doubles per attempt (retransmission storms cannot
        compound).
        """
        base = (
            self.retry_interval
            if self.retry_interval is not None
            else 20 * self.redirect_delay
        )
        return base * (2 ** retries)

    def _send_read(self, rid: str, pending: _PendingRead) -> None:
        request = ReadRequest(
            rid=rid, client=self.pid, op=pending.op, round=pending.round
        )
        if pending.mode == "optimistic":
            target = pending.group[pending.target_index % len(pending.group)]
            self.env.send(target, request)
        else:  # conservative: every replica answers
            send = self.env.send
            for member in pending.group:
                send(member, request)

    def _maybe_retry_read(self, rid: str) -> None:
        """Unanswered read after the retry interval: re-poll.

        Optimistic reads rotate to the next replica (the target may have
        crashed); conservative reads re-poll the whole group under a
        fresh round number, dropping the superseded round's replies.
        """
        pending = self._reads.get(rid)
        if pending is None:
            return  # adopted in the meantime
        pending.retries += 1
        self.read_retransmissions += 1
        pending.target_index += 1
        pending.round += 1
        pending.replies.clear()
        self.env.trace("read_retransmit", rid=rid, attempt=pending.retries)
        self._send_read(rid, pending)
        pending.timer = self.env.set_timer(
            self._read_retry_interval(pending.retries),
            lambda: self._maybe_retry_read(rid),
        )

    def _on_read_reply(self, src: str, reply: ReadReply) -> None:
        pending = self._reads.get(reply.rid)
        if pending is None:
            self.late_replies += 1
            return
        if pending.mode == "optimistic":
            # Any round's reply is a valid single-replica observation.
            weight = self._weights.get(src)
            if weight is None:
                weight = self._weights[src] = self._weights.setdefault((src,), (src,))
            self._adopt_read(pending, reply, weight)
            return
        if reply.round != pending.round:
            # A straggler from a superseded round: mixing it into the
            # current round's vote could assemble a majority no single
            # instant ever held.
            self.late_replies += 1
            return
        pending.replies[src] = reply
        # Conservative: adopt once a majority of replicas agree on the
        # value.  Undo consistency makes this safe: a value derived from
        # an optimistic suffix that can still be undone is observable at
        # a minority of replicas only, so it can never win the vote.
        by_value: Dict[str, List[Tuple[str, ReadReply]]] = {}
        for pid, r in pending.replies.items():
            by_value.setdefault(repr(r.value), []).append((pid, r))
        for matching in by_value.values():
            if len(matching) >= pending.majority:
                matching.sort(key=lambda item: item[0])
                weight = tuple(pid for pid, _r in matching)
                weight = self._weights.setdefault(weight, weight)
                # Report the freshest matching observation's position.
                best = max(matching, key=lambda item: item[1].position)[1]
                self._adopt_read(pending, best, weight)
                return
        if len(pending.replies) >= len(pending.group):
            # Everyone answered and no value has a majority: the
            # replicas observed different prefixes.  They converge, so
            # re-poll after ``redirect_delay`` (same rid -- this is still
            # the same logical read) under a fresh round number.
            pending.round += 1
            pending.replies.clear()
            pending.retries += 1
            self.env.trace(
                "read_repoll", rid=reply.rid, attempt=pending.retries
            )
            self.env.set_timer(
                self.redirect_delay,
                lambda: self._repoll_read(reply.rid),
            )

    def _repoll_read(self, rid: str) -> None:
        pending = self._reads.get(rid)
        if pending is None:
            return
        self._send_read(rid, pending)

    def _adopt_read(
        self, pending: _PendingRead, reply: ReadReply, weight: Tuple[str, ...]
    ) -> None:
        rid = pending.rid
        del self._reads[rid]
        if pending.timer is not None:
            pending.timer.cancel()
        # A read that observed WrongShard syncs-and-retries like a write
        # (budget-exhausted, it surfaces the error as a terminal
        # adoption).  The one step that cannot be a ``then``: it runs
        # *before* ``read_adopt`` is traced, because the read checker
        # must never see a WrongShard observation.
        if self._wrong_shard_of(reply.value) is not None and self._schedule_redirect(
            rid, pending.op, pending.submit_time, pending.attempts, pending.then
        ):
            return  # retried under a fresh rid, not surfaced
        adopted = AdoptedReply(
            rid=rid,
            value=reply.value,
            position=reply.position,
            epoch=reply.epoch,
            weight=weight,
            conservative=pending.mode == "conservative",
            submit_time=pending.submit_time,
            adopt_time=self.env.now,
        )
        self.reads_adopted += 1
        self.env.trace(
            "read_adopt",
            rid=rid,
            op=pending.op,
            mode=pending.mode,
            value=reply.value,
            position=reply.position,
            settled=reply.settled,
            shard=pending.shard,
            latency=adopted.latency,
        )
        self._record_adoption(adopted, pending.then)

    # ------------------------------------------------------------------

    def _record_order_certificate(self, src: str, reply: Reply, rid: str) -> None:
        """Cross-check an optimistic reply's sequencer order certificate.

        The certificate claims "the epoch-``k`` sequencer assigned slot
        ``n`` to rid ``r``".  Slots are numbered by the sequencer itself
        (``SeqOrder.start`` + offset), so two replicas can never
        *honestly* report different slots for one rid, nor different
        rids for one slot, no matter what the links drop or reorder --
        a conflict is deterministic evidence of equivocation and raises
        the ``equivocation_alarm`` trace.
        """
        slot = reply.slot
        if slot is None or reply.conservative:
            return
        epoch = reply.epoch
        scope = (src.rpartition(".")[0], epoch)  # shard prefix; "" when unsharded
        by_slot, by_rid = self._certs.get(scope) or self._certs.setdefault(scope, ({}, {}))
        cert = (rid, slot, src)
        claimed = by_slot.setdefault(slot, cert)
        if claimed[0] != rid:
            self.equivocations_detected += 1
            self.env.trace(
                "equivocation_alarm",
                rid=rid,
                epoch=epoch,
                slot=slot,
                src=src,
                other_rid=claimed[0],
                other_src=claimed[2],
            )
        known = by_rid.setdefault(rid, cert)
        if known[1] != slot:
            self.equivocations_detected += 1
            self.env.trace(
                "equivocation_alarm",
                rid=rid,
                epoch=epoch,
                slot=slot,
                src=src,
                other_slot=known[1],
                other_src=known[2],
            )

    def _on_reply(self, src: str, reply: Reply) -> None:
        pending = self._pending.get(reply.rid)
        self._record_order_certificate(src, reply, reply.rid if pending is None else pending.rid)
        if pending is None:
            self.late_replies += 1
            return
        epoch_replies = pending.replies_by_epoch.setdefault(reply.epoch, {})
        previous = epoch_replies.get(src)
        if previous is None or len(reply.weight) > len(previous.weight):
            epoch_replies[src] = reply
        union = pending.weight_by_epoch.get(reply.epoch)
        if union is None:
            union = pending.weight_by_epoch[reply.epoch] = set()
        union |= reply.weight
        self._check_adoption(pending, reply.epoch)

    def _check_adoption(self, pending: _PendingRequest, epoch: int) -> None:
        """Fig. 5, lines 3-6: wait for majority weight, adopt heaviest.

        Only ``epoch`` (the one the just-arrived reply belongs to) can
        have crossed the threshold: any other epoch's union is unchanged
        since its own last check.
        """
        if len(pending.weight_by_epoch[epoch]) < pending.majority_weight:
            return
        replies = pending.replies_by_epoch[epoch]
        heaviest = max(replies.values(), key=lambda r: len(r.weight))
        self._adopt(pending, heaviest)

    def _adopt(self, pending: _PendingRequest, reply: Reply) -> None:
        rid = pending.rid
        # One tuple per distinct weight set, shared by every adoption
        # (and by reads that adopted the same set): interned inline.
        weight = self._weights.get(reply.weight)
        if weight is None:
            weight = tuple(sorted(reply.weight))
            weight = self._weights[reply.weight] = self._weights.setdefault(weight, weight)
        adopted = AdoptedReply(
            rid=rid,
            value=reply.value,
            position=reply.position,
            epoch=reply.epoch,
            weight=weight,
            conservative=reply.conservative,
            submit_time=pending.submit_time,
            adopt_time=self.env.now,
        )
        del self._pending[rid]
        self.env.trace(
            "adopt",
            rid=rid,
            value=reply.value,
            position=reply.position,
            epoch=reply.epoch,
            weight=adopted.weight,
            conservative=reply.conservative,
            latency=adopted.latency,
        )
        self._record_adoption(adopted, pending.then)

    def _on_shed(self, src: str, notice: ShedNotice) -> None:
        """Surface an admission refusal as a deterministic failed result.

        The shed op resolves through :meth:`_record_adoption` like any
        other outcome (so drivers see it via ``on_adopt`` and a
        transaction whose branch was shed sees a failed step), but it is
        traced as ``shed_adopt`` -- not ``adopt`` -- because no delivery
        position backs it: the external-consistency and total-order
        checkers must never see it.
        A notice for an already-resolved rid (e.g. a successor sequencer
        ordered the op after a failover and the real reply won the race)
        counts as late, exactly like a stale reply.
        """
        result = OpResult(
            ok=False,
            value=Overloaded(cls=notice.cls, queue=notice.queue, limit=notice.limit),
            error="overloaded",
        )
        pending: Any = self._pending.pop(notice.rid, None)
        if pending is None:
            pending = self._reads.pop(notice.rid, None)
            if pending is None:
                self.late_replies += 1
                return
            if pending.timer is not None:
                pending.timer.cancel()
        rid = pending.rid
        weight = self._weights.get(src)
        if weight is None:
            weight = self._weights[src] = self._weights.setdefault((src,), (src,))
        self.overloaded += 1
        self.shed_rids.add(rid)
        adopted = AdoptedReply(
            rid=rid,
            value=result,
            position=-1,
            epoch=-1,
            weight=weight,
            conservative=False,
            submit_time=pending.submit_time,
            adopt_time=self.env.now,
        )
        self.env.trace(
            "shed_adopt",
            rid=rid,
            cls=notice.cls,
            queue=notice.queue,
            limit=notice.limit,
            latency=adopted.latency,
        )
        self._record_adoption(adopted, pending.then)

    def _record_adoption(self, adopted: AdoptedReply, then: Optional[Then]) -> None:
        """Who gets this adoption: its continuation, else the driver."""
        if then is not None:
            then(adopted)
            return
        self.adopted[adopted.rid] = adopted
        if self.on_adopt is not None:
            self.on_adopt(adopted)

    @staticmethod
    def _unexpected_rdeliver(origin: str, payload: Any) -> None:
        raise RuntimeError(
            f"client R-delivered unexpected payload from {origin}: {payload!r}"
        )

    # ------------------------------------------------------------------
    # Cross-shard two-phase commit (client as coordinator)
    # ------------------------------------------------------------------

    def _begin_cross_shard(
        self, op: Tuple[Any, ...], shards: Tuple[int, ...],
        then: Optional[Then], submit_time: float, attempts: int,
    ) -> str:
        txid = f"{self.pid}-x{next(self._tx_counter)}"
        branches = None if self.tx_planner is None else self.tx_planner(op, txid)
        if branches is None:
            raise ValueError(
                f"operation {op!r} spans shards {shards} but has no "
                f"cross-shard decomposition (tx_branches returned None)"
            )
        per_shard: Dict[int, List[Tuple[Any, ...]]] = {}
        for key, branch_op in branches.items():
            per_shard.setdefault(self.router.shard_of(key), []).append(branch_op)
        tx = _CrossShardTx(txid, op, submit_time, then, attempts, tuple(sorted(per_shard)))
        self._txs[txid] = tx
        self.cross_shard_started += 1
        self.env.trace("tx_begin", txid=txid, op=op, shards=tx.shards)
        on_branch = partial(self._on_branch, tx)
        for shard in sorted(per_shard):
            for branch_op in per_shard[shard]:
                rid = self.submit_to_shard(branch_op, shard, on_branch)
                tx.prepare_rids[rid] = shard
                tx.inflight += 1
        return txid

    def _on_branch(self, tx: _CrossShardTx, adopted: AdoptedReply) -> None:
        tx.inflight -= 1
        self.env.trace(
            "tx_branch_adopt", txid=tx.txid, rid=adopted.rid, phase=tx.phase
        )
        if tx.phase == "prepare":
            tx.prepared[adopted.rid] = adopted
            if tx.all_prepared:
                self._decide(tx)
        else:
            tx.decided[adopted.rid] = adopted
            if len(tx.decided) == len(tx.decision_rids):
                self._finish_tx(tx)

    def _decide(self, tx: _CrossShardTx) -> None:
        commit = tx.prepare_ok
        tx.phase = "commit" if commit else "abort"
        # Commit goes to every participant; abort only to shards whose
        # prepare took a hold (a failed prepare left nothing to release).
        if commit:
            targets = set(tx.shards)
        else:
            targets = {
                tx.prepare_rids[rid]
                for rid, adopted in tx.prepared.items()
                if isinstance(adopted.value, OpResult) and adopted.value.ok
            }
        self.env.trace(
            "tx_decide",
            txid=tx.txid,
            outcome=tx.phase,
            shards=tuple(sorted(targets)),
        )
        decision_op = ("tx_commit" if commit else "tx_abort", tx.txid)
        on_branch = partial(self._on_branch, tx)
        for shard in sorted(targets):
            tx.decision_rids.add(self.submit_to_shard(decision_op, shard, on_branch))
            tx.inflight += 1
        if not targets:
            self._finish_tx(tx)

    def _finish_tx(self, tx: _CrossShardTx) -> None:
        del self._txs[tx.txid]
        committed = tx.phase == "commit"
        if committed:
            self.cross_shard_committed += 1
            value = OpResult(ok=True, value=("committed",) + tx.op)
        else:
            self.cross_shard_aborted += 1
            reasons = "; ".join(
                a.value.error
                for a in tx.prepared.values()
                if isinstance(a.value, OpResult) and not a.value.ok
            )
            value = OpResult(ok=False, error=f"tx aborted: {reasons}")
            # A prepare that failed with WrongShard means the routing
            # was stale: the abort above released every hold the stale
            # plan took, so the whole transaction can safely be retried
            # against the refreshed table (it may re-plan as a
            # different shard set, or even as a single-shard op).
            stale = any(
                self._wrong_shard_of(a.value) is not None
                for a in tx.prepared.values()
            )
            if stale and self._schedule_redirect(
                tx.txid, tx.op, tx.submit_time, tx.attempts, tx.then
            ):
                self.env.trace(
                    "tx_adopt",
                    txid=tx.txid,
                    outcome=tx.phase,
                    shards=tx.shards,
                    latency=self.env.now - tx.submit_time,
                )
                return  # retried; the aborted attempt is not surfaced
        branch_adoptions = list(tx.prepared.values()) + list(tx.decided.values())
        adopted = AdoptedReply(
            rid=tx.txid,
            value=value,
            position=-1,
            epoch=-1,
            weight=(),
            conservative=all(a.conservative for a in branch_adoptions),
            submit_time=tx.submit_time,
            adopt_time=self.env.now,
        )
        self.env.trace(
            "tx_adopt",
            txid=tx.txid,
            outcome=tx.phase,
            shards=tx.shards,
            latency=adopted.latency,
        )
        self._record_adoption(adopted, tx.then)

    # ------------------------------------------------------------------
    # Hot-key splitting (repro.statemachine.base.SplittableMachine)
    # ------------------------------------------------------------------

    def _submit_split(
        self, op: Tuple[Any, ...], keys: Tuple[Any, ...],
        then: Optional[Then], submit_time: float, attempts: int,
    ) -> Optional[str]:
        """Rewrite an op touching split keys; None when none are split."""
        splits = self.router.splits
        split_keys = [key for key in keys if key in splits]
        if not split_keys:
            return None
        sp = self.splitter
        if len(keys) == 1:
            key = keys[0]
            placements = self.router.fragments_of(key)
            kind = sp.split_kind(op)
            if kind == "read":
                return self._scatter_read(op, key, placements, then, submit_time)
            if kind in ("local", "budget"):
                frag = self._next_fragment(key, placements)
                frag_op = sp.fragment_op(op, key, frag)
                self.split_rewrites += 1
                self.env.trace(
                    "split_rewrite", op=op, frag=frag, rewrite=kind
                )
                if kind == "budget":
                    ctx = _BudgetWithdraw(
                        op, key, frag, frag_op,
                        tuple(f for f, _shard in placements), submit_time, then,
                    )
                    then = partial(self._on_budget, ctx)
                return self._route(frag_op, then, submit_time, attempts)
            return None  # not rewritable: WrongShard until unsplit
        # Multi-key op: substitute each split key with one of its
        # fragments and route the rewritten op normally (possibly as a
        # cross-shard transaction).  A budget-short fragment here just
        # fails the op, like any overdraft.
        new_op = op
        for key in split_keys:
            frag = self._next_fragment(key, self.router.fragments_of(key))
            new_op = sp.fragment_op(new_op, key, frag)
        self.split_rewrites += 1
        self.env.trace("split_rewrite", op=op, rewritten=new_op, rewrite="multi")
        return self._route(new_op, then, submit_time, attempts)

    def _next_fragment(self, key: Any, placements: Tuple[Tuple[Any, int], ...]) -> Any:
        """Round-robin fragment choice: spread commutative load evenly."""
        cursor = self._split_rr.get(key, 0)
        self._split_rr[key] = cursor + 1
        frag, _shard = placements[cursor % len(placements)]
        return frag

    def _scatter_read(
        self, op: Tuple[Any, ...], key: Any,
        placements: Tuple[Tuple[Any, int], ...], then: Optional[Then], submit_time: float,
    ) -> str:
        """Merge-on-read: one branch per fragment, combined on adoption."""
        sid = f"{self.pid}-sr{next(self._scatter_counter)}"
        order = tuple(frag for frag, _shard in placements)
        scatter = _ScatterRead(sid, op, key, order, submit_time, then)
        self.split_reads += 1
        self.env.trace("split_read", rid=sid, op=op, fragments=len(order))
        sp = self.splitter
        for frag in order:
            self._route(
                sp.fragment_op(op, key, frag),
                partial(self._on_scatter_part, scatter, frag), self.env.now, 0,
            )
        return sid

    def _on_scatter_part(self, scatter: _ScatterRead, frag: Any, adopted: AdoptedReply) -> None:
        value = adopted.value
        if isinstance(value, OpResult) and value.ok:
            scatter.by_frag[frag] = value.value
        elif scatter.error is None:
            scatter.error = (
                value.error if isinstance(value, OpResult) else repr(value)
            )
        scatter.got += 1
        scatter.conservative = scatter.conservative and adopted.conservative
        if scatter.got < len(scatter.order):
            return
        if scatter.error is None:
            values = tuple(scatter.by_frag[f] for f in scatter.order)
            result = OpResult(
                ok=True, value=self.splitter.merge_read(scatter.op, values)
            )
        else:
            result = OpResult(ok=False, error=f"split read: {scatter.error}")
        merged = AdoptedReply(
            rid=scatter.sid,
            value=result,
            position=-1,
            epoch=-1,
            weight=(),
            conservative=scatter.conservative,
            submit_time=scatter.submit_time,
            adopt_time=self.env.now,
        )
        self.env.trace(
            "split_read_adopt",
            rid=scatter.sid,
            op=scatter.op,
            value=result.value if result.ok else result.error,
            latency=merged.latency,
        )
        self._record_adoption(merged, scatter.then)

    def _on_budget(self, ctx: _BudgetWithdraw, adopted: AdoptedReply) -> None:
        """Borrow-and-retry on a fragment shortfall, else surface."""
        value = adopted.value
        if (
            isinstance(value, OpResult)
            and not value.ok
            and isinstance(value.value, tuple)
            and value.value
            and value.value[0] == "short"
        ):
            amount = ctx.op[-1]
            available = value.value[1]
            if isinstance(amount, int) and isinstance(available, int):
                ctx.shortfall = amount - available
                if self._try_borrow(ctx):
                    return
        self._record_adoption(adopted, ctx.then)

    def _try_borrow(self, ctx: _BudgetWithdraw) -> bool:
        donors = [f for f in ctx.frags if f != ctx.frag and f not in ctx.tried]
        if not donors or ctx.attempts >= len(ctx.frags) - 1:
            return False
        donor = donors[0]
        ctx.tried.add(donor)
        ctx.attempts += 1
        self.borrows += 1
        self.env.trace(
            "split_borrow",
            key=ctx.key,
            donor=donor,
            frag=ctx.frag,
            amount=ctx.shortfall,
            attempt=ctx.attempts,
        )
        # An ordinary totally-ordered transfer between fragments: the
        # routing layer turns it into a cross-shard 2PC when the donor
        # lives on another shard, so borrow atomicity is the transfer's.
        self._route(
            ("transfer", donor, ctx.frag, ctx.shortfall),
            partial(self._on_borrow, ctx), self.env.now, 0,
        )
        return True

    def _on_borrow(self, ctx: _BudgetWithdraw, adopted: AdoptedReply) -> None:
        value = adopted.value
        if isinstance(value, OpResult) and value.ok:
            # Funds arrived: retry the original op on the same fragment.
            # The ordered pipeline serializes the retry after the
            # transfer's credit, so the retry sees the borrowed funds.
            # Latency continuity: the whole borrow chain is one logical
            # operation, timed from its first submission.
            self._route(ctx.frag_op, partial(self._on_budget, ctx), ctx.submit_time, 0)
            return
        self.borrows_failed += 1
        if self._try_borrow(ctx):
            return  # rotate to the next donor
        # Every donor was short too: run the op once more so the
        # terminal overdraft surfaces through the normal adoption path.
        self._route(ctx.frag_op, ctx.then, ctx.submit_time, 0)

    # ------------------------------------------------------------------
    # WrongShard redirects (live rebalancing, repro.sharding.rebalance)
    # ------------------------------------------------------------------

    @staticmethod
    def _wrong_shard_of(value: Any) -> Optional[WrongShard]:
        """The WrongShard payload of a failed result, else None."""
        if (
            isinstance(value, OpResult)
            and not value.ok
            and isinstance(value.value, WrongShard)
        ):
            return value.value
        return None

    def _on_routed(
        self, op: Tuple[Any, ...], attempts: int, then: Optional[Then], adopted: AdoptedReply
    ) -> None:
        """A key-routed write's outcome: WrongShard is retried (never
        surfaced), anything else goes on to ``then``."""
        if self._wrong_shard_of(adopted.value) is None or not self._schedule_redirect(
            adopted.rid, op, adopted.submit_time, attempts, then
        ):
            self._record_adoption(adopted, then)

    def _schedule_redirect(
        self, old_id: str, op: Tuple[Any, ...],
        submit_time: float, attempts: int, then: Optional[Then],
    ) -> bool:
        """Sync-and-retry ``op`` after a WrongShard outcome on ``old_id``.

        Returns False (caller surfaces the error as a terminal adoption)
        when redirects are disabled or the retry budget for this logical
        operation is spent.  The retry happens ``redirect_delay`` later
        under a fresh request id that inherits the original submission
        time (client-perceived latency spans the whole redirect chain),
        the continuation ``then`` and ``attempts + 1``.
        """
        if self.route_authority is None or attempts >= MAX_REDIRECTS:
            if self.route_authority is not None:
                self.redirects_exhausted += 1
                self.env.trace(
                    "redirect_exhausted", rid=old_id, op=op, attempts=attempts
                )
            return False
        self.redirects += 1
        self.env.trace(
            "redirect",
            rid=old_id,
            op=op,
            attempt=attempts + 1,
            table_epoch=self.route_authority.epoch,
        )
        # Sync immediately, not just at retry time: a WrongShard reply is
        # proof the local table is stale, and every operation submitted
        # between now and the (delayed) retry would otherwise chase the
        # same wrong shard and pile onto its queue.  The retry syncs
        # again in case the authority moved during the pause.
        self.router.sync_from(self.route_authority)
        self._redirect_pending += 1

        def retry() -> None:
            self._redirect_pending -= 1
            self.router.sync_from(self.route_authority)
            self._route(op, then, submit_time, attempts + 1)
            # _route() counted the op's keys into key_load again, but a
            # retry is not new demand: left in, a key under migration
            # (the one case that redirects) would look ever hotter to
            # the rebalance planner and invite move oscillation.
            for key in self.key_extractor(op):
                self.key_load.unrecord(key)

        self.env.set_timer(self.redirect_delay, retry)
        return True



# ``benchmarks/e2e/layers.py`` imports the client, and wraps its
# ``submit``, under the name below; the benchmark stays unchanged so that
# its runs compare across versions, so the name stays as an alias.
ShardedOARClient = OARClient
