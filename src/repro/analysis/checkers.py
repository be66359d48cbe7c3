"""Machine-checkable forms of the paper's correctness properties.

Every checker takes the run's :class:`~repro.sim.trace.TraceLog` (plus
whatever protocol objects it needs) and raises :class:`CheckFailure` with
a precise description on violation.  Checkers are pure functions of the
trace so they work identically for simulator and asyncio runs.  The
per-group ones also take a :class:`DeliveryIndex`, the one-pass digest
of a group's history that :func:`check_single_shard_properties` builds
once and shares, which keeps the whole bundle linear in the trace.

Mapping to the paper:

=============================  =============================================
Paper statement                Checker
=============================  =============================================
Cnsv-order spec (Section 5.4)  :func:`check_cnsv_order_properties`
Majority guarantee (Sec. 4)    :func:`check_majority_guarantee`
Prop. 2/3 (at most once)       :func:`check_at_most_once`
Prop. 4 (at least once)        :func:`check_at_least_once`
Prop. 5 (total order)          :func:`check_total_order`,
                               :func:`check_replica_convergence`
Prop. 7 (external consistency) :func:`check_external_consistency`
Fig. 1(b) anomaly (baseline)   :func:`count_baseline_inconsistencies`
=============================  =============================================
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.sequences import MessageSequence, as_sequence, common_prefix
from repro.sim.trace import TraceEvent, TraceLog
from repro.statemachine.base import SplittableMachine


class CheckFailure(AssertionError):
    """A correctness property of the paper was violated by the run."""


#: Sentinel: a delivery event whose execution result is unknown (the op
#: was delivered but its lane never completed before the run was cut
#: off); such events are exempt from value comparisons.
_MISSING = object()


# ----------------------------------------------------------------------
# Trace reconstruction helpers
# ----------------------------------------------------------------------

class DeliveryIndex:
    """One group's delivery and ordering history, indexed for the bundle.

    Built when a checker runs -- nothing is added to the recording path
    -- in one pass over the delivery events and one over the (few)
    consensus events, then shared by every single-group checker: the
    bundle replays each server's history once and never rescans the
    trace per epoch.  ``server_pids`` scopes the server-emitted events
    to one group of a sharded run (all groups share one trace);
    ``adopt`` events are kept whole, since a client talks to every group
    and a rid it adopted elsewhere simply finds no delivery here
    (:meth:`per_group`, which indexes every group of a run at once, can
    tell and leaves those out).

    The replay enforces the paper's footnote 2 reverse-order discipline:
    ``opt_undeliver`` must remove the *last* delivered element.
    """

    #: The scans an index is built from: the server-emitted kinds, each
    #: tuple read in log order (only the three delivery kinds need their
    #: order relative to one another).
    _SCANS: Tuple[Tuple[str, ...], ...] = (
        ("crash",),
        ("opt_deliver", "a_deliver", "opt_undeliver"),
        ("exec_done",),
        ("cnsv_propose",),
        ("cnsv_order",),
    )

    def __init__(
        self, trace: TraceLog, server_pids: Optional[Iterable[str]] = None
    ) -> None:
        wanted = None if server_pids is None else frozenset(server_pids)

        def scoped(kinds: Tuple[str, ...]) -> List[TraceEvent]:
            events = trace.events_of_kinds(kinds)
            if wanted is None:
                return events
            return [event for event in events if event.pid in wanted]

        self._build(
            trace, [scoped(kinds) for kinds in self._SCANS], trace.events(kind="adopt")
        )

    @classmethod
    def per_group(
        cls, trace: TraceLog, groups: Sequence[Iterable[str]]
    ) -> Iterator["DeliveryIndex"]:
        """The index of each group of a sharded run, in order, from one
        pass over the trace.

        Each scan is read once and dealt out by the emitting pid's group,
        where ``DeliveryIndex(trace, group)`` per group reads every
        group's events once per group.  An ``adopt`` event goes to the
        groups that delivered its rid -- the only ones in which
        :func:`check_external_consistency` finds anything to compare it
        with.  A group's events are replayed when its index is asked
        for, so a history that does not replay fails where it would have.
        """
        group_of = {pid: i for i, group in enumerate(groups) for pid in group}
        dealt: List[List[List[TraceEvent]]] = [
            [[] for _ in cls._SCANS] for _ in groups
        ]
        delivered_in: Dict[str, Set[int]] = defaultdict(set)
        for scan, kinds in enumerate(cls._SCANS):
            deliveries = "opt_deliver" in kinds
            for event in trace.events_of_kinds(kinds):
                group = group_of.get(event.pid)
                if group is not None:
                    dealt[group][scan].append(event)
                    if deliveries:
                        delivered_in[event.fields["rid"]].add(group)
        adoptions: List[List[TraceEvent]] = [[] for _ in groups]
        for event in trace.events(kind="adopt"):
            for group in delivered_in.get(event.fields["rid"], ()):
                adoptions[group].append(event)
        for scans, adopted in zip(dealt, adoptions):
            index = cls.__new__(cls)
            index._build(trace, scans, adopted)
            yield index

    def _build(
        self,
        trace: TraceLog,
        scans: Sequence[List[TraceEvent]],
        adoptions: List[TraceEvent],
    ) -> None:
        """Index one group's events, handed over scan by scan (``_SCANS``)."""
        self.trace = trace
        self.adoptions = adoptions
        crashes, deliveries, executions, proposals, results = scans
        self.crashed: Set[str] = {event.pid for event in crashes}

        #: pid -> final delivered sequence (the server's ``current_order``).
        self.final_orders: Dict[str, List[str]] = {}
        #: epoch -> pid -> {rid: rank}, in that epoch's Opt-delivery order.
        self.opt_orders: Dict[int, Dict[str, Dict[str, int]]] = {}
        #: rid -> its delivery events, at any pid.
        self.opt_delivers: Dict[str, List[TraceEvent]] = defaultdict(list)
        self.a_delivers: Dict[str, List[TraceEvent]] = defaultdict(list)
        #: (pid, rid, epoch) of every Opt-undelivery.
        self.undone: Set[Tuple[str, str, int]] = set()
        for event in deliveries:
            pid = event.pid
            kind = event.kind
            rid = event.fields["rid"]
            delivered = self.final_orders.setdefault(pid, [])
            if kind == "opt_undeliver":
                if not delivered or delivered[-1] != rid:
                    raise CheckFailure(
                        f"{pid}: opt_undeliver({rid}) does not undo the "
                        f"last delivery (tail={delivered[-3:]})"
                    )
                delivered.pop()
                self.undone.add((pid, rid, event.fields["epoch"]))
                continue
            delivered.append(rid)
            if kind == "a_deliver":
                self.a_delivers[rid].append(event)
            else:
                self.opt_delivers[rid].append(event)
                ranks = self.opt_orders.setdefault(
                    event.fields["epoch"], {}
                ).setdefault(pid, {})
                ranks.setdefault(rid, len(ranks))
        #: Lane-interleaved traces (OARConfig.exec_cost > 0) split a delivery
        #: into the delivery event (order and position, no value) and an
        #: ``exec_done`` carrying the result, keyed here by
        #: (pid, rid, epoch, conservative) to join the values back.
        self.exec_values: Dict[Tuple[str, str, int, bool], Any] = {}
        for event in executions:
            fields = event.fields
            key = (event.pid, fields["rid"], fields["epoch"], fields["conservative"])
            self.exec_values[key] = fields["value"]
        #: pid -> {rid: position in its final sequence}.
        self.final_positions: Dict[str, Dict[str, int]] = {
            pid: {rid: position for position, rid in enumerate(delivered)}
            for pid, delivered in self.final_orders.items()
        }

        #: epoch -> pid -> (O_delivered, O_notdelivered) as proposed.
        self.proposals: Dict[
            int, Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]
        ] = defaultdict(dict)
        for event in proposals:
            self.proposals[event["epoch"]][event.pid] = (
                tuple(event["o_delivered"]),
                tuple(event["o_notdelivered"]),
            )
        #: epoch -> rid -> number of processes whose proposal held it
        #: (the key set is the union of everything proposed).
        self.proposed: Dict[int, Counter] = defaultdict(Counter)
        for epoch, per_pid in self.proposals.items():
            for dlv, notdlv in per_pid.values():
                self.proposed[epoch].update(set(dlv).union(notdlv))
        #: epoch -> pid -> its ``cnsv_order`` result event.
        self.results: Dict[int, Dict[str, TraceEvent]] = defaultdict(dict)
        for event in results:
            self.results[event["epoch"]][event.pid] = event

    @classmethod
    def of(cls, history: "History") -> "DeliveryIndex":
        """``history`` itself if already indexed, else the whole trace's index."""
        return history if isinstance(history, cls) else cls(history)


#: What a single-group checker accepts: a trace (indexed on the spot,
#: unscoped) or the index :func:`check_single_shard_properties` shares.
History = Union[TraceLog, DeliveryIndex]


def reconstruct_delivered(trace: TraceLog, pid: str) -> List[str]:
    """Replay a server's delivery events into its final delivered sequence.

    ``opt_deliver`` appends, ``opt_undeliver`` must remove the *last*
    element, ``a_deliver`` appends.  The result must equal the server's
    ``current_order``; :func:`check_at_most_once` verifies both.
    """
    return DeliveryIndex(trace, [pid]).final_orders.get(pid, [])


def settled_epochs(trace: TraceLog, pid: str) -> Set[int]:
    """Epochs whose phase 2 completed at ``pid`` (epoch e+1 started)."""
    started = {event["epoch"] for event in trace.events(kind="epoch_start", pid=pid)}
    return {epoch - 1 for epoch in started if epoch >= 1}


# ----------------------------------------------------------------------
# Cnsv-order specification (Section 5.4)
# ----------------------------------------------------------------------

def check_cnsv_order_properties(history: History, group_size: int) -> int:
    """Validate every Cnsv-order invocation in the trace.

    Returns the number of epochs checked.  Checks Agreement, Unicity,
    Non-triviality, Validity, Undo legality, Undo consistency and Undo
    thriftiness; Termination is implied by the run reaching quiescence
    with matching propose/result pairs (also asserted).
    """
    index = DeliveryIndex.of(history)
    majority = group_size // 2 + 1

    for epoch, per_pid in sorted(index.results.items()):
        proposed = index.proposed[epoch]
        opt_orders = index.opt_orders.get(epoch, {})
        finals: Dict[str, MessageSequence] = {}
        for pid, event in per_pid.items():
            o_dlv = as_sequence(event["o_delivered"])
            bad = as_sequence(event["bad"])
            new = as_sequence(event["new"])
            good = o_dlv.subtract(bad)
            finals[pid] = good.concat(new)

            # Unicity: New ∩ (O_delivered ⊖ Bad) = ∅.
            if new.to_set() & good.to_set():
                raise CheckFailure(
                    f"unicity violated at {pid} epoch {epoch}: "
                    f"New={new!r} overlaps Good={good!r}"
                )
            # Undo legality: Bad is the suffix of O_delivered.
            if good.concat(bad) != o_dlv:
                raise CheckFailure(
                    f"undo legality violated at {pid} epoch {epoch}: "
                    f"(O⊖Bad)⊕Bad = {good.concat(bad)!r} != O = {o_dlv!r}"
                )
            # Undo thriftiness: ⊓(Bad, New) = ε.
            if common_prefix(bad, new):
                raise CheckFailure(
                    f"undo thriftiness violated at {pid} epoch {epoch}: "
                    f"Bad={bad!r} New={new!r}"
                )
            # Validity: every New message was proposed by someone.
            leftovers = new.to_set() - proposed.keys()
            if leftovers:
                raise CheckFailure(
                    f"validity violated at {pid} epoch {epoch}: "
                    f"New contains unproposed {sorted(leftovers)}"
                )
            # Undo consistency: an undone message was Opt-delivered by at
            # most a minority (counted over *all* processes, including
            # crashed ones, via their opt_deliver events).
            for rid in event["bad"]:
                holders = sum(rid in ranks for ranks in opt_orders.values())
                if holders >= majority:
                    raise CheckFailure(
                        f"undo consistency violated at {pid} epoch {epoch}: "
                        f"{rid} undone but Opt-delivered by {holders} processes"
                    )

        # Agreement: identical final sequences across completing processes.
        distinct = {seq.items for seq in finals.values()}
        if len(distinct) > 1:
            raise CheckFailure(
                f"agreement violated in epoch {epoch}: {finals!r}"
            )

        # Non-triviality: anything held by a majority is delivered.
        final_set = next(iter(finals.values())).to_set() if finals else set()
        for rid, holders in proposed.items():
            if holders >= majority and rid not in final_set:
                raise CheckFailure(
                    f"non-triviality violated in epoch {epoch}: {rid} held "
                    f"by {holders} >= {majority} processes but not delivered"
                )

        # Termination (finite-run form): every correct proposer got a result.
        for pid in index.proposals[epoch]:
            if pid not in per_pid and pid not in index.crashed:
                raise CheckFailure(
                    f"termination violated in epoch {epoch}: {pid} proposed "
                    f"but never received a Cnsv-order result"
                )

    return len(index.results)


# ----------------------------------------------------------------------
# Majority guarantee (Section 4)
# ----------------------------------------------------------------------

def majority_inversions(
    index: DeliveryIndex, majority: int
) -> Iterator[Tuple[int, str, str, str, List[str]]]:
    """Every ``(epoch, pid, m1, m2, holders)`` breaking the majority guarantee.

    ``holders`` (at least ``majority`` of them) Opt-delivered ``m1``
    before ``m2`` in ``epoch``, yet ``pid`` finally delivered ``m2``
    first.  Per epoch and final order, each replica's Opt-delivery order
    is mapped onto the final positions (rids the final order lacks are
    skipped); the pair above is exactly an *inversion* of a holder's
    mapped order, whichever way the two rids sort.  A pair inverted in
    ``majority`` mapped orders needs ``majority`` orders that descend
    somewhere, and a correct run never has them: within an epoch every
    replica Opt-delivers a prefix of the one sequencer's order, so the
    pair witnessed by the shortest descending order would be inverted in
    all of them -- a real violation, which undo consistency excludes.
    So a correct run costs O(Opt-deliveries x replicas) dict lookups;
    only a history that fails the witness test has its inverted pairs
    enumerated and counted per pair.
    """
    for epoch, orders in sorted(index.opt_orders.items()):
        for pid, final in index.final_positions.items():
            suspects = []
            for holder, ranks in orders.items():
                mapped = [final[rid] for rid in ranks if rid in final]
                if mapped != sorted(mapped):
                    suspects.append((holder, mapped))
            if len(suspects) < majority:
                continue
            inverted: Dict[Tuple[str, str], List[str]] = defaultdict(list)
            for holder, mapped in suspects:
                rids = [rid for rid in orders[holder] if rid in final]
                for later in range(1, len(mapped)):
                    for earlier in range(later):
                        if mapped[earlier] > mapped[later]:
                            inverted[rids[earlier], rids[later]].append(holder)
            for (m1, m2), holders in sorted(inverted.items()):
                if len(holders) >= majority:
                    yield epoch, pid, m1, m2, holders


def check_majority_guarantee(history: History, group_size: int) -> int:
    """If a majority Opt-delivered m1 before m2, nobody delivers m2 first.

    Checked per epoch against every server's *final* delivered sequence
    (see :func:`majority_inversions`); the failure quotes where each
    holder and the violating server put the two messages.  Returns the
    number of epochs checked.
    """
    index = DeliveryIndex.of(history)
    for epoch, pid, m1, m2, holders in majority_inversions(
        index, group_size // 2 + 1
    ):
        orders = index.opt_orders[epoch]
        final = index.final_positions[pid]
        opt_slice = "; ".join(
            f"{holder} {m1}@{orders[holder][m1]} {m2}@{orders[holder][m2]}"
            for holder in holders
        )
        raise CheckFailure(
            f"majority guarantee violated: majority Opt-delivered {m1} "
            f"before {m2} in epoch {epoch}, but {pid} delivered {m2} first "
            f"(epoch {epoch} Opt-delivery ranks: {opt_slice}; final "
            f"positions at {pid}: {m2}@{final[m2]} {m1}@{final[m1]})"
        )
    return len(index.opt_orders)


# ----------------------------------------------------------------------
# Propositions 2/3/4: at-most-once, at-least-once
# ----------------------------------------------------------------------

def check_at_most_once(history: History, servers: Iterable[Any]) -> None:
    """No request is (finally) delivered twice; traces match server state."""
    index = DeliveryIndex.of(history)
    for server in servers:
        delivered = index.final_orders.get(server.pid, [])
        if len(delivered) != len(index.final_positions.get(server.pid, ())):
            duplicates = [
                rid for rid, times in Counter(delivered).items() if times > 1
            ]
            raise CheckFailure(
                f"{server.pid}: duplicate deliveries of {duplicates}"
            )
        state_order = _server_order(server)
        if tuple(delivered) != state_order:
            raise CheckFailure(
                f"{server.pid}: trace-reconstructed order {delivered} "
                f"differs from server state {state_order}"
            )


def check_at_least_once(
    history: History,
    correct_servers: Iterable[Any],
    submitted_rids: Iterable[str],
) -> None:
    """Every submitted request is delivered at every correct server.

    Valid only for quiescent runs (the property is an "eventually").
    """
    index = DeliveryIndex.of(history)
    expected = set(submitted_rids)
    for server in correct_servers:
        missing = expected - index.final_positions.get(server.pid, {}).keys()
        if missing:
            raise CheckFailure(
                f"{server.pid}: requests never delivered: {sorted(missing)}"
            )


# ----------------------------------------------------------------------
# Proposition 5: total order / replica convergence
# ----------------------------------------------------------------------

def _server_order(server: Any) -> Tuple[str, ...]:
    """A server's full delivery order, protocol-agnostic."""
    # One read: OARServer.current_order is a property that concatenates.
    current = getattr(server, "current_order", None)
    if current is not None:
        return tuple(current.items)
    return tuple(server.delivered_order)


def check_total_order(servers: Sequence[Any]) -> None:
    """Correct servers' delivery orders are prefix-related (equal at quiescence)."""
    alive = [s for s in servers if not s.crashed]
    orders = {s.pid: _server_order(s) for s in alive}
    pids = sorted(orders)
    for i, p in enumerate(pids):
        for q in pids[i + 1:]:
            a, b = orders[p], orders[q]
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if longer[: len(shorter)] != shorter:
                raise CheckFailure(
                    f"total order violated between {p} and {q}: "
                    f"{a} vs {b}"
                )


def check_replica_convergence(servers: Sequence[Any]) -> None:
    """Correct servers with equal delivery orders have identical state.

    Servers with a non-empty execution backlog are skipped: with the
    parallel execution engine (``OARConfig.exec_cost > 0``) delivery and
    execution are separate instants, so a run cut off mid-flight can
    leave a replica's delivery order complete but its state mutations
    still queued in lanes -- lagging, not diverged.  Quiescent runs
    (``all_done``) have drained every live replica's lanes, so there the
    check is exactly as strong as before.
    """
    alive = [
        s
        for s in servers
        if not s.crashed and not getattr(s, "exec_backlog", 0)
    ]
    by_order: Dict[Tuple[str, ...], List[Any]] = defaultdict(list)
    for server in alive:
        by_order[_server_order(server)].append(server)
    for order, group in by_order.items():
        fingerprints = {repr(s.machine.fingerprint()) for s in group}
        if len(fingerprints) > 1:
            raise CheckFailure(
                f"replicas with identical order {order} diverge in state: "
                f"{[(s.pid, s.machine.fingerprint()) for s in group]}"
            )


# ----------------------------------------------------------------------
# Proposition 7: external consistency
# ----------------------------------------------------------------------

def check_external_consistency(
    history: History,
    strict: bool = True,
) -> int:
    """Every adopted reply agrees with what the servers (finally) delivered.

    For each client ``adopt`` event, every ``a_deliver`` of the same
    request anywhere must carry the same position and value, and every
    ``opt_deliver`` that is never undone in its epoch must too.

    ``strict=False`` tolerates mismatching *optimistic* deliveries in
    epochs that had not settled at that server by the end of the run (the
    undo that Proposition 7 promises simply had not happened yet); the
    relaxed mode is for runs cut off mid-recovery.  Returns the number of
    adoptions checked.
    """
    index = DeliveryIndex.of(history)
    # Proposition 7 quantifies over *correct* processes: a crashed
    # process may well have Opt-delivered in a doomed order and died
    # before the undo -- that is exactly the Figure 4 sequencer.
    crashed = index.crashed
    a_delivers = index.a_delivers
    opt_delivers = index.opt_delivers
    undone = index.undone
    exec_values = index.exec_values
    settled_cache: Dict[str, Set[int]] = {}

    def delivered_value(event: TraceEvent, conservative: bool) -> Any:
        # Lane-interleaved traces carry the result on ``exec_done``.  A
        # delivery with no execution (cut off mid-flight, or its undo
        # raced the run end) keeps _MISSING and is exempt from the value
        # comparison -- its position claim is still checked.
        fields = event.fields
        value = fields.get("value", _MISSING)
        if value is _MISSING:
            value = exec_values.get(
                (event.pid, fields["rid"], fields["epoch"], conservative), _MISSING
            )
        return value

    for adoption in index.adoptions:
        rid = adoption["rid"]
        position = adoption["position"]
        adopted = adoption["value"]
        for event in a_delivers.get(rid, ()):
            if event.pid in crashed:
                continue
            value = delivered_value(event, True)
            if event["position"] != position or (
                value is not _MISSING and value != adopted
            ):
                raise CheckFailure(
                    f"external consistency violated: client adopted "
                    f"{rid} at position {position} (value {adopted!r}) but "
                    f"{event.pid} A-delivered it at {event['position']} "
                    f"(value {value!r})"
                )
        for event in opt_delivers.get(rid, ()):
            if event.pid in crashed or (event.pid, rid, event["epoch"]) in undone:
                continue
            value = delivered_value(event, False)
            if event["position"] == position and (
                value is _MISSING or value == adopted
            ):
                continue
            if not strict:
                settled = settled_cache.setdefault(
                    event.pid, settled_epochs(index.trace, event.pid)
                )
                if event["epoch"] not in settled:
                    continue  # recovery was still pending at run end
            raise CheckFailure(
                f"external consistency violated: client adopted {rid} at "
                f"position {position} (value {adopted!r}) but {event.pid} "
                f"Opt-delivered it at {event['position']} (value {value!r}) "
                f"in epoch {event['epoch']} without undoing it"
            )
    return len(index.adoptions)


# ----------------------------------------------------------------------
# The single-group bundle
# ----------------------------------------------------------------------

def check_single_shard_properties(
    history: History,
    servers: Sequence[Any],
    submitted_rids: Iterable[str],
    strict: bool = True,
    at_least_once: bool = True,
) -> None:
    """The full OAR property bundle for one replica group.

    The one list of paper properties both ``check_all`` bundles run: an
    unsharded run is its single group, a sharded run calls this once per
    shard.  The group's history is indexed once (:class:`DeliveryIndex`,
    scoped to ``servers``) and shared by every trace-based member; a
    sharded run hands in the group's index, cut from one pass over all
    of them (:meth:`DeliveryIndex.per_group`).
    ``submitted_rids`` must contain only requests routed to this group
    (single-shard operations and transaction branches alike).
    """
    if isinstance(history, DeliveryIndex):
        index = history
    else:
        index = DeliveryIndex(history, [server.pid for server in servers])
    group_size = len(servers)
    check_cnsv_order_properties(index, group_size)
    check_majority_guarantee(index, group_size)
    check_at_most_once(index, servers)
    check_total_order(servers)
    check_replica_convergence(servers)
    check_external_consistency(index, strict=strict)
    if at_least_once:
        correct = [server for server in servers if not server.crashed]
        check_at_least_once(index, correct, submitted_rids)


# ----------------------------------------------------------------------
# Sharded deployments (repro.sharding)
# ----------------------------------------------------------------------

def check_cross_shard_atomicity(
    trace: TraceLog,
    shard_servers: Sequence[Sequence[Any]],
    expected_total: Optional[int] = None,
    quiescent: bool = True,
) -> int:
    """Client-coordinated cross-shard transactions are atomic.

    Always: decision branches for one transaction are homogeneous (all
    ``tx_commit`` or all ``tx_abort``) and match the reported outcome.
    With ``quiescent=True`` additionally: every begun transaction reached
    a decision and completed; no correct server retains an escrow hold;
    and, when ``expected_total`` is given (transfer-only workloads),
    account balances plus escrow sum to it across shards -- no money is
    created or destroyed by a transfer that commits on one shard and
    aborts on the other.  Pass ``quiescent=False`` for runs cut off with
    transactions still in flight (an undecided transaction is incomplete,
    not non-atomic).  Returns the number of transactions examined.
    """
    begun = {event["txid"]: event for event in trace.events(kind="tx_begin")}
    decisions: Dict[str, List[TraceEvent]] = defaultdict(list)
    for event in trace.events(kind="tx_decide"):
        decisions[event["txid"]].append(event)
    finished = {event["txid"]: event for event in trace.events(kind="tx_adopt")}

    for txid, begin in begun.items():
        if txid not in decisions:
            if quiescent:
                raise CheckFailure(
                    f"cross-shard atomicity: {txid} (op {begin['op']!r}) "
                    f"began but never reached a commit/abort decision"
                )
            continue
        outcomes = {event["outcome"] for event in decisions[txid]}
        if len(outcomes) > 1:
            raise CheckFailure(
                f"cross-shard atomicity: {txid} has mixed decisions {outcomes}"
            )
        if txid not in finished:
            if quiescent:
                raise CheckFailure(
                    f"cross-shard atomicity: {txid} decided "
                    f"{next(iter(outcomes))} but its decision branches never "
                    f"all completed"
                )
            continue
        if finished[txid]["outcome"] not in outcomes:
            raise CheckFailure(
                f"cross-shard atomicity: {txid} finished as "
                f"{finished[txid]['outcome']} but decided {outcomes}"
            )
    for txid in decisions:
        if txid not in begun:
            raise CheckFailure(
                f"cross-shard atomicity: decision for unknown tx {txid}"
            )

    if not quiescent:
        return len(begun)

    observed_total = 0
    have_bank_state = False
    for shard_index, servers in enumerate(shard_servers):
        correct = [server for server in servers if not server.crashed]
        for server in correct:
            machine = server.machine
            if not hasattr(machine, "pending_holds"):
                continue
            have_bank_state = True
            leftovers = machine.pending_holds()
            if leftovers:
                raise CheckFailure(
                    f"cross-shard atomicity: {server.pid} (shard "
                    f"{shard_index}) retains escrow holds at quiescence: "
                    f"{sorted(leftovers)}"
                )
        if correct and hasattr(correct[0].machine, "conserved_total"):
            observed_total += correct[0].machine.conserved_total()

    if expected_total is not None and have_bank_state:
        if observed_total != expected_total:
            raise CheckFailure(
                f"cross-shard conservation violated: balances + escrow sum "
                f"to {observed_total}, expected {expected_total}"
            )
    return len(begun)


def check_migration_atomicity(
    trace: TraceLog,
    shard_servers: Sequence[Sequence[Any]],
    routing_table: Any,
    key_universe: Sequence[Any],
    expected_total: Optional[int] = None,
    quiescent: bool = True,
) -> int:
    """Live key migrations (``repro.sharding.rebalance``) are atomic.

    Safety (always checked):

    * **single owner** -- no key is owned by two shards' correct
      replicas, and the replicas of one shard agree on their ownership
      books;
    * **no key lost** -- a key owned by no shard must be parked in
      exactly one source shard's outbound migration escrow (the
      in-flight window, or a coordinator crash awaiting recovery);
    * **lifecycle order** -- a migration is installed only after it
      prepared, and committed (epoch bump) only after it installed;
    * **single install** -- each migration id is installed on at most
      one shard (no double execution of a move);
    * **conservation** (bank, when ``expected_total`` given) -- account
      balances + transfer escrow + migration escrow sum to the money
      supply, compensating for the brief install-to-forget window where
      an exported balance is counted on both shards.

    Additionally at quiescence: every begun migration reached ``done``
    or ``aborted``, no key is still in flight, no outbound escrow entry
    survives its forget, and the authoritative routing table points
    every key at the shard that actually owns it.  Pass
    ``quiescent=False`` for runs cut off mid-migration (or frozen by a
    coordinator crash before recovery): an in-flight migration is
    incomplete, not non-atomic.  Keys split into fragments
    (``routing_table.splits``) delegate every per-key obligation to
    their fragments; see :func:`check_fragment_conservation` for the
    value-conservation side of splitting.  Returns the number of
    distinct migrations begun.
    """
    begun = {event["mid"]: event for event in trace.events(kind="mig_begin")}
    prepared = {event["mid"] for event in trace.events(kind="mig_prepared")}
    installed = {event["mid"] for event in trace.events(kind="mig_installed")}
    committed = {event["mid"] for event in trace.events(kind="mig_commit")}
    finished = {event["mid"] for event in trace.events(kind="mig_done")}
    aborted = {event["mid"] for event in trace.events(kind="mig_abort")}

    for mid in installed - prepared:
        raise CheckFailure(
            f"migration atomicity: {mid} installed without a prepare"
        )
    for mid in committed - installed:
        raise CheckFailure(
            f"migration atomicity: {mid} bumped the routing epoch before "
            f"its install was adopted"
        )
    if quiescent:
        unfinished = set(begun) - finished - aborted
        if unfinished:
            raise CheckFailure(
                f"migration atomicity: migrations never completed: "
                f"{sorted(unfinished)}"
            )

    # -- replicated ownership books ------------------------------------
    owner_books: Dict[int, Any] = {}  # shard -> agreed owned-key set
    outbound_by_shard: Dict[int, Dict[str, Any]] = {}
    installed_by_shard: Dict[int, Dict[str, Any]] = {}
    unknown_shards: Set[int] = set()  # fully crashed: ownership unknowable
    for shard, servers in enumerate(shard_servers):
        correct = [server for server in servers if not server.crashed]
        if not correct:
            unknown_shards.add(shard)
            continue  # a fully-crashed shard has no authoritative state
        machines = [server.machine for server in correct]
        if not hasattr(machines[0], "owned_keys"):
            return len(begun)  # keyless machines: no ownership model
        books = {server.pid: server.machine.owned_keys() for server in correct}
        distinct = set(books.values())
        if len(distinct) > 1:
            raise CheckFailure(
                f"migration atomicity: shard {shard} replicas disagree on "
                f"ownership: {books!r}"
            )
        agreed = distinct.pop()
        if agreed is None:
            return len(begun)  # unsharded machines own everything
        owner_books[shard] = agreed
        outbound_by_shard[shard] = machines[0].outbound_migrations()
        installed_by_shard[shard] = machines[0].installed_migrations()

    # Single install: each migration id landed on at most one shard.
    seen_installs: Dict[str, int] = {}
    for shard, installs in installed_by_shard.items():
        for mid in installs:
            if mid in seen_installs:
                raise CheckFailure(
                    f"migration atomicity: {mid} installed on shards "
                    f"{seen_installs[mid]} and {shard}"
                )
            seen_installs[mid] = shard

    in_flight_keys = {
        key
        for outbound in outbound_by_shard.values()
        for key, _dst, _state in outbound.values()
    }

    # Hot-key splits (repro.statemachine.base.SplittableMachine): once a
    # split commits, the logical key is legitimately owned by no shard --
    # the single-owner / no-key-lost obligations transfer to each of its
    # fragments.  Two transient windows look like a missing key and must
    # not be declared "state lost": mid-split (split_open adopted, the
    # authority's epoch not yet bumped -- the fragments already exist in
    # owner books and escrow under fragment names) and mid-merge
    # (split_close adopted, split not yet dropped -- the merged key is
    # owned again while the table still says "split").
    splits = dict(getattr(routing_table, "splits", None) or {})
    owned_anywhere: Set[Any] = set()
    for owned in owner_books.values():
        owned_anywhere |= set(owned)

    def fragments_alive(key: Any) -> bool:
        prefix = f"{key}{SplittableMachine.SPLIT_SEP}"
        for candidate in owned_anywhere | in_flight_keys:
            text = str(candidate)
            if text.startswith(prefix) and text[len(prefix):].isdigit():
                return True
        return False

    checked: List[Tuple[Any, bool]] = []  # (key, is_fragment)
    for key in key_universe:
        placements = splits.get(key)
        if placements is None:
            checked.append((key, False))
            continue
        if key in owned_anywhere:
            if quiescent:
                raise CheckFailure(
                    f"migration atomicity: {key!r} is split per the routing "
                    f"table but a shard owns the merged key at quiescence"
                )
            continue  # mid-merge window: fragments already consumed
        checked.extend((frag, True) for frag, _dst in placements)

    for key, is_fragment in checked:
        owners = [shard for shard, owned in owner_books.items() if key in owned]
        if len(owners) > 1:
            raise CheckFailure(
                f"migration atomicity: {key!r} owned by multiple shards "
                f"{owners}"
            )
        if not owners:
            if key not in in_flight_keys:
                if not is_fragment and fragments_alive(key):
                    if quiescent:
                        raise CheckFailure(
                            f"migration atomicity: {key!r} was split into "
                            f"fragments but the split never committed to "
                            f"the routing table"
                        )
                    continue  # mid-split window: split_open in flight
                if unknown_shards:
                    continue  # the key may live on a fully-crashed shard
                raise CheckFailure(
                    f"migration atomicity: {key!r} owned by no shard and "
                    f"absent from every outbound escrow -- state lost"
                )
            if quiescent:
                raise CheckFailure(
                    f"migration atomicity: {key!r} still in flight at "
                    f"quiescence (stranded migration?)"
                )
            continue
        if quiescent and routing_table.shard_of(key) != owners[0]:
            raise CheckFailure(
                f"migration atomicity: routing table sends {key!r} to shard "
                f"{routing_table.shard_of(key)} but shard {owners[0]} owns it"
            )

    if quiescent:
        leftovers = {
            shard: sorted(outbound)
            for shard, outbound in outbound_by_shard.items()
            if outbound
        }
        if leftovers:
            raise CheckFailure(
                f"migration atomicity: outbound escrow entries survive "
                f"quiescence: {leftovers}"
            )

    # -- conservation (bank) -------------------------------------------
    # A fully-crashed shard makes its balances unobservable, not lost;
    # the sum below would come up short through no fault of the
    # migrations, so (matching the ownership logic above) skip it.
    if expected_total is not None and owner_books and not unknown_shards:
        observed = 0
        have_bank = False
        for shard, servers in enumerate(shard_servers):
            correct = [server for server in servers if not server.crashed]
            if not correct or not hasattr(correct[0].machine, "conserved_total"):
                continue
            have_bank = True
            observed += correct[0].machine.conserved_total()
        # conserved_total counts an exported balance at the source until
        # mig_forget; once the same mid is installed at the destination
        # the balance also sits in an account there.  Subtract that
        # double-counted window.
        for shard, outbound in outbound_by_shard.items():
            for mid, (key, dst, state) in outbound.items():
                if not isinstance(state, int):
                    continue
                if mid in installed_by_shard.get(dst, ()):
                    observed -= state
        if have_bank and observed != expected_total:
            raise CheckFailure(
                f"migration conservation violated: balances + escrows sum "
                f"to {observed}, expected {expected_total}"
            )
    return len(begun)


def check_fragment_conservation(
    trace: TraceLog,
    shard_servers: Sequence[Sequence[Any]],
    routing_table: Any,
    initial_values: Mapping[Any, int],
    quiescent: bool = True,
) -> int:
    """Splitting a hot key never creates or destroys value.

    For every key that was ever split
    (:class:`~repro.statemachine.base.SplittableMachine`), the logical
    value observable at the end of the run -- the sum of its fragment
    balances across shards, plus fragment value parked in migration or
    split escrow, plus fragment debits held by in-flight transfers --
    must *exactly* equal the initially placed value plus the net effect
    of every **adopted** operation on the key's family: deposits add,
    withdrawals subtract, transfers move value in or out of the family,
    and borrows between sibling fragments are family-internal so they
    cancel.  Exactness across undo/redo is inherited from adoption
    stability (Prop. 7): an operation that was Opt-delivered and later
    undone never surfaces an adopted reply, so it contributes neither a
    delta nor final state.

    Single-shard operations are joined from ``submit`` + ``adopt``
    events; cross-shard transfers (which never emit a plain ``adopt``)
    from ``tx_begin`` + ``tx_adopt`` with a ``commit`` outcome; 2PC
    branch operations (``tx_prepare``/``tx_commit``/``tx_abort``) are
    excluded by name so nothing is counted twice.

    The equality is only *enforced* on quiescent runs with every shard
    observable: before quiescence replica state may lag the adoption
    stream (execution lanes still draining), and a fully-crashed shard
    hides its fragments' balances without losing them -- both cases
    return without raising.  Returns the number of families checked.
    """
    families: Set[Any] = set(getattr(routing_table, "splits", None) or {})
    for event in trace.events(kind="split_commit"):
        families.add(event["key"])
    if not families:
        return 0

    sep = SplittableMachine.SPLIT_SEP

    def family_of(key: Any) -> Optional[Any]:
        if key in families:
            return key
        text = str(key)
        cut = text.rfind(sep)
        if cut > 0 and text[cut + len(sep):].isdigit():
            parent = text[:cut]
            if parent in families:
                return parent
        return None

    # -- expected: initial placement + net adopted deltas ---------------
    expected: Dict[Any, int] = {
        key: int(initial_values.get(key, 0)) for key in families
    }
    op_of = {event["rid"]: tuple(event["op"]) for event in trace.events(kind="submit")}
    for adoption in trace.events(kind="adopt"):
        op = op_of.get(adoption["rid"])
        if op is None:
            continue
        result = adoption["value"]
        if not getattr(result, "ok", False):
            continue
        name = op[0]
        if name == "deposit" and len(op) == 3:
            family = family_of(op[1])
            if family is not None:
                expected[family] += op[2]
        elif name == "withdraw" and len(op) == 3:
            family = family_of(op[1])
            if family is not None:
                expected[family] -= op[2]
        elif name == "transfer" and len(op) == 4:
            src_family, dst_family = family_of(op[1]), family_of(op[2])
            if src_family != dst_family:
                if src_family is not None:
                    expected[src_family] -= op[3]
                if dst_family is not None:
                    expected[dst_family] += op[3]
    tx_op = {event["txid"]: tuple(event["op"]) for event in trace.events(kind="tx_begin")}
    for event in trace.events(kind="tx_adopt"):
        if event["outcome"] != "commit":
            continue
        op = tx_op.get(event["txid"])
        if op is None or op[0] != "transfer" or len(op) != 4:
            continue
        src_family, dst_family = family_of(op[1]), family_of(op[2])
        if src_family != dst_family:
            if src_family is not None:
                expected[src_family] -= op[3]
            if dst_family is not None:
                expected[dst_family] += op[3]

    # -- observed: fragments + escrows, exactly once --------------------
    machines: Dict[int, Any] = {}
    installed_books: Dict[int, Any] = {}
    for shard, servers in enumerate(shard_servers):
        correct = [server for server in servers if not server.crashed]
        if not correct:
            return 0  # a fully-crashed shard hides its fragments
        machine = correct[0].machine
        if not hasattr(machine, "fragment_value"):
            return 0  # machine has no splittable value model
        machines[shard] = machine
        installed_books[shard] = machine.installed_migrations()

    observed: Dict[Any, int] = {key: 0 for key in families}
    for shard, machine in machines.items():
        for key in machine.owned_keys() or ():
            family = family_of(key)
            if family is None:
                continue
            value = machine.fragment_value(key)
            if isinstance(value, int):
                observed[family] += value
        for mid, (key, dst, state) in machine.outbound_migrations().items():
            family = family_of(key)
            if family is None or not isinstance(state, int):
                continue
            if mid in installed_books.get(dst, ()):
                continue  # install-to-forget window: counted at dst
            observed[family] += state
        for _txid, (kind, account, amount) in machine.pending_holds().items():
            if kind != "debit":
                continue
            family = family_of(account)
            if family is not None:
                observed[family] += amount

    if quiescent:
        mismatched = sorted(
            (key for key in families if expected[key] != observed[key]),
            key=repr,
        )
        if mismatched:
            detail = ", ".join(
                f"{key!r}: fragments+escrow sum to {observed[key]}, adopted "
                f"history implies {expected[key]}"
                for key in mismatched
            )
            raise CheckFailure(f"fragment conservation violated: {detail}")
    return len(families)


# ----------------------------------------------------------------------
# Replica-local reads (OARConfig.read_mode)
# ----------------------------------------------------------------------

def check_read_consistency(
    trace: TraceLog,
    servers: Sequence[Any],
    machine_factory: Any,
    shard: Optional[int] = None,
) -> Dict[str, int]:
    """Replica-local reads observe prefix-closed states of the final order.

    For every adopted read, the observed value must be producible by
    executing the read operation against the state reached by *some*
    prefix of the group's final delivered order (starting from the
    shard's initial machine, rebuilt via ``machine_factory``).  That is
    the prefix-closed-observation property: a read never sees a state no
    prefix of the adopted history ever passed through.

    * **Adopted-mode (conservative) reads** -- a violation raises
      :class:`CheckFailure`: a majority-agreed read value must always be
      anchored in the adopted order (undo consistency keeps doomed
      optimistic suffixes at a minority of replicas, so they can never
      win the vote).
    * **Optimistic reads** -- a value with no anchoring prefix is a
      *stale* read (the replica answered from an optimistic suffix that
      was later undone); it is counted, not failed, so staleness is a
      measurable quantity rather than a correctness bug.

    ``shard`` filters read events in a sharded run (clients tag each
    read with the shard it was routed to); ``None`` checks unsharded
    runs.  Returns ``{"reads", "optimistic", "conservative",
    "stale_optimistic"}`` counts.
    """
    reads = [
        event
        for event in trace.events(kind="read_adopt")
        if event.get("shard") == shard
    ]
    stats = {
        "reads": len(reads),
        "optimistic": 0,
        "conservative": 0,
        "stale_optimistic": 0,
    }
    if not reads:
        return stats

    # The longest correct server's final order is the adopted history
    # (total order makes every correct order a prefix of it).
    alive = [server for server in servers if not server.crashed]
    if not alive:
        return stats  # nothing authoritative to anchor reads against
    final_order = max(
        (_server_order(server) for server in alive), key=len
    )
    op_of = {event["rid"]: event["op"] for event in trace.events(kind="submit")}

    # Replay the adopted history once, probing every distinct read
    # operation at every prefix (reads are side-effect free, so probing
    # does not perturb the replay).
    read_ops = {tuple(event["op"]) for event in reads}
    machine = machine_factory()
    # Results are keyed by repr: always hashable, and OpResult reprs
    # distinguish ok/error/value exactly.
    achievable: Dict[Tuple[Any, ...], Set[str]] = {
        op: {repr(machine.apply(op))} for op in read_ops
    }
    for rid in final_order:
        op = op_of.get(rid)
        if op is None:
            continue  # a rid submitted outside the traced window
        machine.apply(tuple(op))
        for read_op in read_ops:
            achievable[read_op].add(repr(machine.apply(read_op)))

    for event in reads:
        op = tuple(event["op"])
        mode = event["mode"]
        value = event["value"]
        anchored = repr(value) in achievable[op]
        if mode == "conservative":
            stats["conservative"] += 1
            if not anchored:
                raise CheckFailure(
                    f"read consistency violated: conservative read "
                    f"{event['rid']} of {op!r} adopted {value!r}, which no "
                    f"prefix of the adopted order produces"
                )
        else:
            stats["optimistic"] += 1
            if not anchored:
                stats["stale_optimistic"] += 1
    return stats


# ----------------------------------------------------------------------
# Fault-plane accounting (link faults beyond crash-stop)
# ----------------------------------------------------------------------

_FAULT_TRACE_KINDS = (
    "msg_drop",
    "msg_dup",
    "msg_corrupt",
    "msg_jitter",
    "msg_held",
    "msg_rewrite",
    "msg_corrupt_drop",
    "heal_storm",
)


def check_fault_plane_accounting(trace: TraceLog, network: Any) -> Dict[str, int]:
    """Every injected link fault is traced and accounted for.

    Three families of assertion, all on quiescent runs:

    * **Counter/trace agreement** -- each fault counter on the installed
      :class:`~repro.sim.faultplane.FaultPlane` equals the number of its
      trace events (a fault can never be injected silently), and held
      messages are exactly the released ones plus the still-held ones.
    * **Nothing applied corrupt** -- every corrupted payload was either
      detected-and-dropped at delivery (``msg_corrupt_drop``) or is
      still held (one-way block or partition); re-verifies the checksum
      of every held envelope to prove it.
    * **Duplicates never double-execute** -- no server R-delivers (and
      therefore executes) the same rid twice, no matter how many copies
      the links produced.  Checked whether or not a plane is installed.

    When no plane is installed, asserts the zero baseline instead: no
    fault trace events, no fault counters -- the golden-run guarantee
    that fault-free behaviour is byte-identical to the benign network.
    Returns the fault counters for reporting.
    """
    # Duplicate suppression: one r_deliver per (server, rid), always.
    seen: Set[Tuple[str, str]] = set()
    for event in trace.events(kind="r_deliver"):
        key = (event.pid, event["rid"])
        if key in seen:
            raise CheckFailure(
                f"duplicate execution: {event.pid} R-delivered "
                f"{event['rid']!r} twice"
            )
        seen.add(key)

    plane = getattr(network, "fault_plane", None)
    corrupt_dropped = getattr(network, "corrupt_dropped", 0)
    if plane is None:
        if corrupt_dropped:
            raise CheckFailure(
                f"no fault plane installed but {corrupt_dropped} payloads "
                f"were dropped as corrupt"
            )
        if trace.enabled:
            for kind in _FAULT_TRACE_KINDS:
                stray = trace.events(kind=kind)
                if stray:
                    raise CheckFailure(
                        f"no fault plane installed but {len(stray)} "
                        f"{kind!r} events are in the trace"
                    )
        return {"corrupt_dropped": 0}

    stats = plane.stats()
    if trace.enabled:
        expected = {
            "dropped": "msg_drop",
            "duplicated": "msg_dup",
            "corrupted": "msg_corrupt",
            "jittered": "msg_jitter",
            "held": "msg_held",
            "rewritten": "msg_rewrite",
        }
        for counter, kind in expected.items():
            traced = len(trace.events(kind=kind))
            if stats[counter] != traced:
                raise CheckFailure(
                    f"fault accounting: counter {counter}={stats[counter]} "
                    f"but {traced} {kind!r} trace events"
                )
        released = sum(
            event["released"] for event in trace.events(kind="heal_storm")
        )
        if stats["released"] != released:
            raise CheckFailure(
                f"fault accounting: released={stats['released']} but "
                f"heal_storm events account for {released}"
            )
        traced_drops = len(trace.events(kind="msg_corrupt_drop"))
        if corrupt_dropped != traced_drops:
            raise CheckFailure(
                f"fault accounting: corrupt_dropped={corrupt_dropped} but "
                f"{traced_drops} msg_corrupt_drop trace events"
            )
    if stats["held"] != stats["released"] + stats["pending_held"]:
        raise CheckFailure(
            f"fault accounting: held={stats['held']} != "
            f"released={stats['released']} + pending={stats['pending_held']}"
        )

    # Nothing applied corrupt: every corrupted payload was dropped at
    # delivery, is still held somewhere with a failing checksum, or was
    # still in flight (scheduled past the run's cutoff) when the sim
    # stopped.
    from repro.sim.faultplane import wire_checksum

    undelivered_corrupt = 0
    undelivered = (
        list(plane.held_envelopes())
        + list(network._held)
        + list(network.in_flight_checksummed())
    )
    for envelope in undelivered:
        if (
            envelope.checksum is not None
            and wire_checksum(envelope.payload) != envelope.checksum
        ):
            undelivered_corrupt += 1
    if stats["corrupted"] != corrupt_dropped + undelivered_corrupt:
        raise CheckFailure(
            f"corrupt payload escaped: {stats['corrupted']} injected, "
            f"{corrupt_dropped} dropped at delivery, {undelivered_corrupt} "
            f"still held or in flight -- "
            f"{stats['corrupted'] - corrupt_dropped - undelivered_corrupt} "
            f"unaccounted for (applied?)"
        )
    stats["corrupt_dropped"] = corrupt_dropped
    return stats


# ----------------------------------------------------------------------
# Admission-control accounting (overload shedding, throttling)
# ----------------------------------------------------------------------

_ADMISSION_TRACE_KINDS = ("shed", "throttle", "shed_adopt")


def check_admission_accounting(
    trace: TraceLog,
    servers: Sequence[Any],
    clients: Sequence[Any],
    drivers: Sequence[Any] = (),
) -> Dict[str, int]:
    """Every admission decision is counted, traced, and conserved.

    Four families of assertion:

    * **Counter/trace agreement** -- each server's ``shed`` /
      ``reads_shed`` counter equals its ``shed`` trace events of the
      matching bulkhead class; each client's ``overloaded`` counter
      equals its ``shed_adopt`` events and its ``shed_rids`` size (a
      shed can never be decided or surfaced silently).
    * **At-most-once shedding** -- no server sheds the same write rid
      twice (the notice cache makes retransmissions hit the cached
      notice, not a fresh decision), and no client surfaces a rid twice.
    * **The conservation law** -- for every driver that exposes the
      open-loop counters (``offered`` etc.), exactly:
      ``offered == throttled + admitted + shed + in_flight`` and
      ``offered == throttled + len(submitted)``.  At quiescence
      ``in_flight == 0``, so the ISSUE's headline identity
      ``admitted + shed + throttled == offered`` is exact.
    * **The zero baseline** -- when no server config enables a limit:
      zero counters, zero sheds surfaced, and no ``shed``/``shed_adopt``
      trace events at all.  (``throttle`` events are client-side and
      gated separately on the drivers' buckets.)  This is the
      idle-plane guarantee behind the digest-identity acceptance
      criterion.

    Returns the aggregate counters for reporting.
    """
    enabled = any(
        getattr(server.config, "admission_limit", None) is not None
        or getattr(server.config, "read_queue_limit", None) is not None
        for server in servers
    )
    throttling = any(getattr(driver, "bucket", None) is not None for driver in drivers)

    shed_events: Dict[str, Dict[str, int]] = defaultdict(lambda: {"write": 0, "read": 0})
    surfaced_events: Dict[str, int] = defaultdict(int)
    shed_write_rids: Set[Tuple[str, str]] = set()
    surfaced_rids: Set[Tuple[str, str]] = set()
    throttle_events = 0
    if trace.enabled:
        for event in trace.events(kind="shed"):
            cls = event["cls"]
            shed_events[event.pid][cls] += 1
            if cls == "write":
                key = (event.pid, event["rid"])
                if key in shed_write_rids:
                    raise CheckFailure(
                        f"admission accounting: {event.pid} shed write "
                        f"{event['rid']!r} twice"
                    )
                shed_write_rids.add(key)
        for event in trace.events(kind="shed_adopt"):
            key = (event.pid, event["rid"])
            if key in surfaced_rids:
                raise CheckFailure(
                    f"admission accounting: {event.pid} surfaced shed "
                    f"{event['rid']!r} twice"
                )
            surfaced_rids.add(key)
            surfaced_events[event.pid] += 1
        throttle_events = len(trace.events(kind="throttle"))

    total_shed = 0
    total_reads_shed = 0
    for server in servers:
        shed = getattr(server, "shed", 0)
        reads_shed = getattr(server, "reads_shed", 0)
        total_shed += shed
        total_reads_shed += reads_shed
        if trace.enabled:
            counted = shed_events.get(server.pid, {"write": 0, "read": 0})
            if shed != counted["write"]:
                raise CheckFailure(
                    f"admission accounting: {server.pid} shed={shed} "
                    f"but {counted['write']} write 'shed' trace events"
                )
            if reads_shed != counted["read"]:
                raise CheckFailure(
                    f"admission accounting: {server.pid} "
                    f"reads_shed={reads_shed} but {counted['read']} "
                    f"read 'shed' trace events"
                )

    total_surfaced = 0
    for client in clients:
        overloaded = getattr(client, "overloaded", 0)
        shed_rids = getattr(client, "shed_rids", set())
        total_surfaced += overloaded
        if overloaded != len(shed_rids):
            raise CheckFailure(
                f"admission accounting: {client.pid} overloaded={overloaded} "
                f"but {len(shed_rids)} distinct shed rids"
            )
        if trace.enabled and overloaded != surfaced_events.get(client.pid, 0):
            raise CheckFailure(
                f"admission accounting: {client.pid} overloaded={overloaded} "
                f"but {surfaced_events.get(client.pid, 0)} 'shed_adopt' events"
            )

    # A surfaced shed always stems from a server-side decision; the
    # reverse need not hold (a notice can lose the race with a real
    # reply after failover, or be counted late).
    if total_surfaced > total_shed + total_reads_shed:
        raise CheckFailure(
            f"admission accounting: clients surfaced {total_surfaced} sheds "
            f"but servers only decided {total_shed + total_reads_shed}"
        )

    total_offered = 0
    total_throttled = 0
    total_admitted = 0
    total_driver_shed = 0
    for driver in drivers:
        if not hasattr(driver, "offered"):
            continue  # closed/plain-open drivers have no admission ledger
        in_flight = driver.in_flight
        if driver.offered != driver.throttled + len(driver.submitted):
            raise CheckFailure(
                f"admission accounting: driver offered={driver.offered} != "
                f"throttled={driver.throttled} + "
                f"submitted={len(driver.submitted)}"
            )
        resolved = driver.throttled + driver.admitted + driver.shed + in_flight
        if driver.offered != resolved:
            raise CheckFailure(
                f"admission accounting: driver offered={driver.offered} != "
                f"throttled={driver.throttled} + admitted={driver.admitted} "
                f"+ shed={driver.shed} + in_flight={in_flight}"
            )
        total_offered += driver.offered
        total_throttled += driver.throttled
        total_admitted += driver.admitted
        total_driver_shed += driver.shed

    if trace.enabled and (drivers or not throttling):
        expected_throttles = sum(
            getattr(driver, "throttled", 0) for driver in drivers
        )
        if throttle_events != expected_throttles:
            raise CheckFailure(
                f"admission accounting: {throttle_events} 'throttle' trace "
                f"events but drivers throttled {expected_throttles}"
            )

    if not enabled:
        if total_shed or total_reads_shed:
            raise CheckFailure(
                "admission accounting: no limits configured but servers "
                f"shed {total_shed} writes / {total_reads_shed} reads"
            )
        if total_surfaced:
            raise CheckFailure(
                "admission accounting: no limits configured but clients "
                f"surfaced {total_surfaced} sheds"
            )
        if trace.enabled:
            for kind in ("shed", "shed_adopt"):
                stray = trace.events(kind=kind)
                if stray:
                    raise CheckFailure(
                        f"admission accounting: no limits configured but "
                        f"{len(stray)} {kind!r} events are in the trace"
                    )

    return {
        "shed": total_shed,
        "reads_shed": total_reads_shed,
        "surfaced": total_surfaced,
        "offered": total_offered,
        "throttled": total_throttled,
        "admitted": total_admitted,
        "driver_shed": total_driver_shed,
    }


# ----------------------------------------------------------------------
# Baseline anomaly scoring (Figure 1(b))
# ----------------------------------------------------------------------

def count_baseline_inconsistencies(
    trace: TraceLog,
    correct_servers: Sequence[Any],
) -> int:
    """How many adopted replies the baseline run left inconsistent.

    An adoption is inconsistent when a majority of the *correct* servers'
    final states disagree with the reply the client adopted (the stale
    reply of Figure 1(b)).  For OAR this is structurally zero
    (Proposition 7); for the sequencer baseline it is not -- benchmark B2
    reports both.
    """
    final_orders = {
        server.pid: _server_order(server) for server in correct_servers
    }
    majority = len(correct_servers) // 2 + 1
    inconsistent = 0
    for adoption in trace.events(kind="adopt"):
        rid = adoption["rid"]
        disagreeing = 0
        for pid, order in final_orders.items():
            if rid not in order:
                disagreeing += 1
                continue
            position = order.index(rid) + 1
            if position != adoption["position"]:
                disagreeing += 1
        if disagreeing >= majority:
            inconsistent += 1
    return inconsistent
