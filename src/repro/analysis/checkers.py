"""Machine-checkable forms of the paper's correctness properties.

Every checker takes the run's :class:`~repro.sim.trace.TraceLog` (plus
whatever protocol objects it needs) and raises :class:`CheckFailure` with
a precise description on violation.  Checkers are pure functions of the
trace so they work identically for simulator and TCP runs.  The
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
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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
    to one group of a sharded run (all groups share one trace); None
    takes every process in the trace.  Every index is made by
    :meth:`per_group`: ``DeliveryIndex(trace, pids)`` is that group
    alone.

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

    def __new__(
        cls, trace: TraceLog, server_pids: Optional[Iterable[str]] = None
    ) -> "DeliveryIndex":
        return next(cls.per_group(trace, [server_pids]))

    @classmethod
    def per_group(
        cls, trace: TraceLog, groups: Sequence[Optional[Iterable[str]]]
    ) -> Iterator["DeliveryIndex"]:
        """The index of each group, in order, from one pass over the trace.

        Each scan is read once and dealt out by the emitting pid's group
        (a None group takes every pid no other group names), where one
        scoped scan per group would read every group's events once per
        group.  An ``adopt`` event goes to the groups that delivered its
        rid -- the only ones in which :func:`check_external_consistency`
        finds anything to compare it with.  A group's events are
        replayed when its index is asked for, so a history that does not
        replay fails where it would have.
        """
        group_of = {
            pid: i for i, group in enumerate(groups) if group is not None for pid in group
        }
        rest = next((i for i, group in enumerate(groups) if group is None), None)
        dealt: List[List[List[TraceEvent]]] = [
            [[] for _ in cls._SCANS] for _ in groups
        ]
        delivered_in: Dict[str, Set[int]] = defaultdict(set)
        for scan, kinds in enumerate(cls._SCANS):
            deliveries = "opt_deliver" in kinds
            for event in trace.events_of_kinds(kinds):
                group = group_of.get(event.pid, rest)
                if group is not None:
                    dealt[group][scan].append(event)
                    if deliveries:
                        delivered_in[event.fields["rid"]].add(group)
        adoptions: List[List[TraceEvent]] = [[] for _ in groups]
        for event in trace.events(kind="adopt"):
            for group in delivered_in.get(event.fields["rid"], ()):
                adoptions[group].append(event)
        for scans, adopted in zip(dealt, adoptions):
            index = object.__new__(cls)
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
    index = history if isinstance(history, DeliveryIndex) else DeliveryIndex(
        history, [server.pid for server in servers]
    )
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
    quiescent: bool = True,
) -> int:
    """Client-coordinated cross-shard transactions are atomic.

    Always: decision branches for one transaction are homogeneous (all
    ``tx_commit`` or all ``tx_abort``) and match the reported outcome.
    With ``quiescent=True`` additionally: every begun transaction reached
    a decision and completed, and no correct server retains an escrow
    hold.  That no transfer creates or destroys money is the bank's
    conservation law, stated once with both escrows in
    :func:`check_migration_atomicity`.  Pass ``quiescent=False`` for runs
    cut off with transactions still in flight (an undecided transaction
    is incomplete, not non-atomic).  Returns the number of transactions
    examined.
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

    if quiescent:
        for shard, servers in enumerate(shard_servers):
            for server in servers:
                pending_holds = getattr(server.machine, "pending_holds", dict)
                if not server.crashed and pending_holds():
                    raise CheckFailure(
                        f"cross-shard atomicity: {server.pid} (shard {shard}) "
                        f"retains escrow holds at quiescence: {sorted(pending_holds())}"
                    )
    return len(begun)


class _ShardBooks(NamedTuple):
    """One shard as its correct replicas agree it stands.

    The migration and fragment checkers read every shard through this
    one observation.  ``machine`` is the first correct replica's (the
    group's replicas agree on state: :func:`check_replica_convergence`).
    """

    machine: Any
    owned: FrozenSet[Any]
    outbound: Dict[str, Tuple[Any, int, Any]]  #: mid -> (key, dst, state)
    installed: Dict[str, Any]  #: mid -> key


def _observe_shards(
    shard_servers: Sequence[Sequence[Any]],
) -> Optional[Dict[int, Optional[_ShardBooks]]]:
    """Each shard's books, or None when the machine keeps none.

    A machine with no ownership model (keyless, or unsharded: it owns
    everything) has nothing to observe.  A fully-crashed shard maps to
    None: its state is unobservable, not lost.  Replicas of one shard
    that disagree on what they own raise.
    """
    shards: Dict[int, Optional[_ShardBooks]] = {}
    for shard, servers in enumerate(shard_servers):
        correct = [server for server in servers if not server.crashed]
        if not correct:
            shards[shard] = None
            continue
        machine = correct[0].machine
        if not hasattr(machine, "owned_keys"):
            return None
        books = {server.pid: server.machine.owned_keys() for server in correct}
        distinct = set(books.values())
        if len(distinct) > 1:
            raise CheckFailure(
                f"migration atomicity: shard {shard} replicas disagree on "
                f"ownership: {books!r}"
            )
        owned = distinct.pop()
        if owned is None:
            return None
        shards[shard] = _ShardBooks(
            machine, owned, machine.outbound_migrations(), machine.installed_migrations()
        )
    return shards


def _installed_exports(books: Mapping[int, _ShardBooks]) -> Iterator[Tuple[Any, int]]:
    """``(key, balance)`` of each export already installed at its destination.

    A source keeps an exported balance in its outbound escrow until
    ``mig_forget``; once the same mid is installed at the destination the
    balance is in an account there too.  Both value laws count such an
    export at the destination only, by taking these back out.
    """
    for book in books.values():
        for mid, (key, dst, state) in book.outbound.items():
            if isinstance(state, int) and dst in books and mid in books[dst].installed:
                yield key, state


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
    * **money conservation** (bank, when ``expected_total`` given) --
      account balances + transfer escrow + migration escrow sum to the
      money supply, counting an export already installed at its
      destination there only: no transfer and no migration creates or
      destroys money.

    Additionally at quiescence: every begun migration reached ``done``
    or ``aborted``, no key is still in flight, no outbound escrow entry
    survives its forget, and the authoritative routing table points
    every key at the shard that actually owns it.  Pass
    ``quiescent=False`` for runs cut off mid-migration (or frozen by a
    coordinator crash before recovery): an in-flight migration is
    incomplete, not non-atomic.  Keys split into fragments
    (``routing_table.splits``) delegate every per-key obligation to
    their fragments; a split that aborted after it opened (``split_abort``)
    leaves its fragments stranded, which quiescence tolerates as it does
    a crashed coordinator's migration.  See
    :func:`check_fragment_conservation` for the value-conservation side
    of splitting.  Returns the number of distinct migrations begun.
    """
    begun = {event["mid"]: event for event in trace.events(kind="mig_begin")}
    prepared = {event["mid"] for event in trace.events(kind="mig_prepared")}
    installed = {event["mid"] for event in trace.events(kind="mig_installed")}
    committed = {event["mid"] for event in trace.events(kind="mig_commit")}
    finished = {event["mid"] for event in trace.events(kind="mig_done")}
    aborted = {event["mid"] for event in trace.events(kind="mig_abort")}

    for mid in installed - prepared:
        raise CheckFailure(f"migration atomicity: {mid} installed without a prepare")
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

    shards = _observe_shards(shard_servers)
    if shards is None:
        return len(begun)  # no ownership model: nothing migrates
    books = {shard: book for shard, book in shards.items() if book is not None}
    unknown_shards = len(books) < len(shards)  # ownership there unknowable

    # Single install: each migration id landed on at most one shard.
    seen_installs: Dict[str, int] = {}
    for shard, book in books.items():
        for mid in book.installed:
            if mid in seen_installs:
                raise CheckFailure(
                    f"migration atomicity: {mid} installed on shards "
                    f"{seen_installs[mid]} and {shard}"
                )
            seen_installs[mid] = shard

    in_flight_keys = {
        key for book in books.values() for key, _dst, _state in book.outbound.values()
    }

    # Hot-key splits (repro.statemachine.base.SplittableMachine): once a
    # split commits, the logical key is legitimately owned by no shard --
    # the single-owner / no-key-lost obligations transfer to each of its
    # fragments.  Two transient windows look like a missing key and must
    # not be declared "state lost": mid-split (split_open adopted, the
    # authority's epoch not yet bumped -- the fragments already exist in
    # owner books and escrow under fragment names) and mid-merge
    # (split_close adopted, split not yet dropped -- the merged key is
    # owned again while the table still says "split").  A split that
    # aborted after split_open (a refused install, a coordinator crash
    # before the table commit) strands its fragments there for good:
    # incomplete, not lost -- check_fragment_conservation counts them.
    splits = dict(getattr(routing_table, "splits", None) or {})
    abandoned = {event["key"] for event in trace.events(kind="split_abort")}
    owned_anywhere: Set[Any] = set().union(*(book.owned for book in books.values()))
    split_parents = {
        SplittableMachine.parent_key(key) for key in owned_anywhere | in_flight_keys
    }

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
        owners = [shard for shard, book in books.items() if key in book.owned]
        if len(owners) > 1:
            raise CheckFailure(f"migration atomicity: {key!r} owned by multiple shards {owners}")
        if not owners:
            if key not in in_flight_keys:
                if not is_fragment and key in split_parents:
                    if quiescent and key not in abandoned:
                        raise CheckFailure(
                            f"migration atomicity: {key!r} was split into "
                            f"fragments but the split never committed to "
                            f"the routing table"
                        )
                    continue  # mid-split window, or an abandoned split
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
        leftovers = {}
        for shard, book in books.items():
            mids = sorted(
                mid for mid, (key, _dst, _state) in book.outbound.items()
                if SplittableMachine.parent_key(key) not in abandoned
            )
            if mids:
                leftovers[shard] = mids
        if leftovers:
            raise CheckFailure(
                f"migration atomicity: outbound escrow entries survive "
                f"quiescence: {leftovers}"
            )

    # A fully-crashed shard makes its balances unobservable, not lost:
    # the sum would come up short through no fault of the protocol.
    if expected_total is not None and books and not unknown_shards:
        observed = sum(book.machine.conserved_total() for book in books.values())
        observed -= sum(state for _key, state in _installed_exports(books))
        if observed != expected_total:
            raise CheckFailure(
                f"money conservation violated: balances + transfer escrow + "
                f"migration escrow sum to {observed}, expected {expected_total}"
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
    (:class:`~repro.statemachine.base.SplittableMachine`) -- the split
    committed, or it aborted and left its fragments stranded -- the logical
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
    delta nor final state.  The shards are read through the migration
    checker's observation, so an export is counted once, as there.

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
    for kind in ("split_commit", "split_abort"):
        for event in trace.events(kind=kind):
            families.add(event["key"])
    if not families or not quiescent:
        return 0

    def family_of(key: Any) -> Optional[Any]:
        family = key if key in families else SplittableMachine.parent_key(key)
        return family if family in families else None

    # -- expected: initial placement + net adopted deltas ---------------
    expected = {key: int(initial_values.get(key, 0)) for key in families}
    op_of = {event["rid"]: tuple(event["op"]) for event in trace.events(kind="submit")}
    tx_op = {event["txid"]: tuple(event["op"]) for event in trace.events(kind="tx_begin")}
    adopted = [
        op_of.get(event["rid"])
        for event in trace.events(kind="adopt")
        if getattr(event["value"], "ok", False)
    ] + [
        tx_op.get(event["txid"])
        for event in trace.events(kind="tx_adopt")
        if event["outcome"] == "commit"
    ]
    for op in adopted:
        if op is None:
            continue
        if op[0] == "deposit" and len(op) == 3:
            src, dst, amount = None, op[1], op[2]
        elif op[0] == "withdraw" and len(op) == 3:
            src, dst, amount = op[1], None, op[2]
        elif op[0] == "transfer" and len(op) == 4:
            src, dst, amount = op[1:]
        else:
            continue
        src_family, dst_family = family_of(src), family_of(dst)
        if src_family != dst_family:
            if src_family is not None:
                expected[src_family] -= amount
            if dst_family is not None:
                expected[dst_family] += amount

    # -- observed: fragments + escrows, exactly once --------------------
    books = _observe_shards(shard_servers)
    if not books or None in books.values():
        return 0  # no ownership model, or a fully-crashed shard hides fragments
    if not hasattr(books[0].machine, "fragment_value"):
        return 0  # machine has no splittable value model
    observed: Dict[Any, int] = {key: 0 for key in families}

    def credit(key: Any, amount: Any) -> None:
        family = family_of(key)
        if family is not None and isinstance(amount, int):
            observed[family] += amount

    for book in books.values():
        for key in book.owned:
            credit(key, book.machine.fragment_value(key))
        for key, _dst, state in book.outbound.values():
            credit(key, state)
        for kind, account, amount in book.machine.pending_holds().values():
            if kind == "debit":
                credit(account, amount)
    for key, state in _installed_exports(books):
        credit(key, -state)

    mismatched = sorted((key for key in families if expected[key] != observed[key]), key=repr)
    if mismatched:
        detail = ", ".join(
            f"{key!r}: fragments+escrow sum to {observed[key]}, adopted "
            f"history implies {expected[key]}"
            for key in mismatched
        )
        raise CheckFailure(f"fragment conservation violated: {detail}")
    return len(families)


# ----------------------------------------------------------------------
# Replica-local reads (the scenario's read_mode)
# ----------------------------------------------------------------------

def check_read_consistency(
    trace: TraceLog,
    servers: Sequence[Any],
    machine_factory: Any,
    shard: int,
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

    ``shard`` selects the read events of the group ``servers`` form: a
    read is traced with the shard its client routed it to.  Returns
    ``{"reads", "optimistic", "conservative", "stale_optimistic"}``
    counts.
    """
    reads = [event for event in trace.events(kind="read_adopt") if event["shard"] == shard]
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
# Accounting: counters against the trace (link faults, admission)
# ----------------------------------------------------------------------

#: The counter <-> trace ledger, per law: ``(holder, counter, kind,
#: weight)`` rows.  Each increment of ``counter`` on a ``holder`` object
#: is recorded as one ``kind`` trace event; ``weight`` (None: 1) says
#: what an event counts for where that is not one.
_LEDGER: Dict[str, Tuple[Tuple[str, str, str, Optional[Callable[[TraceEvent], int]]], ...]] = {
    "fault accounting": (
        ("plane", "dropped", "msg_drop", None),
        ("plane", "duplicated", "msg_dup", None),
        ("plane", "corrupted", "msg_corrupt", None),
        ("plane", "jittered", "msg_jitter", None),
        ("plane", "held", "msg_held", None),
        ("plane", "rewritten", "msg_rewrite", None),
        ("plane", "released", "heal_storm", lambda event: event["released"]),
        ("plane", "partition_released", "heal", lambda event: event["released"]),
        ("network", "corrupt_dropped", "msg_corrupt_drop", None),
    ),
    "admission accounting": (
        ("server", "shed", "shed", lambda event: event["cls"] == "write"),
        ("server", "reads_shed", "shed", lambda event: event["cls"] == "read"),
        ("client", "overloaded", "shed_adopt", None),
        ("driver", "throttled", "throttle", None),
    ),
}


def _check_ledger(
    trace: TraceLog,
    law: str,
    holders: Mapping[str, Tuple[Sequence[Any], Optional[str]]],
) -> None:
    """Every counter of ``law`` equals what the trace records of it.

    ``holders`` gives, per holder of :data:`_LEDGER`, the objects that
    keep the counter and why its mechanism is off (None when it is on).
    A holder with a pid is held to its own events; the holders' counters
    together are held to every event of the kind, read as 0 where the
    mechanism is off -- so a run with no fault plane or no admission
    limit must trace none of its events.  Events are read through the
    kind index; a run that kept no trace has nothing to compare.
    """
    if not trace.enabled:
        return
    for holder, counter, kind, weight in _LEDGER[law]:
        objects, off = holders[holder]
        traced: Counter = Counter()
        for event in trace.events(kind=kind):
            traced[event.pid] += 1 if weight is None else weight(event)
        total = 0
        for obj in objects:
            value = getattr(obj, counter, 0)
            pid = getattr(obj, "pid", None)
            if pid is not None and value != traced[pid]:
                raise CheckFailure(
                    f"{law}: {pid} {counter}={value} but {traced[pid]} "
                    f"{kind!r} trace events"
                )
            total += value
        events = sum(traced.values())
        if (0 if off else total) != events:
            raise CheckFailure(
                f"{law}: {off or f'counter {counter}={total}'} but {events} "
                f"{kind!r} trace events"
            )


def _check_once(events: Iterable[TraceEvent], twice: str) -> None:
    """No process traces one rid twice; ``twice`` formats (pid, rid) if one does."""
    seen: Set[Tuple[str, str]] = set()
    for event in events:
        key = (event.pid, event["rid"])
        if key in seen:
            raise CheckFailure(twice.format(*key))
        seen.add(key)


def check_fault_plane_accounting(trace: TraceLog, network: Any) -> Dict[str, int]:
    """Every injected link fault is traced and accounted for.

    * **Counter/trace agreement** -- each fault counter of the installed
      :class:`~repro.sim.faultplane.FaultPlane` (and the network's
      ``corrupt_dropped``) equals its trace events (:data:`_LEDGER`): a
      fault can never be injected silently.  With no plane installed the
      counters read 0, so a fault-free run traces no fault event at all
      -- the golden-run guarantee that it is byte-identical to the
      benign network.
    * **Held conservation** -- held messages are exactly the released
      ones plus the still-held ones, one-way and partition holds alike.
    * **Nothing applied corrupt** -- every corrupted payload was either
      detected-and-dropped at delivery (``msg_corrupt_drop``), is still
      held (one-way block or partition) or was still in flight when the
      run stopped; the checksum of every such envelope is re-verified to
      prove it.
    * **Duplicates never double-execute** -- no server R-delivers (and
      therefore executes) the same rid twice, no matter how many copies
      the links produced.

    Returns the fault counters for reporting.
    """
    _check_once(
        trace.events(kind="r_deliver"), "duplicate execution: {} R-delivered {!r} twice"
    )
    plane = getattr(network, "fault_plane", None)
    off = "no fault plane installed" if plane is None else None
    _check_ledger(
        trace,
        "fault accounting",
        {"plane": ([] if plane is None else [plane], off), "network": ([network], off)},
    )
    corrupt_dropped = getattr(network, "corrupt_dropped", 0)
    if plane is None:
        stats = {}
        corrupted = undelivered_corrupt = 0
    else:
        stats = plane.stats()
        for held, released, pending in (
            ("held", "released", "pending_held"),
            ("partition_held", "partition_released", "pending_partition_held"),
        ):
            if stats[held] != stats[released] + stats[pending]:
                raise CheckFailure(
                    f"fault accounting: {held}={stats[held]} != "
                    f"{released}={stats[released]} + {pending}={stats[pending]}"
                )
        corrupted = stats["corrupted"]
        undelivered_corrupt = sum(
            envelope.checksum is not None
            and network._wire_checksum(envelope.payload) != envelope.checksum
            for envelopes in (plane.held_envelopes(), network.in_flight_checksummed())
            for envelope in envelopes
        )
    if corrupted != corrupt_dropped + undelivered_corrupt:
        raise CheckFailure(
            f"corrupt payload escaped: {corrupted} injected, "
            f"{corrupt_dropped} dropped at delivery, {undelivered_corrupt} "
            f"still held or in flight -- "
            f"{corrupted - corrupt_dropped - undelivered_corrupt} "
            f"unaccounted for (applied?)"
        )
    stats["corrupt_dropped"] = corrupt_dropped
    return stats


def check_admission_accounting(
    trace: TraceLog,
    servers: Sequence[Any],
    clients: Sequence[Any],
    drivers: Sequence[Any] = (),
) -> Dict[str, int]:
    """Every admission decision is counted, traced, and conserved.

    * **Counter/trace agreement** -- each server's ``shed`` /
      ``reads_shed`` counter equals its ``shed`` trace events of the
      matching bulkhead class, each client's ``overloaded`` counter its
      ``shed_adopt`` events, the drivers' ``throttled`` the ``throttle``
      events (:data:`_LEDGER`): a shed can never be decided or surfaced
      silently.  When no server config enables a limit the shed
      counters read 0, so such a run traces no ``shed``/``shed_adopt``
      event at all -- the idle-plane guarantee behind the
      digest-identity acceptance criterion.
    * **At-most-once shedding** -- no server sheds the same write rid
      twice (the notice cache makes retransmissions hit the cached
      notice, not a fresh decision), and no client surfaces a rid twice
      (nor counts more surfaced sheds than distinct shed rids).
    * **Surfaced <= decided** -- a surfaced shed always stems from a
      server-side decision; the reverse need not hold (a notice can lose
      the race with a real reply after failover, or be counted late).
    * **The conservation law** -- for every driver that exposes the
      open-loop counters (``offered`` etc.), exactly:
      ``offered == throttled + admitted + shed + in_flight`` and
      ``offered == throttled + len(submitted)``.  At quiescence
      ``in_flight == 0``, so ``admitted + shed + throttled == offered``
      is exact.

    Returns the aggregate counters for reporting.
    """
    enabled = any(
        getattr(getattr(server, "config", None), limit, None) is not None
        for server in servers
        for limit in ("admission_limit", "read_queue_limit")
    )
    off = None if enabled else "no admission limit configured"
    _check_ledger(
        trace,
        "admission accounting",
        {"server": (servers, off), "client": (clients, off), "driver": (drivers, None)},
    )

    _check_once(
        (event for event in trace.events(kind="shed") if event["cls"] == "write"),
        "admission accounting: {} shed write {!r} twice",
    )
    _check_once(
        trace.events(kind="shed_adopt"), "admission accounting: {} surfaced shed {!r} twice"
    )
    for client in clients:
        overloaded = getattr(client, "overloaded", 0)
        shed_rids = getattr(client, "shed_rids", ())
        if overloaded != len(shed_rids):
            raise CheckFailure(
                f"admission accounting: {client.pid} overloaded={overloaded} "
                f"but {len(shed_rids)} distinct shed rids"
            )

    totals = {
        "shed": sum(getattr(server, "shed", 0) for server in servers),
        "reads_shed": sum(getattr(server, "reads_shed", 0) for server in servers),
        "surfaced": sum(getattr(client, "overloaded", 0) for client in clients),
    }
    decided = totals["shed"] + totals["reads_shed"]
    if totals["surfaced"] > decided:
        raise CheckFailure(
            f"admission accounting: clients surfaced {totals['surfaced']} "
            f"sheds but servers only decided {decided}"
        )

    ledgers = [driver for driver in drivers if hasattr(driver, "offered")]
    for driver in ledgers:
        if driver.offered != driver.throttled + len(driver.submitted):
            raise CheckFailure(
                f"admission accounting: driver offered={driver.offered} != "
                f"throttled={driver.throttled} + "
                f"submitted={len(driver.submitted)}"
            )
        resolved = driver.throttled + driver.admitted + driver.shed + driver.in_flight
        if driver.offered != resolved:
            raise CheckFailure(
                f"admission accounting: driver offered={driver.offered} != "
                f"throttled={driver.throttled} + admitted={driver.admitted} "
                f"+ shed={driver.shed} + in_flight={driver.in_flight}"
            )
    totals.update(
        offered=sum(driver.offered for driver in ledgers),
        throttled=sum(driver.throttled for driver in ledgers),
        admitted=sum(driver.admitted for driver in ledgers),
        driver_shed=sum(driver.shed for driver in ledgers),
    )
    return totals


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
