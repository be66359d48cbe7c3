"""Chandra-Toueg ◇S consensus with the Maj-validity modification.

Structure of the algorithm ([CT96], rotating coordinator, asynchronous
rounds; every process moves through rounds ``r = 0, 1, 2, ...`` with
coordinator ``c(r) = Π[r mod n]``):

1. *Phase 1* -- on entering round r, every process sends its current
   estimate (tagged with the round in which it was last adopted, ``ts``)
   to c(r).
2. *Phase 2* -- c(r) waits for estimates from a majority.  If any carries
   ``ts > 0`` it adopts the one with the highest ``ts``; otherwise it
   **aggregates**: the proposal becomes the vector of (pid, initial
   value) pairs of the estimates it holds, ordered by pid.  This
   aggregation step is the entire Maj-validity modification ([Fel98]):
   the decided value is then always a sequence containing the initial
   values of a majority of processes.
3. *Phase 3* -- every process waits for c(r)'s proposal or suspects c(r)
   (◇S).  On a proposal it adopts it (``ts = r``) and acks; on suspicion
   it nacks.  Either way it proceeds to round r+1.
4. *Phase 4* -- when c(r) has acks from a majority it reliably broadcasts
   the decision (relay-on-first-receipt), which terminates the instance
   everywhere.

The manager runs in one of two modes.  ``collect="majority"`` is [CT96]
as above; the CT atomic-broadcast baseline uses it.  OAR's Cnsv-order
uses ``collect="unsuspected"``, the paper's footnote 5: the coordinator
aggregates only the initial values of processes it does not suspect, so
that a wrongly suspected minority's optimistic order can be left out of
the decision (the Opt-undelivery of Figure 4).  Such a decision may
cover fewer than a majority, but never fewer than ``n - n // 2``
processes (rule (b)), so it meets every majority: a message a majority
Opt-delivered is in some aggregated initial value, which is what
Cnsv-order's undo consistency rests on.  Four rules keep agreement and
termination as in [CT96]:

(a) *Fixed quorum* (both modes).  A proposal needs estimates from a
    majority of distinct senders of its round, counted against the fixed
    ``n // 2 + 1``, never against the local view of who is suspected.
(b) *Suspicion filters initial values only* (footnote 5).  The
    highest-``ts`` aggregate among *all* the estimates held is adopted;
    suspicion only decides which initial values get aggregated, and only
    while the unsuspected ones left number at least ``n - n // 2`` (so
    that they meet every majority); otherwise all are aggregated.
(c) *Refusal* (footnote 5).  A participant that suspects c(r) on entering
    r sends it no estimate, and its ``CNack`` counts as a refusal.  Once
    some participant has refused, c(r) gives the round up as soon as a
    majority can no longer arrive: the estimates it holds plus the
    senders that neither refused nor are suspected.
(d) *Notice* (footnote 5).  A coordinator that gives a round up sends its
    ``CNack`` to everyone, and never proposes in that round.  A
    participant that gets c(r)'s ``CNack`` leaves round r, even when the
    ``CNack`` arrives before the participant enters r.

In both modes a process never suspects itself as a coordinator, and a
round left without a proposal advances on a zero-delay timer: a run of
round skips at one instant stops within n - 1 rounds, at the process's
own round.

Safety does not depend on the failure detector; liveness needs ◇S and a
majority of correct processes, exactly the paper's assumptions
(Section 3).

The :class:`ConsensusManager` multiplexes many instances (one per OAR
epoch) over a single host process and buffers messages of instances that
have not started locally yet (a process can receive round messages for
epoch k before it has itself entered phase 2 of epoch k).  An instance
that decides is dropped with all of its round state; the manager keeps
its decision vector alone, which is all a late message needs (it is
answered with ``CDecide``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from repro.failure.detector import FailureDetector
from repro.sim.component import Component
from repro.sim.process import Process
from repro.values import frozen_value

#: Estimate tags: an estimate is either the process's own initial value or
#: an aggregated vector adopted from some round's proposal.
INITIAL = "init"
AGGREGATE = "agg"

#: A decision is a vector of (pid, initial_value) pairs, sorted by pid,
#: covering a majority of the group ([CT96] mode) or at least
#: ``n - n // 2`` of it (footnote 5), so meeting every majority.
DecisionVector = Tuple[Tuple[str, Any], ...]

DecisionCallback = Callable[[Any, DecisionVector], None]


@frozen_value
class CEstimate:
    """Phase 1: a participant's current estimate, sent to the coordinator."""

    instance: Any
    round: int
    tag: str
    value: Any
    ts: int


@frozen_value
class CProposal:
    """Phase 2: the coordinator's proposal for one round."""

    instance: Any
    round: int
    value: DecisionVector


@frozen_value
class CAck:
    """Phase 3: acceptance of the round's proposal."""

    instance: Any
    round: int


@frozen_value
class CNack:
    """Phase 3: rejection after suspecting the round's coordinator.

    From the coordinator itself, the notice that it gave the round up
    (rule (d) of the module docstring).
    """

    instance: Any
    round: int


@frozen_value
class CDecide:
    """The decision, disseminated by relay-on-first-receipt."""

    instance: Any
    value: DecisionVector


class ConsensusInstance:
    """One instance of the rotating-coordinator algorithm."""

    def __init__(
        self,
        manager: "ConsensusManager",
        instance_id: Any,
        initial_value: Any,
        on_decide: DecisionCallback,
    ) -> None:
        self.manager = manager
        self.instance_id = instance_id
        self.participants = manager.participants
        self.majority = len(self.participants) // 2 + 1
        # Fewest initial values a footnote-5 aggregate keeps: any set this
        # large meets every majority (rule (b)).
        self.min_cover = len(self.participants) - self.majority + 1
        self.pid = manager.host.pid
        self.on_decide = on_decide
        self.footnote5 = manager.collect == "unsuspected"

        self.tag = INITIAL
        self.value: Any = initial_value
        self.ts = 0
        self.round = -1
        self.decided = False
        self.rounds_executed = 0

        # Coordinator-side state, keyed by round.
        self._estimates: Dict[int, Dict[str, CEstimate]] = {}
        self._acks: Dict[int, Set[str]] = {}
        self._proposals_made: Dict[int, DecisionVector] = {}
        self._refusals: Dict[int, Set[str]] = {}

        # Participant-side: rounds whose phase 3 (ack/nack) is done, and
        # rounds whose coordinator gave them up (rule (d); our own too).
        self._phase3_done: Set[int] = set()
        self._abandoned: Set[int] = set()

    # ------------------------------------------------------------------

    def coordinator(self, round_number: int) -> str:
        """The rotating coordinator c(r) = Π[r mod n]."""
        return self.participants[round_number % len(self.participants)]

    def _suspects(self, pid: str) -> bool:
        """The detector's verdict on ``pid``; a process never suspects itself."""
        return pid != self.pid and self.manager.fd.is_suspected(pid)

    def start(self) -> None:
        """Enter round 0 (phase 1: send the initial estimate)."""
        self._enter_round(0)

    def _enter_round(self, round_number: int) -> None:
        if self.decided:
            return
        self.round = round_number
        self.rounds_executed += 1
        if round_number in self._abandoned:
            self._nack(round_number)
            return
        coordinator = self.coordinator(round_number)
        suspected = self._suspects(coordinator)
        if not (suspected and self.footnote5):  # rule (c): a refusal sends none
            estimate = CEstimate(
                instance=self.instance_id,
                round=round_number,
                tag=self.tag,
                value=self.value,
                ts=self.ts,
            )
            if coordinator == self.pid:
                self._on_estimate(self.pid, estimate)
            else:
                self.manager.env.send(coordinator, estimate)
        # Phase 3 at once when the coordinator is already suspected.
        if suspected:
            self._nack(round_number)

    # ------------------------------------------------------------------
    # Message handlers (dispatched by the manager)
    # ------------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        """Dispatch one round message (the manager answers it once decided)."""
        if self.decided:
            return
        if isinstance(payload, CEstimate):
            self._on_estimate(src, payload)
        elif isinstance(payload, CProposal):
            self._on_proposal(src, payload)
        elif isinstance(payload, CAck):
            self._on_ack(src, payload)
        elif isinstance(payload, CNack):
            self._on_nack(src, payload)
        elif isinstance(payload, CDecide):
            self._on_decide(payload)

    def _on_estimate(self, src: str, estimate: CEstimate) -> None:
        bucket = self._estimates.setdefault(estimate.round, {})
        bucket[src] = estimate
        self._maybe_propose(estimate.round)

    def _maybe_propose(self, round_number: int) -> None:
        """Phase 2 trigger.

        Rule (a), both modes: propose once estimates from a majority of
        distinct senders of the round are in.  Rule (d), footnote 5: never
        in a round this coordinator gave up.  What is proposed (rule (b))
        is :meth:`_choose_proposal`'s.
        """
        bucket = self._estimates[round_number]
        if (
            len(bucket) < self.majority
            or round_number in self._proposals_made
            or round_number in self._abandoned
        ):
            return
        proposal_value = self._choose_proposal(bucket)
        self._proposals_made[round_number] = proposal_value
        proposal = CProposal(self.instance_id, round_number, proposal_value)
        for member in self.participants:
            if member == self.pid:
                self._on_proposal(self.pid, proposal)
            else:
                self.manager.env.send(member, proposal)

    def _choose_proposal(self, bucket: Dict[str, CEstimate]) -> DecisionVector:
        """Adopt the highest-ts aggregate, else aggregate the initial values.

        Rule (b): the aggregate is chosen among *all* the estimates held;
        in footnote-5 mode suspicion only drops the initial values of
        suspected senders from the aggregation, and only while at least
        ``min_cover`` unsuspected ones are left (else all of them are
        kept).  The aggregation order (sorted by pid)
        is deterministic so that the Cnsv-order reduction can reconstruct
        per-process proposals from the decision vector.
        """
        aggregated = [e for e in bucket.values() if e.tag == AGGREGATE]
        if aggregated:
            best = max(aggregated, key=lambda e: e.ts)
            return best.value
        pairs = [(pid, e.value) for pid, e in bucket.items()]
        if self.footnote5:
            kept = [pair for pair in pairs if not self._suspects(pair[0])]
            if len(kept) >= self.min_cover:
                pairs = kept
        return tuple(sorted(pairs))

    def _on_proposal(self, src: str, proposal: CProposal) -> None:
        round_number = proposal.round
        if round_number < self.round or round_number in self._phase3_done:
            return
        # Jumping forward on a higher-round proposal is safe: adopting a
        # proposal can only adopt the locked value (standard CT argument).
        self.round = max(self.round, round_number)
        self._phase3_done.add(round_number)
        self.tag = AGGREGATE
        self.value = proposal.value
        self.ts = round_number
        coordinator = self.coordinator(round_number)
        ack = CAck(self.instance_id, round_number)
        if coordinator == self.pid:
            self._on_ack(self.pid, ack)
        else:
            self.manager.env.send(coordinator, ack)
        self._enter_round(round_number + 1)

    def _nack(self, round_number: int) -> None:
        """Leave the current round without a proposal.

        The coordinator hears of it unless it is us or gave the round up
        itself.  The next round is entered on a zero-delay timer, not by
        a nested call, and only if no proposal moved us on meanwhile.
        """
        if self.decided or round_number in self._phase3_done:
            return
        if round_number != self.round:
            return
        self._phase3_done.add(round_number)
        coordinator = self.coordinator(round_number)
        if coordinator != self.pid and round_number not in self._abandoned:
            self.manager.env.send(coordinator, CNack(self.instance_id, round_number))
        self.manager.env.post(0.0, lambda: self._advance(round_number))

    def _advance(self, round_number: int) -> None:
        """The zero-delay step out of a round left without a proposal."""
        if self.round == round_number:
            self._enter_round(round_number + 1)

    def _on_nack(self, src: str, nack: CNack) -> None:
        round_number = nack.round
        if src == self.coordinator(round_number):
            # Rule (d): c(r) gave the round up.
            self._abandoned.add(round_number)
            self._nack(round_number)
        elif self.footnote5:
            # Rule (c): a participant that suspects us refused the round.
            # ([CT96] nacks are informational: the sender's estimate is
            # already in, and liveness comes from round advance.)
            self._refusals.setdefault(round_number, set()).add(src)
            self._maybe_give_up(round_number)

    def _maybe_give_up(self, round_number: int) -> None:
        """Rules (c) and (d): give a refused round up once a majority of
        estimates can no longer arrive.

        A round already left, proposed in or given up is settled: its
        refusals are dropped, so only rounds still ahead are re-checked.
        """
        if (
            round_number < self.round
            or round_number in self._proposals_made
            or round_number in self._abandoned
        ):
            self._refusals.pop(round_number, None)
            return
        bucket = self._estimates.get(round_number, {})
        refused = self._refusals[round_number]
        can_come = len(bucket) + sum(
            1
            for pid in self.participants
            if pid not in bucket and pid not in refused and not self._suspects(pid)
        )
        if can_come >= self.majority:
            return
        self._abandoned.add(round_number)
        del self._refusals[round_number]
        self._broadcast(CNack(self.instance_id, round_number))
        self._nack(round_number)

    def _on_ack(self, src: str, ack: CAck) -> None:
        acks = self._acks.setdefault(ack.round, set())
        acks.add(src)
        if len(acks) >= self.majority and ack.round in self._proposals_made:
            decision = CDecide(self.instance_id, self._proposals_made[ack.round])
            self._broadcast(decision)
            self._on_decide(decision)

    def _broadcast(self, payload: Any) -> None:
        for member in self.participants:
            if member != self.pid:
                self.manager.env.send(member, payload)

    def _on_decide(self, decision: CDecide) -> None:
        if self.decided:
            return
        self.decided = True
        # Relay-on-first-receipt: the decision reaches every correct
        # process even if its origin crashed mid-broadcast.
        self._broadcast(decision)
        self.manager.env.trace(
            "consensus_decide",
            instance=self.instance_id,
            rounds=self.rounds_executed,
        )
        self.on_decide(self.instance_id, decision.value)

    # ------------------------------------------------------------------

    def on_suspicion(self, pid: str, suspected: bool) -> None:
        """FD transition hook: nack the current round if its coordinator is
        newly suspected, and re-check the refused rounds we coordinate
        that are still ahead (one fewer sender can still come)."""
        if self.decided or self.round < 0 or not suspected or pid == self.pid:
            return
        if pid == self.coordinator(self.round):
            self._nack(self.round)
        for round_number in list(self._refusals):
            self._maybe_give_up(round_number)


_CONSENSUS_TYPES = (CEstimate, CProposal, CAck, CNack, CDecide)


class ConsensusManager(Component):
    """Multiplexes consensus instances (one per OAR epoch) over one process.

    Messages for instances the local process has not proposed in yet are
    buffered and replayed when :meth:`propose` is called; decisions that
    arrive before the local propose are stored and delivered immediately
    at propose time.  Only undecided instances are kept: a decided one
    leaves its decision vector in :attr:`_decided`, and any later
    traffic for it but a ``CDecide`` is answered with the decision, so
    a laggard terminates.
    """

    MESSAGE_TYPES = _CONSENSUS_TYPES

    def __init__(
        self,
        host: Process,
        participants: Sequence[str],
        fd: FailureDetector,
        collect: str = "majority",
    ) -> None:
        super().__init__(host)
        self.participants = list(participants)
        if host.pid not in self.participants:
            raise ValueError(f"{host.pid} is not a consensus participant")
        if collect not in ("majority", "unsuspected"):
            raise ValueError(f"unknown estimate-collection mode: {collect}")
        self.fd = fd
        self.collect = collect
        self._instances: Dict[Any, ConsensusInstance] = {}
        self._decided: Dict[Any, DecisionVector] = {}
        self._buffered: Dict[Any, List[Tuple[str, Any]]] = {}
        self._early_decisions: Dict[Any, DecisionVector] = {}
        fd.add_listener(self._on_suspicion)

    def start(self) -> None:
        """Nothing to do at host start; instances start on propose."""

    def propose(self, instance_id: Any, value: Any, on_decide: DecisionCallback) -> None:
        """Start (or join) instance ``instance_id`` with initial value ``value``."""
        if instance_id in self._instances or instance_id in self._decided:
            raise ValueError(f"already proposed in instance {instance_id!r}")

        def decided(instance_id: Any, vector: DecisionVector) -> None:
            self._instances.pop(instance_id, None)
            self._decided[instance_id] = vector
            on_decide(instance_id, vector)

        instance = ConsensusInstance(self, instance_id, value, decided)
        early = self._early_decisions.pop(instance_id, None)
        if early is not None:
            # What arrived before the decision is never replayed.
            self._buffered.pop(instance_id, None)
            instance._on_decide(CDecide(instance_id, early))
            return
        self._instances[instance_id] = instance
        instance.start()
        for src, payload in self._buffered.pop(instance_id, []):
            # Through the manager: the instance may decide mid-replay.
            self.on_message(src, payload)

    def on_message(self, src: str, payload: Any) -> None:
        """Route to the instance; answer traffic for decided ones and
        buffer/store it for unknown ones."""
        instance = self._instances.get(payload.instance)
        if instance is not None:
            instance.on_message(src, payload)
            return
        decision = self._decided.get(payload.instance)
        if decision is not None:
            # Help laggards terminate: answer any instance traffic with
            # the decision.
            if not isinstance(payload, CDecide) and src != self.host.pid:
                self.env.send(src, CDecide(payload.instance, decision))
            return
        if isinstance(payload, CDecide):
            # Decision for an instance we have not locally started: keep
            # it (and relay) so our later propose terminates instantly.
            if payload.instance not in self._early_decisions:
                self._early_decisions[payload.instance] = payload.value
                for member in self.participants:
                    if member != self.host.pid:
                        self.env.send(member, payload)
            return
        self._buffered.setdefault(payload.instance, []).append((src, payload))

    def _on_suspicion(self, pid: str, suspected: bool) -> None:
        for instance in list(self._instances.values()):
            instance.on_suspicion(pid, suspected)
