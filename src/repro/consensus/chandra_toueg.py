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
   value) pairs of the majority it heard from, ordered by pid.  This
   aggregation step is the entire Maj-validity modification ([Fel98]):
   the decided value is then always a sequence containing the initial
   values of a majority of processes.
3. *Phase 3* -- every process waits for c(r)'s proposal or suspects c(r)
   (◇S).  On a proposal it adopts it (``ts = r``) and acks; on suspicion
   it nacks.  Either way it proceeds to round r+1.
4. *Phase 4* -- when c(r) has acks from a majority it reliably broadcasts
   the decision (relay-on-first-receipt), which terminates the instance
   everywhere.

Safety does not depend on the failure detector; liveness needs ◇S and a
majority of correct processes, exactly the paper's assumptions
(Section 3).

The :class:`ConsensusManager` multiplexes many instances (one per OAR
epoch) over a single host process and buffers messages of instances that
have not started locally yet (a process can receive round messages for
epoch k before it has itself entered phase 2 of epoch k).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.failure.detector import FailureDetector
from repro.sim.component import Component
from repro.sim.process import Process
from repro.values import frozen_value

#: Estimate tags: an estimate is either the process's own initial value or
#: an aggregated vector adopted from some round's proposal.
INITIAL = "init"
AGGREGATE = "agg"

#: A decision is a vector of (pid, initial_value) pairs, sorted by pid,
#: covering a majority of the group.
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
    """Phase 3: rejection after suspecting the round's coordinator."""

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
        self.pid = manager.host.pid
        self.on_decide = on_decide
        self.collect = manager.collect

        self.tag = INITIAL
        self.value: Any = initial_value
        self.ts = 0
        self.round = -1
        self.decided = False
        self.decision: Optional[DecisionVector] = None
        self.rounds_executed = 0

        # Coordinator-side state, keyed by round.
        self._estimates: Dict[int, Dict[str, CEstimate]] = {}
        self._acks: Dict[int, Set[str]] = {}
        self._proposals_made: Dict[int, DecisionVector] = {}

        # Participant-side: rounds whose phase 3 (ack/nack) is done.
        self._phase3_done: Set[int] = set()

    # ------------------------------------------------------------------

    def coordinator(self, round_number: int) -> str:
        """The rotating coordinator c(r) = Π[r mod n]."""
        return self.participants[round_number % len(self.participants)]

    def start(self) -> None:
        """Enter round 0 (phase 1: send the initial estimate)."""
        self._enter_round(0)

    def _enter_round(self, round_number: int) -> None:
        if self.decided:
            return
        self.round = round_number
        self.rounds_executed += 1
        coordinator = self.coordinator(round_number)
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
        # Phase 3 may already be decidable: the coordinator is suspected,
        # or its proposal arrived before we entered the round.
        if self.manager.fd.is_suspected(coordinator):
            self._nack(round_number)

    # ------------------------------------------------------------------
    # Message handlers (dispatched by the manager)
    # ------------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        """Dispatch one round message (or help a laggard once decided)."""
        if self.decided:
            # Help laggards terminate: answer any instance traffic with
            # the decision.
            if not isinstance(payload, CDecide) and src != self.pid:
                self.manager.env.send(src, CDecide(self.instance_id, self.decision))
            if isinstance(payload, CDecide):
                pass  # already decided; relay was done on first receipt
            return
        if isinstance(payload, CEstimate):
            self._on_estimate(src, payload)
        elif isinstance(payload, CProposal):
            self._on_proposal(src, payload)
        elif isinstance(payload, CAck):
            self._on_ack(src, payload)
        elif isinstance(payload, CNack):
            pass  # nacks are informational; liveness comes from round advance
        elif isinstance(payload, CDecide):
            self._on_decide(payload)

    def _on_estimate(self, src: str, estimate: CEstimate) -> None:
        bucket = self._estimates.setdefault(estimate.round, {})
        bucket[src] = estimate
        self._maybe_propose(estimate.round)

    def _maybe_propose(self, round_number: int) -> None:
        """Phase 2 trigger.  Two collection disciplines:

        * ``majority`` (strict [CT96]): wait for estimates from a majority
          and aggregate over all of them.  This is the provably-safe
          default.
        * ``unsuspected`` (the paper's footnote 5, per [Fel98]): wait for
          an estimate from every participant the coordinator does *not*
          suspect, then aggregate over those estimates only.  A wrongly
          suspected minority's initial values can thus be excluded from
          the decision -- the precondition for the Opt-undelivery run of
          Figure 4.  The ack quorum is still a majority, so a decision is
          always anchored in a majority of processes.
        """
        bucket = self._estimates.get(round_number)
        if not bucket or round_number in self._proposals_made:
            return
        if self.collect == "unsuspected":
            eligible = {
                pid: est
                for pid, est in bucket.items()
                if not self.manager.fd.is_suspected(pid)
            }
            unsuspected = [
                pid
                for pid in self.participants
                if not self.manager.fd.is_suspected(pid)
            ]
            ready = eligible and all(pid in bucket for pid in unsuspected)
            if not ready and len(bucket) < len(self.participants):
                return
            if not eligible:
                eligible = dict(bucket)
        else:
            if len(bucket) < self.majority:
                return
            eligible = dict(bucket)
        proposal_value = self._choose_proposal(eligible)
        self._proposals_made[round_number] = proposal_value
        proposal = CProposal(self.instance_id, round_number, proposal_value)
        for member in self.participants:
            if member == self.pid:
                self._on_proposal(self.pid, proposal)
            else:
                self.manager.env.send(member, proposal)

    def _choose_proposal(self, bucket: Dict[str, CEstimate]) -> DecisionVector:
        """Adopt the highest-ts aggregate, else aggregate the initial values.

        The aggregation order (sorted by pid) is deterministic so that the
        Cnsv-order reduction can reconstruct per-process proposals from
        the decision vector.
        """
        aggregated = [e for e in bucket.values() if e.tag == AGGREGATE]
        if aggregated:
            best = max(aggregated, key=lambda e: e.ts)
            return best.value
        pairs = sorted((pid, e.value) for pid, e in bucket.items())
        return tuple(pairs)

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
        if self.decided or round_number in self._phase3_done:
            return
        if round_number != self.round:
            return
        self._phase3_done.add(round_number)
        coordinator = self.coordinator(round_number)
        if coordinator != self.pid:
            self.manager.env.send(coordinator, CNack(self.instance_id, round_number))
        # Pace round-skipping so a burst of suspicions cannot starve the
        # event loop; the delay is well below one message latency.
        delay = self.manager.round_skip_delay
        self.manager.env.set_timer(delay, lambda: self._enter_round(round_number + 1))

    def _on_ack(self, src: str, ack: CAck) -> None:
        acks = self._acks.setdefault(ack.round, set())
        acks.add(src)
        if len(acks) >= self.majority and ack.round in self._proposals_made:
            decision = CDecide(self.instance_id, self._proposals_made[ack.round])
            self._broadcast_decide(decision)
            self._on_decide(decision)

    def _broadcast_decide(self, decision: CDecide) -> None:
        for member in self.participants:
            if member != self.pid:
                self.manager.env.send(member, decision)

    def _on_decide(self, decision: CDecide) -> None:
        if self.decided:
            return
        self.decided = True
        self.decision = decision.value
        # Relay-on-first-receipt: the decision reaches every correct
        # process even if its origin crashed mid-broadcast.
        self._broadcast_decide(decision)
        self.manager.env.trace(
            "consensus_decide",
            instance=self.instance_id,
            rounds=self.rounds_executed,
        )
        self.on_decide(self.instance_id, decision.value)

    # ------------------------------------------------------------------

    def on_suspicion(self, pid: str, suspected: bool) -> None:
        """FD transition hook: nack the current round if its coordinator died.

        In ``unsuspected`` collection mode a new suspicion can also
        complete a pending phase-2 trigger (one fewer estimate to wait
        for), so re-check every round we hold estimates for.
        """
        if self.decided or self.round < 0:
            return
        if suspected and pid == self.coordinator(self.round):
            self._nack(self.round)
        if self.collect == "unsuspected" and suspected:
            for round_number in list(self._estimates):
                self._maybe_propose(round_number)


_CONSENSUS_TYPES = (CEstimate, CProposal, CAck, CNack, CDecide)


class ConsensusManager(Component):
    """Multiplexes consensus instances (one per OAR epoch) over one process.

    Messages for instances the local process has not proposed in yet are
    buffered and replayed when :meth:`propose` is called; decisions that
    arrive before the local propose are stored and delivered immediately
    at propose time.
    """

    MESSAGE_TYPES = _CONSENSUS_TYPES

    def __init__(
        self,
        host: Process,
        participants: Sequence[str],
        fd: FailureDetector,
        round_skip_delay: float = 0.05,
        collect: str = "majority",
    ) -> None:
        super().__init__(host)
        self.participants = list(participants)
        if host.pid not in self.participants:
            raise ValueError(f"{host.pid} is not a consensus participant")
        if collect not in ("majority", "unsuspected"):
            raise ValueError(f"unknown estimate-collection mode: {collect}")
        self.fd = fd
        self.round_skip_delay = round_skip_delay
        self.collect = collect
        self._instances: Dict[Any, ConsensusInstance] = {}
        self._buffered: Dict[Any, List[Tuple[str, Any]]] = {}
        self._early_decisions: Dict[Any, DecisionVector] = {}
        fd.add_listener(self._on_suspicion)

    def start(self) -> None:
        """Nothing to do at host start; instances start on propose."""

    def propose(self, instance_id: Any, value: Any, on_decide: DecisionCallback) -> None:
        """Start (or join) instance ``instance_id`` with initial value ``value``."""
        if instance_id in self._instances:
            raise ValueError(f"already proposed in instance {instance_id!r}")
        instance = ConsensusInstance(self, instance_id, value, on_decide)
        self._instances[instance_id] = instance
        early = self._early_decisions.pop(instance_id, None)
        if early is not None:
            instance._on_decide(CDecide(instance_id, early))
            return
        instance.start()
        for src, payload in self._buffered.pop(instance_id, []):
            instance.on_message(src, payload)

    def on_message(self, src: str, payload: Any) -> None:
        """Route to the instance; buffer/store traffic for unknown ones."""
        instance = self._instances.get(payload.instance)
        if instance is not None:
            instance.on_message(src, payload)
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
