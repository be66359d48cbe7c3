"""Fault-injection primitives over the simulated network.

The key scenario tool is :class:`CrashDuringMulticast`: the paper's
interesting runs all hinge on a process crashing *partway through* a
multicast -- the sequencer's ordering message reaching only some replicas
(Figures 3, 4) or nobody (Figure 1(b)).  A multicast in this codebase is a
plain loop of sends (e.g. :meth:`repro.core.server.OARServer._send_order`),
so a fault-plane drop rule can deliver the message to a chosen subset and
then crash the sender the instant the handler finishes.  A scenario
declares it, like every other fault, in its :class:`FaultSchedule`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set

from repro.sim.faultplane import LinkFaultPolicy
from repro.sim.network import SimNetwork

#: Predicate over message payloads selecting the multicast to disrupt.
PayloadMatch = Callable[[Any], bool]


class CrashDuringMulticast:
    """Drop rule: crash ``sender`` mid-multicast of a matching message.

    Once armed, the first send from ``sender`` whose payload satisfies
    ``match`` triggers: sends of that payload to destinations outside
    ``deliver_to`` are dropped, and the sender is crashed as soon as the
    current event (the multicast loop) completes -- messages to the
    allowed destinations are already in flight, everything later is lost.
    """

    def __init__(
        self,
        network: SimNetwork,
        sender: str,
        match: PayloadMatch,
        deliver_to: Iterable[str],
    ) -> None:
        self.network = network
        self.sender = sender
        self.match = match
        self.deliver_to: Set[str] = set(deliver_to)
        self.triggered_at: Optional[float] = None
        network.ensure_fault_plane().add_drop_rule(self)

    def __call__(self, src: str, dst: str, payload: Any) -> bool:
        # A crashed sender sends nothing: once it is gone, no call here.
        if src != self.sender or not self.match(payload):
            return False
        if self.triggered_at is None:
            self.triggered_at = self.network.sim.now
            # After the multicast loop finishes (same instant, later
            # event), the sender is gone.
            self.network.sim.call_soon(partial(self.network.crash, self.sender))
        return dst not in self.deliver_to


@dataclass(frozen=True)
class FaultAction:
    """One timed action in a :class:`FaultSchedule`.

    ``kind`` is one of ``crash``, ``partition``, ``heal``, ``oneway``,
    ``heal_oneway``, ``suspect``, ``unsuspect``.  ``target`` is a pid for
    crash/suspect/unsuspect, a sequence of groups for partition, a
    sequence of ``(src, dst)`` link directions for oneway, and unused
    for heal/heal_oneway.  Suspicion
    actions require ``detectors`` to be passed to :meth:`FaultSchedule.apply`
    (they force the scripted/heartbeat detector of *every* process, i.e. a
    network-wide simultaneous suspicion; per-process scripting can use the
    detectors directly).
    """

    time: float
    kind: str
    target: Any = None


@dataclass
class FaultSchedule:
    """Every fault of a run: standing rules (:meth:`install`) and timed actions (:meth:`apply`)."""

    actions: List[FaultAction] = field(default_factory=list)
    #: Standing rules, in the order added: each installs itself on a network.
    rules: List[Callable[[SimNetwork], Any]] = field(default_factory=list)

    def crash(self, time: float, pid: str) -> "FaultSchedule":
        """Add a crash of ``pid`` at ``time``; returns self for chaining."""
        self.actions.append(FaultAction(time, "crash", pid))
        return self

    def partition(self, time: float, groups: Sequence[Sequence[str]]) -> "FaultSchedule":
        """Add a partition into ``groups`` at ``time``."""
        self.actions.append(
            FaultAction(time, "partition", tuple(tuple(g) for g in groups))
        )
        return self

    def heal(self, time: float) -> "FaultSchedule":
        """Add a heal (release all held messages) at ``time``."""
        self.actions.append(FaultAction(time, "heal"))
        return self

    def oneway(self, time: float, pairs: Sequence[Sequence[str]]) -> "FaultSchedule":
        """Add an asymmetric partition at ``time``.

        ``pairs`` is a sequence of ``(src, dst)`` link directions to
        mute (either side may be ``"*"``); traffic on the muted
        directions is *held* by the network's fault plane, the reverse
        directions stay up.  Released by :meth:`heal_oneway`.
        """
        self.actions.append(
            FaultAction(time, "oneway", tuple(tuple(p) for p in pairs))
        )
        return self

    def heal_oneway(self, time: float) -> "FaultSchedule":
        """Heal all one-way blocks at ``time`` (a partition-heal storm:
        every held message is released in one burst)."""
        self.actions.append(FaultAction(time, "heal_oneway"))
        return self

    def suspect(self, time: float, pid: str) -> "FaultSchedule":
        """Force every detector to suspect ``pid`` at ``time``."""
        self.actions.append(FaultAction(time, "suspect", pid))
        return self

    def unsuspect(self, time: float, pid: str) -> "FaultSchedule":
        """Retract the forced suspicion of ``pid`` at ``time``."""
        self.actions.append(FaultAction(time, "unsuspect", pid))
        return self

    def links(
        self, src: str = "*", dst: str = "*", kind: str = "*", **probabilities: float
    ) -> "FaultSchedule":
        """Add a standing rule: ``src -> dst`` messages of payload kind
        ``kind`` (each ``"*"`` or exact) roll ``LinkFaultPolicy(**probabilities)``;
        the first added matching rule wins."""
        policy = LinkFaultPolicy(**probabilities)
        self.rules.append(lambda net: net.ensure_fault_plane().add_policy(policy, src, dst, kind))
        return self

    def crash_during_multicast(
        self, sender: str, match: PayloadMatch, deliver_to: Iterable[str]
    ) -> "FaultSchedule":
        """Add a standing :class:`CrashDuringMulticast` rule."""
        deliver_to = frozenset(deliver_to)  # the rule may be installed on many runs
        self.rules.append(lambda net: CrashDuringMulticast(net, sender, match, deliver_to))
        return self

    def install(self, network: SimNetwork) -> None:
        """Install the standing rules; call before any process starts."""
        for rule in self.rules:
            rule(network)

    def apply(self, network: SimNetwork, detectors: Sequence[Any] = ()) -> None:
        """Schedule every timed action on the network's simulator.

        ``ValueError`` first if an action has an unknown kind or names a
        pid (``"*"`` aside) the network lacks: it would do nothing.
        """
        known = set(network.pids)
        for action in self.actions:
            unknown = sorted(set(_named_pids(action)) - known)
            if unknown:
                raise ValueError(f"fault action {action.kind!r} at t={action.time} names "
                                 f"{unknown}, which this deployment lacks; it has {sorted(known)}")
        for action in self.actions:
            network.sim.schedule_at(
                action.time, _make_action(network, detectors, action)
            )

    @property
    def crash_times(self) -> List[float]:
        return [a.time for a in self.actions if a.kind == "crash"]


def _named_pids(action: FaultAction) -> List[str]:
    """The pids ``action`` names; ``ValueError`` for an unknown kind."""
    kind, target = action.kind, action.target
    if kind in ("crash", "suspect", "unsuspect"):
        return [target]
    if kind in ("partition", "oneway"):  # groups / (src, dst) pairs
        return [pid for group in target for pid in group if pid != "*"]
    if kind in ("heal", "heal_oneway"):
        return []
    raise ValueError(f"unknown fault action: {kind}")


def _make_action(
    network: SimNetwork, detectors: Sequence[Any], action: FaultAction
) -> Callable[[], None]:
    def run() -> None:
        if action.kind == "crash":
            network.crash(action.target)
        elif action.kind == "partition":
            network.ensure_fault_plane().partition(action.target)
        elif action.kind == "heal":
            network.ensure_fault_plane().heal_partition()
        elif action.kind == "oneway":
            for src, dst in action.target:
                network.ensure_fault_plane().block(src, dst)
        elif action.kind == "heal_oneway":
            network.ensure_fault_plane().heal()
        elif action.kind == "suspect":
            for detector in detectors:
                detector.force_suspect(action.target)
        elif action.kind == "unsuspect":
            for detector in detectors:
                detector.force_unsuspect(action.target)
        else:
            raise ValueError(f"unknown fault action: {action.kind}")

    return run


def random_fault_schedule(
    rng: random.Random,
    pids: Sequence[str],
    horizon: float,
    max_crashes: int,
    suspicion_rate: float = 0.0,
    partition_probability: float = 0.0,
    partition_duration: float = 20.0,
) -> FaultSchedule:
    """A seeded random schedule respecting the majority-correct assumption.

    At most ``max_crashes`` (must leave a majority alive) crash events at
    uniform times; optional transient wrong suspicions of live processes
    (each later retracted); optional one partition window that isolates a
    minority.
    """
    majority = len(pids) // 2 + 1
    if len(pids) - max_crashes < majority:
        raise ValueError("schedule would violate the majority-correct assumption")
    schedule = FaultSchedule()
    victims = rng.sample(list(pids), max_crashes)
    for victim in victims:
        schedule.crash(rng.uniform(horizon * 0.1, horizon * 0.8), victim)
    survivors = [pid for pid in pids if pid not in victims]
    if suspicion_rate > 0:
        for pid in survivors:
            if rng.random() < suspicion_rate:
                start = rng.uniform(horizon * 0.1, horizon * 0.7)
                schedule.suspect(start, pid)
                schedule.unsuspect(start + rng.uniform(5.0, 20.0), pid)
    if partition_probability > 0 and rng.random() < partition_probability:
        minority_size = rng.randint(1, len(pids) - majority)
        minority = rng.sample(list(pids), minority_size)
        rest = [pid for pid in pids if pid not in minority]
        start = rng.uniform(horizon * 0.1, horizon * 0.6)
        schedule.partition(start, [minority, rest])
        schedule.heal(start + partition_duration)
    schedule.actions.sort(key=lambda a: a.time)
    return schedule
