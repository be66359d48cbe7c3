"""Composable fault plane for :class:`~repro.sim.network.SimNetwork`.

The base network implements the paper's benign model: reliable FIFO
channels and crash-stop.  Every other fault -- scripted drops, partitions
that *delay* messages, probabilistic loss, duplication, reorder/jitter,
payload corruption, asymmetric (one-way) partitions, heal storms -- lives
here, behind a single hook in ``SimNetwork.transmit``.  A network without
a plane installed pays nothing (one attribute check per send) and behaves
byte-identically to the benign model.

Composition model
-----------------

* **Drop rules** suppress a send before anything else sees it (the
  scripted :class:`~repro.faults.injection.CrashDuringMulticast`).
* **Partitions** hold every message between two groups until
  :meth:`FaultPlane.heal_partition` releases it behind the FIFO floor.
* **Policies** (:class:`LinkFaultPolicy`) are matched per message by
  ``(src, dst, payload-kind)`` patterns, first match wins; ``"*"``
  matches anything.  The payload kind set of a message includes its
  class name, and -- reaching through :class:`~repro.broadcast.reliable.RMsg`
  wrappers -- the inner class name plus the operation kind of a
  :class:`~repro.core.messages.Request` (e.g. ``"mig_install"``), so a
  policy can target exactly one protocol step.
* **One-way blocks** (:meth:`FaultPlane.block`) hold every matching
  ``src -> dst`` message (not matched messages in the other direction:
  this is the *asymmetric* partition crash-stop chaos can never
  produce).  :meth:`FaultPlane.heal` releases everything held in one
  instant -- the heal *storm* -- bypassing the FIFO floor so the burst
  genuinely arrives interleaved.
* **Rewrites** are targeted payload transformations (the equivocation
  scenarios swap rids inside one ``SeqOrder``); they run *before* the
  wire checksum is stamped, because a Byzantine sender computes a valid
  checksum for whatever it sends, unlike line noise.
* **Corruption** wraps the payload *after* the checksum is stamped, so
  the receiving network detects the mismatch and drops the message
  (traced ``msg_corrupt_drop``) instead of delivering garbage to the
  protocol.

Every injected fault is counted *and* traced (``msg_drop``, ``msg_dup``,
``msg_corrupt``, ``msg_jitter``, ``msg_held``, ``msg_rewrite``,
``heal_storm``, ``heal``); :func:`repro.analysis.checkers.check_fault_plane_accounting`
cross-checks the two so a fault can never silently vanish.

All randomness draws from ``sim.child_rng("faultplane")``: runs stay
deterministic per seed, and installing a plane never perturbs the RNG
streams of the processes or the latency model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple
)

from repro.sim.network import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network hooks us)
    from repro.sim.network import SimNetwork

#: Rewrite signature: ``(src, dst, payload) -> replacement | None``.
#: Returning ``None`` leaves the payload untouched.
RewriteHook = Callable[[str, str, Any], Optional[Any]]

DropRule = Callable[[str, str, Any], bool]  #: ``(src, dst, payload) -> drop?``


def wire_checksum(payload: Any) -> int:
    """The lightweight wire checksum: CRC-32 of the payload's repr.

    Every wire message in the repo has a faithful ``repr`` (the trace
    digests already depend on that), so repr equality is payload
    equality for checksum purposes -- no serialization layer needed in
    a simulator.
    """
    return zlib.crc32(repr(payload).encode())


class CorruptedPayload:
    """A payload mangled in flight (bit-rot stand-in).

    Wrapping (rather than mutating) keeps the original intact for
    accounting: the checker can re-verify that every corrupt message
    was either dropped at delivery or is still held somewhere.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptedPayload({self.original!r})"


@dataclass(frozen=True)
class LinkFaultPolicy:
    """Per-message fault probabilities for one matched link/kind.

    ``drop``/``duplicate``/``corrupt``/``jitter`` are independent
    probabilities in [0, 1].  Duplication creates one extra copy; each
    copy then independently rolls drop/corrupt/jitter (a duplicated
    message can lose one copy and corrupt the other).  ``jitter`` adds
    ``uniform(0, jitter_span)`` to the one-way delay *and bypasses the
    FIFO floor*, so jittered messages genuinely reorder against their
    channel -- the burst-reorder fault FIFO channels otherwise forbid.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    jitter: float = 0.0
    jitter_span: float = 5.0

    def __post_init__(self) -> None:
        for field in ("drop", "duplicate", "corrupt", "jitter"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be a probability, got {value}")
        if self.jitter_span < 0.0:
            raise ValueError(f"jitter_span must be >= 0, got {self.jitter_span}")


def payload_kinds(payload: Any) -> Set[str]:
    """The kind names a policy pattern can match for one payload.

    Includes the payload class name; for R-multicast envelopes also the
    wrapped payload's class name, and for requests the operation kind
    (``op[0]``), so policies can target e.g. every ``"mig_install"``
    regardless of which relay leg carries it.
    """
    kinds = {type(payload).__name__}
    inner = getattr(payload, "payload", None)
    if inner is not None and type(payload).__name__ == "RMsg":
        kinds.add(type(inner).__name__)
        payload = inner
    op = getattr(payload, "op", None)
    if isinstance(op, tuple) and op and isinstance(op[0], str):
        kinds.add(op[0])
    return kinds


class FaultPlane:
    """The fault injector installed on a :class:`SimNetwork`.

    Construct via ``network.ensure_fault_plane()`` (idempotent) rather
    than directly; the network routes every send through :meth:`process`
    once a plane is installed.  The plane owns every held envelope.
    """

    def __init__(self, network: "SimNetwork") -> None:
        self.network = network
        self.rng = network.sim.child_rng("faultplane")
        #: Scripted drops, asked first about every send (any True drops).
        self._drop_rules: List[DropRule] = []
        #: First-match-wins policy rules: (src, dst, kind, policy).
        self._rules: List[Tuple[str, str, str, LinkFaultPolicy]] = []
        self._rewrites: List[RewriteHook] = []
        #: One-way blocked links; "*" wildcards either side.
        self._blocked: Set[Tuple[str, str]] = set()
        self._held: List[Envelope] = []
        #: The symmetric partition: group index per pid, None when healed.
        self._group_of: Optional[Dict[str, int]] = None
        self._partition_held: List[Envelope] = []
        self._checksums = False
        # Fault accounting (cross-checked against the trace by
        # check_fault_plane_accounting).
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.jittered = 0
        self.held = 0
        self.released = 0
        self.rewritten = 0
        self.partition_held = 0
        self.partition_released = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> None:
        """Drop every message ``rule`` returns True for (checked first)."""
        self._drop_rules.append(rule)

    def add_policy(
        self,
        policy: LinkFaultPolicy,
        src: str = "*",
        dst: str = "*",
        kind: str = "*",
    ) -> None:
        """Match ``(src, dst, kind)`` messages (first added rule wins)."""
        self._rules.append((src, dst, kind, policy))
        if policy.corrupt > 0.0:
            # Checksums are stamped on *every* message once any policy
            # can corrupt: a corrupt message must be detectable no
            # matter which rule it matched.
            self._checksums = True

    def add_rewrite(self, hook: RewriteHook) -> None:
        """Install a targeted payload rewrite (runs before checksums)."""
        self._rewrites.append(hook)

    def block(self, src: str, dst: str) -> None:
        """One-way partition: hold every ``src -> dst`` message."""
        self._blocked.add((src, dst))
        trace = self.network.trace
        if trace.enabled:
            trace.record(
                self.network.sim.now, "*faultplane*", "oneway_block",
                src=src, dst=dst,
            )

    def unblock(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))

    def heal(self) -> None:
        """Drop all one-way blocks and release held traffic in one storm.

        Every held message is scheduled *now*, in send order but with
        the FIFO floor bypassed: the receiver sees the whole backlog
        land in one latency window, interleaved with live traffic --
        the reconnection burst that shakes out fragile dedup paths.
        """
        self._blocked.clear()
        held, self._held = self._held, []
        held.sort(key=lambda envelope: envelope.seq)
        self.released += len(held)
        for envelope in held:
            self._dispatch(envelope, 0.0, False)
        trace = self.network.trace
        if trace.enabled:
            trace.record(
                self.network.sim.now, "*faultplane*", "heal_storm",
                released=len(held),
            )

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the network into the given groups.

        Messages crossing group boundaries are held and released on
        :meth:`heal_partition` (delayed, not lost -- channels stay
        reliable).  Processes not named in any group form one implicit
        extra group.
        """
        group_of: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                if pid in group_of:
                    raise ValueError(f"{pid} appears in two partition groups")
                group_of[pid] = index
        self._group_of = group_of
        self.network.trace.record(
            self.network.sim.now, "*network*", "partition",
            groups=[sorted(g) for g in map(list, groups)],
        )

    def heal_partition(self) -> None:
        """Remove the partition and release all held messages.

        Held messages are released in global send order (their ``seq``):
        a message that was already in flight when the partition formed
        was *sent* before anything held at send time, and FIFO is defined
        by send order.
        """
        self._group_of = None
        held, self._partition_held = self._partition_held, []
        held.sort(key=lambda envelope: envelope.seq)
        self.partition_released += len(held)
        network = self.network
        for envelope in held:
            network._schedule_delivery(envelope)
        network.trace.record(network.sim.now, "*network*", "heal", released=len(held))

    @property
    def pending_held(self) -> int:
        """Messages currently held by one-way blocks."""
        return len(self._held)

    def held_envelopes(self) -> List[Envelope]:
        """Every envelope held now, by one-way blocks or the partition."""
        return self._held + self._partition_held

    def stats(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "jittered": self.jittered,
            "held": self.held,
            "released": self.released,
            "rewritten": self.rewritten,
            "pending_held": len(self._held),
            "partition_held": self.partition_held,
            "partition_released": self.partition_released,
            "pending_partition_held": len(self._partition_held),
        }

    # ------------------------------------------------------------------
    # The per-message path (called by SimNetwork.transmit and _deliver)
    # ------------------------------------------------------------------

    def held_by_partition(self, envelope: Envelope) -> bool:
        """Hold ``envelope`` if the partition separates its ends (asked on
        the wire and again on arrival, for a partition formed in flight)."""
        group_of = self._group_of
        if group_of is None or group_of.get(envelope.src, -1) == group_of.get(envelope.dst, -1):
            return False
        self._partition_held.append(envelope)
        self.partition_held += 1
        return True

    def _dispatch(self, envelope: Envelope, extra_delay: float, fifo: bool) -> None:
        if not self.held_by_partition(envelope):
            self.network._schedule_delivery(envelope, extra_delay, fifo)

    def _blocked_link(self, src: str, dst: str) -> bool:
        blocked = self._blocked
        if not blocked:
            return False
        return (
            (src, dst) in blocked
            or (src, "*") in blocked
            or ("*", dst) in blocked
        )

    def _match(self, src: str, dst: str, payload: Any) -> Optional[LinkFaultPolicy]:
        kinds: Optional[Set[str]] = None
        for rule_src, rule_dst, rule_kind, policy in self._rules:
            if rule_src != "*" and rule_src != src:
                continue
            if rule_dst != "*" and rule_dst != dst:
                continue
            if rule_kind != "*":
                if kinds is None:
                    kinds = payload_kinds(payload)
                if rule_kind not in kinds:
                    continue
            return policy
        return None

    def process(self, envelope: Envelope) -> None:
        """Apply drop rules, rewrites, checksums, blocks, and the matched policy."""
        network = self.network
        trace = network.trace
        traced = trace.enabled
        now = network.sim.now
        src, dst = envelope.src, envelope.dst
        for rule in self._drop_rules:
            if rule(src, dst, envelope.payload):
                if network.trace_messages:
                    trace.record(now, src, "msg_dropped", dst=dst, payload=envelope.payload)
                return
        if self._rewrites:
            for hook in self._rewrites:
                replacement = hook(src, dst, envelope.payload)
                if replacement is not None:
                    envelope.payload = replacement
                    self.rewritten += 1
                    if traced:
                        trace.record(
                            now, src, "msg_rewrite",
                            dst=dst, payload=replacement,
                        )
        # The checksum covers what the sender *sent* (post-rewrite: a
        # Byzantine sender signs its own lie); line-noise corruption
        # below deliberately does not re-stamp.
        if self._checksums:
            envelope.checksum = wire_checksum(envelope.payload)
        if self._blocked_link(src, dst):
            self._held.append(envelope)
            self.held += 1
            if traced:
                trace.record(
                    now, src, "msg_held", dst=dst, payload=envelope.payload
                )
            return
        policy = self._match(src, dst, envelope.payload)
        dispatch = self._dispatch
        if policy is None:
            dispatch(envelope, 0.0, True)
            return
        rng = self.rng
        copies = [envelope]
        if policy.duplicate > 0.0 and rng.random() < policy.duplicate:
            clone = Envelope(
                next(network._seq), src, dst, envelope.payload,
                envelope.send_time,
            )
            clone.checksum = envelope.checksum
            copies.append(clone)
            self.duplicated += 1
            if traced:
                trace.record(now, src, "msg_dup", dst=dst, payload=envelope.payload)
        for copy in copies:
            if policy.drop > 0.0 and rng.random() < policy.drop:
                self.dropped += 1
                if traced:
                    trace.record(now, src, "msg_drop", dst=dst, payload=copy.payload)
                continue
            if policy.corrupt > 0.0 and rng.random() < policy.corrupt:
                copy.payload = CorruptedPayload(copy.payload)
                self.corrupted += 1
                if traced:
                    trace.record(
                        now, src, "msg_corrupt", dst=dst, payload=copy.payload
                    )
            extra = 0.0
            fifo = True
            if policy.jitter > 0.0 and rng.random() < policy.jitter:
                extra = rng.uniform(0.0, policy.jitter_span)
                fifo = False
                self.jittered += 1
                if traced:
                    trace.record(
                        now, src, "msg_jitter",
                        dst=dst, extra=extra, payload=copy.payload,
                    )
            dispatch(copy, extra, fifo)
