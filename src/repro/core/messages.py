"""Wire-level message types of the OAR protocol.

All messages are frozen dataclasses: hashable, comparable, safe to put in
sets, and registered with the TCP runtime's wire codec
(:mod:`repro.runtime.codec`).  Client operations are plain tuples (e.g.
``("push", "x")``) so that they are deterministic and serializable
without a registry.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Tuple

from repro.values import frozen_value


@frozen_value
class Request:
    """A client request, R-multicast to the server group Π (Fig. 5, line 2).

    ``rid`` is globally unique (client id + client-local counter).
    ``op`` is the deterministic state-machine operation tuple.
    ``retransmits`` says the client may send the rid again (it has a
    retry interval): only then do replicas keep its reply to re-send.
    """

    rid: str
    client: str
    op: Tuple[Any, ...]
    retransmits: bool = False

    def __repr__(self) -> str:
        return f"Request({self.rid}, {self.op})"


@frozen_value
class Reply:
    """A server's reply to a request (Fig. 6, lines 19 and 29).

    ``weight`` is the set of servers that endorse this reply (Section 5.2):
    ``{s}`` for the sequencer's own optimistic reply, ``{p, s}`` for
    another server's optimistic reply, and the whole group Π for a
    conservative (A-delivered) reply.

    ``position`` is the global processing order of the request, the
    "reply number" used throughout the paper's proofs (Appendix A).
    ``value`` is the actual state-machine result.

    ``slot`` is the *sequencer-assigned* epoch slot the replying replica
    learned from the :class:`SeqOrder` that carried this rid (``None``
    on conservative replies and on replies no order message backs).
    Unlike ``position`` -- which is replica-local and legitimately skews
    when a replica misses an order message under loss -- the slot is a
    claim about what the sequencer *said*, so two replies disagreeing on
    the (epoch, slot) of a rid is evidence of sequencer equivocation,
    never of benign message loss.  Clients cross-check these order
    certificates; see ``OARClient._record_order_certificate``.
    """

    rid: str
    value: Any
    position: int
    weight: FrozenSet[str]
    epoch: int
    conservative: bool = False
    slot: Optional[int] = None

    def __repr__(self) -> str:
        kind = "A" if self.conservative else "opt"
        return (
            f"Reply({self.rid}, value={self.value!r}, pos={self.position}, "
            f"W={sorted(self.weight)}, k={self.epoch}, {kind})"
        )


@frozen_value
class ReadRequest:
    """A replica-local read (never ordered by the sequencer).

    Sent point-to-point to one replica (optimistic read mode) or to the
    whole group (conservative mode); the replica executes the read-only
    operation against its current state -- the adopted prefix plus its
    optimistic suffix -- and answers with a :class:`ReadReply` without
    involving the ordering pipeline.  ``rid`` lives in its own namespace
    (``<client>-r<n>``) so read ids never collide with ordered requests.

    ``round`` counts the client's polling rounds for this rid (bumped on
    every retransmit/re-poll) and is echoed in the reply: a conservative
    quorum must form among *same-round* replies only, or a stale reply
    from a superseded round could combine with fresh ones into a
    majority no single instant ever held.
    """

    rid: str
    client: str
    op: Tuple[Any, ...]
    round: int = 0

    def __repr__(self) -> str:
        return f"ReadRequest({self.rid}, {self.op})"


@frozen_value
class ReadReply:
    """A replica's answer to a :class:`ReadRequest`.

    ``position`` is the replica's full delivery position when the read
    executed (``|A_delivered| + |O_delivered|``); ``settled`` is the
    length of the conservatively settled prefix alone.  ``opt_depth =
    position - settled`` is how much of the observed state was still
    optimistic -- the client tags adoptions with it so staleness is
    measurable after the fact.
    """

    rid: str
    value: Any
    position: int
    settled: int
    epoch: int
    round: int = 0

    def __repr__(self) -> str:
        return (
            f"ReadReply({self.rid}, value={self.value!r}, pos={self.position}, "
            f"settled={self.settled}, k={self.epoch}, round={self.round})"
        )


@frozen_value
class ShedNotice:
    """The sequencer's refusal under overload: a deterministic answer.

    Sent point-to-point to the client when the admission queue (writes)
    or the read queue (replica-local reads) is at its configured bound.
    The request is *not* ordered; the client surfaces an
    ``OpResult(ok=False, value=Overloaded(cls, queue, limit))`` through
    the normal adoption callback so the caller observes the refusal
    synchronously and can back off.  ``queue``/``limit`` advertise the
    pressure at the decision point (see ``repro.core.admission``).
    """

    rid: str
    cls: str
    queue: int
    limit: int

    def __repr__(self) -> str:
        return f"ShedNotice({self.rid}, {self.cls}, q={self.queue}/{self.limit})"


@frozen_value
class SeqOrder:
    """The sequencer's ordering message ``(k, O_notdelivered)`` (Fig. 6, line 10).

    ``start`` is the epoch slot of ``rids[0]``: the sequencer numbers
    every rid it orders within an epoch consecutively, so a replica can
    detect a *gap* (a lost order message) instead of silently adopting
    a shifted optimistic order, and each rid's slot (``start + index``)
    is a loss-invariant order certificate for equivocation detection.
    Under FIFO benign links ``start`` always equals the count already
    accepted, which keeps the hardened accept path byte-identical to
    the original protocol.
    """

    epoch: int
    rids: Tuple[str, ...]
    start: int = 0

    def __repr__(self) -> str:
        return f"SeqOrder(k={self.epoch}, {{{';'.join(self.rids)}}})"


@frozen_value
class OrderNack:
    """Anti-entropy: "I hold order slots for rids whose bodies I miss".

    Requests travel by R-multicast (n-squared relay paths: robust to
    loss), but under sustained drop a replica can still learn a rid
    from a :class:`SeqOrder` before any copy of the request body
    arrives.  The periodic sync tick sends the missing rids to peers;
    any peer holding the bodies answers with a :class:`BodyBatch`.
    """

    epoch: int
    rids: Tuple[str, ...]

    def __repr__(self) -> str:
        return f"OrderNack(k={self.epoch}, {{{';'.join(self.rids)}}})"


@frozen_value
class BodyBatch:
    """The answer to an :class:`OrderNack`: the requested request bodies.

    Receivers feed each body through the ordinary R-delivery path,
    which is rid-idempotent (known bodies are dropped, cached replies
    re-sent), so a duplicated or crossed batch is harmless.
    """

    requests: Tuple[Request, ...]

    def __repr__(self) -> str:
        rids = ";".join(request.rid for request in self.requests)
        return f"BodyBatch({{{rids}}})"


@frozen_value
class PhaseII:
    """The ``(k, PhaseII)`` notification (Fig. 6, line 21).

    ``reason`` distinguishes suspicion-triggered phase changes from the
    periodic garbage-collection variant suggested in the Remark of
    Section 5.3 (it does not affect the protocol, only the traces).
    """

    epoch: int
    reason: str = "suspicion"

    def __repr__(self) -> str:
        return f"PhaseII(k={self.epoch}, {self.reason})"
