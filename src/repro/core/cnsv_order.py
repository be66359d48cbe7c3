"""The conservative ordering procedure ``Cnsv-order`` (Fig. 7, Sections 5.4-5.5).

``Cnsv-order`` is solved by reduction to consensus with Maj-validity: each
process proposes the pair ``(O_delivered, O_notdelivered)``; the decision
``Dk`` is a vector of such pairs covering a majority of processes.  The
post-processing of the decision -- computing which optimistic deliveries
were *Bad* (must be undone) and which messages are *New* (must be
A-delivered) -- is a pure function of the local ``O_delivered`` and the
decision vector, implemented here exactly as Figure 7 and unit/property
tested against the specification of Section 5.4:

* Termination, Agreement, Unicity, Non-triviality, Validity,
* Undo legality (Bad is a suffix of O_delivered),
* Undo consistency (a message undone locally was Opt-delivered by at most
  a minority),
* Undo thriftiness (never undo messages just to re-deliver them in the
  same order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.core.sequences import (
    EMPTY,
    MessageSequence,
    as_sequence,
    common_prefix,
    merge_dedup,
)

#: One process's consensus proposal: (O_delivered, O_notdelivered), both
#: tuples of request ids in local order.
CnsvProposal = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: The consensus decision: ((pid, proposal), ...) sorted by pid, covering a
#: majority of the group (Maj-validity).
CnsvDecision = Tuple[Tuple[str, CnsvProposal], ...]


@dataclass(frozen=True)
class CnsvOrderResult:
    """The output ``{Bad; New}`` of Cnsv-order, plus diagnostics.

    ``bad``  -- messages this process Opt-delivered in the wrong order;
    they must be Opt-undelivered in reverse delivery order.
    ``new``  -- messages to A-deliver, in delivery order.
    ``good`` -- messages Opt-delivered in the right order (kept).
    ``dlv_max`` -- the longest agreed optimistic prefix in the decision.
    """

    bad: MessageSequence
    new: MessageSequence
    good: MessageSequence
    dlv_max: MessageSequence

    @property
    def final_sequence(self) -> MessageSequence:
        """(O_delivered ⊖ Bad) ⊕ New -- the epoch's agreed delivery sequence."""
        return self.good.concat(self.new)


def compute_bad_new(
    o_delivered: MessageSequence,
    decision: CnsvDecision,
) -> CnsvOrderResult:
    """Figure 7, lines 5-19: post-process the consensus decision.

    Parameters
    ----------
    o_delivered:
        This process's ``O_delivered`` -- the messages it optimistically
        delivered during the current epoch, in delivery order.
    decision:
        The Maj-validity consensus decision ``Dk``: pairs
        ``(dlv_i, notdlv_i)`` from a majority of processes.
    """
    if not decision:
        raise ValueError("empty consensus decision")

    delivered_seqs = [as_sequence(dlv) for _pid, (dlv, _notdlv) in decision]
    notdelivered_seqs = [as_sequence(notdlv) for _pid, (_dlv, notdlv) in decision]

    # Line 5: dlvmax <- the longest dlv_i in Dk.  (By Lemma 2 the dlv_i are
    # prefix-related, so "longest" is unambiguous up to equality.)
    dlv_max = max(delivered_seqs, key=len)

    # Lines 6-11: split O_delivered into Good (correctly ordered prefix)
    # and Bad (wrongly ordered suffix), and start New with the part of
    # dlvmax not yet delivered locally.
    if o_delivered.is_prefix_of(dlv_max):
        # O_delivered is a prefix of dlvmax: nothing to undo, and
        # dlvmax ⊖ O_delivered is the rest of dlvmax.
        new = dlv_max.suffix_from(len(o_delivered))
        good = o_delivered
        bad = EMPTY
    else:
        # Good is a prefix of O_delivered, so O_delivered ⊖ Good is the
        # rest of O_delivered.
        good = common_prefix(o_delivered, dlv_max)
        bad = o_delivered.suffix_from(len(good))
        new = EMPTY

    # Lines 12-14: deterministically merge the not-yet-delivered sequences
    # from the decision, drop anything already ordered by dlvmax, and
    # append to New.
    notdlv = merge_dedup(*notdelivered_seqs) if notdelivered_seqs else EMPTY
    notdlv = notdlv.subtract(dlv_max)
    new = new.concat(notdlv)

    # Lines 15-19 (undo thriftiness): if Bad and New share a prefix, those
    # messages would be undone only to be re-delivered at the same
    # positions; keep them delivered instead.
    shared = common_prefix(bad, new)
    if shared:
        good = good.concat(shared)
        bad = bad.subtract(shared)
        new = new.subtract(shared)

    return CnsvOrderResult(bad=bad, new=new, good=good, dlv_max=dlv_max)


def decision_from_vector(
    vector: Sequence[Tuple[str, Any]],
) -> CnsvDecision:
    """Normalize a raw consensus decision vector into a CnsvDecision.

    The consensus layer decides tuples of ``(pid, initial_value)`` pairs;
    for Cnsv-order the initial values are ``(dlv, notdlv)`` pairs of rid
    tuples.  This helper validates the shape (fail loudly on protocol
    bugs) and fixes the ordering by pid so every process post-processes an
    identical structure.
    """
    normalized = []
    for pid, value in vector:
        if (
            not isinstance(value, tuple)
            or len(value) != 2
            or not all(isinstance(part, tuple) for part in value)
        ):
            raise TypeError(f"malformed Cnsv-order proposal from {pid}: {value!r}")
        normalized.append((pid, (tuple(value[0]), tuple(value[1]))))
    normalized.sort(key=lambda pair: pair[0])
    return tuple(normalized)
