"""The undo log used by the OAR server for ``Opt-undeliver``.

Each optimistic delivery pushes an entry; ``Opt-undeliver`` pops entries
in reverse delivery order (the paper's footnote 2: "undelivery of messages
should generally be performed in the reverse order of delivery").  When an
epoch settles (end of phase 2), the log is cleared: A-delivered and Good
messages can never be undone (Section 4).

This is exactly the save-point discipline the conclusion (Section 6)
describes for transactional environments: one save-point per optimistic
delivery, rollback for ``Bad``, commit for ``Good``.

With the parallel execution engine (:mod:`repro.core.execution`,
``OARConfig.exec_cost > 0``) an optimistic delivery and its *execution*
are separate instants: the entry is pushed **pending** (no closure) at
delivery time, keeping the log aligned with ``O_delivered`` in delivery
order, and :meth:`resolve`\\ d with the real inverse once the op leaves
its execution lane.  Undoing a still-pending entry is a no-op on state
(the op never applied -- the engine cancels it), and resolving a tag the
log no longer holds (the epoch settled while the op was in a lane) is
silently ignored: settled entries can never be undone, so their inverses
are dead weight.

An epoch that never settles keeps every entry, so the log holds them in
two parallel lists (tags, inverses) rather than one object per entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class UndoLog:
    """A LIFO log of (tag, undo_closure) entries."""

    def __init__(self) -> None:
        self._tags: List[str] = []
        # The inverse of each entry, index-aligned with _tags; None while
        # the entry's execution is pending.
        self._undos: List[Optional[Callable[[], None]]] = []
        # Pending (unresolved) entries: tag -> index.  Tags are unique
        # within an epoch, every pop removes its tag, and the index is
        # cleared with the entries on commit, so an index always names
        # its tag's entry.
        self._pending: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._tags)

    @property
    def tags(self) -> List[str]:
        """Tags of every entry, pending or resolved, oldest first."""
        return list(self._tags)

    def push(self, tag: str, undo: Callable[[], None]) -> None:
        """Record that ``tag`` (a request id) was applied and can be undone."""
        self._tags.append(tag)
        self._undos.append(undo)

    def push_pending(self, tag: str) -> None:
        """Record that ``tag`` was *delivered* but not yet executed.

        Keeps the log aligned with the delivery order while the op waits
        in (or occupies) an execution lane; :meth:`resolve` fills in the
        inverse when the execution completes.
        """
        self._pending[tag] = len(self._tags)
        self._tags.append(tag)
        self._undos.append(None)

    def resolve(self, tag: str, undo: Callable[[], None]) -> None:
        """Attach the real inverse to a pending entry.

        A no-op when the entry is gone -- the epoch settled (commit) or
        the suffix was undone while the op was still in flight; either
        way the inverse can never legally run.
        """
        index = self._pending.pop(tag, None)
        if index is not None:
            self._undos[index] = undo

    def undo_last(self, expected_tag: str) -> bool:
        """Undo the most recent entry, verifying it matches ``expected_tag``.

        The OAR server only ever undoes a *suffix* of the delivered
        sequence (undo-legality property), so out-of-order undo indicates
        a protocol bug -- fail loudly rather than corrupt state.  Returns
        True when an inverse actually ran, False when the entry was still
        pending (the op never executed, so there is nothing to revert --
        the execution engine cancelled it).
        """
        undo = self.pop_last(expected_tag)
        if undo is None:
            return False
        undo()
        return True

    def pop_last(self, expected_tag: str) -> Optional[Callable[[], None]]:
        """Pop the most recent entry *without running it*, verifying the tag.

        Same suffix discipline (and the same loud failure on
        out-of-order pops) as :meth:`undo_last`, but the inverse closure
        is returned unrun so the caller can charge its execution through
        the engine's lane model.  Returns ``None`` when the entry was
        still pending (the op never executed -- nothing to revert).
        """
        if not self._tags:
            raise RuntimeError(f"undo of {expected_tag!r} with empty undo log")
        tag = self._tags[-1]
        if tag != expected_tag:
            raise RuntimeError(
                f"out-of-order undo: expected {expected_tag!r}, found {tag!r}"
            )
        self._tags.pop()
        self._pending.pop(tag, None)
        return self._undos.pop()

    def commit(self) -> None:
        """Settle all pending entries (end of epoch): they can never be undone."""
        self._tags.clear()
        self._undos.clear()
        self._pending.clear()
