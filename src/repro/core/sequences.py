"""Sequence algebra from Section 5.1 of the paper.

The OAR algorithm manipulates *sequences of messages* with four operators:

* ``seq1 (+) seq2``   -- concatenation (paper: ⊕), :meth:`MessageSequence.concat`
* ``seq1 (-) seq2``   -- all messages of seq1 not in seq2 (paper: ⊖),
  :meth:`MessageSequence.subtract`
* ``prefix(seq1, .., seqn)`` -- longest common prefix (paper: ⊓),
  :func:`common_prefix`
* ``merge(seq1, .., seqn)``  -- append all, removing duplicates (paper: ⊎),
  :func:`merge_dedup`

Sequences also convert implicitly to sets for ``in`` / intersection tests,
exactly as the paper assumes.  Elements can be any hashable value; the OAR
implementation uses request identifiers (strings).

:class:`MessageSequence` is immutable: every operator returns a new
sequence.  This keeps protocol state transitions auditable and makes the
hypothesis property tests in ``tests/property/test_sequences.py`` direct
transcriptions of the paper's definitions.  It is the *value* type of the
algebra, used where the paper computes with whole sequences (the batch a
sequencer orders, Cnsv-order, the epoch settle).

:class:`SequenceLog` is the other half: a sequence that only ever grows
by one message at a time (``R_delivered``, and ``O_delivered`` within an
epoch) is kept as an append-only log, so that delivering a message costs
the same whatever the length of the history, and is turned into a
:class:`MessageSequence` value (:meth:`SequenceLog.snapshot`) only where
an operator of the algebra is applied to it.  A log is one
insertion-ordered dict and keeps no positions: a replica holds it until
its epoch settles, and the settle reads R_delivered's order by iterating.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Tuple,
    TypeVar,
    Union,
)

T = TypeVar("T", bound=Hashable)

SequenceLike = Union["MessageSequence", Iterable[Hashable]]


class MessageSequence:
    """An immutable, duplicate-free sequence of hashable items.

    The paper's sequences never contain duplicates (they are sequences of
    distinct messages); the constructor enforces this by dropping repeated
    items, keeping the first occurrence -- which is also exactly the
    semantics needed by the ⊎ operator.
    """

    __slots__ = ("_items", "_index")

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        # dict.fromkeys is C-speed first-occurrence dedup in insertion
        # order -- this constructor is on the protocol hot path (every
        # ⊕/⊖ allocates a new sequence).
        seen = dict.fromkeys(items)
        self._items: Tuple[Hashable, ...] = tuple(seen)
        self._index = seen  # dict used as an ordered set for O(1) membership

    @classmethod
    def _make(
        cls, items: Tuple[Hashable, ...], index: Dict[Hashable, None]
    ) -> "MessageSequence":
        """Internal: build from a pre-deduplicated tuple + matching index.

        Skips the constructor's dedup pass; callers guarantee
        ``tuple(index) == items``.
        """
        self = object.__new__(cls)
        self._items = items
        self._index = index
        return self

    @classmethod
    def _of_distinct(cls, items: Tuple[Hashable, ...]) -> "MessageSequence":
        """Internal: build from a tuple the caller knows is duplicate-free."""
        return cls._make(items, dict.fromkeys(items))

    # -- basic container protocol ------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._index

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Any slice of a duplicate-free tuple is duplicate-free.
            return MessageSequence._of_distinct(self._items[index])
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MessageSequence):
            return self._items == other._items
        if isinstance(other, (tuple, list)):
            return self._items == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "{ε}"
        return "{" + ";".join(str(item) for item in self._items) + "}"

    @property
    def items(self) -> Tuple[Hashable, ...]:
        """The underlying tuple (cheap, shared, immutable)."""
        return self._items

    def to_set(self) -> FrozenSet[Hashable]:
        """The implicit sequence-to-set conversion of Section 5.1."""
        return frozenset(self._items)

    def index_of(self, item: Hashable) -> int:
        """Position of ``item`` (0-based).  Raises ValueError if absent."""
        return self._items.index(item)

    # -- paper operators ----------------------------------------------

    def concat(self, other: SequenceLike) -> "MessageSequence":
        """⊕: all messages of self followed by all messages of other.

        The paper only ever concatenates disjoint sequences; if an item
        appears in both, the first occurrence wins (constructor dedup),
        which also makes ``concat`` usable as a building block for ⊎.
        """
        other_items = other.items if isinstance(other, MessageSequence) else tuple(other)
        if not other_items:
            return self
        if not self._items and isinstance(other, MessageSequence):
            return other
        # Disjoint concatenation (the paper's common case) is pure
        # C-speed dict work; overlap falls back to the dedup constructor.
        index = self._index.copy()
        before = len(index)
        other_index = dict.fromkeys(other_items)
        index.update(other_index)
        if len(index) == before + len(other_index):
            return MessageSequence._make(self._items + tuple(other_index), index)
        return MessageSequence(self._items + other_items)

    def subtract(self, other: SequenceLike) -> "MessageSequence":
        """⊖: all messages of self that are not in other (order kept).

        O(len(self)) when ``other`` already answers membership in O(1)
        (a sequence, a log, a set or a dict); any other iterable is
        copied into a set first.
        """
        if isinstance(other, (MessageSequence, SequenceLog)):
            exclude = other._index
        elif isinstance(other, (AbstractSet, dict)):
            exclude = other
        else:
            exclude = set(other)
        if not exclude or not self._items:
            return self
        kept = [item for item in self._items if item not in exclude]
        if len(kept) == len(self._items):
            return self
        return MessageSequence._of_distinct(tuple(kept))

    def is_prefix_of(self, other: "MessageSequence") -> bool:
        """True if self is a (possibly equal) prefix of other."""
        if len(self._items) > len(other._items):
            return False
        return other._items[: len(self._items)] == self._items

    def starts_with(self, prefix: "MessageSequence") -> bool:
        """True if ``prefix`` is a prefix of self (flipped is_prefix_of)."""
        return prefix.is_prefix_of(self)

    # -- convenience --------------------------------------------------

    def append(self, item: Hashable) -> "MessageSequence":
        """self ⊕ {item}.

        O(n): a new value means a dict and a tuple copy (at C speed,
        not the constructor's dedup pass).  A sequence that grows message
        by message is a :class:`SequenceLog`, whose append is O(1).
        """
        if item in self._index:
            return self  # first occurrence wins: nothing changes
        index = self._index.copy()
        index[item] = None
        return MessageSequence._make(self._items + (item,), index)

    def suffix_from(self, index: int) -> "MessageSequence":
        """The suffix starting at position ``index``."""
        return MessageSequence._of_distinct(self._items[index:])

    def prefix_to(self, index: int) -> "MessageSequence":
        """The prefix of the first ``index`` items."""
        return MessageSequence._of_distinct(self._items[:index])


#: The empty sequence ε of the paper.
EMPTY: MessageSequence = MessageSequence()


class SequenceLog:
    """A duplicate-free sequence that grows by appending, in O(1).

    The mutable counterpart of :class:`MessageSequence` for the
    sequences Fig. 6 only ever extends one message at a time: append,
    membership and length cost the same at any length.  It is one
    insertion-ordered dict (item -> ``None``, the ordered set a
    :class:`MessageSequence` indexes by), so an entry costs one dict
    slot.  Like the value type, appending an item already present
    changes nothing (first occurrence wins).  :attr:`items` and
    :meth:`snapshot` copy the log out as a value; they are O(n) and
    meant for the places that compute with the whole sequence (once per
    epoch, never per message).
    """

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: Dict[Hashable, None] = {}

    def append(self, item: Hashable) -> None:
        """self <- self ⊕ {item}."""
        self._index.setdefault(item)

    def clear(self) -> None:
        """self <- ε."""
        self._index.clear()

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._index

    def __bool__(self) -> bool:
        return bool(self._index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SequenceLog, MessageSequence)):
            return self.items == other.items
        if isinstance(other, (tuple, list)):
            return self.items == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self.snapshot())

    @property
    def items(self) -> Tuple[Hashable, ...]:
        """The current contents as a tuple (an O(n) copy)."""
        return tuple(self._index)

    def snapshot(self) -> MessageSequence:
        """The current contents as a value of the Section 5.1 algebra."""
        return MessageSequence._of_distinct(tuple(self._index))


def as_sequence(value: SequenceLike) -> MessageSequence:
    """Coerce an iterable to a :class:`MessageSequence` (no copy if already one)."""
    if isinstance(value, MessageSequence):
        return value
    return MessageSequence(value)


def common_prefix(*sequences: SequenceLike) -> MessageSequence:
    """⊓: the longest sequence that is a common prefix of all arguments.

    ``common_prefix()`` of zero arguments is the empty sequence (the paper
    never takes ⊓ of nothing, but the total function keeps callers simple).
    """
    if not sequences:
        return EMPTY
    seqs = [as_sequence(s) for s in sequences]
    # One pass over the columns; zip stops at the shortest sequence and
    # tuple.count compares a whole column at C speed.
    prefix_len = 0
    for column in zip(*(s.items for s in seqs)):
        if column.count(column[0]) != len(column):
            break
        prefix_len += 1
    return seqs[0].prefix_to(prefix_len)


def merge_dedup(*sequences: SequenceLike) -> MessageSequence:
    """⊎: append all sequences together, removing duplicates.

    Defined recursively in the paper as::

        ⊎(seq1) = seq1
        ⊎(seq1, ..., seq_{i+1}) = ⊎(seq1, ..., seq_i)
                                  ⊕ (seq_{i+1} ⊖ ⊎(seq1, ..., seq_i))

    which is exactly "first occurrence wins", i.e. the constructor's
    dedup over the plain concatenation.
    """
    items = []
    for sequence in sequences:
        seq = as_sequence(sequence)
        items.extend(seq.items)
    return MessageSequence(items)
