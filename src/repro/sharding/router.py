"""Deterministic key -> shard routing.

The router is the one piece of the sharded architecture every party must
agree on -- clients route requests with it, the cluster builder places
bank accounts with it, and the atomicity checker re-derives placements
from it.  Routing therefore has to be a pure function of the key that is
stable *across processes and Python invocations*: the hash strategy uses
SHA-1 of the key's UTF-8 encoding, never the interpreter's salted
``hash()``.

Two strategies are provided:

* :class:`HashShardRouter` -- uniform placement, oblivious to key
  semantics; the default.
* :class:`RangeShardRouter` -- ordered placement by boundary keys, the
  building block for range scans and locality-aware placement.

On top of either strategy sits the :class:`RoutingTable`: an
**epoch-versioned** routing view that overlays per-key overrides (the
result of live migrations, ``repro.sharding.rebalance``) on the static
base router.  The cluster holds one *authoritative* table, mutated only
by the rebalance coordinator when a migration commits; every client
holds a cheap *copy* that may go stale.  Staleness is safe: a shard that
no longer owns a key answers with a deterministic ``WrongShard`` result,
and the client re-syncs its copy from the authority and retries (the
epoch number makes "did anything change since I last looked?" a single
integer compare).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple


class ShardRouter:
    """Base class: map every key to one of ``n_shards`` shard indexes."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def shard_of(self, key: Any) -> int:
        """The shard index of ``key``; deterministic across processes."""
        raise NotImplementedError

    def placement(self, keys: Sequence[Any]) -> Tuple[Tuple[Any, ...], ...]:
        """Partition ``keys`` by shard: a tuple of per-shard key tuples."""
        shards: Tuple[list, ...] = tuple([] for _ in range(self.n_shards))
        for key in keys:
            shards[self.shard_of(key)].append(key)
        return tuple(tuple(shard) for shard in shards)


#: Distinct key strings a :class:`HashShardRouter` remembers the shard
#: of; one more and it forgets them all and starts over.
_SHARD_MEMO_LIMIT = 1 << 16


class HashShardRouter(ShardRouter):
    """SHA-1 of the key's string form, modulo the shard count.

    Any key with a stable ``str()`` works, including the empty string
    (``str`` keys are used verbatim so ``"1"`` and ``1`` route
    identically only if their string forms agree -- keys should be
    strings in practice).

    A client routes every operation, mostly over the same few keys, so
    the shard of each string form is computed once and remembered (the
    shard count never changes, so an answer never goes stale).
    """

    def __init__(self, n_shards: int) -> None:
        super().__init__(n_shards)
        self._shard_memo: Dict[str, int] = {}

    def shard_of(self, key: Any) -> int:
        text = str(key)
        memo = self._shard_memo
        shard = memo.get(text)
        if shard is None:
            digest = hashlib.sha1(text.encode("utf-8")).digest()
            shard = int.from_bytes(digest[:8], "big") % self.n_shards
            if len(memo) >= _SHARD_MEMO_LIMIT:
                memo.clear()
            memo[text] = shard
        return shard

    def __repr__(self) -> str:
        return f"HashShardRouter(n_shards={self.n_shards})"


class RangeShardRouter(ShardRouter):
    """Route by key order: shard i owns keys in [boundaries[i-1], boundaries[i]).

    ``boundaries`` are the ``n_shards - 1`` split points, sorted
    ascending; keys below the first boundary go to shard 0, keys at or
    above the last go to the final shard.  Keys must be mutually
    comparable with the boundaries (strings with strings, etc.).
    """

    def __init__(self, n_shards: int, boundaries: Sequence[Any]) -> None:
        super().__init__(n_shards)
        if len(boundaries) != n_shards - 1:
            raise ValueError(
                f"{n_shards} shards need {n_shards - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        ordered = list(boundaries)
        if ordered != sorted(ordered):
            raise ValueError(f"boundaries must be sorted: {boundaries!r}")
        self.boundaries: Tuple[Any, ...] = tuple(ordered)

    def shard_of(self, key: Any) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def __repr__(self) -> str:
        return (
            f"RangeShardRouter(n_shards={self.n_shards}, "
            f"boundaries={self.boundaries!r})"
        )


class RoutingTable(ShardRouter):
    """An epoch-versioned routing view: base router + per-key overrides.

    ``epoch`` starts at 0 and is bumped by every committed key move, so
    two views agree exactly when their epochs agree (overrides are only
    ever copied whole from the authority).  A table with no overrides
    routes identically to its base router, which keeps the epoch-0
    placement equal to the static placement the cluster was built with.

    Beyond per-key moves, the table records **hot-key splits**
    (``repro.statemachine.base.SplittableMachine``): ``splits`` maps a
    logical key to the ordered tuple of its ``(fragment_key, shard)``
    placements.  Fragments ride the same epoch -- a client that syncs for
    any reason also learns every split -- and ``shard_of`` on a fragment
    key resolves through overrides like any other key, so fragments can
    themselves later migrate.
    """

    def __init__(
        self,
        base: ShardRouter,
        overrides: Optional[Mapping[Any, int]] = None,
        epoch: int = 0,
        splits: Optional[Mapping[Any, Tuple[Tuple[Any, int], ...]]] = None,
    ) -> None:
        super().__init__(base.n_shards)
        self.base = base
        self.overrides: Dict[Any, int] = dict(overrides or {})
        self.epoch = epoch
        self.splits: Dict[Any, Tuple[Tuple[Any, int], ...]] = dict(splits or {})

    def shard_of(self, key: Any) -> int:
        shard = self.overrides.get(key)
        if shard is not None:
            return shard
        return self.base.shard_of(key)

    def move(self, key: Any, dst: int) -> int:
        """Commit a key move (authority side); returns the new epoch.

        Only the rebalance coordinator calls this, and only *after* the
        key's state is installed on ``dst`` -- a table must never point
        at a shard that cannot serve the key.
        """
        if not 0 <= dst < self.n_shards:
            raise ValueError(f"destination shard {dst} out of range")
        self.overrides[key] = dst
        self.epoch += 1
        return self.epoch

    # -- hot-key splits -------------------------------------------------

    def split(self, key: Any, placements: Sequence[Tuple[Any, int]]) -> int:
        """Commit a key split (authority side); returns the new epoch.

        ``placements`` is the ordered ``(fragment_key, shard)`` plan.
        Like :meth:`move`, this is called only after every fragment's
        state is installed where the plan says -- a single epoch bump
        then flips clients from logical-key routing to fragment routing
        atomically.
        """
        if key in self.splits:
            raise ValueError(f"{key!r} is already split")
        placements = tuple((frag, int(shard)) for frag, shard in placements)
        if len(placements) < 2:
            raise ValueError("a split needs at least two fragments")
        for frag, shard in placements:
            if not 0 <= shard < self.n_shards:
                raise ValueError(f"fragment shard {shard} out of range")
            self.overrides[frag] = shard
        self.splits[key] = placements
        self.epoch += 1
        return self.epoch

    def unsplit(self, key: Any, home: int) -> int:
        """Commit a merge: drop the split, route ``key`` to ``home``."""
        placements = self.splits.pop(key, None)
        if placements is None:
            raise ValueError(f"{key!r} is not split")
        for frag, _shard in placements:
            self.overrides.pop(frag, None)
        return self.move(key, home)

    def fragments_of(self, key: Any) -> Optional[Tuple[Tuple[Any, int], ...]]:
        """The committed ``(fragment, shard)`` plan of ``key``, or None."""
        return self.splits.get(key)

    def copy(self) -> "RoutingTable":
        """An independent snapshot (a client's possibly-stale view)."""
        return RoutingTable(self.base, self.overrides, self.epoch, self.splits)

    def sync_from(self, authority: "RoutingTable") -> bool:
        """Catch up with the authority; returns True if anything changed."""
        if authority.epoch == self.epoch:
            return False
        self.overrides = dict(authority.overrides)
        self.splits = dict(authority.splits)
        self.epoch = authority.epoch
        return True

    def __repr__(self) -> str:
        return (
            f"RoutingTable(base={self.base!r}, epoch={self.epoch}, "
            f"moves={len(self.overrides)}, splits={len(self.splits)})"
        )


def make_router(
    kind: str,
    n_shards: int,
    key_universe: Optional[Sequence[Any]] = None,
) -> ShardRouter:
    """Build a router by name; ``range`` derives even boundaries from
    the sorted ``key_universe`` (required for that strategy)."""
    if kind == "hash":
        return HashShardRouter(n_shards)
    if kind == "range":
        if n_shards == 1:
            return RangeShardRouter(1, ())
        if not key_universe:
            raise ValueError("range routing needs a key universe")
        ordered = sorted(key_universe)
        step = len(ordered) / n_shards
        boundaries = [ordered[int(step * i)] for i in range(1, n_shards)]
        return RangeShardRouter(n_shards, boundaries)
    raise ValueError(f"unknown router kind: {kind} (choose from hash, range)")
