"""The state-machine interface used by all replication protocols here.

Operations are plain tuples, e.g. ``("push", "x")`` or ``("transfer",
"alice", "bob", 25)``.  Results are :class:`OpResult` values.  A state
machine must be **deterministic**: the result and the post-state depend
only on the pre-state and the operation.  Errors (unknown operation,
failed precondition) are *returned*, never raised, because an exception at
one replica but not another would be non-determinism.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.values import frozen_value


@frozen_value
class WrongShard:
    """Deterministic "this shard does not own that key" redirect payload.

    Returned as the ``value`` of a failed :class:`OpResult` whenever an
    operation reaches a machine that no longer (or does not yet) own one
    of the operation's keys -- the replicated, totally-ordered analogue
    of an HTTP 301.  ``hint`` is the shard the key was last exported to,
    when the machine still remembers it (None otherwise); clients treat
    the hint as advisory and re-sync their routing table from the
    authority before retrying.
    """

    key: Any
    hint: Optional[int] = None


@frozen_value
class OpResult:
    """The deterministic outcome of applying one operation.

    ``ok`` is False for failed preconditions (e.g. pop of an empty stack,
    overdraft) -- a *valid* outcome that all replicas agree on, not an
    exception.
    """

    ok: bool
    value: Any = None
    error: str = ""

    def __repr__(self) -> str:
        if self.ok:
            return f"OpResult(ok, {self.value!r})"
        return f"OpResult(err, {self.error!r})"


class StateMachine:
    """Base class for deterministic, undoable state machines."""

    def apply(self, op: Tuple[Any, ...]) -> OpResult:
        """Apply ``op`` and return its result.  Must be deterministic."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Sharding hooks (repro.sharding)
    # ------------------------------------------------------------------

    @staticmethod
    def keys_of(op: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The data items ``op`` touches, for shard routing.

        ``()`` means the operation has no routable key (whole-state reads,
        global counters); the sharded client sends those to a fixed
        fallback shard.  Must be a pure function of the operation --
        routing happens at the client, ownership checks at every replica,
        and the execution engine derives conflict footprints from it, so
        all three must see the same answer for the same tuple.

        This hook is also the granularity knob for everything built on
        top: a key named here is the unit of migration
        (:class:`MigratableMachine`), of conflict chaining
        (:meth:`conflict_footprint`), and of hot-key splitting
        (:class:`SplittableMachine` fragments are ordinary keys with
        their own ``keys_of`` identity).
        """
        return ()

    @classmethod
    def conflict_footprint(cls, op: Tuple[Any, ...]) -> Optional[FrozenSet[Any]]:
        """The conflict footprint of ``op`` for parallel execution.

        Two operations whose footprints are disjoint commute: applying
        them in either order yields the same results and the same
        post-state, so the execution engine
        (:mod:`repro.core.execution`) may run them concurrently.
        ``None`` means *global* -- the operation conflicts with
        everything (whole-state reads, unkeyed machines) and fences the
        entire pipeline.  The default derives the footprint from
        :meth:`keys_of`, mapping "no routable key" to global, which is
        always safe: an engine can only be *less* parallel than the
        true conflict relation, never more.
        """
        keys = cls.keys_of(op)
        return frozenset(keys) if keys else None

    @staticmethod
    def is_read_only(op: Tuple[Any, ...]) -> bool:
        """True when ``op`` cannot change state (replica-local read path).

        Read-only operations may be executed at a single replica against
        its current state and answered without submitting to the
        sequencer (``OARClient(read_mode=)``).  Must be a pure function of
        the operation and *conservative*: anything not provably
        side-effect free stays False and takes the ordered path.  The
        ``mig_*``/``tx_*`` families are deliberately never classified
        read-only -- even ``mig_status`` must be totally ordered, because
        migration recovery reasons about its position in the shard's
        order.  The same goes for the ``split_*`` family: splits mutate
        ownership books and escrow, so they always ride the sequencer.
        """
        return False

    @classmethod
    def exec_cost_of(cls, op: Tuple[Any, ...]) -> float:
        """Relative execution weight of ``op`` (a multiplier on the
        engine's per-op ``exec_cost``).

        The execution service model charges ``exec_cost * exec_cost_of(op)``
        simulated time for one operation, so a machine can say that some
        operations are intrinsically heavier: a migration installs a whole
        key's exported state, a ``keys`` scan walks the entire store.  The
        default weight is ``1.0`` -- every op costs exactly ``exec_cost``,
        which preserves the pre-weight service model bit-for-bit.  Must be
        a pure function of the operation (replicas schedule by it) and
        must not be negative; ``0.0`` is legal (the op still occupies a
        lane for one zero-delay event, it does not take the inline path).
        """
        return 1.0

    @staticmethod
    def tx_branches(
        op: Tuple[Any, ...], txid: str
    ) -> "dict[Any, Tuple[Any, ...]] | None":
        """Decompose a multi-key ``op`` into per-key prepare branches.

        Returns ``{key: branch_op}`` where each branch is a single-key
        operation (routed to the key's shard and totally ordered there),
        or ``None`` when the operation cannot run across shards.  The
        sharded client commits the branches with a second phase of
        ``("tx_commit", txid)`` / ``("tx_abort", txid)`` requests.
        """
        return None

    def export_key(self, key: Any) -> Any:
        """Detach and return one key's state for live migration.

        The returned value is the opaque, deterministic payload that
        :meth:`install_key` accepts on the destination shard; after
        export the key's state is gone from this machine.  Machines that
        support live rebalancing (``repro.sharding.rebalance``) override
        this; the default raises, which makes migration attempts against
        non-migratable machines a loud error instead of silent data loss.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot export keys")

    def install_key(self, key: Any, state: Any) -> None:
        """Install a key's exported state (the migration receive side)."""
        raise NotImplementedError(f"{type(self).__name__} cannot install keys")

    def apply_with_undo(self, op: Tuple[Any, ...]) -> Tuple[OpResult, Callable[[], None]]:
        """Apply ``op`` and also return a closure that undoes it.

        The default implementation snapshots the whole state, which is
        always correct; subclasses override it with O(1) inverse
        operations where possible (see :class:`~repro.statemachine.bank.
        BankMachine`).
        """
        snapshot = self.snapshot()
        result = self.apply(op)

        def undo() -> None:
            self.restore(snapshot)

        return result, undo

    def snapshot(self) -> Any:
        """An opaque, deep copy of the current state."""
        return copy.deepcopy(self.state())

    def restore(self, snapshot: Any) -> None:
        """Replace the current state with a snapshot."""
        raise NotImplementedError

    def state(self) -> Any:
        """The raw state object (read-only use by tests/checkers)."""
        raise NotImplementedError

    def fingerprint(self) -> Any:
        """A hashable digest of the state, for replica-equality checks."""
        return repr(self.state())

    @staticmethod
    def bad_op(op: Tuple[Any, ...]) -> OpResult:
        """The deterministic result for an unrecognized operation."""
        return OpResult(ok=False, error=f"unknown operation: {op!r}")


def _noop() -> None:
    """Undo of a read-only or failed operation."""


class MigratableMachine(StateMachine):
    """Key ownership + the live-migration operation family.

    A sharded deployment gives every replica of shard *s* the same
    ``owned`` key set (the epoch-0 placement); from then on ownership
    changes only through the migration operations below, which are
    ordinary totally-ordered requests on their shard -- so all replicas
    of a group agree on ownership by the same argument they agree on any
    other state (and replica-convergence checks cover it, because the
    ownership books are part of :meth:`fingerprint`).

    The migration protocol (driven by
    :class:`~repro.sharding.rebalance.RebalanceCoordinator`)::

        ("mig_prepare", mid, key, dst)
            -> ok, ("exported", state); atomically freezes the key on
               the source: ownership is dropped, the key's state moves
               into the outbound escrow under ``mid`` (retained for
               coordinator-crash recovery), and a forward hint key->dst
               is recorded.  Fails deterministically when the key is not
               owned, the mid exists, or the machine vetoes the export
               (:meth:`export_blocked` -- e.g. a bank account with a
               pending cross-shard escrow hold).
        ("mig_install", mid, key, state)
            -> ok, ("installed",); installs the state and takes
               ownership on the destination.  Idempotent by ``mid``
               (a recovery coordinator may re-submit): a repeat returns
               ok, ("already",) without touching state.
        ("mig_status", mid)
            -> ok, ("prepared", key, dst, state) | ("installed", key)
               | ("unknown",); the read-only probe recovery uses to
               resume a half-done migration.
        ("mig_forget", mid)
            -> ok; drops the outbound escrow entry once the routing
               epoch is bumped (the migration's garbage collection).
               Idempotent: unknown mids answer ok, ("noop",).

    Any keyed operation that reaches a machine which does not own the
    key gets a deterministic :class:`WrongShard` error result -- the
    redirect the sharded client turns into a table re-sync and retry.
    Machines with ``owned=None`` (the unsharded default) own everything
    and never redirect; subclasses gate the whole dispatch behind
    ``self._owned is not None`` so unsharded hot paths pay a single
    attribute check (``mig_*`` ops then fall through to ``bad_op`` --
    still a deterministic error, just an anonymous one).
    """

    #: mid -> (key, dst shard, exported state): the outbound escrow.
    _outbound: Dict[str, Tuple[Any, int, Any]]

    def _init_migration(self, owned: Optional[Any]) -> None:
        """Call from ``__init__``; ``owned=None`` means "owns all keys"."""
        self._owned: Optional[Set[Any]] = None if owned is None else set(owned)
        self._outbound = {}
        self._installed: Dict[str, Any] = {}  # mid -> key
        self._forward: Dict[Any, int] = {}  # key -> last export destination

    # -- introspection (checkers, tests) -------------------------------

    def owns(self, key: Any) -> bool:
        return self._owned is None or key in self._owned

    def owned_keys(self) -> Optional[FrozenSet[Any]]:
        """The ownership set, or None for "owns everything" (unsharded)."""
        return None if self._owned is None else frozenset(self._owned)

    def outbound_migrations(self) -> Dict[str, Tuple[Any, int, Any]]:
        """Exported-but-not-forgotten escrow entries (mid -> key, dst, state)."""
        return dict(self._outbound)

    def installed_migrations(self) -> Dict[str, Any]:
        """Migrations installed here (mid -> key), for idempotence/recovery."""
        return dict(self._installed)

    def export_blocked(self, key: Any) -> Optional[str]:
        """A reason this key cannot be exported right now, or None.

        Subclass hook; the bank refuses while a cross-shard escrow hold
        references the account, so the two escrow protocols never
        interleave on one key.
        """
        return None

    @classmethod
    def conflict_footprint(cls, op: Tuple[Any, ...]) -> Optional[FrozenSet[Any]]:
        """Migration ops conflict with everything touching their key.

        ``mig_prepare``/``mig_install`` carry the key explicitly
        (``op[2]``): they freeze or take ownership of exactly that key,
        so they serialize against every operation on it but commute with
        operations on other keys.  ``mig_status``/``mig_forget`` are
        keyed by migration id only -- the key is not in the operation --
        so they stay global (they are rare coordinator probes; fencing
        the pipeline for them costs nothing measurable).
        """
        name = op[0] if op else None
        if name.__class__ is str and name.startswith("mig_"):
            if name in ("mig_prepare", "mig_install") and len(op) == 4:
                return frozenset((op[2],))
            return None
        return super().conflict_footprint(op)

    @classmethod
    def exec_cost_of(cls, op: Tuple[Any, ...]) -> float:
        """Migrations move whole key states, so they execute heavier.

        ``mig_prepare`` serializes a key's full state into the outbound
        escrow and ``mig_install`` deserializes it on the destination --
        both are bulk operations next to a normal single-key update, so
        they charge 4x the base ``exec_cost``.  The probe/GC half of the
        family (``mig_status``/``mig_forget``) touches only an escrow
        dict entry and stays at weight 1.
        """
        name = op[0] if op else None
        if name in ("mig_prepare", "mig_install"):
            return 4.0
        return super().exec_cost_of(op)

    # -- shared dispatch helpers ---------------------------------------

    def _wrong_shard(self, key: Any) -> Tuple[OpResult, Callable[[], None]]:
        hint = self._forward.get(key)
        return (
            OpResult(
                ok=False,
                value=WrongShard(key, hint),
                error=f"wrong_shard: {key!r} is not owned here",
            ),
            _noop,
        )

    def _ownership_guard(
        self, op: Tuple[Any, ...]
    ) -> Optional[Tuple[OpResult, Callable[[], None]]]:
        """WrongShard result if ``op`` touches a key this shard lost."""
        if self._owned is None:
            return None
        owned = self._owned
        for key in self.keys_of(op):
            if key not in owned:
                return self._wrong_shard(key)
        return None

    def _migration_fingerprint(self) -> Tuple[Any, ...]:
        """Ownership-book suffix for :meth:`fingerprint` (empty when inert)."""
        if self._owned is None and not self._outbound and not self._installed:
            return ()
        owned = () if self._owned is None else tuple(sorted(self._owned))
        return (
            ("__owned__", owned),
            ("__outbound__", tuple(sorted(self._outbound.items()))),
            ("__installed__", tuple(sorted(self._installed.items()))),
        )

    def _migration_state(self) -> Dict[str, Any]:
        return {
            "owned": None if self._owned is None else set(self._owned),
            "outbound": dict(self._outbound),
            "installed": dict(self._installed),
            "forward": dict(self._forward),
        }

    def _restore_migration(self, snapshot: Optional[Dict[str, Any]]) -> None:
        if snapshot is None:
            return
        owned = snapshot["owned"]
        self._owned = None if owned is None else set(owned)
        self._outbound = dict(snapshot["outbound"])
        self._installed = dict(snapshot["installed"])
        self._forward = dict(snapshot["forward"])

    # -- the operation family ------------------------------------------

    def _migration_op(
        self, op: Tuple[Any, ...]
    ) -> Optional[Tuple[OpResult, Callable[[], None]]]:
        """Handle a ``mig_*`` operation; None when ``op`` is not one."""
        name = op[0] if op else None
        if name.__class__ is not str or not name.startswith("mig_"):
            return None
        if name == "mig_prepare" and len(op) == 4:
            return self._mig_prepare(op[1], op[2], op[3])
        if name == "mig_install" and len(op) == 4:
            return self._mig_install(op[1], op[2], op[3])
        if name == "mig_status" and len(op) == 2:
            return self._mig_status(op[1])
        if name == "mig_forget" and len(op) == 2:
            return self._mig_forget(op[1])
        return None

    def _mig_prepare(
        self, mid: str, key: Any, dst: Any
    ) -> Tuple[OpResult, Callable[[], None]]:
        if self._owned is None:
            return OpResult(ok=False, error="mig_prepare: machine is not sharded"), _noop
        if mid in self._outbound:
            return OpResult(ok=False, error=f"mig_prepare: {mid} already prepared"), _noop
        if key not in self._owned:
            result, undo = self._wrong_shard(key)
            return OpResult(ok=False, value=result.value, error=f"mig_prepare: {result.error}"), undo
        blocked = self.export_blocked(key)
        if blocked is not None:
            return OpResult(ok=False, error=f"mig_prepare: {blocked}"), _noop
        state = self.export_key(key)
        self._owned.discard(key)
        self._outbound[mid] = (key, dst, state)
        prev_forward = self._forward.get(key)
        self._forward[key] = dst

        def undo_prepare() -> None:
            del self._outbound[mid]
            self.install_key(key, state)
            self._owned.add(key)
            if prev_forward is None:
                self._forward.pop(key, None)
            else:
                self._forward[key] = prev_forward

        return OpResult(ok=True, value=("exported", state)), undo_prepare

    def _mig_install(
        self, mid: str, key: Any, state: Any
    ) -> Tuple[OpResult, Callable[[], None]]:
        if mid in self._installed:
            return OpResult(ok=True, value=("already",)), _noop
        if self._owned is None:
            return OpResult(ok=False, error="mig_install: machine is not sharded"), _noop
        if key in self._owned:
            return OpResult(ok=False, error=f"mig_install: {key!r} already owned here"), _noop
        self.install_key(key, state)
        self._owned.add(key)
        self._installed[mid] = key
        prev_forward = self._forward.pop(key, None)

        def undo_install() -> None:
            del self._installed[mid]
            self._owned.discard(key)
            self.export_key(key)  # drop the just-installed state
            if prev_forward is not None:
                self._forward[key] = prev_forward

        return OpResult(ok=True, value=("installed",)), undo_install

    def _mig_status(self, mid: str) -> Tuple[OpResult, Callable[[], None]]:
        entry = self._outbound.get(mid)
        if entry is not None:
            key, dst, state = entry
            return OpResult(ok=True, value=("prepared", key, dst, state)), _noop
        key = self._installed.get(mid)
        if key is not None:
            return OpResult(ok=True, value=("installed", key)), _noop
        return OpResult(ok=True, value=("unknown",)), _noop

    def _mig_forget(self, mid: str) -> Tuple[OpResult, Callable[[], None]]:
        entry = self._outbound.get(mid)
        if entry is None:
            return OpResult(ok=True, value=("noop",)), _noop
        del self._outbound[mid]

        def undo_forget() -> None:
            self._outbound[mid] = entry

        return OpResult(ok=True, value=("forgotten",)), undo_forget


class SplittableMachine(MigratableMachine):
    """Hot-key splitting by escrow-partitioned commutative state.

    A single hot key is the one load imbalance migration cannot fix:
    moving the key moves the heat, and every operation on it conflicts
    with every other, so the execution engine cannot parallelize it
    either (benchmark B13's flatline).  When the key's state decomposes
    commutatively -- a counter is a sum of sub-counters, a balance is a
    sum of sub-balances -- the key can instead be **split** into N
    fragment keys ``key#f0 .. key#f<N-1>``, each an ordinary key:

    * fragments route independently (the routing table places them on
      different shards),
    * fragments have disjoint :meth:`~StateMachine.conflict_footprint`\\ s
      (the execution engine runs them on different lanes), and
    * fragments migrate/merge with the *existing* ``mig_*`` escrow
      machinery -- ``split_open`` below is ``mig_prepare`` generalized to
      export one key as N parts, and fragments reach their destination
      shards via ordinary ``mig_install``.

    Commutative ops (deposits, increments) go to any one fragment.
    Budget-limited ops (withdrawals) run against one fragment's local
    balance and may fail with a *shortfall*; the client then **borrows**
    by submitting an ordinary transfer between fragments (riding the
    cross-shard 2PC when fragments live on different shards) and retries.
    Whole-value reads **merge-on-read**: the client scatter-gathers one
    read per fragment and combines them with :meth:`merge_read`.  The
    conserved quantity -- sum of fragment values plus in-flight borrow
    escrow equals the logical value -- is checked exactly by
    :func:`repro.analysis.checkers.check_fragment_conservation`.

    The op family (coordinated by ``sharding/rebalance.py``, driven by
    adopted replies like migrations)::

        ("split_open", sid, key, (frag0..fragN-1), (dst0..dstN-1))
            -> ok, ("split", ((mid, frag, dst, part), ...))
            Runs on the key's owner.  Exports the key, partitions its
            state with split_parts, installs fragment 0 locally and
            parks fragments 1..N-1 in the outbound migration escrow
            under mids "<sid>.<i>" addressed to their dsts.
        ("split_close", sid, key, (frag0..fragN-1))
            -> ok, ("merged", state)  |  ok, ("already",)
            Runs on the shard owning *all* fragments (the coordinator
            first migrates strays home).  Exports every fragment,
            merge_parts them, reinstalls the logical key.

    Both are exactly undoable, so Opt-undeliver of a split is a rollback
    like any other.  Neither has a routable key (``keys_of`` -> ``()``),
    so they carry a *global* conflict footprint -- a split fences the
    pipeline, which is exactly right: no fragment op may overtake it.

    Subclasses implement the small hook surface below
    (:meth:`split_parts` / :meth:`merge_parts` for the state algebra,
    :meth:`split_kind` / :meth:`fragment_op` / :meth:`merge_read` /
    :meth:`fragment_value` for the client rewrite rules).
    """

    #: Separator between a logical key and its fragment index.  Keys
    #: containing this substring cannot be split (parent_key would
    #: misparse them); the key universes used here never do.
    SPLIT_SEP = "#f"

    # -- fragment naming ------------------------------------------------

    @classmethod
    def fragment_keys(cls, key: str, n: int) -> Tuple[str, ...]:
        """The N fragment keys of ``key``, in fragment-index order."""
        return tuple(f"{key}{cls.SPLIT_SEP}{i}" for i in range(n))

    @classmethod
    def parent_key(cls, key: Any) -> Optional[str]:
        """The logical key ``key`` is a fragment of, or None."""
        if key.__class__ is not str:
            return None
        sep = key.rfind(cls.SPLIT_SEP)
        if sep <= 0:
            return None
        suffix = key[sep + len(cls.SPLIT_SEP):]
        if not suffix.isdigit():
            return None
        return key[:sep]

    # -- subclass hook surface -----------------------------------------

    def split_parts(self, state: Any, n: int) -> Tuple[Any, ...]:
        """Partition an exported key state into ``n`` fragment states.

        Pure with respect to the machine (no side effects); must satisfy
        ``merge_parts(split_parts(s, n)) == s`` exactly -- conservation
        checking is exact, not approximate.
        """
        raise NotImplementedError

    def merge_parts(self, parts: Tuple[Any, ...]) -> Any:
        """Recombine fragment states into the logical key state."""
        raise NotImplementedError

    @classmethod
    def split_kind(cls, op: Tuple[Any, ...]) -> Optional[str]:
        """How ``op`` behaves when its (single) key is split.

        * ``"local"``  -- commutative; rewrite onto any one fragment
          (deposits, increments).
        * ``"budget"`` -- runs against one fragment's local budget and
          may fail with a shortfall the client resolves by borrowing
          (withdrawals).
        * ``"read"``   -- whole-value read; scatter to every fragment
          and combine with :meth:`merge_read`.
        * ``None``     -- not fragment-rewritable (multi-key ops, opens);
          the client leaves the op on the logical key, and the ownership
          guard answers WrongShard until the key is unsplit.
        """
        return None

    @classmethod
    def fragment_op(cls, op: Tuple[Any, ...], key: Any, frag: Any) -> Tuple[Any, ...]:
        """Rewrite ``op`` from the logical ``key`` onto fragment ``frag``.

        The default substitutes every occurrence of the key in the tuple,
        which is right for all the bundled machines.
        """
        return tuple(frag if part == key else part for part in op)

    @classmethod
    def merge_read(cls, op: Tuple[Any, ...], values: Tuple[Any, ...]) -> Any:
        """Combine per-fragment read values into the logical value."""
        raise NotImplementedError

    def fragment_value(self, frag: Any) -> Any:
        """Current local value of an owned fragment (checker probe)."""
        raise NotImplementedError

    # -- execution weight ----------------------------------------------

    @classmethod
    def exec_cost_of(cls, op: Tuple[Any, ...]) -> float:
        """Splits export/partition/reinstall whole key states: weight 4."""
        name = op[0] if op else None
        if name in ("split_open", "split_close"):
            return 4.0
        return super().exec_cost_of(op)

    # -- the operation family ------------------------------------------

    def _migration_op(
        self, op: Tuple[Any, ...]
    ) -> Optional[Tuple[OpResult, Callable[[], None]]]:
        handled = super()._migration_op(op)
        if handled is not None:
            return handled
        name = op[0] if op else None
        if name == "split_open" and len(op) == 5:
            return self._split_open(op[1], op[2], tuple(op[3]), tuple(op[4]))
        if name == "split_close" and len(op) == 4:
            return self._split_close(op[1], op[2], tuple(op[3]))
        return None

    def _split_open(
        self, sid: str, key: Any, frags: Tuple[Any, ...], dsts: Tuple[Any, ...]
    ) -> Tuple[OpResult, Callable[[], None]]:
        if self._owned is None:
            return OpResult(ok=False, error="split_open: machine is not sharded"), _noop
        if len(frags) < 2 or len(frags) != len(dsts):
            return OpResult(ok=False, error="split_open: bad fragment plan"), _noop
        if key not in self._owned:
            result, undo = self._wrong_shard(key)
            return (
                OpResult(ok=False, value=result.value, error=f"split_open: {result.error}"),
                undo,
            )
        blocked = self.export_blocked(key)
        if blocked is not None:
            return OpResult(ok=False, error=f"split_open: {blocked}"), _noop
        for frag in frags:
            if frag in self._owned:
                return (
                    OpResult(ok=False, error=f"split_open: fragment {frag!r} already owned"),
                    _noop,
                )
        mids = tuple(f"{sid}.{i}" for i in range(1, len(frags)))
        for mid in mids:
            if mid in self._outbound or mid in self._installed:
                return OpResult(ok=False, error=f"split_open: mid {mid} in use"), _noop

        state = self.export_key(key)
        self._owned.discard(key)
        parts = self.split_parts(state, len(frags))
        self.install_key(frags[0], parts[0])
        self._owned.add(frags[0])
        shipped = []
        for i in range(1, len(frags)):
            self._outbound[mids[i - 1]] = (frags[i], dsts[i], parts[i])
            shipped.append((mids[i - 1], frags[i], dsts[i], parts[i]))

        def undo_open() -> None:
            for mid in mids:
                del self._outbound[mid]
            self.export_key(frags[0])
            self._owned.discard(frags[0])
            self.install_key(key, state)
            self._owned.add(key)

        return OpResult(ok=True, value=("split", tuple(shipped))), undo_open

    def _split_close(
        self, sid: str, key: Any, frags: Tuple[Any, ...]
    ) -> Tuple[OpResult, Callable[[], None]]:
        if self._owned is None:
            return OpResult(ok=False, error="split_close: machine is not sharded"), _noop
        if key in self._owned:
            # The coordinator retries on crashes; a re-delivered close of
            # an already-merged key is a no-op, like a re-sent install.
            return OpResult(ok=True, value=("already",)), _noop
        if not frags:
            return OpResult(ok=False, error="split_close: bad fragment plan"), _noop
        for frag in frags:
            if frag not in self._owned:
                result, undo = self._wrong_shard(frag)
                return (
                    OpResult(
                        ok=False, value=result.value, error=f"split_close: {result.error}"
                    ),
                    undo,
                )
            blocked = self.export_blocked(frag)
            if blocked is not None:
                return OpResult(ok=False, error=f"split_close: {blocked}"), _noop

        parts = tuple(self.export_key(frag) for frag in frags)
        for frag in frags:
            self._owned.discard(frag)
        state = self.merge_parts(parts)
        self.install_key(key, state)
        self._owned.add(key)

        def undo_close() -> None:
            self.export_key(key)
            self._owned.discard(key)
            for frag, part in zip(frags, parts):
                self.install_key(frag, part)
                self._owned.add(frag)

        return OpResult(ok=True, value=("merged", state)), undo_close
