"""Live shard rebalancing: online key migration between OAR groups.

PR 1's router is static, so a skewed workload pins one sequencer at its
service-rate ceiling no matter how many groups exist (the B10b Zipf
table).  This module adds the missing control loop: a
:class:`RebalanceCoordinator` that

1. **snapshots per-key load** from the clients' exponentially decayed
   load trackers (:class:`~repro.core.loadtrack.DecayingKeyLoad`), so
   the plan reflects *recent* demand, not lifetime totals,
2. **plans key moves** off the hottest shard onto the coldest, and
3. **executes each move as an escrow-style migration transaction** whose
   every step is an ordinary totally-ordered request on one shard --
   exactly the trick the cross-shard 2PC uses, so the paper's per-group
   protocol is reused untouched:

   =================  ==========  =========================================
   step               shard       effect
   =================  ==========  =========================================
   ``mig_prepare``    source      freeze: ownership dropped, state exported
                                  into the outbound escrow (kept for
                                  recovery), forward hint recorded
   ``mig_install``    dest        state installed, ownership taken
                                  (idempotent by migration id)
   *epoch bump*       --          the authoritative
                                  :class:`~repro.sharding.router.
                                  RoutingTable` is updated; from here new
                                  requests route to the destination
   ``mig_forget``     source      the outbound escrow entry is dropped
                                  (migration garbage collection)
   =================  ==========  =========================================

The coordinator only acts on **adopted** replies, so every step it
builds on is final by the paper's own guarantee (Proposition 7) -- an
optimistic ``mig_prepare`` that could still be undone can never
accumulate majority weight, hence can never be acted upon.

In-flight client requests are safe throughout: a stale client that still
routes the key to the source gets a deterministic ``WrongShard`` reply
and retries after syncing its table copy (see
:class:`~repro.core.client.OARClient`); between prepare and
install the key is owned by *no* shard and every request is redirected
until the migration lands.

**Coordinator crashes** leave the exported state parked in the source
shard's replicated outbound escrow.  A recovery coordinator (a fresh
client process handed the crashed coordinator's :attr:`journal` -- the
stand-in for the replicated config service a real deployment would keep
it in) calls :meth:`RebalanceCoordinator.resume`: it probes
``mig_status`` on the source (and, if unknown there, the destination)
and drives each half-done migration forward -- re-installing
idempotently, bumping the routing epoch if the crash hit before the
bump, and forgetting the escrow.  ``check_migration_atomicity`` verifies
the end state: every key owned by exactly one epoch-current shard, no
state lost, duplicated, or double-counted.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.client import AdoptedReply, OARClient
from repro.sharding.router import RoutingTable
from repro.statemachine.base import OpResult, SplittableMachine


@dataclass
class MigrationRecord:
    """One key move's journal entry (the coordinator's durable state).

    ``phase`` walks ``planned -> preparing -> installing -> committed ->
    forgetting -> done`` (or ``aborted`` when the source vetoes the
    export ``max_attempts`` times); a recovery coordinator resumes any
    record whose phase is not terminal.
    """

    mid: str
    key: Any
    src: int
    dst: int
    phase: str = "planned"
    state: Any = None
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.phase in ("done", "aborted")


@dataclass
class SplitRecord:
    """One hot-key split's journal entry.

    ``phase`` walks ``planned -> splitting -> installing -> forgetting ->
    done`` (or ``aborted``): ``split_open`` on the source exports the key
    as N fragment states (fragment 0 installed locally, the rest parked
    in the migration escrow), each escrowed fragment is ``mig_install``ed
    at its destination, the routing table commits the whole placement in
    one epoch bump, and the escrow entries are forgotten.
    """

    sid: str
    key: Any
    frags: Tuple[Any, ...]
    dsts: Tuple[int, ...]
    src: int
    phase: str = "planned"
    shipped: Tuple[Tuple[str, Any, int, Any], ...] = ()
    pending: Set[str] = field(default_factory=set)
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.phase in ("done", "aborted")


@dataclass
class UnsplitRecord:
    """One merge's journal entry: stray fragments are first migrated home
    by ordinary :class:`MigrationRecord` moves queued ahead of this one,
    then a single ``split_close`` on the home shard recombines them."""

    sid: str
    key: Any
    frags: Tuple[Any, ...]
    home: int
    phase: str = "planned"
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.phase in ("done", "aborted")


#: A protocol stage: what the adopted result of one step is handed to,
#: with the record that is active then.
Stage = Callable[[Any, OpResult], None]


class RebalanceCoordinator:
    """Drives key migrations through a dedicated sharded client.

    Migrations run strictly one at a time: sequencing keeps the
    coordinator deterministic and bounds the number of keys that are
    ever simultaneously ownerless to one.

    Parameters
    ----------
    client:
        A dedicated :class:`~repro.core.client.OARClient` (every
        step is submitted with the next stage as its continuation);
        crash this process to crash the coordinator.
    authority:
        The cluster's authoritative epoched routing table; mutated
        (epoch bump) when a migration's install is adopted.
    observed_clients:
        Workload clients whose decayed per-key load trackers
        (:class:`~repro.core.loadtrack.DecayingKeyLoad`) feed
        :meth:`snapshot_key_load`.
    retry_delay / max_attempts:
        Pacing for ``mig_prepare`` retries when the source vetoes the
        export (e.g. a pending cross-shard escrow hold on the account).
    splitter:
        The deployment's :class:`~repro.statemachine.base.
        SplittableMachine` subclass, used by :meth:`split_key` to derive
        fragment key names; defaults to the base class (which all
        bundled splittable machines inherit the naming scheme from).
    """

    def __init__(
        self,
        client: OARClient,
        authority: RoutingTable,
        observed_clients: Iterable[Any] = (),
        retry_delay: float = 10.0,
        max_attempts: int = 5,
        splitter: type = SplittableMachine,
    ) -> None:
        self.client = client
        self.authority = authority
        self.observed_clients = list(observed_clients)
        self.retry_delay = retry_delay
        self.max_attempts = max_attempts
        self.splitter = splitter
        #: Every migration this coordinator ever started, in order; hand
        #: this to a recovery coordinator's :meth:`resume` after a crash.
        self.journal: List[Any] = []
        self.moves_committed = 0
        self.moves_aborted = 0
        self.splits_committed = 0
        self.splits_aborted = 0
        self.unsplits_committed = 0
        self.auto_splits = 0
        self._counter = itertools.count()
        self._queue: Deque[Any] = deque()
        self._active: Optional[Any] = None
        self._resuming: Set[str] = set()  # mids adopted from a crashed peer
        #: Scheduled-but-not-yet-fired rebalances (attach_rebalancer's
        #: ``start_at``); the coordinator is not ``done`` while one is
        #: pending, so a run cannot quiesce out from under the timer.
        self._pending_starts = 0
        # Auto-trigger policy state (enable_auto_trigger).
        self._auto: Optional[Dict[str, Any]] = None
        self._auto_strikes = 0
        self.auto_rebalances = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def env(self) -> Any:
        return self.client.env

    @property
    def done(self) -> bool:
        """True when no migration is active, queued, or scheduled."""
        return (
            self._active is None
            and not self._queue
            and self._pending_starts == 0
        )

    # ------------------------------------------------------------------
    # Load snapshot and planning
    # ------------------------------------------------------------------

    def snapshot_key_load(self) -> Dict[Any, float]:
        """Aggregate per-key load across observed clients, decayed to now.

        Clients keep :class:`~repro.core.loadtrack.DecayingKeyLoad`
        counters, so the snapshot reflects *recent* demand: a key that
        was hot during warm-up but went cold no longer dominates the
        plan (a plain mapping still works, for tests that inject loads).
        """
        load: Dict[Any, float] = {}
        for client in self.observed_clients:
            source = client.key_load
            items = source.snapshot().items() if hasattr(source, "snapshot") else source.items()
            for key, count in items:
                load[key] = load.get(key, 0.0) + count
        return load

    def plan_moves(
        self,
        load: Optional[Dict[Any, float]] = None,
        max_moves: int = 8,
    ) -> List[Tuple[Any, int, int]]:
        """Greedy plan: repeatedly move the heaviest key that shrinks the
        hot/cold gap from the hottest shard to the coldest.

        Returns ``[(key, src, dst), ...]`` without executing anything.
        Deterministic: ties break on the key itself.  A candidate key
        must carry less load than the current hot-cold gap, otherwise
        moving it would just swap which shard is hot.
        """
        if load is None:
            load = self.snapshot_key_load()
        shard_load = [0.0] * self.authority.n_shards
        keys_by_shard: Dict[int, List[Tuple[int, Any]]] = {}
        shard_of = self.authority.shard_of
        for key, count in load.items():
            shard = shard_of(key)
            shard_load[shard] += count
            keys_by_shard.setdefault(shard, []).append((count, key))
        moved: List[Tuple[Any, int, int]] = []
        planned_away: Set[Any] = set()
        while len(moved) < max_moves:
            hot = max(range(len(shard_load)), key=lambda s: (shard_load[s], -s))
            cold = min(range(len(shard_load)), key=lambda s: (shard_load[s], s))
            gap = shard_load[hot] - shard_load[cold]
            candidates = sorted(
                (
                    (count, key)
                    for count, key in keys_by_shard.get(hot, ())
                    if 0 < count < gap and key not in planned_away
                ),
                key=lambda item: (-item[0], str(item[1])),
            )
            if not candidates:
                break
            count, key = candidates[0]
            moved.append((key, hot, cold))
            planned_away.add(key)
            shard_load[hot] -= count
            shard_load[cold] += count
            keys_by_shard.setdefault(cold, []).append((count, key))
        return moved

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def rebalance(self, max_moves: int = 8) -> List[MigrationRecord]:
        """Snapshot load, plan, and enqueue the planned migrations."""
        records = [
            self.migrate(key, dst, src=src)
            for key, src, dst in self.plan_moves(max_moves=max_moves)
        ]
        return records

    def migrate(self, key: Any, dst: int, src: Optional[int] = None) -> MigrationRecord:
        """Enqueue one explicit key move (tests and manual rebalancing)."""
        if src is None:
            src = self.authority.shard_of(key)
        record = MigrationRecord(
            mid=f"{self.client.pid}-m{next(self._counter)}",
            key=key,
            src=src,
            dst=dst,
        )
        self.journal.append(record)
        self._queue.append(record)
        self._pump()
        return record

    def split_key(
        self, key: Any, n: int = 2, dsts: Optional[Sequence[int]] = None
    ) -> SplitRecord:
        """Enqueue a hot-key split of ``key`` into ``n`` fragments.

        ``dsts`` is the per-fragment shard plan; fragment 0 always stays
        on the key's current shard (``split_open`` installs it there), so
        ``dsts[0]`` must be the source.  The default spreads fragments
        round-robin over the shards starting at the source -- with
        ``n >= n_shards`` every shard gets at least one fragment.
        """
        if n < 2:
            raise ValueError("a split needs at least two fragments")
        if key in self.authority.splits:
            raise ValueError(f"{key!r} is already split")
        src = self.authority.shard_of(key)
        if dsts is None:
            dsts = tuple((src + i) % self.authority.n_shards for i in range(n))
        else:
            dsts = tuple(dsts)
        if len(dsts) != n:
            raise ValueError(f"{n} fragments need {n} destinations, got {len(dsts)}")
        if dsts[0] != src:
            raise ValueError(
                f"fragment 0 stays on the source shard {src}, plan says {dsts[0]}"
            )
        record = SplitRecord(
            sid=f"{self.client.pid}-s{next(self._counter)}",
            key=key,
            frags=self.splitter.fragment_keys(key, n),
            dsts=dsts,
            src=src,
        )
        self.journal.append(record)
        self._queue.append(record)
        self._pump()
        return record

    def unsplit_key(self, key: Any) -> UnsplitRecord:
        """Enqueue the merge of a split key back into one logical key.

        Fragments that migrated away from fragment 0's current shard are
        first moved home by ordinary migrations queued ahead of the
        merge (the one-at-a-time queue serializes them), then a single
        ``split_close`` on the home shard recombines the states and the
        table unsplits in one epoch bump.
        """
        placements = self.authority.fragments_of(key)
        if placements is None:
            raise ValueError(f"{key!r} is not split")
        frags = tuple(frag for frag, _shard in placements)
        home = self.authority.shard_of(frags[0])
        for frag in frags:
            if self.authority.shard_of(frag) != home:
                self.migrate(frag, home)
        record = UnsplitRecord(
            sid=f"{self.client.pid}-u{next(self._counter)}",
            key=key,
            frags=frags,
            home=home,
        )
        self.journal.append(record)
        self._queue.append(record)
        self._pump()
        return record

    def schedule(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` (typically migrate/rebalance calls) at absolute
        simulated time ``when``, holding the run open until it fires.

        Scheduling migration kicks with a raw simulator timer is a
        quiescence race: a run whose drivers finish *before* ``when``
        looks done (nothing active, nothing queued), the harness drops
        into its grace window, and the migrations either never complete
        or silently race the run teardown.  Routing the timer through
        the coordinator counts it in ``_pending_starts``, which
        :attr:`done` already respects.
        """
        self._pending_starts += 1

        def fire() -> None:
            self._pending_starts -= 1
            action()
            # The action usually enqueues migrations itself; _pump is
            # idempotent and covers actions that only mutated the queue.
            self._pump()

        delay = max(0.0, when - self.env.now)
        self.env.set_timer(delay, fire)

    def enable_auto_trigger(
        self,
        check_interval: float = 25.0,
        ratio: float = 3.0,
        sustain: int = 2,
        min_load: float = 10.0,
        max_moves: int = 8,
        split_n: int = 0,
    ) -> None:
        """Fire rebalances automatically on *sustained* load imbalance.

        Replaces scheduled-time-only kicks (ROADMAP open item): every
        ``check_interval`` simulated time units the coordinator
        snapshots the decayed per-key load counters, aggregates them by
        the authority's current routing, and scores the imbalance as
        ``hottest shard load / coldest shard load``.  When the ratio
        stays at or above ``ratio`` for ``sustain`` consecutive ticks --
        a momentary spike (one hot burst, a migration mid-flight
        shuffling counters) must not trigger churn -- and no migration
        is already active, it plans and enqueues a rebalance.

        ``min_load`` is the hottest shard's minimum snapshot load for a
        tick to count: the decayed counters are near zero at start-up
        and between bursts, where any division would be noise.  The tick
        uses a raw timer on purpose (unlike :meth:`schedule`): a pending
        *policy poll* must not hold the run open -- only actual planned
        work does.

        ``split_n > 0`` arms **auto-splitting**: when the sustained
        imbalance is caused by a single key so dominant that
        :meth:`plan_moves` finds nothing to move (no candidate is
        lighter than the hot/cold gap), the hottest unsplit key is split
        into ``split_n`` fragments instead of giving up --
        migration moves heat around, splitting is the only lever that
        *divides* it.
        """
        if check_interval <= 0:
            raise ValueError("check_interval must be > 0")
        if ratio <= 1.0:
            raise ValueError("ratio must be > 1 (hot/cold imbalance factor)")
        if sustain < 1:
            raise ValueError("sustain must be >= 1")
        if split_n == 1 or split_n < 0:
            raise ValueError("split_n must be 0 (disabled) or >= 2")
        self._auto = {
            "interval": check_interval,
            "ratio": ratio,
            "sustain": sustain,
            "min_load": min_load,
            "max_moves": max_moves,
            "split_n": split_n,
        }
        self._auto_strikes = 0
        self._schedule_auto_tick()

    def _schedule_auto_tick(self) -> None:
        def tick() -> None:
            if self._auto is None or self.client.crashed:
                return
            self._auto_check()
            self._schedule_auto_tick()

        self.env.set_timer(self._auto["interval"], tick)

    def imbalance_ratio(
        self, load: Optional[Dict[Any, float]] = None
    ) -> Tuple[float, float, float]:
        """(hot/cold ratio, hottest load, coldest load) per current routing.

        A shard with zero observed load makes the ratio ``inf`` whenever
        the hottest shard saw anything at all -- maximal imbalance, not
        a division error.
        """
        if load is None:
            load = self.snapshot_key_load()
        shard_load = [0.0] * self.authority.n_shards
        shard_of = self.authority.shard_of
        for key, count in load.items():
            shard_load[shard_of(key)] += count
        hot = max(shard_load)
        cold = min(shard_load)
        if hot <= 0.0:
            return 1.0, hot, cold
        return (hot / cold if cold > 0.0 else float("inf")), hot, cold

    def _auto_check(self) -> None:
        """One policy tick: update the strike counter, maybe rebalance."""
        auto = self._auto
        load = self.snapshot_key_load()
        ratio, hot, _cold = self.imbalance_ratio(load)
        if hot < auto["min_load"] or ratio < auto["ratio"]:
            self._auto_strikes = 0
            return
        self._auto_strikes += 1
        self.env.trace(
            "rebalance_strike",
            strikes=self._auto_strikes,
            ratio=round(ratio, 3) if ratio != float("inf") else "inf",
        )
        if self._auto_strikes < auto["sustain"]:
            return
        if not self.done:
            # Migrations already queued/active: *defer* -- keep the
            # accumulated strikes so the rebalance fires on the first
            # over-threshold tick after the queue drains, instead of
            # making the hot shard re-earn the whole sustain window.
            return
        self._auto_strikes = 0
        records = [
            self.migrate(key, dst, src=src)
            for key, src, dst in self.plan_moves(load, max_moves=auto["max_moves"])
        ]
        if records:
            self.auto_rebalances += 1
            self.env.trace(
                "rebalance_auto", moves=len(records), ratio=round(ratio, 3)
                if ratio != float("inf") else "inf",
            )
        elif auto["split_n"]:
            # Sustained imbalance but nothing movable: a single dominant
            # key defeats the planner (its load exceeds the hot/cold
            # gap).  Split it.
            self._auto_split(load, auto)

    def _auto_split(self, load: Dict[Any, float], auto: Dict[str, Any]) -> None:
        parent_of = self.splitter.parent_key
        shard_load: Dict[int, float] = {}
        shard_of = self.authority.shard_of
        for key, count in load.items():
            shard = shard_of(key)
            shard_load[shard] = shard_load.get(shard, 0.0) + count
        hot_shard = max(shard_load, key=lambda s: (shard_load[s], -s))
        candidates = [
            (count, key)
            for key, count in load.items()
            if count >= auto["min_load"]
            and shard_of(key) == hot_shard  # split heat, never a cold key
            and key not in self.authority.splits
            and parent_of(key) is None  # never split a fragment
        ]
        if not candidates:
            return
        count, key = max(candidates, key=lambda item: (item[0], str(item[1])))
        self.auto_splits += 1
        self.env.trace(
            "split_auto", key=key, load=round(count, 3), n=auto["split_n"]
        )
        self.split_key(key, auto["split_n"])

    def resume(self, journal: Iterable[Any]) -> None:
        """Adopt a crashed coordinator's journal and finish its work.

        Terminal records are kept for the books; every other migration
        record is re-driven from a ``mig_status`` probe so the recovery
        is idempotent no matter where the crash hit.  Split records
        resume from the phases whose effects are replicated: a split
        that never opened restarts, one that already committed the table
        re-drives the escrow GC; a split caught *between* open and
        table-commit is surfaced as an abort (its fragment states are
        safe in the source's replicated escrow, where the conservation
        checker accounts for them) rather than silently half-finished.
        """
        for record in journal:
            self.journal.append(record)
            if record.terminal:
                continue
            if isinstance(record, SplitRecord):
                if record.phase == "planned" or record.key in self.authority.splits:
                    self._queue.append(record)
                else:
                    record.phase = "aborted"
                    record.error = "coordinator crashed mid-split"
                    self.splits_aborted += 1
                    self.env.trace(
                        "split_abort", sid=record.sid, key=record.key, reason=record.error
                    )
                continue
            if isinstance(record, UnsplitRecord):
                record.phase = "planned"
                self._queue.append(record)
                continue
            self._resuming.add(record.mid)
            self._queue.append(record)
        self._pump()

    # ------------------------------------------------------------------
    # The migration state machine (driven by adoptions)
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        if self._active is not None or not self._queue:
            return
        self._active = self._queue.popleft()
        self._start(self._active)

    def _advance(self) -> None:
        self._active = None
        self._pump()

    def _start(self, record: Any) -> None:
        if isinstance(record, SplitRecord):
            self._start_split(record)
            return
        if isinstance(record, UnsplitRecord):
            self._start_unsplit(record)
            return
        if record.mid in self._resuming:
            self.env.trace(
                "mig_resume", mid=record.mid, key=record.key, from_phase=record.phase
            )
            record.phase = "recovering"
            self._submit(("mig_status", record.mid), record.src, self._on_src_status)
            return
        record.phase = "preparing"
        self.env.trace(
            "mig_begin",
            mid=record.mid,
            key=record.key,
            src=record.src,
            dst=record.dst,
        )
        self._submit(
            ("mig_prepare", record.mid, record.key, record.dst),
            record.src,
            self._on_prepare,
        )

    def _submit(self, op: Tuple[Any, ...], shard: int, stage: Stage) -> None:
        """Submit one protocol step; ``stage`` runs on its adoption."""
        self.client.submit_to_shard(op, shard, partial(self._on_stage, stage))

    def _on_stage(self, stage: Stage, adopted: AdoptedReply) -> None:
        record = self._active
        if record is None:
            return
        result = adopted.value
        if not isinstance(result, OpResult):
            raise RuntimeError(f"rebalancer: non-OpResult adoption {adopted!r}")
        stage(record, result)

    # -- normal path ----------------------------------------------------

    def _on_prepare(self, record: MigrationRecord, result: OpResult) -> None:
        if result.ok:
            record.state = result.value[1]  # ("exported", state)
            record.phase = "installing"
            self.env.trace("mig_prepared", mid=record.mid, key=record.key)
            self._submit(
                ("mig_install", record.mid, record.key, record.state),
                record.dst,
                self._on_install,
            )
            return
        if "already prepared" in result.error:
            # An earlier prepare for this mid won the race -- typically
            # one that was still in flight across a crash/recovery
            # hand-off and got totally ordered after the status probe
            # answered "unknown".  The state is in the source's escrow;
            # re-probe and continue from there instead of aborting.
            self._submit(("mig_status", record.mid), record.src, self._on_src_status)
            return
        record.attempts += 1
        record.error = result.error
        if record.attempts < self.max_attempts:
            # Transient veto (e.g. an escrow hold on the account): try
            # the same migration again after a pause.
            self.env.set_timer(self.retry_delay, lambda: self._retry(record))
            return
        self._abort(record)

    def _retry(self, record: MigrationRecord) -> None:
        if self._active is record and not record.terminal:
            self._start(record)

    def _abort(self, record: MigrationRecord) -> None:
        record.phase = "aborted"
        self.moves_aborted += 1
        self.env.trace(
            "mig_abort", mid=record.mid, key=record.key, reason=record.error
        )
        self._advance()

    def _on_install(self, record: MigrationRecord, result: OpResult) -> None:
        if not result.ok:
            # Install can only fail on ownership/config errors; surface
            # it as an abort (the exported state stays in the source's
            # escrow, where the migration checker will point at it).
            record.error = result.error
            self._abort(record)
            return
        self.env.trace("mig_installed", mid=record.mid, key=record.key)
        self._commit(record)

    def _commit_table(self, record: MigrationRecord) -> None:
        """Route the key to its new home and trace the commit.

        Idempotent under recovery: the epoch is only bumped if the
        table does not already route the key to the destination.
        """
        if self.authority.shard_of(record.key) != record.dst:
            epoch = self.authority.move(record.key, record.dst)
        else:
            epoch = self.authority.epoch
        self.env.trace(
            "mig_commit",
            mid=record.mid,
            key=record.key,
            dst=record.dst,
            epoch=epoch,
        )

    def _commit(self, record: MigrationRecord) -> None:
        self._commit_table(record)
        record.phase = "forgetting"
        self._submit(("mig_forget", record.mid), record.src, self._on_forget)

    def _on_forget(self, record: MigrationRecord, result: OpResult) -> None:
        record.phase = "done"
        self.moves_committed += 1
        self.env.trace("mig_done", mid=record.mid, key=record.key)
        self._advance()

    # -- hot-key splits --------------------------------------------------

    def _start_split(self, record: SplitRecord) -> None:
        if record.phase == "forgetting":
            # Resumed past the table commit: only escrow GC is left.
            self._submit_split_forgets(record)
            return
        record.phase = "splitting"
        self.env.trace(
            "split_begin",
            sid=record.sid,
            key=record.key,
            frags=record.frags,
            dsts=record.dsts,
        )
        self._submit(
            ("split_open", record.sid, record.key, record.frags, record.dsts),
            record.src,
            self._on_split_open,
        )

    def _on_split_open(self, record: SplitRecord, result: OpResult) -> None:
        if not result.ok:
            record.attempts += 1
            record.error = result.error
            if record.attempts < self.max_attempts:
                # Transient veto (escrow hold, mid-migration ownership):
                # same pacing as a vetoed mig_prepare.
                self.env.set_timer(self.retry_delay, lambda: self._retry(record))
                return
            self._abort_split(record)
            return
        record.shipped = tuple(result.value[1])  # ("split", shipped)
        record.phase = "installing"
        record.pending = {mid for mid, _frag, _dst, _state in record.shipped}
        self.env.trace("split_opened", sid=record.sid, key=record.key)
        for mid, frag, dst, state in record.shipped:
            self._submit(
                ("mig_install", mid, frag, state), dst, partial(self._on_split_install, mid)
            )

    def _on_split_install(self, mid: str, record: SplitRecord, result: OpResult) -> None:
        if not result.ok:
            # Ownership/config error: the fragment states stay parked in
            # the source's escrow, where the conservation checkers will
            # account for (or flag) them.
            record.error = result.error
            self._abort_split(record)
            return
        record.pending.discard(mid)
        if record.pending:
            return
        # Every fragment is installed where the plan says: commit the
        # whole placement in one epoch bump (idempotent under recovery),
        # then GC the escrow entries.
        if record.key not in self.authority.splits:
            epoch = self.authority.split(
                record.key, tuple(zip(record.frags, record.dsts))
            )
        else:
            epoch = self.authority.epoch
        self.env.trace(
            "split_commit", sid=record.sid, key=record.key, epoch=epoch
        )
        self._submit_split_forgets(record)

    def _submit_split_forgets(self, record: SplitRecord) -> None:
        record.phase = "forgetting"
        mids = [mid for mid, _frag, _dst, _state in record.shipped]
        if not mids:  # defensively: nothing was ever escrowed
            self._finish_split(record)
            return
        record.pending = set(mids)
        for mid in mids:
            self._submit(("mig_forget", mid), record.src, partial(self._on_split_forget, mid))

    def _on_split_forget(self, mid: str, record: SplitRecord, result: OpResult) -> None:
        record.pending.discard(mid)
        if not record.pending:
            self._finish_split(record)

    def _finish_split(self, record: SplitRecord) -> None:
        record.phase = "done"
        self.splits_committed += 1
        self.env.trace("split_done", sid=record.sid, key=record.key)
        self._advance()

    def _abort_split(self, record: SplitRecord) -> None:
        record.phase = "aborted"
        self.splits_aborted += 1
        self.env.trace(
            "split_abort", sid=record.sid, key=record.key, reason=record.error
        )
        self._advance()

    def _start_unsplit(self, record: UnsplitRecord) -> None:
        record.phase = "merging"
        self.env.trace(
            "unsplit_begin", sid=record.sid, key=record.key, home=record.home
        )
        self._submit(
            ("split_close", record.sid, record.key, record.frags),
            record.home,
            self._on_split_close,
        )

    def _on_split_close(self, record: UnsplitRecord, result: OpResult) -> None:
        if not result.ok:
            record.attempts += 1
            record.error = result.error
            if record.attempts < self.max_attempts:
                # A fragment may still carry a borrow's escrow hold, or a
                # stray fragment's homeward migration may have aborted;
                # retry after the usual pause.
                self.env.set_timer(self.retry_delay, lambda: self._retry(record))
                return
            record.phase = "aborted"
            self.env.trace(
                "unsplit_abort", sid=record.sid, key=record.key, reason=record.error
            )
            self._advance()
            return
        if record.key in self.authority.splits:
            epoch = self.authority.unsplit(record.key, record.home)
        else:
            epoch = self.authority.epoch
        record.phase = "done"
        self.unsplits_committed += 1
        self.env.trace(
            "unsplit_done", sid=record.sid, key=record.key, epoch=epoch
        )
        self._advance()

    # -- recovery path --------------------------------------------------

    def _on_src_status(self, record: MigrationRecord, result: OpResult) -> None:
        status = result.value
        if status[0] == "prepared":
            _tag, _key, _dst, state = status
            record.state = state
            record.phase = "installing"
            self._resuming.discard(record.mid)
            self.env.trace("mig_prepared", mid=record.mid, key=record.key)
            self._submit(
                ("mig_install", record.mid, record.key, record.state),
                record.dst,
                self._on_install,
            )
            return
        # Unknown at the source: either never prepared, or already
        # forgotten (fully done).  The destination knows which.
        self._submit(("mig_status", record.mid), record.dst, self._on_dst_status)

    def _on_dst_status(self, record: MigrationRecord, result: OpResult) -> None:
        status = result.value
        self._resuming.discard(record.mid)
        if status[0] == "installed":
            # Unknown at the source but installed at the destination:
            # install and forget both landed before the crash.  Ensure
            # the epoch bump and close the record.
            self.env.trace("mig_installed", mid=record.mid, key=record.key)
            self._commit_resumed_installed(record)
            return
        # Unknown on both sides: the migration never prepared.  Restart
        # it from scratch (the key still lives on the source).
        self._start(record)

    def _commit_resumed_installed(self, record: MigrationRecord) -> None:
        # Install and forget both landed before the crash: nothing left
        # to submit, just ensure the table and close the record.
        self._commit_table(record)
        record.phase = "done"
        self.moves_committed += 1
        self.env.trace("mig_done", mid=record.mid, key=record.key)
        self._advance()


# ----------------------------------------------------------------------
# Harness glue
# ----------------------------------------------------------------------

def attach_rebalancer(
    run: Any,
    pid: str = "rb1",
    start_at: Optional[float] = None,
    max_moves: int = 8,
    retry_delay: float = 10.0,
    max_attempts: int = 5,
    auto: bool = False,
    auto_interval: float = 25.0,
    auto_ratio: float = 3.0,
    auto_sustain: int = 2,
    auto_min_load: float = 10.0,
    auto_split_n: int = 0,
) -> RebalanceCoordinator:
    """Attach a rebalance coordinator (with its own client process) to a
    built :class:`~repro.sharding.cluster.ShardedRun`.

    With ``start_at`` the coordinator snapshots load and rebalances at
    that simulated time (use a warm-up window so the counters mean
    something); with ``auto=True`` it instead polls the decayed load
    counters every ``auto_interval`` and rebalances whenever the
    hot/cold shard imbalance stays >= ``auto_ratio`` for
    ``auto_sustain`` consecutive ticks
    (:meth:`RebalanceCoordinator.enable_auto_trigger`); without either,
    call :meth:`RebalanceCoordinator.rebalance` or
    :meth:`~RebalanceCoordinator.migrate` yourself.  Designed for the
    config's ``arm`` hook::

        ShardedScenarioConfig(..., arm=lambda run: attach_rebalancer(
            run, start_at=150.0))
    """
    from repro.sharding.cluster import MACHINE_CLASSES

    machine_cls = MACHINE_CLASSES[run.config.machine]
    client = OARClient(
        pid,
        run.shard_groups,
        run.routing_table.copy(),
        key_extractor=machine_cls.keys_of,
        tx_planner=machine_cls.tx_branches,
        retry_interval=run.config.retry_interval,
    )
    run.network.start(client)
    splitter = (
        machine_cls
        if isinstance(machine_cls, type) and issubclass(machine_cls, SplittableMachine)
        else SplittableMachine
    )
    coordinator = RebalanceCoordinator(
        client,
        run.routing_table,
        observed_clients=run.clients,
        retry_delay=retry_delay,
        max_attempts=max_attempts,
        splitter=splitter,
    )
    if start_at is not None:
        # Held open via _pending_starts (see RebalanceCoordinator.
        # schedule): a run whose drivers finish before start_at must
        # not quiesce out from under the scheduled rebalance.
        coordinator.schedule(
            start_at, lambda: coordinator.rebalance(max_moves=max_moves)
        )
    if auto:
        coordinator.enable_auto_trigger(
            check_interval=auto_interval,
            ratio=auto_ratio,
            sustain=auto_sustain,
            min_load=auto_min_load,
            max_moves=max_moves,
            split_n=auto_split_n,
        )
    run.rebalancers.append(coordinator)
    return coordinator
