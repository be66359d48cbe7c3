"""A transactional bank-accounts state machine.

This is the workload for the transactional scenario sketched in the
paper's conclusion (Section 6): operations map naturally to transactions
that can be rolled back when a message is Opt-undelivered -- each
operation here has an exact O(1) inverse, so an Opt-undeliver is the
rollback of the corresponding "transaction".

Operations::

    ("open", account)                    -> ok, 0; error if exists
    ("deposit", account, amount)         -> ok, new balance
    ("withdraw", account, amount)        -> ok, new balance; error on overdraft
    ("transfer", src, dst, amount)       -> ok, (src_balance, dst_balance);
                                            error on overdraft / missing account
    ("balance", account)                 -> ok, balance; error if missing
    ("total",)                           -> ok, sum of all balances (invariant probe)

Amounts are integers (cents); negative amounts are rejected
deterministically.

Cross-shard transactions (``repro.sharding``) add an escrow protocol so a
transfer whose accounts live in *different* replication groups stays
atomic.  The sharded client decomposes the transfer into per-shard
branches (see :meth:`BankMachine.tx_branches`), each an ordinary
replicated request on its shard::

    ("tx_prepare", txid, "debit", account, amount)
        -> ok, remaining balance; moves the amount out of the account
           into escrow under ``txid`` (error on overdraft -- the whole
           transaction then aborts)
    ("tx_prepare", txid, "credit", account, amount)
        -> ok, current balance; records the pending credit (applied only
           at commit, so an aborting transfer never exposes funds)
    ("tx_commit", txid)                  -> ok; debit escrow is released
                                            (the money left this shard),
                                            credit is applied
    ("tx_abort", txid)                   -> ok; debit escrow returns to the
                                            account, credit is dropped

The conserved quantity under transfer-only workloads is
:meth:`conserved_total` = account balances + escrowed debits + balances
exported by in-flight key migrations, summed across all shards; the
cross-shard atomicity and migration checkers assert it.

Live rebalancing (``repro.sharding.rebalance``) migrates whole accounts
between shards via the ``mig_*`` family of
:class:`~repro.statemachine.base.MigratableMachine`; the exported state
of an account is its balance.  An account with a pending escrow hold
refuses to export (:meth:`export_blocked`), so the transfer escrow and
the migration escrow never interleave on one account.

A single *hot* account can further be split into fragment accounts
(``a001#f0``, ``a001#f1``, ...) via the ``split_open``/``split_close``
family of :class:`~repro.statemachine.base.SplittableMachine`: the
balance is a sum, so it partitions exactly.  While split, deposits are
commutative (any fragment), withdrawals run against one fragment's local
balance -- an overdraft then reports the fragment's available balance as
``("short", available)`` so the sharded client can borrow from a sibling
fragment via an ordinary transfer and retry -- and ``balance`` reads
merge-on-read (sum over fragments).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.statemachine.base import OpResult, SplittableMachine

#: One escrow entry: ("debit" | "credit", account, amount).
HoldEntry = Tuple[str, str, int]


class BankMachine(SplittableMachine):
    """Deterministic accounts map with exact inverse operations."""

    def __init__(
        self,
        initial_accounts: Dict[str, int] = None,
        owned: Optional[Iterable[str]] = None,
    ) -> None:
        self._accounts: Dict[str, int] = dict(initial_accounts or {})
        self._holds: Dict[str, HoldEntry] = {}
        self._init_migration(owned)

    def state(self) -> Dict[str, Any]:
        return {
            "accounts": self._accounts,
            "holds": self._holds,
            "migration": self._migration_state(),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self._accounts = dict(snapshot["accounts"])
        self._holds = dict(snapshot["holds"])
        self._restore_migration(snapshot.get("migration"))

    def fingerprint(self) -> Tuple[Tuple[Any, ...], ...]:
        accounts = tuple(sorted(self._accounts.items()))
        if self._holds:
            accounts = accounts + (
                ("__holds__", tuple(sorted(self._holds.items()))),
            )
        return accounts + self._migration_fingerprint()

    def total_balance(self) -> int:
        """Conserved under deposit-free workloads; used by invariant tests."""
        return sum(self._accounts.values())

    def escrowed_total(self) -> int:
        """Funds debited but not yet committed (in flight between shards)."""
        return sum(
            amount for kind, _account, amount in self._holds.values()
            if kind == "debit"
        )

    def migrating_total(self) -> int:
        """Balances exported by migrations still in this shard's escrow."""
        return sum(
            state for _key, _dst, state in self._outbound.values()
            if isinstance(state, int)
        )

    def conserved_total(self) -> int:
        """Balances + both escrows: the cross-shard conservation invariant.

        A balance exported by ``mig_prepare`` is counted here (at the
        source) until ``mig_forget``; between ``mig_install`` and the
        forget it is briefly counted on both shards, which the migration
        checker compensates for by subtracting installed-but-unforgotten
        exports (see :func:`~repro.analysis.checkers.
        check_migration_atomicity`).
        """
        return self.total_balance() + self.escrowed_total() + self.migrating_total()

    def pending_holds(self) -> Dict[str, HoldEntry]:
        """Escrow entries of transactions not yet committed or aborted."""
        return dict(self._holds)

    # ------------------------------------------------------------------
    # Sharding hooks
    # ------------------------------------------------------------------

    @staticmethod
    def keys_of(op: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The accounts an operation touches (its routing keys)."""
        name = op[0] if op else None
        if name in ("open", "deposit", "withdraw", "balance") and len(op) >= 2:
            return (op[1],)
        if name == "transfer" and len(op) == 4:
            return (op[1], op[2])
        if name == "tx_prepare" and len(op) == 5:
            return (op[3],)
        return ()  # total / tx_commit / tx_abort: routed explicitly

    @staticmethod
    def is_read_only(op: Tuple[Any, ...]) -> bool:
        """``balance`` and ``total`` never mutate; the tx/mig families do."""
        name = op[0] if op else None
        return (name == "balance" and len(op) == 2) or (name == "total" and len(op) == 1)

    @staticmethod
    def tx_branches(
        op: Tuple[Any, ...], txid: str
    ) -> Optional[Dict[Any, Tuple[Any, ...]]]:
        """Split a transfer into a debit and a credit prepare branch."""
        if op and op[0] == "transfer" and len(op) == 4:
            src, dst, amount = op[1], op[2], op[3]
            return {
                src: ("tx_prepare", txid, "debit", src, amount),
                dst: ("tx_prepare", txid, "credit", dst, amount),
            }
        return None

    # -- live migration (MigratableMachine) -----------------------------

    def export_key(self, key: str) -> int:
        return self._accounts.pop(key)

    def install_key(self, key: str, state: int) -> None:
        self._accounts[key] = state

    def export_blocked(self, key: str) -> Optional[str]:
        if key not in self._accounts:
            return f"no account {key}"
        for txid, (_kind, account, _amount) in self._holds.items():
            if account == key:
                return f"escrow hold {txid} pending on {key}"
        return None

    # -- hot-key splitting (SplittableMachine) --------------------------

    def split_parts(self, state: int, n: int) -> Tuple[int, ...]:
        """Partition a balance into n integer shares (exact: they sum back)."""
        part, rem = divmod(state, n)
        return (part + rem,) + (part,) * (n - 1)

    def merge_parts(self, parts: Tuple[int, ...]) -> int:
        return sum(parts)

    @classmethod
    def split_kind(cls, op: Tuple[Any, ...]) -> Optional[str]:
        """Deposits commute, withdrawals are budget-limited, balance merges.

        ``transfer`` endpoints are also commutative-in ("local") when the
        split account is the *destination*; a split *source* is budgeted
        like a withdrawal.  The client rewrite only consults this hook for
        single-key ops, so transfer is classified by
        :meth:`~repro.statemachine.base.SplittableMachine.fragment_op`
        substitution instead: both roles rewrite onto one fragment, and a
        short debit branch surfaces as a failed prepare the client
        retries after borrowing.
        """
        name = op[0] if op else None
        if name == "deposit" and len(op) == 3:
            return "local"
        if name == "withdraw" and len(op) == 3:
            return "budget"
        if name == "balance" and len(op) == 2:
            return "read"
        return None

    @classmethod
    def merge_read(cls, op: Tuple[Any, ...], values: Tuple[Any, ...]) -> int:
        """The logical balance is the sum of fragment balances."""
        return sum(values)

    def fragment_value(self, frag: str) -> Optional[int]:
        return self._accounts.get(frag)

    # ------------------------------------------------------------------

    def apply(self, op: Tuple[Any, ...]) -> OpResult:
        result, _undo = self.apply_with_undo(op)
        return result

    def apply_with_undo(self, op: Tuple[Any, ...]) -> Tuple[OpResult, Callable[[], None]]:
        # Ownership machinery only exists on sharded machines; unsharded
        # ones (owned=None) must pay nothing for it on the hot path --
        # their mig_* ops simply fall through to bad_op.
        if self._owned is not None:
            migration = self._migration_op(op)
            if migration is not None:
                return migration
            redirect = self._ownership_guard(op)
            if redirect is not None:
                return redirect
        name = op[0] if op else None

        if name == "open" and len(op) == 2:
            account = op[1]
            if account in self._accounts:
                return OpResult(ok=False, error=f"open: {account} exists"), _noop
            self._accounts[account] = 0

            def undo_open() -> None:
                self._accounts.pop(account, None)

            return OpResult(ok=True, value=0), undo_open

        if name == "deposit" and len(op) == 3:
            account, amount = op[1], op[2]
            error = self._check(account, amount)
            if error:
                return error, _noop
            self._accounts[account] += amount
            return (
                OpResult(ok=True, value=self._accounts[account]),
                _Adjust(self, account, -amount),
            )

        if name == "withdraw" and len(op) == 3:
            account, amount = op[1], op[2]
            error = self._check(account, amount)
            if error:
                return error, _noop
            if self._accounts[account] < amount:
                # The value carries the available balance so a client
                # withdrawing from a split fragment knows the shortfall
                # to borrow from a sibling (the error string is the
                # stable API; the value is advisory).
                return (
                    OpResult(
                        ok=False,
                        value=("short", self._accounts[account]),
                        error=f"withdraw: overdraft on {account}",
                    ),
                    _noop,
                )
            self._accounts[account] -= amount
            return (
                OpResult(ok=True, value=self._accounts[account]),
                _Adjust(self, account, amount),
            )

        if name == "transfer" and len(op) == 4:
            src, dst, amount = op[1], op[2], op[3]
            error = self._check(src, amount) or self._check(dst, amount)
            if error:
                return error, _noop
            if self._accounts[src] < amount:
                return OpResult(ok=False, error=f"transfer: overdraft on {src}"), _noop
            self._accounts[src] -= amount
            self._accounts[dst] += amount
            return (
                OpResult(ok=True, value=(self._accounts[src], self._accounts[dst])),
                _UndoTransfer(self, src, dst, amount),
            )

        if name == "balance" and len(op) == 2:
            account = op[1]
            if account not in self._accounts:
                return OpResult(ok=False, error=f"balance: no account {account}"), _noop
            return OpResult(ok=True, value=self._accounts[account]), _noop

        if name == "total" and len(op) == 1:
            return OpResult(ok=True, value=self.total_balance()), _noop

        if name == "tx_prepare" and len(op) == 5:
            return self._tx_prepare(op[1], op[2], op[3], op[4])

        if name == "tx_commit" and len(op) == 2:
            return self._tx_finish(op[1], commit=True)

        if name == "tx_abort" and len(op) == 2:
            return self._tx_finish(op[1], commit=False)

        return self.bad_op(op), _noop

    # ------------------------------------------------------------------
    # Escrow protocol (cross-shard two-phase commit branches)
    # ------------------------------------------------------------------

    def _tx_prepare(
        self, txid: str, kind: str, account: str, amount: Any
    ) -> Tuple[OpResult, Callable[[], None]]:
        if kind not in ("debit", "credit"):
            return OpResult(ok=False, error=f"tx_prepare: bad kind {kind!r}"), _noop
        if txid in self._holds:
            return OpResult(ok=False, error=f"tx_prepare: {txid} exists"), _noop
        error = self._check(account, amount)
        if error:
            return error, _noop
        if kind == "debit":
            if self._accounts[account] < amount:
                return (
                    OpResult(ok=False, error=f"tx_prepare: overdraft on {account}"),
                    _noop,
                )
            self._accounts[account] -= amount
        self._holds[txid] = (kind, account, amount)

        def undo_prepare() -> None:
            del self._holds[txid]
            if kind == "debit":
                self._accounts[account] += amount

        return OpResult(ok=True, value=self._accounts[account]), undo_prepare

    def _tx_finish(self, txid: str, commit: bool) -> Tuple[OpResult, Callable[[], None]]:
        hold = self._holds.get(txid)
        verb = "tx_commit" if commit else "tx_abort"
        if hold is None:
            return OpResult(ok=False, error=f"{verb}: no such tx {txid}"), _noop
        kind, account, amount = hold
        del self._holds[txid]
        # Commit applies a pending credit (a committed debit simply leaves
        # this shard); abort returns an escrowed debit to its account.
        applied = (commit and kind == "credit") or (not commit and kind == "debit")
        if applied:
            self._accounts[account] += amount

        def undo_finish() -> None:
            if applied:
                self._accounts[account] -= amount
            self._holds[txid] = hold

        return OpResult(ok=True, value=self._accounts[account]), undo_finish

    # ------------------------------------------------------------------

    def _check(self, account: str, amount: Any) -> OpResult:
        """Shared precondition checks; returns an error result or None."""
        if account not in self._accounts:
            return OpResult(ok=False, error=f"no account {account}")
        if not isinstance(amount, int) or amount < 0:
            return OpResult(ok=False, error=f"bad amount {amount!r}")
        return None


# The inverses of the frequent operations are slotted callables rather
# than closures: an optimistic delivery keeps its inverse until the epoch
# settles, and these are about a sixth of the size of a closure with its
# cells.  Like the closures they read the machine's accounts at undo time
# (``restore`` may have replaced the dict since).


class _Adjust:
    """Undo of a deposit or withdrawal: add ``delta`` back."""

    __slots__ = ("machine", "account", "delta")

    def __init__(self, machine: BankMachine, account: str, delta: int) -> None:
        self.machine = machine
        self.account = account
        self.delta = delta

    def __call__(self) -> None:
        self.machine._accounts[self.account] += self.delta


class _UndoTransfer:
    """Undo of a transfer: move ``amount`` from ``dst`` back to ``src``."""

    __slots__ = ("machine", "src", "dst", "amount")

    def __init__(self, machine: BankMachine, src: str, dst: str, amount: int) -> None:
        self.machine = machine
        self.src = src
        self.dst = dst
        self.amount = amount

    def __call__(self) -> None:
        accounts = self.machine._accounts
        accounts[self.src] += self.amount
        accounts[self.dst] -= self.amount


def _noop() -> None:
    """Undo of a read-only or failed operation."""
