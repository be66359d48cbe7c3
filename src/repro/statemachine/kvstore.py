"""A deterministic replicated key-value store.

Operations::

    ("set", key, value)        -> ok, previous value (or None)
    ("get", key)               -> ok, value; error if absent
    ("delete", key)            -> ok, removed value; error if absent
    ("cas", key, old, new)     -> ok, True on success; ok, False on mismatch
    ("keys",)                  -> ok, sorted tuple of keys

Sharded deployments construct the machine with an ``owned`` key set and
get the full live-migration family (``mig_prepare`` / ``mig_install`` /
``mig_status`` / ``mig_forget``) plus WrongShard redirects for keys this
shard lost -- see :class:`~repro.statemachine.base.MigratableMachine`.
The exported per-key state is ``("present", value)`` or ``("absent",)``
(an owned key may simply never have been set).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.statemachine.base import MigratableMachine, OpResult

_ABSENT = object()  # sentinel: key had no previous binding

#: Tags the composite snapshot shape so ``restore`` can tell it apart
#: from a legacy bare data dict without sniffing user-controlled keys.
_SNAPSHOT_TAG = "__kv_snapshot__"


class KVStoreMachine(MigratableMachine):
    """Hash-map state machine with O(1) inverse operations."""

    def __init__(self, owned: Optional[Iterable[Any]] = None) -> None:
        self._data: Dict[Any, Any] = {}
        self._init_migration(owned)

    def snapshot(self) -> Dict[str, Any]:
        """Deep snapshot carrying the migration/ownership books too.

        ``state()`` stays the raw data dict (the read-only view tests
        and examples index into), but a snapshot must round-trip the
        whole machine -- ownership included -- or a snapshot-based undo
        on a sharded replica would silently resurrect departed keys.
        """
        return {
            _SNAPSHOT_TAG: 1,
            "data": copy.deepcopy(self._data),
            "migration": copy.deepcopy(self._migration_state()),
        }

    def restore(self, snapshot: Dict[Any, Any]) -> None:
        if snapshot.get(_SNAPSHOT_TAG) == 1:
            self._data = dict(snapshot["data"])
            self._restore_migration(snapshot["migration"])
        else:  # legacy shape: a bare data dict
            self._data = dict(snapshot)

    def state(self) -> Dict[Any, Any]:
        return self._data

    def fingerprint(self) -> Tuple[Tuple[Any, Any], ...]:
        data = tuple(sorted(self._data.items(), key=lambda kv: repr(kv[0])))
        return data + self._migration_fingerprint()

    @staticmethod
    def keys_of(op: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """set/get/delete/cas touch exactly op[1]; ``keys`` is global."""
        if len(op) >= 2 and op[0] in ("set", "get", "delete", "cas"):
            return (op[1],)
        return ()

    @staticmethod
    def is_read_only(op: Tuple[Any, ...]) -> bool:
        """``get`` and ``keys`` never mutate; everything else might."""
        name = op[0] if op else None
        return (name == "get" and len(op) == 2) or (name == "keys" and len(op) == 1)

    @classmethod
    def exec_cost_of(cls, op: Tuple[Any, ...]) -> float:
        """``keys`` scans the whole store: charge double the base cost."""
        if op and op[0] == "keys" and len(op) == 1:
            return 2.0
        return super().exec_cost_of(op)

    # -- live migration (MigratableMachine) -----------------------------

    def export_key(self, key: Any) -> Tuple[Any, ...]:
        if key in self._data:
            return ("present", self._data.pop(key))
        return ("absent",)

    def install_key(self, key: Any, state: Tuple[Any, ...]) -> None:
        if state[0] == "present":
            self._data[key] = state[1]
        else:
            self._data.pop(key, None)

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

        if name == "set" and len(op) == 3:
            _key, key, value = op[0], op[1], op[2]
            previous = self._data.get(key, _ABSENT)
            self._data[key] = value
            return (
                OpResult(ok=True, value=None if previous is _ABSENT else previous),
                _Restore(self, key, previous),
            )

        if name == "get" and len(op) == 2:
            key = op[1]
            if key not in self._data:
                return OpResult(ok=False, error=f"get: no such key {key!r}"), _noop
            return OpResult(ok=True, value=self._data[key]), _noop

        if name == "delete" and len(op) == 2:
            key = op[1]
            if key not in self._data:
                return OpResult(ok=False, error=f"delete: no such key {key!r}"), _noop
            previous = self._data.pop(key)
            return OpResult(ok=True, value=previous), _Restore(self, key, previous)

        if name == "cas" and len(op) == 4:
            key, old, new = op[1], op[2], op[3]
            current = self._data.get(key, _ABSENT)
            if current is _ABSENT or current != old:
                return OpResult(ok=True, value=False), _noop
            self._data[key] = new
            return OpResult(ok=True, value=True), _Restore(self, key, old)

        if name == "keys" and len(op) == 1:
            return (
                OpResult(ok=True, value=tuple(sorted(self._data, key=repr))),
                _noop,
            )

        return self.bad_op(op), _noop


class _Restore:
    """Undo of a write: rebind ``key`` to ``previous``, or unbind it.

    A slotted callable rather than a closure: an optimistic write keeps
    its inverse until the epoch settles, and this is about a sixth of
    the size of a closure with its cells.  It reads the machine's data
    dict at undo time, as the closure did (``restore`` may have replaced
    the dict since).
    """

    __slots__ = ("machine", "key", "previous")

    def __init__(self, machine: KVStoreMachine, key: Any, previous: Any) -> None:
        self.machine = machine
        self.key = key
        self.previous = previous

    def __call__(self) -> None:
        if self.previous is _ABSENT:
            self.machine._data.pop(self.key, None)
        else:
            self.machine._data[self.key] = self.previous


def _noop() -> None:
    """Undo of a read-only or failed operation."""
