"""A deterministic replicated counter -- the simplest useful state machine.

Its main role in the reproduction is as the *order-revealing* service used
by the correctness checkers: ``("incr",)`` returns the post-increment
value, which equals the request's global processing position when every
request is an increment.  This realizes the convention of the paper's
proofs (Appendix A: "the reply ... is a number whose value indicates the
order of processing of the client request").

Operations::

    ("incr",)       -> ok, new value
    ("incr", n)     -> ok, new value (add n)
    ("decr",)       -> ok, new value
    ("read",)       -> ok, current value
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.statemachine.base import OpResult, StateMachine


class CounterMachine(StateMachine):
    """An integer counter with exact inverse operations."""

    def __init__(self, initial: int = 0) -> None:
        self._value = initial

    def state(self) -> int:
        return self._value

    def restore(self, snapshot: int) -> None:
        self._value = snapshot

    def fingerprint(self) -> int:
        return self._value

    def apply(self, op: Tuple[Any, ...]) -> OpResult:
        result, _undo = self.apply_with_undo(op)
        return result

    def apply_with_undo(self, op: Tuple[Any, ...]) -> Tuple[OpResult, Callable[[], None]]:
        name = op[0] if op else None

        if name == "incr" and len(op) in (1, 2):
            amount = op[1] if len(op) == 2 else 1
            if not isinstance(amount, int):
                return self.bad_op(op), _noop
            self._value += amount
            return OpResult(ok=True, value=self._value), self._make_add(-amount)

        if name == "decr" and len(op) in (1, 2):
            amount = op[1] if len(op) == 2 else 1
            if not isinstance(amount, int):
                return self.bad_op(op), _noop
            self._value -= amount
            return OpResult(ok=True, value=self._value), self._make_add(amount)

        if name == "read" and len(op) == 1:
            return OpResult(ok=True, value=self._value), _noop

        return self.bad_op(op), _noop

    def _make_add(self, amount: int) -> Callable[[], None]:
        def undo() -> None:
            self._value += amount

        return undo


def _noop() -> None:
    """Undo of a read-only or failed operation."""
