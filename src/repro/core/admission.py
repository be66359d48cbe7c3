"""Admission control: overload results, traffic classes, token buckets.

The open-loop harness (``repro.workload.openloop``) can offer load far
past the sequencer's service rate.  Without admission control the
sequencer's unordered backlog grows without bound, every queued request
ages before it is even ordered, and measured latency diverges -- the
classic metastable overload.  This module holds the three small pieces
the rest of the plane is built from:

* :class:`Overloaded` -- the deterministic shed result.  A shed request
  is *answered*, not dropped: the sequencer sends a
  :class:`~repro.core.messages.ShedNotice` and the client surfaces an
  ``OpResult(ok=False, value=Overloaded(...))`` through the normal
  adoption callback (mirroring the ``WrongShard`` error-result pattern),
  so callers and drivers observe shedding synchronously and can back
  off.
* :func:`traffic_class` -- the bulkhead classifier.  Control-plane
  operations (migration steps, hot-key splits, cross-shard transaction
  steps) are never shed: they are few, they hold escrow/lock state whose
  abandonment would wedge recovery, and keeping them flowing during a
  data-plane flood is exactly what bulkheads are for.  Reads are bounded
  by their own queue (``read_queue_limit``) on the replica-local path,
  so a read storm cannot starve writes and vice versa.
* :class:`TokenBucket` -- client-side throttling with multiplicative
  backoff.  The bucket refills at ``rate`` tokens per simulated time
  unit up to ``burst``; each :class:`Overloaded` result freezes refill
  for a window that doubles per consecutive strike (capped), so a
  flooding client converges to the server's advertised capacity instead
  of hammering the shed path.

Everything here is deterministic and allocation-light; none of it
imports protocol modules, so both the core (server/client) and the
workload/analysis layers can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.values import frozen_value

#: Operation-name prefixes routed to the "control" bulkhead class.
#: These are the escrow-style multi-step protocols (live migration,
#: hot-key splitting, cross-shard 2PC): shedding one mid-flight step
#: would strand frozen ownership or locked keys until operator action,
#: so the admission queue never sheds them.
CONTROL_PREFIXES: Tuple[str, ...] = ("mig_", "split_", "tx_")


def traffic_class(op: Tuple[Any, ...]) -> str:
    """Classify an operation tuple into its bulkhead class.

    Returns ``"control"`` for migration/split/transaction steps and
    ``"write"`` for everything else that reaches the ordered path.
    Reads never reach this classifier on the replica-local path (they
    have their own bounded queue); when ``read_mode="sequencer"`` routes
    reads through total order they are deliberately classed as writes --
    they consume the same ordering capacity.
    """
    if not op:
        return "write"
    head = op[0]
    if isinstance(head, str) and head.startswith(CONTROL_PREFIXES):
        return "control"
    return "write"


@frozen_value
class Overloaded:
    """Deterministic shed payload: *why* the request was refused.

    Carried as the ``value`` of a failed ``OpResult`` so application
    code can distinguish "the system refused under load" (retry later,
    with backoff) from a semantic failure.  ``queue``/``limit`` are the
    queue depth and bound at the moment of the shed decision -- the
    advertised pressure a client-side controller can react to.
    """

    cls: str  #: bulkhead class that was shed ("write" or "read")
    queue: int  #: queue depth observed at the shed decision
    limit: int  #: the configured bound that was hit


def is_overloaded(value: Any) -> bool:
    """True when an adopted value is a shed ``OpResult``.

    Accepts either the raw :class:`Overloaded` payload or an
    ``OpResult``-shaped object wrapping one (anything with a ``value``
    attribute), so drivers and checkers can test adopted replies without
    caring which layer unwrapped the result.
    """
    if isinstance(value, Overloaded):
        return True
    return isinstance(getattr(value, "value", None), Overloaded)


class TokenBucket:
    """Token bucket with multiplicative-backoff freeze windows.

    Plain bucket semantics: ``try_acquire(now)`` lazily refills at
    ``rate`` tokens/unit (capped at ``burst``) and spends one token, or
    returns ``False`` and counts a throttle.  Overload feedback hooks:

    * :meth:`penalize` (call on an :class:`Overloaded` result) empties
      the bucket and freezes refill for ``backoff_base * 2**(strikes-1)``
      time units, capped at ``backoff_cap`` -- consecutive sheds back
      off exponentially;
    * :meth:`restore` (call on a successful adoption) clears the strike
      count, so a recovered server sees full-rate traffic again.

    Deterministic: no wall-clock reads; the caller supplies ``now``
    (simulated time).  Counters ``acquired`` / ``throttled`` feed
    :func:`repro.analysis.checkers.check_admission_accounting`.
    """

    def __init__(
        self,
        rate: float,
        burst: float = 8.0,
        backoff_base: float = 5.0,
        backoff_cap: float = 80.0,
    ) -> None:
        if rate <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate = rate
        self.burst = burst
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.tokens = burst
        self.acquired = 0
        self.throttled = 0
        self.strikes = 0
        self._stamp = 0.0
        self._frozen_until = 0.0

    def _refill(self, now: float) -> None:
        if now < self._frozen_until:
            # Frozen: time passing accrues nothing (the stamp advances so
            # the freeze window itself never converts into tokens later).
            self._stamp = now
            return
        elapsed = now - self._stamp
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, now: float) -> bool:
        """Spend one token if available; count a throttle otherwise."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.acquired += 1
            return True
        self.throttled += 1
        return False

    def penalize(self, now: float) -> None:
        """React to an :class:`Overloaded` result: drain + freeze refill."""
        self.strikes += 1
        window = min(self.backoff_cap, self.backoff_base * 2 ** (self.strikes - 1))
        self._frozen_until = max(self._frozen_until, now + window)
        self.tokens = 0.0
        self._stamp = now

    def restore(self) -> None:
        """React to a successful adoption: clear the backoff state."""
        self.strikes = 0

    @property
    def frozen_until(self) -> float:
        """End of the current backoff window (for tests/telemetry)."""
        return self._frozen_until
