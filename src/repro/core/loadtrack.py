"""Exponentially decayed per-key load counters.

PR 3's rebalance planner consumed the clients' raw per-key submission
counters, which accumulate forever: a key that was hot during warm-up
and went cold an hour ago still dominates the snapshot, so the planner
can migrate yesterday's hot set instead of today's.  The
:class:`DecayingKeyLoad` counter fixes that: every recorded submission
decays with a configurable half-life, so a snapshot taken *now* weights
recent traffic exponentially more than old traffic, and a key nobody
touches converges to zero load.

The counter keeps two books per key:

* the **decayed value** (a float), updated lazily -- decay is applied
  when a key is touched or snapshotted, so idle keys cost nothing;
* the **exact count** (an int), never decayed -- the "each logical
  operation counted exactly once" invariant the redirect-retry
  compensation relies on, and what tests assert against.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple


class DecayingKeyLoad:
    """A dict-like per-key counter whose values decay exponentially.

    Parameters
    ----------
    half_life:
        Time (in the clock's units) after which a recorded submission
        counts for half.
    clock:
        Zero-argument callable returning the current time.  Evaluated
        lazily on every mutation/snapshot, so it is safe to pass a
        closure over a process environment that does not exist yet
        (``lambda: client.env.now``).
    """

    __slots__ = ("half_life", "_clock", "_decayed", "_exact")

    def __init__(
        self,
        half_life: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life
        self._clock = clock if clock is not None else (lambda: 0.0)
        #: key -> (decayed value, time it was last brought current).
        self._decayed: Dict[Any, Tuple[float, float]] = {}
        #: key -> exact (undecayed) submission count.
        self._exact: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _current(self, key: Any, now: float) -> float:
        entry = self._decayed.get(key)
        if entry is None:
            return 0.0
        value, at = entry
        if value == 0.0:
            return value
        return value * 0.5 ** ((now - at) / self.half_life)

    def record(self, key: Any, weight: float = 1.0) -> None:
        """Count one submission of ``key`` at the clock's current time."""
        now = self._clock()
        self._decayed[key] = (self._current(key, now) + weight, now)
        self._exact[key] = self._exact.get(key, 0) + 1

    def unrecord(self, key: Any, weight: float = 1.0) -> None:
        """Compensate one :meth:`record` (redirect retries are not new
        demand); floors at zero so compensation can never go negative."""
        now = self._clock()
        self._decayed[key] = (max(0.0, self._current(key, now) - weight), now)
        if key in self._exact:
            self._exact[key] -= 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[Any, float]:
        """Every key's decayed load, brought current to the clock's now."""
        now = self._clock()
        return {key: self._current(key, now) for key in self._decayed}

    def counts(self) -> Dict[Any, int]:
        """Exact (undecayed) per-key submission counts."""
        return dict(self._exact)

    def get(self, key: Any, default: float = 0.0) -> float:
        value = self._current(key, self._clock())
        return value if key in self._decayed else default

    def __getitem__(self, key: Any) -> float:
        if key not in self._decayed:
            raise KeyError(key)
        return self._current(key, self._clock())

    def __contains__(self, key: Any) -> bool:
        return key in self._decayed

    def __len__(self) -> int:
        return len(self._decayed)

    def __iter__(self) -> Iterable[Any]:
        return iter(self._decayed)

    def keys(self) -> Iterable[Any]:
        return self._decayed.keys()

    def values(self) -> Iterable[float]:
        return self.snapshot().values()

    def items(self) -> Iterable[Tuple[Any, float]]:
        """(key, decayed load) pairs, brought current to now."""
        return self.snapshot().items()

    def __repr__(self) -> str:
        return (
            f"DecayingKeyLoad(half_life={self.half_life}, "
            f"keys={len(self._decayed)})"
        )
