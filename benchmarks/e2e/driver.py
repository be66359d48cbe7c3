"""Workload drivers of the benchmark: a due-time open loop, injected from outside.

:class:`~repro.workload.drivers.OpenLoopDriver` draws the gap to the
next request when the previous one is *submitted*, and the client stamps
``submit_time`` at the actual submit.  When the event loop is busy the
generator itself runs late, the late requests look fast, and a saturated
run reports a small p50 while its backlog takes seconds to drain
(coordinated omission).  :class:`DueTimeDriver` fixes the schedule
before the run and times every request from when it was *due*.

The scenario builders in ``src/`` construct their drivers by name, so
:func:`injected` rebinds those names for the length of one run -- no
edit under ``src/``.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Op = Tuple[Any, ...]


class DriveStart:
    """When the first driver of a run was built: set-up ends, the drive begins.

    Also the time zero the run's due-time drivers share, so that driver
    k's schedule is not shifted by the time drivers 1..k-1 took to build.
    """

    def __init__(self) -> None:
        self.wall: Optional[float] = None  #: time.time(), comparable across processes
        self.perf: Optional[float] = None  #: time.perf_counter()
        self.cpu: Optional[float] = None  #: time.process_time()

    def mark(self) -> None:
        if self.perf is None:
            self.wall = time.time()
            self.perf = time.perf_counter()
            self.cpu = time.process_time()


def stamped(driver_cls: Callable[..., Any], start: DriveStart) -> Callable[..., Any]:
    """``driver_cls`` that marks ``start`` when its first instance is built."""

    def build(*args: Any, **kwargs: Any) -> Any:
        start.mark()
        return driver_cls(*args, **kwargs)

    return build


class DueTimeDriver:
    """Open loop on a pre-computed seeded schedule, timed from due time.

    Takes :class:`~repro.workload.drivers.OpenLoopDriver`'s constructor
    arguments (``sim`` is any clock with ``schedule_at``; ``rate`` is in
    requests per clock unit) plus the two things it needs to read a
    wall clock: the run's shared :class:`DriveStart` and how many
    seconds one clock unit lasts.

    The schedule is a Poisson process of ``rate`` conditioned on placing
    exactly ``total`` arrivals in ``total / rate`` units (sorted uniform
    draws), so every seed offers the same load over the same window.
    A request the loop could not submit on time is submitted as soon as
    the loop gets to it; its latency still counts from its due time.
    """

    def __init__(
        self,
        sim: Any,
        client: Any,
        ops: Iterator[Op],
        total: int,
        rate: float,
        rng: Optional[random.Random] = None,
        start_at: float = 0.0,
        *,
        start: DriveStart,
        seconds_per_unit: float,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        start.mark()
        self._epoch = start.perf
        self.sim = sim
        self.client = client
        self.ops = ops
        self.remaining = total
        self.submitted: List[str] = []
        rng = rng or random.Random(0)
        window = total / rate
        self._due_units = sorted(start_at + rng.random() * window for _ in range(total))
        self.due_s = [units * seconds_per_unit for units in self._due_units]
        self.submit_s: List[Optional[float]] = [None] * total
        self.adopt_s: List[Optional[float]] = [None] * total
        self._index: Dict[str, int] = {}
        previous = client.on_adopt

        def chained(adopted: Any) -> None:
            if previous is not None:
                previous(adopted)
            self._on_adopt(adopted)

        client.on_adopt = chained
        if total:
            sim.schedule_at(self._due_units[0], self._submit_next)

    @property
    def done(self) -> bool:
        return self.remaining == 0 and self.client.outstanding == 0

    def _submit_next(self) -> None:
        index = len(self.submitted)
        self.remaining -= 1
        self.submit_s[index] = time.perf_counter() - self._epoch
        rid = self.client.submit(next(self.ops))
        self.submitted.append(rid)
        self._index[rid] = index
        if self.remaining:
            self.sim.schedule_at(self._due_units[index + 1], self._submit_next)

    def _on_adopt(self, adopted: Any) -> None:
        index = self._index.get(adopted.rid)
        if index is not None:
            self.adopt_s[index] = time.perf_counter() - self._epoch

    # -- results -------------------------------------------------------

    def latencies_s(self) -> List[float]:
        """Adoption minus *due* time, for every adopted request."""
        return [
            adopt - due
            for adopt, due in zip(self.adopt_s, self.due_s)
            if adopt is not None
        ]

    def lateness_s(self) -> List[float]:
        """How late the generator submitted each request (>= 0 up to timer slop)."""
        return [
            submit - due
            for submit, due in zip(self.submit_s, self.due_s)
            if submit is not None
        ]


@contextlib.contextmanager
def injected(module: Any, **names: Any) -> Iterator[None]:
    """Rebind ``module.<name>`` for the length of the block."""
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, value in names.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
