"""Open-loop overload harness: arrival processes, latency percentiles,
and a sessioned driver with client-side admission control.

The closed/open drivers in :mod:`repro.workload.drivers` model a fixed
population of clients each with at most a handful of outstanding
requests -- fine for latency studies, useless for the overload question
("what happens at 2x saturation?") because a closed loop self-throttles:
arrival rate collapses to service rate the moment the system slows.
This module is the *open-loop* counterpart:

* **Arrival processes** -- :class:`PoissonProcess` (homogeneous),
  :class:`DiurnalProcess` (sinusoidal day/night rate) and
  :class:`FlashCrowdProcess` (piecewise surge: ramp, hold, decay).  The
  non-homogeneous ones sample inter-arrival gaps by Lewis-Shedler
  thinning against their peak rate, so all three are exact and
  deterministic under a seeded ``random.Random``.
* **Sessions** -- the driver multiplexes ``n_sessions`` logical user
  sessions over one protocol client.  Per-session state is a single
  counter (ops issued), so "millions of users" costs one dict entry per
  *active* session, not a process per user; the session id is carried in
  each op's trace tag for locality studies.
* **Latency recorder** -- :class:`LatencyRecorder` keeps exact samples
  up to a limit, then collapses into logarithmic buckets (2% width), so
  p50/p99/p999 over arbitrarily long runs cost O(buckets) memory with
  bounded relative error.  Recorders merge, so per-client recorders
  combine into a run-level summary.
* **Admission-aware driver** -- :class:`SessionedOpenLoopDriver` offers
  load on the arrival process's clock regardless of outstanding count,
  optionally gated by a client-side
  :class:`~repro.core.admission.TokenBucket`; it counts every offered
  arrival into exactly one of ``throttled`` (refused locally),
  ``shed`` (refused by the sequencer with
  :class:`~repro.core.admission.Overloaded`) or ``admitted``
  (adopted normally), which is the conservation law
  :func:`repro.analysis.checkers.check_admission_accounting` asserts.

Warm-up windows follow the B14 rule: latency is recorded only for ops
submitted at or after ``measure_from``, so the measured distribution is
steady state rather than cold-start transient.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.admission import TokenBucket, is_overloaded
from repro.sim.loop import Simulator

Op = Tuple[Any, ...]


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------

class PoissonProcess:
    """Homogeneous Poisson arrivals at ``rate`` per time unit."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.peak_rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def next_gap(self, now: float, rng: random.Random) -> float:
        return rng.expovariate(self.rate)


class _ThinnedProcess:
    """Shared Lewis-Shedler thinning for non-homogeneous processes.

    Candidate arrivals are drawn from a homogeneous process at
    ``peak_rate`` and accepted with probability ``rate_at(t)/peak_rate``
    -- exact for any bounded intensity function, and each draw consumes
    a fixed number of RNG values, so runs are seed-reproducible.
    """

    peak_rate: float

    def rate_at(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def next_gap(self, now: float, rng: random.Random) -> float:
        t = now
        while True:
            t += rng.expovariate(self.peak_rate)
            if rng.random() * self.peak_rate <= self.rate_at(t):
                return t - now


class DiurnalProcess(_ThinnedProcess):
    """Sinusoidal day/night intensity between ``base_rate`` and ``peak_rate``.

    ``rate_at(t)`` swings over one ``period`` from the trough
    (``base_rate``, at ``t = 0``) up to ``peak_rate`` and back.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        period: float,
    ) -> None:
        if base_rate <= 0 or peak_rate < base_rate:
            raise ValueError("need 0 < base_rate <= peak_rate")
        if period <= 0:
            raise ValueError("period must be positive")
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.period = period

    def rate_at(self, t: float) -> float:
        mid = (self.base_rate + self.peak_rate) / 2.0
        amp = (self.peak_rate - self.base_rate) / 2.0
        # Cosine so the trough sits exactly at t == 0.
        return mid - amp * math.cos(2.0 * math.pi * t / self.period)


class FlashCrowdProcess(_ThinnedProcess):
    """Piecewise surge: baseline, linear ramp to peak, hold, linear decay.

    ``rate_at`` is ``base_rate`` before ``at``, ramps linearly to
    ``peak_rate`` over ``ramp``, holds for ``hold``, then decays
    linearly back over ``decay`` -- the thundering-herd shape that makes
    admission control earn its keep.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        at: float,
        ramp: float = 1.0,
        hold: float = 0.0,
        decay: float = 1.0,
    ) -> None:
        if base_rate <= 0 or peak_rate < base_rate:
            raise ValueError("need 0 < base_rate <= peak_rate")
        if ramp <= 0 or decay <= 0 or hold < 0 or at < 0:
            raise ValueError("ramp/decay must be positive, at/hold non-negative")
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.at = at
        self.ramp = ramp
        self.hold = hold
        self.decay = decay

    def rate_at(self, t: float) -> float:
        if t < self.at:
            return self.base_rate
        t -= self.at
        if t < self.ramp:
            return self.base_rate + (self.peak_rate - self.base_rate) * (t / self.ramp)
        t -= self.ramp
        if t < self.hold:
            return self.peak_rate
        t -= self.hold
        if t < self.decay:
            return self.peak_rate - (self.peak_rate - self.base_rate) * (t / self.decay)
        return self.base_rate


# ----------------------------------------------------------------------
# Streaming latency percentiles
# ----------------------------------------------------------------------

class LatencyRecorder:
    """Streaming p50/p99/p999 with bounded memory.

    Two regimes.  Up to ``exact_limit`` samples the recorder keeps the
    raw values and :meth:`quantile` matches
    :func:`repro.analysis.stats.percentile` exactly (linear
    interpolation between order statistics).  Past the limit it
    collapses into logarithmic buckets of width ``growth`` (2% by
    default): each sample lands in bucket ``floor(log(v)/log(growth))``
    and is represented by the bucket's geometric midpoint, bounding
    relative quantile error at ~``(growth-1)/2`` regardless of run
    length.  Count/sum/min/max stay exact in both regimes.

    Recorders :meth:`merge`, and merging never loses precision beyond
    the bucket width: exact+exact stays exact while under the limit,
    anything else buckets.
    """

    def __init__(self, exact_limit: int = 4096, growth: float = 1.02) -> None:
        if exact_limit < 1:
            raise ValueError("exact_limit must be >= 1")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.exact_limit = exact_limit
        self.growth = growth
        self._log_growth = math.log(growth)
        self._exact: Optional[List[float]] = []
        self._buckets: Dict[int, int] = {}
        self._zero = 0  # non-positive samples get their own bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- ingest -------------------------------------------------------

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_limit:
                self._collapse()
        else:
            self._bucket(value)

    def _bucket_index(self, value: float) -> int:
        return math.floor(math.log(value) / self._log_growth)

    def _bucket(self, value: float) -> None:
        if value <= 0:
            self._zero += 1
            return
        key = self._bucket_index(value)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def _collapse(self) -> None:
        assert self._exact is not None
        for value in self._exact:
            self._bucket(value)
        self._exact = None

    # -- merge --------------------------------------------------------

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold ``other``'s samples into this recorder (``other`` unchanged)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)  # type: ignore[arg-type]
        self.max = other.max if self.max is None else max(self.max, other.max)  # type: ignore[arg-type]
        if self._exact is not None and other._exact is not None:
            self._exact.extend(other._exact)
            if len(self._exact) > self.exact_limit:
                self._collapse()
            return
        if self._exact is not None:
            self._collapse()
        if other._exact is not None:
            for value in other._exact:
                self._bucket(value)
        else:
            if other.growth != self.growth:
                raise ValueError("cannot merge bucketed recorders with different growth")
            self._zero += other._zero
            for key, n in other._buckets.items():
                self._buckets[key] = self._buckets.get(key, 0) + n

    # -- query --------------------------------------------------------

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of everything recorded."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            raise ValueError("no samples recorded")
        if self._exact is not None:
            ordered = sorted(self._exact)
            if len(ordered) == 1:
                return ordered[0]
            # Same linear interpolation as repro.analysis.stats.percentile.
            idx = q * (len(ordered) - 1)
            lo = math.floor(idx)
            hi = math.ceil(idx)
            if lo == hi:
                return ordered[lo]
            frac = idx - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac
        # Bucketed: walk buckets in value order to the target rank and
        # return the owning bucket's geometric midpoint.
        target = q * (self.count - 1)
        seen = self._zero
        if target < seen:
            return 0.0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if target < seen:
                return self.growth ** (key + 0.5)
        return self.max if self.max is not None else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The standard report dict (count/mean/min/max + p50/p99/p999)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }


# ----------------------------------------------------------------------
# Sessioned open-loop driver
# ----------------------------------------------------------------------

class SessionedOpenLoopDriver:
    """Open-loop arrivals multiplexing many logical sessions, with
    optional client-side throttling and shed accounting.

    Every arrival tick increments ``offered`` and is resolved exactly
    once into one of three buckets:

    * ``throttled`` -- the token ``bucket`` (when given) refused the op
      locally; nothing is submitted and a ``throttle`` trace event is
      emitted.  :meth:`TokenBucket.penalize` backoff means a flood of
      sheds converts future arrivals into throttles, which is the whole
      point: pushback moves to the edge.
    * ``shed`` -- submitted, but the sequencer answered
      :class:`Overloaded`; the bucket (when given) is penalized.
    * ``admitted`` -- submitted and adopted normally; latency is
      recorded when the op was submitted at or after ``measure_from``
      (the warm-up rule), and the bucket's strike count resets.

    The conservation law ``offered == throttled + shed + admitted +
    in_flight`` therefore holds at every instant, with ``in_flight``
    the client's outstanding count attributable to this driver; the
    admission checker asserts it exactly at quiescence
    (``in_flight == 0``).

    Implements the standard driver contract (``done`` property,
    ``submitted`` list) so harness quiescence detection and the
    per-shard checkers treat it like any other driver.
    """

    def __init__(
        self,
        sim: Simulator,
        client: Any,
        ops: Iterator[Op],
        total: int,
        arrival: Any,
        rng: random.Random,
        n_sessions: int = 64,
        start_at: float = 0.0,
        bucket: Optional[TokenBucket] = None,
        measure_from: float = 0.0,
    ) -> None:
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        self.sim = sim
        self.client = client
        self.ops = ops
        self.remaining = total
        self.arrival = arrival
        self.rng = rng
        self.n_sessions = n_sessions
        self.bucket = bucket
        self.recorder = LatencyRecorder()
        self.measure_from = measure_from
        self.submitted: List[str] = []
        #: lazily-populated per-session op counters: session id -> ops
        #: issued.  One int per *touched* session is the entire
        #: per-session state, which is what keeps huge session counts
        #: cheap.
        self.sessions: Dict[int, int] = {}
        self.offered = 0
        self.throttled = 0
        self.admitted = 0
        self.shed = 0
        self._own_rids: Dict[str, float] = {}  # rid -> submit time
        previous = client.on_adopt

        def chained(adopted: Any) -> None:
            if previous is not None:
                previous(adopted)
            self._on_adopt(adopted)

        client.on_adopt = chained
        sim.schedule_at(start_at + arrival.next_gap(start_at, rng), self._arrive)

    @property
    def done(self) -> bool:
        return self.remaining == 0 and self.client.outstanding == 0

    @property
    def in_flight(self) -> int:
        """Ops this driver submitted that have not resolved yet."""
        return len(self._own_rids)

    def _arrive(self) -> None:
        if self.remaining == 0:
            return
        self.remaining -= 1
        self.offered += 1
        session = self.rng.randrange(self.n_sessions)
        self.sessions[session] = self.sessions.get(session, 0) + 1
        now = self.sim.now
        if self.bucket is not None and not self.bucket.try_acquire(now):
            self.throttled += 1
            self.client.env.trace("throttle", session=session)
        else:
            op = next(self.ops)
            rid = self.client.submit(op)
            self.submitted.append(rid)
            self._own_rids[rid] = now
        if self.remaining > 0:
            self.sim.schedule(self.arrival.next_gap(now, self.rng), self._arrive)

    def _on_adopt(self, adopted: Any) -> None:
        submit_time = self._own_rids.pop(adopted.rid, None)
        if submit_time is None:
            return  # not ours (another driver / internal op on this client)
        now = self.sim.now
        if is_overloaded(adopted.value):
            self.shed += 1
            if self.bucket is not None:
                self.bucket.penalize(now)
            return
        self.admitted += 1
        if self.bucket is not None:
            self.bucket.restore()
        if submit_time >= self.measure_from:
            self.recorder.record(now - submit_time)
