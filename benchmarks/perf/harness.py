"""Perf harness: the gated cells of ``BENCH_perf.json``.

Every cell here is read by a gate of ``run_perf.check``; none is a rate
to be compared with one measured in another run or on another machine.
How fast a whole request is, is judged parent against change on one
machine by ``python -m benchmarks.e2e compare``.  Two kinds of cells:

* **Same-run ratios**, each a quotient of two costs measured in this
  run, in ``time.process_time`` (what the process computed, not how long
  it waited to be scheduled):

  * ``kernel_vs_reference`` -- does the same-instant fast lane still
    pay?  A same-instant cascade through the real ``Simulator`` over
    the same cascade through :class:`ReferenceLoop`, the heap-only
    kernel the determinism property tests compare against, in turns.
  * ``history_scaling`` -- does a request cost the same late in a run
    as early?  Adopted writes per CPU second over the last quarter of
    one long run, divided by the same over its first quarter.
  * ``checker_scaling`` -- is the checker bundle linear in the trace?
    ``check_all()`` CPU seconds on a full-trace run with 4x the
    requests, divided by the same on the 1x run.
  * the codec ratio of :mod:`benchmarks.perf.wallclock`.

* **Counts** of fixed-seed runs, per interpreter version:

  * ``calls_per_op`` -- how many Python functions run for one simulated
    write?  Calls counted by ``sys.setprofile`` over a fixed-seed
    sharded run, per adopted operation: a function of the code and the
    interpreter version and of nothing else.
  * ``bytes_per_op`` -- how much does one simulated write leave behind?
    Bytes ``tracemalloc`` finds still held after the same run, per
    adopted operation.
  * ``bytes_per_read_op`` -- the same for the ``tcp_read_heavy`` shape
    on the simulator: what an adopted read (nine in ten ops) leaves
    behind.
  * ``bytes_per_tcp_write`` -- the same for the ``tcp_write_sat`` shape
    over real sockets: what a decoded write leaves behind.

Beside them, the fixed-seed determinism digest.  What a request costs in
messages, events and trace records is exact on the simulator and pinned,
with ``==``, in ``tests/integration/test_builder_digests.py``.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Tuple

from repro.core.server import OARConfig
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.sharding.cluster import (
    ShardedScenarioConfig,
    build_sharded_scenario,
    run_sharded_scenario,
)
from repro.sim.loop import Simulator

#: Fixed-seed determinism scenario (full tracing, message-level events
#: included): its trace digest must never change under a semantics-
#: preserving optimization.  The golden value was captured at f35608a
#: and is asserted by tests/property/test_kernel_determinism.py.
GOLDEN_DIGEST = "83faff120b9b5c1eb25b54c56ed4c06fa72536a2ad217dffb50a6e323c06d3be"
GOLDEN_CONFIG = dict(
    n_servers=3,
    n_clients=2,
    requests_per_client=15,
    machine="kv",
    driver="open",
    open_rate=1.0,
    grace=100.0,
    horizon=10_000.0,
    seed=1234,
    trace_messages=True,
)


def golden_scenario_digest() -> str:
    """Digest of the fixed-seed determinism scenario (must stay golden)."""
    run = run_scenario(ScenarioConfig(**GOLDEN_CONFIG))
    assert run.all_done()
    return run.trace.digest()


# ----------------------------------------------------------------------
# Same-run ratios
# ----------------------------------------------------------------------

class ReferenceLoop:
    """The original kernel: every event in one heap, ordered by (time,
    scheduling counter).

    The semantics the ``Simulator``'s two event stores must reproduce
    (``tests/property/test_kernel_determinism.py`` drives random
    scheduling programs through both) and the cost its same-instant fast
    lane must beat (:func:`kernel_vs_reference`).
    """

    def __init__(self) -> None:
        self._queue: List[Any] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self.now + delay, next(self._counter), callback))

    def call_soon(self, callback: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self.now, next(self._counter), callback))

    def run(self) -> None:
        while self._queue:
            when, _seq, callback = heapq.heappop(self._queue)
            self.now = when
            callback()


def _cascade(loop: Any, n: int) -> float:
    """Events/sec of a same-instant cascade of ``n`` events on ``loop``."""
    remaining = [n]

    def pump() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            loop.call_soon(pump)

    loop.call_soon(pump)
    start = time.process_time()
    loop.run()
    return n / (time.process_time() - start)


def median_pair(
    first: Callable[[], float], second: Callable[[], float], pairs: int = 15
) -> Tuple[float, float]:
    """``(first(), second())`` measured back to back ``pairs`` times;
    the pair whose ratio is the median one.

    What the interleaved ratio cells report.  A shared machine changes
    speed by 2x within tens of milliseconds: the best of each side over
    the whole cell pairs one side's fast spell with the other's slow one
    (the fast-lane ratio read 0.81 and 0.91 that way in two of ten runs,
    and 2.06 in others), while a change of speed spoils only the pairs
    it falls in and leaves the median where it was.
    """
    measured = sorted(
        ((first(), second()) for _ in range(pairs)), key=lambda pair: pair[0] / pair[1]
    )
    return measured[pairs // 2]


def kernel_vs_reference(quick: bool) -> Dict[str, float]:
    """The cascade's rate on the ``Simulator`` over its rate on the
    heap-only :class:`ReferenceLoop`.

    Both loops run the same ``n`` events in turns (:func:`median_pair`),
    so the machine cancels in the ratio.  The fast lane is one deque
    append and pop per event, no heap entry, no counter.  Both are
    warmed up first: up to CPython 3.11 a function is only specialised
    from its eighth call, and ``run()`` is called once per cascade.
    """
    n = 60_000 if quick else 200_000

    def rate(make: Callable[[], Any]) -> float:
        gc.collect()
        return _cascade(make(), n)

    for make in (Simulator, ReferenceLoop):
        for _ in range(8):
            _cascade(make(), 100)
    fast_lane, reference = median_pair(lambda: rate(Simulator), lambda: rate(ReferenceLoop))
    return {
        "events": n,
        "fast_lane_events_per_sec": round(fast_lane, 1),
        "reference_events_per_sec": round(reference, 1),
        "ratio": round(fast_lane / reference, 3),
    }


#: Writes in the history-scaling run (quick mode / full mode).
HISTORY_WRITES_QUICK = 3_000
HISTORY_WRITES_FULL = 8_000


def history_scaling(total_writes: int) -> Dict[str, float]:
    """CPU-time throughput of one run's last quarter over its first.

    One OAR group (3 replicas, tracing off), 4 closed-loop clients
    issuing ``total_writes`` kv writes in all: the load is the same from
    the first request to the last, so the only thing that differs
    between the quarters is how much history the replicas carry.  Both
    rates are CPU time of the same process seconds apart, each over its
    quarter's fastest stretch of 25 adoptions -- a shared machine spends
    part of a quarter at half speed, and which part differs between the
    quarters (whole-quarter rates read 0.64-1.42 on unchanged code) --
    so the machine cancels in the ratio; ordering bookkeeping that grows
    with the run (a copy or a scan of ``R_delivered`` / ``O_delivered``
    per request) slows every stretch of the last quarter and shows as a
    ratio well below 1.

    The cyclic collector is off for the run: its full passes walk every
    live container, so they slow down as *any* state is retained (the
    undo log and reply caches of an epoch that never settles) and took
    the ratio of history-independent code from ~0.95 to ~0.75.  The cell
    measures what the program does per request, not the collector.
    """
    stamps: List[float] = []

    def stamp_adoptions(run: Any) -> None:
        for client in run.clients:
            downstream = client.on_adopt

            def on_adopt(adopted: Any, downstream: Any = downstream) -> None:
                stamps.append(time.process_time())
                downstream(adopted)

            client.on_adopt = on_adopt

    config = ScenarioConfig(
        n_servers=3,
        n_clients=4,
        requests_per_client=total_writes // 4,
        machine="kv",
        read_ratio=0.0,
        driver="closed",
        grace=50.0,
        horizon=10_000_000.0,
        max_events=50_000_000,
        seed=0,
        trace_level="off",
        arm=stamp_adoptions,
    )
    gc.collect()
    gc.disable()
    try:
        run = run_scenario(config)
    finally:
        gc.enable()
    assert run.all_done() and len(stamps) == 4 * (total_writes // 4)
    quarter = len(stamps) // 4
    stretch = 25

    def best_rate(segment: List[float]) -> float:
        return stretch / min(
            segment[i + stretch] - segment[i]
            for i in range(0, len(segment) - stretch, stretch)
        )

    first, last = best_rate(stamps[:quarter]), best_rate(stamps[-quarter:])
    return {
        "writes": len(stamps),
        "ops_per_sec_q1": round(first, 1),
        "ops_per_sec_q4": round(last, 1),
        "ratio": round(last / first, 3),
    }


def median_history_scaling(quick: bool) -> Dict[str, float]:
    """The median-ratio run of five: a machine that stays slow for a
    whole quarter moves one run, either way (single runs read 0.69-1.45);
    growing bookkeeping lowers every run's."""
    writes = HISTORY_WRITES_QUICK if quick else HISTORY_WRITES_FULL
    runs = sorted((history_scaling(writes) for _ in range(5)), key=lambda cell: cell["ratio"])
    return runs[2]


#: Requests per client of the 1x checker-scaling run (quick / full).
CHECKER_REQUESTS_QUICK = 32
CHECKER_REQUESTS_FULL = 256


def checker_run(requests_per_client: int) -> Any:
    """One quiescent full-trace run of the checker-scaling shape.

    One shard of 3 replicas, 4 closed-loop clients writing kv keys:
    failure-free, so every request of the run is Opt-delivered in the
    one epoch -- the longest per-epoch orders a run of that length can
    hand the majority-guarantee and Cnsv-order checkers.
    """
    run = run_sharded_scenario(
        ShardedScenarioConfig(
            n_shards=1,
            n_servers=3,
            n_clients=4,
            requests_per_client=requests_per_client,
            machine="kv",
            workload="uniform",
            n_keys=64,
            driver="closed",
            grace=50.0,
            horizon=10_000_000.0,
            max_events=50_000_000,
            seed=0,
        )
    )
    assert run.all_done()
    return run


def checker_scaling(quick: bool) -> Dict[str, float]:
    """``check_all()`` seconds at 4x the requests over the same at 1x.

    Both runs are built first and then timed in turns
    (:func:`median_pair`; the bundle reads a run and changes nothing),
    so the machine cancels in the ratio: a bundle linear in the trace
    reads about 4, the per-epoch pairwise majority-guarantee sweep it
    replaced read 53-54 on the quick shape (cubic is 64).  The cyclic
    collector is off while timing, as in :func:`history_scaling`: a full
    pass walks the whole retained trace, which is not what the checkers
    cost.
    """
    requests = CHECKER_REQUESTS_QUICK if quick else CHECKER_REQUESTS_FULL

    def seconds(run: Any) -> float:
        start = time.process_time()
        run.check_all()
        return time.process_time() - start

    small, large = checker_run(requests), checker_run(4 * requests)
    gc.collect()
    gc.disable()
    try:
        sec_4x, sec_1x = median_pair(lambda: seconds(large), lambda: seconds(small))
    finally:
        gc.enable()
    return {
        "requests_per_client": requests,
        "check_all_sec_1x": round(sec_1x, 5),
        "check_all_sec_4x": round(sec_4x, 5),
        "ratio": round(sec_4x / sec_1x, 2),
    }


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------

def _calls_shape(requests_per_client: int) -> ShardedScenarioConfig:
    """The ``sim_shard_write`` shape of ``benchmarks/e2e``, any size."""
    return ShardedScenarioConfig(
        n_shards=4,
        n_servers=3,
        n_clients=8,
        requests_per_client=requests_per_client,
        n_keys=64,
        machine="kv",
        workload="uniform",
        driver="open",
        open_rate=0.5,
        oar=OARConfig(order_cost=0.5),
        exec_cost=0.25,
        exec_lanes=2,
        trace_level="off",
        seed=7,
    )


def calls_per_op() -> Dict[str, Any]:
    """Python-level calls per adopted write of a fixed-seed sharded run.

    The ``sim_shard_write`` shape at a fifteenth of its size -- 4 shards
    x 3 replicas, 8 open-loop clients x 50 kv writes, costed ordering,
    two execution lanes, trace off -- run to quiescence under
    ``sys.setprofile``, counting ``call`` events: every Python function
    (and generator) entered, nothing a C function does.  Same seed, same
    events, same handlers, so the count repeats exactly on one
    interpreter version and says the same on any machine at any speed;
    it moves only when a frame is added to or taken off the path of a
    message, a timer, a trace point or the run loop -- which is where
    the simulator's host time goes once the protocol's own work is done.
    """
    # Once through uncounted: ``abc`` remembers each class it has
    # answered ``isinstance`` for, so a process's first run makes four
    # calls no later one does.
    run_sharded_scenario(_calls_shape(2))
    run = build_sharded_scenario(_calls_shape(50))
    calls = 0

    def count(_frame: Any, event: str, _arg: Any) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    # The cyclic collector is off while counting: what it finds is other
    # code's garbage, and a finaliser written in Python is a call.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run.execute()
    finally:
        sys.setprofile(previous)
        gc.enable()
    adopted = len(run.adopted())
    assert run.all_done() and adopted == 8 * 50
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "adopted": adopted,
        "sim_events": run.sim.events_processed,
        "python_calls": calls,
        "calls_per_op": round(calls / adopted, 2),
    }


def _held_after(execute: Callable[[], Any]) -> Tuple[Any, int]:
    """What ``execute()`` returns, and the bytes it leaves held once the
    cyclic collector has run."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = execute()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _retained_per_op(
    shape: Callable[[int], ShardedScenarioConfig], requests: int, key: str
) -> Dict[str, Any]:
    """Bytes a fixed-seed run of ``shape(requests)`` still holds, per adopted op."""
    run_sharded_scenario(shape(2))
    run = build_sharded_scenario(shape(requests))
    _, retained = _held_after(run.execute)
    adopted = len(run.adopted())
    assert run.all_done() and adopted == run.config.n_clients * requests
    return _retained_cell(key, adopted, retained)


def _retained_cell(key: str, adopted: int, retained: int) -> Dict[str, Any]:
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "adopted": adopted,
        "retained_bytes": retained,
        key: round(retained / adopted, 1),
    }


def bytes_per_op() -> Dict[str, Any]:
    """Bytes a simulated write leaves behind, per adopted write.

    The run of :func:`calls_per_op`, traced by ``tracemalloc`` instead:
    what the run allocated and still holds once it is over and the
    cyclic collector has had a full pass -- the reply caches, undo logs,
    order certificates and ordering logs of an epoch that never settles
    -- divided by the adopted writes.  Blocks the build allocated are
    not traced, so only what executing the writes left behind counts.
    Same seed, same objects, so the reading repeats to a fraction of a
    byte on one interpreter version; it moves when a write keeps more
    (or fewer) objects alive.
    """
    return _retained_per_op(_calls_shape, 50, "bytes_per_op")


def _read_shape(requests_per_client: int) -> ShardedScenarioConfig:
    """The ``tcp_read_heavy`` shape of ``benchmarks/e2e`` on the simulator."""
    return ShardedScenarioConfig(
        n_shards=1,
        n_servers=3,
        n_clients=4,
        requests_per_client=requests_per_client,
        machine="kv",
        workload="readheavy",
        read_ratio=0.9,
        zipf_s=1.2,
        read_mode="optimistic",
        driver="closed",
        trace_level="off",
        seed=7,
    )


def bytes_per_read_op() -> Dict[str, Any]:
    """Bytes a read-heavy run leaves behind, per adopted op.

    :func:`bytes_per_op`'s method on a fixed-seed simulated copy of the
    ``tcp_read_heavy`` shape -- one group of 3, 4 closed-loop clients x
    100 kv ops, nine in ten of them Zipf-1.2 replica-local optimistic
    reads, trace off.  What an adopted read keeps is its adopted reply
    (rid, result, position, weight) in the client's book; a write adds
    its reply cache, undo and ordering entries.  It moves when an
    adoption keeps more objects alive: a result with a ``__dict__``, a
    weight tuple of its own.
    """
    return _retained_per_op(_read_shape, 100, "bytes_per_read_op")


def _tcp_write_shape(requests_per_client: int) -> RuntimeScenarioConfig:
    """The ``tcp_write_sat`` shape of ``benchmarks/e2e``, any size."""
    return RuntimeScenarioConfig(
        scenario=ShardedScenarioConfig(
            n_shards=1,
            n_servers=3,
            n_clients=4,
            requests_per_client=requests_per_client,
            machine="kv",
            workload="uniform",
            driver="open",
            open_rate=500.0,
            trace_level="off",
            seed=1000,
        ),
        backend="tcp",
        time_scale=0.04,
        tcp_flush_interval=0.002,
    )


def bytes_per_tcp_write() -> Dict[str, Any]:
    """Bytes a write over real sockets leaves behind, per adopted write.

    :func:`bytes_per_op`'s method on the ``tcp_write_sat`` shape -- one
    group of 3 on localhost TCP, 4 open-loop clients x 250 kv writes
    offered far above capacity, 2 ms flush window, fixed seed, trace off
    -- with the build inside the traced region (a runtime run builds,
    drives and tears down in one call).  Over sockets every replica
    keeps the bodies it decoded, so a decoded name that is not the
    process's own string is a copy per body per replica.  How writes
    batch into orders follows the wall clock, so the reading moves a
    little from run to run.
    """
    run_runtime_scenario(_tcp_write_shape(2))
    run, retained = _held_after(lambda: run_runtime_scenario(_tcp_write_shape(250)))
    adopted = len(run.adopted())
    assert run.completed and adopted == 4 * 250
    return _retained_cell("bytes_per_tcp_write", adopted, retained)


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------

def run_suite(quick: bool = False, wallclock: bool = True) -> Dict[str, Any]:
    """Run every cell; returns the BENCH_perf.json payload.

    ``wallclock=True`` (the default, used by ``run_perf.py`` and the CI
    gate) appends the codec section from
    :mod:`benchmarks.perf.wallclock`; the in-tier smoke test passes
    ``wallclock=False`` and covers that section with a tiny shape
    separately.
    """
    payload: Dict[str, Any] = {
        "schema": 2,
        "kernel_vs_reference": kernel_vs_reference(quick),
        "golden_digest": golden_scenario_digest(),
        "history_scaling": median_history_scaling(quick),
        "checker_scaling": checker_scaling(quick),
        "calls_per_op": calls_per_op(),
        "bytes_per_op": bytes_per_op(),
        "bytes_per_read_op": bytes_per_read_op(),
        "bytes_per_tcp_write": bytes_per_tcp_write(),
    }
    if wallclock:
        from benchmarks.perf.wallclock import run_wallclock

        payload["wallclock"] = run_wallclock(quick)
    return payload


def format_table(payload: Dict[str, Any]) -> str:
    """Human-readable rendering of one suite run."""
    kernel = payload["kernel_vs_reference"]
    lines = [
        f"kernel fast lane ({kernel['events']} same-instant events, in turns): "
        f"{kernel['fast_lane_events_per_sec']:,.0f} events/s / "
        f"{kernel['reference_events_per_sec']:,.0f} on the heap-only "
        f"reference loop = {kernel['ratio']:.2f}"
    ]
    history = payload["history_scaling"]
    lines.append(
        f"history scaling ({history['writes']} writes, median run of five): "
        f"{history['ops_per_sec_q4']:,.1f} ops/s in the last quarter / "
        f"{history['ops_per_sec_q1']:,.1f} in the first = {history['ratio']:.3f}"
    )
    checker = payload["checker_scaling"]
    lines.append(
        f"checker scaling (check_all, {checker['requests_per_client']} -> "
        f"{4 * checker['requests_per_client']} requests per client): "
        f"{checker['check_all_sec_4x']:.4f} s / "
        f"{checker['check_all_sec_1x']:.4f} s = {checker['ratio']:.2f} "
        f"(linear is 4)"
    )
    calls = payload["calls_per_op"]
    lines.append(
        f"calls per op ({calls['adopted']} sharded writes, {calls['sim_events']} "
        f"simulator events, Python {calls['python']}): {calls['python_calls']:,} "
        f"Python-level calls = {calls['calls_per_op']:.2f} per adopted op"
    )
    kept = payload["bytes_per_op"]
    lines.append(
        f"bytes per op (the same run under tracemalloc, Python {kept['python']}): "
        f"{kept['retained_bytes']:,} B retained = {kept['bytes_per_op']:.1f} per adopted op"
    )
    kept = payload["bytes_per_read_op"]
    lines.append(
        f"bytes per read op ({kept['adopted']} ops of the read-heavy shape, 90 % reads, "
        f"Python {kept['python']}): {kept['retained_bytes']:,} B retained = "
        f"{kept['bytes_per_read_op']:.1f} per adopted op"
    )
    kept = payload["bytes_per_tcp_write"]
    lines.append(
        f"bytes per TCP write ({kept['adopted']} writes over localhost sockets, "
        f"Python {kept['python']}): {kept['retained_bytes']:,} B retained = "
        f"{kept['bytes_per_tcp_write']:.1f} per adopted write"
    )
    lines.append("")
    lines.append(f"golden digest: {payload['golden_digest']}")
    if "wallclock" in payload:
        from benchmarks.perf.wallclock import format_wallclock

        lines.append("")
        lines.append(format_wallclock(payload["wallclock"]))
    return "\n".join(lines)


def write_payload(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
