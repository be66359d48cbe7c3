"""Wall-clock benchmarks: the real asyncio/TCP backend, measured in ops/sec.

Everything else in the perf suite runs on the simulator's virtual
clock; these cells are the throughput story over real sockets -- the
ROADMAP's "as fast as the hardware allows" claim, measured.  Two kinds
of numbers live here:

* **Micros** -- ``codec_roundtrips_per_sec`` (frames through
  encode+decode of a representative protocol mix: the ``binary`` codec
  and, as the same-run reference the gate divides by, plain stdlib
  ``pickle`` of the same frames) and ``tcp_pingpong_msgs_per_sec``
  (loopback round trips through
  :class:`~repro.runtime.tcp.TcpCluster`).
* **End-to-end cells** -- adopted operations per second for the
  failure-free OAR shape, the 2-shard B10 shape, and the read-heavy
  B12 shape, over TCP with tracing off.
* **Stage cell** -- :func:`tcp_paced_stages`: the same OAR group offered
  a third of its capacity with a full trace, read as the four stages of
  a write (:func:`repro.analysis.timeline.stage_latencies`).  Its gate,
  :func:`order_wait_ratio`, divides two medians of one run, so it needs
  no reference machine.

Absolute wall-clock rates are machine-dependent: ``BENCH_perf.json``
carries them as information and nothing gates on them.  The two gates
here are *same-run ratios* (binary vs pickle, order wait vs first hop);
what a change does to the rates is judged parent against change on one
machine by ``python -m benchmarks.e2e compare`` (see
``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import asyncio
import pickle
import time
from typing import Any, Dict, List

from repro.analysis.timeline import StageLatencies, stage_latencies
from repro.broadcast.reliable import RMsg
from repro.core.messages import Reply, Request, SeqOrder
from repro.failure.detector import Heartbeat
from repro.runtime.codec import BinaryCodec
from repro.runtime.scenario import (
    RuntimeScenarioConfig,
    run_runtime_scenario,
)
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedScenarioConfig
from repro.sim.process import Process
from repro.statemachine.base import OpResult

from benchmarks.perf.harness import median_pair

GROUP = ("p1", "p2", "p3")

_RMSG = RMsg(
    "p1:17",
    "c1",
    Request("c1:17", "c1", ("set", "k042", 1234)),
    GROUP,
)
_REPLY = Reply(
    "c1:17",
    OpResult(True, 1234),
    17,
    frozenset(GROUP),
    0,
    conservative=False,
    slot=17,
)

#: The codec micro's message mix, weighted by what one failure-free OAR
#: round actually puts on the wire with a 3-replica group: the
#: R-multicast request frame fans out to each replica, each replica
#: answers with its own reply frame, the sequencer emits one ordering
#: message, and the failure detectors tick heartbeats throughout.
PROTOCOL_MIX: List[Any] = [
    _RMSG,
    _RMSG,
    _RMSG,
    _REPLY,
    _REPLY,
    _REPLY,
    SeqOrder(0, ("c1:15", "c2:16", "c1:17"), start=15),
    Heartbeat(17),
    Heartbeat(18),
]


class _PickleReference:
    """Whole-frame stdlib pickle: what the codec ratio is measured against."""

    @staticmethod
    def encode_frame(src: str, payload: Any) -> bytes:
        return pickle.dumps((src, payload), protocol=pickle.HIGHEST_PROTOCOL)

    decode_frame = staticmethod(pickle.loads)


def _codec_trial(codec: Any, n: int) -> float:
    """One timed pass of ``n`` x mix frames; returns frames per CPU second."""
    encode, decode = codec.encode_frame, codec.decode_frame
    mix = PROTOCOL_MIX
    start = time.process_time()
    for _ in range(n):
        for message in mix:
            decode(encode("p1", message))
    return n * len(mix) / (time.process_time() - start)


def _codec_check(codec: Any) -> None:
    """The codec must be lossless on the mix (repr fidelity is what the
    trace digests hang off)."""
    for message in PROTOCOL_MIX:
        src, out = codec.decode_frame(codec.encode_frame("p1", message))
        assert src == "p1" and repr(out) == repr(message)


def codec_rates(n: int) -> Dict[str, float]:
    """Both codec cells, measured as *interleaved* paired trials.

    Timing binary in one block and pickle in another lets CPU-state
    drift (frequency scaling, cache warmth) between the blocks move the
    reported ratio by tens of percent; alternating the trials gives both
    the same conditions (:func:`~benchmarks.perf.harness.median_pair`),
    so the binary/pickle ratio the perf gate holds is stable across
    runs."""
    for codec in (BinaryCodec, _PickleReference):
        _codec_check(codec)
        _codec_trial(codec, max(1, n // 10))  # warmup
    binary, reference = median_pair(
        lambda: _codec_trial(BinaryCodec, n), lambda: _codec_trial(_PickleReference, n)
    )
    return {"binary": binary, "pickle": reference}


#: Balls in flight for the TCP ping-pong: a window deep enough that the
#: transport pipeline (encode, coalesce, syscall, decode) is measured
#: rather than a single ball's loopback round-trip latency.
PINGPONG_WINDOW = 32


class _TcpPinger(Process):
    """Bounces a window of messages over real sockets until spent."""

    def __init__(self, pid: str, peer: str, budget: int) -> None:
        super().__init__(pid)
        self.peer = peer
        self.budget = budget  # remaining sends this side may make
        self.received = 0

    def on_start(self) -> None:
        if self.pid == "a":
            window = min(PINGPONG_WINDOW, self.budget)
            self.budget -= window
            for i in range(window):
                # The ball is a registered wire message, not a bare
                # tuple: the cell measures the transport pipeline on
                # the frames real runs put through it.
                self.env.send(
                    self.peer, Request(f"c1:{i}", "c1", ("set", "k042", i))
                )

    def on_message(self, src: str, payload: Any) -> None:
        self.received += 1
        if self.budget > 0:
            self.budget -= 1
            self.env.send(src, payload)


def tcp_pingpong_msgs_per_sec(n: int) -> float:
    """Messages/sec for a windowed two-process ping-pong over TCP."""

    async def scenario() -> float:
        cluster = TcpCluster(trace_level="off")
        a = _TcpPinger("a", "b", n)
        b = _TcpPinger("b", "a", n)
        cluster.add_process(a)
        cluster.add_process(b)
        await cluster.start()
        start = time.perf_counter()
        done = await cluster.run_until(
            lambda: a.received + b.received >= 2 * n,
            timeout=60.0,
            poll=0.001,
        )
        elapsed = time.perf_counter() - start
        total = a.received + b.received
        await cluster.shutdown()
        assert done, "ping-pong did not finish"
        return total / elapsed

    # Best of three scenarios: a single run's rate swings with loop
    # scheduling jitter; three fresh clusters give a stable ceiling.
    return max(asyncio.run(scenario()) for _ in range(3))


# ----------------------------------------------------------------------
# End-to-end cells (ops/sec over TCP, tracing off)
# ----------------------------------------------------------------------

def _ops_per_sec(config: RuntimeScenarioConfig) -> float:
    run = run_runtime_scenario(config)
    assert run.completed, "wall-clock scenario did not reach quiescence"
    return run.ops_per_sec()


def _oar_scenario(requests_per_client: int) -> ShardedScenarioConfig:
    """Failure-free OAR under saturation: one group, 3 replicas, 4
    open-loop clients offering load far above capacity, so the measured
    ops/sec is the pipeline's throughput ceiling (codec + transport +
    protocol CPU), not a closed loop's round-trip latency."""
    return ShardedScenarioConfig(
        seed=0,
        n_shards=1,
        n_servers=3,
        n_clients=4,
        requests_per_client=requests_per_client,
        machine="kv",
        workload="uniform",
        n_keys=64,
        driver="open",
        open_rate=500.0,  # x time_scale 0.04 = 12,500/s offered per client
        trace_level="off",
    )


def _tcp_oar(requests_per_client: int) -> RuntimeScenarioConfig:
    """Failure-free OAR over TCP with a 2 ms timed flush window (the
    throughput cells accept the latency trade)."""
    return RuntimeScenarioConfig(
        scenario=_oar_scenario(requests_per_client),
        backend="tcp",
        tcp_flush_interval=0.002,
    )


def tcp_oar_ops_per_sec(requests_per_client: int) -> float:
    return _ops_per_sec(_tcp_oar(requests_per_client))


def tcp_oar_transport_stats(requests_per_client: int) -> Dict[str, int]:
    """``TcpCluster.stats()`` of one run of the same cell: how well the
    transport batched (not a rate, so not part of the committed section)."""
    return run_runtime_scenario(_tcp_oar(requests_per_client)).transport_stats()


#: Ceiling of :func:`order_wait_ratio` in the runtime-smoke job.  The
#: sequencer orders when the loop has drained its input, so a lone
#: write waits for Task 1a about as long as its request took to arrive
#: (~1); behind a 2 ms ordering tick the same cell reads ~6.5.
ORDER_WAIT_CEILING = 3.0


def tcp_paced_stages(requests_per_client: int) -> StageLatencies:
    """Where a write's time goes when nothing queues: the OAR cell at
    4 x 50 ops/s (2 per unit x ``time_scale`` 0.04), turn-boundary
    flush, full trace, checked."""
    run = run_runtime_scenario(
        RuntimeScenarioConfig(
            scenario=_oar_scenario(requests_per_client).with_changes(
                open_rate=2.0, trace_level="full"
            ),
            backend="tcp",
        )
    )
    assert run.completed, "wall-clock scenario did not reach quiescence"
    run.check_all()
    return stage_latencies(run.view.trace)


def order_wait_ratio(stages: StageLatencies) -> float:
    """Median R-deliver@sequencer -> ``seq_order`` over median submit ->
    R-deliver@sequencer: the wait for Task 1a in units of one hop."""
    first_hop, order_wait = stages.medians()[:2]
    return order_wait / first_hop


def tcp_sharded_ops_per_sec(requests_per_client: int) -> float:
    """The B10 shape over sockets: 2 shards, 6 clients, uniform keys."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=0,
                n_shards=2,
                n_servers=3,
                n_clients=6,
                requests_per_client=requests_per_client,
                machine="kv",
                workload="uniform",
                n_keys=64,
                driver="open",
                open_rate=500.0,
                trace_level="off",
            ),
            backend="tcp",
        )
    )


def tcp_readheavy_ops_per_sec(requests_per_client: int) -> float:
    """The B12 shape over sockets: replica-local optimistic reads."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=0,
                n_shards=2,
                n_servers=3,
                n_clients=6,
                requests_per_client=requests_per_client,
                machine="bank",
                workload="readheavy",
                read_ratio=0.9,
                read_mode="optimistic",
                driver="open",
                open_rate=500.0,
                trace_level="off",
            ),
            backend="tcp",
        )
    )


# ----------------------------------------------------------------------
# Section driver
# ----------------------------------------------------------------------

def run_wallclock(quick: bool = False) -> Dict[str, Any]:
    """Measure every wall-clock cell; returns the ``wallclock`` section."""
    codec_n = 1_300 if quick else 4_000  # x len(mix) frames per trial
    pingpong_n = 3_000 if quick else 10_000
    oar_requests = 150 if quick else 400
    sharded_requests = 100 if quick else 250

    codec = {
        name: round(rate, 1) for name, rate in codec_rates(codec_n).items()
    }
    return {
        "codec_roundtrips_per_sec": codec,
        "tcp_pingpong_msgs_per_sec": {
            "binary": round(tcp_pingpong_msgs_per_sec(pingpong_n), 1)
        },
        "tcp_oar_ops_per_sec": {
            "binary": round(tcp_oar_ops_per_sec(oar_requests), 1)
        },
        "tcp_sharded_ops_per_sec": {
            "binary": round(tcp_sharded_ops_per_sec(sharded_requests), 1)
        },
        "tcp_readheavy_ops_per_sec": {
            "binary": round(tcp_readheavy_ops_per_sec(sharded_requests), 1)
        },
        "ratios": {
            "codec_binary_vs_pickle": round(codec["binary"] / codec["pickle"], 2),
        },
    }


def format_wallclock(section: Dict[str, Any]) -> str:
    """Human-readable rendering of the wallclock section."""
    lines = ["Wall-clock cells (real TCP backend, tracing off)", ""]
    for key, cells in section.items():
        if key == "ratios":
            continue
        rendered = ", ".join(f"{name}={value:,.0f}" for name, value in cells.items())
        lines.append(f"  {key:<28} {rendered}")
    ratios = section["ratios"]
    lines.append("")
    lines.append(f"  codec binary/pickle: {ratios['codec_binary_vs_pickle']:.2f}x")
    return "\n".join(lines)


def format_transport(stats: Dict[str, int]) -> str:
    """Send- and receive-side batching of one TCP run, from its ``stats()``."""
    return (
        f"  tcp_oar transport: {stats['frames_sent']:,} frames, "
        f"{stats['frames_sent'] / stats['flushes']:.2f} per flush "
        f"({stats['flushes']:,} flushes), "
        f"{stats['frames_received'] / stats['wakeups']:.2f} per wakeup "
        f"({stats['wakeups']:,} wakeups)"
    )
